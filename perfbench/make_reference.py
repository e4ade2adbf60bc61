"""Write `reference.json`: the input pools and the expected outputs.

    python3 perfbench/make_reference.py

Builds every pool of every workload from fixed generator seeds, runs each
op once through the same executor the benchmark uses (`child.Session`),
and stores its output: a digest for exact ops, the p(Z) and p'(Z) values
for numeric ones.  It rewrites the whole file.  Run it only when the
inputs change or when a change to the library is meant to change outputs;
say which in CHANGES.md.  Takes about 9 minutes.

The `wp-cubic` matrices drawn too close to a lattice point are kept apart,
under `waiting`: see `_matrices`.  No round draws them.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for key, value in {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}.items():
    os.environ.setdefault(key, value)
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
from alcoves.rootdata import weyl_group  # noqa: E402
from workloads import (LATTICES, VERIFY_SAMPLES, VERIFY_SUITES,  # noqa: E402
                       WP_RADIUS, face_name, faces, vec_str)

CLI_TYPES = ("A2", "B2", "G2", "A3")
CENTRALIZER_POOL = 96
VERIFY_SEEDS = 32
# generic, stabilizer and reduce points per rank-4 type
POINT_POOL = {"B4": 128, "F4": 256}
HEAVY_POOL = 24  # special and double-affine points per rank-4 type
WP_POOL = {1: 64, 3: 16, 8: 48}
MIN_POLE_DISTANCE = 0.1
# special points: theta = 0 and `a` a W-image of this point of the
# 1/2-grid plus a coroot-lattice vector; their centralizers all have the
# same Weyl group order (B4: 32, F4: 96)
SPECIAL_BASE = {"B4": ("1/2", "0", "0", "0"), "F4": ("1/2", "1/2", "0", "0")}


def _rand_vec(rng, dim, lo, hi, den):
    return tuple(Fraction(rng.randint(lo * den, hi * den), den)
                 for _ in range(dim))


def _theta(rng, dim):
    return tuple(Fraction(rng.randint(0, 3), 4) for _ in range(dim))


def _cli(label, *argv):
    base = ["--type", label[0], "--rank", label[1:]]
    return {"kind": "cli", "type": label, "argv": [*argv, *base]}


def cli_session():
    fixed, pools = [], {}
    for label in CLI_TYPES:
        rank = int(label[1:])
        fs = faces(rank)
        fixed += [_cli(label, "roots"), _cli(label, "faces"),
                  _cli(label, "diagram")]
        fixed += [_cli(label, "star", "--face", face_name(f)) for f in fs]
        if rank == 2:  # an A3 overlap takes 9-19 s
            verts = [f for f in fs if len(f) == rank]
            pools[f"overlap-{label}"] = [
                [_cli(label, "overlap", "--face1", face_name(v),
                      "--face2", face_name(f))]
                for v in verts for f in fs]
        rng = random.Random(f"centralizer-{label}")
        pools[f"centralizer-{label}"] = [
            [_cli(label, "centralizer",
                  f"--theta={vec_str(_theta(rng, rank))}",
                  f"--a={vec_str(_rand_vec(rng, rank, -2, 2, 6))}")]
            for _ in range(CENTRALIZER_POOL)]
        pools[f"parabolic-{label}"] = [
            [_cli(label, "parabolic", "--face1", face_name(f1),
                  "--face2", face_name(f2))]
            for f1 in fs for f2 in fs if f1 > f2]
        pools[f"verify-{label}"] = [
            [_cli(label, "verify", suite, "--seed", str(seed),
                  "--samples", str(VERIFY_SAMPLES))
             for suite in VERIFY_SUITES[label]]
            for seed in range(VERIFY_SEEDS)]
    return fixed, pools


def rank4_points(session):
    pools = {}
    for label in ("B4", "F4"):
        rs = session.systems[label]
        rng = random.Random(f"rank4-{label}")
        pools[f"generic-{label}"] = [
            [{"kind": "centralizer_elliptic", "type": label,
              "theta": vec_str(_theta(rng, 4)),
              "a": vec_str(_rand_vec(rng, 4, -2, 2, 6))}]
            for _ in range(POINT_POOL[label])]
        pools[f"stabilizer-{label}"] = [
            [{"kind": "stabilizer_of_point", "type": label,
              "x": vec_str(_rand_vec(rng, 4, -2, 2, 6))}]
            for _ in range(POINT_POOL[label])]
        pools[f"reduce-{label}"] = [
            [{"kind": "reduce_to_alcove", "type": label,
              "x": vec_str(_rand_vec(rng, 4, -3, 3, 8))}]
            for _ in range(POINT_POOL[label])]
        weyl = weyl_group(rs)
        base = tuple(Fraction(c) for c in SPECIAL_BASE[label])
        special = []
        for _ in range(HEAVY_POOL):
            w = weyl[rng.randrange(len(weyl))]
            lam = _rand_vec(rng, 4, -1, 1, 1)
            a = tuple(p + q for p, q in zip(w.apply(base), lam))
            special.append([{"kind": "centralizer_elliptic", "type": label,
                             "theta": "0,0,0,0", "a": vec_str(a)}])
        pools[f"special-{label}"] = special
        if label == "B4":  # see workloads.ROUND_DRAWS
            pools[f"double-affine-{label}"] = [
                [{"kind": "double_affine_centralizer", "type": label,
                  "a1": vec_str(_rand_vec(rng, 4, -2, 2, 6)),
                  "a2": vec_str(_rand_vec(rng, 4, -2, 2, 6))}]
                for _ in range(HEAVY_POOL)]
    return [], pools


def _matrix(rng, n):
    """The acceptance-8 recipe for random matrices, with the random part
    scaled by 3/n so the spectrum stays the same size as n grows."""
    scale = 0.4 * 3 / max(n, 3)
    return [[[0.3 * (i == j) + scale * rng.uniform(0.1, 0.9),
              scale * rng.uniform(0.2, 1.8)] for j in range(n)]
            for i in range(n)]


def _pole_distance(z, periods) -> float:
    """Distance from the spectrum of z to the nearest lattice point."""
    import numpy as np
    w1, w2 = periods
    basis = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    out = float("inf")
    for ev in np.linalg.eigvals(np.array(
            [[complex(*c) for c in row] for row in z])):
        m0, n0 = np.floor(np.linalg.solve(basis, [ev.real, ev.imag]))
        for m in (m0 - 1, m0, m0 + 1, m0 + 2):
            for n in (n0 - 1, n0, n0 + 1, n0 + 2):
                out = min(out, abs(ev - (m * w1 + n * w2)))
    return out


def _matrices(rng, n, count, periods) -> tuple[list, list]:
    """`count` matrices whose eigenvalues all lie at least MIN_POLE_DISTANCE
    from the lattice, and the draws rejected on the way.  Closer to a pole,
    p(Z) grows like 1/d^2, and the absolute acceptance-8 residual
    tolerances fail from conditioning alone (d = 0.024 gives |p| = 850
    and a commutator residual of 9e-8).  The rejected draws are stored
    apart, waiting for the ROADMAP fix of those tolerances."""
    out, rejected = [], []
    while len(out) < count:
        z = _matrix(rng, n)
        if _pole_distance(z, periods) >= MIN_POLE_DISTANCE:
            out.append(z)
        else:
            rejected.append(z)
    return out, rejected


def wp_cubic():
    fixed, pools, near_pole = [], {}, []
    ev = (0.4, 0.3)
    jordan = [[list(ev), [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], list(ev), [1.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], list(ev)]]
    for lat, (w1, w2) in LATTICES.items():
        fixed.append({"kind": "cubic_report", "lattice": lat,
                      "radius": WP_RADIUS, "z": jordan})
        for w in (w1, w2, w1 + w2):
            fixed.append({"kind": "wp_scalar", "lattice": lat,
                          "radius": WP_RADIUS, "z": [w.real / 2, w.imag / 2]})
        for n, size in WP_POOL.items():
            rng = random.Random(f"wp-{lat}-{n}")
            drawn, rejected = _matrices(rng, n, size, (w1, w2))
            pools[f"cubic-n{n}-{lat}"] = [
                [{"kind": "cubic_report", "lattice": lat,
                  "radius": WP_RADIUS, "z": z}] for z in drawn]
            near_pole += [[{"kind": "cubic_report", "lattice": lat,
                            "radius": WP_RADIUS, "z": z}] for z in rejected]
    return fixed, pools, {"cubic-near-pole": near_pole}


def expect(session, op, waiting=False) -> dict:
    """The stored expectation of one op.  A `waiting` op only has to run:
    its residuals may miss the tolerances."""
    reply = session.run(op, fresh=True)
    out = reply["out"]
    why = run.check({"op": op, "expect": {}}, reply)
    if why is not None and not (waiting and "residual" in why):
        raise SystemExit(f"reference op failed: {op}: {why}")
    if "digest" in out:
        want = {"digest": out["digest"]}
        if op.get("type") == "A2" and op["argv"][0] == "diagram":
            want["fixture"] = "tests/fixtures/sl3_diagram.json"
        return want
    # 13 significant digits keep the stored values far inside the 1e-10
    # relative tolerance
    return {k: json.loads(json.dumps(out[k]), parse_float=_round13)
            for k in ("p", "dp") if k in out}


def _round13(text: str) -> float:
    return float(f"{float(text):.13g}")


def build(workload: str) -> dict:
    session = child.Session(workload, trace=False, src=str(ROOT / "src"))
    waiting_pools = {}
    if workload == "cli-session":
        fixed, pools = cli_session()
    elif workload == "rank4-points":
        fixed, pools = rank4_points(session)
    else:
        fixed, pools, waiting_pools = wp_cubic()
    t0 = time.perf_counter()

    def entries(items, waiting=False):
        return [[{"op": op, "expect": expect(session, op, waiting)}
                 for op in item] for item in items]

    out = {
        "fixed": [{"op": op, "expect": expect(session, op)} for op in fixed],
        "pools": {name: entries(items) for name, items in pools.items()},
    }
    if waiting_pools:
        out["waiting"] = {name: entries(items, waiting=True)
                          for name, items in waiting_pools.items()}
    print(f"{workload}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def main() -> int:
    ref = {workload: build(workload)
           for workload in ("cli-session", "rank4-points", "wp-cubic")}
    (HERE / "reference.json").write_text(dump(ref))
    return 0


def dump(ref: dict) -> str:
    """JSON with one line per op entry or pool item, for readable diffs."""
    def compact(obj):
        return json.dumps(obj, separators=(",", ":"))

    lines = ["{"]
    for wi, (workload, data) in enumerate(ref.items()):
        lines.append(f" {compact(workload)}: {{")
        lines.append('  "fixed": [')
        lines += [f"   {compact(e)}," for e in data["fixed"]]
        if data["fixed"]:
            lines[-1] = lines[-1][:-1]
        lines.append("  ],")
        groups = [k for k in ("pools", "waiting") if k in data]
        for gi, group in enumerate(groups):
            lines.append(f"  {compact(group)}: {{")
            for pi, (name, items) in enumerate(data[group].items()):
                lines.append(f"   {compact(name)}: [")
                lines += [f"    {compact(item)}," for item in items]
                lines[-1] = lines[-1][:-1]
                lines.append("   ]"
                             + ("," if pi < len(data[group]) - 1 else ""))
            lines.append("  }" + ("," if gi < len(groups) - 1 else ""))
        lines.append(" }" + ("," if wi < len(ref) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
