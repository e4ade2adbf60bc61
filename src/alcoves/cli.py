"""Command-line front end and the one-shot verification harness.

All combinatorial inputs are exact: rational arguments are given as
comma-separated "p/q" strings, faces as comma-separated wall indices.
Exit codes: 0 all passed, 1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import alcove, centralizer, parabolic, ratmat, svg, weierstrass, weylaff
from .rootdata import CartanType, EnumerationGuard, InvalidCartanType, \
    RootSystem, build_root_system
from .weylaff import compose, invert, star_contains

# -- reports ---------------------------------------------------------------


@dataclass
class VerificationReport:
    check_name: str
    cartan_type: str
    parameters: dict = field(default_factory=dict)
    passed: bool = True
    counterexample: object = None
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        out = {
            "check": self.check_name,
            "cartan_type": self.cartan_type,
            "parameters": self.parameters,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if not self.passed:
            out["counterexample"] = repr(self.counterexample)
        return out


def _run_check(reports, rs_label, name, params, fn):
    t0 = time.monotonic()
    try:
        cex = fn()
    except EnumerationGuard:  # the input is out of range: a usage error
        raise
    except Exception as e:  # a crash is a failure with the error attached
        cex = f"exception: {e!r}"
    ms = int((time.monotonic() - t0) * 1000)
    reports.append(VerificationReport(
        check_name=name, cartan_type=rs_label, parameters=params,
        passed=cex is None, counterexample=cex, elapsed_ms=ms,
    ))


# -- sampling helpers ------------------------------------------------------


def _rand_frac(rng, den=8) -> Fraction:
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _rand_point(rng, dim, den=8):
    return tuple(_rand_frac(rng, den) for _ in range(dim))


def _star_samples(rs, j, rng, count):
    """Random points of St_J: move from the face witness toward random
    facet witnesses of the star; filtered by the exact membership test."""
    witnesses = weylaff.star_facet_witnesses(rs, j)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        p = witnesses[rng.randrange(len(witnesses))]
        t = Fraction(rng.randint(0, 16), 16)
        x = ratmat.add(ratmat.scale(1 - t, j.witness), ratmat.scale(t, p))
        if star_contains(rs, j, x):
            out.append(x)
    return out


# -- verification suites ---------------------------------------------------


def suite_faces(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    cat = alcove.faces_of_alcove(rs)

    def check_count():
        expect = (1 << (rs.rank + 1)) - 1
        return None if len(cat.faces) == expect \
            else f"{len(cat.faces)} faces, expected {expect}"

    def check_ver():
        return None if alcove.verify_ver_isomorphism(rs) \
            else "vertex-subset map is not an isomorphism"

    _run_check(reports, label, "face_count", {}, check_count)
    _run_check(reports, label, "ver_isomorphism", {}, check_ver)
    return reports


def suite_stabilizers(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    cat = alcove.faces_of_alcove(rs)
    for f in cat.faces:
        def check(f=f):
            # stabilizer_of_face refuses non-sc groups: Steinberg needs sc
            full = weylaff.stabilizer_of_face(rs, f)
            gen = weylaff.point_reflection_subgroup(rs, f.witness)
            return None if gen.element_set() == full.element_set() else (
                f"reflection group order {gen.order} != "
                f"stabilizer order {full.order}"
            )
        _run_check(reports, label, "face_stabilizer_equals_point_stabilizer",
                   {"face": sorted(f.vanishing_walls)}, check)
    return reports


def suite_stars(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    rng = random.Random(seed)
    cat = alcove.faces_of_alcove(rs)
    for f in cat.faces:
        def check_int(f=f):
            return None if weylaff.verify_star_intersection(rs, f) \
                else "star differs from intersection of vertex stars"
        _run_check(reports, label, "star_intersection",
                   {"face": sorted(f.vanishing_walls)}, check_int)

        def check_emb(f=f):
            pts = _star_samples(rs, f, rng, max(4, samples // 10))
            pairs = [(pts[i], pts[(i + 1) % len(pts)])
                     for i in range(len(pts))]
            return weylaff.open_embedding_counterexample(rs, f, pairs)
        _run_check(reports, label, "open_embedding",
                   {"face": sorted(f.vanishing_walls), "seed": seed}, check_emb)
    return reports


def suite_cover(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    rng = random.Random(seed)

    def check_cover():
        pts = [_rand_point(rng, rs.dim) for _ in range(samples)]
        return None if weylaff.verify_cover(rs, pts) else "uncovered point"

    def check_group_law():
        for _ in range(min(samples, 100)):
            w0 = rng.choice(weylaff.weyl_elements(rs))
            lam = rs.from_coweight_coords(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(rs.dim))
            )
            el = weylaff.AffineWeylElement(w0, lam)
            if not compose(rs, el, invert(rs, el)).is_identity():
                return f"group law failed at {el}"
        return None

    def check_idempotent():
        for _ in range(min(samples, 50)):
            x = _rand_point(rng, rs.dim)
            _, xr = weylaff.reduce_to_alcove(rs, x)
            w0 = rng.choice(weylaff.weyl_elements(rs))
            lam = rs.from_coweight_coords(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(rs.dim))
            )
            y = weylaff.AffineWeylElement(w0, lam).apply(x)
            _, yr = weylaff.reduce_to_alcove(rs, y)
            if xr != yr:
                return f"reduction not equivariant at {x}"
        return None

    _run_check(reports, label, "star_cover", {"samples": samples,
                                              "seed": seed}, check_cover)
    _run_check(reports, label, "group_law", {"seed": seed}, check_group_law)
    _run_check(reports, label, "reduction_equivariant", {"seed": seed},
               check_idempotent)
    return reports


def suite_centralizer(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    rng = random.Random(seed)
    cat = alcove.faces_of_alcove(rs)

    def check_connected():
        if rs.cartan_type.isogeny != "sc":
            return None
        for _ in range(samples):
            a = _rand_point(rng, rs.dim, den=6)
            data = centralizer.centralizer_elliptic(
                rs, centralizer.exp_point(rs, ratmat.zeros(rs.dim), a)
            )
            if data.pi0_order != 1:
                return f"pi0 = {data.pi0_order} at theta=0, a={a}"
        return None

    def check_se_et():
        per_face = max(2, samples // len(cat.faces))
        for f in cat.faces:
            fdata = centralizer.centralizer_face(rs, f)
            fphi = set(fdata.phi)
            fw = fdata.w.element_set()
            for a in _star_samples(rs, f, rng, per_face):
                theta = tuple(Fraction(rng.randint(0, 3), 4)
                              for _ in range(rs.dim))
                s = centralizer.exp_point(rs, theta, a)
                if not centralizer.se_contains(rs, f, s):
                    return f"sampled point left the star at face {f}"
                sdata = centralizer.centralizer_elliptic(rs, s)
                if not (set(sdata.phi) <= fphi
                        and sdata.w.element_set() <= fw):
                    return (f"G_s not inside G_J at face "
                            f"{sorted(f.vanishing_walls)}, s={s}")
        return None

    def check_equivariance():
        group = weylaff.weyl_elements(rs)
        for _ in range(min(samples, 40)):
            theta = tuple(Fraction(rng.randint(0, 3), 4)
                          for _ in range(rs.dim))
            a = _rand_point(rng, rs.dim, den=6)
            s = centralizer.exp_point(rs, theta, a)
            d1 = centralizer.centralizer_elliptic(rs, s)
            w0 = group[rng.randrange(len(group))]
            theta2 = rs.coweight_coords(
                w0.apply(rs.from_coweight_coords(s.theta))
            )
            s2 = centralizer.exp_point(rs, theta2, w0.apply(s.a))
            d2 = centralizer.centralizer_elliptic(rs, s2)
            if (len(d1.phi) != len(d2.phi) or d1.w.order != d2.w.order
                    or d1.w0_order != d2.w0_order):
                return f"centralizer data not W-equivariant at {s}"
        return None

    def check_negation_closed():
        for f in cat.faces:
            data = centralizer.centralizer_face(rs, f)
            phi = set(data.phi)
            for ar in phi:
                if alcove.negate_affine_root(rs, ar) not in phi:
                    return f"phi not negation-closed at face {f}"
        return None

    if rs.cartan_type.isogeny == "sc":
        _run_check(reports, label, "connected_at_theta_zero",
                   {"samples": samples, "seed": seed}, check_connected)
        _run_check(reports, label, "se_inside_et", {"seed": seed}, check_se_et)
        _run_check(reports, label, "phi_negation_closed", {},
                   check_negation_closed)
    _run_check(reports, label, "w_equivariance", {"seed": seed},
               check_equivariance)
    return reports


def suite_parabolic(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    cat = alcove.faces_of_alcove(rs)
    arrows = [a for a in cat.arrows if a[0] != a[1]]

    def check_decomposition():
        for i, j in cat.arrows:
            p = parabolic.parabolic(rs, cat.faces[i], cat.faces[j])
            amb = set(p.ambient)
            levi = set(p.levi)
            nil = set(p.nilradical)
            neg = {alcove.negate_affine_root(rs, ar) for ar in nil}
            if nil & neg or not levi.isdisjoint(nil):
                return f"overlap in decomposition at arrow {(i, j)}"
            if levi | nil | neg != amb:
                return f"ambient not exhausted at arrow {(i, j)}"
        return None

    def check_compose():
        arrow_set = set(cat.arrows)
        for i, j in cat.arrows:
            for j2, k in cat.arrows:
                if j2 != j or (i, k) not in arrow_set:
                    continue
                if not parabolic.compose_parabolics(
                    rs, cat.faces[i], cat.faces[j], cat.faces[k]
                ):
                    return f"composition failed on chain {(i, j, k)}"
        return None

    def check_nilradical_closed():
        for i, j in arrows:
            p = parabolic.parabolic(rs, cat.faces[i], cat.faces[j])
            amb = {(rs.all_roots[a.root_index], a.level) for a in p.ambient}
            nil = {(rs.all_roots[a.root_index], a.level)
                   for a in p.nilradical}
            for (r1, n1) in nil:
                for (r2, n2) in nil:
                    s = (ratmat.add(r1, r2), n1 + n2)
                    if s in amb and s not in nil:
                        return f"nilradical not closed at arrow {(i, j)}"
        return None

    _run_check(reports, label, "parabolic_decomposition", {},
               check_decomposition)
    _run_check(reports, label, "parabolic_composition", {}, check_compose)
    _run_check(reports, label, "nilradical_closed", {},
               check_nilradical_closed)
    return reports


def suite_double_affine(rs: RootSystem, seed: int, samples: int):
    reports = []
    label = rs.cartan_type.label()
    rng = random.Random(seed)

    def check():
        for _ in range(samples):
            a1 = _rand_point(rng, rs.dim, den=6)
            a2 = _rand_point(rng, rs.dim, den=6)
            data = centralizer.double_affine_centralizer(rs, a1, a2)
            if not data.cartesian:
                return f"Cartesian square failed at B=({a1}, {a2})"
            if not data.injective:
                return f"injectivity failed at B=({a1}, {a2})"
        return None

    _run_check(reports, label, "double_affine_cartesian",
               {"samples": samples, "seed": seed}, check)
    return reports


def suite_weierstrass(seed: int, radius: int = 100):
    reports = []
    rng = random.Random(seed)
    lat = weierstrass.Lattice(1.0, 2.0j)

    def check_cubic():
        import numpy as np
        for i in range(4):
            if i == 0:
                z = np.array([[0.3 + 0.2j]])
            elif i == 1:
                ev = 0.4 + 0.3j
                z = np.array([[ev, 1, 0], [0, ev, 1], [0, 0, ev]])
            else:
                z = np.array(
                    [[complex(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.8))
                      for _ in range(3)] for _ in range(3)]
                ) * 0.4 + 0.3 * np.eye(3)
            rep = weierstrass.cubic_report(z, lat, radius)
            if rep["residual_cubic"] > 1e-5:
                return f"cubic residual {rep['residual_cubic']}"
            if rep["residual_commutator"] > 1e-9:
                return f"commutator residual {rep['residual_commutator']}"
        return None

    def check_half_periods():
        e = [weierstrass.wp_scalar(w / 2, lat, radius)
             for w in (1.0, 2.0j, 1.0 + 2.0j)]
        s = abs(sum(e))
        return None if s < 1e-7 else f"half-period sum {s}"

    def check_symmetric_lattices():
        g3 = weierstrass.eisenstein(weierstrass.Lattice(1.0, 1.0j), 6)
        import cmath
        g2 = weierstrass.eisenstein(
            weierstrass.Lattice(1.0, cmath.exp(1j * cmath.pi / 3)), 4
        )
        if abs(g3) > 1e-7:
            return f"square-lattice G6 = {g3}"
        if abs(g2) > 1e-7:
            return f"hexagonal G4 = {g2}"
        return None

    _run_check(reports, "-", "weierstrass_cubic",
               {"radius": radius, "seed": seed}, check_cubic)
    _run_check(reports, "-", "weierstrass_half_periods",
               {"radius": radius}, check_half_periods)
    _run_check(reports, "-", "weierstrass_symmetric_lattices", {},
               check_symmetric_lattices)
    return reports


RADIUS_HELP = ("largest lattice shell of the p and p' sums (>= 1); they stop "
               "at the first shell whose omitted tail is certified below "
               "1e-16")

SUITES = ("faces", "stabilizers", "stars", "cover", "parabolic",
          "centralizer", "double-affine", "weierstrass", "all")


def run_suite(suite: str, rs: RootSystem | None, seed: int,
              samples: int, radius: int = 100):
    fns = {
        "faces": suite_faces,
        "stabilizers": suite_stabilizers,
        "stars": suite_stars,
        "cover": suite_cover,
        "parabolic": suite_parabolic,
        "centralizer": suite_centralizer,
        "double-affine": suite_double_affine,
    }
    reports = []
    names = [s for s in fns] if suite == "all" else [suite] \
        if suite != "weierstrass" else []
    for name in names:
        reports.extend(fns[name](rs, seed, samples))
    if suite in ("weierstrass", "all"):
        reports.extend(suite_weierstrass(seed, radius))
    return reports


# -- argument parsing ------------------------------------------------------


def _parse_vec(s: str):
    try:
        return tuple(ratmat.parse_frac(p) for p in s.split(","))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _parse_face(s: str):
    if s in ("", "-", "interior"):
        return frozenset()
    return frozenset(int(p) for p in s.split(","))


def _parse_complex(s: str) -> complex:
    re, im = s.split(",")
    return complex(float(re), float(im))


def _parse_matrix(raw) -> list[list[complex]]:
    """Rows of complex entries from a JSON array of rows of [re, im]
    pairs; shape is checked by the weierstrass module."""
    def entry(c) -> complex:
        if not (isinstance(c, list) and len(c) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in c)):
            raise ValueError(f"--matrix entry {c!r} is not an [re, im] pair")
        return complex(c[0], c[1])

    if not (isinstance(raw, list)
            and all(isinstance(row, list) for row in raw)):
        raise ValueError("--matrix must be a JSON array of rows")
    return [[entry(c) for c in row] for row in raw]


def _build(args) -> RootSystem:
    return build_root_system(
        CartanType(args.type, args.rank, args.isogeny)
    )


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="alcoves",
        description="Exact alcove geometry, loop-group centralizer "
                    "combinatorics, and a matrix Weierstrass p-function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, isogeny=True):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"))
        p.add_argument("--rank", required=True, type=int)
        if isogeny:
            p.add_argument("--isogeny", default="sc",
                           choices=["sc", "adjoint", "gl"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("roots", help="root system data as JSON")
    common(p)

    p = sub.add_parser("faces", help="face category of the alcove as JSON")
    common(p)

    p = sub.add_parser("centralizer",
                       help="centralizer data at Exp(theta, a tau)")
    common(p)
    p.add_argument("--theta", default=None,
                   help="coweight-basis coordinates, p/q comma list")
    p.add_argument("--a", required=True,
                   help="coroot-basis coordinates of a, p/q comma list")

    p = sub.add_parser("parabolic", help="parabolic data for an arrow")
    common(p)
    p.add_argument("--face1", required=True, help="wall indices, e.g. 0,2")
    p.add_argument("--face2", required=True)

    p = sub.add_parser("diagram", help="full restriction diagram as JSON")
    common(p)

    p = sub.add_parser("star", help="star membership / star facets")
    common(p)
    p.add_argument("--face", required=True)
    p.add_argument("--point", default=None)

    p = sub.add_parser("overlap", help="double cosets of two chart stars")
    common(p)
    p.add_argument("--face1", required=True)
    p.add_argument("--face2", required=True)

    p = sub.add_parser("wp", help="matrix Weierstrass p report")
    p.add_argument("--omega1", required=True, help="re,im")
    p.add_argument("--omega2", required=True, help="re,im")
    p.add_argument("--radius", type=int, default=100, help=RADIUS_HELP)
    p.add_argument("--matrix", required=True,
                   help="JSON file, n x n array of [re, im] pairs")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--type", default="A", choices=list("ABCDEFG"))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--isogeny", default="sc",
                   choices=["sc", "adjoint", "gl"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--radius", type=int, default=100, help=RADIUS_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("svg", help="rank-2 arrangement picture")
    common(p)
    p.add_argument("--region", type=int, default=2)
    p.add_argument("--highlight", default=None, help="wall indices of a face")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InvalidCartanType, EnumerationGuard, ValueError, KeyError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "roots":
        rs = _build(args)
        _emit(args, json.dumps(rs.to_json(), indent=2))
        return 0
    if cmd == "faces":
        rs = _build(args)
        _emit(args, alcove.face_category_json(rs))
        return 0
    if cmd == "centralizer":
        rs = _build(args)
        theta = _parse_vec(args.theta) if args.theta \
            else ratmat.zeros(rs.dim)
        a = _parse_vec(args.a)
        data = centralizer.centralizer_elliptic(
            rs, centralizer.exp_point(rs, theta, a)
        )
        out = data.to_json()
        if rs.cartan_type.family == "A":
            shape = centralizer.matrix_shape(rs, data.phi)
            out["shape"] = shape.to_json()
            out["shape_text"] = shape.render()
        _emit(args, json.dumps(out, indent=2))
        return 0
    if cmd == "parabolic":
        rs = _build(args)
        cat = alcove.faces_of_alcove(rs)
        j1 = cat.face_by_walls(_parse_face(args.face1))
        j2 = cat.face_by_walls(_parse_face(args.face2))
        pd = parabolic.parabolic(rs, j1, j2)
        out = {
            "ambient": [[a.root_index, a.level] for a in pd.ambient],
            "levi": [[a.root_index, a.level] for a in pd.levi],
            "nilradical": [[a.root_index, a.level] for a in pd.nilradical],
        }
        if rs.cartan_type.family == "A":
            out["shape"] = centralizer.matrix_shape(
                rs, tuple(pd.parabolic_set())
            ).to_json()
        _emit(args, json.dumps(out, indent=2))
        return 0
    if cmd == "diagram":
        rs = _build(args)
        _emit(args, parabolic.restriction_diagram_json(rs))
        return 0
    if cmd == "star":
        rs = _build(args)
        cat = alcove.faces_of_alcove(rs)
        j = cat.face_by_walls(_parse_face(args.face))
        if args.point is not None:
            x = _parse_vec(args.point)
            _emit(args, json.dumps(
                {"contains": star_contains(rs, j, x)}, indent=2))
        else:
            wits = weylaff.star_facet_witnesses(rs, j)
            _emit(args, json.dumps(
                {"facet_witnesses": [ratmat.vec_str(w) for w in wits]},
                indent=2))
        return 0
    if cmd == "overlap":
        rs = _build(args)
        cat = alcove.faces_of_alcove(rs)
        j1 = cat.face_by_walls(_parse_face(args.face1))
        j2 = cat.face_by_walls(_parse_face(args.face2))
        cosets = weylaff.chart_overlap(rs, j1, j2)
        out = [
            {
                "rep_word": list(w.finite_part.word),
                "rep_translation": ratmat.vec_str(w.translation),
                "pair_stabilizer_order": stab.order,
            }
            for w, stab in cosets
        ]
        _emit(args, json.dumps(out, indent=2))
        return 0
    if cmd == "wp":
        lat = weierstrass.Lattice(
            _parse_complex(args.omega1), _parse_complex(args.omega2)
        )
        with open(args.matrix, encoding="utf-8") as fh:
            z = _parse_matrix(json.load(fh))
        rep = weierstrass.cubic_report(z, lat, args.radius)
        out = {
            "g2": [rep["g2"].real, rep["g2"].imag],
            "g3": [rep["g3"].real, rep["g3"].imag],
            "residual_cubic": rep["residual_cubic"],
            "residual_commutator": rep["residual_commutator"],
        }
        _emit(args, json.dumps(out, indent=2))
        return 0
    if cmd == "verify":
        if args.radius < 1:
            raise ValueError("--radius must be at least 1")
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        rs = None
        if args.suite != "weierstrass":
            rs = _build(args)
        reports = run_suite(args.suite, rs, args.seed, args.samples,
                            args.radius)
        text = "\n".join(json.dumps(r.to_json()) for r in reports)
        _emit(args, text)
        return 0 if all(r.passed for r in reports) else 1
    if cmd == "svg":
        rs = _build(args)
        highlight = None
        if args.highlight is not None:
            highlight = alcove.faces_of_alcove(rs).face_by_walls(
                _parse_face(args.highlight)
            )
        _emit(args, svg.render_svg(rs, args.region, highlight))
        return 0
    raise ValueError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
