"""Command-line front end and the one-shot verification harness.

All combinatorial inputs are exact: rational arguments are given as
comma-separated "p/q" strings, faces as comma-separated wall indices.
Exit codes: 0 passed, 1 a check failed, 2 usage error, 141 stdout closed.

A call made of a command and exact `--opt value` or `--opt=value` pairs
is read from a table of the parser's own actions (`_table_parse`); any
other argv goes to the full parser, whose answer it is.  A JSON value is
written by `jsontext.dumps_indented`, the bytes of
`json.dumps(value, indent=2)` in one pass; `_text` writes the `roots`,
`faces` and `diagram` texts once per root system.

`_COMMANDS` maps a command to a handler `(rs, args)` that returns a JSON
value or a string.  `SUITES` maps a `verify` suite to a generator
`(rs, rng, seed, samples, radius)`.  To add a check, yield one more
`(name, parameters, check)` from a suite, in report order: `run_suite`
runs and times each check before the suite resumes, and a check returns
None or a counterexample.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from . import alcove, centralizer, parabolic, ratmat, svg, weierstrass, weylaff
from .jsontext import dumps_indented
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
        out = {"check": self.check_name, "cartan_type": self.cartan_type,
               "parameters": self.parameters, "passed": self.passed,
               "elapsed_ms": self.elapsed_ms}
        if not self.passed:
            out["counterexample"] = repr(self.counterexample)
        return out


def _unless(ok, msg):
    """The verdict of a one-line check: None if ok, else msg."""
    return None if ok else msg


# -- sampling helpers ------------------------------------------------------


def _rand_point(rng, dim, den=8):
    return tuple(Fraction(rng.randint(-3 * den, 3 * den), den)
                 for _ in range(dim))


def _rand_theta(rng, dim):
    """A point of the 1/4-grid in [0, 3/4]^dim (coweight coordinates)."""
    return tuple(Fraction(rng.randint(0, 3), 4) for _ in range(dim))


def _rand_affine(rs, rng):
    """A Weyl element, then a coweight with coordinates in [-2, 2]."""
    w0 = rng.choice(weylaff.weyl_elements(rs))
    lam = rs.from_coweight_coords(tuple(Fraction(rng.randint(-2, 2))
                                        for _ in range(rs.dim)))
    return weylaff.AffineWeylElement(w0, lam)


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


def suite_faces(rs, rng, seed, samples, radius):
    n, expect = len(alcove.faces_of_alcove(rs).faces), (1 << (rs.rank + 1)) - 1
    yield "face_count", {}, lambda: _unless(
        n == expect, f"{n} faces, expected {expect}")
    yield "ver_isomorphism", {}, lambda: _unless(
        alcove.verify_ver_isomorphism(rs),
        "vertex-subset map is not an isomorphism")


def suite_stabilizers(rs, rng, seed, samples, radius):
    for f in alcove.faces_of_alcove(rs).faces:
        def check(f=f):
            # stabilizer_of_face refuses non-sc groups: Steinberg needs sc
            full = weylaff.stabilizer_of_face(rs, f)
            gen = weylaff.point_reflection_subgroup(rs, f.witness)
            return _unless(gen.element_set() == full.element_set(),
                           f"reflection group order {gen.order} != "
                           f"stabilizer order {full.order}")
        yield ("face_stabilizer_equals_point_stabilizer",
               {"face": sorted(f.vanishing_walls)}, check)


def suite_stars(rs, rng, seed, samples, radius):
    for f in alcove.faces_of_alcove(rs).faces:
        face = sorted(f.vanishing_walls)

        def check_int(f=f):
            return _unless(weylaff.verify_star_intersection(rs, f),
                           "star differs from intersection of vertex stars")
        yield "star_intersection", {"face": face}, check_int

        def check_emb(f=f):
            pts = _star_samples(rs, f, rng, max(4, samples // 10))
            pairs = list(zip(pts, pts[1:] + pts[:1]))  # each to the next
            return weylaff.open_embedding_counterexample(rs, f, pairs)
        yield "open_embedding", {"face": face, "seed": seed}, check_emb


def suite_cover(rs, rng, seed, samples, radius):
    def check_cover():
        pts = [_rand_point(rng, rs.dim) for _ in range(samples)]
        return _unless(weylaff.verify_cover(rs, pts), "uncovered point")

    def check_group_law():
        for _ in range(min(samples, 100)):
            el = _rand_affine(rs, rng)
            if not compose(rs, el, invert(rs, el)).is_identity():
                return f"group law failed at {el}"
        return None

    def check_equivariant():
        for _ in range(min(samples, 50)):
            x = _rand_point(rng, rs.dim)
            _, xr = weylaff.reduce_to_alcove(rs, x)
            y = _rand_affine(rs, rng).apply(x)
            _, yr = weylaff.reduce_to_alcove(rs, y)
            if xr != yr:
                return f"reduction not equivariant at {x}"
        return None

    yield "star_cover", {"samples": samples, "seed": seed}, check_cover
    yield "group_law", {"seed": seed}, check_group_law
    yield "reduction_equivariant", {"seed": seed}, check_equivariant


def suite_centralizer(rs, rng, seed, samples, radius):
    cat = alcove.faces_of_alcove(rs)

    def check_connected():
        for _ in range(samples):
            a = _rand_point(rng, rs.dim, den=6)
            data = centralizer.centralizer_elliptic(rs, centralizer.exp_point(
                rs, ratmat.zeros(rs.dim), a))
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
                s = centralizer.exp_point(rs, _rand_theta(rng, rs.dim), a)
                if not star_contains(rs, f, s.a):
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
            s = centralizer.exp_point(rs, _rand_theta(rng, rs.dim),
                                      _rand_point(rng, rs.dim, den=6))
            d1 = centralizer.centralizer_elliptic(rs, s)
            w0 = group[rng.randrange(len(group))]
            theta2 = rs.coweight_coords(w0.apply(
                rs.from_coweight_coords(s.theta)))
            s2 = centralizer.exp_point(rs, theta2, w0.apply(s.a))
            d2 = centralizer.centralizer_elliptic(rs, s2)
            if (len(d1.phi) != len(d2.phi) or d1.w.order != d2.w.order
                    or d1.w0_order != d2.w0_order):
                return f"centralizer data not W-equivariant at {s}"
        return None

    def check_negation_closed():
        for f in cat.faces:
            phi = set(centralizer.centralizer_face(rs, f).phi)
            for ar in phi:
                if alcove.negate_affine_root(rs, ar) not in phi:
                    return f"phi not negation-closed at face {f}"
        return None

    if rs.cartan_type.isogeny == "sc":
        yield ("connected_at_theta_zero", {"samples": samples, "seed": seed},
               check_connected)
        yield "se_inside_et", {"seed": seed}, check_se_et
        yield "phi_negation_closed", {}, check_negation_closed
    yield "w_equivariance", {"seed": seed}, check_equivariance


def suite_parabolic(rs, rng, seed, samples, radius):
    cat = alcove.faces_of_alcove(rs)
    # every arrow's data, in `cat.arrows` order, built by the first check
    table = cache(lambda: parabolic.parabolics(rs, cat.faces, cat.arrows))

    def check_decomposition():
        for (i, j), p in table().items():
            levi = set(p.levi)
            nil = set(p.nilradical)
            neg = {alcove.negate_affine_root(rs, ar) for ar in nil}
            if nil & neg or not levi.isdisjoint(nil):
                return f"overlap in decomposition at arrow {(i, j)}"
            if levi | nil | neg != set(p.ambient):
                return f"ambient not exhausted at arrow {(i, j)}"
        return None

    def check_compose():
        for chain in parabolic.chains(cat.arrows):
            if not parabolic.composes(table(), *chain):
                return f"composition failed on chain {chain}"
        return None

    def check_nilradical_closed():
        for (i, j), p in table().items():  # identity arrows: no nilradical
            # keyed by integer gradient, linear and one to one in the root
            amb = {(rs.grads[a.root_index], a.level) for a in p.ambient}
            nil = {(rs.grads[a.root_index], a.level) for a in p.nilradical}
            for (g1, n1) in nil:
                for (g2, n2) in nil:
                    s = (tuple(a + b for a, b in zip(g1, g2)), n1 + n2)
                    if s in amb and s not in nil:
                        return f"nilradical not closed at arrow {(i, j)}"
        return None

    yield "parabolic_decomposition", {}, check_decomposition
    yield "parabolic_composition", {}, check_compose
    yield "nilradical_closed", {}, check_nilradical_closed


def suite_double_affine(rs, rng, seed, samples, radius):
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

    yield "double_affine_cartesian", {"samples": samples, "seed": seed}, check


def suite_weierstrass(rs, rng, seed, samples, radius):
    """The numeric checks; `rs` is unused (None under `verify weierstrass`)."""
    lat = weierstrass.Lattice(1.0, 2.0j)

    def check_cubic():
        ev = 0.4 + 0.3j  # a 1x1, a Jordan block, then two random 3x3
        fixed = (np.array([[0.3 + 0.2j]]),
                 np.array([[ev, 1, 0], [0, ev, 1], [0, 0, ev]]))
        for i in range(4):
            z = fixed[i] if i < 2 else np.array(
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
        s = abs(sum(weierstrass.wp_scalar(w / 2, lat, radius)
                    for w in (1.0, 2.0j, 1.0 + 2.0j)))
        return _unless(s < 1e-7, f"half-period sum {s}")

    def check_symmetric_lattices():
        g3 = weierstrass.eisenstein(weierstrass.Lattice(1.0, 1.0j), 6)
        hexagonal = weierstrass.Lattice(1.0, cmath.exp(1j * cmath.pi / 3))
        g2 = weierstrass.eisenstein(hexagonal, 4)
        if abs(g3) > 1e-7:
            return f"square-lattice G6 = {g3}"
        if abs(g2) > 1e-7:
            return f"hexagonal G4 = {g2}"
        return None

    yield "weierstrass_cubic", {"radius": radius, "seed": seed}, check_cubic
    yield "weierstrass_half_periods", {"radius": radius}, check_half_periods
    yield "weierstrass_symmetric_lattices", {}, check_symmetric_lattices


RADIUS_HELP = ("largest lattice shell of the p and p' sums (>= 1); they stop "
               "at the first shell whose omitted tail is certified below "
               "1e-16")

# suite -> (generator, whether its lines carry the root system's label
# or "-"), in the order `all` runs them
SUITES = {
    "faces": (suite_faces, True), "stabilizers": (suite_stabilizers, True),
    "stars": (suite_stars, True), "cover": (suite_cover, True),
    "parabolic": (suite_parabolic, True),
    "centralizer": (suite_centralizer, True),
    "double-affine": (suite_double_affine, True),
    "weierstrass": (suite_weierstrass, False),
}


def run_suite(suite: str, rs: RootSystem | None, seed: int,
              samples: int, radius: int = 100):
    """One report per check of `suite`, or of every suite for "all"; each
    suite draws from its own `random.Random(seed)`."""
    reports = []
    for name in SUITES if suite == "all" else (suite,):
        fn, labelled = SUITES[name]
        label = rs.cartan_type.label() if labelled else "-"
        for check_name, params, check in fn(rs, random.Random(seed), seed,
                                            samples, radius):
            t0 = time.monotonic()
            try:
                cex = check()
            except EnumerationGuard:  # the input is out of range: exit 2
                raise
            except Exception as e:  # a crash fails, with the error attached
                cex = f"exception: {e!r}"
            reports.append(VerificationReport(
                check_name=check_name, cartan_type=label, parameters=params,
                passed=cex is None, counterexample=cex,
                elapsed_ms=int((time.monotonic() - t0) * 1000),
            ))
    return reports


# -- argument parsing ------------------------------------------------------


def _parse_vec(args, option: str):
    s = getattr(args, option)
    try:
        return tuple(ratmat.parse_frac(p) for p in s.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{option} {s!r} is not a comma list of p/q") \
            from None


def _parse_complex(args, option: str) -> complex:
    s = getattr(args, option)
    try:
        re, im = map(float, s.split(","))
    except ValueError:
        raise ValueError(f"--{option} {s!r} is not re,im") from None
    return complex(re, im)


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
    return build_root_system(CartanType(args.type, args.rank, args.isogeny))


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, flush=True)


@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser, and the table `_parse_args` reads: for each
    command, its positional action (or None), its options by option
    string, and every action its `add_argument` calls returned, in order.
    Built once, on the first call: parsing changes neither."""
    parser = argparse.ArgumentParser(
        prog="alcoves",
        description="Exact alcove geometry, loop-group centralizer "
                    "combinatorics, and a matrix Weierstrass p-function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}

    def command(name, help, common=True):
        """A subparser; returns its `add_argument`, which records each
        action.  Every option is a single-value store option."""
        p = sub.add_parser(name, help=help)
        added = actions[name] = []

        def add(*names, **kwargs):
            added.append(p.add_argument(*names, **kwargs))
        if common:
            add("--type", required=True, choices=list("ABCDEFG"))
            add("--rank", required=True, type=int)
            add("--isogeny", default="sc", choices=["sc", "adjoint", "gl"])
            add("--out", default=None)
        return add

    command("roots", "root system data as JSON")
    command("faces", "face category of the alcove as JSON")
    add = command("centralizer", "centralizer data at Exp(theta, a tau)")
    add("--theta", default=None,
        help="coweight-basis coordinates, p/q comma list")
    add("--a", required=True,
        help="coroot-basis coordinates of a, p/q comma list")
    add = command("parabolic", "parabolic data for an arrow")
    add("--face1", required=True, help="wall indices, e.g. 0,2")
    add("--face2", required=True)
    command("diagram", "full restriction diagram as JSON")
    add = command("star", "star membership / star facets")
    add("--face", required=True)
    add("--point", default=None)
    add = command("overlap", "double cosets of two chart stars")
    add("--face1", required=True)
    add("--face2", required=True)

    add = command("wp", "matrix Weierstrass p report", common=False)
    add("--omega1", required=True, help="re,im")
    add("--omega2", required=True, help="re,im")
    add("--radius", type=int, default=100, help=RADIUS_HELP)
    add("--matrix", required=True,
        help="JSON file, n x n array of [re, im] pairs")
    add("--out", default=None)

    add = command("verify", "run a verification suite", common=False)
    add("suite", choices=(*SUITES, "all"))
    add("--type", default="A", choices=list("ABCDEFG"))
    add("--rank", type=int, default=1)
    add("--isogeny", default="sc", choices=["sc", "adjoint", "gl"])
    add("--seed", type=int, default=0)
    add("--samples", type=int, default=100)
    add("--radius", type=int, default=100, help=RADIUS_HELP)
    add("--out", default=None)

    add = command("svg", "rank-2 arrangement picture")
    add("--region", type=int, default=2)
    add("--highlight", default=None, help="wall indices of a face")

    table = {name: (next((a for a in acts if not a.option_strings), None),
                    {s: a for a in acts for s in a.option_strings},
                    acts) for name, acts in actions.items()}
    return parser, table


def _parse_args(argv) -> argparse.Namespace:
    """The full parser's `parse_args(argv)`, read from the table if it can
    be."""
    argv = sys.argv[1:] if argv is None else argv
    args = _table_parse(argv)
    return _parsers()[0].parse_args(argv) if args is None else args


def _table_parse(argv) -> argparse.Namespace | None:
    """The full parser's Namespace for a command followed by exact
    `--opt value` or `--opt=value` pairs (`verify`'s suite first), each
    value converted by the action's `type` and checked against its
    `choices`, each option not given at its `default`, attributes in the
    full parser's order.  None where only the full parser can answer: an
    abbreviated, unknown or missing option, `-h`, `--`, a separate value
    starting with "-" (but "-" itself), or a value `type` or `choices`
    refuse."""
    entry = _parsers()[1].get(argv[0]) if argv else None
    if entry is None:
        return None
    positional, options, actions = entry
    rest, given = argv[1:], {}
    if positional is not None:
        if not rest or rest[0] not in positional.choices:
            return None
        given[positional], rest = rest[0], rest[1:]
    i = 0
    while i < len(rest):
        if rest[i] in options and i + 1 < len(rest):
            action, value = options[rest[i]], rest[i + 1]
            # the full parser reads "-x" as an option, "-" as a value
            if value.startswith("-") and value != "-":
                return None
            i += 2
        else:
            name, eq, value = rest[i].partition("=")
            # the full parser drops "--" from `--opt=--`, leaving no value
            if not eq or name not in options or value == "--":
                return None
            action = options[name]
            i += 1
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(a.required and a not in given for a in actions):
        return None
    return argparse.Namespace(command=argv[0], **{
        a.dest: given.get(a, a.default) for a in actions})


# -- commands --------------------------------------------------------------


def _face(rs: RootSystem, args, option: str):
    """The face named by `--option`: its vanishing walls as a comma list;
    "", "-" and "interior" name the interior."""
    walls = getattr(args, option)
    try:
        key = frozenset() if walls in ("", "-", "interior") \
            else frozenset(int(p) for p in walls.split(","))
    except ValueError:
        raise ValueError(
            f"--{option} {walls!r} is not a face: give comma-separated wall "
            f"indices 0..{rs.rank}, or - for the interior") from None
    return alcove.faces_of_alcove(rs).face_by_walls(key)


def _centralizer(rs, args):
    theta = _parse_vec(args, "theta") if args.theta else ratmat.zeros(rs.dim)
    data = centralizer.centralizer_elliptic(
        rs, centralizer.exp_point(rs, theta, _parse_vec(args, "a")))
    out = data.to_json()
    if rs.cartan_type.family == "A":
        shape = centralizer.matrix_shape(rs, data.phi)
        out["shape"] = shape.to_json()
        out["shape_text"] = shape.render()
    return out


def _parabolic(rs, args):
    pd = parabolic.parabolic(rs, _face(rs, args, "face1"),
                             _face(rs, args, "face2"))
    out = {key: [[a.root_index, a.level] for a in getattr(pd, key)]
           for key in ("ambient", "levi", "nilradical")}
    if rs.cartan_type.family == "A":
        out["shape"] = centralizer.matrix_shape(
            rs, tuple(pd.parabolic_set())).to_json()
    return out


def _star(rs, args):
    j = _face(rs, args, "face")
    if args.point is not None:
        return {"contains": star_contains(rs, j, _parse_vec(args, "point"))}
    return {"facet_witnesses": [ratmat.vec_str(w) for w in
                                weylaff.star_facet_witnesses(rs, j)]}


def _overlap(rs, args):
    cosets = weylaff.chart_overlap(rs, _face(rs, args, "face1"),
                                   _face(rs, args, "face2"))
    return [{"rep_word": list(w.finite_part.word),
             "rep_translation": ratmat.vec_str(w.translation),
             "pair_stabilizer_order": stab.order} for w, stab in cosets]


def _svg(rs, args):
    highlight = None if args.highlight is None \
        else _face(rs, args, "highlight")
    return svg.render_svg(rs, args.region, highlight)


# command -> the JSON value of its text, which depends on rs only; each
# builder is looked up at call time, so tracing sees a rebound one
_TEXTS = {
    "roots": lambda rs: rs.to_json(),
    "faces": lambda rs: alcove.faces_of_alcove(rs).to_json(rs),
    "diagram": lambda rs: parabolic.restriction_diagram(rs),
}


@lru_cache(maxsize=None)
def _text(rs: RootSystem, command: str) -> str:
    """The text of a `_TEXTS` command, written once per root system; a
    refusal is raised on every call and never cached."""
    return dumps_indented(_TEXTS[command](rs))


# command -> handler (rs, args) returning a JSON value or a string
_COMMANDS = {
    **dict.fromkeys(_TEXTS, lambda rs, args: _text(rs, args.command)),
    "centralizer": _centralizer,
    "parabolic": _parabolic,
    "star": _star,
    "overlap": _overlap,
    "svg": _svg,
}


def _wp(args) -> dict:
    lat = weierstrass.Lattice(_parse_complex(args, "omega1"),
                              _parse_complex(args, "omega2"))
    with open(args.matrix, encoding="utf-8") as fh:
        try:  # not JSON, or not UTF-8
            raw = json.load(fh)
        except ValueError as e:
            raise ValueError(f"--matrix {args.matrix!r}: {e}") from None
    z = _parse_matrix(raw)
    rep = weierstrass.cubic_report(z, lat, args.radius)
    return {
        "g2": [rep["g2"].real, rep["g2"].imag],
        "g3": [rep["g3"].real, rep["g3"].imag],
        "residual_cubic": rep["residual_cubic"],
        "residual_commutator": rep["residual_commutator"],
    }


def _verify(args) -> tuple[str, int]:
    """The report lines and the exit code: 0 if every check passed."""
    if args.radius < 1:
        raise ValueError("--radius must be at least 1")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    rs = None if args.suite == "weierstrass" else _build(args)
    reports = run_suite(args.suite, rs, args.seed, args.samples, args.radius)
    return ("\n".join(json.dumps(r.to_json()) for r in reports),
            0 if all(r.passed for r in reports) else 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    code = 0
    try:
        if args.command == "verify":
            out, code = _verify(args)
        elif args.command == "wp":
            out = _wp(args)
        else:
            out = _COMMANDS[args.command](_build(args), args)
        _emit(args, out if isinstance(out, str) else dumps_indented(out))
    except BrokenPipeError:
        # stdout closed: exit as on SIGPIPE, with nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidCartanType, EnumerationGuard, ValueError, KeyError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
