"""The verification harness behind `alcoves verify`.

`SUITES` maps a suite to a generator `(rs, rng, seed, samples, radius)`.
To add a check, yield one more `(name, parameters, check)` from a suite,
in report order: `run_suite` runs and times each check before the suite
resumes, and a check returns None or a counterexample.
"""

from __future__ import annotations

import cmath
import random
import time
from fractions import Fraction
from functools import cache

import numpy as np

from . import alcove, centralizer, parabolic, ratmat, weierstrass, weylaff
from .rootdata import EnumerationGuard, RootSystem, weyl_group
from .weylaff import compose, invert, star_contains


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
    w0 = rng.choice(weyl_group(rs))
    lam = [rng.randint(-2, 2) for _ in range(rs.dim)]
    return weylaff.AffineWeylElement(
        w0, ratmat.int_matvec(rs.coweight_num, lam), rs.coweight_den)


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
                sdata = centralizer.centralizer_elliptic(rs, s)
                if not (set(sdata.phi) <= fphi
                        and fw.issuperset(sdata.w.elements)):
                    return (f"G_s not inside G_J at face "
                            f"{sorted(f.vanishing_walls)}, s={s}")
        return None

    def check_equivariance():
        group = weyl_group(rs)
        for _ in range(min(samples, 40)):
            s = centralizer.exp_point(rs, _rand_theta(rng, rs.dim),
                                      _rand_point(rng, rs.dim, den=6))
            d1 = centralizer.centralizer_elliptic(rs, s)
            w0 = group[rng.randrange(len(group))]
            theta2 = rs.coweight_coords(w0.apply(
                rs.from_coweight_coords(s.theta)))
            s2 = centralizer.exp_point(rs, theta2, w0.apply(s.a))
            d2 = centralizer.centralizer_elliptic(rs, s2)
            if ((len(d1.phi), d1.w.order, d1.w0_order)
                    != (len(d2.phi), d2.w.order, d2.w0_order)):
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
    """One report per check of `suite`, or of every suite for "all": a
    dict of `check`, `cartan_type`, `parameters`, `passed`, `elapsed_ms`
    and, on failure, the `counterexample`'s repr.  Each suite draws from
    its own `random.Random(seed)`."""
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
            reports.append({
                "check": check_name, "cartan_type": label,
                "parameters": params, "passed": cex is None,
                "elapsed_ms": int((time.monotonic() - t0) * 1000)})
            if cex is not None:
                reports[-1]["counterexample"] = repr(cex)
    return reports
