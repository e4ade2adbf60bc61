"""The reflection closure of phi as the oracle for |W_s°| = w0_order.

`centralizer_elliptic` reads |W_s°| off the Dynkin type of phi; here the
group generated by the affine reflections in phi is enumerated
breadth-first and compared with it, at seeded torus points of simply-
connected, adjoint and gl types.  The affine reflections are built here,
from the root system's integer tables, not by the library.
"""

import random
from fractions import Fraction

import pytest

from alcoves.alcove import eval_affine_root, faces_of_alcove, \
    fundamental_alcove
from alcoves.centralizer import (
    GaugePoint,
    centralizer_elliptic,
    exp_point,
    gauge_centralizer_circle,
)
from alcoves.rootdata import CartanType, build_root_system, weyl_element
from alcoves.weylaff import AffineWeylElement, compose, identity_element


def affine_reflection(rs, ar) -> AffineWeylElement:
    """r_{alpha,n} = (s_alpha, n alpha-check), fixing the wall pointwise:
    s_alpha is x -> x - alpha(x) alpha-check."""
    g, c = rs.grads[ar.root_index], rs.coroots[ar.root_index]
    s = tuple(tuple(int(r == k) - c[r] * g[k] for k in range(rs.dim))
              for r in range(rs.dim))
    return AffineWeylElement(
        weyl_element(rs, s),
        tuple(ar.level * rs.coweight_den * k for k in c), rs.coweight_den)


def test_affine_reflection_fixes_wall():
    rs = build_root_system(CartanType("B", 2))
    for wall in fundamental_alcove(rs):
        r = affine_reflection(rs, wall)
        assert compose(rs, r, r).is_identity()
        # a point on the wall is fixed
        cat = faces_of_alcove(rs)
        for f in cat.faces:
            if all(eval_affine_root(rs, wall, v) == 0 for v in f.vertices):
                assert r.apply(f.witness) == f.witness


def reflection_closure(rs, phi) -> set:
    gens = [affine_reflection(rs, ar) for ar in phi]
    seen = {identity_element(rs)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = compose(rs, g, w)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def check(rs, data):
    closure = reflection_closure(rs, data.phi)
    assert data.w0_order == len(closure)
    assert closure <= data.w.element_set()
    assert data.w.order % data.w0_order == 0
    assert data.pi0_order == data.w.order // data.w0_order


# (family, rank, isogeny, number of seeded points)
CASES = [
    ("A", 1, "sc", 24), ("A", 2, "sc", 60), ("A", 3, "sc", 40),
    ("B", 2, "sc", 60), ("B", 3, "sc", 30), ("C", 3, "sc", 30),
    ("G", 2, "sc", 60), ("B", 4, "sc", 8), ("F", 4, "sc", 4),
    ("A", 2, "adjoint", 60), ("B", 2, "adjoint", 60),
    ("C", 3, "adjoint", 30), ("A", 2, "gl", 40),
]


@pytest.mark.parametrize("family,rank,isogeny,count", CASES)
def test_w0_order_is_the_closure_order(family, rank, isogeny, count):
    rs = build_root_system(CartanType(family, rank, isogeny))
    rng = random.Random(f"{family}{rank}-{isogeny}")
    for _ in range(count):
        den = rng.choice((1, 2, 2, 3, 4, 6))
        theta = tuple(Fraction(rng.choice((0, 0, 1, 2, 3)), 4)
                      for _ in range(rs.dim))
        a = tuple(Fraction(rng.randint(-den, den), den)
                  for _ in range(rs.dim))
        check(rs, centralizer_elliptic(rs, exp_point(rs, theta, a)))


@pytest.mark.parametrize("family,rank,isogeny", [
    ("A", 2, "sc"), ("B", 2, "sc"), ("G", 2, "sc"), ("B", 2, "adjoint"),
    ("A", 2, "gl"),
])
def test_w0_order_is_the_closure_order_on_the_circle(family, rank, isogeny):
    rs = build_root_system(CartanType(family, rank, isogeny))
    rng = random.Random(f"circle-{family}{rank}-{isogeny}")
    for _ in range(20):
        a_re = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(rs.dim))
        a_im = tuple(Fraction(rng.choice((0, 0, 1))) for _ in range(rs.dim))
        check(rs, gauge_centralizer_circle(rs, GaugePoint(a_re, a_im)))
