"""The reflection group of a point against the closure oracle.

The oracle is the earlier library code of `point_reflection_subgroup`:
the affine reflections in the walls through x, one per wall, closed one
(matrix, translation) product at a time, breadth-first from the
identity, each new product kept in order of first appearance.  The walls
are found here from the Fraction root values, not by `int_root_scan`.

The library lists the same group from the linear parts alone, with the
batched `rootdata.reflection_group`.  It must give the same elements,
words and translations in the same order: that order fixes the `star`
witnesses and the `svg` polygons.  Checked at every face witness and
vertex of every sc type of rank <= 4, and at seeded points of adjoint
and gl types.  Each root system's reflections are built once for all of
its points.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from alcoves import ratmat
from alcoves.alcove import alcove_vertices, faces_of_alcove
from alcoves.rootdata import (
    CartanType,
    InvalidCartanType,
    build_root_system,
    weyl_element,
)
from alcoves.weylaff import point_reflection_subgroup


def pair_product(x: tuple, y: tuple) -> tuple:
    """The product xy of integer (matrix, translation) pairs: x(y(p))."""
    return (ratmat.int_matmul(x[0], y[0]),
            tuple(a + b for a, b in zip(ratmat.int_matvec(x[0], y[1]), x[1])))


@lru_cache(maxsize=None)
def root_reflections(rs) -> tuple:
    """(s_alpha, alpha-check) for every root, in root order; the
    reflection in the wall (alpha, n) is (s_alpha, n alpha-check)."""
    out = []
    for g, c in zip(rs.grads, rs.coroots):
        s = tuple(tuple(int(r == k) - c[r] * g[k] for k in range(rs.dim))
                  for r in range(rs.dim))
        out.append((s, c))
    return tuple(out)


def closure_oracle(rs, x) -> tuple:
    """(finite part, translation) of each element of the group generated
    by the reflections in the walls through x, in closure order."""
    gens = []
    for idx, (s, c) in enumerate(root_reflections(rs)):
        v = rs.eval_root(idx, x)
        if v.denominator == 1:
            gens.append((s, tuple(int(v) * k for k in c)))
    # (alpha, n) and (-alpha, -n) give one reflection, kept at its first root
    gens = list(dict.fromkeys(gens))
    ident = (ratmat.int_identity(rs.dim), (0,) * rs.dim)
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                c = pair_product(g, u)
                if c not in seen:
                    seen.add(c)
                    elements.append(c)
                    nxt.append(c)
        frontier = nxt
    return tuple((weyl_element(rs, m), ratmat.vec(t)) for m, t in elements)


def listed(rs, x) -> tuple:
    return tuple((u.finite_part, u.translation)
                 for u in point_reflection_subgroup(rs, x).elements)


def sc_types():
    out = []
    for family in "ABCDFG":
        for rank in range(1, 5):
            try:
                out.append(CartanType(family, rank))
            except InvalidCartanType:
                pass
    return out


@pytest.mark.parametrize("ct", sc_types(), ids=CartanType.label)
def test_face_and_vertex_groups_match_the_closure_in_order(ct):
    rs = build_root_system(ct)
    points = dict.fromkeys((*(f.witness for f in faces_of_alcove(rs).faces),
                            *alcove_vertices(rs)))
    for x in points:
        assert listed(rs, x) == closure_oracle(rs, x), x


# (family, rank, isogeny, number of seeded points)
SEEDED = [("A", 1, "adjoint", 31), ("A", 2, "adjoint", 31),
          ("B", 3, "adjoint", 31), ("C", 3, "adjoint", 31),
          ("F", 4, "adjoint", 12), ("A", 2, "gl", 31), ("A", 3, "gl", 31)]


@pytest.mark.parametrize("family,rank,isogeny,count", SEEDED)
def test_seeded_point_groups_match_the_closure_in_order(family, rank,
                                                        isogeny, count):
    rs = build_root_system(CartanType(family, rank, isogeny))
    rng = random.Random(f"{family}{rank}{isogeny}")
    for _ in range(count):
        den = rng.choice((1, 2, 3, 4, 6))
        x = tuple(Fraction(rng.randint(-2 * den, 2 * den), den)
                  for _ in range(rs.dim))
        assert listed(rs, x) == closure_oracle(rs, x), x

