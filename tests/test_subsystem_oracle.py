"""The table classifier `subsystem_type` against the per-call classifier
it replaced.

The oracle below is the earlier `subsystem_type`, with the diagram
reading of `_classify_component` copied beside it.  On every call it
converts each root of phi from Fractions to integer coordinates, takes
as simple roots the positive roots of phi that are no difference of two
of them, sorted by coordinates, and forms their Cartan matrix with one
integer dot product per entry.  The library reads the same from tables
built once per root system, its simple roots in root-index order.  The
two must name the same type on every phi that `centralizer_elliptic`
returns over sc and adjoint A2, B2, G2, A3, B3, C3, B4, C4, D4 and F4:
at theta on the 1/4-grid and a on the 1/6-grid, at the 1/2-grid special
points (theta = 0), and at a = 0, with theta = 0 (all of Phi) and on the
1/4-grid.
"""

import random
from fractions import Fraction

import pytest

from alcoves import ratmat
from alcoves.centralizer import (
    centralizer_elliptic,
    exp_point,
    subsystem_type,
)
from alcoves.rootdata import CartanType, build_root_system

# -- the per-call oracle -------------------------------------------------------


def oracle_component(cmat):
    """The type of a connected Cartan matrix, read off its Dynkin
    diagram."""
    k = len(cmat)
    nbrs = [[j for j in range(k) if j != i and cmat[i][j]] for i in range(k)]
    if any(-3 in row for row in cmat):
        return "G2"
    double = [(i, j) for i in range(k) for j in nbrs[i] if cmat[i][j] == -2]
    if double:
        short, long_ = double[0]
        if k == 2 or len(nbrs[short]) == 1:
            return f"B{k}"
        return f"C{k}" if len(nbrs[long_]) == 1 else "F4"
    branch = [i for i in range(k) if len(nbrs[i]) == 3]
    if not branch:
        return f"A{k}"
    leaves = sum(len(nbrs[j]) == 1 for j in nbrs[branch[0]])
    return f"D{k}" if leaves >= 2 else f"E{k}"


def oracle_subsystem_type(rs, phi):
    by_root = {tuple(map(int, rs.all_roots[ar.root_index])): ar.root_index
               for ar in phi}
    if not by_root:
        return "0"
    positives = {r for r in by_root if next(c for c in r if c) > 0}
    simples = [by_root[r] for r in sorted(
        r for r in positives
        if not any(tuple(a - b for a, b in zip(r, s)) in positives
                   for s in positives if s != r)
    )]
    k = len(simples)
    cmat = [[ratmat.int_dot(rs.grads[simples[j]], rs.coroots[simples[i]])
             for j in range(k)] for i in range(k)]
    labels = []
    remaining = set(range(k))
    while remaining:
        comp = []
        stack = [min(remaining)]
        remaining.discard(stack[0])
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in list(remaining):
                if cmat[i][j] != 0:
                    remaining.discard(j)
                    stack.append(j)
        comp.sort()
        labels.append(oracle_component([[cmat[a][b] for b in comp]
                                        for a in comp]))
    return "+".join(sorted(labels))


# -- cases -------------------------------------------------------------------

TYPES = [(f, r, i) for f, r in (("A", 2), ("B", 2), ("G", 2), ("A", 3),
                                ("B", 3), ("C", 3), ("B", 4), ("C", 4),
                                ("D", 4), ("F", 4))
         for i in ("sc", "adjoint")]


def grid(rng, dim, den, size):
    return tuple(Fraction(rng.randint(-size, size), den) for _ in range(dim))


def exp_points(rs, rng):
    """(theta, a) pairs: 16 on the 1/4- and 1/6-grids, 16 special points,
    a = 0 at theta = 0 and at 4 theta on the 1/4-grid."""
    zero = ratmat.zeros(rs.dim)
    return ([(grid(rng, rs.dim, 4, 3), grid(rng, rs.dim, 6, 12))
             for _ in range(16)]
            + [(zero, grid(rng, rs.dim, 2, 4)) for _ in range(16)]
            + [(zero, zero)]
            + [(grid(rng, rs.dim, 4, 3), zero) for _ in range(4)])


@pytest.mark.parametrize("family,rank,isogeny", TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in TYPES])
def test_table_classifier_matches_the_per_call_one(family, rank, isogeny):
    rs = build_root_system(CartanType(family, rank, isogeny))
    rng = random.Random(f"subsystem-{family}{rank}-{isogeny}")
    seen = set()
    for theta, a in exp_points(rs, rng):
        data = centralizer_elliptic(rs, exp_point(rs, theta, a))
        want = oracle_subsystem_type(rs, data.phi)
        assert data.subsystem_type == want
        assert subsystem_type(rs, data.phi) == want
        seen.add(want)
    # a = 0 at theta = 0 keeps all of Phi; the draws reach the empty
    # subsystem and a rank-one one too
    assert {"0", "A1", f"{family}{rank}"} <= seen
