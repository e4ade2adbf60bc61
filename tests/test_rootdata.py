import importlib
import inspect
import pkgutil
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alcoves
from alcoves import alcove, ratmat, rootdata, weylaff
from alcoves.rootdata import (
    CartanType,
    EnumerationGuard,
    InvalidCartanType,
    WeylElement,
    build_root_system,
    reflect,
    weyl_element,
    weyl_group,
)

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("C", 3): 18, ("D", 4): 24,
    ("G", 2): 12, ("F", 4): 48,
}

WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("B", 2): 8, ("G", 2): 12,
    ("A", 3): 24, ("B", 3): 48, ("C", 3): 48,
}


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def root_length_sq(rs, idx):
    """(alpha, alpha) from the inner-product matrix of the simple roots."""
    c = rs.all_roots[idx]
    return sum(c[i] * rs.inner_product_matrix[i][j] * c[j]
               for i in range(rs.rank) for j in range(rs.rank))


def in_coweight_lattice(rs, x):
    return all(c.denominator == 1 for c in rs.coweight_coords(x))


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_root_counts(family, rank):
    rs = rs_of(family, rank)
    assert len(rs.all_roots) == ROOT_COUNTS[(family, rank)]
    # closed under negation and split evenly into positives
    assert len(rs.positive_indices) * 2 == len(rs.all_roots)
    for i in range(len(rs.all_roots)):
        rs.negation[i]


def test_invalid_types():
    for family, rank in [("E", 5), ("E", 9), ("F", 3), ("G", 3),
                         ("D", 2), ("B", 1), ("A", 0)]:
        with pytest.raises(InvalidCartanType):
            CartanType(family, rank)
    with pytest.raises(InvalidCartanType):
        CartanType("B", 2, "gl")
    with pytest.raises(InvalidCartanType):
        CartanType("A", 2, "bogus")


def test_pairing_of_simple_pairs_is_two():
    for family, rank in ROOT_COUNTS:
        rs = rs_of(family, rank)
        for i in range(rs.rank):
            idx = rs.root_index(rs.simple_roots[i])
            assert rs.eval_root(idx, rs.simple_coroots[i]) == 2
            # the abstract coroot agrees with the basis vector
            assert rs.coroots[idx] == rs.simple_coroots[i]


def test_every_root_coroot_pairing_is_two():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        for idx in range(len(rs.all_roots)):
            assert rs.eval_root(idx, rs.coroots[idx]) == 2


def test_highest_root_dominates():
    for family, rank in ROOT_COUNTS:
        rs = rs_of(family, rank)
        for p in rs.positive_indices:
            assert all(
                h >= c for h, c in zip(rs.highest_root, rs.all_roots[p])
            )


def test_long_roots_have_squared_length_two():
    for family, rank in ROOT_COUNTS:
        rs = rs_of(family, rank)
        lengths = {root_length_sq(rs, i) for i in range(len(rs.all_roots))}
        assert max(lengths) == 2


def test_g2_two_lengths_ratio_three():
    rs = rs_of("G", 2)
    lengths = {root_length_sq(rs, i) for i in range(len(rs.all_roots))}
    assert lengths == {Fraction(2), Fraction(2, 3)}


def test_g2_highest_root_marks():
    rs = rs_of("G", 2)
    assert rs.highest_root == (3, 2)


@pytest.mark.parametrize("family,rank", sorted(WEYL_ORDERS))
def test_weyl_orders_against_orbit_oracle(family, rank):
    rs = rs_of(family, rank)
    group = weyl_group(rs)
    assert len(group) == WEYL_ORDERS[(family, rank)]
    assert group[0].is_identity()
    assert len({w.matrix for w in group}) == len(group)

    # independent oracle: orbit size of a generic point, computed with
    # reflections acting on points, never on matrices
    generic = tuple(Fraction(1, p) for p in (7, 11, 13, 17)[: rs.dim])
    orbit = {generic}
    frontier = [generic]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(rs.rank):
                y = reflect(rs, rs.simple_roots[i], x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(orbit) == len(group)


def test_weyl_matrices_permute_roots_and_preserve_inner_product():
    """On t, W permutes the coroots (the roots of the dual system) and
    preserves the invariant form, which in the simple-coroot basis is
    (a_i-check, a_j-check) = 4 (a_i, a_j) / (|a_i|^2 |a_j|^2)."""
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        coroots = set(rs.coroots)
        b = rs.inner_product_matrix
        gram = [[4 * b[i][j] / (b[i][i] * b[j][j]) for j in range(rs.rank)]
                for i in range(rs.rank)]

        def ip(x, y):
            return sum(x[i] * gram[i][j] * y[j]
                       for i in range(rs.rank) for j in range(rs.rank))

        for w in weyl_group(rs):
            images = {w.apply(c) for c in rs.coroots}
            assert images == coroots
            for x in rs.coroots[:4]:
                for y in rs.coroots[:4]:
                    assert ip(w.apply(x), w.apply(y)) == ip(x, y)


def test_weyl_group_guard():
    for family in "ABD":
        rs = rs_of(family, 5)
        with pytest.raises(EnumerationGuard,
                           match=r"^rank 5 exceeds enumeration guard 4$"):
            weyl_group(rs)


# degrees of the basic invariants (Humphreys, Reflection Groups and
# Coxeter Groups, 3.7)
DEGREES = {("B", 5): (2, 4, 6, 8, 10), ("D", 5): (2, 4, 5, 6, 8),
           ("E", 6): (2, 5, 6, 8, 9, 12)}


@pytest.mark.parametrize("family,rank", sorted(DEGREES))
def test_word_lengths_follow_the_poincare_polynomial(monkeypatch, family,
                                                     rank):
    """Above the guard, lifted here only: the number of elements whose
    word, found by the descent of `weyl_element` when read, has each
    length is the coefficient of q^length in prod_i (1 + q + ... +
    q^(d_i - 1)), d_i the degrees, so |W| = prod_i d_i and every word is
    reduced.  On E6 this reads all 51 840 words."""
    monkeypatch.setattr(rootdata, "WEYL_RANK_GUARD", rank)
    poincare = [1]
    for d in DEGREES[family, rank]:
        poincare = [sum(poincare[max(k - d + 1, 0):k + 1])
                    for k in range(len(poincare) + d - 1)]
    counts = [0] * len(poincare)
    for w in weyl_group(rs_of(family, rank)):
        counts[len(w.word)] += 1
    assert counts == poincare


@pytest.mark.parametrize("family,rank,step",
                         [("B", 5, 1), ("D", 5, 1), ("E", 6, 97)])
def test_descent_gives_the_bfs_word_above_the_guard(monkeypatch, family,
                                                    rank, step):
    """Above the guard, lifted here only: `weyl_element` gives back each
    element `weyl_group` lists, whose word is the descent's, on every
    element of B5 and D5 and on every 97th element of E6."""
    monkeypatch.setattr(rootdata, "WEYL_RANK_GUARD", rank)
    rs = rs_of(family, rank)
    elements = weyl_group(rs)[::step]
    assert len(elements) == {"B": 3840, "D": 1920, "E": 535}[family]
    for w in elements:
        assert weyl_element(rs, w.matrix) == w


@pytest.mark.parametrize("isogeny,matrix", [
    ("sc", ((-1, 0), (0, -1))),  # descends to the diagram swap
    ("sc", ((2, 0), (0, 2))),  # no descent at all
    ("sc", ((0, 1), (1, 0))),
    ("sc", ((1, 1), (0, 1))),
    ("gl", ((1, 0, 0), (0, 1, 0), (0, 0, -1))),  # flips the centre
])
def test_descent_refuses_a_matrix_outside_w(isogeny, matrix):
    """The descent ends at some word for any integer matrix; a matrix
    outside W(A2) is caught because its column updates do not end at
    the identity."""
    with pytest.raises(RuntimeError, match="not in W"):
        weyl_element(rs_of("A", 2, isogeny), matrix)


@pytest.mark.parametrize(
    "isogeny,matrix",
    test_descent_refuses_a_matrix_outside_w.pytestmark[0].args[1])
def test_reading_the_word_refuses_a_matrix_outside_w(isogeny, matrix):
    """An element is built from any integer matrix; its word is found
    when first read, and reading it refuses the matrices of the test
    above."""
    w = WeylElement(matrix, rs_of("A", 2, isogeny))
    with pytest.raises(RuntimeError, match="not in W"):
        w.word


def test_reflect_examples():
    rs = rs_of("A", 2)
    a1 = rs.simple_roots[0]
    assert reflect(rs, a1, rs.simple_coroots[0]) == \
        ratmat.scale(-1, rs.simple_coroots[0])
    # fixes the wall
    x = (Fraction(0), Fraction(5, 3))
    idx = rs.root_index(a1)
    if rs.eval_root(idx, x) == 0:
        assert reflect(rs, a1, x) == x
    # s1 s2 s1 maps alpha_1-check to the negative coroot -alpha_2-check
    group = weyl_group(rs)
    w = next(g for g in group if g.word in ((0, 1, 0), (1, 0, 1)))
    img = w.apply(rs.simple_coroots[0])
    assert img in (ratmat.scale(-1, rs.simple_coroots[1]),
                   ratmat.scale(-1, ratmat.add(rs.simple_coroots[0],
                                               rs.simple_coroots[1])))
    assert ratmat.scale(-1, img) in \
        {rs.coroots[p] for p in rs.positive_indices}


def test_reflect_rejects_non_roots():
    rs = rs_of("A", 2)
    with pytest.raises(ValueError):
        reflect(rs, (5, 7), (Fraction(1), Fraction(1)))


def test_isogeny_lattices():
    sc = rs_of("A", 2, "sc")
    assert sc.coweight_lattice_basis == sc.simple_coroots
    adj = rs_of("A", 2, "adjoint")
    # adjoint lattice contains the coroots with index 3 for A2
    for cr in adj.simple_coroots:
        assert in_coweight_lattice(adj, cr)
    third = ratmat.scale(Fraction(1, 3), ratmat.add(
        ratmat.scale(2, adj.simple_coroots[0]), adj.simple_coroots[1]))
    assert in_coweight_lattice(adj, third)
    assert not in_coweight_lattice(sc, third)


def test_gl_realization():
    rs = rs_of("A", 2, "gl")
    assert rs.dim == 3
    assert len(rs.coweight_lattice_basis) == 3
    # each basis vector pairs integrally with every root
    for b in rs.coweight_lattice_basis:
        for idx in range(len(rs.all_roots)):
            assert rs.eval_root(idx, b).denominator == 1
    # e_i - e_{i+1} is the i-th simple coroot
    for i in range(2):
        diff = ratmat.sub(rs.coweight_lattice_basis[i],
                          rs.coweight_lattice_basis[i + 1])
        assert diff == rs.simple_coroots[i]


def test_json_roundtrip():
    rs = rs_of("G", 2)
    data = rs.to_json()
    assert data["cartan_type"] == {"family": "G", "rank": 2, "isogeny": "sc"}
    assert len(data["all_roots"]) == 12
    back = [tuple(ratmat.parse_frac(s) for s in r) for r in data["all_roots"]]
    assert tuple(back) == rs.all_roots


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
             min_size=2, max_size=2),
    st.integers(min_value=0),
)
def test_reflect_is_involution(typ, coords, pick):
    rs = rs_of(*typ)
    x = tuple(coords)
    root = rs.all_roots[pick % len(rs.all_roots)]
    assert reflect(rs, root, reflect(rs, root, x)) == x


# every (family, rank, isogeny) the CLI accepts, ranks of A-D up to 8
CLI_TYPES = [
    (family, rank, isogeny)
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(2, 9)), ("D", range(3, 9)),
                          ("E", range(6, 9)), ("F", (4,)), ("G", (2,)))
    for rank in ranks
    for isogeny in (("sc", "adjoint", "gl") if family == "A"
                    else ("sc", "adjoint"))
]


@lru_cache(maxsize=None)
def cached_rs(family, rank, isogeny):
    return rs_of(family, rank, isogeny)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CLI_TYPES), st.data())
def test_coweight_coords_round_trip(typ, data):
    rs = cached_rs(*typ)
    c = tuple(data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=rs.dim, max_size=rs.dim)))
    x = rs.from_coweight_coords(c)
    assert rs.coweight_coords(x) == c


def test_adjoint_b2_coweight_coords():
    # the basis is not symmetric here, so rows and columns differ
    rs = rs_of("B", 2, "adjoint")
    b0, b1 = rs.coweight_lattice_basis
    assert rs.coweight_coords(b0) == (1, 0)
    assert rs.coweight_coords(b1) == (0, 1)


def root_system_caches():
    """(name, function, other parameters) of every `lru_cache` in the
    package whose first argument is a root system."""
    out = []
    for info in pkgutil.iter_modules(alcoves.__path__):
        mod = importlib.import_module(f"alcoves.{info.name}")
        for name, f in vars(mod).items():
            if hasattr(f, "cache_info") and f.__module__ == mod.__name__:
                params = list(inspect.signature(f).parameters)
                if params[:1] == ["rs"]:
                    out.append((f"{mod.__name__}.{name}", f, params[1:]))
    return out


def test_a_root_system_built_twice_shares_every_cache(monkeypatch):
    """A root system built again, past the cache of `build_root_system`,
    equals the first and hashes as its Cartan type, which it hashes once;
    so every cache keyed on a root system answers it with the entry of
    the first."""
    ct = CartanType("A", 3, "adjoint")
    rs = build_root_system(ct)
    again = build_root_system.__wrapped__(ct)
    assert again is not rs and again == rs
    calls = []
    type_hash = CartanType.__hash__
    monkeypatch.setattr(CartanType, "__hash__",
                        lambda self: calls.append(self) or type_hash(self))
    assert [hash(again) for _ in range(3)] == [type_hash(ct)] * 3
    assert len(calls) == 1
    face = alcove.faces_of_alcove(rs).faces[1]
    args = {"j": face, "x": face.witness, "dtype": np.int64,
            "command": "roots",
            "group": weylaff.point_reflection_subgroup(
                rs, alcove.alcove_vertices(rs)[-1])}
    caches = root_system_caches()
    assert {"alcoves.weylaff._walk_data", "alcoves.rootdata._weyl_listing",
            "alcoves.centralizer._face_centralizer"} <= {
        name for name, _, _ in caches}
    for name, cached, rest in caches:
        extra = [args[p] for p in rest]
        assert cached(again, *extra) is cached(rs, *extra), name
