import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcoves import ratmat, rootdata, weylaff
from alcoves.alcove import eval_affine_root, faces_of_alcove, \
    fundamental_alcove
from alcoves.rootdata import CartanType, build_root_system, weyl_element
from alcoves.weylaff import (
    AffineWeylElement,
    chart_overlap,
    compose,
    identity_element,
    invert,
    open_embedding_counterexample,
    point_reflection_subgroup,
    reduce_to_alcove,
    stabilizer_of_face,
    stabilizer_of_point,
    star_contains,
    star_facet_witnesses,
    verify_cover,
    verify_star_intersection,
    weyl_elements,
)


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def rand_point(rng, dim, den=8):
    return tuple(Fraction(rng.randint(-24, 24), den) for _ in range(dim))


def test_reduce_examples():
    rs = rs_of("A", 1)
    w, x = reduce_to_alcove(rs, (Fraction(1, 4),))
    assert w.is_identity() and x == (Fraction(1, 4),)
    w, x = reduce_to_alcove(rs, (Fraction(3, 4),))
    assert x == (Fraction(1, 4),)
    assert w.apply((Fraction(3, 4),)) == x

    rs2 = rs_of("A", 2)
    cat = faces_of_alcove(rs2)
    bc = cat.face_by_walls(frozenset()).witness
    neg = ratmat.scale(-1, bc)
    w, x = reduce_to_alcove(rs2, neg)
    assert w.apply(neg) == x
    walls = fundamental_alcove(rs2)
    assert all(eval_affine_root(rs2, wall, x) >= 0 for wall in walls)
    assert w.finite_part.word == weyl_element(rs2, w.finite_part.matrix).word
    assert w.finite_part in weyl_elements(rs2)
    # at most 3, the length of the longest element of W(A2)
    assert len(w.finite_part.word) <= 3


def test_reduce_lands_in_closed_alcove():
    rng = random.Random(11)
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        walls = fundamental_alcove(rs)
        for _ in range(25):
            x = rand_point(rng, rs.dim)
            w, xr = reduce_to_alcove(rs, x)
            assert w.apply(x) == xr
            assert all(eval_affine_root(rs, wall, xr) >= 0
                       for wall in walls)


def test_identity_lists_w_up_to_the_guard(monkeypatch):
    """Up to the rank guard the identity's finite part is the first
    element of `weyl_elements`, so a first call lists W and caches it
    for the W scans."""
    rs = rs_of("B", 3)
    weylaff.weyl_elements.cache_clear()
    listed = []
    monkeypatch.setattr(weylaff, "weyl_group",
                        lambda r: listed.append(r) or rootdata.weyl_group(r))
    one = identity_element(rs)
    assert listed == [rs]
    assert one.is_identity()
    assert one.finite_part is weyl_elements(rs)[0]
    assert listed == [rs]


def refuse_to_list(rs):
    raise AssertionError(f"W of {rs.cartan_type} was listed")


@pytest.mark.parametrize("family,rank,isogeny", [
    ("D", 5, "sc"), ("E", 6, "sc"), ("E", 8, "sc"), ("E", 7, "adjoint"),
])
def test_group_law_above_the_guard_lists_no_w(monkeypatch, family, rank,
                                              isogeny):
    """With `WEYL_RANK_GUARD` in place and every way of listing W made to
    raise, reduction, composition, inversion and the identity still run:
    each Weyl element is its matrix, with its word found by descent.
    Each word is checked by multiplying out its simple reflections."""
    assert rootdata.WEYL_RANK_GUARD < rank
    monkeypatch.setattr(rootdata, "weyl_group", refuse_to_list)
    monkeypatch.setattr(weylaff, "weyl_group", refuse_to_list)
    monkeypatch.setattr(weylaff, "weyl_elements", refuse_to_list)
    rs = rs_of(family, rank, isogeny)
    walls = fundamental_alcove(rs)
    one = identity_element(rs)
    assert one.is_identity() and one.finite_part.word == ()
    rng = random.Random(f"no-listing-{family}{rank}-{isogeny}")
    for _ in range(4):
        x = rand_point(rng, rs.dim)
        w, xr = reduce_to_alcove(rs, x)
        assert w.apply(x) == xr
        assert all(eval_affine_root(rs, wall, xr) >= 0 for wall in walls)
        assert compose(rs, w, invert(rs, w)) == one
        assert compose(rs, invert(rs, w), w) == one
        word = w.finite_part.word
        assert len(word) <= len(rs.positive_indices)
        m = ratmat.int_identity(rs.dim)
        for j in word:  # the word (j1, ..., jm) is s_jm ... s_j1
            g = rs.grads[rs.root_index(rs.simple_roots[j])]
            s_j = tuple(tuple(int(r == k) - (r == j) * g[k]
                              for k in range(rs.dim)) for r in range(rs.dim))
            m = ratmat.int_matmul(s_j, m)
        assert m == w.finite_part.matrix


def test_stabilizer_examples():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    interior = cat.face_by_walls(frozenset())
    assert stabilizer_of_face(rs, interior).order == 1
    v0 = cat.face_by_walls({0})
    assert stabilizer_of_face(rs, v0).order == 2
    # the point stabilizer of the half coroot is generated by (s, coroot)
    st_half = stabilizer_of_point(rs, (Fraction(1, 2),))
    assert st_half.order == 2
    nontriv = next(e for e in st_half.elements if not e.is_identity())
    assert nontriv.translation == (Fraction(1),)

    rs2 = rs_of("A", 2)
    cat2 = faces_of_alcove(rs2)
    v0 = next(f for f in cat2.faces if f.vertices == ((Fraction(0),) * 2,))
    assert stabilizer_of_face(rs2, v0).order == 6


def test_face_stabilizer_equals_point_stabilizer():
    # Steinberg: the reflection closure at the face is its whole stabilizer
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        for f in faces_of_alcove(rs).faces:
            assert point_reflection_subgroup(rs, f.witness).element_set() == \
                stabilizer_of_point(rs, f.witness).element_set()


def test_vertex_group_closes_over_one_generator_per_wall(monkeypatch):
    """(alpha, n) and (-alpha, -n) give one reflection: at the A3 origin
    the 24-element group is listed from a stack of 6 generators, not 12."""
    rs = rs_of("A", 3)
    handed = []

    def recording_reflection_group(gens, bound=None):
        handed.append(gens)
        return rootdata.reflection_group(gens, bound)

    monkeypatch.setattr(weylaff, "reflection_group",
                        recording_reflection_group)
    group = weylaff._point_reflection_subgroup.__wrapped__(
        rs, (Fraction(0),) * 3)
    assert group.order == 24
    (gens,) = handed
    assert gens.shape == (6, 3, 3)
    assert len({g.tobytes() for g in gens}) == 6


def test_closure_guard_refuses_exactly_past_the_bound(monkeypatch):
    rs = rs_of("A", 3)
    origin = (Fraction(0),) * 3
    monkeypatch.setattr(weylaff, "_CLOSURE_GUARD", 23)
    with pytest.raises(rootdata.EnumerationGuard,
                       match=r"^subgroup closure guard hit$"):
        weylaff._point_reflection_subgroup.__wrapped__(rs, origin)
    monkeypatch.setattr(weylaff, "_CLOSURE_GUARD", 24)
    assert weylaff._point_reflection_subgroup.__wrapped__(
        rs, origin).order == 24


def test_face_stabilizer_requires_sc():
    rs = rs_of("A", 2, "adjoint")
    with pytest.raises(ValueError):
        stabilizer_of_face(rs, None)


def test_star_contains_examples():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    vhalf = cat.face_by_walls({1})
    interior = cat.face_by_walls(frozenset())
    assert star_contains(rs, v0, v0.witness)
    # the open alcove lies in every face's star
    for f in cat.faces:
        assert star_contains(rs, f, interior.witness)
    # the vertex at the half coroot is not in the star of 0
    assert not star_contains(rs, v0, (Fraction(1, 2),))
    assert not star_contains(rs, vhalf, (Fraction(0),))


def test_open_embedding_sl2():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    pairs = [((Fraction(1, 8),), (Fraction(-1, 8),)),
             (v0.witness, v0.witness)]
    assert open_embedding_counterexample(rs, v0, pairs) is None


def test_open_embedding_rejects_points_outside_star():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    with pytest.raises(ValueError):
        open_embedding_counterexample(rs, v0, [((Fraction(3, 4),),
                                                (Fraction(1, 4),))])


def test_open_embedding_random_pairs():
    rng = random.Random(7)
    for family, rank in [("A", 2), ("B", 2)]:
        rs = rs_of(family, rank)
        for f in faces_of_alcove(rs).faces:
            wits = star_facet_witnesses(rs, f)
            pts = []
            for _ in range(10):
                p = wits[rng.randrange(len(wits))]
                t = Fraction(rng.randint(0, 16), 16)
                x = ratmat.add(ratmat.scale(1 - t, f.witness),
                               ratmat.scale(t, p))
                if star_contains(rs, f, x):
                    pts.append(x)
            pairs = [(pts[i], pts[(i + 1) % len(pts)])
                     for i in range(len(pts))]
            assert open_embedding_counterexample(rs, f, pairs) is None


def test_star_intersection():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        for f in faces_of_alcove(rs).faces:
            assert verify_star_intersection(rs, f)


def test_star_facet_witnesses_sl2_vertex():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    wits = star_facet_witnesses(rs, v0)
    # the star of 0 is (-1/2, 1/2): two open alcoves and the vertex
    assert len(wits) == 3
    assert all(star_contains(rs, v0, p) for p in wits)


def test_cover():
    rng = random.Random(3)
    for family, rank in [("A", 1), ("A", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        pts = [rand_point(rng, rs.dim) for _ in range(50)]
        assert verify_cover(rs, pts)


def test_chart_overlap_sl2():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    vhalf = cat.face_by_walls({1})
    interior = cat.face_by_walls(frozenset())

    cosets = chart_overlap(rs, interior, interior)
    assert len(cosets) == 1
    assert cosets[0][0].is_identity()
    assert cosets[0][1].order == 1

    cosets = chart_overlap(rs, v0, vhalf)
    assert len(cosets) == 1
    assert cosets[0][1].order == 1

    cosets = chart_overlap(rs, v0, v0)
    assert len(cosets) == 1
    w, stab = cosets[0]
    assert stab.order == 2  # the pair stabilizer is W_J itself


def test_chart_overlap_a2_vertices():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    vertex_faces = [f for f in cat.faces if len(f.vertices) == 1]
    for f1 in vertex_faces:
        for f2 in vertex_faces:
            cosets = chart_overlap(rs, f1, f2)
            assert len(cosets) == 1
            for w, stab in cosets:
                # the representative really produces an overlap
                assert any(
                    star_contains(rs, f2, w.apply(p))
                    for p in star_facet_witnesses(rs, f1)
                )
                moved = w.apply(f1.witness)
                w2 = stabilizer_of_face(rs, f2).element_set()
                for b in stab.elements:
                    # pair stabilizer fixes the moved face and sits in W_J2
                    assert b.apply(moved) == moved
                    assert b in w2


@pytest.mark.parametrize("family", ["B", "C"])
def test_rank4_vertex_self_overlap_forms_no_product(family, monkeypatch):
    """A vertex with itself: the coset is W_J W_J = W_J, so the
    representative is the identity and the pair stabilizer is W_J, in
    (word, translation) order.  The translations are read off the
    elements that share a finite part: no pair product b a is formed, so
    the 384 x 384 pairs of a rank-4 vertex take well under a second."""
    rs = rs_of(family, 4)
    v = faces_of_alcove(rs).face_by_walls({0, 1, 2, 3})
    wj = stabilizer_of_face(rs, v)
    assert wj.order == 384
    products = []
    pair_product = weylaff._pair_product
    monkeypatch.setattr(weylaff, "_pair_product",
                        lambda x, y: products.append(1) or pair_product(x, y))
    start = time.perf_counter()
    (rep, stab), = chart_overlap(rs, v, v)
    assert time.perf_counter() - start < 1.0
    assert products == []
    assert rep.is_identity() and rep.finite_part.word == ()
    assert stab.elements == tuple(sorted(
        wj.elements, key=lambda e: (e.finite_part.word, e.translation)))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([("A", 1), ("A", 2), ("B", 2)]),
    st.data(),
)
def test_group_law_inverse(typ, data):
    rs = rs_of(*typ)
    group = weyl_elements(rs)
    w0 = data.draw(st.sampled_from(list(group)))
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=rs.dim,
                                max_size=rs.dim))
    lam = rs.from_coweight_coords(tuple(Fraction(c) for c in coords))
    el = AffineWeylElement(w0, lam)
    assert compose(rs, el, invert(rs, el)) == identity_element(rs)
    assert compose(rs, invert(rs, el), el) == identity_element(rs)


def test_group_law_associative_on_action():
    rs = rs_of("A", 2)
    rng = random.Random(9)
    group = weyl_elements(rs)
    for _ in range(20):
        els = []
        for _ in range(2):
            w0 = group[rng.randrange(len(group))]
            lam = rs.from_coweight_coords(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(rs.dim)))
            els.append(AffineWeylElement(w0, lam))
        x = rand_point(rng, rs.dim)
        assert compose(rs, els[0], els[1]).apply(x) == \
            els[0].apply(els[1].apply(x))
