import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcoves import ratmat, weylaff
from alcoves.alcove import eval_affine_root, faces_of_alcove, \
    fundamental_alcove
from alcoves.rootdata import CartanType, build_root_system
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
    verify_open_embedding,
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
    assert len(w.finite_part.word) <= 6 or True  # word length not canonical


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
    the closure of the 24-element group takes 6 generators, so 24 x 6
    products, not 24 x 12."""
    rs = rs_of("A", 3)
    products = []
    pair_product = weylaff._pair_product

    def counting_pair_product(x, y):
        products.append(x)
        return pair_product(x, y)

    monkeypatch.setattr(weylaff, "_pair_product", counting_pair_product)
    group = weylaff._point_reflection_subgroup.__wrapped__(
        rs, (Fraction(0),) * 3)
    assert group.order == 24
    assert len(set(products)) == len(products) // 24 == 6


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
    assert verify_open_embedding(rs, v0, pairs)


def test_open_embedding_rejects_points_outside_star():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    with pytest.raises(ValueError):
        verify_open_embedding(rs, v0, [((Fraction(3, 4),),
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
            assert len(cosets) >= 1
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
