import json
import random
from fractions import Fraction

import pytest

from alcoves import alcove, cli, ratmat
from alcoves.alcove import (
    AffineRoot,
    alcove_vertices,
    eval_affine_root,
    faces_of_alcove,
    facet_of,
    fundamental_alcove,
    make_face,
    root_values,
    verify_ver_isomorphism,
)
from alcoves.rootdata import CartanType, build_root_system


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def test_eval_affine_root():
    rs = rs_of("A", 1)
    idx = rs.root_index(rs.simple_roots[0])
    assert eval_affine_root(rs, AffineRoot(idx, 0), (Fraction(0),)) == 0
    # level 1 vanishes at the half coroot
    assert eval_affine_root(rs, AffineRoot(idx, 1), (Fraction(1, 2),)) == 0
    with pytest.raises(ValueError):
        eval_affine_root(rs, AffineRoot(idx, 0), (Fraction(0), Fraction(0)))


def test_highest_root_wall_negative_at_barycenter_level():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    barycenter = cat.face_by_walls(frozenset()).witness
    theta = rs.root_index(rs.highest_root)
    val = eval_affine_root(rs, AffineRoot(theta, 1), barycenter)
    assert val < 0  # theta(x) < 1 inside the alcove


def test_walls_and_vertices():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        walls = fundamental_alcove(rs)
        assert len(walls) == rank + 1
        verts = alcove_vertices(rs)
        assert len(verts) == rank + 1
        # each wall is positive on the open alcove and zero exactly on the
        # vertices not opposite to it
        for i, w in enumerate(walls):
            for j, v in enumerate(verts):
                val = eval_affine_root(rs, w, v)
                assert val == 0 if i != j else val > 0


def test_g2_vertices_are_fractional_coweights():
    rs = rs_of("G", 2)
    verts = alcove_vertices(rs)
    assert verts[-1] == (0, 0)
    denominators = sorted(
        max(c.denominator for c in v) for v in verts[:-1]
    )
    assert denominators == [2, 3]


def test_gl_has_no_alcove():
    rs = rs_of("A", 2, "gl")
    with pytest.raises(ValueError):
        fundamental_alcove(rs)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2),
                                         ("G", 2), ("C", 3), ("A", 3)])
def test_face_count(family, rank):
    rs = rs_of(family, rank)
    cat = faces_of_alcove(rs)
    assert len(cat.faces) == (1 << (rank + 1)) - 1
    vertex_faces = [f for f in cat.faces if len(f.vertices) == 1]
    assert len(vertex_faces) == rank + 1
    for f in vertex_faces:
        assert len(f.vanishing_walls) == rank


def test_a2_arrow_count():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    assert len(cat.arrows) == 19


def test_full_wall_set_rejected():
    rs = rs_of("A", 2)
    with pytest.raises(ValueError):
        make_face(rs, frozenset({0, 1, 2}))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("C", 3),
                                         ("G", 2), ("B", 3)])
def test_ver_isomorphism(family, rank):
    assert verify_ver_isomorphism(rs_of(family, rank))


def test_ver_isomorphism_builds_each_facet_once(monkeypatch):
    """One `facet_of` per face of the A3 alcove (15), not one per pair of
    faces (225)."""
    calls = []

    def counting_facet_of(rs, x):
        calls.append(x)
        return facet_of(rs, x)

    monkeypatch.setattr(alcove, "facet_of", counting_facet_of)
    assert verify_ver_isomorphism(rs_of("A", 3))
    assert 0 < len(calls) <= 15


def test_facet_of_examples():
    rs = rs_of("A", 1)
    # interior point: nothing vanishes
    assert facet_of(rs, (Fraction(1, 4),)).vanishing_set == ()
    # origin: both level-0 affine roots vanish
    at_zero = facet_of(rs, (Fraction(0),)).vanishing_set
    assert {(ar.root_index, ar.level) for ar in at_zero} == {(0, 0), (1, 0)}
    # half coroot: levels +-1 on the two signs
    at_half = facet_of(rs, (Fraction(1, 2),)).vanishing_set
    signed = {(tuple(rs.all_roots[ar.root_index]), ar.level)
              for ar in at_half}
    assert signed == {((1,), 1), ((-1,), -1)}


def test_facet_of_at_zero_all_roots():
    rs = rs_of("A", 2)
    at_zero = facet_of(rs, (Fraction(0), Fraction(0))).vanishing_set
    assert {ar.root_index for ar in at_zero} == set(range(6))
    assert all(ar.level == 0 for ar in at_zero)


def test_facet_keys_classify_points():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    # all faces of the alcove are distinct facets
    keys = {facet_of(rs, f.witness) for f in cat.faces}
    assert len(keys) == len(cat.faces)
    # the witness of a face vanishes exactly on the face's walls
    walls = fundamental_alcove(rs)
    for f in cat.faces:
        key = facet_of(rs, f.witness)
        vanished = {(ar.root_index, ar.level) for ar in key.vanishing_set}
        for i, w in enumerate(walls):
            on_wall = (w.root_index, w.level) in vanished
            assert on_wall == (i in f.vanishing_walls)


def test_affine_root_vanishes_on_face_iff_on_vertices():
    rs = rs_of("B", 2)
    cat = faces_of_alcove(rs)
    for f in cat.faces:
        for idx in range(len(rs.all_roots)):
            for level in range(-2, 3):
                ar = AffineRoot(idx, level)
                at_witness = eval_affine_root(rs, ar, f.witness) == 0
                at_verts = all(eval_affine_root(rs, ar, v) == 0
                               for v in f.vertices)
                assert at_witness == at_verts


def test_closure_test_matches_arrows():
    for family, rank in [("A", 2), ("B", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        cat = faces_of_alcove(rs)
        arrows = set(cat.arrows)
        for i, fi in enumerate(cat.faces):
            for j, fj in enumerate(cat.faces):
                geo = facet_of(rs, fj.witness).closure_contains(
                    *root_values(rs, fi.witness))
                assert ((i, j) in arrows) == geo


def test_facet_key_closure_contains_matches_closure_test():
    rng = random.Random(5)
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        wits = [f.witness for f in faces_of_alcove(rs).faces]
        pts = wits + [tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                            for _ in range(rs.dim)) for _ in range(20)]
        for x in pts:
            key = facet_of(rs, x)
            for y in pts:
                d, (yn,) = ratmat.over_common_denominator((y,), rs.dim)
                vals = tuple(ratmat.int_dot(rs.grads[p], yn)
                             for p in rs.positive_indices)
                assert key.closure_contains(d, vals) == \
                    facet_of(rs, x).closure_contains(*root_values(rs, y))


def test_json_export():
    rs = rs_of("A", 2)
    data = json.loads(cli._text(rs, "faces"))
    assert len(data["faces"]) == 7
    assert len(data["arrows"]) == 19
    assert len(data["walls"]) == 3
    for f in data["faces"]:
        assert len(f["witness"]) == 2
        tuple(ratmat.parse_frac(s) for s in f["witness"])
