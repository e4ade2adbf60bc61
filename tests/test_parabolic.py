import pytest

from alcoves.alcove import eval_affine_root, faces_of_alcove, \
    negate_affine_root
from alcoves.centralizer import matrix_shape
from alcoves.parabolic import (
    ParabolicData,
    composes,
    has_arrow,
    parabolic,
    parabolics,
    restriction_diagram,
)
from alcoves.rootdata import CartanType, build_root_system
from alcoves.weylaff import vanishing_affine_roots


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def fraction_parabolic(rs, j, jp):
    """Reference: phi of each face from the roots vanishing at all its
    vertices, and each ambient root valued at the J' witness on Fractions."""
    if not has_arrow(j, jp):
        raise ValueError("no arrow between the given faces")
    ambient = vanishing_affine_roots(rs, j.vertices)
    levi = set(vanishing_affine_roots(rs, jp.vertices))
    vals = [(ar, eval_affine_root(rs, ar, jp.witness)) for ar in ambient]
    assert levi == {ar for ar, v in vals if v == 0}
    return ParabolicData(tuple(ambient), tuple(sorted(
        levi, key=lambda a: (a.root_index, a.level))),
        tuple(ar for ar, v in vals if v > 0))


@pytest.mark.parametrize("family,rank,isogeny", [
    ("A", 1, "sc"), ("A", 2, "sc"), ("A", 3, "sc"), ("B", 2, "sc"),
    ("B", 3, "sc"), ("C", 3, "sc"), ("G", 2, "sc"), ("F", 4, "sc"),
    # non-symmetric lattice bases
    ("A", 2, "adjoint"), ("B", 2, "adjoint"), ("C", 3, "adjoint"),
    ("G", 2, "adjoint"),
])
def test_integer_parabolics_match_fraction_oracle(family, rank, isogeny):
    rs = rs_of(family, rank, isogeny)
    cat = faces_of_alcove(rs)
    table = parabolics(rs, cat.faces, cat.arrows)
    assert set(table) == set(cat.arrows)
    for (i, j), got in table.items():
        want = fraction_parabolic(rs, cat.faces[i], cat.faces[j])
        assert got.ambient == want.ambient
        assert got.levi == want.levi
        assert got.nilradical == want.nilradical
        assert parabolic(rs, cat.faces[i], cat.faces[j]) == got


def test_identity_arrow():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    for f in cat.faces:
        p = parabolic(rs, f, f)
        assert set(p.levi) == set(p.ambient)
        assert p.nilradical == ()


def test_missing_arrow_rejected():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    vhalf = cat.face_by_walls({1})
    with pytest.raises(ValueError):
        parabolic(rs, v0, vhalf)
    # and the reverse of a real arrow is not an arrow
    interior = cat.face_by_walls(frozenset())
    with pytest.raises(ValueError):
        parabolic(rs, interior, v0)


def test_sl2_triangular_shapes():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    vhalf = cat.face_by_walls({1})
    edge = cat.face_by_walls(frozenset())
    up = parabolic(rs, v0, edge)
    assert matrix_shape(rs, tuple(up.parabolic_set())).to_json() == \
        [[0, 0], [None, 0]]
    # within the loop algebra at the far vertex the lower-left entry
    # carries z^-1
    low = parabolic(rs, vhalf, edge)
    assert matrix_shape(rs, tuple(low.parabolic_set())).to_json() == \
        [[0, None], [-1, 0]]


def test_decomposition_invariants():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        cat = faces_of_alcove(rs)
        for i, j in cat.arrows:
            p = parabolic(rs, cat.faces[i], cat.faces[j])
            amb = set(p.ambient)
            levi = set(p.levi)
            nil = set(p.nilradical)
            neg = {negate_affine_root(rs, ar) for ar in nil}
            assert levi | nil | neg == amb
            assert not (levi & nil) and not (levi & neg) and not (nil & neg)


def test_compose_exhaustive_rank_le_3():
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                         ("C", 3), ("D", 3), ("G", 2)]:
        rs = rs_of(family, rank)
        cat = faces_of_alcove(rs)
        arrow_set = set(cat.arrows)
        for i, j in cat.arrows:
            for j2, k in cat.arrows:
                if j2 == j and (i, k) in arrow_set:
                    table = parabolics(
                        rs, (cat.faces[i], cat.faces[j], cat.faces[k]),
                        ((0, 1), (1, 2), (0, 2)))
                    assert composes(table, 0, 1, 2)


def test_diagram_counts_sl2():
    rs = rs_of("A", 1)
    d = restriction_diagram(rs)
    assert len(d["nodes"]) == 3
    assert len(d["edges"]) == 2
    assert len(d["triangles"]) == 0


def test_diagram_counts_sl3():
    rs = rs_of("A", 2)
    d = restriction_diagram(rs)
    assert len(d["nodes"]) == 7
    assert len(d["edges"]) == 12
    assert len(d["triangles"]) == 6
    assert all(t["verified"] for t in d["triangles"])
    assert all("shape" in n for n in d["nodes"])
    assert all("shape" in e for e in d["edges"])


def test_diagram_guards():
    with pytest.raises(ValueError):
        restriction_diagram(rs_of("A", 1, "adjoint"))
    with pytest.raises(ValueError):
        restriction_diagram(rs_of("F", 4))
