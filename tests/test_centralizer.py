import json
import random
from fractions import Fraction
from math import prod

import pytest

from alcoves import centralizer, cli, ratmat
from alcoves.alcove import AffineRoot, alcove_vertices, faces_of_alcove
from alcoves.centralizer import (
    GaugePoint,
    centralizer_elliptic,
    centralizer_face,
    double_affine_centralizer,
    exp_point,
    gauge_centralizer_circle,
    matrix_shape,
    subsystem_type,
)
from alcoves.rootdata import CartanType, build_root_system
from alcoves.weylaff import (
    AffineWeylElement,
    stabilizer_of_point,
    star_contains,
    star_facet_witnesses,
)


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def phi_signed(rs, data):
    return {(tuple(rs.all_roots[ar.root_index]), ar.level)
            for ar in data.phi}


def test_sl2_half_coroot():
    rs = rs_of("A", 1)
    d = centralizer_elliptic(rs, exp_point(rs, (0,), (Fraction(1, 2),)))
    assert phi_signed(rs, d) == {((1,), 1), ((-1,), -1)}
    assert d.dim == 3
    assert d.connected and d.pi0_order == 1
    assert d.subsystem_type == "A1"
    shape = matrix_shape(rs, d.phi)
    assert shape.to_json() == [[0, 1], [-1, 0]]


def test_pgl2_half_coweight():
    rs = rs_of("A", 1, "adjoint")
    # omega-check / 2 has coroot coordinate 1/4
    d = centralizer_elliptic(rs, exp_point(rs, (0,), (Fraction(1, 4),)))
    assert d.phi == ()
    assert d.dim == 1  # the torus alone
    assert d.w.order == 2
    assert d.w0_order == 1
    assert d.pi0_order == 2
    assert not d.connected
    assert d.subsystem_type == "0"


def test_generic_point_trivial():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        a = tuple(Fraction(1, p) for p in (7, 11)[: rs.dim])
        d = centralizer_elliptic(rs, exp_point(rs, (0,) * rs.dim, a))
        assert d.phi == ()
        assert d.dim == rs.dim
        assert d.connected


def test_nontrivial_theta():
    rs = rs_of("A", 1)
    # theta = coroot/2: alpha(theta) = 1, so level-0 conditions apply to a
    d = centralizer_elliptic(
        rs, exp_point(rs, (Fraction(1, 2),), (Fraction(0),))
    )
    assert len(d.phi) == 2
    d2 = centralizer_elliptic(
        rs, exp_point(rs, (Fraction(1, 3),), (Fraction(0),))
    )
    assert d2.phi == ()


def test_theta_reduced_mod_one():
    rs = rs_of("A", 1)
    s = exp_point(rs, (Fraction(7, 2),), (0,))
    assert s.theta == (Fraction(1, 2),)


def test_face_centralizers():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    interior = cat.face_by_walls(frozenset())
    assert centralizer_face(rs, interior).phi == ()
    v0 = next(f for f in cat.faces
              if f.vertices == ((Fraction(0), Fraction(0)),))
    d = centralizer_face(rs, v0)
    assert len(d.phi) == 6
    assert all(ar.level == 0 for ar in d.phi)
    assert d.subsystem_type == "A2"
    assert d.connected


def test_face_centralizer_requires_sc():
    rs = rs_of("A", 1, "adjoint")
    with pytest.raises(ValueError):
        centralizer_face(rs, None)


def test_face_centralizers_connected_all_types():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = rs_of(family, rank)
        for f in faces_of_alcove(rs).faces:
            d = centralizer_face(rs, f)
            assert d.connected
            assert d.dim == rs.dim + len(d.phi)


def test_gauge_circle_examples():
    rs = rs_of("A", 1)
    zero = (Fraction(0),)
    d = gauge_centralizer_circle(rs, GaugePoint(zero, zero))
    assert len(d.phi) == 2 and all(ar.level == 0 for ar in d.phi)
    d = gauge_centralizer_circle(rs, GaugePoint((Fraction(1, 2),), zero))
    assert phi_signed(rs, d) == {((1,), 1), ((-1,), -1)}
    d = gauge_centralizer_circle(rs, GaugePoint(zero, (Fraction(1, 2),)))
    assert d.phi == ()


def test_double_affine_sl2():
    rs = rs_of("A", 1)
    zero = (Fraction(0),)
    data = double_affine_centralizer(rs, (Fraction(1, 2),), zero)
    signed = {(d.n1, d.n2, tuple(rs.all_roots[d.root_index]))
              for d in data.phi_b}
    assert signed == {(-1, 0, (1,)), (1, 0, (-1,))}
    assert data.cartesian and data.injective
    # projections match the single-circle computation
    assert phi_signed(rs, data.proj1) == {((1,), 1), ((-1,), -1)}
    assert len(data.proj2.phi) == 2

    data0 = double_affine_centralizer(rs, zero, zero)
    assert all(d.n1 == 0 and d.n2 == 0 for d in data0.phi_b)
    assert len(data0.phi_b) == len(rs.all_roots)


def test_double_affine_random():
    rng = random.Random(13)
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        for _ in range(20):
            a1 = tuple(Fraction(rng.randint(-12, 12), 6)
                       for _ in range(rs.dim))
            a2 = tuple(Fraction(rng.randint(-12, 12), 6)
                       for _ in range(rs.dim))
            data = double_affine_centralizer(rs, a1, a2)
            assert data.cartesian
            assert data.injective


ENTRY_TYPES = [(f, r, iso) for f, r in (("A", 2), ("B", 2), ("G", 2),
                                         ("A", 3), ("B", 4))
               for iso in ("sc", "adjoint")]


@pytest.mark.parametrize("family,rank,isogeny", ENTRY_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in ENTRY_TYPES])
def test_kernel_entry_points_agree(family, rank, isogeny):
    """At theta = 0 and A_im = 0 the elliptic, the circle-gauge and the
    first double-affine projection are one centralizer: equal data, phi
    and W in the same order."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"entry-points-{family}{rank}-{isogeny}")
    zero = ratmat.zeros(rs.dim)
    grid = [tuple(Fraction(rng.randint(-12, 12), 6) for _ in range(rs.dim))
            for _ in range(4)]
    for a in (*alcove_vertices(rs), *grid):
        b = tuple(Fraction(rng.randint(-12, 12), 4) for _ in range(rs.dim))
        circle = gauge_centralizer_circle(rs, GaugePoint(a, zero))
        assert centralizer_elliptic(rs, exp_point(rs, zero, a)) == circle
        assert double_affine_centralizer(rs, a, b).proj1 == circle


def test_w_is_built_on_first_read(monkeypatch):
    """A centralizer call runs the translation step once, on the elements
    the W test kept, and builds no element of W_s: `to_json`,
    `pi0_order`, `connected`, equality and the hash read the integers.
    The first read of `w` builds the group, the same as the eager
    `stabilizer_of_point` at a (theta = 0), and later reads return it."""
    rs = rs_of("F", 4)
    steps, built = [], []
    step, element = centralizer.int_weyl_translations, \
        centralizer.AffineWeylElement
    monkeypatch.setattr(centralizer, "int_weyl_translations",
                        lambda *args: steps.append(args) or step(*args))
    monkeypatch.setattr(centralizer, "AffineWeylElement",
                        lambda *args: built.append(args) or element(*args))
    zero, a = ratmat.zeros(4), ratmat.vec(("1/2", "1/2", "0", "0"))
    data = centralizer_elliptic(rs, exp_point(rs, zero, a))
    again = gauge_centralizer_circle(rs, GaugePoint(a, zero))
    out = data.to_json()
    assert (out["w_order"], out["pi0"], out["subsystem_type"]) == \
        (96, 1, "A1+C3")
    assert (data.pi0_order, data.connected) == (1, True)
    assert data == again and hash(data) == hash(again)
    assert len(steps) == 2 and all(len(rows) == 96 for _, _, rows, _ in steps)
    assert built == []
    w = data.w
    assert data.w is w and len(built) == 96 and len(steps) == 2
    assert w == stabilizer_of_point(rs, a)
    assert data == again and hash(data) == hash(again)
    with pytest.raises(AttributeError):
        data.w_index = ()


def test_verify_centralizer_builds_no_element_of_w_s(monkeypatch, capsys):
    """`verify centralizer` compares the groups W_s on integers: their
    orders by `w_index`, and W_s inside W_J by (index, translation)
    pairs, so no sampled centralizer builds its `FiniteSubgroup`.  The
    first run builds the vertex groups behind the star samples, once per
    root system; the second builds no element at all."""
    argv = ["verify", "centralizer", "--type", "B", "--rank", "2",
            "--seed", "7", "--samples", "6"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    built = []
    init = AffineWeylElement.__init__
    monkeypatch.setattr(AffineWeylElement, "__init__",
                        lambda self, *args: built.append(args)
                        or init(self, *args))
    assert cli.main(argv) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["passed"]) for r in reports] == [
        ("connected_at_theta_zero", True), ("se_inside_et", True),
        ("phi_negation_closed", True), ("w_equivariance", True)]
    assert built == []


def test_et_contains():
    rs = rs_of("A", 1)
    s = exp_point(rs, (0,), (Fraction(1, 2),))
    t_generic = exp_point(rs, (0,), (Fraction(1, 7),))
    t_zero = exp_point(rs, (0,), (Fraction(0),))

    def inside(t):
        """Whether G_t lies in G_s at the level of root data."""
        ds, dt = centralizer_elliptic(rs, s), centralizer_elliptic(rs, t)
        return (set(dt.phi) <= set(ds.phi)
                and dt.w.element_set() <= ds.w.element_set())

    assert inside(t_generic)
    assert inside(s)
    assert not inside(t_zero)


def test_se_contains_and_seinet():
    rng = random.Random(4)
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = rs_of(family, rank)
        for f in faces_of_alcove(rs).faces:
            fdata = centralizer_face(rs, f)
            fphi = set(fdata.phi)
            fw = fdata.w.element_set()
            wits = star_facet_witnesses(rs, f)
            assert star_contains(
                rs, f, exp_point(rs, (Fraction(1, 3),) * rs.dim, f.witness).a
            )
            for _ in range(6):
                p = wits[rng.randrange(len(wits))]
                t = Fraction(rng.randint(0, 16), 16)
                a = ratmat.add(ratmat.scale(1 - t, f.witness),
                               ratmat.scale(t, p))
                if not star_contains(rs, f, a):
                    continue
                theta = tuple(Fraction(rng.randint(0, 3), 4)
                              for _ in range(rs.dim))
                s = exp_point(rs, theta, a)
                assert star_contains(rs, f, s.a)
                sdata = centralizer_elliptic(rs, s)
                assert set(sdata.phi) <= fphi
                assert sdata.w.element_set() <= fw


def test_se_outside_star():
    rs = rs_of("A", 1)
    cat = faces_of_alcove(rs)
    v0 = cat.face_by_walls({0})
    s = exp_point(rs, (0,), (Fraction(3, 4),))
    assert not star_contains(rs, v0, s.a)


def test_w_equivariance():
    from alcoves.weylaff import weyl_elements
    rng = random.Random(21)
    for family, rank in [("A", 2), ("B", 2)]:
        rs = rs_of(family, rank)
        group = weyl_elements(rs)
        for _ in range(15):
            theta = tuple(Fraction(rng.randint(0, 3), 4)
                          for _ in range(rs.dim))
            a = tuple(Fraction(rng.randint(-12, 12), 6)
                      for _ in range(rs.dim))
            s = exp_point(rs, theta, a)
            d1 = centralizer_elliptic(rs, s)
            w0 = group[rng.randrange(len(group))]
            theta2 = rs.coweight_coords(
                w0.apply(rs.from_coweight_coords(s.theta)))
            s2 = exp_point(rs, theta2, w0.apply(s.a))
            d2 = centralizer_elliptic(rs, s2)
            assert len(d1.phi) == len(d2.phi)
            assert d1.w.order == d2.w.order
            assert d1.w0_order == d2.w0_order
            assert d1.subsystem_type == d2.subsystem_type


def test_subsystem_classification():
    rs = rs_of("B", 2)
    full = centralizer_face(
        rs,
        next(f for f in faces_of_alcove(rs).faces
             if f.vertices == ((Fraction(0), Fraction(0)),)),
    )
    assert full.subsystem_type == "B2"
    g2 = rs_of("G", 2)
    full = centralizer_face(
        g2,
        next(f for f in faces_of_alcove(g2).faces
             if f.vertices == ((Fraction(0), Fraction(0)),)),
    )
    assert full.subsystem_type == "G2"
    # alcove vertices of B2 carry the classical local types
    b2 = rs_of("B", 2)
    types = sorted(centralizer_face(b2, f).subsystem_type
                   for f in faces_of_alcove(b2).faces
                   if len(f.vertices) == 1)
    assert types == ["A1+A1", "B2", "B2"]


IRREDUCIBLE_TYPES = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", r) for r in range(6, 9)] + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,rank", IRREDUCIBLE_TYPES,
                         ids=[f"{f}{r}" for f, r in IRREDUCIBLE_TYPES])
def test_full_root_system_is_classified_by_its_diagram(family, rank):
    # the classifier reads bonds and branch nodes, so it needs no table of
    # types: every rank up to 8, with C2 = B2 and D3 = A3
    rs = rs_of(family, rank)
    phi = tuple(AffineRoot(i, 0) for i in range(len(rs.all_roots)))
    want = {"C2": "B2", "D3": "A3"}.get(f"{family}{rank}",
                                         f"{family}{rank}")
    assert subsystem_type(rs, phi) == want
    # |W| is the product of the degrees (Humphreys, Reflection Groups and
    # Coxeter Groups, §3.9)
    degrees = {"A": range(2, rank + 2), "B": range(2, 2 * rank + 1, 2),
               "C": range(2, 2 * rank + 1, 2),
               "D": [*range(2, 2 * rank - 1, 2), rank],
               "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                     8: (2, 8, 12, 14, 18, 20, 24, 30)}.get(rank),
               "F": (2, 6, 8, 12), "G": (2, 6)}[family]
    assert centralizer._weyl_order(want) == prod(degrees)


def test_matrix_shape_rejects_non_type_a():
    rs = rs_of("B", 2)
    with pytest.raises(ValueError):
        matrix_shape(rs, ())


def test_matrix_shape_render():
    rs = rs_of("A", 1)
    d = centralizer_elliptic(rs, exp_point(rs, (0,), (Fraction(1, 2),)))
    text = matrix_shape(rs, d.phi).render()
    assert "Cz" in text and "Cz^-1" in text
    # diagonal face: nothing off the diagonal
    interior = faces_of_alcove(rs).face_by_walls(frozenset())
    d2 = centralizer_face(rs, interior)
    assert matrix_shape(rs, d2.phi).to_json() == [[0, None], [None, 0]]


def test_sl3_vertex_shapes():
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    shapes = {}
    for f in cat.faces:
        if len(f.vertices) == 1:
            d = centralizer_face(rs, f)
            shapes[f.vertices[0]] = matrix_shape(rs, d.phi).to_json()
    zero = (Fraction(0), Fraction(0))
    assert shapes[zero] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    others = [s for v, s in shapes.items() if v != zero]
    assert [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]] in others
    assert [[0, 0, 1], [0, 0, 1], [-1, -1, 0]] in others


def test_adjoint_b2_half_coweight_is_disconnected():
    # theta = b1 / 2 is the class of diag(-1, -1, -1, -1, 1) in SO(5),
    # whose centralizer S(O(4) x O(1)) has two components
    rs = rs_of("B", 2, "adjoint")
    d = centralizer_elliptic(rs, exp_point(rs, (0, Fraction(1, 2)), (0, 0)))
    assert d.subsystem_type == "A1+A1"
    assert (d.w.order, d.w0_order, d.pi0_order) == (8, 4, 2)


def test_gl2_double_affine():
    rs = rs_of("A", 1, "gl")
    data = double_affine_centralizer(rs, (Fraction(1, 2), 0), (0, 0))
    assert data.cartesian and data.injective
