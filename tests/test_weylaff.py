import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcoves import cli, ratmat, rootdata, weylaff
from alcoves.alcove import eval_affine_root, faces_of_alcove, \
    fundamental_alcove
from alcoves.rootdata import (
    CartanType,
    build_root_system,
    times_word,
    weyl_element,
    weyl_group,
)
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
    assert w.finite_part in weyl_group(rs2)
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


def test_identity_lists_w_up_to_the_guard():
    """Up to the rank guard the identity's finite part is the first
    element of `weyl_group`, so a first call lists W and caches it for
    the W scans."""
    rs = rs_of("B", 3)
    rootdata._weyl_listing.cache_clear()
    one = identity_element(rs)
    assert rootdata._weyl_listing.cache_info().misses == 1
    assert one.is_identity()
    assert one.finite_part is weyl_group(rs)[0]
    assert identity_element(rs).finite_part is one.finite_part
    assert rootdata._weyl_listing.cache_info().misses == 1


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


@pytest.mark.parametrize("family,rank,isogeny", [
    ("F", 4, "sc"), ("B", 3, "adjoint"), ("A", 2, "gl"),
])
def test_no_descent_runs_where_no_word_is_read(monkeypatch, family, rank,
                                               isogeny):
    """From cold caches, listing W, the reflection group of every face
    witness (31 on F4; 31 seeded points on gl, which has no alcove), 50
    reductions and 50 compositions call no `weyl_element`: each Weyl
    element is its matrix.  Reading `.word` afterwards runs the descent
    once per element; each word is that of `weyl_element` and
    multiplies the matrix out to the identity."""
    calls = []
    for name, module in list(sys.modules.items()):  # every binding of it
        if name.startswith("alcoves.") and \
                vars(module).get("weyl_element") is weyl_element:
            monkeypatch.setattr(module, "weyl_element", lambda r, m: (
                calls.append(m) or weyl_element(r, m)))
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"no-descent-{family}{rank}-{isogeny}")
    rootdata._weyl_listing.cache_clear()
    weylaff._point_reflection_subgroup.cache_clear()
    listed = weyl_group(rs)
    if isogeny == "gl":
        points = [rand_point(rng, rs.dim, den=6) for _ in range(31)]
    else:
        points = [f.witness for f in faces_of_alcove(rs).faces]
    groups = [e for x in points
              for e in point_reflection_subgroup(rs, x).elements]
    if isogeny == "gl":  # no alcove to reduce into
        walked = rng.sample(groups, 50)
    else:
        walked = [reduce_to_alcove(rs, rand_point(rng, rs.dim))[0]
                  for _ in range(50)]
    composed = [compose(rs, *rng.sample(walked, 2)) for _ in range(50)]
    assert calls == []
    elements = [*listed, *(a.finite_part for a in (*groups, *walked,
                                                    *composed))]
    one = ratmat.int_identity(rs.dim)
    for w in elements:
        assert w.word == weyl_element(rs, w.matrix).word
        assert times_word(rs, w.matrix, w.word) == one
    assert len(calls) == len({id(w) for w in elements})


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


def test_open_embedding_returns_the_violating_element(monkeypatch):
    """With W_J made trivial, the reflection in the vertex 1/2 of sc A1,
    (s, 1), maps 5/8 to 3/8 and lies outside W_J: it is returned as the
    W scan built it."""
    rs = rs_of("A", 1)
    half = faces_of_alcove(rs).face_by_walls({1})
    assert half.witness == (Fraction(1, 2),)
    trivial = weylaff.FiniteSubgroup(rs, (identity_element(rs),))
    monkeypatch.setattr(weylaff, "stabilizer_of_face", lambda r, j: trivial)
    x, y = (Fraction(5, 8),), (Fraction(3, 8),)
    got = open_embedding_counterexample(rs, half, [(x, y)])
    assert got is not None
    gx, gy, w = got
    assert (gx, gy) == (x, y)
    assert w.apply(x) == y
    assert w.translation == (Fraction(1),)
    assert all(type(c) is int for c in w.num)
    assert not w.finite_part.is_identity()
    assert w not in trivial.element_set()


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


def count_translation_reads(monkeypatch):
    """Clear the caches that hold groups, then record each element whose
    Fraction `translation` is read."""
    for cache in (weylaff._face_stabilizer, weylaff._point_reflection_subgroup,
                  weylaff._vertex_star, weylaff._star_witnesses):
        cache.cache_clear()
    read = []
    translation = AffineWeylElement.translation.fget
    monkeypatch.setattr(AffineWeylElement, "translation", property(
        lambda self: read.append(self) or translation(self)))
    return read


@pytest.mark.parametrize("argv,count", [
    ("star --type A --rank 3 --face 0,1,2", 0),
    ("verify stabilizers --type B --rank 2", 0),
    ("overlap --type A --rank 3 --face1 0 --face2 1,2", 1),
], ids=["star", "verify-stabilizers", "overlap"])
def test_groups_are_read_on_integers(argv, count, monkeypatch, capsys):
    """Stars, stabilizer checks and overlaps read their groups on the
    elements' numerators: from cold caches `star` and `verify
    stabilizers` read no Fraction translation, and `overlap` reads only
    its representative's, for its output."""
    read = count_translation_reads(monkeypatch)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert len(read) == count


def test_point_stabilizer_lists_the_w_scan_in_order():
    """`stabilizer_of_point` lists the elements of the W scan in
    `weyl_group` order, each translation x - w0(x) with numerators
    over coweight_den, a Fraction when read."""
    rs = rs_of("F", 4)
    x = ratmat.vec(("1/2", "1/2", "0", "0"))
    group = stabilizer_of_point(rs, x)
    assert group.order == 96
    elements = group.elements
    d, (num,) = ratmat.over_common_denominator((x,), rs.dim)
    rows = weylaff.int_weyl_test(rs, d, (), ((num, num),))
    lam = weylaff.int_weyl_translations(rs, d, rows, ((num, num),))
    assert elements == tuple(
        AffineWeylElement(weyl_group(rs)[i],
                          tuple(rs.coweight_den * c // d for c in t),
                          rs.coweight_den)
        for i, (t,) in zip(rows.tolist(), lam.tolist()))
    index = {w0: i for i, w0 in enumerate(weyl_group(rs))}
    rows = [index[e.finite_part] for e in elements]
    assert rows == sorted(rows)
    for e in elements:
        assert e.den == rs.coweight_den
        assert all(type(c) is int for c in e.num)
        assert e.translation == ratmat.sub(x, e.finite_part.apply(x))
        assert all(type(c) is Fraction for c in e.translation)


# coweight_den is 1 on the sc types, so a numerator there is its value;
# it is 3 on adjoint A2 and gl A2 (dim 3), 2 on adjoint B2 and C3, and 4
# on adjoint A3
GROUP_LAW_TYPES = [("A", 1, "sc"), ("A", 2, "sc"), ("B", 2, "sc"),
                   ("A", 2, "adjoint"), ("B", 2, "adjoint"),
                   ("C", 3, "adjoint"), ("A", 3, "adjoint"), ("A", 2, "gl")]


def rand_element(rs, index, coord):
    """The Weyl element at index(|W|) and a coweight with coordinates
    drawn by coord(), its translation taken through the Fraction
    `from_coweight_coords`."""
    w0 = weyl_group(rs)[index(len(weyl_group(rs)))]
    lam = rs.from_coweight_coords(
        tuple(Fraction(coord()) for _ in range(rs.dim)))
    el = AffineWeylElement(w0, tuple(int(c * rs.coweight_den) for c in lam),
                           rs.coweight_den)
    assert el.translation == lam
    return el


def assert_fraction_oracle(rs, a, b):
    """compose(a, b) against the Fraction oracle, a's finite part applied
    to b's translation plus a's, with every entry num_k / den."""
    ab = compose(rs, a, b)
    assert ab.translation == ratmat.add(
        a.finite_part.apply(b.translation), a.translation)
    for e in (a, b, ab, invert(rs, a)):
        assert e.den == rs.coweight_den
        assert e.translation == tuple(Fraction(c, e.den) for c in e.num)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(GROUP_LAW_TYPES),
    st.data(),
)
def test_group_law_inverse(typ, data):
    rs = rs_of(*typ)

    def draw():
        return rand_element(
            rs, lambda n: data.draw(st.integers(0, n - 1)),
            lambda: data.draw(st.integers(-3, 3)))

    el, other = draw(), draw()
    assert compose(rs, el, invert(rs, el)) == identity_element(rs)
    assert compose(rs, invert(rs, el), el) == identity_element(rs)
    assert_fraction_oracle(rs, el, other)


def test_group_law_associative_on_action():
    for typ in GROUP_LAW_TYPES:
        rs = rs_of(*typ)
        rng = random.Random(9)
        for _ in range(20):
            a, b = (rand_element(rs, rng.randrange,
                                 lambda: rng.randint(-2, 2))
                    for _ in range(2))
            x = rand_point(rng, rs.dim)
            assert compose(rs, a, b).apply(x) == a.apply(b.apply(x))
            assert_fraction_oracle(rs, a, b)
