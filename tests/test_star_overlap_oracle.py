"""Stars and chart overlaps against Fraction oracles.

The oracles below are the earlier Fraction implementations of the facet
enumerator at a vertex and of `chart_overlap`: the enumerator applies
each affine element of the vertex's reflection group to every face
witness, and the overlap searches for the set {w : w(St_J1) meets
St_J2} directly.  For each w0 in W it tries every lam in a window, the
box in coweight coordinates allowed by the images of the alcove
vertices under the two vertex groups, applies (w0, lam) to every star
witness of J1 as a Fraction map, and then partitions what it finds into
double cosets with `compose` and `invert`.  Two changes from that code
leave its values as they were.  w0(p) is computed once per w0 and lam
added to it, rather than w = (w0, lam) applied to p for every lam.  And
a moved witness q is tried only on the lam with q + lam in the
coordinate box of J2's vertex-group images, whose hull holds St_J2; the
images, their boxes and those of their W-images are built once per
(root system, face).

The library forms the overlap in closed form, as the single double coset
W_J2 W_J1 (W_aff acts simply transitively on alcoves, and the alcoves of
St_J are W_J C), so the window search is an independent check of that
theorem and of the choice of representative.  The library must give the
same facets with the same witnesses in the same order at every vertex
of sc A2, B2, G2, A3, B3 and C3, and the same double-coset
representatives (word and translation, in order) and pair stabilizers
(in order) on every face pair of sc A2, B2 and G2 and on every vertex
pair of sc A3.  The cache of the enumerator, that of the vertex groups
it is keyed on, and the per-face caches (W_J, the Levi data, the star's
facet witnesses, the root scan of `parabolics`) must hand out immutable
values, and hit for an equal root system built a second time.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from alcoves import centralizer, parabolic, ratmat, weylaff
from alcoves.alcove import (
    FacetKey,
    alcove_vertices,
    faces_of_alcove,
    facet_of,
)
from alcoves.centralizer import centralizer_face
from alcoves.rootdata import CartanType, build_root_system, weyl_group
from alcoves.weylaff import (
    AffineWeylElement,
    FiniteSubgroup,
    chart_overlap,
    compose,
    invert,
    point_reflection_subgroup,
    stabilizer_of_face,
    stabilizer_of_point,
    star_contains,
    star_facet_witnesses,
    verify_star_intersection,
)


def rs_of(family, rank):
    return build_root_system(CartanType(family, rank))


# -- Fraction oracles ------------------------------------------------------


@lru_cache(maxsize=None)
def oracle_facets_at_vertex(rs, v):
    """One witness per facet whose closure contains v, keyed by facet, in
    order of first appearance: the reflection group of v applied to the
    face witnesses."""
    out = {}
    for u in point_reflection_subgroup(rs, v).elements:
        for f in faces_of_alcove(rs).faces:
            p = u.apply(f.witness)
            out.setdefault(facet_of(rs, p), p)
    return out


def oracle_star_facet_witnesses(rs, j):
    return [p for p in oracle_facets_at_vertex(rs, j.vertices[0]).values()
            if star_contains(rs, j, p)]


@lru_cache(maxsize=None)
def hull_points(rs, j):
    """The images of the alcove vertices under the stabilizer of the first
    vertex v of J: St_J lies in St_v, the union of the alcoves at v, so in
    the convex hull of these points.  Built once per (root system,
    face)."""
    verts = alcove_vertices(rs)
    group = stabilizer_of_point(rs, j.vertices[0])
    return tuple(u.apply(v) for u in group.elements for v in verts)


def coweight_box(rs, pts):
    """The least and the greatest coweight coordinates of the points, one
    pair per coordinate."""
    c = [rs.coweight_coords(p) for p in pts]
    return tuple(zip(map(min, zip(*c)), map(max, zip(*c))))


@lru_cache(maxsize=None)
def hull_box(rs, j):
    """`coweight_box` of `hull_points`, which holds St_J; built once per
    (root system, face)."""
    return coweight_box(rs, hull_points(rs, j))


@lru_cache(maxsize=None)
def moved_hull_boxes(rs, j):
    """`coweight_box` of w0(`hull_points`) for each w0 in
    `weyl_group`, in that order; built once per (root system, face)."""
    return tuple(coweight_box(rs, [w0.apply(p) for p in hull_points(rs, j)])
                 for w0 in weyl_group(rs))


def ceil_floor(lo, hi):
    """The least and the greatest integer in [lo, hi]."""
    return -((-lo.numerator) // lo.denominator), hi.numerator // hi.denominator


def oracle_chart_overlap(rs, j1, j2):
    w1 = stabilizer_of_face(rs, j1)
    w2 = stabilizer_of_face(rs, j2)
    p1 = oracle_star_facet_witnesses(rs, j1)
    box2 = hull_box(rs, j2)
    found = []
    for w0, box1 in zip(weyl_group(rs), moved_hull_boxes(rs, j1)):
        box = []
        for (lo2, hi2), (lo1, hi1) in zip(box2, box1):
            lo_i, hi_i = ceil_floor(lo2 - hi1, hi2 - lo1)
            if lo_i > hi_i:
                break
            box.append(range(lo_i, hi_i + 1))
        else:
            # q + lam can lie in St_J2 only inside the hull box of J2, so
            # each moved witness q is tried only on its lam window, and a
            # lam is tried only on the q whose windows hold it
            moved_p1 = []
            for p in p1:
                q = w0.apply(p)
                moved_p1.append((q, [
                    ceil_floor(lo - c, hi - c)
                    for c, (lo, hi) in zip(rs.coweight_coords(q), box2)]))

            def rec(k, coords, cands):
                if k == rs.dim:
                    lam = rs.from_coweight_coords(tuple(Fraction(c)
                                                        for c in coords))
                    if any(star_contains(rs, j2, ratmat.add(q, lam))
                           for q, _ in cands):
                        found.append(AffineWeylElement(w0, tuple(
                            int(c * rs.coweight_den) for c in lam),
                            rs.coweight_den))
                    return
                for c in box[k]:
                    held = [(q, win) for q, win in cands
                            if win[k][0] <= c <= win[k][1]]
                    if held:
                        rec(k + 1, coords + [c], held)

            rec(0, [], moved_p1)

    found_set = set(found)
    seen = set()
    out = []
    for w in found:
        if w in seen:
            continue
        coset = set()
        frontier = [w]
        while frontier:
            u = frontier.pop()
            if u in coset:
                continue
            coset.add(u)
            for a in w1.elements:
                frontier.append(compose(rs, u, a))
            for b in w2.elements:
                frontier.append(compose(rs, b, u))
        assert coset <= found_set
        seen |= coset
        winv = invert(rs, w)
        conj = {compose(rs, compose(rs, w, a), winv) for a in w1.elements}
        pair = sorted(conj & w2.element_set(),
                      key=lambda e: (e.finite_part.word, e.translation))
        out.append((w, FiniteSubgroup(rs, tuple(pair))))
    return out


# -- cases -------------------------------------------------------------------


def summary(cosets):
    """(word, translation) of each representative and of each element of
    its pair stabilizer, in order."""
    return [((w.finite_part.word, w.translation),
             [(e.finite_part.word, e.translation) for e in stab.elements])
            for w, stab in cosets]


def face_pairs(family, rank, vertices_only):
    rs = rs_of(family, rank)
    faces = [f for f in faces_of_alcove(rs).faces
             if not vertices_only or len(f.vertices) == 1]
    return [(family, rank, sorted(a.vanishing_walls),
             sorted(b.vanishing_walls)) for a in faces for b in faces]


OVERLAP_CASES = (face_pairs("A", 2, False) + face_pairs("B", 2, False)
                 + face_pairs("G", 2, False) + face_pairs("A", 3, True))
VERTEX_TYPES = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]


@pytest.mark.parametrize(
    "family,rank,walls1,walls2", OVERLAP_CASES,
    ids=[f"{f}{r}-{a}-{b}" for f, r, a, b in OVERLAP_CASES])
def test_chart_overlap_matches_fraction_overlap(family, rank, walls1,
                                                walls2):
    rs = rs_of(family, rank)
    cat = faces_of_alcove(rs)
    j1, j2 = cat.face_by_walls(walls1), cat.face_by_walls(walls2)
    got = chart_overlap(rs, j1, j2)
    assert summary(got) == summary(oracle_chart_overlap(rs, j1, j2))
    w2 = stabilizer_of_face(rs, j2).element_set()
    for w, stab in got:
        assert all(isinstance(c, Fraction) for c in w.translation)
        assert stab.element_set() <= w2


@pytest.mark.parametrize("family,rank", VERTEX_TYPES,
                         ids=[f"{f}{r}" for f, r in VERTEX_TYPES])
def test_facets_at_vertex_match_fraction_enumeration(family, rank):
    rs = rs_of(family, rank)
    for v in alcove_vertices(rs):
        want = oracle_facets_at_vertex(rs, v)
        got = weylaff._facets_at_vertex(rs, v)
        assert [k.witness for k in got] == list(want.values())
        assert [k.key for k in got] == [k.key for k in want]
        assert [k.vanishing_set for k in got] == \
            [k.vanishing_set for k in want]
    for f in faces_of_alcove(rs).faces:
        assert star_facet_witnesses(rs, f) == \
            oracle_star_facet_witnesses(rs, f)


# -- the cache -------------------------------------------------------------


def test_mutating_results_leaves_the_cache_unchanged():
    rs = rs_of("A", 3)
    faces = faces_of_alcove(rs).faces
    wits = {f: star_facet_witnesses(rs, f) for f in faces}
    verdicts = {f: verify_star_intersection(rs, f) for f in faces}
    for f in faces:
        got = star_facet_witnesses(rs, f)
        assert got is not star_facet_witnesses(rs, f)
        got.reverse()
        got.append(got[0])
        got[0] = (Fraction(99),) * rs.dim
        # the candidates of verify_star_intersection: a dict of the
        # cached facets of every vertex of the face
        candidates = dict.fromkeys(
            k for v in f.vertices
            for k in weylaff._facets_at_vertex(rs, v))
        candidates.clear()
        candidates[facet_of(rs, (Fraction(1, 3),) * rs.dim)] = None
    for f in faces:
        assert star_facet_witnesses(rs, f) == wits[f]
        assert verify_star_intersection(rs, f) == verdicts[f]


def test_cached_entry_is_an_immutable_tuple():
    rs = rs_of("B", 3)
    for v in alcove_vertices(rs):
        entry = weylaff._facets_at_vertex(rs, v)
        assert entry is weylaff._facets_at_vertex(rs, v)
        assert isinstance(entry, tuple)
        assert all(isinstance(k, FacetKey) for k in entry)
        with pytest.raises(TypeError):
            entry[0] = None
    # the cached face data: frozen dataclasses over tuples
    for f in faces_of_alcove(rs).faces:
        stab = stabilizer_of_face(rs, f)
        data = centralizer_face(rs, f)
        assert stab is stabilizer_of_face(rs, f)
        assert data is centralizer_face(rs, f)
        with pytest.raises(AttributeError):
            stab.elements = ()
        with pytest.raises(AttributeError):
            data.phi = ()
        with pytest.raises(AttributeError):
            data.w = stab
        assert isinstance(stab.elements, tuple)
        assert isinstance(data.phi, tuple)
        assert isinstance(stab.element_set(), frozenset)


def test_equal_rebuilt_root_system_hits_the_cache():
    rs = rs_of("G", 2)
    fresh = build_root_system.__wrapped__(rs.cartan_type)
    assert fresh is not rs and fresh == rs and hash(fresh) == hash(rs)
    caches = (weylaff._point_reflection_subgroup, weylaff._vertex_star,
              weylaff._face_stabilizer, weylaff._star_witnesses,
              centralizer._face_centralizer, parabolic._face_scan)
    for f in faces_of_alcove(rs).faces:
        if len(f.vertices) != 1:
            continue
        v = f.vertices[0]
        entry = weylaff._facets_at_vertex(rs, v)
        stab = stabilizer_of_face(rs, f)
        data = centralizer_face(rs, f)
        wits = star_facet_witnesses(rs, f)
        scan = parabolic.parabolics(rs, (f,), ((0, 0),))[0, 0]
        hits = [c.cache_info().hits for c in caches]
        assert weylaff._facets_at_vertex(fresh, v) is entry
        assert stabilizer_of_face(fresh, f) is stab
        assert centralizer_face(fresh, f) is data
        assert star_facet_witnesses(fresh, f) == wits
        assert parabolic.parabolics(fresh, (f,), ((0, 0),))[0, 0].ambient \
            is scan.ambient
        assert [c.cache_info().hits for c in caches] == [h + 1 for h in hits]
        assert point_reflection_subgroup(fresh, v) is \
            point_reflection_subgroup(rs, list(v))
    a2 = rs_of("A", 2)
    cells = centralizer._shape_cells(a2)
    hits = centralizer._shape_cells.cache_info().hits
    assert centralizer._shape_cells(
        build_root_system.__wrapped__(a2.cartan_type)) is cells
    assert centralizer._shape_cells.cache_info().hits == hits + 1
