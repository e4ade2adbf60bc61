"""The affine Weyl group: affine actions, stabilizers, stars, reduction.

Elements are pairs (finite Weyl part, coweight translation) acting by
x -> w(x) + t.  Stabilizers and centralizers come from two scans,
`root_scan` over roots and `weyl_scan` over the finite Weyl group; star
regions and chart overlaps are handled by exact finite enumerations whose
windows are derived from the geometry, not guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import ratmat
from .alcove import (
    AffineRoot,
    Face,
    alcove_vertices,
    eval_affine_root,
    faces_of_alcove,
    facet_closure_contains,
    facet_of,
    fundamental_alcove,
)
from .ratmat import Vec
from .rootdata import EnumerationGuard, RootSystem, WeylElement, weyl_group

_CLOSURE_GUARD = 20000


@dataclass(frozen=True)
class AffineWeylElement:
    finite_part: WeylElement
    translation: Vec

    def apply(self, x: Vec) -> Vec:
        return ratmat.add(self.finite_part.apply(x), self.translation)

    def key(self):
        return (self.finite_part.matrix, self.translation)

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, AffineWeylElement) and self.key() == other.key()

    def is_identity(self) -> bool:
        return self.finite_part.is_identity() and not any(self.translation)


@lru_cache(maxsize=None)
def weyl_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The finite Weyl group in `weyl_group` order, identity first; cached
    per root system."""
    return tuple(weyl_group(rs))


@lru_cache(maxsize=None)
def _weyl_by_matrix(rs: RootSystem) -> dict:
    return {w.matrix: w for w in weyl_elements(rs)}


def finite_by_matrix(rs: RootSystem, matrix) -> WeylElement:
    """The cached finite Weyl element with the given t-action."""
    return _weyl_by_matrix(rs)[matrix]


def identity_element(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(weyl_elements(rs)[0], ratmat.zeros(rs.dim))


def compose(rs: RootSystem, a: AffineWeylElement,
            b: AffineWeylElement) -> AffineWeylElement:
    m = ratmat.matmul(a.finite_part.matrix, b.finite_part.matrix)
    return AffineWeylElement(
        finite_by_matrix(rs, m),
        ratmat.add(a.finite_part.apply(b.translation), a.translation),
    )


def invert(rs: RootSystem, a: AffineWeylElement) -> AffineWeylElement:
    m = ratmat.inverse(a.finite_part.matrix)
    w = finite_by_matrix(rs, m)
    return AffineWeylElement(w, ratmat.scale(-1, w.apply(a.translation)))


def affine_reflection(rs: RootSystem, ar: AffineRoot) -> AffineWeylElement:
    """r_{alpha,n} = (s_alpha, n alpha-check), fixing the wall pointwise."""
    coroot = rs.coroot(ar.root_index)
    grad = [rs.eval_root(ar.root_index,
                         tuple(Fraction(1 if k == j else 0)
                               for k in range(rs.dim)))
            for j in range(rs.dim)]
    cols = []
    for j in range(rs.dim):
        e = tuple(Fraction(1 if k == j else 0) for k in range(rs.dim))
        cols.append(ratmat.sub(e, ratmat.scale(grad[j], coroot)))
    m = ratmat.transpose(ratmat.mat(cols))
    return AffineWeylElement(
        finite_by_matrix(rs, m), ratmat.scale(ar.level, coroot)
    )


def transform_affine_root(rs: RootSystem, w: AffineWeylElement,
                          ar: AffineRoot) -> AffineRoot:
    """The affine root whose wall is w(wall of ar): (w0 a0, n + (w0 a0)(t))."""
    new_coords = w.finite_part.apply_root(rs.all_roots[ar.root_index])
    idx = rs.root_index(new_coords)
    shift = rs.eval_root(idx, w.translation)
    level = ar.level + shift
    if level.denominator != 1:
        raise ValueError("translation is not a coweight: the image level "
                         f"{level} is not an integer")
    return AffineRoot(idx, int(level))


@dataclass(frozen=True)
class FiniteSubgroup:
    elements: tuple[AffineWeylElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(self.elements)


def reduce_to_alcove(rs: RootSystem, x: Vec) -> tuple[AffineWeylElement, Vec]:
    """Descend x into the closed fundamental alcove by wall reflections."""
    walls = fundamental_alcove(rs)
    cap = 100
    for p in rs.positive_indices:
        v = rs.eval_root(p, x)
        cap += 4 * (abs(v.numerator) // v.denominator + 1)
    w = identity_element(rs)
    cur = tuple(x)
    for _ in range(cap):
        bad = next(
            (wall for wall in walls if eval_affine_root(rs, wall, cur) < 0),
            None,
        )
        if bad is None:
            return w, cur
        r = affine_reflection(rs, bad)
        cur = r.apply(cur)
        w = compose(rs, r, w)
    raise RuntimeError("alcove reduction failed to terminate (bug)")


def root_scan(rs: RootSystem, fixed: tuple[Vec, ...],
              points: tuple[Vec, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The roots that vanish at every `fixed` point and take integer values
    at every one of `points`, in root-index order, each as (root index,
    its values at `points`)."""
    out = []
    for idx in range(len(rs.all_roots)):
        if any(rs.eval_root(idx, x) != 0 for x in fixed):
            continue
        vals = []
        for p in points:
            v = rs.eval_root(idx, p)
            if v.denominator != 1:
                break
            vals.append(int(v))
        else:
            out.append((idx, tuple(vals)))
    return out


def weyl_scan(rs: RootSystem, fixed: tuple[Vec, ...],
              pairs: tuple[tuple[Vec, Vec], ...]
              ) -> list[tuple[WeylElement, tuple[Vec, ...]]]:
    """Each w0 in W that fixes every `fixed` point and makes y - w0(x) a
    coweight for every (x, y) in `pairs`, in `weyl_elements` order, each
    as (w0, those translations in the order of `pairs`)."""
    fixed = tuple(tuple(x) for x in fixed)
    pairs = tuple((tuple(x), tuple(y)) for x, y in pairs)
    out = []
    for w0 in weyl_elements(rs):
        if any(w0.apply(x) != x for x in fixed):
            continue
        lams = []
        for x, y in pairs:
            lam = ratmat.sub(y, w0.apply(x))
            if not rs.in_coweight_lattice(lam):
                break
            lams.append(lam)
        else:
            out.append((w0, tuple(lams)))
    return out


def vanishing_affine_roots(rs: RootSystem, points: tuple[Vec, ...]
                           ) -> list[AffineRoot]:
    """Affine roots vanishing at every point of the given finite set."""
    p0 = tuple(points[0])
    diffs = tuple(ratmat.sub(tuple(p), p0) for p in points[1:])
    return [AffineRoot(idx, vals[0])
            for idx, vals in root_scan(rs, diffs, (p0,))]


def stabilizer_of_point(rs: RootSystem, x: Vec) -> FiniteSubgroup:
    """All (w0, lam) in W x X_* fixing x, by solving lam = x - w0(x)."""
    return FiniteSubgroup(tuple(
        AffineWeylElement(w0, lam)
        for w0, (lam,) in weyl_scan(rs, (), ((x, x),))
    ))


def stabilizer_of_face(rs: RootSystem, j: Face) -> FiniteSubgroup:
    """The stabilizer of the face, which for simply-connected groups is
    generated by the reflections in the walls containing it (Steinberg)."""
    if rs.cartan_type.isogeny != "sc":
        raise ValueError("face stabilizers require simply-connected isogeny")
    return stabilizer_of_point(rs, j.witness)


def point_reflection_subgroup(rs: RootSystem, x: Vec) -> FiniteSubgroup:
    """Group generated by reflections in all walls through the point x,
    listed breadth-first from the identity, generators in root order."""
    gens = [affine_reflection(rs, ar)
            for ar in vanishing_affine_roots(rs, (tuple(x),))]
    ident = identity_element(rs)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = compose(rs, g, w)
                if c not in seen:
                    if len(seen) >= _CLOSURE_GUARD:
                        raise EnumerationGuard("subgroup closure guard hit")
                    seen.add(c)
                    elements.append(c)
                    nxt.append(c)
        frontier = nxt
    return FiniteSubgroup(tuple(elements))


def star_contains(rs: RootSystem, j: Face, x: Vec) -> bool:
    """Whether x lies in St_J: the face J is in the closure of facet(x)."""
    return facet_closure_contains(rs, tuple(x), j.witness)


def open_embedding_counterexample(rs: RootSystem, j: Face,
                                  samples: list[tuple[Vec, Vec]]):
    """Search for w in W_aff mapping one St_J sample to another with
    w outside W_J.  Returns the violating (x, y, w) or None."""
    wj = stabilizer_of_face(rs, j).element_set()
    for x, y in samples:
        if not (star_contains(rs, j, x) and star_contains(rs, j, y)):
            raise ValueError("sample pair not inside the star of the face")
        for w0, (lam,) in weyl_scan(rs, (), ((x, y),)):
            w = AffineWeylElement(w0, lam)
            if w not in wj:
                return (x, y, w)
    return None


def verify_open_embedding(rs: RootSystem, j: Face,
                          samples: list[tuple[Vec, Vec]]) -> bool:
    return open_embedding_counterexample(rs, j, samples) is None


def _vertex_faces(rs: RootSystem) -> dict:
    """Map each alcove vertex (as a tuple) to its vertex face."""
    return {f.vertices[0]: f for f in faces_of_alcove(rs).faces
            if len(f.vertices) == 1}


def _facets_at_vertex(rs: RootSystem, v: Vec) -> dict:
    """One witness per facet whose closure contains the vertex v, keyed by
    facet, in order of first appearance.  These facets are the faces of
    the alcoves at v, the images of C under the reflection group of v."""
    faces = faces_of_alcove(rs).faces
    out: dict = {}
    for u in point_reflection_subgroup(rs, v).elements:
        for f in faces:
            p = u.apply(f.witness)
            out.setdefault(facet_of(rs, p), p)
    return out


def star_facet_witnesses(rs: RootSystem, j: Face) -> list[Vec]:
    """One witness per facet of St_J, by exact finite enumeration: St_J
    lies in the star of any vertex of J, and star membership is a property
    of the facet."""
    return [p for p in _facets_at_vertex(rs, j.vertices[0]).values()
            if star_contains(rs, j, p)]


def verify_star_intersection(rs: RootSystem, j: Face) -> bool:
    """St_J equals the intersection of the stars of its vertices,
    checked on every facet of the union of the vertex stars."""
    vfaces = _vertex_faces(rs)
    jverts = [vfaces[v] for v in j.vertices]
    candidates: dict = {}
    for v in j.vertices:
        candidates.update(_facets_at_vertex(rs, v))
    for p in candidates.values():
        in_star = star_contains(rs, j, p)
        in_all = all(star_contains(rs, vf, p) for vf in jverts)
        if in_star != in_all:
            return False
    return True


def verify_cover(rs: RootSystem, samples: list[Vec]) -> bool:
    """Every point reduces into some vertex star of the alcove."""
    vfaces = list(_vertex_faces(rs).values())
    for x in samples:
        w, xr = reduce_to_alcove(rs, x)
        if w.apply(tuple(x)) != xr:
            return False
        if not any(star_contains(rs, vf, xr) for vf in vfaces):
            return False
    return True


def chart_overlap(rs: RootSystem, j1: Face, j2: Face
                  ) -> list[tuple[AffineWeylElement, FiniteSubgroup]]:
    """Double cosets W_{J2} \\ {w : w(St_{J1}) meets St_{J2}} / W_{J1},
    with the pair stabilizer W_{w(J1)} cap W_{J2} for each representative."""
    w1 = stabilizer_of_face(rs, j1)
    w2 = stabilizer_of_face(rs, j2)
    p1 = star_facet_witnesses(rs, j1)

    # hull points of the two star regions, for the translation window
    def hull_points(j: Face) -> list[Vec]:
        verts = alcove_vertices(rs)
        group = stabilizer_of_point(rs, j.vertices[0])
        return [u.apply(v) for u in group.elements for v in verts]

    h1, h2 = hull_points(j1), hull_points(j2)
    found = []
    for w0 in weyl_elements(rs):
        moved = [w0.apply(p) for p in h1]
        box = []
        c2 = [rs.coweight_coords(p) for p in h2]
        c1 = [rs.coweight_coords(p) for p in moved]
        ok = True
        for k in range(rs.dim):
            lo = min(t[k] for t in c2) - max(s[k] for s in c1)
            hi = max(t[k] for t in c2) - min(s[k] for s in c1)
            lo_i = -((-lo.numerator) // lo.denominator)
            hi_i = hi.numerator // hi.denominator
            if lo_i > hi_i:
                ok = False
                break
            box.append(range(lo_i, hi_i + 1))
        if not ok:
            continue

        def rec(k, coords):
            if k == rs.dim:
                lam = rs.from_coweight_coords(tuple(Fraction(c)
                                                    for c in coords))
                w = AffineWeylElement(w0, lam)
                if any(star_contains(rs, j2, w.apply(p)) for p in p1):
                    found.append(w)
                return
            for c in box[k]:
                rec(k + 1, coords + [c])

        rec(0, [])

    # partition into double cosets
    found_set = set(found)
    seen: set = set()
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
        if not coset <= found_set:
            raise RuntimeError("double coset leaves the overlap set (bug)")
        seen |= coset
        winv = invert(rs, w)
        conj = {compose(rs, compose(rs, w, a), winv) for a in w1.elements}
        pair = sorted(conj & w2.element_set(),
                      key=lambda e: (e.finite_part.word, e.translation))
        out.append((w, FiniteSubgroup(tuple(pair))))
    return out
