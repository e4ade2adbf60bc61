"""The affine Weyl group: affine actions, stabilizers, stars, reduction.

Elements are pairs (finite Weyl part, coweight translation) acting by
x -> w(x) + t; the finite part is a `WeylElement`, whose matrices are
integral.  Stabilizers and centralizers come from two scans, `root_scan`
over roots and `weyl_scan` over the finite Weyl group; star regions and
chart overlaps are handled by exact finite enumerations whose windows are
derived from the geometry, not guessed.

The kernels (`root_scan`, `weyl_scan`, `reduce_to_alcove`, the closure in
`point_reflection_subgroup`, `compose` and `invert`) run on Python ints:
points are written once as integer numerators over one common
denominator, Weyl elements act by integer matrices, and Fractions are
built only for the values returned.  The ell+1 wall reflections of the
alcove and the table of inverses are built once per root system.
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
    faces_of_alcove,
    facet_closure_contains,
    facet_of,
    fundamental_alcove,
)
from .ratmat import Vec
from .rootdata import (
    EnumerationGuard,
    RootSystem,
    WeylElement,
    simple_reflection,
    weyl_group,
)

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
    """The cached finite Weyl element with the given integer t-action."""
    return _weyl_by_matrix(rs)[matrix]


@lru_cache(maxsize=None)
def _inverses(rs: RootSystem) -> dict:
    """Each element's matrix -> its inverse element.  An element s_i w
    with word w.word + (i,) has inverse w^-1 s_i, so one integer product
    per element, in `weyl_elements` order, gives all inverses."""
    gens = [simple_reflection(rs, i).matrix for i in range(rs.rank)]
    inv_by_word = {(): ratmat.int_identity(rs.dim)}
    out = {}
    for w in weyl_elements(rs):
        if w.word:
            inv_by_word[w.word] = ratmat.int_matmul(
                inv_by_word[w.word[:-1]], gens[w.word[-1]])
        out[w.matrix] = finite_by_matrix(rs, inv_by_word[w.word])
    return out


def identity_element(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(weyl_elements(rs)[0], ratmat.zeros(rs.dim))


def compose(rs: RootSystem, a: AffineWeylElement,
            b: AffineWeylElement) -> AffineWeylElement:
    m = ratmat.int_matmul(a.finite_part.matrix, b.finite_part.matrix)
    return AffineWeylElement(
        finite_by_matrix(rs, m),
        ratmat.add(a.finite_part.apply(b.translation), a.translation),
    )


def invert(rs: RootSystem, a: AffineWeylElement) -> AffineWeylElement:
    w = _inverses(rs)[a.finite_part.matrix]
    return AffineWeylElement(w, ratmat.scale(-1, w.apply(a.translation)))


def _reflection_matrix(rs: RootSystem, idx: int) -> tuple:
    """s_alpha on t, x -> x - alpha(x) alpha-check, as an integer matrix."""
    g, c = rs.grads[idx], rs.coroots[idx]
    return tuple(tuple(int(r == k) - c[r] * g[k] for k in range(rs.dim))
                 for r in range(rs.dim))


def affine_reflection(rs: RootSystem, ar: AffineRoot) -> AffineWeylElement:
    """r_{alpha,n} = (s_alpha, n alpha-check), fixing the wall pointwise."""
    return AffineWeylElement(
        finite_by_matrix(rs, _reflection_matrix(rs, ar.root_index)),
        ratmat.scale(ar.level, rs.coroot(ar.root_index)),
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


@lru_cache(maxsize=None)
def _alcove_walls(rs: RootSystem) -> tuple:
    """(gradient, level, coroot, reflection matrix) of each wall of the
    fundamental alcove, in wall order.  The reflection in the wall
    (alpha, n) maps x to x - (alpha(x) - n) alpha-check."""
    return tuple((rs.grads[w.root_index], w.level, rs.coroots[w.root_index],
                  _reflection_matrix(rs, w.root_index))
                 for w in fundamental_alcove(rs))


def reduce_to_alcove(rs: RootSystem, x: Vec) -> tuple[AffineWeylElement, Vec]:
    """Descend x into the closed fundamental alcove by wall reflections,
    each time in the first wall (in wall order) that x lies beyond.

    x is written as integer numerators over its denominator d, so a wall
    value is one integer dot product and a reflection one integer update.
    The linear parts multiply up to the finite part w0 of the result;
    its translation is then xr - w0(x).
    """
    walls = _alcove_walls(rs)
    d, (cur,) = ratmat.over_common_denominator((x,), rs.dim)
    cap = 100
    for p in rs.positive_indices:
        cap += 4 * (abs(ratmat.int_dot(rs.grads[p], cur)) // d + 1)
    m = ratmat.int_identity(rs.dim)
    for _ in range(cap):
        for g, level, coroot, s in walls:
            v = ratmat.int_dot(g, cur) - level * d
            if v < 0:
                break
        else:
            w0 = finite_by_matrix(rs, m)
            xr = tuple(Fraction(c, d) for c in cur)
            return AffineWeylElement(w0, ratmat.sub(xr, w0.apply(x))), xr
        cur = tuple(a - v * c for a, c in zip(cur, coroot))
        m = ratmat.int_matmul(s, m)
    raise RuntimeError("alcove reduction failed to terminate (bug)")


def root_scan(rs: RootSystem, fixed: tuple[Vec, ...],
              points: tuple[Vec, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The roots that vanish at every `fixed` point and take integer values
    at every one of `points`, in root-index order, each as (root index,
    its values at `points`).  All points are written over one common
    denominator d, so each test is an integer dot product and a remainder
    mod d."""
    d, nums = ratmat.over_common_denominator(tuple(fixed) + tuple(points),
                                             rs.dim)
    fixed_n, points_n = nums[:len(fixed)], nums[len(fixed):]
    out = []
    for idx, g in enumerate(rs.grads):
        if any(ratmat.int_dot(g, x) for x in fixed_n):
            continue
        vals = []
        for p in points_n:
            v, rem = divmod(ratmat.int_dot(g, p), d)
            if rem:
                break
            vals.append(v)
        else:
            out.append((idx, tuple(vals)))
    return out


def weyl_scan(rs: RootSystem, fixed: tuple[Vec, ...],
              pairs: tuple[tuple[Vec, Vec], ...]
              ) -> list[tuple[WeylElement, tuple[Vec, ...]]]:
    """Each w0 in W that fixes every `fixed` point and makes y - w0(x) a
    coweight for every (x, y) in `pairs`, in `weyl_elements` order, each
    as (w0, those translations in the order of `pairs`).

    All points are written over one common denominator d, so w0 acts by
    integer matrix-vector products and the coweight test is a remainder
    test (`RootSystem.is_coweight`); the Fraction translations are built
    only for the elements kept."""
    pts = tuple(fixed) + tuple(p for xy in pairs for p in xy)
    d, nums = ratmat.over_common_denominator(pts, rs.dim)
    fixed_n = nums[:len(fixed)]
    pairs_n = [(nums[k], nums[k + 1]) for k in range(len(fixed), len(nums), 2)]
    out = []
    for w0 in weyl_elements(rs):
        m = w0.matrix
        if any(ratmat.int_matvec(m, x) != x for x in fixed_n):
            continue
        lams = []
        for x, y in pairs_n:
            lam = tuple(b - a for a, b in zip(ratmat.int_matvec(m, x), y))
            if not rs.is_coweight(lam, d):
                break
            lams.append(lam)
        else:
            out.append((w0, tuple(tuple(Fraction(c, d) for c in lam)
                                  for lam in lams)))
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
    listed breadth-first from the identity, generators in root order.

    The walls through x have integer levels, so every element is an
    integer matrix with an integer translation; the closure runs on those
    pairs and builds the affine elements at the end."""
    gens = [(_reflection_matrix(rs, ar.root_index),
             tuple(ar.level * c for c in rs.coroots[ar.root_index]))
            for ar in vanishing_affine_roots(rs, (tuple(x),))]
    ident = (ratmat.int_identity(rs.dim), (0,) * rs.dim)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m, t in frontier:
            for s, u in gens:
                c = (ratmat.int_matmul(s, m),
                     tuple(a + b for a, b in zip(ratmat.int_matvec(s, t), u)))
                if c not in seen:
                    if len(seen) >= _CLOSURE_GUARD:
                        raise EnumerationGuard("subgroup closure guard hit")
                    seen.add(c)
                    elements.append(c)
                    nxt.append(c)
        frontier = nxt
    return FiniteSubgroup(tuple(
        AffineWeylElement(finite_by_matrix(rs, m), ratmat.vec(t))
        for m, t in elements))


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
    the alcoves at v, the images of C under the reflection group of v,
    whose translations are integral."""
    d, wits = ratmat.over_common_denominator(
        tuple(f.witness for f in faces_of_alcove(rs).faces), rs.dim)
    out: dict = {}
    for u in point_reflection_subgroup(rs, v).elements:
        m = u.finite_part.matrix
        dt = tuple(d * int(c) for c in u.translation)
        for w in wits:
            p = tuple(Fraction(a + b, d)
                      for a, b in zip(ratmat.int_matvec(m, w), dt))
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
