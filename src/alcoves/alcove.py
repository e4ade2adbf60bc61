"""Affine roots, the fundamental alcove, its faces, and general facets.

Walls of the fundamental alcove are stored as affine roots oriented so each
is nonnegative on the closed alcove: the simple roots at level 0 plus the
negated highest root at level -1 (so eval = 1 - theta(x)).  The walls, the
vertices and the face category are built once per root system.
`root_values` writes a point as integer numerators over its denominator,
so each root value is an integer dot product.  A facet is keyed on their
floors and remainders; `FacetKey.build` makes the key's vanishing set,
for `facet_of` and for the facet enumerator at a vertex, and
`FacetKey.closure_contains` compares the values with integer bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import ratmat
from .ratmat import Vec
from .rootdata import RootSystem


@dataclass(frozen=True)
class AffineRoot:
    """The affine function x -> root(x) - level."""

    root_index: int
    level: int


def eval_affine_root(rs: RootSystem, ar: AffineRoot, x: Vec) -> Fraction:
    if len(x) != rs.dim:
        raise ValueError(f"expected dimension {rs.dim}, got {len(x)}")
    return rs.eval_root(ar.root_index, x) - ar.level


def negate_affine_root(rs: RootSystem, ar: AffineRoot) -> AffineRoot:
    return AffineRoot(rs.negation[ar.root_index], -ar.level)


def fundamental_coweights(rs: RootSystem) -> tuple[Vec, ...]:
    """omega_i-check in ambient coordinates (central part zero for gl)."""
    cinv = ratmat.inverse(rs.cartan)
    pad = (Fraction(0),) * (rs.dim - rs.rank)
    return tuple(tuple(cinv[i]) + pad for i in range(rs.rank))


@lru_cache(maxsize=None)
def fundamental_alcove(rs: RootSystem) -> tuple[AffineRoot, ...]:
    """The ell+1 walls, each oriented to be positive on the open alcove;
    built once per root system."""
    if rs.cartan_type.isogeny == "gl":
        raise ValueError("fundamental alcove requires sc or adjoint isogeny")
    walls = [
        AffineRoot(rs.root_index(a), 0) for a in rs.simple_roots
    ]
    neg_highest = rs.root_index(ratmat.scale(-1, rs.highest_root))
    walls.append(AffineRoot(neg_highest, -1))
    return tuple(walls)


@lru_cache(maxsize=None)
def alcove_vertices(rs: RootSystem) -> tuple[Vec, ...]:
    """Vertex opposite each wall: omega_i-check / c_i for wall i, then 0."""
    marks = rs.highest_root  # coefficients of the highest root
    fw = fundamental_coweights(rs)
    verts = [ratmat.scale(Fraction(1, int(marks[i])), fw[i])
             for i in range(rs.rank)]
    verts.append(ratmat.zeros(rs.dim))
    return tuple(verts)


@dataclass(frozen=True)
class Face:
    """A face of the closed fundamental alcove.

    Identity is the subset of walls vanishing on the face; the witness is
    the barycenter of the face's vertices.
    """

    vanishing_walls: frozenset[int]
    vertices: tuple[Vec, ...] = field(compare=False)
    witness: Vec = field(compare=False)


def make_face(rs: RootSystem, vanishing: frozenset[int]) -> Face:
    verts = alcove_vertices(rs)
    nwalls = rs.rank + 1
    if not vanishing <= set(range(nwalls)) or len(vanishing) == nwalls:
        raise ValueError("vanishing set must be a proper subset of the walls")
    face_verts = tuple(verts[i] for i in range(nwalls) if i not in vanishing)
    k = Fraction(1, len(face_verts))
    w = ratmat.zeros(rs.dim)
    for v in face_verts:
        w = ratmat.add(w, ratmat.scale(k, v))
    return Face(frozenset(vanishing), face_verts, w)


@dataclass(frozen=True)
class FaceCategory:
    faces: tuple[Face, ...]
    arrows: tuple[tuple[int, int], ...]  # (i, j): face i -> face j

    def face_by_walls(self, vanishing) -> Face:
        key = frozenset(vanishing)
        for f in self.faces:
            if f.vanishing_walls == key:
                return f
        raise ValueError(f"no face with vanishing walls {sorted(key)}")

    def to_json(self, rs: RootSystem) -> dict:
        walls = fundamental_alcove(rs)
        return {
            "cartan_type": rs.cartan_type.label() + "-" + rs.cartan_type.isogeny,
            "walls": [
                {"root": ratmat.vec_str(rs.all_roots[w.root_index]),
                 "level": w.level}
                for w in walls
            ],
            "faces": [
                {
                    "vanishing_walls": sorted(f.vanishing_walls),
                    "witness": ratmat.vec_str(f.witness),
                    "vertices": [ratmat.vec_str(v) for v in f.vertices],
                }
                for f in self.faces
            ],
            "arrows": [list(a) for a in self.arrows],
        }


def faces_of_alcove(rs: RootSystem) -> FaceCategory:
    """All 2^(ell+1) - 1 faces, arrows by reverse inclusion of wall sets;
    built once per root system."""
    # a plain function in front of the cache, so tracing sees each call
    return _face_category(rs)


@lru_cache(maxsize=None)
def _face_category(rs: RootSystem) -> FaceCategory:
    nwalls = rs.rank + 1
    subsets = []
    for mask in range(1 << nwalls):
        s = frozenset(i for i in range(nwalls) if mask & (1 << i))
        if len(s) < nwalls:
            subsets.append(s)
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    faces = tuple(make_face(rs, s) for s in subsets)
    arrows = tuple(
        (i, j)
        for i, fi in enumerate(faces)
        for j, fj in enumerate(faces)
        if fi.vanishing_walls >= fj.vanishing_walls
    )
    return FaceCategory(faces, arrows)


@dataclass(frozen=True)
class FacetKey:
    """A facet of the affine arrangement through a given witness point.

    The canonical key stores, for every positive root, the integer part of
    its value at the witness and whether the value is integral.  Two points
    lie in the same facet iff these agree for every positive root.
    """

    key: tuple[tuple[int, bool], ...]  # one (floor, on-wall) per positive root
    vanishing_set: tuple[AffineRoot, ...] = field(compare=False)
    witness: Vec = field(compare=False)

    @classmethod
    def build(cls, rs: RootSystem, key: tuple[tuple[int, bool], ...],
              witness: Vec) -> FacetKey:
        """The facet with the given key, one (floor, on-wall) pair per
        positive root in `positive_indices` order, and witness; the
        vanishing set holds both signs of each wall through it."""
        vanishing = []
        for p, (fl, on_wall) in zip(rs.positive_indices, key):
            if on_wall:
                vanishing.append(AffineRoot(p, fl))
                vanishing.append(AffineRoot(rs.negation[p], -fl))
        return cls(key, tuple(vanishing), witness)

    def closure_contains(self, d: int, values: tuple[int, ...]) -> bool:
        """Whether a point lies in the closure of this facet, given the
        positive roots' values at it as integer numerators over d (see
        `root_values`).  Per positive root with value t at the witness
        and u at the point: if t is on a wall then u must equal t;
        otherwise u must be in the closed interval [floor(t),
        floor(t)+1]."""
        for (fl, on_wall), u in zip(self.key, values):
            lo = fl * d
            if on_wall:
                if u != lo:
                    return False
            elif not lo <= u <= lo + d:
                return False
        return True


def root_values(rs: RootSystem, x: Vec) -> tuple[int, tuple[int, ...]]:
    """(d, values): the positive roots at x, as integer numerators over the
    denominator d of x, in `positive_indices` order."""
    d, (num,) = ratmat.over_common_denominator((x,), rs.dim)
    return d, tuple(ratmat.int_dot(rs.grads[p], num)
                    for p in rs.positive_indices)


def facet_of(rs: RootSystem, x: Vec) -> FacetKey:
    d, values = root_values(rs, x)
    key = tuple((fl, not rem) for fl, rem in (divmod(t, d) for t in values))
    return FacetKey.build(rs, key, tuple(x))


def verify_ver_isomorphism(rs: RootSystem) -> bool:
    """Faces biject with nonempty vertex subsets, compatibly with arrows."""
    cat = faces_of_alcove(rs)
    verts = alcove_vertices(rs)
    vert_sets = {}
    for i, f in enumerate(cat.faces):
        vs = frozenset(verts.index(v) for v in f.vertices)
        if not vs or vs in vert_sets.values():
            return False
        vert_sets[i] = vs
    if len(vert_sets) != (1 << len(verts)) - 1:
        return False
    arrow_set = set(cat.arrows)
    for i in range(len(cat.faces)):
        for j in range(len(cat.faces)):
            geometric = vert_sets[i] <= vert_sets[j]
            if ((i, j) in arrow_set) != geometric:
                return False
    # arrows must also agree with the witness/sign closure test
    keys = [facet_of(rs, f.witness) for f in cat.faces]
    values = [root_values(rs, f.witness) for f in cat.faces]
    for i, vi in enumerate(values):
        for j, kj in enumerate(keys):
            if ((i, j) in arrow_set) != kj.closure_contains(*vi):
                return False
    return True
