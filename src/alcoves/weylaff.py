"""The affine Weyl group: affine actions, stabilizers, stars, reduction.

Elements are pairs (finite Weyl part, coweight translation) acting by
x -> w(x) + t; the finite part is a `WeylElement`, whose matrices are
integral.  Stabilizers and centralizers come from two tests on integer
numerators over one denominator, `int_root_scan` over the roots and
`int_weyl_test` over the finite Weyl group, which returns the indices of
the elements it keeps; `int_weyl_translations` forms their translations
y - w0(x), and `int_weyl_scan` composes the two into Weyl elements and
Fraction translations.  They take numerators only: each caller, here,
in `parabolic` and in `centralizer`, writes its points over one
denominator once and passes that.  Star regions are
exact finite enumerations at a vertex, and a chart overlap is the one
double coset W_{J2} W_{J1} of two face stabilizers, read off their
translations without forming a product.

The kernels write their points once as integer numerators over one
common denominator, Weyl elements act by integer matrices, and Fractions
are built only for the values returned; each kernel's docstring states
its bound (the int64 bounds of `int_root_scan` and `int_weyl_test`, past
which they run on Python ints, and the step cap of
`reduce_to_alcove`).  `point_reflection_subgroup` lists the reflection
group of a point with `rootdata.reflection_group`, the enumerator of W,
from one linear reflection per wall through the point.  `int_root_scan`,
`reduce_to_alcove`, `compose` and `invert` list no W: a Weyl element is
its matrix, its word given by `rootdata.weyl_element`.  The alcove's
walls with their affine Cartan matrix, on which the walk runs, its
barycenter and the walk's step cap are built once per root system, the
reflection group of a point once per (root system, point), and the
facets at a vertex once per vertex group.
A face's stabilizer W_J and the facet witnesses of its star are built
once per (root system, face): each of the two caches holds at most
2^(ell+1) - 1 entries per root system, one per face of the alcove.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from . import ratmat, rootdata
from .alcove import (
    AffineRoot,
    Face,
    FacetKey,
    alcove_vertices,
    faces_of_alcove,
    facet_of,
    fundamental_alcove,
    root_values,
)
from .ratmat import Vec
from .rootdata import (
    RootSystem,
    WeylElement,
    reflection_group,
    times_word,
    weyl_element,
    weyl_group,
    weyl_stack,
)

_CLOSURE_GUARD = 20000


@dataclass(frozen=True)
class AffineWeylElement:
    finite_part: WeylElement
    translation: Vec

    def apply(self, x: Vec) -> Vec:
        return ratmat.add(self.finite_part.apply(x), self.translation)

    def is_identity(self) -> bool:
        return self.finite_part.is_identity() and not any(self.translation)


@lru_cache(maxsize=None)
def weyl_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The finite Weyl group in `weyl_group` order, identity first; cached
    per root system."""
    return tuple(weyl_group(rs))


def identity_element(rs: RootSystem) -> AffineWeylElement:
    """The identity; up to `rootdata.WEYL_RANK_GUARD` it is the first of
    `weyl_elements`, so W is listed and cached here for the W scans."""
    one = (weyl_elements(rs)[0] if rs.rank <= rootdata.WEYL_RANK_GUARD
           else WeylElement(ratmat.int_identity(rs.dim), ()))
    return AffineWeylElement(one, ratmat.zeros(rs.dim))


def compose(rs: RootSystem, a: AffineWeylElement,
            b: AffineWeylElement) -> AffineWeylElement:
    """ab, x -> a(b(x)), on the translations' integer numerators over
    one denominator."""
    d, (ta, tb) = ratmat.over_common_denominator(
        (a.translation, b.translation), rs.dim)
    m, t = _pair_product((a.finite_part.matrix, ta),
                         (b.finite_part.matrix, tb))
    return AffineWeylElement(weyl_element(rs, m),
                             tuple(Fraction(c, d) for c in t))


def invert(rs: RootSystem, a: AffineWeylElement) -> AffineWeylElement:
    # w^-1 = s_j1 ... s_jm for the word (j1, ..., jm) of w
    w = weyl_element(rs, times_word(rs, ratmat.int_identity(rs.dim),
                                    a.finite_part.word))
    return AffineWeylElement(w, ratmat.scale(-1, w.apply(a.translation)))


def _reflection_matrix(rs: RootSystem, idx: int) -> tuple:
    """s_alpha on t, x -> x - alpha(x) alpha-check, as an integer matrix."""
    g, c = rs.grads[idx], rs.coroots[idx]
    return tuple(tuple(int(r == k) - c[r] * g[k] for k in range(rs.dim))
                 for r in range(rs.dim))


@dataclass(frozen=True)
class FiniteSubgroup:
    elements: tuple[AffineWeylElement, ...]

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashed once: the vertex groups are cache keys of the star data
        return hash(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return self._element_set

    @cached_property
    def _element_set(self) -> frozenset:
        # built once per group: the face stabilizers are cached and tested
        # for membership on every call
        return frozenset(self.elements)


@lru_cache(maxsize=None)
def _walk_data(rs: RootSystem) -> tuple[int, int, tuple, tuple, tuple]:
    """(e, cap, walls, sparse, near) for `reduce_to_alcove`: cap is the
    step cap, the sum over the positive roots of the absolute entries of
    their gradients.  For each wall (alpha, n) of the alcove, in wall
    order, walls holds (g, n, g . bary), g its gradient and bary / e the
    barycenter; sparse the nonzero entries (k, g_k) of g and (k, c_k) of
    its coroot c; near its column of the affine Cartan matrix, the
    (i, <g_i, c>) that are not 0, its own 2 among them."""
    verts = alcove_vertices(rs)
    e, nums = ratmat.over_common_denominator(verts, rs.dim)
    bary = tuple(map(sum, zip(*nums)))
    cap = sum(sum(map(abs, rs.grads[p])) for p in rs.positive_indices)
    walls = [(rs.grads[w.root_index], w.level, rs.coroots[w.root_index])
             for w in fundamental_alcove(rs)]

    def entries(v):
        return tuple((k, a) for k, a in enumerate(v) if a)

    return (e * len(verts), cap,
            tuple((g, n, ratmat.int_dot(g, bary)) for g, n, _ in walls),
            tuple((entries(g), entries(c)) for g, _, c in walls),
            tuple(entries([ratmat.int_dot(g, c) for g, _, _ in walls])
                  for _, _, c in walls))


def reduce_to_alcove(rs: RootSystem, x: Vec) -> tuple[AffineWeylElement, Vec]:
    """(w, xr): the element w of W_aff = W x Q-check with xr = w(x) in the
    closed fundamental alcove C, chosen on C's side of every hyperplane
    through x.

    Uniqueness (Bourbaki, Lie VI §2; Humphreys, Reflection Groups and
    Coxeter Groups, ch. 4).  Let b be the barycenter of C and
    x' = x + eps (b - x) for a small eps > 0.  A hyperplane through x
    takes at x' the sign it takes at b, and the others keep their sign
    at x, so x' lies in one open alcove D: the alcove whose closure
    holds x and which lies on C's side of every hyperplane through x.
    W_aff acts simply transitively on alcoves, so exactly one w maps D
    to C, and it is the w returned.  Reflecting x, from C, in the first
    wall it lies strictly beyond never crosses a hyperplane through x,
    so that walk ends at D too: the outputs are those of the plain
    wall-order walk.

    The walk.  Ambient coordinates are simple-coroot coordinates, so
    lam = floor(x), taken entrywise, lies in Q-check, and the walk starts
    from x - lam, in [0, 1)^ell.  It walks x' - lam, which reaches C from
    any start: it reflects the point, and beside it delta = b - x by the
    linear part only, each time in the first wall (in wall order) that
    x' lies beyond, where the wall's value v at the point is negative,
    or v = 0 and u = g . delta < 0, g its gradient.  Each step lowers by
    one the number of hyperplanes that separate the point from C.  On
    [0, 1)^ell a positive root takes values in [-N, P), N and P the sums
    of |g_k| over the negative and the positive entries g_k of its
    gradient, so at most N + P of its hyperplanes separate x' - lam from
    C.  The walk therefore takes at most the cap of `_walk_data`, a bound
    per root system that does not depend on |x|, and raises RuntimeError
    past it.

    The walk keeps only the ell + 1 wall values v_i and u_i, on integer
    numerators over the denominator d of x (delta over d e, b = bary / e),
    as in the "numbers game" (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, §4.3).  Reflecting in wall j, coroot c_j, takes v_i to
    v_i - v_j <g_i, c_j> and u_i to u_i - u_j <g_i, c_j> for the i in
    column j of the affine Cartan matrix: the values the walk on the
    point computes, so each step takes the same wall by the same test, in
    the same order, under the same cap.  The point, the start less the
    steps' v_j c_j, and the finite part w0 of w, the steps' I - c g^T
    multiplied in from the right in reverse order on the nonzero entries
    of g and c, are formed once at the end; w's translation is xr - w0(x).
    """
    e, cap, walls, sparse, near = _walk_data(rs)
    d, (num,) = ratmat.over_common_denominator((x,), rs.dim)
    cur = [c % d for c in num]
    v = [ratmat.int_dot(g, cur) - n * d for g, n, _ in walls]
    u = [gb * d - ratmat.int_dot(g, num) * e for g, _, gb in walls]
    steps = []
    for _ in range(cap + 1):
        for j, column in enumerate(near):
            if (vj := v[j]) < 0 or not vj and u[j] < 0:
                break
        else:
            break
        uj = u[j]
        for i, a in column:
            v[i] -= vj * a
            u[i] -= uj * a
        steps.append((j, vj))
    else:
        raise RuntimeError("alcove reduction exceeded its step cap (bug)")
    m = [list(row) for row in ratmat.int_identity(rs.dim)]
    for j, vj in reversed(steps):
        g, c = sparse[j]
        for k, a in c:
            cur[k] -= vj * a
        for row in m:
            mc = 0
            for k, a in c:
                mc += row[k] * a
            if mc:
                for k, a in g:
                    row[k] -= mc * a
    m = tuple(map(tuple, m))
    t = (a - b for a, b in zip(cur, ratmat.int_matvec(m, num)))
    return (AffineWeylElement(weyl_element(rs, m),
                              tuple(Fraction(c, d) for c in t)),
            tuple(Fraction(c, d) for c in cur))


def int_root_scan(rs: RootSystem, d: int, fixed: tuple, points: tuple
                  ) -> list[tuple[int, tuple[int, ...]]]:
    """The roots that vanish at every `fixed` point and take integer values
    at every one of `points`, all integer numerators over d, in root-index
    order, each as (root index, its values at `points`).  One product of
    the points with the gradient array of `_grad_arrays` gives d times
    every root value v, and (v // d) d = v, exact on int64 as in
    `int_weyl_test`, tests integrality.  With X the largest |numerator|
    and G the largest |entry| of a gradient, every product entry is at
    most n G X, n = dim: the arrays are int64 when n G X < 2^63 and
    d < 2^63, else dtype object (Python ints)."""
    nf, pts = len(fixed), (*fixed, *points)
    dtype = _scan_dtype(rs, d, pts, roots=True)
    # (points, roots): row k holds d times every root value at point k
    grads = _grad_arrays(rs)[1 if dtype is object else 0]
    vals = _rows(pts, rs.dim, dtype) @ grads
    q = vals // d
    ok = (q * d == vals).all(axis=0)  # 0 at a fixed point is 0 mod d
    if nf:
        ok &= ~vals[:nf].any(axis=0)
    idx = ok.nonzero()[0]
    return list(zip(idx.tolist(), map(tuple, q[nf:, idx].T.tolist())))


def _rows(nums, n: int, dtype: type) -> np.ndarray:
    """The integer points `nums` as the rows of a (len(nums), n) array in
    `dtype`."""
    return np.array(nums, dtype=dtype).reshape(len(nums), n)


@lru_cache(maxsize=None)
def _grad_arrays(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, int]:
    """(grads, grads_object, x_limit), built once per root system: the
    root gradients as the columns of a read-only (dim, |Phi|) int64
    array, in root-index order, the same in dtype object, and the largest
    |numerator| X with n G X < 2^63, n = dim and G the largest |entry| of
    a gradient.  No W is listed."""
    g = np.array(rs.grads, dtype=np.int64).T
    out = (g, g.astype(object))
    for a in out:
        a.flags.writeable = False
    return (*out, (2 ** 63 - 1) // (rs.dim * int(abs(g).max())))


@lru_cache(maxsize=None)
def _weyl_stack(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, int]:
    """(stack, cinv, x_limit), built once per root system: the read-only
    (|W|, dim, dim) int64 stack of `rootdata.weyl_stack`, in
    `weyl_elements` order; `coweight_inv_num` as a read-only int64 array;
    and the largest |numerator| X with n K (n A + 1) X < 2^63, where
    n = dim, A is the largest |entry| of the stack and K that of
    `coweight_inv_num`."""
    stack = weyl_stack(rs)
    cinv = np.array(rs.coweight_inv_num, dtype=np.int64)
    cinv.flags.writeable = False
    n = rs.dim
    bound = n * int(abs(cinv).max()) * (n * int(abs(stack).max()) + 1)
    return stack, cinv, (2 ** 63 - 1) // bound


@lru_cache(maxsize=None)
def _scan_arrays(rs: RootSystem, dtype: type) -> tuple[np.ndarray, ...]:
    """`_weyl_stack`'s stack and cinv, and the stack dw of the C (w - 1),
    C = cinv, with W along its last axis: dw[k, j, i] is entry (k, j) of
    C (w - 1) for the i-th element of `weyl_elements`; in `dtype`,
    read-only."""
    stack, cinv, _ = _weyl_stack(rs)
    dw = np.matmul(cinv, stack)
    dw -= cinv
    out = (stack.astype(dtype, copy=False), cinv.astype(dtype, copy=False),
           np.ascontiguousarray(dw.transpose(1, 2, 0), dtype=dtype))
    for a in out:
        a.flags.writeable = False
    return out


def _scan_dtype(rs: RootSystem, d: int, nums, roots: bool = False) -> type:
    """np.int64 when the numerators `nums` over d are within the int64
    bound of the product they feed, object otherwise.  The W test of
    `int_weyl_test` needs |numerators| within the limit of `_weyl_stack`
    and d * coweight_inv_den < 2^63, and `int_weyl_translations` is held
    to the same; the root test of `int_root_scan`
    (`roots`) needs them within the limit of `_grad_arrays` and
    d < 2^63."""
    x_max = max(map(abs, chain.from_iterable(nums)), default=0)
    if roots:
        limit, m = _grad_arrays(rs)[2], d
    else:
        limit, m = _weyl_stack(rs)[2], d * rs.coweight_inv_den
    return np.int64 if x_max <= limit and m < 2 ** 63 else object


def int_weyl_test(rs: RootSystem, d: int, fixed: tuple, pairs: tuple,
                  lattice: tuple = ()) -> np.ndarray:
    """The indices into `weyl_elements`, ascending, of each w0 in W that
    fixes every `fixed` point and makes y - w0(x) a coweight for every
    (x, y) in `pairs` and x - w0(x) one for every x in `lattice`, all
    integer numerators over d.

    C = coweight_inv_num is invertible, so w0 fixes x iff
    C (w0 - 1) x = 0, and y - w0 x is a coweight iff m = d *
    coweight_inv_den divides C w0 x - C y = C (w0 - 1) x - C (y - x).  The
    points are tested one at a time, the fixed points (exact), then the
    pairs, then the `lattice` points: each is one product of its row with
    the stack of the C (w - 1) of `_scan_arrays`, all of W for the first
    and the elements still kept after that, and the test stops when none
    is left.  C (y - x) is formed only when y != x.  A test with
    x = y = 0 holds for every w0 and is left out.

    The int64 bound: with X the largest |numerator|, n = dim and A, K the
    largest |entries| of the Weyl matrices and of C, |C (w0 - 1) x| and
    |C w0 x - C y| are at most n K (n A + 1) X, and |C (y - x)| at most
    2 n K X, no more: the arrays are int64 when n K (n A + 1) X < 2^63
    (the limit of `_weyl_stack`) and m < 2^63, else dtype object (Python
    ints).  m divides v iff (v // m) m = v, and that test needs no more:
    v // m is exact, and the product, wrapped mod 2^64, is v - r mod 2^64,
    r the true remainder, in [0, m), so it equals v iff r = 0."""
    # (x, y, exact) of each test: the fixed points, then the pairs, then
    # the lattice points
    tests = [(x, y, exact) for x, y, exact in chain(
        ((x, x, True) for x in fixed), ((x, y, False) for x, y in pairs),
        ((x, x, False) for x in lattice)) if any(x) or any(y)]
    dtype = _scan_dtype(rs, d, chain.from_iterable(t[:2] for t in tests))
    _, cinv, dw = _scan_arrays(rs, dtype)
    m = d * rs.coweight_inv_den
    rows = np.arange(dw.shape[2])
    for k, (x, y, exact) in enumerate(tests):
        # C (w0 - 1) x, then C w0 x - C y, as an (n, len(rows)) array
        row = np.array(x, dtype=dtype)
        res = row @ (dw.take(rows, axis=2) if k else dw)
        if y != x:
            res -= (cinv @ (np.array(y, dtype=dtype) - row))[:, None]
        rows = rows[(res == (0 if exact else res // m * m)).all(axis=0)]
        if not len(rows):
            break
    return rows


def int_weyl_translations(rs: RootSystem, d: int, rows: np.ndarray,
                          pairs: tuple) -> np.ndarray:
    """y - w0(x) for the elements w0 of `weyl_elements` at `rows` and each
    (x, y) in `pairs`, integer numerators over d: a (len(rows),
    len(pairs), dim) array, int64 within the bound of `int_weyl_test`
    (|y - w0 x| is at most (n A + 1) X), else dtype object."""
    pts = tuple(chain.from_iterable(pairs))  # x, y of each pair in turn
    dtype = _scan_dtype(rs, d, pts)
    xy = _rows(pts, rs.dim, dtype)
    stack = _scan_arrays(rs, dtype)[0][rows]
    return xy[1::2] - xy[::2] @ stack.transpose(0, 2, 1)


def int_weyl_scan(rs: RootSystem, d: int, fixed: tuple, pairs: tuple,
                  lattice: tuple = ()
                  ) -> list[tuple[WeylElement, tuple[Vec, ...]]]:
    """The elements that `int_weyl_test` keeps, in `weyl_elements` order,
    each as (w0, its translations y - w0(x) in the order of `pairs`) from
    `int_weyl_translations`.  Each distinct numerator of a translation
    becomes a Fraction once, memoized per scan over its d."""
    rows = int_weyl_test(rs, d, fixed, pairs, lattice)
    lam = int_weyl_translations(rs, d, rows, pairs)
    frac = {c: Fraction(c, d) for c in set(lam.ravel().tolist())}.__getitem__
    elements = weyl_elements(rs)
    return [(elements[i], tuple(tuple(map(frac, t)) for t in ts))
            for i, ts in zip(rows.tolist(), lam.tolist())]


def vanishing_affine_roots(rs: RootSystem, points: tuple[Vec, ...]
                           ) -> list[AffineRoot]:
    """Affine roots vanishing at every point of the given finite set."""
    d, (p0, *rest) = ratmat.over_common_denominator(tuple(points), rs.dim)
    diffs = tuple(tuple(a - b for a, b in zip(p, p0)) for p in rest)
    return [AffineRoot(idx, vals[0])
            for idx, vals in int_root_scan(rs, d, diffs, (p0,))]


def stabilizer_of_point(rs: RootSystem, x: Vec) -> FiniteSubgroup:
    """All (w0, lam) in W x X_* fixing x, by solving lam = x - w0(x);
    x is written over its denominator once and scanned as one column."""
    d, (num,) = ratmat.over_common_denominator((x,), rs.dim)
    return FiniteSubgroup(tuple(
        AffineWeylElement(w0, lam)
        for w0, (lam,) in int_weyl_scan(rs, d, (), ((num, num),))
    ))


def stabilizer_of_face(rs: RootSystem, j: Face) -> FiniteSubgroup:
    """The stabilizer of the face, which for simply-connected groups is
    generated by the reflections in the walls containing it (Steinberg)."""
    if rs.cartan_type.isogeny != "sc":
        raise ValueError("face stabilizers require simply-connected isogeny")
    # a plain function in front of the cache, so tracing sees each call
    # and a refusal is raised on every call
    return _face_stabilizer(rs, j)


@lru_cache(maxsize=None)
def _face_stabilizer(rs: RootSystem, j: Face) -> FiniteSubgroup:
    """W_J, the W scan at the witness of J, once per (root system, face)."""
    return stabilizer_of_point(rs, j.witness)


def _pair_product(x: tuple, y: tuple) -> tuple:
    """The product xy of integer (matrix, translation) pairs: x(y(p))."""
    return (ratmat.int_matmul(x[0], y[0]),
            tuple(a + b for a, b in zip(ratmat.int_matvec(x[0], y[1]), x[1])))


def point_reflection_subgroup(rs: RootSystem, x: Vec) -> FiniteSubgroup:
    """Group generated by reflections in all walls through the point x,
    listed breadth-first from the identity, one generator per wall in
    root order; built once per (root system, point)."""
    # a plain function in front of the cache, so tracing sees each call
    return _point_reflection_subgroup(rs, tuple(x))


@lru_cache(maxsize=None)
def _point_reflection_subgroup(rs: RootSystem, x: Vec) -> FiniteSubgroup:
    """The reflection in a wall (alpha, n) through x has linear part
    s_alpha, and (alpha, n) and (-alpha, -n) give the same one, which
    enters once, at its first root.  Every element (m, t) fixes x, so
    t = x - m x, and m -> (m, t) is one to one: `reflection_group` lists
    the linear parts, under `_CLOSURE_GUARD`, and each translation is
    taken on the Python-int numerators of x, which may be of any size."""
    d, (num,) = ratmat.over_common_denominator((x,), rs.dim)
    gens = dict.fromkeys(_reflection_matrix(rs, idx)
                         for idx, _ in int_root_scan(rs, d, (), (num,)))
    stack, _ = reflection_group(
        np.array(list(gens), dtype=np.int64).reshape(-1, rs.dim, rs.dim),
        _CLOSURE_GUARD)
    return FiniteSubgroup(tuple(
        AffineWeylElement(weyl_element(rs, m), tuple(
            Fraction(a - b, d) for a, b in zip(num, ratmat.int_matvec(m, num))))
        for m in (tuple(map(tuple, m)) for m in stack.tolist())))


def star_contains(rs: RootSystem, j: Face, x: Vec) -> bool:
    """Whether x lies in St_J: the face J is in the closure of facet(x)."""
    return facet_of(rs, tuple(x)).closure_contains(*_witness_values(rs, j))


@lru_cache(maxsize=None)
def _witness_values(rs: RootSystem, j: Face) -> tuple[int, tuple[int, ...]]:
    """`root_values` of the witness of J, read once per face; a face is
    keyed on its walls, which fix its witness (`alcove.make_face`)."""
    return root_values(rs, j.witness)


def open_embedding_counterexample(rs: RootSystem, j: Face,
                                  samples: list[tuple[Vec, Vec]]):
    """Search for w in W_aff mapping one St_J sample to another with
    w outside W_J.  Returns the violating (x, y, w) or None."""
    wj = stabilizer_of_face(rs, j).element_set()
    for x, y in samples:
        if not (star_contains(rs, j, x) and star_contains(rs, j, y)):
            raise ValueError("sample pair not inside the star of the face")
        d, pair = ratmat.over_common_denominator((x, y), rs.dim)
        for w0, (lam,) in int_weyl_scan(rs, d, (), (pair,)):
            w = AffineWeylElement(w0, lam)
            if w not in wj:
                return (x, y, w)
    return None


def _facets_at_vertex(rs: RootSystem, v: Vec) -> tuple[FacetKey, ...]:
    """The facets at the vertex v, built once per vertex group."""
    # a plain function in front of the cache: the vertex group is asked
    # for on every call, so tracing sees each time a star reaches here
    return _vertex_star(rs, point_reflection_subgroup(rs, v))


@lru_cache(maxsize=None)
def _vertex_star(rs: RootSystem, group: FiniteSubgroup
                 ) -> tuple[FacetKey, ...]:
    """The facets at a vertex v, given the reflection group of v, one
    `FacetKey` per facet whose closure contains v, in order of first
    appearance.

    These facets are the faces of the alcoves at v, the images of C under
    the group, whose translations are integral.  The face witnesses are
    written over one denominator d, so each image is an integer
    matrix-vector product; a facet is keyed on the integer (floor,
    on-wall) values of the positive roots, and its `FacetKey` is built
    from that key, with the Fraction witness of its first point."""
    d, wits = ratmat.over_common_denominator(
        tuple(f.witness for f in faces_of_alcove(rs).faces), rs.dim)
    pos = [rs.grads[p] for p in rs.positive_indices]
    first: dict = {}
    for u in group.elements:
        m = u.finite_part.matrix
        dt = tuple(d * int(c) for c in u.translation)
        for w in wits:
            p = tuple(a + b for a, b in zip(ratmat.int_matvec(m, w), dt))
            key = []
            for g in pos:
                fl, rem = divmod(ratmat.int_dot(g, p), d)
                key.append((fl, not rem))
            first.setdefault(tuple(key), p)
    return tuple(FacetKey.build(rs, key, tuple(Fraction(c, d) for c in p))
                 for key, p in first.items())


def star_facet_witnesses(rs: RootSystem, j: Face) -> list[Vec]:
    """One witness per facet of St_J, by exact finite enumeration: St_J
    lies in the star of any vertex of J, and star membership is a property
    of the facet: J's witness lies in the facet's closure.  Built once per
    (root system, face); each call returns a new list."""
    return list(_star_witnesses(rs, j))


@lru_cache(maxsize=None)
def _star_witnesses(rs: RootSystem, j: Face) -> tuple[Vec, ...]:
    d, u = _witness_values(rs, j)
    return tuple(k.witness for k in _facets_at_vertex(rs, j.vertices[0])
                 if k.closure_contains(d, u))


def verify_star_intersection(rs: RootSystem, j: Face) -> bool:
    """St_J equals the intersection of the stars of its vertices,
    checked on every facet of the union of the vertex stars.  The witness
    of a vertex face is the vertex itself."""
    star = _witness_values(rs, j)
    vertex_stars = [root_values(rs, v) for v in j.vertices]
    candidates = dict.fromkeys(
        k for v in j.vertices for k in _facets_at_vertex(rs, v))
    for k in candidates:
        in_star = k.closure_contains(*star)
        in_all = all(k.closure_contains(*s) for s in vertex_stars)
        if in_star != in_all:
            return False
    return True


def verify_cover(rs: RootSystem, samples: list[Vec]) -> bool:
    """Every point reduces into some vertex star of the alcove."""
    vfaces = [f for f in faces_of_alcove(rs).faces if len(f.vertices) == 1]
    for x in samples:
        w, xr = reduce_to_alcove(rs, x)
        if w.apply(tuple(x)) != xr:
            return False
        if not any(star_contains(rs, vf, xr) for vf in vfaces):
            return False
    return True


def _int_pair(e: AffineWeylElement, den: int) -> tuple:
    """e as an integer (matrix, translation numerators over den) pair."""
    return (e.finite_part.matrix,
            tuple(c.numerator * (den // c.denominator) for c in e.translation))


def chart_overlap(rs: RootSystem, j1: Face, j2: Face
                  ) -> list[tuple[AffineWeylElement, FiniteSubgroup]]:
    """Double cosets W_{J2} \\ {w : w(St_{J1}) meets St_{J2}} / W_{J1},
    with the pair stabilizer W_{w(J1)} cap W_{J2} for each representative.

    For simply-connected G, W_aff = W x Q-check acts simply transitively
    on alcoves, and the alcoves of St_J are W_J C (Bourbaki, Lie VI §2;
    Humphreys, Reflection Groups and Coxeter Groups, ch. 4).  St_{J2} is
    open and a union of facets, so w(St_{J1}) meets it iff w(a C) = b C
    for some a in W_{J1} and b in W_{J2}, that is w = b a^-1: the set is
    the one double coset W_{J2} W_{J1}.  Its representative is its first
    element in `weyl_elements` order, ties broken by the coweight
    coordinates of the translation in ascending lexicographic order.

    The coset holds 1 = 1 * 1, and 1 is the first element of
    `weyl_elements`, so the representative is a translation t_lam.  The
    product b a has finite part 1 iff b and a^-1 have the same finite
    part, and a -> a^-1 maps W_{J1} onto itself, so the translations of
    the coset are the t_b - t_a for a in W_{J1} and b in W_{J2} with the
    same finite part.  A point stabilizer holds each finite part at most
    once, so they are matched on it, with no product formed: the cost is
    O(|W_{J1}| + |W_{J2}|).  The translations and the pair stabilizer
    are formed on integer numerators; Fractions are built only for the
    values returned."""
    w1 = stabilizer_of_face(rs, j1)
    w2 = stabilizer_of_face(rs, j2)
    bd = rs.coweight_den
    g1 = [_int_pair(a, bd) for a in w1.elements]
    by_pair2 = {_int_pair(b, bd): b for b in w2.elements}
    t2 = {m: t for m, t in by_pair2}
    lam = min((tuple(b - a for b, a in zip(t2[m], t)) for m, t in g1
               if m in t2),
              key=lambda t: ratmat.int_matvec(rs.coweight_inv_num, t))
    # the pair stabilizer: t_lam a t_-lam = (m, lam + t - m lam) for
    # a = (m, t) in W_J1, within W_J2
    pair = []
    for m, t in g1:
        c = (m, tuple(x + y - z for x, y, z in
                      zip(lam, t, ratmat.int_matvec(m, lam))))
        if c in by_pair2:
            pair.append(by_pair2[c])
    pair.sort(key=lambda el: (el.finite_part.word, el.translation))
    rep = AffineWeylElement(identity_element(rs).finite_part,
                            tuple(Fraction(c, bd) for c in lam))
    return [(rep, FiniteSubgroup(tuple(pair)))]
