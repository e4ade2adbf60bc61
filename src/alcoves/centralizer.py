"""Combinatorics of loop-group, circle-gauge, and double-affine centralizers.

Torus points enter only through exponential coordinates (theta, a), both
rational, so every centralizer condition is exact: an affine root (alpha, n)
belongs to the centralizer data iff alpha(theta) is an integer and
alpha(a) = n.  The internal affine-root convention is alpha - n throughout;
the opposite-sign double-affine convention is converted at this module's
boundary and stored as written there.

Every centralizer is built by one kernel, `_centralizer`, which feeds
integer numerators over one denominator to the root test `int_root_scan`
and the W scan `int_weyl_pairs` of `weylaff`.  W_s is the
`FiniteSubgroup` of the elements that scan lists, on integers.  The
subsystem type is read from integer tables of the roots built once per
root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from operator import add

from . import ratmat
from .alcove import AffineRoot, Face
from .ratmat import Vec
from .rootdata import RootSystem, weyl_group
from .weylaff import (
    FiniteSubgroup,
    int_root_scan,
    int_weyl_pairs,
    int_weyl_test,
    int_weyl_translations,
    over_coweight_den,
    vanishing_affine_roots,
)


@dataclass(frozen=True)
class ExpPoint:
    """Exponential coordinates of a torus point.

    theta is given in the coweight-lattice basis with entries reduced
    mod 1; a is a point of t in ambient coordinates.
    """

    theta: Vec
    a: Vec


def exp_point(rs: RootSystem, theta, a) -> ExpPoint:
    th = tuple(Fraction(t.numerator % t.denominator, t.denominator)
               for t in map(Fraction, theta))
    av = ratmat.vec(a)
    for name, v in (("theta", th), ("a", av)):
        if len(v) != rs.dim:
            raise ValueError(
                f"{name}: expected dimension {rs.dim}, got {len(v)}")
    return ExpPoint(th, av)


@dataclass(frozen=True)
class GaugePoint:
    """A = a_re + i a_im in t, both parts rational vectors."""

    a_re: Vec
    a_im: Vec


@dataclass(frozen=True)
class DoubleAffineRoot:
    """Evaluates at (A1, A2) as (root(A1) + n1, root(A2) + n2)."""

    n1: int
    n2: int
    root_index: int


@dataclass(frozen=True)
class CentralizerData:
    """phi, and W_s as the `FiniteSubgroup` of the W scan's elements, in
    `weyl_group` order; equality, the hash and `to_json` read
    integers.  Equality reads the root system through W_s."""

    phi: tuple[AffineRoot, ...]
    dim: int
    w: FiniteSubgroup
    w0_order: int  # |W_s°|, the Weyl group order of subsystem_type
    pi0_order: int
    connected: bool
    subsystem_type: str

    def to_json(self) -> dict:
        return {
            "phi": [[ar.root_index, ar.level] for ar in self.phi],
            "dim": self.dim,
            "w_order": self.w.order,
            "w0_order": self.w0_order,
            "pi0": self.pi0_order,
            "connected": self.connected,
            "subsystem_type": self.subsystem_type,
        }


# -- subsystem classification -------------------------------------------

@lru_cache(maxsize=None)
def _weyl_order(label: str) -> int:
    """Order of the Weyl group of one irreducible type such as "B3"; read
    once per label."""
    r = int(label[1:])
    return {"A": factorial(r + 1), "B": 2 ** r * factorial(r),
            "C": 2 ** r * factorial(r), "D": 2 ** (r - 1) * factorial(r),
            "E": {6: 51840, 7: 2903040, 8: 696729600}.get(r),
            "F": 1152, "G": 12}[label[0]]


def _classify_component(cmat: list[list[int]]) -> str:
    """The type of a connected Cartan matrix, read off its Dynkin diagram
    (Humphreys, Reflection Groups and Coxeter Groups, §2.4).  A bond
    i - j has cmat[i][j] cmat[j][i] lines; cmat[i][j] = -2 when alpha_i
    is the short end of a double bond.  A -3 bond is G2.  A double bond
    gives B_k when k = 2 or its short end is a leaf, C_k when its long end
    is, and F4 otherwise.  A simply-laced diagram is A_k without a branch
    node; with one, it is D_k when two of the branch's arms are single
    nodes, and E_k otherwise.  So C2 reads as B2 and D3 as A3."""
    k = len(cmat)
    nbrs = [[j for j in range(k) if j != i and cmat[i][j]] for i in range(k)]
    if any(-3 in row for row in cmat):
        return "G2"
    double = [(i, j) for i in range(k) for j in nbrs[i] if cmat[i][j] == -2]
    if double:
        short, long_ = double[0]
        if k == 2 or len(nbrs[short]) == 1:
            return f"B{k}"
        return f"C{k}" if len(nbrs[long_]) == 1 else "F4"
    branch = [i for i in range(k) if len(nbrs[i]) == 3]
    if not branch:
        return f"A{k}"
    leaves = sum(len(nbrs[j]) == 1 for j in nbrs[branch[0]])
    return f"D{k}" if leaves >= 2 else f"E{k}"


@lru_cache(maxsize=None)
def _root_tables(rs: RootSystem) -> tuple[tuple, ...]:
    """(positive, sums, pairing), built once per root system, with
    |Phi| = N and the roots in root-index order: positive[i] tells whether
    root i is positive; sums[i][j] is the index of root i + root j, or N
    when that is no root, found from the roots' integer coordinates and
    their index; pairing[i][j] = alpha_j(alpha_i-check) =
    2(alpha_i, alpha_j)/(alpha_i, alpha_i), the Cartan pairing.  Each
    table has at most N^2 entries."""
    coords = [tuple(map(int, r)) for r in rs.all_roots]
    index = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    return (tuple(sum(c) > 0 for c in coords),
            tuple(tuple(index.get(tuple(map(add, r, s)), n) for s in coords)
                  for r in coords),
            tuple(tuple(ratmat.int_dot(g, c) for g in rs.grads)
                  for c in rs.coroots))


def subsystem_type(rs: RootSystem, phi: tuple[AffineRoot, ...]) -> str:
    """Dynkin type of the root subsystem spanned by the linear parts, read
    from `_root_tables`: its simple roots are its positive roots that are
    no sum of two of them, and their Cartan matrix splits into connected
    Dynkin diagrams."""
    positive, sums, pairing = _root_tables(rs)
    pos = [ar.root_index for ar in phi if positive[ar.root_index]]
    sums_of_two = {sums[i][j] for i, j in combinations(pos, 2)}
    simples = [i for i in pos if i not in sums_of_two]
    if not simples:
        return "0"
    cmat = [[pairing[i][j] for j in simples] for i in simples]

    # split into connected components of the Dynkin graph
    labels = []
    remaining = set(range(len(simples)))
    while remaining:
        comp = []
        stack = [min(remaining)]
        remaining.discard(stack[0])
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in list(remaining):
                if cmat[i][j] != 0:
                    remaining.discard(j)
                    stack.append(j)
        comp.sort()
        sub = [[cmat[a][b] for b in comp] for a in comp]
        labels.append(_classify_component(sub))
    return "+".join(sorted(labels))


# -- centralizer computations --------------------------------------------


def _centralizer(rs: RootSystem, d: int, fixed: tuple, lattice: tuple,
                 a: tuple) -> CentralizerData:
    """The centralizer at a, all points integer numerators over d, a
    multiple of coweight_den: the roots vanishing at the `fixed` points
    and integral at a and at the `lattice` points, at level alpha(a), and
    the w0 in W fixing the `fixed` points and keeping a and the `lattice`
    points mod coweights, with their translations a - w0(a) over
    coweight_den."""
    phi = tuple(AffineRoot(idx, vals[-1])
                for idx, vals in int_root_scan(rs, d, fixed, (*lattice, a)))
    w = FiniteSubgroup(rs, int_weyl_pairs(rs, d, a, a, fixed, lattice))
    # W_s° is generated by the reflections in phi, which all fix one point,
    # so it is the Weyl group of the linear parts of phi
    typ = subsystem_type(rs, phi)
    w0_order = prod(_weyl_order(c) for c in typ.split("+") if c != "0")
    pi0, rem = divmod(w.order, w0_order)
    if rem:
        raise RuntimeError(f"|W_s°| = {w0_order} does not divide "
                           f"|W_s| = {w.order} (bug)")
    return CentralizerData(
        phi=phi, dim=rs.dim + len(phi), w=w, w0_order=w0_order,
        pi0_order=pi0, connected=pi0 == 1, subsystem_type=typ)


def centralizer_elliptic(rs: RootSystem, s: ExpPoint) -> CentralizerData:
    """Centralizer data at s = Exp(theta, a tau).  theta and a are written
    over one denominator e once, theta taken to ambient coordinates by the
    integer `coweight_num`, so both are numerators over e * coweight_den;
    W is tested at a on all of W and at theta on the elements a keeps."""
    e, (th, a) = ratmat.over_common_denominator((s.theta, s.a), rs.dim)
    theta = ratmat.int_matvec(rs.coweight_num, th)
    return _centralizer(rs, e * rs.coweight_den, (), (theta,),
                        tuple(rs.coweight_den * c for c in a))


def centralizer_face(rs: RootSystem, j: Face) -> CentralizerData:
    """Levi data of a face: the affine roots vanishing on the face; built
    once per (root system, face), at most 2^(ell+1) - 1 entries per root
    system."""
    if rs.cartan_type.isogeny != "sc":
        raise ValueError("face centralizers require simply-connected isogeny")
    # a plain function in front of the cache, so tracing sees each call
    # and a refusal is raised on every call
    return _face_centralizer(rs, j)


@lru_cache(maxsize=None)
def _face_centralizer(rs: RootSystem, j: Face) -> CentralizerData:
    """The centralizer at theta = 0, a = the witness of J, checked once
    against the affine roots vanishing at the vertices of J."""
    d, (a,) = over_coweight_den(rs, (j.witness,))
    data = _centralizer(rs, d, (), (), a)
    if set(data.phi) != set(vanishing_affine_roots(rs, j.vertices)):
        raise RuntimeError("roots at the face witness differ from the roots "
                           "vanishing on the face (bug)")
    return data


def gauge_centralizer_circle(rs: RootSystem, a: GaugePoint) -> CentralizerData:
    """Centralizer data of a constant gauge field A on the circle."""
    d, (im, re) = over_coweight_den(rs, (a.a_im, a.a_re))
    return _centralizer(rs, d, (im,), (), re)


@dataclass(frozen=True)
class DoubleCentralizerData:
    phi_b: tuple[DoubleAffineRoot, ...]
    w_b: tuple[tuple, ...]  # (finite part, lambda1, lambda2)
    proj1: CentralizerData
    proj2: CentralizerData
    cartesian: bool
    injective: bool


def double_affine_centralizer(rs: RootSystem, a1: Vec, a2: Vec
                              ) -> DoubleCentralizerData:
    """Centralizer data of a two-torus gauge field B = (A1, A2).

    Double-affine levels follow the plus convention: (n1, n2, alpha) is in
    phi_B iff alpha(A1) + n1 = 0 and alpha(A2) + n2 = 0.
    """
    d, (a1, a2) = over_coweight_den(rs, (ratmat.vec(a1), ratmat.vec(a2)))
    phi_b = [DoubleAffineRoot(-v1, -v2, idx)
             for idx, (v1, v2) in int_root_scan(rs, d, (), (a1, a2))]
    # W_B: the w0 keeping A1 and A2 mod coweights, with A1 - w0(A1) and
    # A2 - w0(A2) as Fractions
    pairs = ((a1, a1), (a2, a2))
    rows = int_weyl_test(rs, d, (), pairs)
    lams = int_weyl_translations(rs, d, rows, pairs).tolist()
    w_b = [(weyl_group(rs)[i], *(tuple(Fraction(c, d) for c in t)
                                 for t in ts))
           for i, ts in zip(rows.tolist(), lams)]

    # the circle centralizers at A1 and A2 (A_im = 0, which fixes nothing)
    proj1 = _centralizer(rs, d, (), (), a1)
    proj2 = _centralizer(rs, d, (), (), a2)

    # Cartesian: phi_B is exactly the fiber product of the two circle
    # centralizers over the finite root set, levels included; a circle
    # centralizer holds each root at one level, alpha(a)
    level2 = {ar.root_index: -ar.level for ar in proj2.phi}
    fiber = {(-ar.level, level2[ar.root_index], ar.root_index)
             for ar in proj1.phi if ar.root_index in level2}
    cartesian = fiber == {(d.n1, d.n2, d.root_index) for d in phi_b}

    # all comparison maps injective: phi_B into each projection, and the
    # group part into each circle group (it is determined by w0)
    img1 = [(d.root_index, -d.n1) for d in phi_b]
    img2 = [(d.root_index, -d.n2) for d in phi_b]
    inj_phi = len(set(img1)) == len(img1) and len(set(img2)) == len(img2)
    w0s = {w0 for w0, _, _ in w_b}
    inj_w = len(w0s) == len(w_b) and all(
        w0s <= {e.finite_part for e in p.w.elements} for p in (proj1, proj2))
    return DoubleCentralizerData(
        phi_b=tuple(phi_b),
        w_b=tuple(w_b),
        proj1=proj1,
        proj2=proj2,
        cartesian=cartesian,
        injective=inj_phi and inj_w,
    )


# -- type-A matrix shapes -------------------------------------------------


@dataclass(frozen=True)
class MatrixShape:
    n: int
    entries: tuple[tuple, ...]  # None or integer z-power per cell

    def to_json(self) -> list:
        return [list(row) for row in self.entries]

    def render(self) -> str:
        cells = []
        for row in self.entries:
            out = []
            for e in row:
                if e is None:
                    out.append(".")
                elif e == 0:
                    out.append("C")
                elif e == 1:
                    out.append("Cz")
                elif e == -1:
                    out.append("Cz^-1")
                else:
                    out.append(f"Cz^{e}")
            cells.append(out)
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.ljust(width) for c in row) + " ]"
            for row in cells
        )


def matrix_shape(rs: RootSystem, phi: tuple[AffineRoot, ...]) -> MatrixShape:
    """Loop-algebra picture of a type-A_{n-1} centralizer as an n x n
    grid."""
    if rs.cartan_type.family != "A":
        raise ValueError("matrix shapes are defined for type A only")
    n = rs.rank + 1
    cells = _shape_cells(rs)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = 0
    for ar in phi:
        i, j = cells[ar.root_index]
        grid[i][j] = ar.level
    return MatrixShape(n, tuple(tuple(r) for r in grid))


@lru_cache(maxsize=None)
def _shape_cells(rs: RootSystem) -> tuple[tuple[int, int], ...]:
    """The cell (i, j) of each root e_i - e_j of A_{n-1}, in root-index
    order, built once per root system.  A root with simple-root
    coordinates c is e_i - e_j with i the entry 1 and j the entry -1 of
    (c_1, c_2 - c_1, ..., c_ell - c_{ell-1}, -c_ell)."""
    out = []
    for c in rs.all_roots:
        ev = [c[0]] + [c[k] - c[k - 1] for k in range(1, rs.rank)] \
            + [-c[rs.rank - 1]]
        out.append((ev.index(1), ev.index(-1)))
    return tuple(out)
