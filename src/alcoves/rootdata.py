"""Finite root systems, coweight lattices and finite Weyl groups.

All data is exact: root coordinates are integers in the simple-root basis,
points of the (real) Cartan subalgebra t are Fraction vectors in the
simple-coroot basis (plus one central coordinate for the gl isogeny).  The
inner product on the root space is normalized so long roots have squared
length 2.

W preserves the coroot lattice, so every Weyl element is one integer
matrix on t, and `weyl_group` enumerates a whole breadth-first level at
once, as one int64 product of the simple reflections against the
frontier.  `weyl_element` finds the word of one matrix by descent,
without listing W.  `build_root_system` runs on Python ints (the
reflection closure, the highest root, the root gradients and the
coroots) and builds Fractions only for the public fields.  Each root
system carries integer tables built once (root gradients, coroots,
negation, the numerators of the coweight-coordinate map and its inverse),
so the kernels in `alcove` and `weylaff` work on integer numerators over
one common denominator and build Fractions only for their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import ratmat
from .ratmat import Mat, Vec

IntMat = tuple[tuple[int, ...], ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
ISOGENIES = ("sc", "adjoint", "gl")
WEYL_RANK_GUARD = 4  # `weyl_group` refuses higher ranks


class InvalidCartanType(ValueError):
    pass


class EnumerationGuard(RuntimeError):
    """Raised when a closure enumeration exceeds its configured bound."""


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int
    isogeny: str = "sc"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidCartanType(f"unknown family {self.family!r}")
        if self.isogeny not in ISOGENIES:
            raise InvalidCartanType(f"unknown isogeny {self.isogeny!r}")
        if self.isogeny == "gl" and self.family != "A":
            raise InvalidCartanType("isogeny 'gl' is only defined for family A")
        r = self.rank
        ok = {
            "A": r >= 1,
            "B": r >= 2,
            "C": r >= 2,
            "D": r >= 3,
            "E": 6 <= r <= 8,
            "F": r == 4,
            "G": r == 2,
        }[self.family]
        if not ok:
            raise InvalidCartanType(f"rank {r} invalid for family {self.family}")

    def label(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(family: str, rank: int) -> Mat:
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i-coroot>."""
    n = rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            c[n - 1][n - 2] = -2  # alpha_{n-1} short
        if family == "C" and n >= 2:
            c[n - 2][n - 1] = -2  # alpha_{n-1} long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_2, alpha_3 short
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -3, -1)  # alpha_0 short
    return ratmat.mat(c)


def _symmetrizer(c: Mat) -> Vec:
    """d with d_i c_ij = d_j c_ji, normalized so max(d) = 1."""
    n = len(c)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and c[i][j] != 0 and d[j] is None:
                d[j] = d[i] * c[i][j] / c[j][i]
                stack.append(j)
    if any(x is None for x in d):
        raise InvalidCartanType("disconnected Cartan matrix")
    m = max(d)
    return tuple(x / m for x in d)


@dataclass(frozen=True)
class WeylElement:
    """One Weyl group element: an integer matrix plus one reduced word.

    ``matrix`` acts on t (coroot-basis coordinates); W preserves the
    coroot lattice, so it is integral in this basis.  The word (j1, ...,
    jm) is s_jm ... s_j1, the first reduced word in lexicographic order.
    """

    matrix: IntMat
    word: tuple[int, ...]

    def apply(self, x: Vec) -> Vec:
        return ratmat.matvec(self.matrix, x)

    def is_identity(self) -> bool:
        return self.matrix == ratmat.int_identity(len(self.matrix))


@dataclass(frozen=True)
class RootSystem:
    """A root system with its coweight lattice.

    Besides the exact data it holds integer tables built once per root
    system: for root i, alpha_i(x) = grads[i] . x and its coroot is
    coroots[i], both in ambient t-coordinates; simple_grads[j] is
    grads[i] for the simple root alpha_j (column j of the Cartan matrix),
    kept by j for `weyl_element` and `times_word`; negation[i] is the index
    of -alpha_i; coweight_coords(x) = coweight_inv_num x / coweight_inv_den
    and from_coweight_coords(c) = coweight_num c / coweight_den.  The hash
    is that of the Cartan type, which determines everything else.
    """

    cartan_type: CartanType
    rank: int
    dim: int  # torus rank: rank, or rank + 1 for gl
    cartan: Mat
    simple_roots: tuple[Vec, ...]  # root-basis coords (standard basis)
    simple_coroots: tuple[Vec, ...]  # ambient t-coords
    all_roots: tuple[Vec, ...]
    positive_indices: tuple[int, ...]
    inner_product_matrix: Mat
    highest_root: Vec
    coweight_lattice_basis: tuple[Vec, ...]
    grads: tuple[tuple[int, ...], ...] = field(repr=False)
    coroots: tuple[tuple[int, ...], ...] = field(repr=False)
    simple_grads: IntMat = field(repr=False)
    negation: tuple[int, ...] = field(repr=False)
    coweight_inv_num: IntMat = field(repr=False)
    coweight_inv_den: int = field(repr=False)
    coweight_num: IntMat = field(repr=False)
    coweight_den: int = field(repr=False)
    _index: dict = field(repr=False)  # root coords -> index

    def __hash__(self):
        return hash(self.cartan_type)

    # -- pairings -----------------------------------------------------------

    def root_index(self, coords: Vec) -> int:
        try:
            return self._index[tuple(coords)]
        except KeyError:
            raise ValueError(f"{coords} is not a root") from None

    def negate_index(self, idx: int) -> int:
        return self.negation[idx]

    def eval_root(self, idx: int, x: Vec) -> Fraction:
        """alpha(x) for x in ambient t-coordinates."""
        return ratmat.dot(self.grads[idx], x)

    def coroot(self, idx: int) -> tuple[int, ...]:
        return self.coroots[idx]

    def coweight_coords(self, x: Vec) -> Vec:
        """Coordinates of x in the coweight-lattice basis."""
        d, (num,) = ratmat.over_common_denominator((x,), self.dim)
        m = d * self.coweight_inv_den
        return tuple(Fraction(ratmat.int_dot(row, num), m)
                     for row in self.coweight_inv_num)

    def from_coweight_coords(self, c: Vec) -> Vec:
        e, (num,) = ratmat.over_common_denominator((ratmat.vec(c),), self.dim)
        m = e * self.coweight_den
        return tuple(Fraction(ratmat.int_dot(row, num), m)
                     for row in self.coweight_num)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "cartan_type": {
                "family": self.cartan_type.family,
                "rank": self.cartan_type.rank,
                "isogeny": self.cartan_type.isogeny,
            },
            "simple_roots": [ratmat.vec_str(r) for r in self.simple_roots],
            "simple_coroots": [ratmat.vec_str(r) for r in self.simple_coroots],
            "all_roots": [ratmat.vec_str(r) for r in self.all_roots],
            "inner_product_matrix": [
                ratmat.vec_str(r) for r in self.inner_product_matrix
            ],
            "highest_root": ratmat.vec_str(self.highest_root),
            "coweight_lattice_basis": [
                ratmat.vec_str(r) for r in self.coweight_lattice_basis
            ],
        }


def _reflection_closure(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """The roots in root-basis coordinates, sorted: the closure of the
    simple roots under s_i(c) = c - <c, alpha_i-coroot> e_i."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for c in frontier:
            for i, pairing in enumerate(ratmat.int_matvec(cartan, c)):
                img = c[:i] + (c[i] - pairing,) + c[i + 1:]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


@lru_cache(maxsize=None)
def build_root_system(ct: CartanType) -> RootSystem:
    """Realize a root system in simple-root coordinates; built once per
    Cartan type.

    Roots are generated as the reflection closure of the simple roots; the
    inner product comes from the symmetrized Cartan matrix, scaled so long
    roots have squared length 2.  The roots, the highest root, the root
    gradients and the coroots are computed on Python ints; Fractions are
    built only for the public fields.
    """
    rank = ct.rank
    cartan = cartan_matrix(ct.family, rank)
    int_cartan = [[int(c) for c in row] for row in cartan]
    d = _symmetrizer(cartan)
    b = tuple(
        tuple(d[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    roots = _reflection_closure(int_cartan)
    positives = tuple(
        i for i, r in enumerate(roots) if next(c for c in r if c) > 0
    )
    # in an irreducible root system the highest root is the one positive
    # root of greatest height
    highest = max((roots[i] for i in positives), key=sum)

    dim = rank + 1 if ct.isogeny == "gl" else rank
    simple_roots = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(rank))
        for i in range(rank)
    )
    simple_coroots = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim))
        for i in range(rank)
    )

    # basis rows are the lattice generators, so x = basis^T c and the
    # coweight coordinates are c = (basis^T)^-1 x: I for sc, C^T for adjoint
    if ct.isogeny == "sc":
        basis = simple_coroots
        cw_num, cw_den = ratmat.int_identity(rank), 1
    elif ct.isogeny == "adjoint":
        basis = ratmat.inverse(cartan)  # rows are fundamental coweights
        cw_num, cw_den = tuple(zip(*int_cartan)), 1
    else:  # gl: basis e_1..e_n with e_i = central + traceless part
        n = rank + 1
        ct_mat = ratmat.transpose(cartan)
        rows = []
        for i in range(n):
            target = tuple(
                Fraction((1 if i == j else 0) - (1 if i == j + 1 else 0))
                for j in range(rank)
            )
            v = ratmat.solve(ct_mat, target)
            rows.append(tuple(v) + (Fraction(1),))
        basis = tuple(rows)
        cw_inv = ratmat.inverse(ratmat.transpose(basis))
        cw_den = lcm(*(c.denominator for row in cw_inv for c in row))
        cw_num = tuple(tuple(int(c * cw_den) for c in row) for row in cw_inv)

    # pad the root-space inner product with a unit central block
    ip = [list(row) + [Fraction(0)] * (dim - rank) for row in b]
    for k in range(rank, dim):
        ip.append([Fraction(0)] * dim)
        ip[k][k] = Fraction(1)

    grads = tuple(
        ratmat.int_matvec(int_cartan, r) + (0,) * (dim - rank) for r in roots
    )
    # alpha-check = sum_i r_i d_i alpha_i-check / (|alpha|^2 / 2), where
    # |alpha|^2 = sum_i r_i d_i g_i; with d = e / L, e integral, its
    # coefficients are 2 r_i e_i / sum_j r_j e_j g_j
    scale = lcm(*(x.denominator for x in d))
    e = [int(x * scale) for x in d]
    coroots = []
    for r, g in zip(roots, grads):
        num = [2 * ri * ei for ri, ei in zip(r, e)]
        den = ratmat.int_dot(num, g) // 2
        if any(c % den for c in num):
            raise RuntimeError(f"coroot of {r} is not integral (bug)")
        coroots.append(tuple(c // den for c in num) + (0,) * (dim - rank))
    index = {r: i for i, r in enumerate(roots)}
    basis_den, basis_num = ratmat.over_common_denominator(basis, dim)
    return RootSystem(
        cartan_type=ct,
        rank=rank,
        dim=dim,
        cartan=cartan,
        simple_roots=simple_roots,
        simple_coroots=simple_coroots,
        all_roots=tuple(tuple(map(Fraction, r)) for r in roots),
        positive_indices=positives,
        inner_product_matrix=ratmat.mat(ip),
        highest_root=tuple(map(Fraction, highest)),
        coweight_lattice_basis=tuple(tuple(r) for r in basis),
        grads=grads,
        coroots=tuple(coroots),
        simple_grads=tuple(grads[index[e]]
                           for e in ratmat.int_identity(rank)),
        negation=tuple(index[tuple(-c for c in r)] for r in roots),
        coweight_inv_num=cw_num,
        coweight_inv_den=cw_den,
        coweight_num=tuple(zip(*basis_num)), coweight_den=basis_den,
        _index=index,
    )


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """Enumerate the finite Weyl group by closure under simple reflections.

    Elements come out in BFS order by word length, identity first.  Each
    level is one int64 product of the simple reflections against the
    frontier stack, taken element-major and generator-minor: s_i w, with
    word w.word + (i,), is kept the first time its matrix appears.  As
    l(s_i w) = l(w) +- 1, a product of level k can only have appeared in
    level k - 1 or k + 1, so only those two levels' matrices are kept as
    bytes to test against.  Every product is again an element of the
    finite group W, so its entries are bounded and int64 cannot overflow.
    Ranks above `WEYL_RANK_GUARD` are refused.
    """
    if rs.rank > WEYL_RANK_GUARD:
        raise EnumerationGuard(
            f"rank {rs.rank} exceeds enumeration guard {WEYL_RANK_GUARD}"
        )
    n, r = rs.dim, rs.rank
    # s_i is I with the gradient of alpha_i taken off row i
    gens = np.array([ratmat.int_identity(n)] * r, dtype=np.int64)
    gens[range(r), range(r)] -= np.array(rs.simple_grads, dtype=np.int64)
    elements = [WeylElement(ratmat.int_identity(n), ())]
    frontier = np.array([elements[0].matrix], dtype=np.int64)
    words = [()]
    previous, level = set(), {frontier.tobytes()}
    size = frontier.nbytes
    while words:
        prods = np.matmul(gens, frontier[:, None]).reshape(-1, n, n)
        buf = prods.tobytes()
        nxt, keep = set(), []
        for j in range(len(prods)):
            key = buf[j * size:(j + 1) * size]
            if key not in previous and key not in nxt:
                nxt.add(key)
                keep.append(j)
        previous, level = level, nxt
        frontier = prods[keep]
        words = [words[j // r] + (j % r,) for j in keep]
        elements += [WeylElement(tuple(map(tuple, m)), w)
                     for m, w in zip(frontier.tolist(), words)]
    return elements


def times_word(rs: RootSystem, m: IntMat, word: tuple[int, ...]) -> IntMat:
    """m s_j1 ... s_jm for the word (j1, ..., jm), by column updates: m s_j
    is m with column k less <alpha_j, alpha_k-check> times column j."""
    m = [list(row) for row in m]
    for j in word:
        for row in m:
            if x := row[j]:
                for k, c in enumerate(rs.simple_grads[j]):
                    row[k] -= x * c
    return tuple(map(tuple, m))


def weyl_element(rs: RootSystem, matrix: IntMat) -> WeylElement:
    """The element of W with this integer matrix, its word by descent.
    h = 1^T w (first `rank` rows) holds the heights of the w(alpha_k-check),
    and h_j < 0 exactly when l(w s_j) < l(w) (Humphreys, Reflection Groups
    and Coxeter Groups, ch. 1).  While some h_j < 0, the smallest such j
    is appended and w becomes w s_j: h becomes h - h_j alpha_j.  This is
    the lexicographically first reduced word (Bjorner-Brenti, GTM 231),
    the word of `weyl_group`; W is never listed.  For a matrix not in W,
    w s_j1 ... s_jm is not the identity, and RuntimeError is raised."""
    h = [sum(col) for col in zip(*matrix[:rs.rank])]
    word = []
    while neg := [j for j, v in enumerate(h[:rs.rank]) if v < 0]:
        j = neg[0]
        word.append(j)
        h = [a - h[j] * g for a, g in zip(h, rs.simple_grads[j])]
    if times_word(rs, matrix, word) != ratmat.int_identity(rs.dim):
        raise RuntimeError(f"matrix {matrix} is not in W (bug)")
    return WeylElement(matrix, tuple(word))


def reflect(rs: RootSystem, root, x: Vec) -> Vec:
    """Reflection of the t-point x in the wall of the given root."""
    if isinstance(root, int):
        idx = root
    else:
        idx = rs.root_index(root)
    val = rs.eval_root(idx, x)
    return ratmat.sub(x, ratmat.scale(val, rs.coroot(idx)))
