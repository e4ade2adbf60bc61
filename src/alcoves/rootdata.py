"""Finite root systems, coweight lattices and finite Weyl groups.

All data is exact: root coordinates are integers in the simple-root basis,
points of the (real) Cartan subalgebra t are Fraction vectors in the
simple-coroot basis (plus one central coordinate for the gl isogeny).  The
inner product on the root space is normalized so long roots have squared
length 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import ratmat
from .ratmat import Mat, Vec

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
ISOGENIES = ("sc", "adjoint", "gl")


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
    """One Weyl group element: exact matrices plus one reduced word.

    ``matrix`` acts on t (coroot-basis coordinates), ``root_matrix`` acts on
    root coordinates in the simple-root basis.  The word is a reduced
    representative, not a canonical form.
    """

    matrix: Mat
    root_matrix: Mat
    word: tuple[int, ...]

    def apply(self, x: Vec) -> Vec:
        return ratmat.matvec(self.matrix, x)

    def apply_root(self, c: Vec) -> Vec:
        return ratmat.matvec(self.root_matrix, c)

    def is_identity(self) -> bool:
        return self.matrix == ratmat.identity(len(self.matrix))


@dataclass(frozen=True)
class RootSystem:
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
    _coweight_inv: Mat = field(repr=False)
    _grads: tuple[Vec, ...] = field(repr=False)  # gradient of each root on t

    # -- pairings -----------------------------------------------------------

    def root_index(self, coords: Vec) -> int:
        try:
            return self.all_roots.index(tuple(Fraction(c) for c in coords))
        except ValueError:
            raise ValueError(f"{coords} is not a root") from None

    def negate_index(self, idx: int) -> int:
        return self.root_index(ratmat.scale(-1, self.all_roots[idx]))

    def eval_root(self, idx: int, x: Vec) -> Fraction:
        """alpha(x) for x in ambient t-coordinates."""
        return ratmat.dot(self._grads[idx], x)

    def coroot(self, idx: int) -> Vec:
        c = self.all_roots[idx]
        half_norm = self.root_length_sq(idx) / 2
        d = self._symmetrizer_d
        v = [c[i] * d[i] / half_norm for i in range(self.rank)]
        v += [Fraction(0)] * (self.dim - self.rank)
        return tuple(v)

    @property
    def _symmetrizer_d(self) -> Vec:
        return tuple(self.inner_product_matrix[i][i] / 2 for i in range(self.rank))

    def root_length_sq(self, idx: int) -> Fraction:
        c = self.all_roots[idx]
        s = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                s += c[i] * self.inner_product_matrix[i][j] * c[j]
        return s

    def in_coweight_lattice(self, x: Vec) -> bool:
        return ratmat.is_integral(ratmat.matvec(self._coweight_inv, x))

    def coweight_coords(self, x: Vec) -> Vec:
        """Coordinates of x in the coweight-lattice basis."""
        return ratmat.matvec(self._coweight_inv, x)

    def from_coweight_coords(self, c: Vec) -> Vec:
        out = ratmat.zeros(self.dim)
        for ci, b in zip(c, self.coweight_lattice_basis, strict=True):
            out = ratmat.add(out, ratmat.scale(ci, b))
        return out

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


def _reflection_closure(cartan: Mat, rank: int) -> list[Vec]:
    simple = [tuple(Fraction(1 if i == j else 0) for j in range(rank))
              for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                # s_i(c) = c - alpha(coroot_i) e_i
                pairing = sum(cartan[i][j] * c[j] for j in range(rank))
                img = list(c)
                img[i] -= pairing
                img_t = tuple(img)
                if img_t not in seen:
                    seen.add(img_t)
                    nxt.append(img_t)
        frontier = nxt
    return sorted(seen)


def build_root_system(ct: CartanType) -> RootSystem:
    """Realize a root system in simple-root coordinates.

    Roots are generated as the reflection closure of the simple roots; the
    inner product comes from the symmetrized Cartan matrix, scaled so long
    roots have squared length 2.
    """
    rank = ct.rank
    cartan = cartan_matrix(ct.family, rank)
    d = _symmetrizer(cartan)
    b = tuple(
        tuple(d[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    roots = _reflection_closure(cartan, rank)
    positives = tuple(
        i for i, r in enumerate(roots)
        if next(c for c in r if c != 0) > 0
    )

    def dominates(r, s):
        return all(a >= b_ for a, b_ in zip(r, s))

    highest = next(
        roots[i] for i in positives
        if all(dominates(roots[i], roots[j]) for j in positives)
    )

    dim = rank + 1 if ct.isogeny == "gl" else rank
    simple_roots = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(rank))
        for i in range(rank)
    )
    simple_coroots = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim))
        for i in range(rank)
    )

    if ct.isogeny == "sc":
        basis = simple_coroots
    elif ct.isogeny == "adjoint":
        basis = ratmat.inverse(cartan)  # rows are fundamental coweights
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

    # pad the root-space inner product with a unit central block
    ip = [list(row) + [Fraction(0)] * (dim - rank) for row in b]
    for k in range(rank, dim):
        ip.append([Fraction(0)] * dim)
        ip[k][k] = Fraction(1)

    grads = []
    for r in roots:
        g = [sum(cartan[i][j] * r[j] for j in range(rank)) for i in range(rank)]
        grads.append(tuple(g) + (Fraction(0),) * (dim - rank))

    return RootSystem(
        cartan_type=ct,
        rank=rank,
        dim=dim,
        cartan=cartan,
        simple_roots=simple_roots,
        simple_coroots=simple_coroots,
        all_roots=tuple(roots),
        positive_indices=positives,
        inner_product_matrix=ratmat.mat(ip),
        highest_root=highest,
        coweight_lattice_basis=tuple(tuple(r) for r in basis),
        # basis rows are the lattice generators, so x = basis^T c
        _coweight_inv=ratmat.inverse(ratmat.transpose(basis)),
        _grads=tuple(grads),
    )


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    n, rank = rs.dim, rs.rank
    m = [list(row) for row in ratmat.identity(n)]
    for k in range(rank):
        m[i][k] -= rs.cartan[k][i]
    rm = [list(row) for row in ratmat.identity(rank)]
    for k in range(rank):
        rm[i][k] -= rs.cartan[i][k]
    return WeylElement(ratmat.mat(m), ratmat.mat(rm), (i,))


def weyl_group(rs: RootSystem, max_rank: int = 4) -> list[WeylElement]:
    """Enumerate the finite Weyl group by closure under simple reflections.

    Elements come out in BFS order by word length, identity first.
    """
    if rs.rank > max_rank:
        raise EnumerationGuard(
            f"rank {rs.rank} exceeds enumeration guard {max_rank}"
        )
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    ident = WeylElement(
        ratmat.identity(rs.dim), ratmat.identity(rs.rank), ()
    )
    elements = [ident]
    seen = {ident.matrix}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i, s in enumerate(gens):
                m = ratmat.matmul(s.matrix, w.matrix)
                if m not in seen:
                    seen.add(m)
                    elem = WeylElement(
                        m, ratmat.matmul(s.root_matrix, w.root_matrix),
                        w.word + (i,),
                    )
                    elements.append(elem)
                    nxt.append(elem)
        frontier = nxt
    return elements


def reflect(rs: RootSystem, root, x: Vec) -> Vec:
    """Reflection of the t-point x in the wall of the given root."""
    if isinstance(root, int):
        idx = root
    else:
        idx = rs.root_index(tuple(Fraction(c) for c in root))
    val = rs.eval_root(idx, x)
    return ratmat.sub(x, ratmat.scale(val, rs.coroot(idx)))
