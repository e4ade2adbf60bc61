"""Small exact linear algebra over fractions.Fraction and Python ints.

Everything here works on tuples so results are hashable and immutable.
Matrices are tuples of row tuples.  Sizes are tiny (rank <= 5), so plain
Gaussian elimination is fine.  The `int_*` kernels work on integer
matrices and vectors; `over_common_denominator` writes rational points as
integer numerators over one denominator, so that the hot loops of the
exact core never build a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True))


def solve(m: Mat, rhs: Vec) -> Vec:
    """Solve m @ x = rhs for square invertible m."""
    n = len(m)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [a * inv_p for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def inverse(m: Mat) -> Mat:
    n = len(m)
    cols = [solve(m, tuple(Fraction(1 if i == j else 0) for i in range(n)))
            for j in range(n)]
    return transpose(tuple(cols))


def int_dot(u, v) -> int:
    return sum(map(mul, u, v))


def int_matvec(m, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def int_matmul(a, b) -> tuple[tuple[int, ...], ...]:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def int_identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def over_common_denominator(points, dim: int
                            ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, nums) with points[k] == nums[k] / d for every k, d the least
    common denominator of all entries; entries are ints or Fractions, and
    every point must have `dim` entries."""
    d = 1
    for p in points:
        if len(p) != dim:
            raise ValueError(f"expected dimension {dim}, got {len(p)}")
        for c in p:
            d = lcm(d, c.denominator)
    return d, tuple(tuple(c.numerator * (d // c.denominator) for c in p)
                    for p in points)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_frac(s: str) -> Fraction:
    return Fraction(s.strip())


def vec_str(v: Sequence[Fraction]) -> list[str]:
    return [frac_str(x) for x in v]
