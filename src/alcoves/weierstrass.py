"""Matrix Weierstrass p-function, Eisenstein series, and the cubic identity.

Lattice sums run over square shells max(|m|,|n|) = s in deterministic
order (increasing shell, lexicographic within a shell).  The truncation
tail of the p-sum is an analytic power series in Z whose coefficients are
Eisenstein tail sums, so both p and p' are corrected by the first
_TAIL_TERMS tail terms; the Eisenstein values themselves are evaluated
through the q-series of E4/E6 (plus the classical recursion for higher
weights), which makes g2/g3 accurate to machine precision at any
admissible radius.

`radius` is the largest shell summed.  The p and p' sums stop earlier, at
the smallest shell R* <= radius where a rigorous bound on the series left
out after the tail corrections is at most _TAIL_TOL.  Shell s holds 8s
points, each with |w| >= h s, where h is the distance from 0 to the image
of the unit square's boundary under (m, n) -> m w1 + n w2; and
sum_{s>R} s^(1-k) <= R^(2-k)/(k-2).  So with K = 2 _TAIL_TERMS + 3 = 15
and x = ||Z||_2/(h R) <= 1/2, the omitted part of p is at most
8 K/(K-1) h^-2 x^(K-1)/(1-x^2), and that of p' at most
8 K h^-3 R^-1 x^(K-2)/(1-(K+2)/K x^2).  When no shell up to radius meets
the bound, all of them are summed, and the result is not certified: far
from 0 it can be far from p(Z) (`wp_matrix`).

A standalone `wp_matrix` or `wp_prime_matrix` sums only its own series, up
to its own R*.  `cubic_report` takes p and p' from one pass over the
shells up to the larger R*, which inverts each Z + wI once; it hands the
pass to its own `wp_matrix` and `wp_prime_matrix` calls through a slot
keyed on their arguments, and a call that does not match sums its own.

A pass inverts consecutive shells together: one np.linalg.inv call on the
stack Z + wI of a group of shells, and one matmul for each power of the
inverses.  A group grows while its stack holds at most _GROUP_ENTRIES =
2^12 complex entries (64 KiB), so at n = 1 the shells 1..31 make one
group, and at n = 8 each shell past 3 is a group of its own; no stack is
larger than 64 KiB unless one shell alone is.

The groups are independent.  From n = _THREADED_N = 7 a pass runs them
on min(_MAX_THREADS = 2, usable CPUs, groups) helper threads it starts
for the pass (a concurrent.futures.ThreadPoolExecutor, imported on the
first such pass), each taking the next group no helper has taken, so
which thread inverts which group depends on timing; the caller sleeps
until they are done.  The usable CPUs are those of os.sched_getaffinity
where it exists, else os.cpu_count.  Below n = 7, with one usable CPU,
or with one group (every n = 1 pass up to shell 31, `wp_scalar` among
them), the caller inverts every group.  The thread that inverts a group
sums each shell's slice of the powers on its own; the caller adds those
sums in shell order, so p and p' keep every bit of inverting one shell
at a time, on any number of threads.  Each thread frees a group's
stacks before it builds its next group's.

The helpers pay only where np.linalg.inv dominates: stacked small
matmuls slow each other down when two threads make them, and starting
and joining two helpers costs about 0.6 ms.  Per cubic_report call (p25
of 120, inline and on two helpers interleaved, 2-vCPU Xeon VM, one BLAS
thread) n = 3 went from 7.3 to 11.3 ms, n = 5 from 10.1 to 11.4, n = 6
from 10.9 to 13.6, n = 7 from 13.2 to 13.2 (median 16.6 to 14.8) and
n = 8 from 16.2 to 14.8 (median 21.5 to 17.1).  Only two threads were
measured, so a pass uses at most two, on any host.  Helpers run fn
under the caller's np.errstate, live for one pass and are joined before
it returns, also when a group raises, so a process forked after a pass
inherits none.  An exception in a group drops the groups no helper has
started, and the caller raises the one of the first failing group.

What a shell contributes apart from Z is built once per lattice and kept
in a table (`_ShellTable`) that grows to the largest shell asked for so
far: the points of each shell, the sum of w^-2 over it, the running raw
sums of w^-k (k = 4..14) through it, and the exact G_k.  A pass reads the
table and only inverts Z + wI, so p and p' keep every bit of a pass that
builds them itself.  Points are kept only for shells up to _POINTS_CAP,
about 1.1 MB a lattice; farther shells are rebuilt on each pass, so a
large radius holds O(radius) memory, not O(radius^2).  The tables of the
last 8 lattices used are kept.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np

_TAIL_TERMS = 6  # tail corrected through weight 2*_TAIL_TERMS + 2
_KMAX = 2 * _TAIL_TERMS + 2  # highest Eisenstein weight of the corrections
# the shortest period a must keep |a|^k a normal float for every k <= _KMAX
_PERIOD_RANGE = (2.0 ** (-1000 / _KMAX), 2.0 ** (1000 / _KMAX))
_TAIL_TOL = 1e-16  # bound on the omitted tail series that stops the sum
_POLE_TOL = 1e-6
_POINTS_CAP = 128  # shells whose points a lattice's table keeps
# complex entries of the stack Z + wI that one np.linalg.inv call of the
# shell pass takes, 64 KiB: at n = 1 the shells up to 31 in one call
_GROUP_ENTRIES = 2 ** 12
# the smallest n whose shell pass inverts its groups on helper threads
_THREADED_N = 7
# the most helper threads of one pass: the count measured to pay (two CPUs)
_MAX_THREADS = 2


class DegenerateLattice(ValueError):
    pass


class PoleError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    omega1: complex
    omega2: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.omega1) and cmath.isfinite(self.omega2)):
            raise DegenerateLattice("periods must be finite")
        if self.omega1 == 0 or self.omega2 == 0:
            raise DegenerateLattice("zero period")
        tau = self.omega2 / self.omega1
        if not cmath.isfinite(tau):
            raise DegenerateLattice("period ratio overflows")
        if abs(tau.imag) < 1e-12:
            raise DegenerateLattice("periods are collinear")
        a = abs(_reduced_basis(self)[0])
        lo, hi = _PERIOD_RANGE
        if not lo <= a <= hi:
            raise DegenerateLattice(
                f"shortest period {a:.3g} is outside [{lo:.3g}, {hi:.3g}]: "
                f"G_k for k <= {_KMAX} would divide by zero or overflow")


def _reduced_basis(lat: Lattice) -> tuple[complex, complex]:
    """Gauss-reduce to (a, b) spanning the same lattice with tau = b/a in
    the standard fundamental domain (Im tau > 0, |Re tau| <= 1/2, |tau| >= 1).
    """
    a, b = lat.omega1, lat.omega2
    if (b / a).imag < 0:
        a, b = b, a
    for _ in range(200):
        tau = b / a
        n = math.floor(tau.real + 0.5)
        if n:
            b -= n * a
            tau = b / a
        if abs(tau) < 1 - 1e-12:
            a, b = b, -a
        else:
            return a, b
    raise RuntimeError("lattice reduction did not converge")


def _eisenstein_exact_table(lat: Lattice, kmax: int) -> dict[int, complex]:
    """G_k = sum' omega^-k for even k in 4..kmax, to machine precision."""
    a, b = _reduced_basis(lat)
    tau = b / a
    q = cmath.exp(2j * cmath.pi * tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = q
    for n in range(1, 200):
        t = qn / (1 - qn)
        e4 += 240 * n**3 * t
        e6 -= 504 * n**5 * t
        qn *= q
        if abs(qn) < 1e-24:
            break
    g = {
        4: (cmath.pi**4 / 45) * e4 / a**4,
        6: (2 * cmath.pi**6 / 945) * e6 / a**6,
    }
    for k in range(8, kmax + 1, 2):
        m = k // 2
        s = 0j
        for i in range(2, m - 1):
            s += (2 * i - 1) * (2 * (m - i) - 1) * g[2 * i] * g[2 * (m - i)]
        g[k] = 3 * s / ((2 * m + 1) * (2 * m - 1) * (m - 3))
    return g


def _shell_points(lat: Lattice, s: int) -> np.ndarray:
    """Lattice points m*w1 + n*w2 with max(|m|,|n|) = s, lexicographic."""
    side = np.arange(-s, s + 1)
    m = np.concatenate((np.full(2 * s + 1, -s), np.repeat(side[1:-1], 2),
                        np.full(2 * s + 1, s)))
    n = np.concatenate((side, np.tile([-s, s], 2 * s - 1), side))
    return m * lat.omega1 + n * lat.omega2


def _add_shell_g(raw: tuple, w2: np.ndarray) -> tuple:
    """raw, the sums of w^-k for k = 4, 6, ..., with one shell's sums
    added, given w2 = w^-2 on that shell."""
    out = []
    wk = w2 * w2
    for g in raw:
        out.append(g + complex(np.add.reduce(wk)))
        wk = wk * w2
    return tuple(out)


class _ShellTable:
    """The Z-independent data of one lattice's shells, grown on demand.

    `shells[s - 1]` is (points, sum of w^-2, raw sums) of shell s: the
    points of the shell (read-only) for s <= _POINTS_CAP and None beyond,
    so memory stays bounded at large radii; np.add.reduce(1/(w*w)); and
    the running sums of w^-k through shell s for k = 4..._KMAX.  A shell
    is appended as one tuple once all of it is computed, so an error
    while growing leaves the table whole.  `exact` holds G_k for the
    same weights."""

    def __init__(self, lat: Lattice):
        self.lat = lat
        self.exact = MappingProxyType(_eisenstein_exact_table(lat, _KMAX))
        self.shells = []
        self._lock = threading.Lock()

    def grow(self, radius: int) -> list:
        """The entries of shells 1..radius, built where missing."""
        with self._lock:
            for s in range(len(self.shells) + 1, radius + 1):
                w = _shell_points(self.lat, s)
                w2 = 1.0 / (w * w)
                raw = self.shells[-1][2] if self.shells else \
                    (0j,) * len(self.exact)
                if s <= _POINTS_CAP:
                    w.flags.writeable = False
                else:
                    w = None
                self.shells.append(
                    (w, complex(np.add.reduce(w2)), _add_shell_g(raw, w2)))
            return self.shells[:radius]


@lru_cache(maxsize=8)
def _shell_table(lat: Lattice) -> _ShellTable:
    return _ShellTable(lat)


def eisenstein(lat: Lattice, k: int) -> complex:
    """Eisenstein value G_k = sum' omega^-k (k = 4 or 6).

    Evaluated through the q-series, so the result carries no truncation
    error."""
    if k not in (4, 6):
        raise ValueError("k must be 4 or 6")
    return _eisenstein_exact_table(lat, k)[k]


def eisenstein_truncated(lat: Lattice, k: int, radius: int) -> complex:
    """Literal shell-ordered partial sum over 0 < max(|m|,|n|) <= radius."""
    if k % 2 or k < 4:
        raise ValueError("k must be even and at least 4")
    if radius < 10:
        raise ValueError("radius must be at least 10")
    raw = (0j,) * (k // 2 - 1)  # the sums for weights 4, 6, ..., k
    for s in range(1, radius + 1):
        w = _shell_points(lat, s)
        raw = _add_shell_g(raw, 1.0 / (w * w))
    return raw[-1]


def _as_matrix(z) -> np.ndarray:
    a = np.asarray(z, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("Z must be a square matrix")
    return a


def _check_poles(z: np.ndarray, lat: Lattice):
    eig = np.linalg.eigvals(z)
    # coordinates of each eigenvalue in the period basis
    basis = np.array(
        [[lat.omega1.real, lat.omega2.real],
         [lat.omega1.imag, lat.omega2.imag]]
    )
    for ev in eig:
        mn = np.linalg.solve(basis, [ev.real, ev.imag])
        nearest = np.round(mn)
        w = nearest[0] * lat.omega1 + nearest[1] * lat.omega2
        if abs(ev - w) < _POLE_TOL:
            raise PoleError(f"eigenvalue {ev} within {_POLE_TOL} of a "
                            "lattice point")


def _stop_scale(z: np.ndarray, lat: Lattice) -> tuple[float, float]:
    """(||Z||_2, h): the two numbers the stop bound (module docstring)
    reads from Z and the lattice."""
    w1, w2 = lat.omega1, lat.omega2
    h = abs((w1.conjugate() * w2).imag) / max(abs(w1), abs(w2))
    return float(np.linalg.norm(z, 2)), h


def _stop_shell(scale: tuple[float, float], radius: int,
                derivative: bool) -> int:
    """R* from the (||Z||_2, h) of `_stop_scale`: the smallest shell
    R <= radius at which the bound on the series omitted after the tail
    corrections (module docstring) is <= _TAIL_TOL, or radius if no shell
    meets it."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    norm, h = scale
    k = 2 * _TAIL_TERMS + 3  # K of the module docstring
    for r in range(1, radius + 1):
        x = norm / (h * r)
        if x > 0.5:
            continue
        if derivative:
            bound = 8 * k * x ** (k - 2) / (
                h ** 3 * r * (1 - (k + 2) / k * x * x))
        else:
            bound = 8 * k / (k - 1) * x ** (k - 1) / (h * h * (1 - x * x))
        if bound <= _TAIL_TOL:
            return r
    return radius


def _stop_radius(z: np.ndarray, lat: Lattice, radius: int,
                 derivative: bool) -> int:
    """R* of p', or of p if not derivative (`_stop_shell`)."""
    return _stop_shell(_stop_scale(z, lat), radius, derivative)


def _shell_groups(radius: int, n: int):
    """The groups of consecutive shells 1..radius that one pass inverts
    together, as ranges: a group grows while its stack of n x n matrices
    Z + wI holds at most _GROUP_ENTRIES entries, and a shell that alone
    holds more is a group by itself."""
    most = _GROUP_ENTRIES // (n * n)  # points a group may hold
    first = 1
    while first <= radius:
        last, points = first, 8 * first
        while last < radius and points + 8 * (last + 1) <= most:
            last += 1
            points += 8 * last
        yield range(first, last + 1)
        first = last + 1


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_group(fn, groups: list, threads: int) -> list:
    """[fn(g) for g in groups], from threads = 2 on that many helper
    threads started for this call, each running fn under the caller's
    numpy error state (np.errstate).  The caller sleeps until every group
    is done or one has raised; the helpers are joined before it returns.
    When fn raises, the groups no helper has started are dropped and the
    caller raises the exception of the first failing group, unchanged."""
    if threads < 2:
        return [fn(g) for g in groups]
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
    state, call = np.geterr(), np.geterrcall()

    def run(group):
        with np.errstate(call=call, **state):
            return fn(group)

    pool = ThreadPoolExecutor(threads)
    try:
        futures = [pool.submit(run, g) for g in groups]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [f.result() for f in futures]


def _group_sums(z: np.ndarray, lat: Lattice, shells: list, r_p: int,
                r_dp: int, group: range) -> list:
    """Inverts the stack Z + wI of one group of shells; returns, for each
    shell of the group, the sums of (Z + wI)^-2 and of (Z + wI)^-3 over
    its points, or None where the shell is past r_p or r_dp."""
    eye = np.eye(z.shape[0], dtype=complex)
    w = np.concatenate([
        _shell_points(lat, s) if shells[s - 1][0] is None
        else shells[s - 1][0] for s in group])
    inv = np.linalg.inv(z[None, :, :] + w[:, None, None] * eye)
    inv2 = inv @ inv
    inv3 = inv2 @ inv if group[0] <= r_dp else None
    out = []
    end = 0
    for s in group:
        start, end = end, end + 8 * s
        out.append((
            np.add.reduce(inv2[start:end], axis=0) if s <= r_p else None,
            np.add.reduce(inv3[start:end], axis=0) if s <= r_dp else None))
    return out


def _shell_sums(z: np.ndarray, lat: Lattice, r_p: int, r_dp: int):
    """One pass over the shells 1..max(r_p, r_dp), each Z + wI inverted once.

    Returns ((p, p_tail), (dp, dp_tail)): the shell sum of p through r_p,
    started at Z^-2, and that of p' through r_dp, started at -2 Z^-3, each
    with its tail table G_k - (raw G_k sum through its shell).  A radius of
    0 skips that series, and its pair is (None, None).  The points, the
    w^-2 sums and the raw G_k sums come from the lattice's table.

    The shells are inverted a group at a time (`_shell_groups`), on
    helper threads from n = _THREADED_N (`_each_group`); each shell's
    slice of the powers is summed on its own and added here in shell
    order, so the order of every addition is that of the separate p, p'
    and G_k loops, and every bit is that of inverting one shell at a time."""
    n = z.shape[0]
    table = _shell_table(lat)
    eye = np.eye(n, dtype=complex)
    inv0 = np.linalg.inv(z)
    p = inv0 @ inv0 if r_p else None
    dp = -2 * inv0 @ inv0 @ inv0 if r_dp else None
    shells = table.grow(max(r_p, r_dp))
    groups = list(_shell_groups(len(shells), n))
    fn = partial(_group_sums, z, lat, shells, r_p, r_dp)
    threads = 1
    if n >= _THREADED_N:
        threads = min(_MAX_THREADS, _usable_cpus(), len(groups))
    sums = _each_group(fn, groups, threads)
    for group, group_sums in zip(groups, sums):
        for s, (s2, s3) in zip(group, group_sums):
            if s2 is not None:
                p = p + s2 - shells[s - 1][1] * eye
            if s3 is not None:
                dp = dp - 2 * s3

    def tail(r):
        if not r:
            return None
        return {k: g - raw for (k, g), raw in zip(table.exact.items(),
                                                   shells[r - 1][2])}

    return (p, tail(r_p)), (dp, tail(r_dp))


# cubic_report's shell pass while it runs: (key, _shell_sums result)
_shared = None


def _pass_key(z: np.ndarray, lat: Lattice, radius: int) -> tuple:
    return z.tobytes(), z.shape, lat, radius


def _series(z: np.ndarray, lat: Lattice, radius: int, derivative: bool):
    """(shell sum, tail table) of p', or of p if not derivative: from
    cubic_report's pass if it was made for these arguments, else summed
    up to the series' own R*."""
    shared = _shared
    if shared is not None and shared[0] == _pass_key(z, lat, radius):
        return shared[1][1 if derivative else 0]
    _check_poles(z, lat)
    r = _stop_radius(z, lat, radius, derivative)
    if derivative:
        return _shell_sums(z, lat, 0, r)[1]
    return _shell_sums(z, lat, r, 0)[0]


def wp_matrix(z, lat: Lattice, radius: int = 100) -> np.ndarray:
    """Matrix Weierstrass p: Z^-2 + sum'((Z+wI)^-2 - w^-2 I), tail-corrected.

    Sums shells 1..R*, where R* <= radius is the first shell whose omitted
    tail series is certified below _TAIL_TOL (module docstring); radius is
    the largest shell summed and must be at least 1.

    When no shell up to radius is certified, every shell is summed and the
    result is returned without a warning, though it may be far off.  p is
    periodic, yet on the lattice (1, 2i) at radius 100, p(0.3+0.2i) =
    3.1348-6.2158i (R* = 6), p(10.3+0.2i) = 3.1227-6.2187i and
    p(30.3+0.2i) = -5171-417i (neither certified)."""
    z = _as_matrix(z)
    acc, tail = _series(z, lat, radius, derivative=False)
    zp = z @ z
    pw = np.eye(z.shape[0], dtype=complex)
    for m in range(1, _TAIL_TERMS + 1):
        pw = pw @ zp
        acc = acc + (2 * m + 1) * tail[2 * m + 2] * pw
    return acc


def wp_prime_matrix(z, lat: Lattice, radius: int = 100) -> np.ndarray:
    """Derivative -2 sum (Z+wI)^-3, tail-corrected.

    Sums shells 1..R* with the stop rule of `wp_matrix`, applied to the
    bound on the omitted part of p'; radius is the largest shell summed
    and must be at least 1."""
    z = _as_matrix(z)
    acc, tail = _series(z, lat, radius, derivative=True)
    zp = z @ z
    pw = z
    for m in range(1, _TAIL_TERMS + 1):
        acc = acc + (2 * m + 1) * (2 * m) * tail[2 * m + 2] * pw
        pw = pw @ zp
    return acc


def wp_scalar(z: complex, lat: Lattice, radius: int = 100) -> complex:
    return complex(wp_matrix([[z]], lat, radius)[0, 0])


def invariants(lat: Lattice) -> tuple[complex, complex]:
    """(g2, g3) = (60 G4, 140 G6)."""
    g = _shell_table(lat).exact
    return 60 * g[4], 140 * g[6]


def cubic_report(z, lat: Lattice, radius: int = 100) -> dict:
    """Residuals of p'^2 = 4p^3 - g2 p - g3 and of [p, p'].

    p and p' come from one shell pass up to the larger of their stop
    shells, read by the module's `wp_matrix` and `wp_prime_matrix`."""
    global _shared
    z = _as_matrix(z)
    g2, g3 = invariants(lat)
    _check_poles(z, lat)
    scale = _stop_scale(z, lat)
    r_p = _stop_shell(scale, radius, derivative=False)
    r_dp = _stop_shell(scale, radius, derivative=True)
    try:
        _shared = _pass_key(z, lat, radius), _shell_sums(z, lat, r_p, r_dp)
        x = wp_matrix(z, lat, radius)
        y = wp_prime_matrix(z, lat, radius)
    finally:
        _shared = None
    eye = np.eye(z.shape[0], dtype=complex)
    cubic = y @ y - (4 * x @ x @ x - g2 * x - g3 * eye)
    comm = x @ y - y @ x
    return {
        "g2": g2,
        "g3": g3,
        "residual_cubic": float(np.max(np.abs(cubic))),
        "residual_commutator": float(np.max(np.abs(comm))),
    }

