"""Host-speed calibration: every timed interval is sampled with a small
fixed kernel that uses no library code, and scaled to the kernel's
reference speed.

The hosts this benchmark runs on change speed while it runs.  On a
shared 2-vCPU VM the same 1 ms loop ran at about 0.7 ms and about
1.5 ms in alternation, switching every 0.2 s or so, and in slower phases
of seconds to minutes on top of that, with CPU time moving with wall
time and no steal time counted.  A median over one run cannot remove a
slow phase that covers most of the run, so raw times spread by up to a
half from run to run.

So the child process runs a probe, a fixed kernel of the same kind as
the work it times, right before each timed interval (`Clock`), every
`PROBE_INTERVAL_S` inside it (from a SIGALRM timer, between bytecodes of
whatever runs), and right after it.  The probes cut the interval into
work slices.  Each slice is scaled by `REFERENCE_MS[kernel]` over the
mean of the probes on its two sides, and the probes' own time is left
out.  So a figure reads what the interval takes on a host where the
probe takes `REFERENCE_MS`.  A change to the library moves the scaled
time as much as the raw one; the probes do not call the library, so it
cannot move them.  The raw times (probes left out) stay in the run
header.

- `exact`: products of small Fraction matrices collected in a set of
  tuples, as in the library's group closures.  For the exact workloads
  and for every set-up.
- `numeric`: the shell loop of the matrix Weierstrass sum at a small
  radius, with 1x1 and 8x8 matrices: numpy call overhead and batched
  LAPACK inverses, as in `wp-cubic`.  numpy is imported when it first
  runs.
"""

from __future__ import annotations

import functools
import gc
import signal
import time
from fractions import Fraction

# Probe times (ms) the scaled figures refer to: about the median on a
# 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.  They are
# constants: changing one rescales every figure of the benchmark.
REFERENCE_MS = {"exact": 1.2, "numeric": 0.9}
PROBE_INTERVAL_S = 0.025
SETUP_KERNEL = "exact"  # the probe every set-up is sampled with


def _exact_matrices() -> list[tuple]:
    half = Fraction(1, 2)
    return [tuple(
        tuple(Fraction((i + 1) * (j + k + 1) % 5 - 2, 1 + (i + j + k) % 3)
              + (half if i == j else 0) for j in range(4))
        for i in range(4)) for k in range(3)]


_EXACT = _exact_matrices()


def _exact() -> int:
    seen = set()
    a = _EXACT[0]
    for b in _EXACT:
        cols = tuple(zip(*b))
        seen.add(tuple(tuple(sum(x * y for x, y in zip(row, col))
                             for col in cols) for row in a))
    return len(seen)


@functools.cache
def _numeric_inputs() -> tuple:
    import numpy as np
    rng = np.random.default_rng(12345)
    return (np.array([[0.31 + 0.17j]]),
            rng.standard_normal((8, 8)) * 0.1 + 0.2j * np.eye(8))


def _numeric() -> complex:
    import numpy as np
    total = 0j
    for z in _numeric_inputs():
        n = z.shape[0]
        eye = np.eye(n, dtype=complex)
        acc = np.zeros((n, n), dtype=complex)
        for s in range(1, 5):
            w = np.array([complex(x, y) for x in range(-s, s + 1)
                          for y in (-s, s)])
            inv = np.linalg.inv(z[None, :, :] + w[:, None, None] * eye)
            acc = acc + np.sum(inv @ inv, axis=0) \
                - complex(np.sum(1.0 / (w * w))) * eye
        total += complex(acc[0, 0])
    return total


KERNELS = {"exact": _exact, "numeric": _numeric}


def kernel_ms(kernel: str) -> float:
    """One run of the kernel, in ms, with the cyclic GC paused so that a
    collection of the caller's heap does not land inside it."""
    fn = KERNELS[kernel]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def scale(edges: list[float], probes: list[float], reference_ms: float):
    """Raw and scaled time (s) of the work slices between probes.

    `edges` are the interval's start, each inner probe's start and end,
    and the interval's end; `probes` the probe times (ms): the one right
    before, each inner one, the one right after.  Slice i lies between
    probes i and i + 1 and is scaled by their mean."""
    raw = scaled = 0.0
    for i in range(len(probes) - 1):
        work = max(edges[2 * i + 1] - edges[2 * i], 0.0)
        raw += work
        scaled += work * 2 * reference_ms / (probes[i] + probes[i + 1])
    return raw, scaled


class Clock:
    """Times `with clock:` blocks, sampled with the probe `kernel`.

    After a block, `raw_ms` is its time without the probes, `ms` the
    scaled time, and `probes` the number of probes inside it.  The probe
    after one block serves as the probe before the next, until `fresh()`
    (after a gap in which the host's speed may have changed).  With
    `sampling` off a block is timed plainly (`ms` = `raw_ms`): traced
    rounds do so, so that their per-layer spans hold no probes."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_ms = REFERENCE_MS[kernel]
        self.sampling = True
        self.before = None
        self.probe_ms: list[float] = []  # every probe of every block
        self.ms = self.raw_ms = 0.0
        self.probes = 0
        self._inner: list[tuple[float, float, float]] = []

    def fresh(self):
        self.before = None

    def _probe(self, signum=None, frame=None):
        t = time.perf_counter()
        ms = kernel_ms(self.kernel)
        self._inner.append((t, t + ms / 1e3, ms))

    def __enter__(self):
        if not self.sampling:
            self.t0 = time.perf_counter()
            return self
        if self.before is None:
            kernel_ms(self.kernel)  # warm-up, not used
            self.before = kernel_ms(self.kernel)
            self.probe_ms.append(self.before)
        self._inner = []
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if not self.sampling:
            self.ms = self.raw_ms = (time.perf_counter() - self.t0) * 1e3
            self.probes = 0
            self.before = None
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        t1 = time.perf_counter()
        after = kernel_ms(self.kernel)
        inner = self._inner
        edges = [self.t0] + [t for s, e, _ in inner for t in (s, e)] + [t1]
        probes = [self.before] + [ms for _, _, ms in inner] + [after]
        raw, scaled = scale(edges, probes, self.reference_ms)
        self.raw_ms, self.ms = raw * 1e3, scaled * 1e3
        self.probes = len(inner)
        self.probe_ms.extend(probes[1:])
        self.before = after
        return False
