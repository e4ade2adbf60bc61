"""Workload definitions: what one round of each workload runs.

A round is a fixed list of operations ("ops").  Some ops run in every
round (the `fixed` list of the reference file); the rest are drawn from
finite pools of inputs whose expected outputs are stored in
`reference.json`.  The run's `--seed` decides which pool items each round
draws, so the same seed gives the same inputs and different seeds give
different inputs of the same kinds and counts.  Every round of a workload
has the same composition, so round times are comparable.  A round's ops
run in a seeded random order: the host's speed drifts over seconds, and
a group of like ops run back to back would see only one stretch of it,
which moves the latency percentiles that group holds from run to run.

This module does not import the library: the run driver only hands the
stored inputs to the child process that calls the library.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

# Types each workload builds at set-up (root systems and Weyl groups).
SETUP_TYPES = {
    "cli-session": ("A2", "B2", "G2", "A3"),
    "rank4-points": ("B4", "F4"),
    "wp-cubic": (),
}

# The probe kernel (`calibrate.py`) each workload's ops are sampled and
# scaled with: the one whose work is most like the workload's.
CALIBRATION = {
    "cli-session": "exact",
    "rank4-points": "exact",
    "wp-cubic": "numeric",
}

# The exact suites `verify` runs per type.  A3 leaves out `stars` (10.6 s),
# `centralizer` (7 s) and `parabolic` (0.8 s at a fixed cost that its
# `diagram` call already pays), so that a round stays near 10 s.
VERIFY_SAMPLES = 6
VERIFY_SUITES = {
    "A2": ("faces", "stabilizers", "stars", "cover", "parabolic",
           "centralizer", "double-affine"),
    "B2": ("faces", "stabilizers", "stars", "cover", "parabolic",
           "centralizer", "double-affine"),
    "G2": ("faces", "stabilizers", "stars", "cover", "parabolic",
           "centralizer", "double-affine"),
    "A3": ("faces", "stabilizers", "cover", "double-affine"),
}

# How many items each round draws from each pool.  A pool item is a list
# of ops (a `verify` item is all suites of one type at one seed).
ROUND_DRAWS = {
    "cli-session": {
        **{f"overlap-{t}": 2 for t in ("A2", "B2", "G2")},
        **{f"centralizer-{t}": 12 for t in ("A2", "B2", "G2")},
        "centralizer-A3": 48,
        **{f"parabolic-{t}": 12 for t in ("A2", "B2", "G2", "A3")},
        **{f"verify-{t}": 1 for t in ("A2", "B2", "G2", "A3")},
    },
    "rank4-points": {
        "generic-B4": 6, "stabilizer-B4": 6, "reduce-B4": 6,
        "special-B4": 1, "double-affine-B4": 1,
        "generic-F4": 20, "stabilizer-F4": 20, "reduce-F4": 8,
        "special-F4": 1,
    },
    "wp-cubic": {
        f"cubic-n{n}-{lat}": count for lat in ("rect", "hex")
        for n, count in ((1, 7), (3, 1), (8, 5))
    },
}

# The counts are chosen so that the median and the 90th percentile of op
# latency fall inside dense groups of similar ops, not in a gap between
# groups, where they would jump from seed to seed.
# - cli-session: 82 cheaper ops (rank-2 `centralizer` and `parabolic`,
#   `roots`, `faces`) lie below the 48 A3 `centralizer` calls (9-20 ms),
#   which hold the median in their middle.  Two rounds call all 96 points
#   of the A3 pool, so the median's group has the same inputs in every
#   run whatever the seed; with 24 a round, which half of the pool a
#   seed drew moved the median from run to run.  p90 falls inside the 15
#   A3 `star` calls (0.2-0.35 s), below the heaviest ops (A3 `diagram`,
#   the A3 `verify` suites, rank-2 `verify stars` and `verify
#   centralizer`).
# - rank4-points: the 40 F4 scans (150-250 ms) hold both, with the 26
#   cheaper ops below and only 3 heavy ones (0.3-2 s: special points, one
#   double-affine) above.  F4 `double_affine_centralizer` (about 1.1 s)
#   would add a fourth heavy op and push p90 to the edge of the F4 group,
#   so it runs on B4 only.  p90 still sits near the top of the F4 group,
#   where the few dearer generic F4 points a seed draws move it; more
#   cheap ops below would push the median out of the group.
# - wp-cubic: the 20 ops of n = 1 and the half-periods hold the median,
#   the 10 ops of n = 8 hold p90 (a third of the way into their group),
#   and the 4 of n = 3 lie between them.

# Radius of the lattice sums in wp-cubic.
WP_RADIUS = 100
LATTICES = {
    "rect": (complex(1.0, 0.0), complex(0.0, 2.0)),
    "hex": (complex(1.0, 0.0), complex(0.5, 0.8660254037844386)),
}


def digest(text: str) -> str:
    """The digest outputs are compared by."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def face_name(walls) -> str:
    """CLI spelling of a face: its vanishing walls, or '-' for the open
    alcove."""
    return ",".join(str(w) for w in sorted(walls)) or "-"


def faces(rank: int) -> list[frozenset]:
    """The faces of the closed alcove as vanishing-wall sets, in the
    library's order (by size, then lexicographically)."""
    nwalls = rank + 1
    out = [frozenset(i for i in range(nwalls) if mask >> i & 1)
           for mask in range((1 << nwalls) - 1)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 \
        else f"{x.numerator}/{x.denominator}"


def vec_str(v) -> str:
    return ",".join(frac_str(Fraction(x)) for x in v)


class Plan:
    """The seeded op list of each round of one workload.

    `reference` is the parsed reference file entry of the workload; each
    op comes with its expected output.  Pools are drawn without
    replacement in a seed-dependent order and reshuffled only when a run
    has used every item, so inputs repeat within a run only after that.
    """

    def __init__(self, workload: str, seed: int, reference: dict,
                 tiny: bool = False):
        self.workload = workload
        self.fixed = reference["fixed"]
        self.pools = reference["pools"]
        self.draws = dict(ROUND_DRAWS[workload])
        if tiny:
            keep = SETUP_TYPES[workload][:1] or ("rect",)
            self.fixed = [e for e in self.fixed
                          if e["op"].get("type", e["op"].get("lattice"))
                          in keep]
            self.draws = {p: 1 for p in self.draws
                          if p.rsplit("-", 1)[1] in keep}
        self._orders = {}
        self._next = {}
        self._rngs = {p: random.Random(f"{seed}/{workload}/{p}")
                      for p in self.draws}
        self._order_rng = random.Random(f"{seed}/{workload}/order")

    def _draw(self, pool: str) -> list:
        items = self.pools[pool]
        order = self._orders.get(pool)
        if order is None or self._next[pool] == len(order):
            order = list(range(len(items)))
            self._rngs[pool].shuffle(order)
            self._orders[pool] = order
            self._next[pool] = 0
        item = items[order[self._next[pool]]]
        self._next[pool] += 1
        return item

    def round(self) -> list[dict]:
        """The next round's ops, each a dict with `op` and `expect`."""
        ops = list(self.fixed)
        for pool, count in self.draws.items():
            for _ in range(count):
                ops.extend(self._draw(pool))
        self._order_rng.shuffle(ops)
        return ops

    def special_share(self) -> float | None:
        """Share of a round's centralizer_elliptic ops that use special
        points (theta = 0, a on the 1/2-grid); None without such ops."""
        special = sum(c for p, c in self.draws.items()
                      if p.startswith("special-"))
        generic = sum(c for p, c in self.draws.items()
                      if p.startswith("generic-"))
        return special / (special + generic) if special else None

    def header(self) -> dict:
        return {
            "fixed_ops_per_round": len(self.fixed),
            "draws_per_round": self.draws,
            "pool_sizes": {p: len(self.pools[p]) for p in self.draws},
            "special_share": self.special_share(),
        }
