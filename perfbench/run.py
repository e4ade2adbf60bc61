"""Benchmark driver for the alcoves library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The driver starts fresh Python children
(`child.py`) with the checkout's `src` on PYTHONPATH.  The first child
sets up and then runs the workload closed-loop: one caller, each op sent
after the previous one returned, no extra threads or processes.  A run
repeats rounds of the workload (see `workloads.py`) while the next round
still fits in `--seconds`, at least twice (once when traced), and
checks every op's output against `reference.json`.  After each round,
while the working child waits, fresh children set up and exit;
`setup_s` is the median of all the set-ups of the run.  Every op and
every set-up is sampled with a probe kernel and scaled to the probe's
reference speed (`calibrate.py`); the raw times are in the run header.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` each
round runs twice, untraced then traced (see `spans.py`), and it
prints the per-layer metrics.  The last line of stdout is the result
object; the line before it is the run header.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

# fresh set-ups after each round: at least 2, and more (up to 4) while
# they add up to less than 1 s.  Spread over the run, they do not all
# fall into one slow or fast stretch of the host.
SETUP_BATCH_MIN, SETUP_BATCH_MAX, SETUP_BATCH_S = 2, 4, 1.0
# rounds per run at least, so that p90 has 10 or more ops beyond it even
# when a slow host fits only one round in --seconds.  A traced run, which
# reports no percentiles and runs each round twice, needs only one.
MIN_ROUNDS = 2
OP_DEADLINE_S = 30.0  # an op still running after this is killed
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
WP_REL_TOL = 1e-10  # p(Z) and p'(Z) against the stored values
WP_CUBIC_TOL = 1e-5  # acceptance-8 tolerances
WP_COMMUTATOR_TOL = 1e-9
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


class Failed(Exception):
    """The child missed a deadline or died; the run stops here."""


class SetupFailed(Failed):
    """A child did not get through set-up; there is nothing to report."""


class Child:
    """One child process and its line-oriented JSON pipe."""

    def __init__(self, workload: str, trace: bool):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload,
             "1" if trace else "0", str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def send(self, obj: dict):
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise Failed("child exited") from None

    def recv(self, timeout: float) -> dict:
        end = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            left = end - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                raise Failed(f"no reply within {timeout:.1f} s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise Failed(f"child exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        """Stop the child and wait until it has ended."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._sel.close()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.close()


def _complexes(v) -> list[complex]:
    if v and isinstance(v[0], (int, float)):
        return [complex(v[0], v[1])]
    return [c for row in v for c in _complexes(row)]


def _rel_err(got, want) -> float:
    g, w = _complexes(got), _complexes(want)
    scale = max(abs(x) for x in w) or 1.0
    return max(abs(a - b) for a, b in zip(g, w, strict=True)) / scale


def check(entry: dict, reply: dict) -> str | None:
    """Why the op's output is wrong, or None when it matches."""
    if "error" in reply:
        return reply["error"]
    out, want = reply["out"], entry["expect"]
    if out.get("exit", 0) != 0:
        return f"exit code {out['exit']}"
    if out.get("verdict") is False:
        return "failing verdict"
    if "digest" in want and out["digest"] != want["digest"]:
        return "output differs from the reference"
    if "fixture" in want:
        text = (ROOT / want["fixture"]).read_text(encoding="utf-8")
        if out["digest"] != workloads.digest(text):
            return f"output differs from {want['fixture']}"
    for key in ("p", "dp"):
        if key in want and _rel_err(out[key], want[key]) > WP_REL_TOL:
            return f"{key} differs from the reference"
    if out.get("residual_cubic", 0.0) >= WP_CUBIC_TOL:
        return f"cubic residual {out['residual_cubic']}"
    if out.get("residual_commutator", 0.0) >= WP_COMMUTATOR_TOL:
        return f"commutator residual {out['residual_commutator']}"
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Run:
    """One benchmark run: set-ups, rounds, verdicts, metrics."""

    def __init__(self, workload, seed, seconds, trace, reference=None,
                 tiny=False, trace_dir=None):
        if reference is None:
            reference = json.loads((HERE / "reference.json").read_text())
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.plan = workloads.Plan(workload, seed, reference[workload], tiny)
        self.trace_dir = trace_dir
        self.started = time.perf_counter()
        self.setups: list[dict] = []
        self.op_ms: list[float] = []  # scaled, untraced rounds
        self.raw_op_ms: list[float] = []
        self.probes = 0  # inside the untraced ops
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        # op time per round: scaled and raw untraced, raw traced
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.child = None
        self.rounds = 0
        self.finish_reply = {}

    def _left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _setup(self) -> Child:
        """Start a fresh child and record its set-up, raw and scaled.
        The child samples its own set-up with a `calibrate.Clock`; the
        part that clock does not cover, interpreter start and the pipe,
        is scaled by the set-up's median probe."""
        child = Child(self.workload, self.trace)
        try:
            ready = child.recv(min(60.0, self._left()))
        except Failed as e:
            child.kill()
            raise SetupFailed(str(e)) from None
        raw = time.perf_counter() - child.started
        sampled = ready["sampled"]
        ready["raw_setup_s"] = raw
        # the part the child's clock does not cover, interpreter start
        # and pipe, at the median probe's speed; a traced child does not
        # sample, and its set-up stays raw
        outside = max(raw - sampled["wall_s"], 0.0)
        speed = 1.0 if sampled["probe_ms"] is None else \
            calibrate.REFERENCE_MS[calibrate.SETUP_KERNEL] \
            / sampled["probe_ms"]
        ready["setup_s"] = sampled["scaled_s"] + outside * speed
        self.setups.append(ready)
        return child

    def _fresh_setups(self):
        """Set up fresh children, one after another, and let them exit."""
        total = 0.0
        for n in range(1, SETUP_BATCH_MAX + 1):
            self._setup().close()
            total += self.setups[-1]["setup_s"]
            if n >= SETUP_BATCH_MIN and total >= SETUP_BATCH_S:
                return

    def _round(self, ops: list[dict], traced: bool,
               index: int) -> tuple[float, float]:
        """Run one round; return the sums of its scaled and of its raw
        op times (s).  In a traced round the child does not sample, so
        the two are the same."""
        child = self.child
        scaled_ms = raw_ms = 0.0
        if self.trace:
            child.send({"cmd": "phase", "name": f"round-{index}",
                        "traced": traced})
            child.recv(self._left())
        for i, entry in enumerate(ops):
            self.attempted += 1
            child.send({"cmd": "op", "op": entry["op"], "fresh": i == 0})
            try:
                reply = child.recv(min(OP_DEADLINE_S, self._left()))
            except Failed as e:
                self.failed += 1
                self.failures.append(f"{json.dumps(entry['op'])}: {e}")
                raise
            why = check(entry, reply)
            if why is not None:
                self.failed += 1
                self.failures.append(f"{json.dumps(entry['op'])}: {why}")
            if "ms" not in reply:
                continue
            if not traced:
                self.op_ms.append(reply["ms"])
                self.raw_op_ms.append(reply["raw_ms"])
                self.probes += reply["probes"]
            scaled_ms += reply["ms"]
            raw_ms += reply["raw_ms"]
        return scaled_ms / 1e3, raw_ms / 1e3

    def execute(self):
        self.child = self._setup()
        try:
            t_start = time.perf_counter()
            longest = 0.0
            index = 0
            min_rounds = 1 if self.trace else MIN_ROUNDS
            while index < min_rounds or (time.perf_counter() - t_start
                                         + longest <= self.seconds):
                t_round = time.perf_counter()
                ops = self.plan.round()
                scaled, raw = self._round(ops, False, index)
                self.walls.append(scaled)
                self.raw_walls.append(raw)
                if self.trace:
                    self.traced_walls.append(
                        self._round(ops, True, index)[1])
                self._fresh_setups()
                longest = max(longest, time.perf_counter() - t_round)
                index += 1
            self.rounds = index
            request = {"cmd": "finish"}
            if self.trace and self.trace_dir is not None:
                request["trace_path"] = str(
                    Path(self.trace_dir)
                    / f"trace-{self.workload}-seed{self.seed}.jsonl.gz")
            self.child.send(request)
            self.finish_reply = self.child.recv(self._left())
            self.child.close()
        except SetupFailed:
            self.child.kill()
            raise
        except Failed:
            self.rounds = len(self.traced_walls if self.trace else self.walls)
            self.child.kill()
            # the ops not yet sent count as not attempted

    def metrics(self) -> dict:
        setup = [s["setup_s"] for s in self.setups]
        if not self.trace:
            p50, p90 = percentiles(self.op_ms)
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(self.walls or [0.0]),
                "op_p50_ms": p50,
                "op_p90_ms": p90,
                "ok_ratio": 1 - self.failed / max(self.attempted, 1),
                "peak_rss_mb":
                    self.finish_reply.get("maxrss_kb", 0) / 1024,
            }
            units = END_TO_END_UNITS
        else:
            values = {
                f"setup.{k}": statistics.median(s[k] for s in self.setups)
                for k in ("import_s", "build_s", "weyl_s")
            }
            values.update(self.finish_reply.get("layers", {}))
            values["trace.overhead_ratio"] = \
                sum(self.traced_walls) / sum(self.raw_walls) \
                if self.walls and len(self.traced_walls) == len(self.walls) \
                else 0.0
            units = {k: layer_unit(k) for k in values}
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def header(self) -> dict:
        numpy = self.setups[0].get("numpy") if self.setups else None
        kernel = workloads.CALIBRATION[self.workload]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "git_commit": _git_commit(),
            "src_digest": _src_digest(),
            "python": platform.python_version(),
            "numpy": numpy,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
            "loop": "closed, one caller, one child process",
            "rounds": self.rounds,
            "ops_attempted": self.attempted,
            "ops_timed": len(self.op_ms),
            "ops_failed": self.failed,
            "failed_ratio": self.failed / max(self.attempted, 1),
            "op_deadline_s": OP_DEADLINE_S,
            "calibration": {
                "ops_kernel": kernel,
                "setup_kernel": calibrate.SETUP_KERNEL,
                "reference_ms": calibrate.REFERENCE_MS,
                "probe_interval_s": calibrate.PROBE_INTERVAL_S,
                "ops_probe_median_ms": self.finish_reply.get("probe_ms"),
                "probes_in_ops": self.probes,
                "setup_probe_median_ms": [s["sampled"]["probe_ms"]
                                          for s in self.setups],
                "probes_in_setups": [s["sampled"]["probes"]
                                     for s in self.setups],
            },
            "raw_op_p50_p90_ms": percentiles(self.raw_op_ms),
            "setups_s": [s["setup_s"] for s in self.setups],
            "raw_setups_s": [s["raw_setup_s"] for s in self.setups],
            "round_walls_s": self.walls,
            "raw_round_walls_s": self.raw_walls,
            "traced_round_walls_s": self.traced_walls,
            "failures": self.failures[:20],
            **self.plan.header(),
        }

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": self.metrics(),
        }


def percentiles(ms: list[float]) -> tuple[float, float]:
    """The median and the 90th percentile of op times."""
    if len(ms) < 2:
        return (ms or [0.0])[0], (ms or [0.0])[0]
    q = statistics.quantiles(ms, n=100, method="inclusive")
    return q[49], q[89]


def missing_inputs() -> list[str]:
    need = [ROOT / "src" / "alcoves" / "__init__.py",
            ROOT / "tests" / "fixtures" / "sl3_diagram.json",
            HERE / "reference.json"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ROUND_DRAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"error: not a checkout of the library: missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              trace_dir=ROOT / ".perfbench")
    try:
        run.execute()
    except SetupFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"header": run.header()}))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
