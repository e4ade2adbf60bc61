"""Tests of the benchmark itself, at a tiny size (two short rounds, one
type).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload, trace=False, reference=REFERENCE, trace_dir=None):
    r = run.Run(workload, seed=3, seconds=0, trace=trace,
                reference=reference, tiny=True, trace_dir=trace_dir)
    r.execute()
    return r


def bump(v):
    """The nested list v with 1 added to every number."""
    return [bump(x) for x in v] if isinstance(v, list) else v + 1.0


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    r = tiny_run(workload)
    result = r.result()
    assert result["correct"], r.failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert emitted(result) == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    header = r.header()
    assert header["ops_attempted"] == result["attempted"]
    assert header["blas_threads"] <= header["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_counts_as_failed(workload):
    reference = copy.deepcopy(REFERENCE)
    ref = reference[workload]
    # the first fixed op, or else every item of the first pool a tiny
    # round draws once from
    first_pool = next(iter(workloads.Plan(workload, 3, ref, tiny=True).draws))
    targets = ref["fixed"][:1] or [e for item in ref["pools"][first_pool]
                                   for e in item]
    for entry in targets:
        want = entry["expect"]
        if "digest" in want:
            want["digest"] = "0" * len(want["digest"])
        else:
            want["p"] = bump(want["p"])
    r = tiny_run(workload, reference=reference)
    result = r.result()
    assert not result["correct"]
    assert result["failed"] == r.rounds  # one tampered op per round
    assert r.header()["failed_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    r = tiny_run(workload, trace=True, trace_dir=tmp_path)
    result = r.result()
    assert result["correct"], r.failures
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert emitted(result) == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert list(tmp_path.glob("trace-*.jsonl.gz"))


def test_cli_session_trace_sees_the_layers():
    r = tiny_run("cli-session", trace=True)
    m = {k: v["value"] for k, v in r.result()["metrics"].items()}
    assert m["cli.main.calls"] > 0 and m["alcove.facet_of.calls"] > 0
    assert m["weylaff.point_reflection_subgroup.repeat_ratio"] > 0
    assert 0 < m["weylaff.star_contains.hit_ratio"] <= 1
    # set-up enumerates W(A2), W(B2), W(G2) and W(A3)
    assert m["rootdata.weyl_group.elements"] == 6 + 8 + 12 + 24


def test_refuses_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(
                path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_op_past_its_deadline_is_killed(monkeypatch):
    monkeypatch.setattr(run, "OP_DEADLINE_S", 1e-4)
    r = tiny_run("wp-cubic")
    result = r.result()
    # the first op is killed and fails; the rest are not attempted
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert not result["correct"]
    assert r.child.proc.returncode is not None


def test_special_share_follows_the_draws():
    plan = workloads.Plan("rank4-points", 1, REFERENCE["rank4-points"])
    assert plan.special_share() == 2 / 28
    plan.draws["special-F4"] += 2
    assert plan.header()["special_share"] == 4 / 30
    assert workloads.Plan("wp-cubic", 1, REFERENCE["wp-cubic"]) \
        .special_share() is None


def test_times_are_scaled_by_the_probes():
    # two work slices of 0.1 s around one inner probe (1 ms); the probes
    # before and after took 2 ms and 1 ms
    raw, scaled = calibrate.scale([0.0, 0.1, 0.101, 0.201],
                                  [2.0, 1.0, 1.0], 1.0)
    assert raw == pytest.approx(0.2)
    # a slice between probes of 2 and 1 ms ran at 2/3 of reference speed
    assert scaled == pytest.approx(0.1 * 2 / 3 + 0.1)
    clock = calibrate.Clock("exact")
    with clock:
        time.sleep(0.2)
    assert clock.probes >= 4
    assert clock.raw_ms < 200  # the probes are left out
    assert clock.ms > 0
    r = tiny_run("cli-session")
    header = r.header()
    assert len(r.raw_op_ms) == len(r.op_ms) == header["ops_timed"]
    assert len(header["raw_setups_s"]) == len(header["setups_s"])
    assert all(n > 0 for n in header["calibration"]["probes_in_setups"])
    assert header["calibration"]["ops_probe_median_ms"] > 0
