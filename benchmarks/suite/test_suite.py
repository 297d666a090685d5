"""Tests of the benchmark itself (tracer, checks, output contract).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite``.  Every
test uses the ``--smoke`` toy scale, so the file takes seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracer_mod
import workloads
from tracer import Tracer, layer_metrics, patch_points, round_table

SUITE = Path(__file__).resolve().parent
BENCHMARK = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    kernel = t.wrap(lambda: clock.tick(1.0), "k", is_span=False)
    with t.span("run"):
        clock.tick(1.0)
        with t.span("a"):  # [1, 4], holds kernel [2, 3]
            clock.tick(1.0)
            kernel()
            clock.tick(1.0)
        clock.tick(1.0)
        t.begin_round(7)
        with t.span("b"):  # [5, 9], holds c [6, 8]
            clock.tick(1.0)
            with t.span("c"):
                clock.tick(2.0)
            clock.tick(1.0)
        t.end_round()
        clock.tick(1.0)
    spans = {s[1]: s for s in t.spans}
    assert spans["run"][2:4] == (0.0, 10.0)
    assert spans["run"][6] == pytest.approx(3.0)
    assert spans["a"][6] == pytest.approx(2.0)
    assert spans["b"][6] == pytest.approx(2.0)
    assert spans["c"][6] == pytest.approx(2.0)
    assert spans["c"][4] == spans["b"][0]
    assert spans["b"][4] == spans[tracer_mod.ROUND][0]
    assert spans["b"][5] == spans["c"][5] == 7
    assert spans["a"][5] is None
    assert t.folded == {(spans["a"][0], "k"): [1, 1.0, 1.0]}
    # Self times partition the root span exactly.
    own = sum(s[6] for s in t.spans) + sum(acc[2] for acc in t.folded.values())
    assert own == pytest.approx(10.0)
    rows = {row["round"]: row for row in round_table(t)}
    assert rows[7]["wall_ms"] == pytest.approx(4000.0)


def test_nested_kernels_subtract_from_each_other():
    clock = FakeClock()
    t = Tracer(clock)
    inner = t.wrap(lambda: clock.tick(2.0), "inner", is_span=False)

    def outer_body():
        clock.tick(1.0)
        inner()

    outer = t.wrap(outer_body, "outer", is_span=False)
    with t.span("run"):
        outer()
    root = t.spans[0][0]
    assert t.folded[(root, "outer")] == [1, 3.0, 1.0]
    assert t.folded[(root, "inner")] == [1, 2.0, 2.0]
    assert t.spans[0][6] == pytest.approx(0.0)


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr in patch_points()}


def test_wrappers_removed_after_traced_run():
    before = _originals()
    rep = run.Rep("population-100k", 0, smoke=True, traced=True)
    assert not rep.failures
    assert rep.tracer.spans, "the traced run recorded nothing"
    assert _originals() == before


def test_wrappers_removed_when_the_run_raises():
    before = _originals()
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_smoke_runs_agree(name):
    plain = run.Rep(name, 0, smoke=True, traced=False)
    traced = run.Rep(name, 0, smoke=True, traced=True)
    assert plain.check(None) == traced.check(None)
    assert plain.failures == [] and traced.failures == []
    assert traced.outcome.signature() == plain.outcome.signature()
    metrics = layer_metrics(traced.tracer, traced.outcome)
    assert metrics["trace.accounted_pct"] > 90.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_printed_metrics_are_declared(name, trace, capsys):
    assert run.main(["--smoke", "--workload", name, "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for key, value in result["metrics"].items():
        assert NAME.match(key) and len(key) <= 64
        assert isinstance(value["value"], float) and value["value"] == value["value"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_suite():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_pins_cover_seeds_zero_and_one():
    expected = run.load_expected()
    for name in workloads.WORKLOADS:
        for seed in ("0", "1"):
            pins = expected[name][seed]
            assert re.fullmatch(r"[0-9a-f]{64}", pins["federation_sha256"])


def test_changed_numerics_are_a_note_in_range_and_a_failure_outside():
    name = "fedclust-lenet5"
    outcome = run.Rep(name, 0, smoke=True, traced=False).outcome
    pins = {
        "uploaded": outcome.uploaded,
        "downloaded": outcome.downloaded,
        "n_clusters": outcome.n_clusters,
        "final_accuracy": outcome.final_accuracy + 0.01,
    }
    assert workloads.check_outcome(name, outcome, pins) == []
    assert any("numerics changed: final_accuracy" in n for n in outcome.notes)
    pins["final_accuracy"] = outcome.final_accuracy + 0.06
    assert workloads.check_outcome(name, outcome, pins)
    pins["final_accuracy"] = outcome.final_accuracy
    pins["n_clusters"] = outcome.n_clusters % 10 + 1
    assert workloads.check_outcome(name, outcome, pins) == []
    assert any("numerics changed: n_clusters" in n for n in outcome.notes)
    pins["uploaded"] += 1
    assert workloads.check_outcome(name, outcome, pins)
    pins["uploaded"] -= 1
    outcome.n_clusters = workloads.WORKLOADS[name].max_clusters + 1
    assert workloads.check_outcome(name, outcome, pins)


def test_exits_nonzero_without_the_program(tmp_path):
    root = SUITE.parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "population-100k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
