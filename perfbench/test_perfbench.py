"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

They run truncated pools (``limit``) with no time budget beyond one pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"corpus": 12, "midsize": 1, "wide": 1}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=1, seconds=0, trace=False, limit=SMALL[workload])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMALL[workload]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["corpus", "midsize"])
def test_traced_runs_repeat_their_counts(workload):
    first, second = (
        run.run(workload, seed=seed, seconds=0, trace=True, limit=SMALL[workload])
        for seed in (1, 2)
    )
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == _units("per_layer")

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}

    assert counts(first) == counts(second)
    assert counts(first)["greedy.pairs_priced"] > 0
    assert counts(first)["rings.mvs.calls"] > 0
    assert counts(first)["flows.calls.rings"] > 0
    assert (counts(first)["exact.brute.calls"] > 0) == (workload == "corpus")


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer(keep_spans=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    calls, total, self_s = tracer.totals["outer"]
    assert calls == 1
    assert self_s == pytest.approx(total - tracer.totals["inner"][1])
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert inner_parent == outer_id and outer_parent is None


def test_failed_verify_fails_the_run(monkeypatch):
    real_main = run.cli.main

    def failing_verify(argv):
        return run.cli.EXIT_VIOLATION if argv[0] == "verify" else real_main(argv)

    monkeypatch.setattr(run.cli, "main", failing_verify)
    result = run.run("corpus", seed=1, seconds=0, trace=False, limit=3)
    assert result == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}


def test_report_check_recomputes_cost():
    workdir = run.WORK / "test-report-check"
    try:
        items = run.write_items(run.draw(run.WORKLOADS["corpus"], limit=1)[0], workdir)
        item = items[0]
        assert run.cli.main(["solve", "--instance", item.instance_path,
                             "--out", item.report_path, "--no-timestamp"]) == 0
        doc = json.loads(open(item.report_path).read())
        assert run.check_report(item, json.dumps(doc).encode()) > 0
        doc["solution"]["total_cost"] = "1/3"
        with pytest.raises(ValueError, match="recomputed"):
            run.check_report(item, json.dumps(doc).encode())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_exits_nonzero_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
