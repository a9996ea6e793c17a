#!/usr/bin/env python3
"""Closed-loop benchmark of the rkec user path: ``solve`` then ``verify``.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One caller, one thread: each instance is solved through ``rkec.cli.main``
(``solve --no-timestamp``), and the report it wrote is checked by ``rkec
verify`` before the next instance starts.  Calls stay in-process because
interpreter start-up would swamp a 5 ms solve.  Set-up generates the
workload's instance files into a scratch directory inside the checkout; rkec
only ever reads those files.

Passes over the pool repeat, in an order shuffled by ``--seed``, until
``--seconds`` have elapsed (the first pass always completes).  Times are
calibrated against a machine-speed probe (see calibrate.py), and each
instance keeps the median of its calibrated timings.  With ``--trace 1``
untraced and traced passes alternate and the per-layer figures come from the
traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every output check passed.  perfbench/README.md lists the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

if not (SRC / "rkec" / "cli.py").is_file():
    raise SystemExit(f"perfbench: rkec sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from rkec import cli  # noqa: E402
from rkec.generate import generate_instance  # noqa: E402
from rkec.instance import Instance, instance_to_json  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p98": "ms",
    "verify_s": "s",
    "verify_ms_p50": "ms",
    "cost_sum": "cost",
    "peak_rss_mb": "MB",
}


@dataclass
class Item:
    name: str
    inst: Instance
    instance_path: str
    report_path: str
    audit_path: str


@dataclass
class Visit:
    """One solve + verify of one instance."""

    name: str
    solve: calibrate.Call
    verify: calibrate.Call


@dataclass
class Results:
    visits: list[Visit] = field(default_factory=list)
    reports: dict[str, bytes] = field(default_factory=dict)
    costs: dict[str, Fraction] = field(default_factory=dict)
    ratios: dict[str, Fraction] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def draw(workload: Workload, limit: int | None = None):
    """Generate and serialize the pool: ([(name, instance, json)], seconds
    spent inside ``generate_instance``)."""
    drawn = []
    generate_s = 0.0
    for params in workload.params[:limit]:
        start = perf_counter()
        inst = generate_instance(params)
        generate_s += perf_counter() - start
        drawn.append((f"{workload.name}-{params.seed:04d}", inst, instance_to_json(inst)))
    return drawn, generate_s


def write_items(drawn, workdir: Path) -> list[Item]:
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for stem, inst, text in drawn:
        path = workdir / f"{stem}.json"
        path.write_text(text)
        items.append(Item(
            stem, inst, str(path),
            str(workdir / f"{stem}.report.json"), str(workdir / f"{stem}.audit.json"),
        ))
    return items


def call_cli(argv: list[str], tracer: spans.Tracer | None):
    """Run one ``rkec`` command in-process: (timed call, exit code, stderr)."""
    err = io.StringIO()
    with redirect_stderr(err), calibrate.timed() as timer:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli"):
                code = cli.main(argv)
    return timer.call, code, err.getvalue()


def check_report(item: Item, data: bytes) -> Fraction:
    """Recompute the report's cost from the instance; returns the cost."""
    solution = json.loads(data)["solution"]
    if not solution["feasible"]:
        raise ValueError("report claims an infeasible solution")
    cost = Fraction(0)
    for eid, count in solution["selected"]:
        edge = item.inst.edge_by_id.get(eid)
        if edge is None or edge.cost == 0 or not 1 <= count <= edge.mult:
            raise ValueError(f"selection ({eid}, {count}) is not a purchasable edge")
        cost += edge.cost * count
    if cost != Fraction(solution["total_cost"]):
        raise ValueError(f"recorded cost {solution['total_cost']} != recomputed {cost}")
    return cost


def run_item(item: Item, workload: Workload, results: Results, tracer=None) -> None:
    """Solve one instance, verify the report, and record timings and checks."""
    results.attempted += 1
    if tracer is not None:
        tracer.instance = item.name
    try:
        solve, code, err = call_cli(
            ["solve", "--instance", item.instance_path, "--out", item.report_path,
             "--no-timestamp"], tracer)
        if code != 0:
            raise ValueError(f"solve exited {code}: {err.strip()}")
        data = Path(item.report_path).read_bytes()
        if results.reports.setdefault(item.name, data) != data:
            raise ValueError("solve report differs from an earlier pass")
        cost = check_report(item, data)

        argv = ["verify", "--instance", item.instance_path, "--report", item.report_path,
                "--out", item.audit_path, "--no-timestamp"]
        if workload.brute:
            argv.append("--brute")
        verify, code, err = call_cli(argv, tracer)
        if code != 0:
            raise ValueError(f"verify exited {code}: {err.strip()}")
        audit = json.loads(Path(item.audit_path).read_text())
        if not audit["clean"]:
            raise ValueError("audit is not clean")
        if workload.brute:
            if audit["bound_holds"] is not True:
                raise ValueError("ratio bound not decided as holding")
            # A zero optimum (and zero cost) has no meaningful ratio.
            if audit["ratio"] not in (None, "0"):
                results.ratios[item.name] = Fraction(audit["ratio"])
    except Exception:  # noqa: BLE001 - every failure is recorded and counted
        results.failures.append(f"{item.name}: {traceback.format_exc(limit=3).strip()}")
        return
    results.costs[item.name] = cost
    results.visits.append(Visit(item.name, solve, verify))


def run_pass(items, workload, results, rng, deadline=None, tracer=None) -> list[Visit]:
    """Visit the pool once in a seeded order, stopping early at the deadline;
    returns the visits this pass recorded."""
    first = len(results.visits)
    order = list(items)
    rng.shuffle(order)
    for item in order:
        if deadline is not None and perf_counter() >= deadline:
            break
        run_item(item, workload, results, tracer)
    return results.visits[first:]


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_instance(visits: list[Visit], which: str, sampler) -> list[float]:
    """Median calibrated seconds of each instance's ``solve`` or ``verify``."""
    samples: dict[str, list[float]] = {}
    for visit in visits:
        samples.setdefault(visit.name, []).append(sampler.seconds(getattr(visit, which)))
    return [statistics.median(v) for v in samples.values()]


def end_to_end(results: Results, sampler, setup_s: float) -> dict[str, float]:
    solve = per_instance(results.visits, "solve", sampler)
    verify = per_instance(results.visits, "verify", sampler)
    return {
        "setup_s": setup_s,
        "solve_s": sum(solve),
        "solve_ms_p50": 1000 * statistics.median(solve),
        "solve_ms_p98": 1000 * percentile(solve, 98),
        "verify_s": sum(verify),
        "verify_ms_p50": 1000 * statistics.median(verify),
        "cost_sum": float(sum(results.costs.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report_sha256(results: Results) -> str:
    digest = hashlib.sha256()
    for name in sorted(results.reports):
        digest.update(name.encode() + b"\n" + results.reports[name])
    return digest.hexdigest()


def small_probe_scale(visits: list[Visit]) -> float:
    """REF_SMALL_S over the median small probe taken around these visits."""
    probes = [p for v in visits for c in (v.solve, v.verify) for p in (c.before, c.after)]
    return calibrate.REF_SMALL_S / statistics.median(probes)


def solve_wall(visits: list[Visit]) -> float:
    return sum(v.solve.end - v.solve.start for v in visits)


def traced_passes(items, workload, results, rng, deadline, dump_path):
    """Alternate untraced and traced passes while another pair fits before
    the deadline (there is always at least one pair).

    No large probe runs (it would land inside spans): each pass is scaled by
    the median small probe taken around its calls.  Times are the median over
    traced passes, and every count must repeat exactly from one traced pass
    to the next.
    """
    layers: list[dict[str, float]] = []
    untraced: list[float] = []
    traced: list[float] = []
    while True:
        pair_start = perf_counter()
        plain = run_pass(items, workload, results, rng)
        tracer = spans.Tracer(keep_spans=not layers)
        with tracer.installed():
            timed = run_pass(items, workload, results, rng, tracer=tracer)
        if not plain or not timed:
            break  # every visit failed; the failures say why
        scale = small_probe_scale(timed)
        layers.append({
            name: value * scale if spans.layer_unit(name) == "s" else value
            for name, value in spans.layer_metrics(tracer).items()
        })
        untraced.append(solve_wall(plain) * small_probe_scale(plain))
        traced.append(solve_wall(timed) * scale)
        if len(layers) == 1:
            tracer.dump(dump_path)
            print_layers(workload.name, tracer, dump_path)
        if 2 * perf_counter() - pair_start > deadline:
            break  # another pair would overrun the time budget
    if not layers:
        return {}

    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if spans.layer_unit(name) == "s":
            metrics[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            results.failures.append(f"count {name} differs between traced passes: {values}")
        else:
            metrics[name] = values[0]
    plain_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"[{workload.name}] calibrated solve_s untraced {plain_s:.4f} traced {traced_s:.4f}"
          f" tracing overhead {traced_s - plain_s:+.4f} s ({len(layers)} pass pair(s))")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        *, limit: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``limit`` truncates the instance pool (the benchmark's own tests use it).
    """
    workload = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-{seed}"
    rng = random.Random(seed)
    results = Results()
    sampler = calibrate.SpeedSampler()
    try:
        # Set-up time covers the rkec side of set-up: drawing and serializing
        # the instances.  Writing 500 small files took 0.23-0.46 s from one
        # repetition to the next on the reference machine, so it is not timed.
        setups = []
        with sampler.running():
            for _ in range(SETUP_REPEATS):
                with calibrate.timed() as timer:
                    drawn, generate_s = draw(workload, limit)
                setups.append((timer.call, generate_s))
        items = write_items(drawn, workdir)
        setup_s = statistics.median(sampler.seconds(call) for call, _ in setups)
        generate_s = statistics.median(
            g * sampler.seconds(call) / (call.end - call.start) for call, g in setups)

        deadline = perf_counter() + seconds
        if trace:
            OUT.mkdir(exist_ok=True)
            dump_path = OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz"
            metrics = traced_passes(items, workload, results, rng, deadline, dump_path)
            metrics["generate.s"] = generate_s
        else:
            with sampler.running():
                run_pass(items, workload, results, rng)
                while run_pass(items, workload, results, rng, deadline):
                    pass
            metrics = end_to_end(results, sampler, setup_s) if results.visits else {}
            if metrics:
                verify_p98 = percentile(per_instance(results.visits, "verify", sampler), 98)
                print(f"[{workload_name}] verify_ms_p98 {1000 * verify_p98:.4f} ms")
            print_summary(workload_name, results, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in results.failures[:10]:
        print(f"FAILED {failure}")
    correct = not results.failures
    unit = END_TO_END_UNITS.get if not trace else spans.layer_unit
    return {
        "correct": correct,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": ({name: {"value": value, "unit": unit(name)}
                     for name, value in metrics.items()} if correct else {}),
    }


def print_summary(workload_name: str, results: Results, sampler) -> None:
    tag = f"[{workload_name}]"
    passes = results.attempted / max(len(results.reports), 1)
    print(f"{tag} {len(results.reports)} instances, {passes:.2f} passes, "
          f"{results.attempted} solve+verify attempted, {len(results.failures)} failed "
          f"(fail_frac {len(results.failures) / max(results.attempted, 1):.4f})")
    if results.visits:
        wall = sum(sampler.wall(v.solve) + sampler.wall(v.verify) for v in results.visits)
        small = calibrate.REF_SMALL_S / small_probe_scale(results.visits)
        large = statistics.median(sampler.durations or [float("nan")])
        print(f"{tag} uncalibrated solve+verify wall {wall:.3f} s over all passes; median probe"
              f" small {1000 * small:.3f} ms (reference {1000 * calibrate.REF_SMALL_S:.1f}),"
              f" large {1000 * large:.3f} ms (reference {1000 * calibrate.REF_LARGE_S:.1f},"
              f" {len(sampler.durations)} taken)")
    print(f"{tag} report_sha256 {report_sha256(results)}")
    if results.ratios:
        ratios = list(results.ratios.values())
        print(f"{tag} ratio_mean {float(sum(ratios) / len(ratios)):.4f} "
              f"ratio_max {max(ratios)} ({float(max(ratios)):.4f}) over {len(ratios)} "
              f"instances with a positive optimum")


def print_layers(workload_name: str, tracer: spans.Tracer, dump_path: Path) -> None:
    """Per-span table of the first traced pass (uncalibrated seconds)."""
    print(f"[{workload_name}] spans of the first traced pass: {dump_path}")
    if tracer.missing:
        print(f"[{workload_name}] not traced, call site missing: {', '.join(tracer.missing)}")
    print(f"{'span':<24} {'calls':>9} {'total_s':>9} {'self_s':>9}")
    for name, (calls, total, self_s) in sorted(tracer.totals.items()):
        print(f"{name:<24} {calls:>9} {total:>9.4f} {self_s:>9.4f}")
    for name, count in sorted(tracer.counts.items()):
        print(f"{name:<24} {count:>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
