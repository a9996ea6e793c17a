#!/usr/bin/env python3
"""Time the in-process solve and audit; write BENCH_<LABEL>.json in the current directory.

Usage: python scripts/bench.py LABEL [--rounds N]

Four rows: the 500-seed acceptance corpus, solved instance by instance in
seed order, and three ladder instances,
``GenParams(n, T, k, density=3/10, root_bias=2, seed=1)`` at (120, 40, 3),
(200, 60, 3) and (300, 90, 3).  Each row's instances are generated once,
then written with ``instance_to_json``; each round parses those texts
with ``parse_instance``, solves the instances and audits their reports,
in this process, ``--rounds`` times (default 5).  Per row the file holds
the wall time of that one generation (``generate_s``), the wall time of
one ``require_feasible`` over the row's instances (``feasible_s``: the
every-copy feasibility check that generation runs per draw; the solver
and brute force run it only on an infeasible instance), the median over the rounds of the parse wall
time (``parse_s``), the median over the rounds of the wall time of
``report_from_doc(load_object(...))`` over the row's report texts
(``report_parse_s``: the report read ``verify`` starts with), the
``solve`` wall-time median, min and max over the
rounds, the median over the rounds of the wall time of
``audit_run(inst, report)`` over the row's reports (``verify_s``: no
optimum, no density replay), the median over the rounds of the wall time
of ``brute_force_opt(inst, incumbent=report.solution)`` over the
row's instances (``brute_s``: the exact optimum as ``verify --brute`` runs
it, seeded with the greedy's selection; ``null`` on a row with an instance
over brute force's 22-unit cap, which is every ladder row), the total
cost, and the sha256 of the report bytes ``dump_json(report_to_doc(...))``,
concatenated in seed order for the corpus as the acceptance test C10
hashes them.  Every round must give the same bytes; a round that does not
exits 1.  The times are uncalibrated wall time of the host it runs on.
"""

import argparse
import hashlib
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rkec.cli import _write  # noqa: E402
from rkec.exact import brute_force_opt  # noqa: E402
from rkec.flows import require_feasible  # noqa: E402
from rkec.generate import GenParams, default_corpus_params, generate_instance  # noqa: E402
from rkec.instance import dump_json, instance_to_json, load_object, parse_instance  # noqa: E402
from rkec.solver import report_from_doc, report_to_doc, solve  # noqa: E402
from rkec.verify import audit_run  # noqa: E402

LADDER = ((120, 40, 3), (200, 60, 3), (300, 90, 3))


def rows() -> list[tuple[str, list[GenParams]]]:
    """(row name, its instances' parameters in solve order) for every row."""
    out = [("corpus", [default_corpus_params(s) for s in range(1, 501)])]
    for n, t, k in LADDER:
        params = GenParams(n, t, k, density=Fraction(3, 10), root_bias=2, seed=1)
        out.append((f"ladder-{n}-{t}-{k}", [params]))
    return out


def _rounds(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("label")
    parser.add_argument("--rounds", type=_rounds, default=5)
    args = parser.parse_args(argv)

    out = []
    for name, params in rows():
        t0 = time.perf_counter()
        instances = [generate_instance(p) for p in params]
        generate_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for inst in instances:
            require_feasible(inst)
        feasible_s = time.perf_counter() - t0
        texts = [instance_to_json(inst) for inst in instances]
        brute = all(inst.positive_unit_count <= 22 for inst in instances)
        parse_times, report_times, times, verify_times, brute_times, digests = [], [], [], [], [], set()
        for _ in range(args.rounds):
            t0 = time.perf_counter()
            for text in texts:
                parse_instance(text)
            parse_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            reports = [solve(inst) for inst in instances]
            times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for inst, report in zip(instances, reports):
                audit_run(inst, report)
            verify_times.append(time.perf_counter() - t0)
            if brute:
                t0 = time.perf_counter()
                for inst, report in zip(instances, reports):
                    brute_force_opt(inst, incumbent=report.solution)
                brute_times.append(time.perf_counter() - t0)
            report_texts = [dump_json(report_to_doc(report)) for report in reports]
            digest = hashlib.sha256()
            for text in report_texts:
                digest.update(text.encode())
            digests.add(digest.hexdigest())
            t0 = time.perf_counter()
            for text in report_texts:
                report_from_doc(load_object(text, "solve report"))
            report_times.append(time.perf_counter() - t0)
        if len(digests) != 1:
            print(f"{name}: the rounds gave {len(digests)} different reports", file=sys.stderr)
            return 1
        row = {
            "name": name,
            "instances": len(instances),
            "generate_s": generate_s,
            "feasible_s": feasible_s,
            "parse_s": statistics.median(parse_times),
            "report_parse_s": statistics.median(report_times),
            "wall_s": {
                "median": statistics.median(times), "min": min(times), "max": max(times),
            },
            "verify_s": statistics.median(verify_times),
            "brute_s": statistics.median(brute_times) if brute else None,
            "cost": str(sum(r.solution.total_cost for r in reports)),
            "report_sha256": digests.pop(),
        }
        out.append(row)
        print(f"{name}: median {row['wall_s']['median']:.3f} s over {args.rounds} rounds, "
              f"verify {row['verify_s']:.3f} s, "
              + (f"brute {row['brute_s']:.3f} s, " if brute else "")
              + f"parse {row['parse_s']:.4f} s, report parse {row['report_parse_s']:.4f} s, "
              f"generated in {generate_s:.3f} s, feasible in {feasible_s:.3f} s, "
              f"cost {row['cost']}, "
              f"sha256 {row['report_sha256'][:8]}")

    doc = {
        "label": args.label,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "rows": out,
    }
    path = Path(f"BENCH_{args.label}.json")
    _write(path, dump_json(doc))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
