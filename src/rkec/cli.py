"""Command-line surface: generate, solve, brute-force, verify, bench.

Exit codes: 0 ok, 2 parse failure (or an unreadable or unwritable file),
3 infeasible, 4 audit violation, 5 size refusal.

Every output goes through ``_write``.  ``--out -`` (the default) is stdout.
An existing ``--out`` file is written over in place and then cut at the end
of the new text: it keeps its inode, its mode, any hard link, and a symlink
keeps pointing where it did, with the old file's longer tail removed.  A
missing directory, a directory given as ``--out`` or a permission error
raises ``OSError`` (exit 2).  The file is not truncated to zero first
because on ext4 a file truncated to zero and rewritten, or renamed over an
existing file, is flushed on close (``auto_da_alloc``), several times the
cost of writing in place (README.md has the timings).  The cost: a reader
that opens the file while it is rewritten may see new bytes followed by old
ones.  No output is fsynced.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path

from .exact import brute_force_opt
from .generate import GenParams, generate_instance
from .instance import (
    InfeasibleError,
    ParseError,
    SizeRefusalError,
    connectivity_to_doc,
    dump_json,
    frac_from_obj,
    instance_to_json,
    load_object,
    parse_instance,
    solution_from_doc,
    solution_to_doc,
)
from .solver import report_from_doc, report_to_doc, solve
from .verify import audit_run, audit_to_doc, check_feasible

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATION = 4
EXIT_SIZE = 5


def _write(path: str | Path, text: str):
    """Write ``text`` over ``path`` in place (see the module docstring), or to
    stdout for ``-``.  Only a regular file is cut at the end of ``text``:
    ``ftruncate`` on a device such as ``/dev/null`` raises ``EINVAL``."""
    if path == "-":
        sys.stdout.write(text)
        return

    def in_place(name, flags):
        return os.open(name, flags & ~os.O_TRUNC, 0o666)

    with open(path, "w", opener=in_place) as out:
        out.write(text)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()


def _envelope(kind: str, payload: dict, no_timestamp: bool) -> str:
    doc = {"kind": kind}
    if not no_timestamp:
        doc["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc.update(payload)
    return dump_json(doc)


def cmd_gen(args) -> int:
    params = GenParams(
        nodes=args.nodes,
        terminals=args.terminals,
        k=args.k,
        density=frac_from_obj(args.density),
        cost_lo=args.cost_lo,
        cost_hi=args.cost_hi,
        seed=args.seed,
        mode=args.mode,
        base_level=args.base_level,
        max_units=args.max_units,
    )
    inst = generate_instance(params)
    _write(args.out, instance_to_json(inst))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = parse_instance(Path(args.instance).read_text())
    report = solve(inst, prune=args.prune)
    payload = report_to_doc(report)
    _write(args.out, _envelope("solve-report", payload, args.no_timestamp))
    print(
        f"solved: cost {report.solution.total_cost}, "
        f"{len(payload['phases'])} phase(s), {len(report.solution.audit)} iteration(s)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_brute(args) -> int:
    inst = parse_instance(Path(args.instance).read_text())
    sol = brute_force_opt(inst, max_units=args.max_brute_edges)
    _write(args.out, _envelope("solution", solution_to_doc(sol), args.no_timestamp))
    print(f"optimum: cost {sol.total_cost}", file=sys.stderr)
    return EXIT_OK


def _read_doc(path: str) -> dict:
    """A JSON object document with its envelope keys (kind, created) removed."""
    doc = load_object(Path(path).read_text(), "document", f"{path}: ")
    doc.pop("kind", None)
    doc.pop("created", None)
    return doc


def _read_optimum(inst, path: str):
    """The optimum an ``--opt`` file claims, checked like any selection: it
    must be offered by the instance, feasible, and equal its rebuild."""
    opt = solution_from_doc(_read_doc(path))
    rebuilt = check_feasible(inst, opt)
    if not rebuilt.feasible:
        raise ParseError(f"{path}: the optimum's selection is infeasible")
    recorded, expected = solution_to_doc(opt), solution_to_doc(rebuilt)
    for name, value in recorded.items():
        if value != expected[name]:
            verb = "costs" if name == "total_cost" else "gives"
            raise ParseError(f"{path}: {name} {value} but the selection {verb} {expected[name]}")
    return opt


def _optimum(inst, args, rebuilt):
    """The exact optimum ``--opt`` names or ``--brute`` finds, starting from
    the report's feasible ``rebuilt`` solution, else None."""
    if args.opt:
        return _read_optimum(inst, args.opt)
    if not args.brute:
        return None
    return brute_force_opt(inst, max_units=args.max_brute_edges, incumbent=rebuilt)


def _short_audit(args, rebuilt, solution) -> int:
    """Write the short audit of ``solution`` off its rebuild; returns the exit code."""
    ok = rebuilt == solution
    payload = {"feasible": rebuilt.feasible, "recorded_ok": ok,
               "connectivity": connectivity_to_doc(rebuilt.connectivity)}
    _write(args.out, _envelope("audit-report", payload, args.no_timestamp))
    return EXIT_INFEASIBLE if not rebuilt.feasible else EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify(args) -> int:
    if args.solution:
        for flag, given in (
            ("--opt", args.opt is not None),
            ("--brute", args.brute),
            ("--density-max-units", args.density_max_units is not None),
        ):
            if given:
                raise ParseError(
                    f"{flag} needs --report: a bare --solution is only compared with its rebuild"
                )
    inst = parse_instance(Path(args.instance).read_text())
    if args.solution:
        solution = solution_from_doc(_read_doc(args.solution))
        return _short_audit(args, check_feasible(inst, solution), solution)

    run = report_from_doc(_read_doc(args.report))
    optimum = functools.partial(_optimum, inst, args)
    audit = audit_run(inst, run, optimum, density_max_units=args.density_max_units)
    if not audit.rebuilt.feasible:
        return _short_audit(args, audit.rebuilt, run.solution)
    _write(args.out, _envelope("audit-report", audit_to_doc(audit), args.no_timestamp))
    return EXIT_OK if audit.clean else EXIT_VIOLATION


def cmd_bench(args) -> int:
    if not Path(args.corpus).is_dir():
        raise ParseError(f"--corpus {args.corpus}: not a directory")
    corpus = sorted(Path(args.corpus).glob("*.json"))
    rows = []
    ratios: list[Fraction] = []
    worst = EXIT_OK
    for path in corpus:
        row = {"file": path.name}
        try:
            inst = parse_instance(path.read_text())
        except (ParseError, OSError, UnicodeDecodeError) as exc:
            row["status"] = f"parse error: {exc}"
            worst = max(worst, EXIT_PARSE)
            rows.append(row)
            continue
        row["units"] = inst.positive_unit_count
        try:
            report = solve(inst)
        except InfeasibleError as exc:
            row["status"] = f"infeasible: terminal {exc.terminal}"
            worst = max(worst, EXIT_INFEASIBLE)
            rows.append(row)
            continue
        row["cost"] = str(report.solution.total_cost)
        opt = None
        if row["units"] <= args.max_brute_edges:
            opt = brute_force_opt(
                inst, max_units=args.max_brute_edges, incumbent=report.solution
            )
            row["opt"] = str(opt.total_cost)
        else:
            row["opt"] = None
        audit = audit_run(inst, report, lambda _: opt)
        if not audit.clean:
            row["status"] = "audit violation"
            worst = max(worst, EXIT_VIOLATION)
        else:
            row["status"] = "ok" if opt is not None else "ok (brute skipped)"
        if audit.ratio is not None:
            ratios.append(audit.ratio)
            row["ratio"] = str(audit.ratio)
        rows.append(row)

    summary = {"instances": rows, "ratio_summary": _ratio_summary(ratios)}
    _write(args.out, _envelope("bench-summary", summary, args.no_timestamp))
    ratio = summary["ratio_summary"]
    line = f"ratios: n={ratio['count']}"
    if ratios:
        line += f" min={ratio['min']} max={ratio['max']} mean={ratio['mean']:.4f}"
    print(line, file=sys.stderr)
    return worst


def _ratio_summary(ratios: list[Fraction]) -> dict:
    if not ratios:
        return {"count": 0}
    return {
        "count": len(ratios),
        "min": str(min(ratios)),
        "max": str(max(ratios)),
        "mean": float(sum(ratios) / len(ratios)),
        "at_optimum": sum(1 for r in ratios if r == 1),
    }


def _size_cap(text: str) -> int:
    """A size cap: an integer that is not negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: building it costs
    about as much as solving a corpus instance.  ``parse_args`` returns a
    fresh namespace per call, so calls share no state.  An option several
    subcommands take is declared once, on a parent parser."""
    parser = argparse.ArgumentParser(
        prog="rkec",
        description="Rooted subset k-edge-connectivity solver and audit tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out, stamp, instance, brute_cap = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", default="-")
    stamp.add_argument("--no-timestamp", action="store_true")
    instance.add_argument("--instance", required=True)
    brute_cap.add_argument("--max-brute-edges", type=_size_cap, default=22)

    gen = sub.add_parser("gen", parents=[out], help="generate a random instance")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--terminals", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--density", default="1/2", help="arc probability, e.g. 2/5")
    gen.add_argument("--cost-lo", type=int, default=1)
    gen.add_argument("--cost-hi", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=["quasi-bipartite", "augmentation"],
                     default="quasi-bipartite")
    gen.add_argument("--base-level", type=int, default=0)
    gen.add_argument("--max-units", type=_size_cap, default=None)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", parents=[instance, out, stamp],
                         help="run the approximation solver")
    slv.add_argument("--prune", action="store_true")
    slv.set_defaults(func=cmd_solve)

    brt = sub.add_parser("brute", parents=[instance, out, brute_cap, stamp],
                         help="exact optimum by branch and bound")
    brt.set_defaults(func=cmd_brute)

    ver = sub.add_parser("verify", parents=[instance, out, brute_cap, stamp],
                         help="audit a solution or solve report")
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--report", help="solve-report JSON to audit")
    group.add_argument("--solution", help="bare solution JSON to feasibility-check")
    optimum = ver.add_mutually_exclusive_group()
    optimum.add_argument("--opt", help="known optimum solution JSON")
    optimum.add_argument("--brute", action="store_true", help="brute-force the optimum")
    ver.add_argument("--density-max-units", type=_size_cap, default=None)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", parents=[out, brute_cap, stamp],
                         help="solve and audit a corpus directory")
    ben.add_argument("--corpus", required=True)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleError):
            return EXIT_INFEASIBLE
        return EXIT_SIZE if isinstance(exc, SizeRefusalError) else EXIT_PARSE


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
