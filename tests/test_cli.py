import json
import re
import time
from fractions import Fraction

import pytest

from rkec import cli
from rkec.cli import build_parser, main
from rkec.generate import default_corpus_params, generate_instance
from rkec.instance import (
    Instance,
    instance_to_json,
    parse_instance,
    selection_from_units,
)

from conftest import INSTANCE_A_JSON
from reference import rebuild_phases


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance_a.json"
    path.write_text(INSTANCE_A_JSON)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--nodes", "6", "--terminals", "2", "--k", "1", "--seed", "1"]
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_gen_plants_a_root_arc_without_a_relay(tmp_path, seed):
    # two nodes leave no relay besides the terminal, so the planted route
    # is the root arc itself (this drew from an empty relay list)
    out = tmp_path / "inst.json"
    assert run("gen", "--nodes", "2", "--terminals", "1", "--k", "2", "--seed", seed,
               "--mode", "augmentation", "--base-level", "1", "--out", out) == 0
    inst = parse_instance(out.read_text())
    assert [(e.tail, e.head) for e in inst.zero_edges] == [(0, 1)]


def test_gen_rejects_bad_params(capsys):
    assert run("gen", "--nodes", "3", "--terminals", "3", "--k", "1") == 2
    assert "error" in capsys.readouterr().err


def test_gen_gives_up_after_its_retry_cap(capsys):
    # no draw is feasible without a positive unit, so every one is rejected
    assert run("gen", "--nodes", "4", "--terminals", "1", "--k", "1", "--max-units", "0") == 2
    assert capsys.readouterr().err == (
        "error: generation retry cap exhausted for seed 0; relax density or caps\n"
    )


@pytest.mark.parametrize("density", ["1/0", "abc", "nan"])
def test_gen_rejects_a_density_that_is_not_a_rational(density, capsys):
    args = ["gen", "--nodes", "6", "--terminals", "2", "--k", "1", "--density", density]
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_negative_cost_is_refused(tmp_path, report_file, capsys, command):
    doc = json.loads(INSTANCE_A_JSON)
    doc["edges"][2]["cost"] = "-1/3"
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    argv = ["--report", report_file] if command == "verify" else []
    assert run(command, "--instance", path, *argv, "--out", tmp_path / "out.json") == 2
    assert capsys.readouterr().err == "error: edge 3 has negative cost\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("zero", ["-0", "0/5"])
def test_a_selected_zero_cost_edge_is_refused_however_it_is_spelled(tmp_path, capsys, zero):
    inst = tmp_path / "inst.json"
    inst.write_text(TWO_ARC_JSON.replace('"cost": "0"', f'"cost": "{zero}"'))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({
        "kind": "solution", "selected": [[1, 1]], "total_cost": "0",
        "connectivity": {}, "feasible": True,
    }))
    code = run("verify", "--instance", inst, "--solution", sol, "--out", tmp_path / "a.json")
    assert code == 2
    assert capsys.readouterr().err == "error: selected edge 1 costs zero and is always present\n"


def test_an_exponent_cost_is_refused_before_it_is_expanded(tmp_path, capsys):
    # Fraction would build 10**100000000 itself, past any digit limit
    doc = json.loads(INSTANCE_A_JSON)
    doc["edges"][0]["cost"] = "1e-100000000"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: not a rational: '1e-100000000'\n"


def _no_solve(*args, **kwargs):
    raise AssertionError("the solve started")


_HUGE = "7" * 3000  # 3,000 digits: each cost parses, under the 4,300-digit limit


@pytest.mark.parametrize("costs", [
    # a common denominator of some 6,000 digits
    [f"1/{_HUGE}", f"1/{'3' * 2999}1"],
    # a writable denominator, but an edge of some 5,000 scaled digits
    [f"{_HUGE}", f"1/{'3' * 1999}1"],
])
def test_costs_too_long_to_write_are_refused_at_parse(tmp_path, capsys, monkeypatch, costs):
    # such an instance used to solve and then fail at the report write; the
    # parse refuses it (exit 2), so the solve never starts
    doc = {"n": 2, "root": 0, "terminals": [1], "k": 2, "edges": [
        {"id": i, "tail": 0, "head": 1, "cost": cost} for i, cost in enumerate(costs, start=1)
    ]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr("rkec.cli.solve", _no_solve)
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the costs' common denominator or total is too long: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_many_long_denominators_are_refused_at_once(tmp_path, capsys, monkeypatch):
    # 200 edges with distinct 4,000-digit denominators, pairwise coprime: the
    # common denominator is too long to write from the second edge on, and
    # the parse refuses it there rather than after multiplying in all 200
    base = 10**3999
    doc = {"n": 2, "root": 0, "terminals": [1], "k": 1, "edges": [
        {"id": i, "tail": 0, "head": 1, "cost": f"1/{base + 2 * i + 1}"} for i in range(200)
    ]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr("rkec.cli.solve", _no_solve)
    start = time.perf_counter()
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: the costs' common denominator or total is too long: ")


def test_a_long_single_cost_still_solves(tmp_path):
    doc = {"n": 2, "root": 0, "terminals": [1], "k": 1, "edges": [
        {"id": 1, "tail": 0, "head": 1, "cost": f"1/{_HUGE}"}]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run("solve", "--instance", path, "--out", out, "--no-timestamp") == 0
    assert json.loads(out.read_text())["solution"]["total_cost"] == f"1/{_HUGE}"


def test_solve_fixture(instance_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("solve", "--instance", instance_file, "--out", out, "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "solve-report"
    assert doc["solution"]["total_cost"] == "4"
    assert "created" not in doc
    assert "cost 4" in capsys.readouterr().err


def test_solve_deterministic_bytes(instance_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run("solve", "--instance", instance_file, "--out", out1, "--no-timestamp")
    run("solve", "--instance", instance_file, "--out", out2, "--no-timestamp")
    assert out1.read_bytes() == out2.read_bytes()


def test_brute_fixture(instance_file, tmp_path):
    out = tmp_path / "opt.json"
    assert run("brute", "--instance", instance_file, "--out", out, "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    assert doc["total_cost"] == "4"


def test_brute_size_refusal(instance_file, tmp_path):
    assert run(
        "brute", "--instance", instance_file, "--out", tmp_path / "x.json",
        "--max-brute-edges", "2",
    ) == 5


def test_brute_refuses_by_size_before_it_checks_feasibility(tmp_path, capsys):
    # terminal 2 is unreachable and edge 0 -> 1 has 3 copies against a cap
    # of 2: the size refusal (exit 5) comes first, not the infeasibility (3)
    doc = {"n": 3, "root": 0, "terminals": [1, 2], "k": 1,
           "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 3}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "opt.json"
    assert run("brute", "--instance", path, "--out", out, "--max-brute-edges", "2") == 5
    assert "enumeration cap" in capsys.readouterr().err
    assert run("brute", "--instance", path, "--out", out) == 3


def test_solve_infeasible(tmp_path, capsys):
    doc = {"n": 3, "root": 0, "terminals": [1, 2], "k": 1,
           "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 1}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    message = (
        "error: terminal 2 reaches only 0 < 1 edge-disjoint root paths "
        "even with every edge selected\n"
    )
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 3
    assert capsys.readouterr().err == message
    # brute force has no pre-check: its search finds the same witness
    assert run("brute", "--instance", path, "--out", tmp_path / "opt.json") == 3
    assert capsys.readouterr().err == message


def test_parse_error_exit(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 2


@pytest.fixture
def report_file(instance_file, tmp_path):
    path = tmp_path / "report.json"
    assert run("solve", "--instance", instance_file, "--out", path, "--no-timestamp") == 0
    return path


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["solve", "--instance", "{dir}/missing.json", "--out", "{dir}/r.json"],
         "missing.json"),
        (["verify", "--instance", "{instance}", "--report", "{dir}/missing.json"],
         "missing.json"),
        (["verify", "--instance", "{instance}", "--report", "{report}",
          "--opt", "{dir}/missing.json"], "missing.json"),
        (["solve", "--instance", "{instance}", "--out", "{dir}/no-such-dir/r.json"],
         "no-such-dir"),
        (["solve", "--instance", "{instance}", "--out", "{dir}"], "Is a directory"),
    ],
    ids=["instance", "report", "opt", "out-dir", "out-is-a-dir"],
)
def test_unreadable_or_unwritable_file_is_exit_2(instance_file, report_file, tmp_path, capsys,
                                                 argv, missing):
    paths = {"dir": tmp_path, "instance": instance_file, "report": report_file}
    capsys.readouterr()
    assert run(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert "Traceback" not in err


# each command that writes a file, with the flags that make its bytes reproducible
WRITERS = {
    "solve": ["solve", "--instance", "{instance}", "--no-timestamp"],
    "verify": ["verify", "--instance", "{instance}", "--report", "{report}", "--brute",
               "--no-timestamp"],
    "gen": ["gen", "--nodes", "8", "--terminals", "3", "--k", "2", "--seed", "7"],
}


def _written(argv, out, **paths) -> bytes:
    assert run(*(a.format(**paths) for a in argv), "--out", out) == 0
    return out.read_bytes()


@pytest.mark.parametrize("old", ["longer", "shorter", "equal"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_out_over_an_existing_file_holds_exactly_the_new_bytes(
    instance_file, report_file, tmp_path, command, old
):
    # the file is written over in place: its old tail is cut, its inode kept
    paths = {"instance": instance_file, "report": report_file}
    fresh = _written(WRITERS[command], tmp_path / "fresh.json", **paths)
    size = {"longer": 10_000, "shorter": 10, "equal": len(fresh)}[old]
    out = tmp_path / "out.json"
    out.write_bytes(b"#" * size)
    inode = out.stat().st_ino
    assert _written(WRITERS[command], out, **paths) == fresh
    assert out.stat().st_ino == inode


def test_out_through_a_symlink_rewrites_its_target(instance_file, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"#" * 10_000)
    link.symlink_to(target)
    argv = WRITERS["solve"]
    fresh = _written(argv, tmp_path / "fresh.json", instance=instance_file)
    assert _written(argv, link, instance=instance_file) == fresh
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == fresh


def test_out_keeps_the_mode_of_an_existing_file(instance_file, tmp_path):
    out = tmp_path / "out.json"
    out.write_bytes(b"#" * 10_000)
    out.chmod(0o640)
    _written(WRITERS["solve"], out, instance=instance_file)
    assert out.stat().st_mode & 0o7777 == 0o640


def test_out_to_a_character_device_is_not_truncated(instance_file, capsys):
    # ftruncate on /dev/null raises EINVAL: only a regular file is cut
    assert run("solve", "--instance", instance_file, "--out", "/dev/null") == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["brute", "--instance", "{instance}", "--max-brute-edges", "-1"],
    ["verify", "--instance", "{instance}", "--report", "{report}", "--brute",
     "--max-brute-edges", "-1"],
    ["verify", "--instance", "{instance}", "--report", "{report}",
     "--density-max-units", "-5"],
    ["bench", "--corpus", "{dir}", "--max-brute-edges", "-1"],
    ["brute", "--instance", "{instance}", "--max-brute-edges", "2.5"],
    ["gen", "--nodes", "8", "--terminals", "3", "--k", "2", "--seed", "7", "--max-units", "-1"],
    # two sources of the optimum are refused together, before any file is read
    ["verify", "--instance", "{instance}", "--report", "{report}", "--opt", "{report}",
     "--brute"],
], ids=["brute", "verify-brute", "verify-density", "bench", "not-an-integer", "gen",
        "verify-opt-and-brute"])
def test_negative_size_caps_fail_at_parse_time(instance_file, report_file, tmp_path, capsys,
                                                argv):
    paths = {"dir": tmp_path, "instance": instance_file, "report": report_file}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(**paths) for a in argv), "--out", tmp_path / "out.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[-1] == "--brute":
        assert "argument --brute: not allowed with argument --opt" in err
    else:
        assert f"argument {argv[-2]}: {argv[-1]!r} is not a non-negative integer" in err
    assert not (tmp_path / "out.json").exists()


# every subcommand's namespace with each shared option (--out, --no-timestamp,
# --instance, --max-brute-edges) it takes left at its default
_DEFAULTS = {
    "gen": {"command": "gen", "out": "-", "nodes": 5, "terminals": 2, "k": 2, "density": "1/2",
            "cost_lo": 1, "cost_hi": 10, "seed": 0, "mode": "quasi-bipartite",
            "base_level": 0, "max_units": None},
    "solve": {"command": "solve", "instance": "i.json", "out": "-", "prune": False,
              "no_timestamp": False},
    "brute": {"command": "brute", "instance": "i.json", "out": "-", "max_brute_edges": 22,
              "no_timestamp": False},
    "verify": {"command": "verify", "instance": "i.json", "report": "r.json", "solution": None,
               "opt": None, "brute": False, "max_brute_edges": 22, "density_max_units": None,
               "out": "-", "no_timestamp": False},
    "bench": {"command": "bench", "corpus": "c", "out": "-", "max_brute_edges": 22,
              "no_timestamp": False},
}
_REQUIRED = {
    "gen": ["--nodes", "5", "--terminals", "2", "--k", "2"],
    "solve": ["--instance", "i.json"],
    "brute": ["--instance", "i.json"],
    "verify": ["--instance", "i.json", "--report", "r.json"],
    "bench": ["--corpus", "c"],
}
_GIVEN = {"out": "o.json", "no_timestamp": True, "max_brute_edges": 9}


@pytest.mark.parametrize("given", [False, True], ids=["defaults", "given"])
@pytest.mark.parametrize("command", list(_DEFAULTS))
def test_shared_options_parse_the_same_on_every_subcommand(command, given):
    expected = dict(_DEFAULTS[command])
    argv = [command, *_REQUIRED[command]]
    if given:
        for name, value in _GIVEN.items():
            if name in expected:
                expected[name] = value
                flag = "--" + name.replace("_", "-")
                argv += [flag] if value is True else [flag, str(value)]
    args = vars(build_parser().parse_args(argv))
    assert args.pop("func").__name__ == f"cmd_{command}"
    assert args == expected


_FLAGS = {
    "gen": ["--out", "--nodes", "--terminals", "--k", "--density", "--cost-lo", "--cost-hi",
            "--seed", "--mode", "--base-level", "--max-units"],
    "solve": ["--instance", "--out", "--no-timestamp", "--prune"],
    "brute": ["--instance", "--out", "--max-brute-edges", "--no-timestamp"],
    "verify": ["--instance", "--out", "--max-brute-edges", "--no-timestamp", "--report",
               "--solution", "--opt", "--brute", "--density-max-units"],
    "bench": ["--out", "--max-brute-edges", "--no-timestamp", "--corpus"],
}


@pytest.mark.parametrize("command", list(_FLAGS))
def test_each_subcommand_help_lists_each_flag_once(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\n\n", 1)[1]  # what follows the usage
    assert sorted(re.findall(r"(?<![\w-])--[a-z][a-z-]*", options)) == sorted(
        ["--help", *_FLAGS[command]]
    )


def test_calls_in_one_process_share_no_state(instance_file, tmp_path, capsys):
    def solve_bytes(*flags):
        out = tmp_path / "r.json"
        assert run("solve", "--instance", instance_file, "--out", out,
                   "--no-timestamp", *flags) == 0
        return out.read_bytes()

    assert build_parser() is build_parser()
    fresh = solve_bytes()
    assert json.loads(solve_bytes("--prune"))["pruned"] is not None
    assert json.loads(solve_bytes())["pruned"] is None
    with pytest.raises(SystemExit) as exc:
        run("solve", "--no-such-flag")
    assert exc.value.code == 2
    capsys.readouterr()
    assert solve_bytes() == fresh


def test_verify_report_ok(instance_file, tmp_path):
    report = tmp_path / "report.json"
    run("solve", "--instance", instance_file, "--out", report, "--no-timestamp")
    out = tmp_path / "audit.json"
    code = run(
        "verify", "--instance", instance_file, "--report", report,
        "--brute", "--out", out, "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["clean"] is True and doc["ratio"] == "1"


def _units_built(self):
    raise AssertionError("positive units built")


def test_verify_brute_refuses_by_multiplicity(tmp_path, capsys, monkeypatch):
    # one edge of 30 copies: the cap counts them off the multiplicity and
    # refuses with exit 5 before any unit is built
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "root": 0, "terminals": [1], "k": 1, "edges": [
        {"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 30}]}))
    report = tmp_path / "report.json"
    assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
    capsys.readouterr()
    monkeypatch.setattr(Instance, "positive_units", property(_units_built), raising=False)
    code = run("verify", "--instance", inst, "--report", report, "--brute",
               "--out", tmp_path / "audit.json", "--no-timestamp")
    assert code == 5
    assert capsys.readouterr().err == (
        "error: 30 positive edge units exceed the enumeration cap 22\n"
    )


def test_solve_refuses_a_huge_infeasible_instance_without_units(tmp_path, capsys, monkeypatch):
    # terminal 2 is unreachable and edge 0 -> 1 has 10^9 copies: the
    # greedy's feasibility check reads one arc per edge, its multiplicity as
    # capacity, so no unit is built
    doc = {"n": 3, "root": 0, "terminals": [2], "k": 1,
           "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 10**9}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(Instance, "positive_units", property(_units_built), raising=False)
    assert run("solve", "--instance", path, "--out", tmp_path / "r.json") == 3
    assert capsys.readouterr().err == (
        "error: terminal 2 reaches only 0 < 1 edge-disjoint root paths "
        "even with every edge selected\n"
    )


def test_verify_counts_a_claimed_selection_before_expanding_it(tmp_path):
    # a report that claims all 10^9 copies of its one edge, consistently in
    # cost and connectivity, but records one unit bought: the audit counts
    # the recorded units against the claimed selection and expands neither
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "root": 0, "terminals": [1], "k": 1, "edges": [
        {"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 10**9}]}))
    report = tmp_path / "report.json"
    assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
    doc = json.loads(report.read_text())
    assert doc["solution"]["audit"][0]["added_units"] == [[1, 0]]
    doc["solution"].update(selected=[[1, 10**9]], total_cost=str(10**9),
                           connectivity={"1": 10**9})
    report.write_text(json.dumps(doc))
    out = tmp_path / "audit.json"
    assert run("verify", "--instance", inst, "--report", report,
               "--out", out, "--no-timestamp") == 4
    audit = json.loads(out.read_text())
    assert audit["recorded_units_ok"] is False
    assert audit["recorded_solution_ok"] is True and audit["recorded_cost_ok"] is True


def test_verify_tampered_solution_is_infeasible(instance_file, tmp_path):
    report_path = tmp_path / "report.json"
    run("solve", "--instance", instance_file, "--out", report_path, "--no-timestamp")
    doc = json.loads(report_path.read_text())
    # drop a bought edge from the solution
    doc["solution"]["selected"] = doc["solution"]["selected"][1:]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({"kind": "solution", **doc["solution"]}))
    code = run(
        "verify", "--instance", instance_file, "--solution", tampered,
        "--out", tmp_path / "audit.json",
    )
    assert code == 3


# root 0, terminal 1, k = 2: a free 0->1 arc (edge 1) and a priced one (edge 2)
TWO_ARC_JSON = """{
  "n": 2, "root": 0, "terminals": [1], "k": 2,
  "edges": [
    {"id": 1, "tail": 0, "head": 1, "cost": "0", "mult": 1},
    {"id": 2, "tail": 0, "head": 1, "cost": "3", "mult": 1}
  ]
}"""


@pytest.mark.parametrize(
    "selected, message",
    [
        # two copies of a mult-1 edge would read as feasible
        ([[2, 2]], "edge 2 selected 2 times, multiplicity 1"),
        # the free edge again would count its capacity twice
        ([[1, 1]], "selected edge 1 costs zero"),
        ([[99, 1]], "selected edge 99 is not in the instance"),
        ({"22": 1}, "selected must be a list"),
        ([[2]], r"selected entry \[2\] is not an \[edge id, count\] pair"),
        ([["2", 1]], r"selected entry \['2', 1\] is not an \[edge id, count\] pair"),
        ([[2, 1], [2, 1]], "edge 2 is listed twice in selected"),
    ],
    ids=["over-multiplicity", "zero-cost", "unknown-edge", "dict-shaped", "one-element-entry",
         "string-edge-id", "listed-twice"],
)
def test_verify_rejects_selection_the_instance_does_not_offer(tmp_path, capsys, selected,
                                                              message):
    inst = tmp_path / "inst.json"
    inst.write_text(TWO_ARC_JSON)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({
        "kind": "solution", "selected": selected, "total_cost": "0",
        "connectivity": {}, "feasible": True,
    }))
    code = run("verify", "--instance", inst, "--solution", sol, "--out", tmp_path / "a.json")
    assert code == 2
    assert re.search(f"^error: .*{message}", capsys.readouterr().err)


def test_bench_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        run("gen", "--nodes", "6", "--terminals", "2", "--k", "1",
            "--seed", str(seed), "--out", corpus / f"inst_{seed}.json")
    # an oversized instance: brute must be skipped, not attempted
    run("gen", "--nodes", "8", "--terminals", "3", "--k", "2", "--seed", "9",
        "--density", "3/5", "--out", corpus / "inst_big.json")
    out = tmp_path / "summary.json"
    code = run("bench", "--corpus", corpus, "--out", out,
               "--max-brute-edges", "12", "--no-timestamp")
    assert code == 0
    captured = capsys.readouterr().err
    assert "ratios:" in captured
    doc = json.loads(out.read_text())
    statuses = {row["file"]: row["status"] for row in doc["instances"]}
    assert any("brute skipped" in s for s in statuses.values())
    assert doc["ratio_summary"]["count"] >= 2


def test_bench_stdout_is_the_json_summary(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run("gen", "--nodes", "6", "--terminals", "2", "--k", "1", "--seed", "1",
        "--out", corpus / "inst_1.json")
    capsys.readouterr()
    assert run("bench", "--corpus", corpus, "--out", "-", "--no-timestamp") == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["kind"] == "bench-summary"
    assert [row["file"] for row in doc["instances"]] == ["inst_1.json"]
    assert doc["ratio_summary"]["count"] == 1
    assert captured.err.startswith("ratios: n=1 ")


def test_bench_flags_parse_failure(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.json").write_text("{oops")
    assert run("bench", "--corpus", corpus, "--out", tmp_path / "s.json") == 2


def test_bench_rows_an_unreadable_file_and_goes_on(tmp_path):
    # a file that cannot be decoded or read is a parse error row like a
    # malformed one; the instances after it are still solved and summarized
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_bytes(b"\xff\xfe{")
    (corpus / "b.json").mkdir()
    (corpus / "c.json").write_text(INSTANCE_A_JSON)
    out = tmp_path / "s.json"
    assert run("bench", "--corpus", corpus, "--out", out, "--no-timestamp") == 2
    rows = json.loads(out.read_text())["instances"]
    assert [row["file"] for row in rows] == ["a.json", "b.json", "c.json"]
    assert [row["status"].startswith("parse error: ") for row in rows] == [True, True, False]
    assert rows[2]["status"] == "ok"


# terminal 2 has no entering edge at all
INFEASIBLE_JSON = json.dumps({
    "n": 3, "root": 0, "terminals": [1, 2], "k": 1,
    "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "1", "mult": 1}],
})


def test_bench_rows_an_infeasible_instance_and_goes_on(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(INSTANCE_A_JSON)
    (corpus / "b.json").write_text(INFEASIBLE_JSON)
    (corpus / "c.json").write_text(INSTANCE_A_JSON)
    out = tmp_path / "s.json"
    assert run("bench", "--corpus", corpus, "--out", out, "--no-timestamp") == 3
    rows = json.loads(out.read_text())["instances"]
    assert [row["status"] for row in rows] == ["ok", "infeasible: terminal 2", "ok"]
    assert [row.get("cost") for row in rows] == ["4", None, "4"]


def test_bench_rows_an_audit_violation(tmp_path, monkeypatch):
    # a solve report whose recorded cost its selection does not give
    real = cli.solve

    def overstated(inst, **kwargs):
        report = real(inst, **kwargs)
        report.solution.total_cost += 1
        return report

    monkeypatch.setattr(cli, "solve", overstated)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(INSTANCE_A_JSON)
    out = tmp_path / "s.json"
    assert run("bench", "--corpus", corpus, "--out", out, "--no-timestamp") == 4
    [row] = json.loads(out.read_text())["instances"]
    assert row["status"] == "audit violation" and row["cost"] == "5"


@pytest.mark.parametrize("make", [None, "touch"], ids=["missing", "file"])
def test_bench_corpus_must_be_a_directory(tmp_path, capsys, make):
    corpus = tmp_path / "corpus"
    if make:
        corpus.touch()
    assert run("bench", "--corpus", corpus, "--out", tmp_path / "s.json") == 2
    assert str(corpus) in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_bench_empty_corpus_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert run("bench", "--corpus", corpus, "--out", "-", "--no-timestamp") == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["instances"] == [] and doc["ratio_summary"] == {"count": 0}
    assert captured.err == "ratios: n=0\n"


@pytest.fixture
def corpus_seven(tmp_path):
    """Instance and solve report of corpus seed 7 (cost 30)."""
    inst = tmp_path / "inst.json"
    inst.write_text(instance_to_json(generate_instance(default_corpus_params(7))))
    report = tmp_path / "report.json"
    assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
    doc = json.loads(report.read_text())
    assert doc["solution"]["total_cost"] == "30"
    return inst, doc


def _verify_doc(tmp_path, inst, doc):
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    out = tmp_path / "audit.json"
    code = run("verify", "--instance", inst, "--report", tampered, "--brute",
               "--out", out, "--no-timestamp")
    return code, json.loads(out.read_text())


def test_verify_recomputes_the_recorded_cost(corpus_seven, tmp_path):
    inst, doc = corpus_seven
    doc["solution"]["total_cost"] = "1"
    code, audit = _verify_doc(tmp_path, inst, doc)
    assert code == 4
    assert audit["clean"] is False and audit["recorded_cost_ok"] is False
    assert audit["cost"] == "30" and audit["ratio"] != "1/30"


@pytest.mark.parametrize("flags, per_terminal", [([], 2), (["--brute"], 3)],
                         ids=["no-optimum", "brute"])
def test_verify_report_rebuilds_its_solution_once(corpus_seven, tmp_path, residual_builds, flags,
                                                  per_terminal):
    # |T| residuals for the solution's one rebuild and |T| for the first
    # level's root flows; brute force adds its search root, and no
    # feasibility pre-check (it starts from the rebuild, a feasible
    # selection) and no rebuild of its optimum: the search proves the
    # rebuild optimal and returns it as it is
    inst, doc = corpus_seven
    assert doc["pruned"] is None
    report = tmp_path / "untouched.json"
    report.write_text(json.dumps(doc))
    residual_builds.clear()
    assert run("verify", "--instance", inst, "--report", report, *flags,
               "--out", tmp_path / "audit.json", "--no-timestamp") == 0
    terminals = len(parse_instance(inst.read_text()).terminals)
    assert len(residual_builds) == per_terminal * terminals


def _brute_force_asked(*args, **kwargs):
    raise AssertionError("brute force asked for")


@pytest.mark.parametrize(
    "flags, pruned",
    [
        ([], None),
        (["--brute"], None),
        (["--opt", "{dir}/missing.json"], None),
        (["--density-max-units", "16"], None),
        ([], [[999, 1]]),
    ],
    ids=["plain", "brute", "opt-missing", "density", "pruned-unknown-edge"],
)
def test_an_infeasible_report_gets_the_short_audit_of_its_solution(
    corpus_seven, tmp_path, capsys, monkeypatch, flags, pruned
):
    # the audit's own rebuild decides it: no optimum is asked for, and
    # neither ``pruned`` nor the density replay is read
    inst, doc = corpus_seven
    doc["solution"]["selected"] = []
    if pruned is not None:
        doc["pruned"] = {**doc["solution"], "selected": pruned}
    report, sol = tmp_path / "infeasible.json", tmp_path / "sol.json"
    report.write_text(json.dumps(doc))
    sol.write_text(json.dumps({"kind": "solution", **doc["solution"]}))
    monkeypatch.setattr("rkec.cli.brute_force_opt", _brute_force_asked)
    flags = [flag.format(dir=tmp_path) for flag in flags]
    capsys.readouterr()
    outcomes = []
    for argv in (["--report", report, *flags], ["--solution", sol]):
        code = run("verify", "--instance", inst, *argv, "--out", "-", "--no-timestamp")
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, captured = outcomes[0]
    assert code == 3 and captured.err == ""
    assert json.loads(captured.out)["feasible"] is False


@pytest.mark.parametrize("optimum", ["bad-opt", "brute-refused"])
def test_a_feasible_report_asks_for_its_optimum_before_reading_pruned(
    corpus_seven, tmp_path, capsys, optimum
):
    # a ``pruned`` naming an unknown edge is a parse failure too, but the
    # optimum is asked for first, straight after the solution's rebuild
    inst, doc = corpus_seven
    doc["pruned"] = {**doc["solution"], "selected": [[999, 1]]}
    report, opt, out = tmp_path / "bad-pruned.json", tmp_path / "opt.json", tmp_path / "a.json"
    report.write_text(json.dumps(doc))
    if optimum == "bad-opt":
        assert run("brute", "--instance", inst, "--out", opt, "--no-timestamp") == 0
        opt.write_text(json.dumps({**json.loads(opt.read_text()), "total_cost": "1000"}))
        flags, code = ["--opt", opt], 2
        message = f"error: {opt}: total_cost 1000 but the selection costs "
    else:
        flags, code = ["--brute", "--max-brute-edges", "1"], 5
        units = parse_instance(inst.read_text()).positive_unit_count
        message = f"error: {units} positive edge units exceed the enumeration cap 1\n"
    capsys.readouterr()
    assert run("verify", "--instance", inst, "--report", report, *flags,
               "--out", out, "--no-timestamp") == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, code, recorded_ok",
    [
        ({}, 0, True),
        ({"total_cost": "1"}, 4, False),
        ({"connectivity": {}}, 4, False),
        ({"selected": []}, 3, False),
    ],
    ids=["recorded", "total-cost", "connectivity", "infeasible"],
)
def test_verify_compares_a_bare_solution_with_its_rebuild(corpus_seven, tmp_path, edit, code,
                                                          recorded_ok):
    inst, doc = corpus_seven
    sol, out = tmp_path / "sol.json", tmp_path / "audit.json"
    sol.write_text(json.dumps({"kind": "solution", **doc["solution"], **edit}))
    assert run("verify", "--instance", inst, "--solution", sol,
               "--out", out, "--no-timestamp") == code
    audit = json.loads(out.read_text())
    assert audit["recorded_ok"] is recorded_ok
    assert audit["feasible"] is (code != 3)


@pytest.mark.parametrize(
    "flags",
    [["--brute", "--max-brute-edges", "1"], ["--opt", "missing.json"],
     ["--density-max-units", "0"]],
    ids=["brute", "opt", "density-max-units"],
)
def test_verify_refuses_report_flags_on_a_bare_solution(corpus_seven, tmp_path, capsys, flags):
    # a bare solution gets no ratio or density replay, so asking for one is an
    # error, not a silent omission
    inst, doc = corpus_seven
    sol, out = tmp_path / "sol.json", tmp_path / "audit.json"
    sol.write_text(json.dumps({"kind": "solution", **doc["solution"]}))
    assert run("verify", "--instance", inst, "--solution", sol, *flags,
               "--out", out, "--no-timestamp") == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_verify_checks_added_units_against_the_selection(corpus_seven, tmp_path):
    # the last record drops a unit and records what the rest cost, so only the
    # units disagree with the selection
    inst, doc = corpus_seven
    last = doc["solution"]["audit"][-1]
    last["added_units"] = last["added_units"][:-1]
    units = [tuple(u) for u in last["added_units"]]
    selected = selection_from_units(units)
    last["added_cost"] = str(parse_instance(inst.read_text()).selection_cost(selected))
    rebuild_phases(doc)
    code, audit = _verify_doc(tmp_path, inst, doc)
    assert code == 4
    assert audit["clean"] is False and audit["recorded_units_ok"] is False
    assert audit["recorded_cost_ok"] is True


def _set(**fields):
    """An edit of the first iteration record."""
    def edit(doc):
        doc["solution"]["audit"][0].update(fields)
    return edit


def _set_solution(**fields):
    """An edit of the solution's own fields."""
    def edit(doc):
        doc["solution"].update(fields)
    return edit


def _connectivity_999(doc):
    doc["solution"]["connectivity"] = {t: 999 for t in doc["solution"]["connectivity"]}


def _pruned(**fields):
    """Record a copy of the solution, with ``fields`` changed, as ``pruned``."""
    def edit(doc):
        doc["pruned"] = {**doc["solution"], **fields}
    return edit


def _mistype_unit(doc):
    doc["solution"]["audit"][0]["added_units"][0] = ["a", 0]


def _tamper_phases(doc):
    doc["phases"][0].update(level=99, iterations=99)
    doc["phases"][0]["added_units"].append([12345, 0])


# the audit fields an unclean (exit 4) case must show
_NO_DROP = {"density_violations": [0], "recorded_cost_ok": True}
_COST_WRONG = {"density_violations": [], "recorded_cost_ok": False}
_HEAD_NOT_BOUGHT = {"density_violations": [], "recorded_cost_ok": True, "recorded_units_ok": False}
_NOT_REBUILT = {"density_violations": [], "recorded_cost_ok": True, "recorded_solution_ok": False}


@pytest.mark.parametrize(
    "edit, code, expected",
    [
        (_set(cores_before="3"), 2, "iteration record"),
        (_mistype_unit, 2, "iteration record"),
        (_set(cores_before=3, cores_after=3), 4, _NO_DROP),  # parses, but drops by 0
        (_set(leaf_count=0), 2, "iteration record"),
        (_set(leaf_count=True), 2, "iteration record"),
        (_set(phase_level=0), 2, "iteration record"),
        (_set(cores_after=-1), 2, "iteration record"),
        (_tamper_phases, 2, "phases differ"),
        (_set(added_cost="0"), 4, _COST_WRONG),
        (_set(added_cost="1000"), 4, _COST_WRONG),  # replayed at 1000, a violation
        (_set(star_center=12345), 4, _HEAD_NOT_BOUGHT),  # no such edge, so not among the units
        (_connectivity_999, 4, _NOT_REBUILT),
        (_set_solution(connectivity={}), 4, _NOT_REBUILT),
        (_set_solution(feasible=False), 4, _NOT_REBUILT),
        (_pruned(audit=[], total_cost="1"), 4, _NOT_REBUILT),
        (_pruned(selected=[[999, 1]]), 2, "selected edge 999 is not in the instance"),
        (lambda d: d.update(terminal_count=True), 2, "terminal_count must be an integer"),
        (lambda d: d.update(terminal_count="1"), 2, "terminal_count must be an integer"),
        (lambda d: d.pop("phases"), 2, "malformed solve report: 'phases'"),
        (lambda d: d["solution"]["audit"][0].pop("added_units"), 2,
         "malformed iteration record: 'added_units'"),
    ],
    ids=[
        "cores-before-string", "unit-string", "no-drop", "no-leaves", "bool-leaves",
        "level-zero", "negative-cores-after", "phases", "added-cost-zero", "added-cost-inflated",
        "star-center", "connectivity-999", "connectivity-empty", "feasible-false", "pruned-cost",
        "pruned-unknown-edge", "bool-terminal-count", "string-terminal-count", "no-phases",
        "no-added-units",
    ],
)
def test_verify_rejects_mistyped_and_tampered_records(corpus_seven, tmp_path, capsys, edit, code,
                                                      expected):
    # run with the density replay, which divides by the level and the drop
    # and must take each iteration's cost from its units
    inst, doc = corpus_seven
    edit(doc)
    tampered, out = tmp_path / "tampered.json", tmp_path / "audit.json"
    tampered.write_text(json.dumps(doc))
    assert run("verify", "--instance", inst, "--report", tampered, "--density-max-units", "16",
               "--out", out, "--no-timestamp") == code
    if code == 2:
        assert expected in capsys.readouterr().err
    else:
        audit = json.loads(out.read_text())
        assert audit["clean"] is False and audit["density_checked"] is True
        assert {key: audit[key] for key in expected} == expected


@pytest.mark.parametrize("pruned", [[], {}, 0, False, ""],
                         ids=["list", "object", "zero", "false", "string"])
def test_verify_rejects_a_pruned_that_is_neither_null_nor_a_solution(corpus_seven, tmp_path,
                                                                     capsys, pruned):
    # only null means "not pruned"; a falsy value used to be skipped and
    # audit clean
    inst, doc = corpus_seven
    doc["pruned"] = pruned
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--instance", inst, "--report", tampered, "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--report", "--solution", "--opt"])
@pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["malformed", "not-an-object"])
def test_verify_rejects_documents_that_are_not_json_objects(
    instance_file, tmp_path, capsys, flag, text
):
    report = tmp_path / "report.json"
    run("solve", "--instance", instance_file, "--out", report, "--no-timestamp")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["verify", "--instance", instance_file, "--out", tmp_path / "a.json"]
    argv += [flag, bad] if flag != "--opt" else ["--report", report, "--opt", bad]
    assert run(*argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture
def solved_with_optimum(tmp_path):
    """Instance (solve cost 44), its solve report, and its optimum document
    (cost 43), as written by ``rkec brute``."""
    inst, report, opt = (tmp_path / name for name in ("inst.json", "report.json", "opt.json"))
    run("gen", "--nodes", "8", "--terminals", "3", "--k", "2", "--seed", "7", "--out", inst)
    assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
    assert run("brute", "--instance", inst, "--out", opt, "--no-timestamp") == 0
    doc = json.loads(opt.read_text())
    assert doc["total_cost"] == "43"
    return inst, report, doc


@pytest.mark.parametrize(
    "edit, code, message",
    [
        ({}, 0, None),
        ({"total_cost": "1000"}, 2, "total_cost 1000 but the selection costs 43"),
        ({"selected": [], "total_cost": "0"}, 2, "selection is infeasible"),
        ({"connectivity": {}}, 2, "connectivity {} but the selection gives {"),
        ({"feasible": False}, 2, "feasible False but the selection gives True"),
    ],
    ids=["recomputed", "recorded-cost-differs", "infeasible", "connectivity-differs",
         "feasible-differs"],
)
def test_verify_checks_the_opt_file(solved_with_optimum, tmp_path, capsys, edit, code, message):
    inst, report, doc = solved_with_optimum
    opt = tmp_path / "claimed.json"
    opt.write_text(json.dumps({**doc, **edit}))
    out = tmp_path / "audit.json"
    assert run("verify", "--instance", inst, "--report", report, "--opt", opt,
               "--out", out, "--no-timestamp") == code
    if message is None:
        assert json.loads(out.read_text())["ratio"] == "44/43"
    else:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--report", "--solution", "--opt"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("connectivity", [1, 2]),
        ("connectivity", {"2": True}),
        ("connectivity", {"02": 1}),
        ("feasible", "no"),
        ("feasible", 1),
    ],
    ids=["connectivity-list", "connectivity-bool", "connectivity-key", "feasible-string",
         "feasible-int"],
)
def test_verify_rejects_mistyped_solution_fields(solved_with_optimum, tmp_path, capsys, flag,
                                                 field, value):
    inst, report, opt = solved_with_optimum
    doc = json.loads(report.read_text())
    edited = opt if flag == "--opt" else doc["solution"]
    edited[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc if flag == "--report" else edited))
    argv = ["verify", "--instance", inst, "--out", tmp_path / "a.json"]
    argv += [flag, bad] if flag != "--opt" else ["--report", report, "--opt", bad]
    assert run(*argv) == 2
    assert "connectivity must map terminal ids to integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, code",
    [
        ({}, 0),
        ({"bound_harmonic": "1000", "terminal_count": 1000}, 4),
        ({"bound_harmonic": "1000"}, 4),
        ({"terminal_count": 1000}, 4),
        ({"bound_harmonic": "1/1000"}, 4),
    ],
    ids=["recorded", "both-inflated", "harmonic-inflated", "count-inflated", "harmonic-shrunk"],
)
def test_verify_recomputes_the_guarantee_inputs(solved_with_optimum, tmp_path, edit, code):
    # an inflated guarantee must not make a report audit clean: the verifier
    # takes H(first level) and |T| from the instance (H(2) and 3 here)
    inst, report, _ = solved_with_optimum
    doc = json.loads(report.read_text())
    assert (doc["bound_harmonic"], doc["terminal_count"]) == ("3/2", 3)
    doc.update(edit)
    got, audit = _verify_doc(tmp_path, inst, doc)
    assert got == code
    assert audit["recorded_bound_ok"] is (code == 0)
    assert audit["clean"] is (code == 0)
    assert audit["bound_holds"] is True and audit["ratio"] == "44/43"


def test_fractional_costs_round_trip(tmp_path):
    # costs over different denominators (cost scale 12) survive solve and
    # verify: the recorded cost is the selection's cost, recomputed here
    doc = {"n": 4, "root": 0, "terminals": [2, 3], "k": 1, "edges": [
        {"id": 1, "tail": 0, "head": 1, "cost": "3/4"},
        {"id": 2, "tail": 1, "head": 2, "cost": "5/6"},
        {"id": 3, "tail": 1, "head": 3, "cost": "1/3"},
        {"id": 4, "tail": 0, "head": 2, "cost": "5/2"},
        {"id": 5, "tail": 0, "head": 3, "cost": "2"},
    ]}
    inst, report, audit = (tmp_path / name for name in ("inst.json", "report.json", "audit.json"))
    inst.write_text(json.dumps(doc))
    assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
    assert run("verify", "--instance", inst, "--report", report, "--brute",
               "--out", audit, "--no-timestamp") == 0
    solution = json.loads(report.read_text())["solution"]
    costs = {e["id"]: Fraction(e["cost"]) for e in doc["edges"]}
    recomputed = sum(costs[eid] * count for eid, count in solution["selected"])
    assert Fraction(solution["total_cost"]) == recomputed == Fraction(23, 12)
    audited = json.loads(audit.read_text())
    assert audited["cost"] == "23/12" and audited["ratio"] == "1" and audited["clean"]


def test_a_huge_declared_node_count_changes_no_report(tmp_path):
    # nothing below the parser is sized by n: three root edges solve to the
    # same report bytes among 4 node ids as among 10**12
    reports = []
    for n in (4, 10**12):
        doc = {"n": n, "root": 0, "terminals": [1, 2, 3], "k": 1, "edges": [
            {"id": i, "tail": 0, "head": i, "cost": str(i)} for i in (1, 2, 3)
        ]}
        inst, report = tmp_path / f"inst_{n}.json", tmp_path / f"report_{n}.json"
        inst.write_text(json.dumps(doc))
        assert run("solve", "--instance", inst, "--out", report, "--no-timestamp") == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_bench_summary_writes_its_float_mean_as_json_does(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (5, 6):  # seed 6 is solved above its optimum
        inst = generate_instance(default_corpus_params(seed))
        (corpus / f"inst_{seed}.json").write_text(instance_to_json(inst))
    out = tmp_path / "summary.json"
    assert run("bench", "--corpus", corpus, "--out", out, "--no-timestamp") == 0
    text = out.read_text()
    doc = json.loads(text)
    assert 1 < doc["ratio_summary"]["mean"] < 2
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
