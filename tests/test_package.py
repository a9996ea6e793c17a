"""Shape of the package itself, checked from its source."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import rkec
from rkec import flows
from rkec.exact import brute_force_opt
from rkec.flows import Network, Residual
from rkec.generate import default_corpus_params, generate_instance
from rkec.solver import solve
from rkec.verify import audit_run

from reference import load_script
from test_acceptance import CORPUS_REPORTS_SHA256
from test_solver import LADDER_REPORT_SHA256

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rkec"


def _names(node) -> set[str]:
    """Every name ``node`` refers to, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attribute_counts(node) -> Counter:
    """How often ``node`` reads each name as an attribute: a method or
    property is only ever reached that way, so a bare name of the same
    spelling does not count."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_package_has_no_test_only_code():
    # a top-level function or class of src/rkec must be referenced from
    # src/rkec, scripts/ or perfbench/ somewhere outside its own definition
    # (or be a console script of pyproject.toml), and so must every method
    # and property of a src/rkec class but its dunders, read as an attribute;
    # tests do not count
    defined: dict[str, str] = {}
    members: list[tuple[str, ast.FunctionDef]] = []
    used: set[str] = set()
    counts: Counter = Counter()
    sources = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    for path in sources:
        tree = ast.parse(path.read_text())
        counts += _attribute_counts(tree)
        for stmt in tree.body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path.parent == PACKAGE:
                    defined[stmt.name] = path.name
            if isinstance(stmt, ast.ClassDef) and path.parent == PACKAGE:
                members += [
                    (f"{path.name}:{stmt.name}", member) for member in stmt.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                ]
            used |= names
    pyproject = (ROOT / "pyproject.toml").read_text()
    used |= set(re.findall(r'"rkec\.\w+:(\w+)"', pyproject))
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in rkec.__all__
    )
    unused += sorted(
        f"{owner}.{member.name}" for owner, member in members
        if counts[member.name] == _attribute_counts(member)[member.name]
    )
    assert not unused, f"shipped code that nothing outside tests calls: {unused}"


def test_oracles_are_independent_of_the_code_they_check():
    # the enumeration oracles recount entering arcs themselves; they may read
    # the instance types, but no flow, ring, greedy, search, solver or
    # verifier code, or a bug there would agree with itself
    checked = {f"rkec.{name}" for name in ("flows", "rings", "greedy", "exact", "solver", "verify")}
    modules = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracles.py").read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module == "rkec":  # from rkec import flows
                modules |= {f"rkec.{alias.name}" for alias in node.names}
    assert "rkec.instance" in modules
    assert not modules & checked, sorted(modules & checked)


def test_package_has_no_assert_statements():
    # an invariant check must still fire under ``python -O``, which strips
    # ``assert`` statements, so shipped code raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in shipped code: {found}"


def test_package_runs_on_the_standard_library_alone():
    # every import of src/rkec is relative or a standard-library module, and
    # pyproject.toml declares no runtime dependency (a regex, as tomllib is
    # not in every Python that requires-python admits)
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, f"non-standard imports in shipped code: {outside}"
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.MULTILINE)
    assert len(re.findall(r"^dependencies\b", pyproject, re.MULTILINE)) == 1


def test_rings_are_priced_on_the_flow_itself():
    # a ring is its core representative's flow and its stops; no context object
    # wraps them and no copy of one is made per head
    rings = importlib.import_module("rkec.rings")
    assert not hasattr(rings, "RingContext") and not hasattr(rings, "core_ring_context")
    imported = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and any(alias.name == "replace" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "replace"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")
    ]
    assert not imported, f"dataclasses.replace used in shipped code: {imported}"


def test_ring_covers_carry_their_dual_chain():
    # a cover's dual is its nested chain: the step each node joins and the
    # dual raised by each prefix of steps; no per-step record and no second
    # index of the chain in the star pricing, which keeps only the ranked
    # shared covers
    rings = importlib.import_module("rkec.rings")
    greedy = importlib.import_module("rkec.greedy")
    assert not hasattr(rings, "DualStep")
    assert [f.name for f in fields(rings.RingCover)] == [
        "legs", "cost", "first", "prefix", "footprint"
    ]
    assert greedy.StarPricing._fields == ("stops", "ranked")


def _functions(module):
    """(qualified name, function) of every function and method ``module`` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for method, func in inspect.getmembers(obj, inspect.isfunction):
                yield f"{name}.{method}", func


def test_a_ring_is_its_flow_and_its_stops():
    # a ring is read off its representative's carried flow whatever its
    # level: no ring or greedy function takes a bound, and the level is
    # checked once per core, in ``cores_of``, not on every ring read
    rings = importlib.import_module("rkec.rings")
    greedy = importlib.import_module("rkec.greedy")
    assert not hasattr(rings, "_check_one_short")
    bounded = [
        f"{module.__name__}.{name}"
        for module in (rings, greedy)
        for name, func in _functions(module)
        if "bound" in inspect.signature(func).parameters
    ]
    assert not bounded, bounded


def test_the_greedy_is_the_solvers_feasibility_check():
    # an uncoverable ring raises the instance's InfeasibleError; no stuck
    # state, no per-core pricing record and no pre-check pass in ``solve``
    greedy = importlib.import_module("rkec.greedy")
    for name in ("PhaseStuckError", "CorePricing"):
        assert not hasattr(greedy, name), name
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    called = {ast.unparse(func) for owner, func in _calls(tree) if owner == "solve"}
    assert called and "require_feasible" not in called


def test_a_states_level_is_read_once_with_its_cores():
    # the level is the residual function's maximum, a fact of the state:
    # ``cores_of`` returns it once, next to the cores, and no core repeats it
    deficiency = importlib.import_module("rkec.deficiency")
    assert [f.name for f in fields(deficiency.CoreInfo)] == ["members", "representative"]
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if _attribute_counts(ast.parse(path.read_text()))["deficiency"]
    )
    assert not readers, readers


def test_nothing_below_the_parser_reads_the_node_count():
    # flows and per-node edge lists are keyed by the nodes edges touch: the
    # declared n is validated and written back, and sizes nothing
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if _attribute_counts(ast.parse(path.read_text()))["node_count"]
    )
    assert readers == ["instance.py"]
    assert list(inspect.signature(Network.__init__).parameters) == ["self"]
    assert list(inspect.signature(Residual.__init__).parameters) == [
        "self", "network", "source", "sink",
    ]
    reference = importlib.import_module("reference")
    for name in ("maximum_flow", "max_flow_paths"):
        assert "node_count" not in inspect.signature(getattr(reference, name)).parameters, name


def test_stars_read_their_candidates_off_the_instance():
    # heads and legs come from the instance's own edge orders and the
    # selection's per-edge counts: no per-star candidate list, leg index or
    # head sort
    rings = importlib.import_module("rkec.rings")
    for name in ("EnteringLegs", "index_legs", "free_leg_candidates"):
        assert not hasattr(rings, name), name
    tree = ast.parse((PACKAGE / "greedy.py").read_text())
    star = next(s for s in tree.body if getattr(s, "name", None) == "cheapest_star")
    assert "sorted" not in _names(star)


def test_copy_indices_are_written_only_into_records():
    # below the records a head, a leg and a brute-force branch are edge ids:
    # the ring, greedy and search modules name no unit, and the instance
    # expands no edge into its copies.  ``cover_levels`` alone numbers a
    # copy, writing each bought edge as (edge id, copies bought before it)
    unit_names = {"Unit", "unit_arc", "positive_units", "selection_from_units"}
    for name in ("rings.py", "greedy.py", "exact.py"):
        named = _names(ast.parse((PACKAGE / name).read_text())) & unit_names
        assert not named, (name, sorted(named))
    instance = importlib.import_module("rkec.instance")
    for name in ("positive_units", "unit_arc"):
        assert not hasattr(instance.Instance, name), name
    greedy = importlib.import_module("rkec.greedy")
    later_copies = 0
    for seed in range(1, 41):
        inst = generate_instance(default_corpus_params(seed))
        taken = Counter()
        for rec in greedy.cover_levels(inst):
            edges = sorted({eid for eid, _ in rec.added_units})
            assert rec.added_units == tuple((eid, taken[eid]) for eid in edges)
            later_copies += sum(taken[eid] > 0 for eid in edges)
            taken.update(edges)
    assert later_copies > 0  # some edge is bought a second time


def _calls(tree):
    """(enclosing top-level definition, called expression) for every call."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield getattr(stmt, "name", None), node.func


def test_a_head_is_priced_in_one_place():
    # the cross-check reads the solver's pricing, not a copy: in src/rkec and
    # scripts/, only ``head_pairs`` calls ``_cover`` with a head (a fifth
    # argument, a head keyword or an unpacking) and only ``_cover``, passing
    # its own on, the primal-dual; no script imports the exact ring oracle
    priced = set()
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    for path in [*sorted(PACKAGE.glob("*.py")), *scripts]:
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                callee = isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1]
                if callee in ("_cover", "primal_dual_ring_cover"):
                    head = node.args[4:] + [a for a in node.args if isinstance(a, ast.Starred)]
                    head += [kw.value for kw in node.keywords if kw.arg in ("head", None)]
                    if any(ast.unparse(arg) != "None" for arg in head):
                        priced.add((path.name, stmt.name, callee))
    assert priced == {
        ("greedy.py", "_cover", "primal_dual_ring_cover"), ("greedy.py", "head_pairs", "_cover"),
    }
    for path in scripts:
        tree = ast.parse(path.read_text())
        aliases = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "brute_force_ring_cover" not in aliases | _names(tree), path.name


def test_below_the_report_a_selection_is_per_edge_counts():
    # flows and the greedy take a selection as edge id -> copies bought and
    # convert no unit list into it; the verifier rebuilds a solution from its
    # counts without expanding them into units
    for name in ("flows.py", "greedy.py"):
        called = {ast.unparse(func) for _, func in _calls(ast.parse((PACKAGE / name).read_text()))}
        assert "selection_from_units" not in called, name
    verify = ast.parse((PACKAGE / "verify.py").read_text())
    assert not [
        func for owner, func in _calls(verify)
        if owner == "check_feasible" and isinstance(func, ast.Attribute) and func.attr == "units"
    ]


def _file_writes(tree) -> list[int]:
    """The line of each call in ``tree`` that may write a file: ``write_text``,
    ``write_bytes``, ``os.open``, or an ``open`` whose mode writes or is not
    a literal (the builtin and ``io.open`` take the mode second, a path's
    ``open`` first)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name in ("write_text", "write_bytes") or (name, owner) == ("open", "os"):
            lines.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(func, ast.Name) or owner == "io" else 0
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            if mode and not (isinstance(mode[0], ast.Constant)
                             and not set(str(mode[0].value)) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_every_file_is_written_by_the_cli_writer():
    # src/rkec and scripts/ write files only through cli._write, the one
    # writer that rewrites an output in place; the pin must see its open
    outside, inside = [], 0
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        writer = range(0)
        if path == PACKAGE / "cli.py":
            stmt = next(stmt for stmt in tree.body
                        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_write")
            writer = range(stmt.lineno, stmt.end_lineno + 1)
        for line in _file_writes(tree):
            if line in writer:
                inside += 1
            else:
                outside.append(f"{path.relative_to(ROOT)}:{line}")
    assert inside, "the pin no longer sees the open in cli._write"
    assert not outside, f"files written outside cli._write: {outside}"


# the whole interface of a flow outside ``flows.py``: it grows by ``grow``
# alone, is undone by ``mark``/``rollback`` and is read through the rest
# (``reach``, the one reachability read, and ``closest_sink_side``)
RESIDUAL_METHODS = {"grow", "mark", "rollback", "reach", "closest_sink_side"}
RESIDUAL_INTERFACE = RESIDUAL_METHODS | {"value", "sink"}


def test_flows_are_built_in_one_place_and_never_copied(monkeypatch):
    # every flow is a root flow of ``flows.root_flows``, over the one network
    # that call builds, grown in place by ``Residual.grow`` and undone by
    # ``Residual.mark``/``rollback``; no code builds a second one beside it
    # or copies one (nothing in the package calls a ``copy``), and there is
    # one arc type, the plain triple.  After the build, arcs join a network
    # only through ``add_arcs``, once for all its flows: per star in the
    # greedy, per branch in the brute force and per step of its dual ascent
    builds, copies, adds = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, func in _calls(ast.parse(path.read_text())):
            if ast.unparse(func) in ("Residual", "Residual.__new__", "Network", "Network.__new__"):
                builds.append(f"{path.stem}.{owner}.{ast.unparse(func)}")
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                copies.append(f"{path.stem}.{owner}:{func.lineno}")
            if ast.unparse(func).rsplit(".", 1)[-1] == "add_arcs":
                adds.add(f"{path.stem}.{owner}")
    assert builds == ["flows.root_flows.Network", "flows.root_flows.Residual"]
    assert not copies, f"copy calls in shipped code: {copies}"
    assert adds == {"greedy.cover_levels", "exact.cheapest_completion", "exact.dual_ascent"}
    assert not hasattr(flows, "Arc") and not hasattr(flows, "connectivity")
    assert {name for name in vars(Residual) if not name.startswith("_")} == RESIDUAL_METHODS

    # outside ``flows.py`` a residual is grown, marked, rolled back and read
    # (``value``, ``sink``, ``reach``, its closest sink side), and nothing
    # else.  The
    # names only a residual's internals carry never appear there, and every
    # attribute that code touches on a residual over a pruned solve, its
    # audit with the density replay, and the brute force is in the interface.
    internals = {"augment", "adj", "to", "cap", "source", "network", "initial"}
    named = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "flows.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in internals
    ]
    assert not named, f"a residual's internals named outside flows.py: {named}"

    touched = set()

    def spy(real):
        def access(self, name, *value):
            if sys._getframe(1).f_code.co_filename != flows.__file__:
                touched.add(name)
            return real(self, name, *value)
        return access

    adders = set()

    def adding(real):
        def add(self, arcs):
            adders.add(sys._getframe(1).f_code.co_name)
            return real(self, arcs)
        return add

    monkeypatch.setattr(Residual, "__getattribute__", spy(object.__getattribute__))
    monkeypatch.setattr(Residual, "__setattr__", spy(object.__setattr__))
    monkeypatch.setattr(Network, "add", adding(Network.add))
    inst = generate_instance(default_corpus_params(7))
    report = solve(inst, prune=True)
    audit = audit_run(inst, report, lambda _: brute_force_opt(inst), density_max_units=16)
    assert audit.clean and audit.density_checked
    assert RESIDUAL_METHODS <= touched <= RESIDUAL_INTERFACE, sorted(touched)
    assert adders == {"root_flows", "add_arcs"}


def test_only_brute_force_undoes_a_flow():
    # rings are read off the carried flows as they stand, so the brute-force
    # search is the one code that marks a flow and rolls it back
    undoing = {
        (path.stem, owner, func.attr)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, func in _calls(ast.parse(path.read_text()))
        if isinstance(func, ast.Attribute) and func.attr in ("mark", "rollback")
    }
    assert undoing == {
        ("exact", "cheapest_completion", "mark"), ("exact", "cheapest_completion", "rollback")
    }


# Call sites the traced benchmark run names but that no longer exist: the
# trace skips them and lists them in ``Tracer.missing``.  A refactor that
# renames or inlines another traced name must add it here, in the open.
MISSING_TRACE_SITES = {
    ("rkec.deficiency", "closest_sink_cut"),
    ("rkec.deficiency", "instance_view"),
    ("rkec.exact", "closest_sink_cut"),
    ("rkec.exact", "instance_view"),
    ("rkec.exact", "max_flow_value"),
    ("rkec.greedy", "build_ring_context"),
    ("rkec.greedy", "rooted_cores"),
    ("rkec.greedy", "rooted_max_level"),
    ("rkec.rings", "min_violated_cut"),
    ("rkec.solver", "instance_view"),
    ("rkec.solver", "max_flow_value"),
    ("rkec.solver", "rooted_max_level"),
    ("rkec.solver", "run_phase"),
    ("rkec.verify", "brute_force_opt"),
    ("rkec.verify", "instance_view"),
    ("rkec.verify", "max_flow_paths"),
    ("rkec.verify", "max_flow_value"),
}


def test_trace_call_sites_exist():
    # read the trace's site lists from the source, without importing perfbench
    tables = {}
    for stmt in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTS"):
                tables[target.id] = ast.literal_eval(stmt.value)
    assert set(tables) == {"SPANS", "COUNTS"}
    sites = {(module, attr) for module, attr, _ in tables["SPANS"] + tables["COUNTS"]}
    missing = {
        (module, attr) for module, attr in sites
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == MISSING_TRACE_SITES
    # the traced star span counts the offered pairs through this name
    assert callable(getattr(importlib.import_module("rkec.greedy"), "candidate_heads", None))


@pytest.mark.parametrize("script, args", [
    ("ring_cross_check.py", ["--seeds", "1"]),
    ("make_corpus.py", ["corpus", "--count", "1"]),
])
def test_scripts_run_without_an_installed_package(tmp_path, script, args):
    # each script finds the package under the checkout's src/ on its own
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "make_corpus.py":
        assert (tmp_path / "corpus" / "inst_0001.json").is_file()


@pytest.mark.parametrize("script, args", [
    ("make_corpus.py", ["corpus", "--count", "-1"]),
    ("ring_cross_check.py", ["--seeds", "-3"]),
    ("ring_cross_check.py", ["--per-state", "-1"]),
])
def test_scripts_reject_negative_counts(tmp_path, script, args):
    # a negative count used to run nothing and exit 0; it is a usage error
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "is not a non-negative integer" in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "corpus").exists()


# report digests of the bench rows: C10's corpus digest, the pinned
# (120, 40, 3) ladder report, and the (200, 60, 3) and (300, 90, 3) ones,
# pinned only here
BENCH_DIGESTS = {
    "corpus": CORPUS_REPORTS_SHA256,
    "ladder-120-40-3": LADDER_REPORT_SHA256,
    "ladder-200-60-3": "4d8ebf3b5a686537e58054633a044ee77af1d69901b0348a33cf7c1bd638bb45",
    "ladder-300-90-3": "13b3e2d0a1cce74666b38a92e07b75d16285393ec315769e801339ebbbf5f2e2",
}


def test_bench_script_writes_its_rows(tmp_path, monkeypatch, capsys):
    script = load_script(ROOT / "scripts" / "bench.py", monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert script.main(["smoke", "--rounds", "1"]) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["rounds"] == 1
    assert {row["name"]: row["report_sha256"] for row in doc["rows"]} == BENCH_DIGESTS
    for row in doc["rows"]:
        wall = row["wall_s"]
        assert 0 < wall["min"] <= wall["median"] <= wall["max"]
        assert row["generate_s"] > 0
        assert row["feasible_s"] > 0
        assert row["parse_s"] > 0
        assert row["verify_s"] > 0
    assert [row["instances"] for row in doc["rows"]] == [500, 1, 1, 1]
    assert doc["rows"][0]["brute_s"] > 0  # the corpus fits brute force ...
    assert [row["brute_s"] for row in doc["rows"][1:]] == [None] * 3  # ... no ladder row does
    assert doc["rows"][0]["cost"] == "11341"


def test_bench_script_rejects_fewer_than_one_round(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "x", "--rounds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "is not a positive integer" in proc.stderr
    assert list(tmp_path.iterdir()) == []
