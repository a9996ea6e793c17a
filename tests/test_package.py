"""Shape of the package itself, checked from its source."""

import ast
import re
from pathlib import Path

import rkec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rkec"

# Exact and explicit oracles: the package's ground truth, kept importable for
# cross-checks although the solver, the CLI and the verifier never call them.
ORACLES = {
    "explicit_max_level",
    "explicit_cores",
    "tabulate_rooted",
    "enumerate_explicit",
    "brute_force_ring_cover",
    "nested_chain_certificate",
}


def _names(node) -> set[str]:
    """Every name ``node`` refers to, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_package_has_no_test_only_code():
    # a top-level function or class of src/rkec must be referenced from
    # src/rkec, scripts/ or perfbench/ somewhere outside its own definition
    # (or be a console script of pyproject.toml); tests do not count
    defined: dict[str, str] = {}
    used: set[str] = set()
    sources = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    for path in sources:
        for stmt in ast.parse(path.read_text()).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path.parent == PACKAGE:
                    defined[stmt.name] = path.name
            used |= names
    pyproject = (ROOT / "pyproject.toml").read_text()
    used |= set(re.findall(r'"rkec\.\w+:(\w+)"', pyproject))
    allowed = set(rkec.__all__) | ORACLES
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in allowed
    )
    assert not unused, f"shipped code that nothing outside tests calls: {unused}"
    assert ORACLES <= set(defined), "an allow-listed oracle no longer exists"
