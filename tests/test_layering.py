"""The module graph keeps the oracles independent of the kernels they check.

The lexicographic reference (``continuants.reference``) is what the census
kernel and the Pareto-front DP are compared with, so it must not share
code with them: it imports nothing in the package but ``core``, every
oracle is defined there, and no function or class of ``census`` or
``extremal`` names anything imported from it.  Read from the source
with ``ast``, so no import side effect can hide an edge.
"""

import ast
import importlib
from pathlib import Path

import pytest

import continuants

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "continuants"

REFERENCE_FAMILY = (
    "multiset_permutations", "_perms_from", "enumerate_classes", "_members", "multiplicity_of",
    "_scan_shard", "_shard_prefixes", "brute_force_extrema",
)

KERNELS = {
    "census": ("_half_tables", "_arrangement", "_rows", "_value_table", "run_census"),
    "extremal": ("max_arrangement", "pareto_max", "_front", "verify_max_arrangement"),
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """Each package module the tree imports, with the local names it binds from it."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("continuants." if node.level else "") + (node.module or "")
            pairs = [(f"{base.rstrip('.')}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for dotted, bound in pairs:
            parts = dotted.split(".")
            if parts[0] == "continuants" and len(parts) > 1:
                out.setdefault(parts[1], set()).add(bound)
    return out


def _reached(tree: ast.Module, roots) -> dict[str, set[str]]:
    """The names each function or class of ``roots`` uses, following calls
    into the module's own top-level functions and classes."""
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo, used = set(), list(roots), {}
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        used[name] = names
        todo.extend(names & defs.keys())
    return used


def test_reference_imports_only_core():
    assert set(_package_imports(_tree("reference"))) == {"core"}


@pytest.mark.parametrize("module, other", [("census", "extremal"), ("extremal", "census")])
def test_census_and_extremal_do_not_import_each_other(module, other):
    assert other not in _package_imports(_tree(module))


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_no_kernel_function_reaches_the_reference(module):
    tree = _tree(module)
    from_reference = _package_imports(tree).get("reference", set())
    for name in KERNELS[module]:
        assert any(isinstance(n, ast.FunctionDef) and n.name == name for n in tree.body), name
    leaks = {
        name: sorted(names & from_reference)
        for name, names in _reached(tree, KERNELS[module]).items()
        if names & from_reference
    }
    assert leaks == {}


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_no_function_or_class_names_the_reference(module):
    # Module-wide: what census and extremal bind from reference is only
    # forwarded, never used by code of their own.
    tree = _tree(module)
    from_reference = _package_imports(tree).get("reference", set())
    leaks = {
        node.name: sorted({n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & from_reference)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {name: names for name, names in leaks.items() if names} == {}


def test_each_reference_function_is_defined_once():
    defined = {name: [] for name in REFERENCE_FAMILY}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.stem)
    assert defined == {name: ["reference"] for name in REFERENCE_FAMILY}


@pytest.mark.parametrize(
    "name, home",
    [
        ("enumerate_classes", "reference"),
        ("multiplicity_of", "reference"),
        ("multiset_permutations", "reference"),
        ("brute_force_extrema", "reference"),
        ("ExtremalResult", "reference"),
        ("ClassTooLargeError", "core"),
        ("ValueBudgetExceededError", "core"),
        ("exact_class_count", "core"),
        ("palindromic_count", "core"),
    ],
)
def test_package_names_come_from_their_home(name, home):
    assert name in continuants.__all__
    assert getattr(continuants, name) is getattr(importlib.import_module(f"continuants.{home}"), name)
