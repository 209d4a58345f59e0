"""Guards on the shape of the source tree itself."""

import ast
from pathlib import Path

import srp

SRC = Path(srp.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# Module-level names that nothing in src/srp refers to, each with the file
# (relative to the repository root) that calls it from outside. Tests do not
# count as callers: a name only the tests need lives in tests/references.py.
# A name leaves this list when a caller appears in src/srp, when its outside
# caller stops calling it, or with its deletion.
REACHED_FROM_OUTSIDE = {
    "regularizer_curvature_bound": "bench/workloads.py",
}


def _identifiers(node):
    """Every name a node refers to: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _unreferenced():
    """Top-level functions and classes of src/srp (without ``__init__.py``)
    that no code in src/srp outside their own definition refers to."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.add(owner)
            used.update(name for name in _identifiers(stmt) if name != owner)
    return defined - used, defined


def test_every_module_level_name_has_a_caller():
    unreferenced, defined = _unreferenced()
    allowed = set(REACHED_FROM_OUTSIDE)
    assert allowed <= defined, f"allowlisted but gone: {sorted(allowed - defined)}"
    assert unreferenced - allowed == set(), "no caller in src/srp"
    assert allowed - unreferenced == set(), "allowlisted but called from src/srp"


def test_every_allowlisted_name_is_called_from_the_file_it_names():
    for name, caller in REACHED_FROM_OUTSIDE.items():
        assert not caller.startswith("tests/"), f"{name}: tests are not callers"
        tree = ast.parse((ROOT / caller).read_text())
        assert name in set(_identifiers(tree)), f"{caller} no longer calls {name}"
