"""Guards on the shape of the source tree itself."""

import ast
from pathlib import Path

import srp

SRC = Path(srp.__file__).resolve().parent

# Module-level names that nothing in src/srp refers to, with what reaches
# them. A name leaves this list when a caller appears, or with its deletion.
REACHED_FROM_OUTSIDE = {
    "fidelity_grad": "acceptance criterion 6's reference loop",
    "sample_degradation": "acceptance criterion 6's reference loop",
    "reg_value_mc": "the finite-difference check of reg_grad_exact",
    "regularizer_curvature_bound": "the bench audit set-up and acceptance criterion 5",
    "variance_probe": "TestExactAuditTerms",
    "bias_vector": "TestExactAuditTerms",
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
