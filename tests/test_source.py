"""Guards on the shape of the source tree itself."""

import ast
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import srp

SRC = Path(srp.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# Module-level names and class members (keyed ``Class.member``) that nothing
# in src/srp refers to, each with the file (relative to the repository root)
# that calls it from outside. Tests do not count as callers: a name only the
# tests need lives in tests/references.py, and a member only the tests need
# is deleted. A name leaves this list when a caller appears in src/srp, when
# its outside caller stops calling it, or with its deletion.
REACHED_FROM_OUTSIDE = {
    "regularizer_curvature_bound": "bench/workloads.py",
}

# The only functions of src/srp (qualified ``Class.method`` inside a class)
# that may construct each class: one exact MMSE operator per regularizer,
# which keeps one posterior per member, and the one-shot entry points of
# ``priors`` that build a posterior for a single call.
CONSTRUCTED_ONLY_IN = {
    "ExactMmse": {"Regularizer.exact"},
    "LinearGaussianPosterior": {"ExactMmse._posterior", "observation_logpdf",
                                "mmse_restore", "observation_score"},
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


def _reads(node):
    """Every attribute a node reads and every name it imports. An
    ``obj.name`` that is assigned to, or whose items are, is not a read."""
    filled = {id(sub.value) for sub in ast.walk(node)
              if isinstance(sub, ast.Subscript) and not isinstance(sub.ctx, ast.Load)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if isinstance(sub.ctx, ast.Load) and id(sub) not in filled:
                yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _members(node, cls):
    """The members class ``cls`` (parsed as ``node``) defines: methods,
    properties, class attributes and the ``self.`` attributes its methods
    assign. Dunder names are left out, and so are the fields of dataclasses
    and NamedTuples (``asdict``, callers and reports read them) and all of an
    exception class (error payloads are safety code)."""
    if issubclass(cls, BaseException):
        return set()
    if dataclasses.is_dataclass(cls):
        fields = {f.name for f in dataclasses.fields(cls)}
    else:
        fields = set(cls._fields) if issubclass(cls, tuple) else set()
    names = set()
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(sub.id for t in targets for sub in ast.walk(t)
                         if isinstance(sub, ast.Name))
    names.update(sub.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                 and isinstance(sub.value, ast.Name) and sub.value.id == "self")
    return {name for name in names - fields if not (name[:2] == name[-2:] == "__")}


def _unread_members():
    """``Class.member`` for every member of a src/srp class (without
    ``__init__.py``) whose name no code in src/srp reads outside its own
    definition, and every member checked. A name that several classes
    define is one name: a read of it reaches all of them."""
    members, reads = set(), Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads.update(_reads(tree))
        module = importlib.import_module(f"srp.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            members.update(f"{node.name}.{name}"
                           for name in _members(node, getattr(module, node.name)))
            for fn in node.body:  # a method that reads its own name calls itself
                if isinstance(fn, ast.FunctionDef):
                    reads[fn.name] -= sum(name == fn.name for name in _reads(fn))
    return {m for m in members if reads[m.partition(".")[2]] <= 0}, members


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


def _constructors(names):
    """{name: the qualified names of the src/srp functions that call
    ``name(...)`` or ``module.name(...)``}; a module-level call is
    ``<module>``."""
    found = {name: set() for name in names}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in found:
                    found[name].add(owner)
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>")
    return found


def test_exact_operators_and_posteriors_have_one_constructor_each():
    assert _constructors(CONSTRUCTED_ONLY_IN) == CONSTRUCTED_ONLY_IN


def test_every_module_level_name_has_a_caller():
    unreferenced, defined = _unreferenced()
    allowed = {name for name in REACHED_FROM_OUTSIDE if "." not in name}
    assert allowed <= defined, f"allowlisted but gone: {sorted(allowed - defined)}"
    assert unreferenced - allowed == set(), "no caller in src/srp"
    assert allowed - unreferenced == set(), "allowlisted but called from src/srp"


def test_every_class_member_has_a_caller():
    unread, members = _unread_members()
    allowed = {name for name in REACHED_FROM_OUTSIDE if "." in name}
    assert allowed <= members, f"allowlisted but gone: {sorted(allowed - members)}"
    assert sorted(unread - allowed) == [], "no reader in src/srp"
    assert sorted(allowed - unread) == [], "allowlisted but read in src/srp"


def test_every_allowlisted_name_is_called_from_the_file_it_names():
    for name, caller in REACHED_FROM_OUTSIDE.items():
        assert not caller.startswith("tests/"), f"{name}: tests are not callers"
        tree = ast.parse((ROOT / caller).read_text())
        owner, _, member = name.rpartition(".")
        called = _reads(tree) if owner else _identifiers(tree)
        assert member in set(called), f"{caller} no longer calls {name}"
