"""src/ holds only what the toolkit runs.

Every module-level function, class and constant defined in src/, private
ones too, and every public method and property must be referenced
somewhere in src/ or in the benchmark harness perfbench/*.py, outside its
own definition (dunders are exempt); test-only code belongs in tests/
(labelled oracles in tests/oracles.py).  A module-level name counts as
referenced by a bare name, an attribute or a string constant (the harness
wraps functions by name); a method or property only by an attribute, and
not by one read off an imported outside module (``np.random`` is no
reference to a method ``random``).  A function decorated with
``@criterion(...)`` is referenced by its decorator: run_verify_suite runs
it through ``verify.CRITERIA``.  Methods that share a name are told apart
by no one."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "smcensus").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# name -> why it stays in src/ with no caller there yet
ALLOWED = {
    "irving_leather": "the doubling family a level-transfer downset count will run in verify",
    "finite_reveal_log_bound": "the per-n bound a per-instance chain ledger will read",
    "rows_built": "the test seam of the option-count table's build-only-requested-rows contract",
}


def _outside_modules(tree):
    """Local names bound to modules and names imported from outside smcensus."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names
                         if not a.name.startswith("smcensus"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not node.module.startswith("smcensus"):
            bound.update(a.asname or a.name for a in node.names)
    return bound


def _references(node, outside):
    """(names, attributes, strings) used under node: attributes read off an
    outside module are left out."""
    names, attrs, strings = Counter(), Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in outside):
                attrs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            strings[sub.value] += 1
    return names, attrs, strings


def _uses(refs, name, method):
    names, attrs, strings = refs
    return attrs[name] if method else names[name] + attrs[name] + strings[name]


def _definitions(tree):
    """(qualified name, name, definition node, is a method) for the
    module's functions, classes and constants (the names a module-level
    assignment binds) and its classes' public methods and properties."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((sub.id, sub.id, node, False) for target in targets
                        for sub in ast.walk(target) if isinstance(sub, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m.name, m, True) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _declared_criterion(node):
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "criterion"
        for d in node.decorator_list)


def unreferenced_names():
    total = [Counter(), Counter(), Counter()]
    defined = []
    for path in SRC + PERFBENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside = _outside_modules(tree)
        for count, part in zip(total, _references(tree, outside)):
            count.update(part)
        if path in SRC:
            defined += [(f"{path.stem}.{qual}", name, method, _references(d, outside))
                        for qual, name, d, method in _definitions(tree)
                        if not (name.startswith("__") and name.endswith("__"))
                        and not _declared_criterion(d)]
    return {qual: name for qual, name, method, own in defined
            if _uses(total, name, method) - _uses(own, name, method) <= 0}


def test_every_public_name_in_src_has_a_reference():
    found = unreferenced_names()
    assert sorted(set(found.values()) - set(ALLOWED)) == [], sorted(found)
    # no stale allowance; it also shows the scan flags what has no reference
    assert sorted(set(ALLOWED) - set(found.values())) == []

