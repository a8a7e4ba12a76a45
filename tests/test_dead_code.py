"""Every public function, class, method, module-level constant and field
in src/cacrad is used by the program, the benchmark or the scripts, not
only by tests.

A function or class counts as used where it appears in code as a name,
an attribute or a string naming it (as ``getattr`` takes it). A method is
reached only through an object, so it counts as used only as an attribute
or a string: a local variable that shares its name is not a use. A
constant, a name a module assigns at its top level, counts as used only
where it is read: as a name or an attribute in Load context, or as a
string. A field, an annotated name in a class body (a dataclass field)
or an attribute a method assigns on ``self``, counts as used only where it
is read off an object: as an attribute in Load context, or as a string.
Imports and ``__all__`` only re-export a name, so they do not count, and
neither do comments or docstrings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src/cacrad", "perfbench", "scripts")

# Public names that only tests call, each with the reason it stays.
TEST_ONLY = {
    "loss_and_grad": "the mlp loss and flat gradient that the finite-difference and "
                     "fit-loop tests check the training step against",
    "LESION_MARGIN": "the phantom's 130 HU contract: lesion-free ROIs stay below "
                     "TISSUE_HU + LESION_MARGIN and lesions reach it (test_phantom.py)",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> dict:
    """Public name -> [(location, "function", "method", "constant" or "field")]."""
    defs = {}
    for path, tree in _trees("src/cacrad"):
        def add(name, node, kind):
            if not name.startswith("_"):
                defs.setdefault(name, []).append(
                    (f"{path.relative_to(ROOT)}:{node.lineno}", kind))

        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, _DEFS):
                    add(node.name, node,
                        "method" if isinstance(parent, ast.ClassDef) else "function")
                elif isinstance(parent, ast.ClassDef) and isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    add(node.target.id, node, "field")
            if isinstance(parent, ast.Attribute) and isinstance(parent.ctx, ast.Store) \
                    and isinstance(parent.value, ast.Name) and parent.value.id == "self":
                add(parent.attr, parent, "field")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        add(name.id, node, "constant")
    return defs


def _is_export(node) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _uses():
    """(names used as bare names, names used as attributes or strings,
    names read as names or attributes or used as strings, names read as
    attributes or used as strings)."""
    bare, used, read, fetched = set(), set(), set(), set()
    for _, tree in _trees(*USERS):
        stack = [tree]
        while stack:
            node = stack.pop()
            if _is_export(node):
                continue
            if isinstance(node, ast.Name):
                bare.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                    fetched.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
                read.add(node.value)
                fetched.add(node.value)
            stack.extend(ast.iter_child_nodes(node))
    return bare, used, read, fetched


def _unused(defs, bare, used, read, fetched) -> dict:
    out = {}
    for name, places in defs.items():
        where = [loc for loc, kind in places
                 if (name not in read if kind == "constant"
                     else name not in fetched if kind == "field"
                     else name not in used and (kind == "method" or name not in bare))]
        if where:
            out[name] = where
    return out


def test_every_public_name_is_used_outside_tests():
    dead = _unused(_definitions(), *_uses())
    dead = {name: where for name, where in dead.items() if name not in TEST_ONLY}
    assert not dead, f"defined but used only by tests, if at all: {dead}"


def test_test_only_allowlist_is_current():
    defs = _definitions()
    dead = _unused(defs, *_uses())
    stale = [name for name in TEST_ONLY if name not in defs or name not in dead]
    assert not stale, f"allowlisted names that are gone or now used: {stale}"


def test_no_unused_imports():
    """Every name a module in src/cacrad imports is used in that module,
    listed in its ``__all__``, or marked ``# noqa: F401``."""
    unused = []
    for path, tree in _trees("src/cacrad"):
        lines = path.read_text().splitlines()
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # __all__ entries and string annotations
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(ROOT)}:{alias.lineno} {name}")
    assert not unused, f"imported but never used: {unused}"
