"""Every public function, class and method in src/cacrad is used by the
program, the benchmark or the scripts, not only by tests.

A name counts as used where it appears in code as a name, an attribute or
a string naming it (as ``getattr`` takes it). Imports and ``__all__`` only
re-export a name, so they do not count, and neither do comments or
docstrings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src/cacrad", "perfbench", "scripts")

# Public names that only tests call, each with the reason it stays.
TEST_ONLY = {
    "as_dict": "name-keyed view of a FeatureVector; the feature oracles compare by name",
    "from_json": "loads a model document back; the round-trip test pins what fingerprints hash",
    "loss_and_grad": "the mlp loss and flat gradient that the finite-difference and "
                     "fit-loop tests check the training step against",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions() -> dict:
    defs = {}
    for path, tree in _trees("src/cacrad"):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return defs


def _is_export(node) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _uses() -> set:
    used = set()
    for _, tree in _trees(*USERS):
        stack = [tree]
        while stack:
            node = stack.pop()
            if _is_export(node):
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
            stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_name_is_used_outside_tests():
    defs, used = _definitions(), _uses()
    dead = {name: where for name, where in defs.items()
            if name not in used and name not in TEST_ONLY}
    assert not dead, f"defined but used only by tests, if at all: {dead}"


def test_test_only_allowlist_is_current():
    defs, used = _definitions(), _uses()
    stale = [name for name in TEST_ONLY if name not in defs or name in used]
    assert not stale, f"allowlisted names that are gone or now used: {stale}"
