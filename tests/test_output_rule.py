"""Outputs are removed in one place: table.writable_path clears each
output of a command before the command reads an input, so no command
orders removals of its own."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REMOVAL = re.compile(r"\.unlink\(|\bos\.remove\(|\brmtree\(")


def test_only_table_py_removes_files():
    removers = sorted(str(path.relative_to(ROOT))
                      for path in (ROOT / "src" / "cacrad").rglob("*.py")
                      if REMOVAL.search(path.read_text()))
    assert removers == ["src/cacrad/table.py"]
