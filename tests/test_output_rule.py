"""Outputs are removed and written in one place: table.writable_path clears
each output of a command before the command reads an input, so no command
orders removals of its own, and table.write_atomic writes every output
beside its path and moves it into place, so no failed write leaves a
partial file."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REMOVAL = re.compile(r"\.unlink\(|\bos\.remove\(|\brmtree\(")
# open with a write, append or create mode; a GzipFile not given a fileobj
# (one that opens its filename); Path.write_text and Path.write_bytes
WRITE = re.compile(r"""\bopen\([^)]*["'][wax]b?\+?["']|\bGzipFile\((?![^)]*\bfileobj=)"""
                   r"""|\.write_(text|bytes)\(""")


def _sources_matching(pattern):
    return sorted(str(path.relative_to(ROOT))
                  for path in (ROOT / "src" / "cacrad").rglob("*.py")
                  if pattern.search(path.read_text(encoding="utf-8")))


def test_only_table_py_removes_files():
    assert _sources_matching(REMOVAL) == ["src/cacrad/table.py"]


def test_only_table_py_writes_files():
    assert _sources_matching(WRITE) == ["src/cacrad/table.py"]


def test_the_write_rule_sees_each_way_of_writing():
    for text in ('open(tmp, "wb")', 'open(path, "w", newline="")', "open(p, mode='a')",
                 'gzip.open(path, "wb")', 'gzip.GzipFile(path, mode="wb")',
                 'gzip.GzipFile(filename="",\n    mode="wb")', 'Path(p).write_text(s)',
                 'path.write_bytes(b)'):
        assert WRITE.search(text), text
    for text in ('open(path, "rb")', 'gzip.open(path, "rb")', 'open(path, encoding="utf-8")',
                 'gzip.GzipFile(filename="", fileobj=packed, mode="wb",\n    mtime=0)',
                 'fh.write(data)'):
        assert not WRITE.search(text), text
