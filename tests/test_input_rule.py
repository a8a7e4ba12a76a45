"""Text inputs are read in one place: cacrad.files opens them as UTF-8 and
turns every read failure into a CacradError naming the file, so no module
reads a text file its own way. nifti.py's binary reads are the exception;
opens in a write mode are table.write_atomic's, which
tests/test_output_rule.py keeps the only writer."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READ = re.compile(r"""\.read_text\(|\bcsv\.(reader|DictReader)\(|\bopen\((?![^)]*["']wb?["'])""")


def test_only_files_py_reads_text():
    readers = sorted(f"{path.relative_to(ROOT)}: {line.strip()}"
                     for path in (ROOT / "src" / "cacrad").rglob("*.py")
                     if path.name != "files.py"
                     for line in path.read_text().splitlines()
                     if READ.search(line) and not (path.name == "nifti.py" and '"rb"' in line))
    assert readers == []


def test_the_rule_sees_each_way_of_reading():
    for line in ('with open(path) as fh:', 'open(p, newline="")', 'Path(p).read_text()',
                 'csv.reader(fh)', 'csv.DictReader(fh)'):
        assert READ.search(line), line
    for line in ('with open(tmp, "w", newline="") as fh:', 'open(path, "wb")'):
        assert not READ.search(line), line
