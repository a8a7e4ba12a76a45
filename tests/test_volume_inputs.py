"""A mutated volume or mask reaches extract through cli.main and ends in
exit 0 or 3, never a traceback: the subject is extracted or excluded.

Each example copies one file of a two-subject phantom cohort, edits one
header field of it, truncates it or appends bytes to it, and runs extract
on a manifest listing the copy and the other subject's intact files.
"""

import contextlib
import gzip
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacrad.cli import main
from cacrad.manifest import load_manifest
from cacrad.nifti import MAX_TRAILING
from cacrad.phantom import generate_cohort
from cacrad.table import read_features_csv

# Header fields read_nifti parses, as (offset, struct code, count)
FIELDS = [(40, "h", 8), (70, "h", 2), (76, "f", 8), (108, "f", 1), (112, "f", 2),
          (252, "h", 2), (256, "f", 6), (280, "f", 12), (344, "4s", 1)]
VALUES = {
    "h": st.sampled_from([-1, 0, 1, 3, 4, 16, 64, 2 ** 15 - 1]) | st.integers(-2 ** 15, 2 ** 15 - 1),
    "f": st.sampled_from([float("nan"), float("inf"), 0.0, -1.0, 1e-30, 400.0, 3.4e38])
    | st.floats(width=32),
    "4s": st.sampled_from([b"ni1\0", b"n+2\0"]) | st.binary(min_size=4, max_size=4),
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """(subject ids, {id: (volume path, mask path)}) of a two-subject cohort."""
    root = tmp_path_factory.mktemp("volumes")
    generate_cohort(root, 2, 0.5, seed=7, dims=(16, 16, 8))
    entries = load_manifest(root / "manifest.csv")
    return root, {e.subject_id: (e.volume_path, e.mask_path) for e in entries}


@st.composite
def mutations(draw):
    how = draw(st.sampled_from(["header", "truncate", "append inside gzip", "append"]))
    if how == "header":
        offset, code, count = draw(st.sampled_from(FIELDS))
        k = draw(st.integers(0, count - 1))
        return how, (offset + k * struct.calcsize(code), code, draw(VALUES[code]))
    if how == "truncate":
        return how, draw(st.integers(0, 1 << 16))
    size = draw(st.sampled_from([1, MAX_TRAILING, MAX_TRAILING + 1, 3 * MAX_TRAILING])
                | st.integers(1, 512))
    return how, draw(st.sampled_from([b"\0", b"\x1f", b"\xff"])) * size


def _mutate(path, how, arg):
    packed = path.read_bytes()
    if how == "truncate":
        path.write_bytes(packed[:arg % (len(packed) + 1)])
    elif how == "append":
        path.write_bytes(packed + arg)
    else:
        raw = bytearray(gzip.decompress(packed))
        if how == "header":
            offset, code, value = arg
            struct.pack_into("<" + code, raw, offset, value)  # phantom files are little-endian
        else:
            raw += arg
        path.write_bytes(gzip.compress(bytes(raw), mtime=0))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(victim=st.integers(0, 1), which=st.integers(0, 1), mutation=mutations())
@example(victim=0, which=0, mutation=("append inside gzip", b"\0" * (3 * MAX_TRAILING)))
@example(victim=1, which=1, mutation=("header", (42, "h", 2 ** 15 - 1)))
@example(victim=0, which=0, mutation=("truncate", 400))
def test_a_mutated_volume_or_mask_is_extracted_or_excluded(cohort, victim, which, mutation):
    root, files = cohort
    ids = sorted(files)
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        paths = dict(files)
        original = paths[ids[victim]][which]
        copy = Path(shutil.copy(original, work / Path(original).name))
        _mutate(copy, *mutation)
        paths[ids[victim]] = tuple(copy if k == which else p
                                   for k, p in enumerate(paths[ids[victim]]))
        manifest = work / "manifest.csv"
        manifest.write_text("subject_id,volume,mask,contrast,cac_score\n" + "".join(
            f"{sid},{paths[sid][0]},{paths[sid][1]},noncontrast,0.0\n" for sid in ids))
        out = work / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["extract", "--manifest", str(manifest), "--out", str(out)])
        assert rc in (0, 3), err.getvalue()
        if rc == 0:
            report = json.loads((out / "extract_report.json").read_text())
            excluded = [e["subject_id"] for e in report["excluded"]]
            extracted = list(read_features_csv(out / "features.csv")[0])
            assert ids[1 - victim] in extracted
            assert (ids[victim] in extracted) != (ids[victim] in excluded)
    finally:
        shutil.rmtree(work)
