"""Every text file a command reads (the config, the manifest, a feature or
embeddings CSV, a run report) fails as a config, data or degenerate-cohort
error through cli.main, never as a traceback, and leaves no earlier output
beside a new one."""

import contextlib
import io
import json
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.cli import main
from cacrad.config import RunConfig
from cacrad.embeddings import write_embeddings
from cacrad.errors import ConfigError, DuplicateSubject, RaggedRow
from cacrad.manifest import load_manifest
from cacrad.phantom import generate_cohort
from cacrad.table import read_features_csv

ONE_POINT = ("models = linear_svm\nkfold = 2\ntest_fraction = 0.5\nn_seeds = 2\n"
             "grid.linear_svm.lam = 0.001\ngrid.linear_svm.epochs = 10\n")
OVERSIZED = "1" * 140_000  # past the csv module's 131072-character field limit


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 12-subject cohort whose manifest lists absolute paths, so a copy
    of it anywhere reads the same volumes, with run.cfg, features.csv, an
    embeddings.csv, and the real/ and null/ train-eval reports."""
    root = tmp_path_factory.mktemp("chain")
    generate_cohort(root, 12, 0.5, seed=5, dims=(24, 24, 12))
    manifest = root / "manifest.csv"
    m = load_manifest(manifest)
    manifest.write_text("subject_id,volume,mask,contrast,cac_score\n" + "".join(
        f"{e.subject_id},{e.volume_path},{e.mask_path},{e.contrast.value},{e.cac_score!r}\n"
        for e in m))
    (root / "run.cfg").write_text(ONE_POINT)
    write_embeddings(root / "embeddings.csv", [e.subject_id for e in m],
                     np.random.default_rng(5).normal(size=(len(m), 8)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", "--manifest", str(manifest), "--out", str(root)]) == 0
        for arm, flags in (("real", []), ("null", ["--label-shuffle"])):
            assert main(["train-eval", "--config", str(root / "run.cfg"), "--manifest",
                         str(manifest), "--features-csv", str(root / "features.csv"),
                         "--out", str(root / arm), *flags]) == 0
    return root


def _argv(chain, target, command, paths, out):
    """The argv of command reading paths[...] (the mutated copy of target
    among them), and the outputs it writes under out."""
    cfg, manifest = str(paths["run.cfg"]), str(paths["manifest.csv"])
    if command == "stats":
        return (["stats", str(paths["run_report.json"]), str(chain / "null" / "run_report.json"),
                 "--out", str(out)], ["stats.json"])
    if command == "extract":
        return (["extract", "--config", cfg, "--manifest", manifest, "--out", str(out)],
                ["features.csv", "extract_report.json"])
    table = (["--mode", "embeddings", "--embeddings-csv", str(paths["embeddings.csv"])]
             if target == "embeddings.csv"
             else ["--features-csv", str(paths["features.csv"])])
    return (["train-eval", "--config", cfg, "--manifest", manifest, *table, "--out", str(out)],
            ["run_report.json", "metrics.csv"])


COMMANDS = {"run.cfg": ("extract", "train-eval"), "manifest.csv": ("extract", "train-eval"),
            "features.csv": ("train-eval",), "embeddings.csv": ("train-eval",),
            "run_report.json": ("stats",)}


def _inputs(chain, target, copy_to):
    """The path of each input of chain, target's copied into copy_to."""
    paths = {name: chain / name for name in COMMANDS}
    paths["run_report.json"] = chain / "real" / "run_report.json"
    paths[target] = Path(shutil.copy(paths[target], copy_to / target))
    return paths


def _run(argv):
    """cli.main's exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


# --- the twelve inputs that ended in a traceback ----------------------------

def _not_utf8(path):
    data = path.read_bytes()
    cut = data.index(b"\n") + 3
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])


def _oversized(path):
    lines = path.read_text().split("\n")
    lines[1] = OVERSIZED + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines))


def _directory(path):
    path.unlink()
    path.mkdir()


def _nested(path):
    path.write_text("[" * 200_000)


@pytest.mark.parametrize("target, spoil, code", [
    ("run.cfg", _directory, 2),
    ("run.cfg", _not_utf8, 2),
    ("manifest.csv", _not_utf8, 3),
    ("manifest.csv", _oversized, 3),
    ("features.csv", _directory, 3),
    ("features.csv", _not_utf8, 3),
    ("features.csv", _oversized, 3),
    ("embeddings.csv", _not_utf8, 3),
    ("embeddings.csv", _oversized, 3),
    ("run_report.json", _directory, 3),
    ("run_report.json", _not_utf8, 3),
    ("run_report.json", _nested, 3),
], ids=lambda v: v.__name__.strip("_") if callable(v) else str(v))
def test_an_unreadable_input_exits_with_one_line_naming_it(chain, tmp_path, target, spoil,
                                                           code):
    paths = _inputs(chain, target, tmp_path)
    spoil(paths[target])
    argv, _ = _argv(chain, target, COMMANDS[target][0], paths, tmp_path / "out")
    rc, err = _run(argv)
    assert rc == code
    assert err.count("\n") == 1 and str(paths[target]) in err, err[:300]


def test_a_manifest_header_padded_with_spaces_is_read(chain, tmp_path):
    # the header was compared stripped but indexed as written: a KeyError
    padded = chain / "padded.csv"
    text = (chain / "manifest.csv").read_text()
    head, rest = text.split("\n", 1)
    padded.write_text(", ".join(f" {c}" for c in head.split(",")) + "\n" + rest)
    assert load_manifest(padded) == load_manifest(chain / "manifest.csv")
    assert _run(["extract", "--manifest", str(padded), "--out", str(tmp_path)])[0] == 0
    assert (tmp_path / "features.csv").read_bytes() == (chain / "features.csv").read_bytes()


# --- satellites -------------------------------------------------------------

def test_an_empty_out_or_manifest_exits_2_before_anything_is_cleared(chain, tmp_path,
                                                                    monkeypatch):
    # train-eval --out "" cleared run_report.json and metrics.csv here
    monkeypatch.chdir(tmp_path)
    for name in ("run_report.json", "metrics.csv"):
        (tmp_path / name).write_text("earlier\n")
    rc, err = _run(["train-eval", "--manifest", str(chain / "manifest.csv"), "--out", ""])
    assert rc == 2 and "out must be a path" in err
    rc, err = _run(["extract", "--manifest", "", "--out", "o"])
    assert rc == 2 and "manifest must be a path" in err
    # --out a#b ran, and its report's config line out = a#b reads out = a;
    # --manifest none cleared the outputs and then read a file called none
    rc, err = _run(["train-eval", "--manifest", str(chain / "manifest.csv"), "--out", "a#b"])
    assert rc == 2 and "out must be a path" in err
    rc, err = _run(["train-eval", "--manifest", "none", "--out", "."])
    assert rc == 2 and "train-eval needs manifest" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "run_report.json"]
    for key in ("manifest", "out", "features_csv", "embeddings_csv"):
        for bad in ("", "a\0b", "a#b", " x", "x\t", "a\nb", "a\x85b", "none", "None"):
            with pytest.raises(ConfigError, match=f"^{key} must be a path"):
                replace(RunConfig(), **{key: bad})


@pytest.mark.parametrize("row", ["s9,a.nii,b.nii,contrast,0,1,2", "s9,a.nii"])
def test_a_manifest_row_of_another_width_names_its_line(tmp_path, row):
    # 7 cells were accepted; 2 were "contrast must be ..., got None"
    path = tmp_path / "m.csv"
    path.write_text(f"subject_id,volume,mask,contrast,cac_score\n\n{row}\n")
    with pytest.raises(RaggedRow, match=f"^{re.escape(str(path))}:3: expected 5 cells"):
        load_manifest(path)


def test_a_manifest_path_with_a_nul_character_exits_3(tmp_path):
    # resolving it to compare with the outputs raised ValueError
    path = tmp_path / "m.csv"
    path.write_text("subject_id,volume,mask,contrast,cac_score\ns1,a\0b,c,contrast,0\n")
    rc, err = _run(["extract", "--manifest", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3 and f"{path}:2: a volume or mask path holds a NUL" in err


def test_a_repeated_feature_row_names_its_line(tmp_path):
    # it was "duplicate subject ids in <path>", after the whole file
    path = tmp_path / "f.csv"
    path.write_text("subject_id,f0\ns1,1.0\n\ns1,2.0\ns2,x\n")
    with pytest.raises(DuplicateSubject, match=f"^{re.escape(str(path))}:4: subject 's1'"):
        read_features_csv(path)


# --- the seeded mutation test -----------------------------------------------

BAD_CELLS = ["", " ", "x", "nan", "-inf", "1e999", "-1", "0", '"', "\0", "none", "a = b",
             "linear_svm", "1" * 5000]


def _nodes(parent, key, node):
    """(parent, key, node) of node and of everything inside it."""
    yield parent, key, node
    inside = (node.items() if isinstance(node, dict)
              else enumerate(node) if isinstance(node, list) else ())
    for k, child in inside:
        yield from _nodes(node, k, child)


def _mutate_json(doc, how, data):
    """Delete a key of doc, change the type of a value in it, or shorten
    one of its lists."""
    nodes = list(_nodes(None, None, doc))
    if how == "shorten list":
        node = data.draw(st.sampled_from([n for _, _, n in nodes if isinstance(n, list) and n]))
        del node[data.draw(st.integers(0, len(node) - 1)):]
        return
    parent, key, _ = data.draw(st.sampled_from(
        [t for t in nodes if isinstance(t[0], dict) or how == "retype" and t[0] is not None]))
    if how == "delete key":
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(
            [None, True, 1, -1.5, "x", [], {}, [1], {"x": 1}, 1e308]))


def _mutate(path, how, data):
    if how == "directory":
        return _directory(path)
    raw = path.read_bytes()
    if how == "truncate":
        return path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    if how == "append":
        return path.write_bytes(raw + data.draw(st.binary(min_size=1, max_size=16)))
    if how == "not utf-8":
        at = data.draw(st.integers(0, len(raw)))
        byte = data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xff"]))
        return path.write_bytes(raw[:at] + byte + raw[at:])
    if how in JSON_MUTATIONS:
        doc = json.loads(raw)
        _mutate_json(doc, how, data)
        return path.write_text(json.dumps(doc))
    lines = raw.decode().split("\n")
    i = data.draw(st.integers(0, max(len(lines) - 2, 0)))
    cells = lines[i].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    if how == "oversized cell":
        cells[j] = OVERSIZED
    elif how == "bad cell":
        cells[j] = data.draw(st.sampled_from(BAD_CELLS))
    elif how == "short row":
        del cells[j]
    else:  # long row
        cells.insert(j, data.draw(st.sampled_from(BAD_CELLS[:8])))
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))


FILE_MUTATIONS = ["truncate", "append", "not utf-8", "directory"]
JSON_MUTATIONS = ["delete key", "retype", "shorten list"]
CELL_MUTATIONS = ["oversized cell", "bad cell", "short row", "long row"]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_text_input_exits_0_2_3_or_4_and_leaves_no_earlier_output(chain, data):
    target = data.draw(st.sampled_from(sorted(COMMANDS)), label="target")
    how = data.draw(st.sampled_from(FILE_MUTATIONS + (
        JSON_MUTATIONS if target == "run_report.json" else CELL_MUTATIONS)), label="mutation")
    command = data.draw(st.sampled_from(COMMANDS[target]), label="command")
    work = Path(tempfile.mkdtemp(dir=chain))
    try:
        paths = _inputs(chain, target, work)
        _mutate(paths[target], how, data)
        out = work / "out"
        argv, outputs = _argv(chain, target, command, paths, out)
        out.mkdir()
        for name in outputs:
            (out / name).write_text("earlier\n")
        rc, err = _run(argv)
        assert rc in (0, 2, 3, 4), err
        earlier = [n for n in outputs if (out / n).is_file()
                   and (out / n).read_bytes() == b"earlier\n"]
        # a config error can come before the outputs are known; then none is cleared
        assert not earlier or (rc == 2 and len(earlier) == len(outputs)), (rc, err, earlier)
    finally:
        shutil.rmtree(work)
