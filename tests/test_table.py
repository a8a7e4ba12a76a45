import os
import re

import numpy as np
import pytest

from cacrad.embeddings import load_embeddings
from cacrad.errors import (
    DuplicateSubject,
    IoFailure,
    LengthMismatch,
    MissingFile,
    NonFiniteValue,
    SchemaMismatch,
    UnknownColumn,
)
from cacrad.manifest import (
    CacLabel,
    ContrastGroup,
    ManifestEntry,
)
from cacrad.table import (
    FeatureTable,
    attach_cohort,
    read_features_csv,
    write_features_csv,
    write_atomic,
)


def entry(sid, contrast=ContrastGroup.CONTRAST, score=0.0):
    label = CacLabel.ZERO if score == 0 else CacLabel.NONZERO
    return ManifestEntry(subject_id=sid, volume_path="v", mask_path="m",
                         contrast=contrast, cac_label=label, cac_score=score)


def toy_table():
    ids = ("a", "b", "c")
    names = ("f0", "f1")
    mat = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    labels = (CacLabel.ZERO, CacLabel.NONZERO, CacLabel.NONZERO)
    groups = (ContrastGroup.CONTRAST, ContrastGroup.NONCONTRAST, ContrastGroup.CONTRAST)
    return FeatureTable(ids, names, mat, labels, groups)


def test_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(4, 6)) * np.pi  # awkward decimals on purpose
    ids = [f"s{i}" for i in range(4)]
    names = [f"feat_{j}" for j in range(6)]
    p = tmp_path / "feat.csv"
    write_features_csv(p, ids, names, mat)
    rids, rnames, rmat = read_features_csv(p)
    assert rids == tuple(ids)
    assert rnames == tuple(names)
    assert rmat.tobytes() == mat.tobytes()
    # a second write of the re-read data is byte-identical to the first file
    p2 = tmp_path / "feat2.csv"
    write_features_csv(p2, rids, rnames, rmat)
    assert p2.read_bytes() == p.read_bytes()


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "features.csv"
    write_features_csv(path, ["a"], ["f0"], np.array([[1.0]]))
    before = path.read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_features_csv(path, ["a", "b"], ["f0"], np.array([[2.0], [3.0]]))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]


def test_failed_write_is_an_io_failure_naming_the_path(tmp_path):
    # an OSError here used to end the run in a traceback
    (tmp_path / "file").write_text("x")
    for path in (tmp_path / "missing" / "t.csv", tmp_path / "file" / "t.csv", tmp_path):
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {path}")):
            write_atomic(path, "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_read_errors(tmp_path):
    with pytest.raises(MissingFile):
        read_features_csv(tmp_path / "gone.csv")

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,f0\ns1,1.0\n")
    with pytest.raises(SchemaMismatch):
        read_features_csv(bad_header)

    dup_col = tmp_path / "d.csv"
    dup_col.write_text("subject_id,f0,f0\ns1,1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        read_features_csv(dup_col)

    ragged = tmp_path / "r.csv"
    ragged.write_text("subject_id,f0,f1\ns1,1.0\n")
    with pytest.raises(LengthMismatch):
        read_features_csv(ragged)

    notnum = tmp_path / "n.csv"
    notnum.write_text("subject_id,f0\ns1,spam\n")
    with pytest.raises(NonFiniteValue):
        read_features_csv(notnum)

    nan_val = tmp_path / "nan.csv"
    nan_val.write_text("subject_id,f0\ns1,nan\n")
    with pytest.raises(NonFiniteValue):
        read_features_csv(nan_val)

    dup_id = tmp_path / "di.csv"
    dup_id.write_text("subject_id,f0\ns1,1.0\ns1,2.0\n")
    with pytest.raises(DuplicateSubject):
        read_features_csv(dup_id)

    # both readers name the file and line of a bad row
    for read in (read_features_csv, load_embeddings):
        for name, row, error in (("nan_row", "s2,nan,1.0", NonFiniteValue),
                                 ("short_row", "s2,1.0", LengthMismatch)):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"subject_id,e0,e1\ns1,1.0,2.0\n{row}\n")
            with pytest.raises(error, match=re.escape(f"{path}:3:")):
                read(path)
            # a quoted cell that spans two lines moves the bad row to line 4
            path.write_text(f'subject_id,e0,e1\n"s\n1",1.0,2.0\n{row}\n')
            with pytest.raises(error, match=re.escape(f"{path}:4:")):
                read(path)


def test_table_invariants():
    with pytest.raises(LengthMismatch):
        FeatureTable(("a",), ("f0", "f1"), np.zeros((1, 3)),
                     (CacLabel.ZERO,), (ContrastGroup.CONTRAST,))
    with pytest.raises(DuplicateSubject):
        FeatureTable(("a", "a"), ("f0",), np.zeros((2, 1)),
                     (CacLabel.ZERO, CacLabel.ZERO),
                     (ContrastGroup.CONTRAST, ContrastGroup.CONTRAST))
    with pytest.raises(SchemaMismatch):
        FeatureTable(("a",), ("f0", "f0"), np.zeros((1, 2)),
                     (CacLabel.ZERO,), (ContrastGroup.CONTRAST,))


def test_select_and_take():
    t = toy_table()
    sel = t.select_columns(["f1"])
    assert sel.feature_names == ("f1",)
    assert sel.matrix.tolist() == [[2.0], [4.0], [6.0]]
    with pytest.raises(UnknownColumn):
        t.select_columns(["nope"])

    sub = t.take_rows([2, 0])
    assert sub.subject_ids == ("c", "a")
    assert sub.matrix.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    assert sub.labels == (CacLabel.NONZERO, CacLabel.ZERO)


def test_group_and_label_helpers():
    t = toy_table()
    assert t.rows_in_group(ContrastGroup.NONCONTRAST) == [1]
    assert t.label_array().tolist() == [0, 1, 1]
    assert t.n_rows == 3


def test_attach_cohort_join():
    manifest = (
        entry("a", ContrastGroup.CONTRAST, 0.0),
        entry("b", ContrastGroup.NONCONTRAST, 55.0),
        entry("zzz", ContrastGroup.CONTRAST, 1.0),
    )
    t = attach_cohort(["b", "a"], ["f0"], np.array([[1.0], [2.0]]), manifest)
    assert t.labels == (CacLabel.NONZERO, CacLabel.ZERO)
    assert t.groups == (ContrastGroup.NONCONTRAST, ContrastGroup.CONTRAST)

    with pytest.raises(SchemaMismatch):
        attach_cohort(["ghost"], ["f0"], np.array([[1.0]]), manifest)
