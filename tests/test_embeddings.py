import numpy as np
import pytest

from cacrad.embeddings import load_embeddings, write_embeddings
from cacrad.errors import (
    DuplicateSubject,
    MissingFile,
    NonFiniteValue,
    RaggedRow,
    SchemaMismatch,
)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(5, 8)) / 3.0
    ids = [f"p{i}" for i in range(5)]
    p = tmp_path / "resnet_avg.csv"
    write_embeddings(p, ids, mat)
    got_ids, names, matrix = load_embeddings(p)
    assert got_ids == tuple(ids)
    assert names == tuple(f"e{k}" for k in range(8))
    assert matrix.tobytes() == mat.tobytes()


def test_header_contract(tmp_path):
    ok = tmp_path / "e.csv"
    ok.write_text("subject_id,e0,e1\na,1.0,2.0\n")
    assert load_embeddings(ok)[1] == ("e0", "e1")

    bad_first = tmp_path / "b1.csv"
    bad_first.write_text("id,e0\na,1.0\n")
    with pytest.raises(SchemaMismatch):
        load_embeddings(bad_first)

    bad_cols = tmp_path / "b2.csv"
    bad_cols.write_text("subject_id,dim0,dim1\na,1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        load_embeddings(bad_cols)

    wrong_order = tmp_path / "b3.csv"
    wrong_order.write_text("subject_id,e1,e0\na,1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        load_embeddings(wrong_order)


def test_row_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("subject_id,e0,e1\na,1.0\n")
    with pytest.raises(RaggedRow):
        load_embeddings(ragged)

    nf = tmp_path / "n.csv"
    nf.write_text("subject_id,e0\na,inf\n")
    with pytest.raises(NonFiniteValue):
        load_embeddings(nf)

    notnum = tmp_path / "nn.csv"
    notnum.write_text("subject_id,e0\na,spam\n")
    with pytest.raises(NonFiniteValue):
        load_embeddings(notnum)

    dup = tmp_path / "d.csv"
    dup.write_text("subject_id,e0\na,1.0\na,2.0\n")
    with pytest.raises(DuplicateSubject):
        load_embeddings(dup)

    with pytest.raises(MissingFile):
        load_embeddings(tmp_path / "gone.csv")

