import os
import re

import pytest

from cacrad.errors import BadLabel, DataError, DuplicateSubject, MissingFile
from cacrad.manifest import CacLabel, ContrastGroup, ManifestEntry, load_manifest, require_files

HEADER = "subject_id,volume,mask,contrast,cac_score\n"


def write_manifest(tmp_path, rows, make_files=True):
    lines = [HEADER]
    for sid, vol, mask, contrast, score in rows:
        lines.append(f"{sid},{vol},{mask},{contrast},{score}\n")
        if make_files:
            for rel in (vol, mask):
                p = tmp_path / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_bytes(b"")
    path = tmp_path / "cohort.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def test_load_happy_path(tmp_path):
    path = write_manifest(tmp_path, [
        ("s1", "vols/a.nii", "masks/a.nii", "contrast", "0"),
        ("s2", "vols/b.nii", "masks/b.nii", "noncontrast", "412.5"),
    ])
    m = load_manifest(path)
    assert isinstance(m, tuple) and all(isinstance(e, ManifestEntry) for e in m)
    assert [e.subject_id for e in m] == ["s1", "s2"]
    e1, e2 = m
    assert e1.cac_label is CacLabel.ZERO
    assert e1.contrast is ContrastGroup.CONTRAST
    assert e2.cac_label is CacLabel.NONZERO
    assert e2.cac_score == 412.5
    assert e2.contrast is ContrastGroup.NONCONTRAST


def test_relative_paths_resolve_against_manifest_dir(tmp_path):
    path = write_manifest(tmp_path, [("s1", "v.nii", "m.nii", "contrast", "1")])
    entry = load_manifest(path)[0]
    assert entry.volume_path == str(tmp_path / "v.nii")
    assert os.path.isabs(entry.volume_path)


def test_absolute_paths_kept(tmp_path):
    vol = tmp_path / "abs_vol.nii"
    vol.write_bytes(b"")
    mask = tmp_path / "abs_mask.nii"
    mask.write_bytes(b"")
    path = write_manifest(tmp_path, [("s1", str(vol), str(mask), "contrast", "1")],
                          make_files=False)
    entry = load_manifest(path)[0]
    assert entry.volume_path == str(vol)


def test_duplicate_subject(tmp_path):
    path = write_manifest(tmp_path, [
        ("s1", "a.nii", "b.nii", "contrast", "0"),
        ("s1", "c.nii", "d.nii", "contrast", "0"),
    ])
    with pytest.raises(DuplicateSubject):
        load_manifest(path)


def test_bad_contrast_label(tmp_path):
    path = write_manifest(tmp_path, [("s1", "a.nii", "b.nii", "arterial", "0")])
    with pytest.raises(BadLabel):
        load_manifest(path)


def test_bad_score(tmp_path):
    for score in ("abc", "-3", "nan", "inf"):
        path = write_manifest(tmp_path, [("s1", "a.nii", "b.nii", "contrast", score)])
        with pytest.raises(BadLabel):
            load_manifest(path)


def test_missing_referenced_file(tmp_path):
    path = write_manifest(tmp_path, [("s1", "a.nii", "b.nii", "contrast", "0")],
                          make_files=False)
    # load_manifest only parses; require_files is the one existence check
    m = load_manifest(path)
    assert len(m) == 1
    with pytest.raises(MissingFile, match="subject 's1': .*a.nii does not exist"):
        require_files(m)


def test_missing_manifest_file(tmp_path):
    with pytest.raises(MissingFile):
        load_manifest(str(tmp_path / "missing.csv"))


def test_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,vol,mask,contrast,score\nx,a,b,contrast,0\n")
    with pytest.raises(DataError):
        load_manifest(str(path))


def test_empty_subject_id(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + ",a.nii,b.nii,contrast,0\n")
    with pytest.raises(DataError):
        load_manifest(str(path))


def test_errors_name_the_line_of_the_row_after_a_blank_line(tmp_path):
    # the rows were numbered by their index among the records, and
    # DictReader skips blank lines, so these named m.csv:2
    path = tmp_path / "m.csv"
    path.write_text(HEADER + "\ns1,a.nii,b.nii,arterial,0\n")
    with pytest.raises(BadLabel, match=f"^{re.escape(str(path))}:3: contrast"):
        load_manifest(str(path))
    path.write_text(HEADER + "\ns0,,,contrast,0\ns0,a.nii,b.nii,contrast,0\n")
    with pytest.raises(DuplicateSubject, match=f"^{re.escape(str(path))}:4: subject 's0'"):
        load_manifest(str(path))


def test_a_missing_volume_after_a_blank_line_names_its_subject(tmp_path):
    path = tmp_path / "m.csv"
    (tmp_path / "b.nii").write_bytes(b"")
    path.write_text(HEADER + "\ns1,va.nii,b.nii,contrast,0\n")
    with pytest.raises(MissingFile) as exc:
        require_files(load_manifest(str(path)))
    assert str(exc.value) == f"subject 's1': {tmp_path / 'va.nii'} does not exist"
