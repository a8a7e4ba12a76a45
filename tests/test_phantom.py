import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from cacrad import parallel, phantom
from cacrad.errors import BadRange, IoFailure
from cacrad.manifest import CacLabel, ContrastGroup, load_manifest
from cacrad.nifti import read_nifti
from cacrad.phantom import (
    LESION_MARGIN,
    TISSUE_HU,
    generate_cohort,
    make_subject,
)

SMALL_DIMS = (24, 24, 12)


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_cohort(a, 6, 0.5, seed=13, dims=SMALL_DIMS)
    generate_cohort(b, 6, 0.5, seed=13, dims=SMALL_DIMS)
    da, db = tree_digest(a), tree_digest(b)
    assert da == db
    c = tmp_path / "c"
    generate_cohort(c, 6, 0.5, seed=14, dims=SMALL_DIMS)
    assert tree_digest(c) != da


def test_exact_balance_and_contrast_split(tmp_path):
    manifest = load_manifest(generate_cohort(tmp_path, 10, 0.3, seed=0,
                                             dims=SMALL_DIMS))
    assert len(manifest) == 10
    labels = [e.cac_label for e in manifest]
    assert labels.count(CacLabel.NONZERO) == 3
    # contrast tags are stratified half/half within each class
    for label in (CacLabel.ZERO, CacLabel.NONZERO):
        members = [e for e in manifest if e.cac_label is label]
        n_con = sum(1 for e in members if e.contrast is ContrastGroup.CONTRAST)
        assert n_con == len(members) // 2


def test_roi_intensity_separation():
    # Zero subjects must stay below the lesion decision margin inside the ROI
    for idx in range(4):
        subj = make_subject(idx, label_nonzero=False, contrast="contrast",
                            seed=5, dims=SMALL_DIMS)
        roi_vals = subj.volume.intensities[subj.mask]
        assert roi_vals.max() < TISSUE_HU + LESION_MARGIN
        assert subj.cac_score == 0.0
    for idx in range(4):
        subj = make_subject(idx, label_nonzero=True, contrast="contrast",
                            seed=5, dims=SMALL_DIMS)
        roi_vals = subj.volume.intensities[subj.mask]
        assert roi_vals.max() >= TISSUE_HU + LESION_MARGIN
        assert subj.cac_score > 0.0


def test_mask_carries_no_label_signal():
    # same (index, seed) gives the same tube whether or not lesions are added
    neg = make_subject(2, False, "contrast", seed=9, dims=SMALL_DIMS)
    pos = make_subject(2, True, "contrast", seed=9, dims=SMALL_DIMS)
    assert np.array_equal(neg.mask, pos.mask)


def test_written_volumes_parse_and_are_int_valued(tmp_path):
    manifest = load_manifest(generate_cohort(tmp_path, 4, 0.5, seed=2,
                                             dims=SMALL_DIMS))
    for entry in manifest:
        vol = read_nifti(entry.volume_path)
        assert vol.dims == SMALL_DIMS
        assert np.all(vol.intensities == np.round(vol.intensities))
        mask = read_nifti(entry.mask_path)
        assert set(np.unique(mask.intensities)) <= {0.0, 1.0}
        assert mask.intensities.sum() > 0


def test_generate_errors(tmp_path):
    with pytest.raises(BadRange):
        generate_cohort(tmp_path, 1, 0.5, seed=0)
    with pytest.raises(BadRange):
        generate_cohort(tmp_path, 4, 1.5, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(BadRange, match="seed"):
            generate_cohort(tmp_path, 4, 0.5, seed=seed)
    assert not any(tmp_path.iterdir())


def test_any_cpu_count_writes_the_same_tree(cpus, tmp_path, monkeypatch):
    pids = set()

    def spy(fn, items):
        out = parallel.map_ordered(lambda i: (fn(i), os.getpid()), items)
        pids.update(pid for _, pid in out)
        return [row for row, _ in out]

    monkeypatch.setattr(phantom, "map_ordered", spy)
    digests = []
    for n in (1, 3):
        cpus(n)
        pids.clear()
        generate_cohort(tmp_path / str(n), 7, 0.5, seed=13, dims=SMALL_DIMS)
        assert len(pids) == n
        digests.append(tree_digest(tmp_path / str(n)))
    assert digests[0] == digests[1] and len(digests[0]) == 15


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_a_failed_subject_leaves_no_manifest(cpus, n_cpus, tmp_path, monkeypatch):
    generate_cohort(tmp_path, 6, 0.5, seed=13, dims=SMALL_DIMS)
    assert (tmp_path / "manifest.csv").exists()
    write_nifti = phantom.write_nifti

    def fail_some(vol, path, **kw):
        for sid in ("phantom_004", "phantom_002"):
            if sid in str(path):
                raise IoFailure(f"cannot write {sid}")
        return write_nifti(vol, path, **kw)

    monkeypatch.setattr(phantom, "write_nifti", fail_some)
    cpus(n_cpus)
    with pytest.raises(IoFailure, match="phantom_002"):  # the lowest failing index
        generate_cohort(tmp_path, 6, 0.5, seed=14, dims=SMALL_DIMS)
    assert not (tmp_path / "manifest.csv").exists()
