"""Golden digests of whole feature vectors on fixed ROIs.

Each digest is the sha256 of ``extract_all(...).tobytes()``. The
digests were re-recorded when the cluster moments became products and
the run, zone and dependence descriptors began to read only their
occupied columns, so any kernel change that moves a single bit of any
of the 107 features fails here. Regenerate them only for a change that
is meant to alter feature values, and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from cacrad.features import ExtractionConfig, extract_all
from cacrad.nifti import Volume3D
from cacrad.phantom import make_subject


def _smooth(field, passes=3):
    """Average over each voxel and its 6 face neighbours, wrapping at the
    edges, a few times."""
    for _ in range(passes):
        acc = field.copy()
        for axis in range(3):
            acc += np.roll(field, 1, axis) + np.roll(field, -1, axis)
        field = acc / 7.0
    return field


def _ball(dims, radius, center=None):
    c = np.array(dims, dtype=np.float64) / 2.0 if center is None else np.asarray(center)
    g = np.indices(dims).astype(np.float64)
    return ((g - c[:, None, None, None]) ** 2).sum(axis=0) <= radius ** 2


def _case(intensities, labels, spacing=(1.0, 1.0, 1.0)):
    dims = labels.shape
    return (Volume3D(dims=dims, spacing=spacing, intensities=np.round(intensities)),
            labels)


def white_noise_blob():
    rng = np.random.default_rng(8101)
    dims = (18, 17, 16)
    return _case(40.0 + 160.0 * rng.standard_normal(dims), _ball(dims, 6.5))


def smoothed_noise_tube():
    rng = np.random.default_rng(8102)
    dims = (16, 16, 30)
    z = np.arange(dims[2])
    cx = 8.0 + 3.5 * np.sin(2 * np.pi * z / 30.0)
    cy = 8.0 + 3.0 * np.cos(2 * np.pi * z / 22.0)
    x = np.arange(dims[0])[:, None, None]
    y = np.arange(dims[1])[None, :, None]
    tube = (x - cx) ** 2 + (y - cy) ** 2 <= 3.2 ** 2
    field = _smooth(rng.standard_normal(dims))
    field = 500.0 * field / np.abs(field).max()
    return _case(100.0 + field, tube)


def phantom_roi():
    s = make_subject(3, True, "noncontrast", seed=8103)
    return s.volume, s.mask


def one_voxel():
    labels = np.zeros((5, 5, 5), dtype=bool)
    labels[2, 3, 1] = True
    return _case(np.full((5, 5, 5), 130.0), labels)


def diagonal_line():
    n = 11
    labels = np.zeros((n, n, n), dtype=bool)
    t = np.arange(n)
    labels[t, n - 1 - t, t] = True
    return _case(np.broadcast_to(75.0 * (t % 4)[:, None, None], (n, n, n)), labels)


def anisotropic_blob():
    rng = np.random.default_rng(8106)
    dims = (14, 20, 9)
    labels = _ball(dims, 5.5) & (rng.random(dims) < 0.85)
    return _case(200.0 * rng.standard_normal(dims), labels, spacing=(0.45, 0.7, 2.5))


def flat_plate():
    """One slice: every direction with a z step has no counts."""
    rng = np.random.default_rng(8107)
    dims = (12, 10, 1)
    return _case(300.0 * rng.random(dims), _ball(dims, 4.8, center=(6.0, 5.0, 0.0)))


CASES = {
    "white_noise_blob": (white_noise_blob, ExtractionConfig()),
    "smoothed_noise_tube": (smoothed_noise_tube, ExtractionConfig()),
    "phantom_roi": (phantom_roi, ExtractionConfig()),
    "one_voxel": (one_voxel, ExtractionConfig()),
    "diagonal_line": (diagonal_line, ExtractionConfig()),
    "anisotropic_blob": (anisotropic_blob, ExtractionConfig(bin_width=10.0)),
    "flat_plate": (flat_plate, ExtractionConfig(n_bins=16, glcm_distance=2)),
}

GOLDEN = {
    "anisotropic_blob": "94be81687cd7e579ecf904b55fa767afc1bbcf10d41e19bf0fb802131927c910",  # 573 voxels, ng 119
    "diagonal_line": "10a3b966333593c62dc48456e9912bd8fda6a69f1554d5f9ba88cbb730d94992",  # 11 voxels, ng 10
    "flat_plate": "71685983c627ea0e9519f555ac34295c671360ca1650731f72a626094ed037f0",  # 69 voxels, ng 16
    "one_voxel": "2e38f93614da9bb6d6145679fac81a9f7a9fffd167816a172b31783c53486152",  # 1 voxel, ng 1
    "phantom_roi": "c04a386cecf2c92776aa92ae88daeea2faac247c1a8e02a2f7f81985a39565c1",  # 754 voxels, ng 28
    "smoothed_noise_tube": "5155c06a85730a76d67893f4baa8008445c603b57fb47850e3b93e509830eab6",  # 974 voxels, ng 36
    "white_noise_blob": "ac3c1db3401c17dd441f15ea29ff4157a26ae6c68e95eb60c3b08980c2c03f05",  # 1166 voxels, ng 41
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_feature_vector_digest_is_golden(name):
    build, cfg = CASES[name]
    vol, mask = build()
    got = hashlib.sha256(extract_all(vol, mask, cfg).tobytes()).hexdigest()
    assert got == GOLDEN[name], name
