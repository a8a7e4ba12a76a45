"""Cohort manifest: the CSV that drives per-subject processing.

Format: UTF-8 CSV with header ``subject_id,volume,mask,contrast,cac_score``.
Relative volume/mask paths are resolved against the manifest's directory.
``cac_score`` is the raw calcium score; the binary label is Zero iff it
equals 0. A loaded manifest is a tuple of ManifestEntry, in file order.
"""

import enum
import math
import os
from dataclasses import dataclass

from .errors import BadLabel, DataError, DuplicateSubject, MissingFile, RaggedRow
from .files import csv_rows


class CacLabel(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"


class ContrastGroup(enum.Enum):
    CONTRAST = "contrast"
    NONCONTRAST = "noncontrast"


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    volume_path: str
    mask_path: str
    contrast: ContrastGroup
    cac_label: CacLabel
    cac_score: float


_COLUMNS = ["subject_id", "volume", "mask", "contrast", "cac_score"]


def load_manifest(path) -> tuple:
    """Load and validate a cohort manifest CSV; an error names its path and
    the row's line, and MissingFile says it cannot be read. require_files
    checks that the volumes and masks exist."""
    base = os.path.dirname(os.path.abspath(path))
    rows = csv_rows(path, "manifest", MissingFile)
    header = next(rows, (0, None))[1]
    if header is None or [c.strip() for c in header] != _COLUMNS:
        raise DataError(f"{path}: expected header {','.join(_COLUMNS)}, got {header}")

    entries = []
    seen = set()
    for lineno, cells in rows:
        if len(cells) != len(_COLUMNS):
            raise RaggedRow(f"{path}:{lineno}: expected {len(_COLUMNS)} cells, got {len(cells)}")
        sid, volume, mask, contrast, cac_score = cells
        sid = sid.strip()
        if not sid:
            raise DataError(f"{path}:{lineno}: empty subject_id")
        if sid in seen:
            raise DuplicateSubject(f"{path}:{lineno}: subject {sid!r} repeated")
        seen.add(sid)

        try:
            group = ContrastGroup(contrast.strip().lower())
        except ValueError:
            raise BadLabel(
                f"{path}:{lineno}: contrast must be contrast|noncontrast, got {contrast!r}"
            ) from None

        try:
            score = float(cac_score)
        except ValueError:
            raise BadLabel(f"{path}:{lineno}: cac_score {cac_score!r} is not a number") from None
        if not 0 <= score < math.inf:
            raise BadLabel(f"{path}:{lineno}: cac_score must be finite and >= 0, got {score}")
        label = CacLabel.ZERO if score == 0 else CacLabel.NONZERO
        if "\0" in volume + mask:
            raise DataError(f"{path}:{lineno}: a volume or mask path holds a NUL character")

        entries.append(
            ManifestEntry(
                subject_id=sid,
                volume_path=os.path.join(base, volume),
                mask_path=os.path.join(base, mask),
                contrast=group,
                cac_label=label,
                cac_score=score,
            )
        )
    return tuple(entries)


def require_files(manifest: tuple) -> None:
    """MissingFile, naming the subject, for the first volume or mask of the
    manifest that is not a file."""
    for e in manifest:
        for p in (e.volume_path, e.mask_path):
            if not os.path.isfile(p):
                raise MissingFile(f"subject {e.subject_id!r}: {p} does not exist")
