"""Cohort manifest: the CSV that drives per-subject processing.

Format: UTF-8 CSV with header ``subject_id,volume,mask,contrast,cac_score``.
Relative volume/mask paths are resolved against the manifest's directory.
``cac_score`` is the raw calcium score; the binary label is Zero iff it
equals 0.
"""

import csv
import enum
import os
from dataclasses import dataclass

from .errors import BadLabel, DataError, DuplicateSubject, MissingFile


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


@dataclass(frozen=True)
class CohortManifest:
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def subject_ids(self):
        return [e.subject_id for e in self.entries]


_COLUMNS = ["subject_id", "volume", "mask", "contrast", "cac_score"]


def load_manifest(path) -> CohortManifest:
    """Load and validate a cohort manifest CSV; an error names its path and
    the row's line. require_files checks that the volumes and masks exist."""
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != _COLUMNS:
                raise DataError(
                    f"{path}: expected header {','.join(_COLUMNS)}, got {reader.fieldnames}"
                )
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise MissingFile(f"{path}: {exc}") from exc

    entries = []
    seen = set()
    for lineno, row in rows:
        sid = (row["subject_id"] or "").strip()
        if not sid:
            raise DataError(f"{path}:{lineno}: empty subject_id")
        if sid in seen:
            raise DuplicateSubject(f"{path}:{lineno}: subject {sid!r} repeated")
        seen.add(sid)

        contrast_raw = (row["contrast"] or "").strip().lower()
        try:
            contrast = ContrastGroup(contrast_raw)
        except ValueError:
            raise BadLabel(
                f"{path}:{lineno}: contrast must be contrast|noncontrast, got {row['contrast']!r}"
            ) from None

        try:
            score = float(row["cac_score"])
        except (TypeError, ValueError):
            raise BadLabel(f"{path}:{lineno}: cac_score {row['cac_score']!r} is not a number") from None
        if not score >= 0:
            raise BadLabel(f"{path}:{lineno}: cac_score must be >= 0, got {score}")
        label = CacLabel.ZERO if score == 0 else CacLabel.NONZERO

        vol_path = os.path.join(base, row["volume"]) if not os.path.isabs(row["volume"]) else row["volume"]
        mask_path = os.path.join(base, row["mask"]) if not os.path.isabs(row["mask"]) else row["mask"]
        entries.append(
            ManifestEntry(
                subject_id=sid,
                volume_path=vol_path,
                mask_path=mask_path,
                contrast=contrast,
                cac_label=label,
                cac_score=score,
            )
        )
    return CohortManifest(entries=tuple(entries))


def require_files(manifest: CohortManifest) -> None:
    """MissingFile, naming the subject, for the first volume or mask of the
    manifest that is not a file."""
    for e in manifest.entries:
        for p in (e.volume_path, e.mask_path):
            if not os.path.isfile(p):
                raise MissingFile(f"subject {e.subject_id!r}: {p} does not exist")
