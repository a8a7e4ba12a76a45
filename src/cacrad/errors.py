"""Exception taxonomy for the pipeline.

Three broad categories drive CLI exit codes: configuration problems,
data problems (unreadable/inconsistent inputs), and degenerate cohorts
(inputs that are readable but statistically unusable).
"""


class CacradError(Exception):
    """Base class for all library errors."""


class ConfigError(CacradError):
    """Bad configuration value or key."""


class DataError(CacradError):
    """Unreadable, malformed, or inconsistent input data."""


class DegenerateCohortError(CacradError):
    """Cohort too small or single-class after exclusions."""


# --- volume I/O -------------------------------------------------------------

class BadMagic(DataError):
    """File is not a NIfTI-1 single file."""


class UnsupportedDatatype(DataError):
    """Voxel datatype or data layout this reader does not handle, a grid of
    more than nifti.MAX_VOXELS voxels, or more than nifti.MAX_TRAILING bytes
    after the voxels."""


class TruncatedFile(DataError):
    """File ends before the declared header or voxel data, or its gzip stream is corrupt."""


class NonPositiveSpacing(DataError):
    """Header carries a zero or negative voxel spacing."""


class NonFiniteOrientation(DataError):
    """The sform or qform in use carries a NaN or infinite entry."""


class IoFailure(DataError):
    """Underlying OS-level read/write failure."""


class DuplicateSubject(DataError):
    """Subject id appears more than once."""


class MissingFile(DataError):
    """A manifest or feature CSV that cannot be read, or a volume or mask
    path that does not exist."""


class BadLabel(DataError):
    """Unparseable contrast tag or calcium score."""


# --- preprocessing ----------------------------------------------------------

class DimMismatch(DataError):
    """Volume and mask grids differ."""


class NonPositiveWidth(ConfigError):
    """Discretization bin width must be > 0."""


class BadRange(ConfigError):
    """A number outside its allowed range: the selection threshold, or the
    phantom cohort's size, class balance and seed."""


class BadSpacing(ConfigError):
    """Resampling target spacing that is not > 0, or so fine that the
    resampled grid would pass nifti.MAX_VOXELS."""


# --- features ---------------------------------------------------------------

class EmptyMask(DataError):
    """The mask, or the ROI it selects, has no voxels; the subject is excluded."""


class TooManyGrayLevels(DataError):
    """Discretization left more gray levels than the texture matrices may hold."""


# --- selection / tables -----------------------------------------------------

class TooFewRows(DegenerateCohortError):
    """Too few rows: under two to correlate, none extracted, or a split with an empty side."""


class UnknownColumn(DataError):
    """Referenced feature column is not in the table."""


# --- learning ---------------------------------------------------------------

class SingleClass(DegenerateCohortError):
    """Training data contains only one class where two are required."""


class TooFewPerClass(DegenerateCohortError):
    """Not enough members of some class for the requested fold count."""


class SchemaMismatch(DataError):
    """Prediction-time columns differ from the training schema."""


# --- evaluation -------------------------------------------------------------

class EmptyCounts(DataError):
    """Confusion counts sum to zero."""


class LengthMismatch(DataError):
    """Lengths or shapes that must agree do not: paired metric lists,
    predictions and labels, a feature table's matrix and its ids or
    columns, a feature CSV row and its header."""


class TooFewPairs(DegenerateCohortError):
    """Paired test needs at least two pairs."""


# --- feature CSVs (radiomics and embeddings alike) --------------------------

class RaggedRow(LengthMismatch):
    """A feature CSV row has a different number of cells than its header."""


class NonFiniteValue(DataError):
    """A feature CSV cell, an extracted feature, a prediction input or an ROI
    intensity is not a finite number."""
