"""Exception hierarchy shared by every kgdg module.

Every error carries a stable ``code`` string so the CLI can emit
machine-greppable diagnostics, and an ``exit_code`` so failures map onto
the documented process exit codes (2 = usage/config, 3 = data,
4 = internal invariant violation).
"""

from __future__ import annotations


class KgdgError(Exception):
    """Base class for all kgdg errors."""

    code = "KGDG_ERROR"
    exit_code = 4


class ConfigError(KgdgError):
    """Bad configuration, flags, or arguments supplied by the caller."""

    code = "CONFIG_ERROR"
    exit_code = 2


class DataError(KgdgError):
    """Invalid or inconsistent input data."""

    code = "DATA_ERROR"
    exit_code = 3


class InternalError(KgdgError):
    """A runtime invariant the library guarantees was violated."""

    code = "INTERNAL_ERROR"
    exit_code = 4


# --- probability validation ------------------------------------------------

class NegativeProbability(DataError):
    code = "NEGATIVE_PROBABILITY"


class SumOutOfTolerance(DataError):
    code = "SUM_OUT_OF_TOLERANCE"


# --- table / file ingestion ------------------------------------------------

class MissingColumn(DataError):
    code = "MISSING_COLUMN"


class NonNumericCell(DataError):
    """A cell failed to parse or violates its declared range."""

    code = "NON_NUMERIC_CELL"


class DuplicateImageId(DataError):
    code = "DUPLICATE_IMAGE_ID"


class UnknownImageId(DataError):
    code = "UNKNOWN_IMAGE_ID"


class UnknownLesionKind(DataError):
    code = "UNKNOWN_LESION_KIND"


class BoxOutOfBounds(DataError):
    code = "BOX_OUT_OF_BOUNDS"


# --- model artifacts ---------------------------------------------------------

class SchemaMismatch(DataError):
    code = "SCHEMA_MISMATCH"


class CorruptArtifact(DataError):
    code = "CORRUPT_ARTIFACT"


# --- training ----------------------------------------------------------------

class SingleClassTrain(DataError):
    code = "SINGLE_CLASS_TRAIN"


# --- evaluation ----------------------------------------------------------------

class EmptyEvaluation(DataError):
    code = "EMPTY_EVALUATION"


class NoQualifyingClass(DataError):
    code = "NO_QUALIFYING_CLASS"


class MissingProbabilityTable(DataError):
    code = "MISSING_PROBABILITY_TABLE"


# --- configuration ------------------------------------------------------------

class InvalidConfig(ConfigError):
    code = "INVALID_CONFIG"


class UnknownReference(ConfigError):
    code = "UNKNOWN_REFERENCE"


# --- harness invariants ---------------------------------------------------------

class LeakageError(InternalError):
    """An image id from a training split leaked into an evaluation set."""

    code = "LEAKAGE"
