"""Exception types shared across the package."""


class GafError(Exception):
    """Base class for all package errors."""


class InvalidGraphError(GafError):
    """A graph violates a structural invariant (layering, duplicates, ranges)."""


class InputShapeError(GafError):
    """Input vector does not match the graph's input layer."""


class ParseError(GafError):
    """A data file could not be parsed; message carries the row number."""


class SchemaError(GafError):
    """A dataset schema is inconsistent with itself or with the data."""


class StratificationError(GafError):
    """Dataset cannot be split under the stratification preconditions."""


class ConfigError(GafError):
    """An experiment, GA, or training configuration is invalid."""


class CodecError(GafError):
    """A genome's bit row is not a 0/1 row of the length its layer sizes need."""


class ModelFormatError(GafError):
    """A model document is malformed, truncated, or has the wrong version."""
