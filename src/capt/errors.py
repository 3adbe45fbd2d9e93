"""Exception hierarchy shared by all modules."""


class CaptError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(CaptError):
    """Operand shapes incompatible with a primitive."""


class ContractError(CaptError):
    """A documented precondition was violated by the caller."""


class NumericError(CaptError):
    """Non-finite values encountered where finite ones are required."""


class ConfigError(CaptError):
    """Invalid configuration value."""


class InventoryError(CaptError):
    """Unknown phone symbol or malformed phonological table."""


class DatasetError(CaptError):
    """Corpus file fails schema or integrity checks."""


class AlignmentError(CaptError):
    """Word spans or phone sequences do not line up."""


class PersistenceError(CaptError):
    """Model file cannot be loaded (version, checksum, truncation), or a model
    file or run output cannot be written."""
