"""Exception hierarchy shared by all modules, and the array and file reads that raise it."""

from contextlib import suppress
from pathlib import Path

import numpy as np


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


def as_array(value, error: type[CaptError], what: str) -> np.ndarray:
    """``value`` as an array; ``error`` naming ``what`` if its nesting is ragged."""
    try:
        return np.asarray(value)
    except ValueError as e:
        raise error(f"{what}: ragged nesting ({e})") from e


def read_file(path, error: type[CaptError], what: str) -> bytes:
    """The bytes of ``path``; ``error`` naming it and ``what`` if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise error(f"{path}: cannot read {what}: {e}") from e


def write_file(path, data: bytes, error: type[CaptError], what: str) -> None:
    """Replace ``path`` with ``data``, creating its missing parent directories;
    ``error`` naming it and ``what`` if it cannot be written."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(data)
    except OSError as e:
        raise error(f"{path}: cannot write {what}: {e}") from e


def write_files(files: list, error: type[CaptError]) -> None:
    """``write_file`` for each (path, data, what), each to a temporary beside
    its path first: only once all are written are they renamed over their
    paths, in order.  The temporaries are removed on failure."""
    temps = [Path(path).with_name(f".{Path(path).name}.tmp") for path, _, _ in files]
    try:
        for (_, data, what), tmp in zip(files, temps):
            write_file(tmp, data, error, what)
        for (path, _, what), tmp in zip(files, temps):
            tmp.replace(path)
    except OSError as e:  # a rename's; write_file raises ``error`` itself
        raise error(f"{path}: cannot write {what}: {e}") from e
    finally:
        for tmp in temps:  # a renamed one is gone already
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
