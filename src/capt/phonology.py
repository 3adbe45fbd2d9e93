"""Phone inventory and the binary phonological attribute table.

The inventory is the 39 CMU/ARPAbet phones plus ``<del>`` (phone deleted by
the speaker) and ``<unk>`` (noncategorizable), with dense stable ids 0..40.
The attribute table is a versioned text fixture shipped with the package;
its sha256 checksum is recorded in saved models so a model is never scored
against a different table than it was trained with.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import numpy as np

from .errors import InventoryError

ARPABET_39 = (
    "AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M N NG "
    "OW OY P R S SH T TH UH UW V W Y Z ZH"
).split()

DEL, UNK = "<del>", "<unk>"
PHONES: tuple[str, ...] = tuple(ARPABET_39) + (DEL, UNK)
N_PHONES = len(PHONES)  # 41
PHONE_TO_ID: dict[str, int] = {p: i for i, p in enumerate(PHONES)}
DEL_ID = PHONE_TO_ID[DEL]
UNK_ID = PHONE_TO_ID[UNK]

ATTRIBUTE_NAMES = (
    "voiced stop fricative affricate nasal liquid glide vowel "
    "bilabial labiodental dental alveolar postalveolar palatal velar glottal "
    "high mid low front central back round diphthong"
).split()
N_ATTRIBUTES = len(ATTRIBUTE_NAMES)  # 24

_VOWEL = ATTRIBUTE_NAMES.index("vowel")
_HEIGHT = [ATTRIBUTE_NAMES.index(a) for a in ("high", "mid", "low")]
_BACKNESS = [ATTRIBUTE_NAMES.index(a) for a in ("front", "central", "back")]


def phone_id(symbol: str) -> int:
    try:
        return PHONE_TO_ID[symbol]
    except KeyError:
        raise InventoryError(f"unknown phone symbol {symbol!r}") from None


def default_table_text() -> str:
    return resources.files("capt").joinpath("data_fixtures/phonology.txt").read_text()


def packaged_table() -> tuple[np.ndarray, str]:
    """The packaged table and its checksum, from one read of the file."""
    text = default_table_text()
    return load_attribute_table(text), table_checksum(text)


def table_checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_attribute_table(text: str) -> np.ndarray:
    """Parse and validate the table; returns a (41, 24) float matrix."""
    rows: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 1 + N_ATTRIBUTES:
            raise InventoryError(
                f"phonology table line {lineno}: expected symbol + "
                f"{N_ATTRIBUTES} bits, got {len(parts) - 1}"
            )
        sym = parts[0]
        if sym not in PHONE_TO_ID:
            raise InventoryError(f"phonology table line {lineno}: unknown symbol {sym!r}")
        if sym in rows:
            raise InventoryError(f"phonology table line {lineno}: duplicate symbol {sym!r}")
        if any(b not in ("0", "1") for b in parts[1:]):
            raise InventoryError(f"phonology table line {lineno}: non-binary attribute")
        rows[sym] = np.array([b == "1" for b in parts[1:]], dtype=np.float64)
    missing = [p for p in PHONES if p not in rows]
    if missing:
        raise InventoryError(f"phonology table missing phones: {missing}")
    table = np.stack([rows[p] for p in PHONES])
    _validate(table)
    return table


def _validate(table: np.ndarray) -> None:
    for i, p in enumerate(PHONES):
        row = table[i]
        if p in (DEL, UNK):
            if row.any():
                raise InventoryError(f"{p} must carry an all-zero attribute row")
            continue
        if row.sum() < 2:
            raise InventoryError(f"phone {p} has fewer than 2 attributes set")
        if row[_VOWEL] == 1:
            if row[_HEIGHT].sum() != 1:
                raise InventoryError(f"vowel {p} must have exactly one height bit")
            if row[_BACKNESS].sum() != 1:
                raise InventoryError(f"vowel {p} must have exactly one backness bit")
        else:
            if row[_HEIGHT].sum() or row[_BACKNESS].sum():
                raise InventoryError(f"consonant {p} carries vowel-only bits")
