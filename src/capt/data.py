"""Corpus formats, synthetic generator, run configuration, importer.

A corpus is a directory holding ``corpus.jsonl`` (one utterance record per
line: phones with canonical/realized symbols and scores, word scores,
utterance aspect scores) and ``features.bin`` (binary container of per-phone
acoustic feature matrices, keyed by utterance id).  Scores are stored in
their raw annotation ranges (phone 0-2, word/utterance 0-10) and normalized
to [0, 1] on load.  See docs/formats.md for the byte-level layout.
"""

from __future__ import annotations

import configparser
import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig
from .errors import ConfigError, DatasetError, read_file, write_file
from .phonology import (ARPABET_39, DEL, DEL_ID, PHONE_TO_ID, PHONES, UNK,
                        phone_id)
from .scoring import ASPECTS, WORD_SCORE_NAMES
from .training import TrainConfig

PHONE_SCORE_MAX = 2.0
WORD_SCORE_MAX = 10.0
UTT_SCORE_MAX = 10.0

FEATURE_MAGIC = b"CAPTFEA\x01"
FEATURE_VERSION = 1
FLOAT32_MAX = float(np.finfo(np.float32).max)  # the largest feature value the container holds

CORPUS_FILE = "corpus.jsonl"
FEATURE_FILE = "features.bin"
META_FILE = "corpus_meta.json"


# ---------------------------------------------------------------------------
# in-memory records


@dataclass
class PhoneEntry:
    canonical: str
    realized: str
    score: float  # raw 0-2
    word_index: int


@dataclass
class UtteranceRecord:
    id: str
    phones: list[PhoneEntry]
    word_scores: list[tuple[float, float, float]]  # raw 0-10 (accuracy, stress, total)
    utterance_scores: dict[str, float]  # raw 0-10 per aspect
    features: np.ndarray | None = None  # (N, F)

    # -- derived views -----------------------------------------------------
    @property
    def n_phones(self) -> int:
        return len(self.phones)

    def canonical_ids(self) -> np.ndarray:
        return np.array([phone_id(p.canonical) for p in self.phones], dtype=np.int64)

    def realized_ids(self) -> np.ndarray:
        return np.array([phone_id(p.realized) for p in self.phones], dtype=np.int64)

    def word_spans(self) -> list[tuple[int, int]]:
        spans = []
        start = 0
        for i in range(1, len(self.phones) + 1):
            if i == len(self.phones) or self.phones[i].word_index != self.phones[i - 1].word_index:
                spans.append((start, i))
                start = i
        return spans

    def phone_targets_norm(self) -> np.ndarray:
        return np.array([p.score for p in self.phones]) / PHONE_SCORE_MAX

    def word_targets_norm(self) -> np.ndarray:
        return np.asarray(self.word_scores, dtype=np.float64) / WORD_SCORE_MAX

    def utt_targets_norm(self) -> np.ndarray:
        return np.array([self.utterance_scores[a] for a in ASPECTS]) / UTT_SCORE_MAX


# ---------------------------------------------------------------------------
# validation


def _fail(rec_id, field_name: str, msg: str):
    raise DatasetError(f"record {rec_id!r}, field {field_name!r}: {msg}")


def _score(value, hi: float, rec_id, field: str, key) -> float:
    """An int or a float (numpy's too) in [0, hi], as a float; formats ``field`` lazily."""
    if type(value) not in (float, int) and not isinstance(value, np.floating):
        _fail(rec_id, field.format(key), f"{value!r} is not a number")
    try:
        value = float(value)
    except OverflowError:
        _fail(rec_id, field.format(key), "an integer too large for a float")
    if not 0.0 <= value <= hi:
        _fail(rec_id, field.format(key), f"{value} outside [0, {hi}]")
    return value


def validate_record(rec: UtteranceRecord) -> None:
    """Raise ``DatasetError`` naming the record and the field unless ``rec`` meets
    every rule of docs/formats.md; stores scores back as floats, triples as tuples."""
    if not isinstance(rec.id, str):
        _fail(rec.id, "id", f"{rec.id!r} is not a string")
    try:  # a lone surrogate, say, which the feature container cannot store
        rec.id.encode()
    except UnicodeEncodeError as e:
        _fail(rec.id, "id", f"not encodable as UTF-8: {e.reason}")
    if type(rec.phones) is not list or not rec.phones:
        _fail(rec.id, "phones", "not a non-empty list")
    prev = -1
    for i, p in enumerate(rec.phones):
        if not isinstance(p, PhoneEntry):
            _fail(rec.id, f"phones[{i}]", f"a {type(p).__name__}, not a PhoneEntry")
        # a symbol that is not a string may not even be hashable
        if (not isinstance(p.canonical, str) or p.canonical not in PHONE_TO_ID
                or p.canonical in (DEL, UNK)):
            _fail(rec.id, f"phones[{i}].canonical", f"not a canonical phone: {p.canonical!r}")
        if not isinstance(p.realized, str) or p.realized not in PHONE_TO_ID:
            _fail(rec.id, f"phones[{i}].realized", f"not in inventory: {p.realized!r}")
        p.score = _score(p.score, PHONE_SCORE_MAX, rec.id, "phones[{}].score", i)
        if type(p.word_index) is not int:
            _fail(rec.id, f"phones[{i}].word", f"{p.word_index!r} is not an integer")
        # prev starts at -1, so only the first phone could be at word -1
        if p.word_index not in (prev, prev + 1) or p.word_index < 0:
            _fail(rec.id, f"phones[{i}].word", "word indices must be contiguous nondecreasing from 0")
        prev = p.word_index
    if type(rec.word_scores) is not list or len(rec.word_scores) != prev + 1:
        _fail(rec.id, "word_scores", f"not a list of {prev + 1} triples, one per word")
    for w, t in enumerate(rec.word_scores):
        if type(t) not in (list, tuple):
            _fail(rec.id, f"word_scores[{w}]", f"{t!r} is not a list of numbers")
        t = rec.word_scores[w] = tuple(_score(s, WORD_SCORE_MAX, rec.id, "word_scores[{}]", w)
                                       for s in t)
        if len(t) != len(WORD_SCORE_NAMES):
            _fail(rec.id, f"word_scores[{w}]", f"invalid triple {t}")
    scores = rec.utterance_scores
    if not isinstance(scores, dict):
        _fail(rec.id, "utterance_scores", f"{scores!r} is not a dict")
    for a in scores:  # an unknown key first: the writer would drop it, whatever its value
        if a not in ASPECTS:
            _fail(rec.id, f"utterance_scores.{a}", f"not an aspect of {ASPECTS}")
    for a in ASPECTS:
        if a not in scores:
            _fail(rec.id, "utterance_scores", f"missing aspect {a!r}")
        scores[a] = _score(scores[a], UTT_SCORE_MAX, rec.id, "utterance_scores.{}", a)
    f = rec.features
    if f is not None and not (isinstance(f, np.ndarray) and f.ndim == 2
                              and f.dtype.kind in "fiu" and len(f) == rec.n_phones):
        _fail(rec.id, "features", f"{getattr(f, 'shape', type(f))} is not a 2-D array of "
              f"numbers with {rec.n_phones} rows, one per phone")
    # nan, inf and a value that float32, the container's type, makes inf all fail this
    if f is not None and not np.abs(f).max(initial=0.0) <= FLOAT32_MAX:
        bad = ~(np.abs(f) <= FLOAT32_MAX)
        row, col = np.argwhere(bad)[0]
        _fail(rec.id, f"features[{row}][{col}]", f"non-finite value {f[row, col]} as float32 "
              f"({np.count_nonzero(bad)} in this record)")


# ---------------------------------------------------------------------------
# binary feature container


def write_feature_file(path, matrices: dict[str, np.ndarray]) -> None:
    f = io.BytesIO()
    f.write(FEATURE_MAGIC)
    f.write(struct.pack("<II", FEATURE_VERSION, len(matrices)))
    offsets = {}
    for uid, mat in matrices.items():
        mat = np.asarray(mat, dtype=np.float32)
        offsets[uid] = f.tell()
        f.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
        f.write(mat.astype("<f4").tobytes())
    index_offset = f.tell()
    for uid, ofs in offsets.items():
        enc = uid.encode()
        f.write(struct.pack("<I", len(enc)))
        f.write(enc)
        f.write(struct.pack("<Q", ofs))
    f.write(struct.pack("<Q", index_offset))
    write_file(path, f.getvalue(), DatasetError, "feature container")


def read_feature_file(path) -> dict[str, np.ndarray]:
    blob = read_file(path, DatasetError, "feature container")
    try:
        if blob[:8] != FEATURE_MAGIC:
            raise DatasetError(f"{path}: bad magic, not a feature container")
        version, count = struct.unpack_from("<II", blob, 8)
        if version != FEATURE_VERSION:
            raise DatasetError(f"{path}: unsupported feature format version {version}")
        (index_offset,) = struct.unpack_from("<Q", blob, len(blob) - 8)
        out = {}
        pos = index_offset
        for _ in range(count):
            (id_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            uid = blob[pos : pos + id_len].decode()
            if uid in out:
                raise DatasetError(f"{path}: record {uid!r} is indexed twice")
            pos += id_len
            (ofs,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            rows, cols = struct.unpack_from("<II", blob, ofs)
            payload = blob[ofs + 8 : ofs + 8 + rows * cols * 4]
            if len(payload) != rows * cols * 4:
                raise DatasetError(f"{path}: truncated payload for record {uid!r}")
            out[uid] = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
        return out
    except (struct.error, UnicodeDecodeError, IndexError, OverflowError) as e:
        raise DatasetError(f"{path}: corrupt feature container: {e}") from e


# ---------------------------------------------------------------------------
# corpus serialization


def _record_to_json(rec: UtteranceRecord) -> str:
    """One corpus.jsonl line: keys sorted, scores rounded to 4 decimals."""
    return json.dumps({
        "id": rec.id,
        "phones": [
            {"canonical": p.canonical, "realized": p.realized,
             "score": round(p.score, 4), "word": p.word_index}
            for p in rec.phones
        ],
        "word_scores": [[round(s, 4) for s in t] for t in rec.word_scores],
        "utterance_scores": {a: round(rec.utterance_scores[a], 4) for a in ASPECTS},
        "features": rec.id,
    }, sort_keys=True) + "\n"


def _record_from_line(line: bytes, features: dict) -> UtteranceRecord:
    """One corpus line -> a validated record holding its feature matrix."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise DatasetError(f"not a UTF-8 JSON line: {e}") from e
    try:
        phones = [PhoneEntry(p["canonical"], p["realized"], p["score"], p["word"])
                  for p in obj["phones"]]
        rec = UtteranceRecord(obj["id"], phones, obj["word_scores"], obj["utterance_scores"])
    except (KeyError, TypeError) as e:
        raise DatasetError(f"malformed record: {e}") from e
    key = obj.get("features", rec.id)
    if not isinstance(key, str) or key not in features:
        _fail(rec.id, "features", f"no feature matrix under key {key!r}")
    rec.features = features[key]
    validate_record(rec)
    return rec


def _note_id(first: dict, rec_id, at: str) -> None:
    """A corpus's unique-id rule: notes that ``rec_id`` appears ``at`` (a line
    or a record position), refusing an id that ``first`` already maps."""
    if rec_id in first:
        raise DatasetError(f"duplicate utterance id {rec_id!r} (first at {first[rec_id]})")
    first[rec_id] = at


def save_dataset(records: list[UtteranceRecord], out_dir) -> None:
    """Writes ``records`` as the corpus directory ``out_dir``, refusing before
    any file exists what ``load_dataset`` would refuse."""
    if not records:
        raise DatasetError(f"{out_dir}: empty corpus (no records to save)")
    first = {}  # utterance id -> position of the record it first appeared in
    for i, rec in enumerate(records):
        try:
            validate_record(rec)
            if rec.features is None:
                _fail(rec.id, "features", "no feature matrix to write")
            _note_id(first, rec.id, f"records[{i}]")
        except DatasetError as e:
            raise DatasetError(f"records[{i}]: {e}") from e
    write_file(Path(out_dir) / CORPUS_FILE,
               "".join(_record_to_json(rec) for rec in records).encode(),
               DatasetError, "corpus file")
    write_feature_file(Path(out_dir) / FEATURE_FILE, {rec.id: rec.features for rec in records})


def load_dataset(path) -> list[UtteranceRecord]:
    """The records of the corpus directory ``path``."""
    corpus_path = Path(path) / CORPUS_FILE  # missing when path is a file
    if not corpus_path.exists():
        raise DatasetError(f"{path}: not a corpus directory (no {CORPUS_FILE} in it)")
    features = read_feature_file(corpus_path.parent / FEATURE_FILE)
    lines = io.BytesIO(read_file(corpus_path, DatasetError, "corpus file"))
    records = []
    first = {}  # utterance id -> corpus line it first appeared on
    for lineno, line in enumerate(lines, start=1):  # each line keeps its b"\n"
        if not line.strip():
            continue
        try:
            rec = _record_from_line(line, features)
            _note_id(first, rec.id, f"line {lineno}")
        except DatasetError as e:
            raise DatasetError(f"{corpus_path}: line {lineno}: {e}") from e
        records.append(rec)
    if not records:
        raise DatasetError(f"{corpus_path}: empty corpus")
    return records


# ---------------------------------------------------------------------------
# synthetic corpus with a planted generative rule


def synth_records(n: int, seed: int, rule_seed: int = 0, ssl_dim: int = 32):
    """Generate n learnable utterances; returns (records, meta).

    Phone quality q drives everything: the GOP feature encodes q exactly,
    the ssl part encodes the realized phone and q with small noise, scores
    are affine in q plus bounded noise, and low-q phones get mispronounced.
    meta["bayes_phone_mse"] is the raw-scale MSE of the noiseless predictor
    2q against the stored phone scores, the floor any model can reach.
    """
    if n < 1:
        raise DatasetError("synthetic corpus needs n >= 1")
    for name, value in (("seed", seed), ("rule_seed", rule_seed), ("ssl_dim", ssl_dim)):
        if value < 0:
            raise DatasetError(f"synthetic corpus: {name} {value} must be >= 0")
    # the planted rule: hidden maps tying features to scores and realized phones
    rule_rng = np.random.default_rng(rule_seed)
    emb_realized = rule_rng.normal(0.0, 1.0, size=(len(PHONES), ssl_dim))
    v_quality = rule_rng.normal(0.0, 1.0, size=ssl_dim)
    # fixed derangement: substitute each phone with its cyclic neighbor
    shift = int(rule_rng.integers(1, len(ARPABET_39)))
    sub_map = (np.arange(len(ARPABET_39)) + shift) % len(ARPABET_39)
    rng = np.random.default_rng(seed)
    records = []
    sq_err_sum = 0.0
    n_phone_total = 0
    for u in range(n):
        n_ph = int(rng.integers(3, 21))
        n_words = int(rng.integers(1, min(5, n_ph) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n_ph), size=n_words - 1, replace=False))
        bounds = np.concatenate([[0], cuts, [n_ph]])
        word_of = np.zeros(n_ph, dtype=int)
        for w in range(n_words):
            word_of[bounds[w] : bounds[w + 1]] = w
        canonical = rng.integers(0, len(ARPABET_39), size=n_ph)
        q = rng.uniform(0.15, 0.85, size=n_ph)
        realized = canonical.copy()
        realized[q < 0.4] = sub_map[canonical[q < 0.4]]
        realized[q < 0.2] = DEL_ID
        scores = 2.0 * q + rng.uniform(-0.3, 0.3, size=n_ph)
        gop = 2.5 * (q - 1.0)
        ssl = (emb_realized[realized]
               + np.outer(q, v_quality)
               + rng.normal(0.0, 0.05, size=(n_ph, ssl_dim)))
        feats = np.concatenate([gop[:, None], ssl], axis=1)

        phones = [
            PhoneEntry(PHONES[canonical[i]], PHONES[realized[i]],
                       round(float(scores[i]), 4), int(word_of[i]))
            for i in range(n_ph)
        ]
        word_scores = []
        for w in range(n_words):
            mq = float(q[word_of == w].mean())
            word_scores.append((
                10.0 * mq + float(rng.uniform(-0.5, 0.5)),
                10.0 * (0.3 + 0.5 * mq) + float(rng.uniform(-0.5, 0.5)),
                9.0 * mq + 0.5 + float(rng.uniform(-0.5, 0.5)),
            ))
        uq = float(q.mean())
        nv = rng.uniform(-0.4, 0.4, size=5)
        utt_scores = {
            "accuracy": 10.0 * uq + float(nv[0]),
            "completeness": 10.0 * (0.2 + 0.7 * uq) + float(nv[1]),
            "fluency": 10.0 * (0.1 + 0.8 * uq) + float(nv[2]),
            "prosody": 10.0 * (0.15 + 0.75 * uq) + float(nv[3]),
            "total": 9.0 * uq + 0.5 + float(nv[4]),
        }
        rec = UtteranceRecord(id=f"synth-{seed:08d}-{u:06d}", phones=phones,
                              word_scores=word_scores, utterance_scores=utt_scores,
                              features=feats)
        validate_record(rec)
        records.append(rec)
        sq_err_sum += float(((np.array([p.score for p in phones]) - 2.0 * q) ** 2).sum())
        n_phone_total += n_ph
    meta = {
        "n_utterances": n,
        "seed": seed,
        "rule_seed": rule_seed,
        "ssl_dim": ssl_dim,
        "n_phones": n_phone_total,
        "bayes_phone_mse": sq_err_sum / n_phone_total,
    }
    return records, meta


def synth_corpus(n: int, seed: int, out_dir, ssl_dim: int = 32) -> dict:
    records, meta = synth_records(n, seed, ssl_dim=ssl_dim)
    save_dataset(records, out_dir)
    write_file(Path(out_dir) / META_FILE,
               (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode(),
               DatasetError, "corpus metadata")
    return meta


# ---------------------------------------------------------------------------
# run configuration (INI-style)


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


# INI section -> (RunConfig attribute, {INI key: attribute of that config});
# each value is parsed as the type of the attribute's default
_INI_KEYS = {
    "model": ("encoder", {"d_model": "d_model", "d_state": "d_state", "n_layers": "n_layers",
                          "conv_width": "conv_width", "think_tokens": "n_think"}),
    "training": ("training", {k: k for k in ("alpha", "lr", "epochs", "batch_size", "seed")}),
}


def load_run_config(path) -> RunConfig:
    # no header can name the default section, so [DEFAULT] is read as a plain
    # section, and an unknown one, instead of being merged into every other
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    blob = read_file(path, ConfigError, "config file")
    try:  # newline=None reads \r and \r\n line ends as text mode does
        cp.read_file(io.StringIO(blob.decode("utf-8"), newline=None), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: malformed config file: {e}") from e
    cfg = RunConfig()
    for section in cp.sections():
        if section not in _INI_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        attr, keys = _INI_KEYS[section]
        target = getattr(cfg, attr)
        for key, value in cp[section].items():
            if key not in keys:
                raise ConfigError(f"{path}: section [{section}]: unknown key {key!r}")
            kind = type(getattr(target, keys[key]))
            try:
                setattr(target, keys[key], kind(value))
            except ValueError as e:
                raise ConfigError(f"{path}: section [{section}]: bad {key}: {e}") from e
    try:
        cfg.encoder.validate()
        cfg.training.validate()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return cfg


# ---------------------------------------------------------------------------
# best-effort speechocean762 annotation importer (no audio features)


def _strip_phone(symbol: str) -> str | None:
    """The phone a speechocean762 symbol names, without stress digits or '*';
    <del> or <unk> in any letter case; None for anything else."""
    if symbol.lower() in (DEL, UNK):
        return symbol.lower()
    base = symbol.rstrip("0123456789*").upper()
    return base if base in PHONE_TO_ID else None


def import_speechocean(scores_json_path, out_corpus_path) -> int:
    """Convert a speechocean762 scores.json into corpus.jsonl records.

    Acoustic feature matrices are not derivable from the annotations and
    must be supplied separately; only the jsonl file is written, one line
    per record as ``save_dataset`` writes it.  Returns the number of
    converted records.  Every word's ``phones`` list is checked first; then
    an utterance without words, or with a canonical ``<del>``/``<unk>`` in
    any word, is skipped before its mispronunciations and scores are read.
    Every score field of a converted utterance must be present.  A malformed
    file raises ``DatasetError`` naming the file, the utterance and the
    field, and nothing is written.
    """
    path = Path(scores_json_path)
    try:
        raw = json.loads(read_file(path, DatasetError, "scores file").decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise DatasetError(f"{path}: not a UTF-8 JSON file: {e}") from e
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: top level is a {type(raw).__name__}, not an object")

    def fail(uid, field_name, msg):
        raise DatasetError(f"{path}: utterance {uid!r}, field {field_name!r}: {msg}")

    def entries(obj, key, kind, uid, field_name):
        """obj[key], by default empty: a list of ``kind`` items."""
        value = obj.get(key, [])
        if not isinstance(value, list):
            fail(uid, field_name, f"a {type(value).__name__}, not a list")
        for i, v in enumerate(value):
            if not isinstance(v, kind) or isinstance(v, bool):
                fail(uid, f"{field_name}[{i}]", f"a {type(v).__name__}, not a {kind.__name__}")
        return value

    def required(obj, key, uid, field_name):
        if key not in obj:
            fail(uid, field_name, "missing")
        return obj[key]

    def score(value, hi, uid, field_name):
        """A finite number, clipped to [0, hi]."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                if np.isfinite(float(value)):
                    return float(np.clip(value, 0.0, hi))
            except OverflowError:
                pass
        fail(uid, field_name, f"{value!r} is not a finite number")

    records = []
    for uid in sorted(raw):
        u = raw[uid]
        if not isinstance(u, dict):
            raise DatasetError(f"{path}: utterance {uid!r} is a {type(u).__name__}, "
                               "not an object")
        words = entries(u, "words", dict, uid, "words")
        canons = []
        for wi, word in enumerate(words):
            at = f"words[{wi}].phones"
            symbols = entries(word, "phones", str, uid, at)
            if not symbols:
                fail(uid, at, "empty: a word needs a phone")
            canon = [_strip_phone(p) for p in symbols]
            if None in canon:
                j = canon.index(None)
                fail(uid, f"{at}[{j}]", f"{symbols[j]!r} is not a phone, <del> or <unk>")
            canons.append(canon)
        if not canons or any(DEL in c or UNK in c for c in canons):
            continue  # no word, or a phone with no canonical symbol to score against
        phones = []
        word_scores = []
        for wi, (word, canon) in enumerate(zip(words, canons)):
            at = f"words[{wi}]"
            realized = list(canon)
            mis_at = f"{at}.mispronunciations"
            for mi, mis in enumerate(entries(word, "mispronunciations", dict, uid, mis_at)):
                idx = mis.get("index")
                if not isinstance(idx, int) or isinstance(idx, bool):
                    fail(uid, f"{mis_at}[{mi}].index",
                         "missing" if idx is None else f"{idx!r} is not an integer")
                if not 0 <= idx < len(realized):
                    fail(uid, f"{mis_at}[{mi}].index",
                         f"{idx} is outside the word's {len(realized)} phones")
                said = mis.get("pronounced-phone")
                phone = _strip_phone(said) if isinstance(said, str) else None
                if phone is None:
                    fail(uid, f"{mis_at}[{mi}].pronounced-phone", "missing" if said is None
                         else f"{said!r} is not a phone, <del> or <unk>")
                realized[idx] = phone
            acc_at = f"{at}.phones-accuracy"
            accs = required(word, "phones-accuracy", uid, acc_at)
            if not isinstance(accs, list) or len(accs) != len(canon):
                fail(uid, acc_at, f"{accs!r} is not {len(canon)} scores")
            phones += [PhoneEntry(c, r, score(s, PHONE_SCORE_MAX, uid, acc_at), wi)
                       for c, r, s in zip(canon, realized, accs)]
            word_scores.append(tuple(
                score(required(word, k, uid, f"{at}.{k}"), WORD_SCORE_MAX, uid, f"{at}.{k}")
                for k in ("accuracy", "stress", "total")))
        keys = {a: a for a in ASPECTS} | {"prosody": "prosodic" if "prosodic" in u else "prosody"}
        records.append(UtteranceRecord(uid, phones, word_scores, {
            a: score(required(u, k, uid, k), UTT_SCORE_MAX, uid, k) for a, k in keys.items()}))
    write_file(out_corpus_path, "".join(_record_to_json(rec) for rec in records).encode(),
               DatasetError, "corpus file")
    return len(records)
