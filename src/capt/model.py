"""Full model assembly: features -> bidirectional SSM encoder -> heads.

Also owns model persistence.  A saved model records the format version, the
configuration, and the sha256 of the phonological table it was trained with;
loading refuses a file whose table checksum differs from the active table.
"""

from __future__ import annotations

import io
import json
import lzma
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import features as feat
from . import phonology, scoring
from .encoder import (EncoderConfig, Packing, ParamStore, bimamba_encode, encoder_params,
                      init_params)
from .errors import (ConfigError, ContractError, DatasetError, InventoryError, NumericError,
                     PersistenceError, ShapeError, as_array, read_file, write_file)

MODEL_FORMAT_VERSION = 1
#: The most parameters a model may have: 400 MB of float64, and Adam keeps
#: two more buffers of that size.  ``check_config`` checks it before anything
#: is allocated.
MAX_PARAMS = 50_000_000
# metadata fields load_model reads, with the JSON type each must have
_META_FIELDS = {"table_checksum": str, "config": dict, "feat_dim": int}


def _locate(packing: Packing, row: int) -> tuple[str, int]:
    """The "utterance u of B, " prefix that names a packed phone row's
    utterance (empty for one utterance), and the row's index within it."""
    utt = np.searchsorted(packing.phone_starts, row, side="right") - 1
    where = "" if packing.single else f"utterance {utt} of {packing.n_phones.size}, "
    return where, row - packing.phone_starts[utt]


@dataclass
class Model:
    cfg: EncoderConfig
    feat_dim: int
    params: ParamStore
    onehot_attr: np.ndarray
    table_checksum: str

    def forward(self, feature_rows, phone_ids, word_spans,
                n_phones=None) -> scoring.PredictionBundle:
        """Predictions in normalized [0, 1] score space.

        The rows are one utterance unless ``n_phones`` lists the phone
        counts of several whose rows and ids are concatenated in order; the
        word spans then index the concatenated phone rows.  All utterances
        go through one packed graph (see ``encoder.Packing``); the outputs
        hold their rows in the same order, and utterance_scores is (B, 5)
        for the B utterances, (1, 5) for one.

        This is the one check of the model's inputs, and the layers it calls
        only compute: "Model inputs" in docs/formats.md states each rule and
        the error that breaking it raises.
        """
        x = as_array(feature_rows, ShapeError, "forward: features")
        if x.ndim != 2 or x.shape[1] != self.feat_dim:
            raise ShapeError(f"forward: features have shape {x.shape}, "
                             f"model feat_dim is {self.feat_dim}")
        if x.dtype.kind not in "iuf":
            raise ContractError(f"forward: features must be real numbers, got {x.dtype}")
        ids = as_array(phone_ids, InventoryError, "forward: phone ids")
        if ids.ndim != 1 or ids.dtype.kind not in "iuf":
            raise InventoryError(f"forward: phone ids must be a 1-D sequence of integers, "
                                 f"got {ids.dtype} of shape {ids.shape}")
        if x.shape[0] != ids.size:
            raise ShapeError(f"forward: features have {x.shape[0]} rows "
                             f"for {ids.size} phone ids")
        packing = Packing([ids.size] if n_phones is None else n_phones, self.cfg.n_think,
                          ids.size)
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(x))
            row, col = bad[0]
            where, i = _locate(packing, row)
            raise NumericError(f"forward: {where}features[{i}][{col}]: non-finite value "
                               f"{x[row, col]} ({len(bad)} in these rows)")
        ok = (ids >= 0) & (ids < phonology.N_PHONES) & (ids == np.trunc(ids))
        if not ok.all():
            bad = np.flatnonzero(~ok)
            where, i = _locate(packing, bad[0])
            raise InventoryError(
                f"forward: {where}phone_ids[{i}]: {ids[bad[0]]} is not "
                f"a phone id in [0, {phonology.N_PHONES}) ({bad.size} in these ids)")
        bounds = scoring.validate_word_spans(word_spans, ids.size, packing.phone_starts)
        x_hat = feat.assemble_utterance_features(
            np.asarray(x, np.float64), np.asarray(ids, np.int64), self.onehot_attr, self.params)
        think = self.params["enc.think"] if "enc.think" in self.params else None
        h = bimamba_encode(packing.place(x_hat, think), packing, self.params, self.cfg)
        phone_scores, mdd_logits = scoring.phone_level_outputs(h, self.params)
        word_scores = scoring.word_level_outputs(h, bounds, self.params)
        utt_scores = scoring.utterance_level_outputs(h, self.params, packing.phone_starts)
        return scoring.PredictionBundle(phone_scores, mdd_logits, word_scores, utt_scores)

    def predict(self, feature_rows, phone_ids, word_spans) -> scoring.PredictionBundle:
        """One utterance's predictions as arrays; utterance_scores is its (5,) row."""
        out = self.forward(feature_rows, phone_ids, word_spans).detach()
        out.utterance_scores = out.utterance_scores[0]
        return out

    def check_feature_width(self, records, where: str = "") -> None:
        """Raise ``DatasetError``, its message prefixed by ``where``, naming
        the first record with no feature matrix or one not feat_dim wide."""
        for rec in records:
            if rec.features is None:
                raise DatasetError(f"{where}record {rec.id!r}, field 'features': none given")
            if rec.features.shape[1] != self.feat_dim:
                raise DatasetError(
                    f"{where}record {rec.id!r}, field 'features': {rec.features.shape[1]} "
                    f"wide, model feat_dim is {self.feat_dim}")


def param_entries(cfg: EncoderConfig, feat_dim: int) -> list:
    """Every parameter of a model, in the order ``init_model`` draws them."""
    return (feat.feature_params(feat_dim, cfg.d_model) + encoder_params(cfg)
            + scoring.scoring_params(cfg.d_model, cfg.attn_dim))


def check_config(cfg: EncoderConfig, feat_dim: int) -> int:
    """Check the fields, and that the model with ``feat_dim`` input features
    has at most MAX_PARAMS parameters; returns the count of ``param_entries``."""
    cfg.validate()
    if feat_dim < 0:
        raise ConfigError(f"feat_dim {feat_dim} must be >= 0")
    # each layer adds the same entries: a huge n_layers is counted, never listed
    one, two = (sum(math.prod(shape) for _, shape, _ in
                    param_entries(replace(cfg, n_layers=k), feat_dim)) for k in (1, 2))
    n = one + (cfg.n_layers - 1) * (two - one)
    if n > MAX_PARAMS:
        sizes = ", ".join(f"{f.name} {getattr(cfg, f.name)}" for f in fields(cfg))
        raise ConfigError(f"{sizes}, feat_dim {feat_dim}: "
                          f"{n:,} parameters, more than MAX_PARAMS ({MAX_PARAMS:,})")
    return n


def init_model(cfg: EncoderConfig, feat_dim: int, seed: int) -> Model:
    check_config(cfg, feat_dim)
    store = init_params(param_entries(cfg, feat_dim), np.random.default_rng(seed))
    attr, checksum = phonology.packaged_table()
    onehot_attr = feat.build_onehot_attr_matrix(attr)
    feat.check_embedding_injective(onehot_attr, store["embed.w"].data)
    return Model(cfg=cfg, feat_dim=feat_dim, params=store,
                 onehot_attr=onehot_attr, table_checksum=checksum)


def save_model(model: Model, path) -> None:
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.cfg),
        "feat_dim": model.feat_dim,
        "table_checksum": model.table_checksum,
    }
    arrays = {f"param/{name}": t.data for name, t in model.params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                       dtype=np.uint8)
    # plain zipfile with a pinned timestamp so identical models are
    # byte-identical files (np.savez stamps the current time)
    blob = io.BytesIO()
    with zipfile.ZipFile(blob, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())
    write_file(path, blob.getvalue(), PersistenceError, "model file")


def load_model(path) -> Model:
    try:
        with np.load(io.BytesIO(read_file(path, PersistenceError, "model file"))) as z:
            if "__meta__" not in z:
                raise PersistenceError(f"{path}: not a model file (missing metadata)")
            meta = json.loads(bytes(z["__meta__"]).decode())
            arrays = {k[len("param/"):]: z[k] for k in z.files if k.startswith("param/")}
    except (OSError, EOFError, ValueError, KeyError, RuntimeError, zipfile.BadZipFile,
            zlib.error, lzma.LZMAError) as e:
        # a truncated file loses the zip's central directory: BadZipFile; a
        # damaged header can name an unknown zip version or compression method
        # or set the encryption flag (RuntimeError), or send stored bytes to a
        # decompressor (zlib, bz2's OSError, lzma)
        raise PersistenceError(f"{path}: cannot read model file: {e}") from e
    if not isinstance(meta, dict):
        raise PersistenceError(f"{path}: model metadata is not a JSON object")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise PersistenceError(
            f"{path}: format version {meta.get('format_version')} "
            f"unsupported (expected {MODEL_FORMAT_VERSION})"
        )
    for field, kind in _META_FIELDS.items():
        if field not in meta:
            raise PersistenceError(f"{path}: model metadata lacks field {field!r}")
        if type(meta[field]) is not kind:  # JSON true is an int to isinstance
            raise PersistenceError(
                f"{path}: model metadata field {field!r} is not a {kind.__name__}"
            )
    config = dict(meta["config"])
    for key in ("scan_impl", "expand", "d_attn"):  # retired fields older files record
        config.pop(key, None)
    defaults = asdict(EncoderConfig())
    for key, value in config.items():
        if key not in defaults:
            raise PersistenceError(f"{path}: unknown model config field {key!r}")
        if type(value) is not type(defaults[key]):
            raise PersistenceError(f"{path}: model config field {key!r} is {value!r}, "
                                   f"not a {type(defaults[key]).__name__}")
    cfg, feat_dim = EncoderConfig(**config), meta["feat_dim"]
    try:
        check_config(cfg, feat_dim)
    except ConfigError as e:
        raise PersistenceError(f"{path}: bad model configuration: {e}") from e
    attr, checksum = phonology.packaged_table()
    if meta["table_checksum"] != checksum:
        raise PersistenceError(f"{path}: phonological table checksum mismatch (model "
                               f"{meta['table_checksum'][:12]}..., active {checksum[:12]}...); "
                               "refusing to load against a different table")
    entries = param_entries(cfg, feat_dim)
    if {name for name, _, _ in entries} != set(arrays):
        raise PersistenceError(f"{path}: parameter set does not match configuration")
    store = ParamStore()
    for name, shape, _ in entries:
        stored = arrays[name]
        if stored.dtype != np.float64:
            raise PersistenceError(f"{path}: parameter {name} has dtype {stored.dtype}, "
                                   "not float64")
        if stored.shape != shape:
            raise PersistenceError(f"{path}: shape mismatch for parameter {name}")
        if not np.isfinite(stored).all():
            raise PersistenceError(f"{path}: parameter {name} holds non-finite values")
        store.add(name, stored)
    return Model(cfg=cfg, feat_dim=feat_dim, params=store,
                 onehot_attr=feat.build_onehot_attr_matrix(attr), table_checksum=checksum)
