"""Full model assembly: features -> bidirectional SSM encoder -> heads.

Also owns model persistence.  A saved model records the format version, the
configuration, and the sha256 of the phonological table it was trained with;
loading refuses a file whose table checksum differs from the active table.
"""

from __future__ import annotations

import io
import json
import lzma
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import features as feat
from . import phonology, scoring
from .data import PHONE_SCORE_MAX, UTT_SCORE_MAX, WORD_SCORE_MAX
from .encoder import EncoderConfig, Packing, ParamStore, bimamba_encode, init_encoder_params
from .errors import (ConfigError, ContractError, InventoryError, NumericError, PersistenceError,
                     ShapeError)

MODEL_FORMAT_VERSION = 1
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
                n_phones=None) -> scoring.GraphOutputs:
        """Predictions in normalized [0, 1] score space.

        The rows are one utterance unless ``n_phones`` lists the phone
        counts of several whose rows and ids are concatenated in order; the
        word spans then index the concatenated phone rows.  All utterances
        go through one packed graph (see ``encoder.Packing``); the outputs
        hold their rows in the same order and utterance_scores is (B, 5)
        instead of (5,).  A non-finite feature raises ``NumericError``
        naming its row within its utterance and its column; a phone id that
        is not an integer in [0, N_PHONES) raises ``InventoryError`` naming
        its position within its utterance and its value.
        """
        if np.ndim(feature_rows) != 2 or np.shape(feature_rows)[1] != self.feat_dim:
            raise ShapeError(f"forward: features have shape {np.shape(feature_rows)}, "
                             f"model feat_dim is {self.feat_dim}")
        n_total = len(phone_ids)
        if np.shape(feature_rows)[0] != n_total:
            raise ShapeError(f"forward: features have {np.shape(feature_rows)[0]} rows "
                             f"for {n_total} phone ids")
        packing = Packing([n_total] if n_phones is None else n_phones, self.cfg.n_think)
        if int(packing.n_phones.sum()) != n_total:
            raise ContractError(
                f"forward: phone counts sum to {int(packing.n_phones.sum())}, "
                f"{n_total} phone ids given"
            )
        if not np.isfinite(feature_rows).all():
            bad = np.argwhere(~np.isfinite(feature_rows))
            row, col = bad[0]
            where, i = _locate(packing, row)
            raise NumericError(
                f"forward: {where}features[{i}][{col}]: "
                f"non-finite value {np.asarray(feature_rows)[row, col]} "
                f"({len(bad)} in these rows)")
        ids = np.asarray(phone_ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iuf":
            raise InventoryError(f"forward: phone ids must be a 1-D sequence of integers, "
                                 f"got {ids.dtype} of shape {ids.shape}")
        ok = (ids >= 0) & (ids < phonology.N_PHONES) & (ids == np.trunc(ids))
        if not ok.all():
            bad = np.flatnonzero(~ok)
            where, i = _locate(packing, bad[0])
            raise InventoryError(
                f"forward: {where}phone_ids[{i}]: {ids[bad[0]]} is not "
                f"a phone id in [0, {phonology.N_PHONES}) ({bad.size} in these ids)")
        x_hat = feat.assemble_utterance_features(
            feature_rows, ids, self.onehot_attr, self.params
        )
        think = self.params["enc.think"] if "enc.think" in self.params else None
        h = bimamba_encode(packing.place(x_hat, think), packing, self.params, self.cfg)
        phone_scores, mdd_logits = scoring.phone_level_outputs(h, self.params)
        word_scores = scoring.word_level_outputs(h, word_spans, self.params,
                                                 packing.phone_starts)
        utt_scores = scoring.utterance_level_outputs(h, self.params, packing.phone_starts)
        return scoring.GraphOutputs(phone_scores, mdd_logits, word_scores, utt_scores)

    def predict(self, feature_rows, phone_ids, word_spans) -> scoring.PredictionBundle:
        return self.forward(feature_rows, phone_ids, word_spans).detach()


def init_model(cfg: EncoderConfig, feat_dim: int, seed: int) -> Model:
    cfg.validate(feat_dim)
    rng = np.random.default_rng(seed)
    store = ParamStore()
    feat.init_feature_params(feat_dim, cfg.d_model, rng, store)
    init_encoder_params(cfg, rng, store)
    scoring.init_scoring_params(cfg.d_model, cfg.attn_dim, rng, store)
    table_text = phonology.default_table_text()
    attr = phonology.load_attribute_table(table_text)
    onehot_attr = feat.build_onehot_attr_matrix(attr)
    feat.check_embedding_injective(onehot_attr, store["embed.w"].data)
    return Model(cfg=cfg, feat_dim=feat_dim, params=store,
                 onehot_attr=onehot_attr,
                 table_checksum=phonology.table_checksum(table_text))


def save_model(model: Model, path) -> None:
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.cfg),
        "feat_dim": model.feat_dim,
        "table_checksum": model.table_checksum,
        "score_ranges": {"phone": PHONE_SCORE_MAX, "word": WORD_SCORE_MAX,
                         "utterance": UTT_SCORE_MAX},
    }
    arrays = {f"param/{name}": t.data for name, t in model.params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                       dtype=np.uint8)
    # plain zipfile with a pinned timestamp so identical models are
    # byte-identical files (np.savez stamps the current time)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_model(path) -> Model:
    try:
        with np.load(path) as z:
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
        if not isinstance(meta[field], kind):
            raise PersistenceError(
                f"{path}: model metadata field {field!r} is not a {kind.__name__}"
            )
    current = phonology.table_checksum()
    if meta["table_checksum"] != current:
        raise PersistenceError(
            f"{path}: phonological table checksum mismatch "
            f"(model {meta['table_checksum'][:12]}..., active {current[:12]}...); "
            "refusing to load against a different table"
        )
    config = dict(meta["config"])
    config.pop("scan_impl", None)  # an option that older model files still record
    defaults = asdict(EncoderConfig())
    for key, value in config.items():
        if key not in defaults:
            raise PersistenceError(f"{path}: unknown model config field {key!r}")
        if type(value) is not type(defaults[key]):
            raise PersistenceError(f"{path}: model config field {key!r} is {value!r}, "
                                   f"not a {type(defaults[key]).__name__}")
    try:
        model = init_model(EncoderConfig(**config), meta["feat_dim"], seed=0)
    except (ConfigError, ValueError) as e:
        raise PersistenceError(f"{path}: bad model configuration: {e}") from e
    names = set(model.params.names())
    if names != set(arrays):
        raise PersistenceError(f"{path}: parameter set does not match configuration")
    for name in names:
        stored = arrays[name]
        if stored.dtype != np.float64:
            raise PersistenceError(f"{path}: parameter {name} has dtype {stored.dtype}, "
                                   "not float64")
        if stored.shape != model.params[name].data.shape:
            raise PersistenceError(f"{path}: shape mismatch for parameter {name}")
        if not np.isfinite(stored).all():
            raise PersistenceError(f"{path}: parameter {name} holds non-finite values")
        model.params[name].data = stored
    return model
