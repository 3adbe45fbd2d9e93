"""Multi-task objective and the optimizer loop.

The total loss is (1 - alpha) * L_apa + alpha * L_mdd with alpha = 0.3 by
default; L_apa is the sum of phone-, word- and utterance-level MSE terms in
normalized [0, 1] score space, L_mdd the mean cross-entropy of the realized
phone classifier.  Batches average per-utterance terms so utterance length
does not reweight the objective.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .encoder import ParamStore
from .errors import (ConfigError, ContractError, DatasetError, NumericError, PersistenceError,
                     write_file)
from .scoring import PredictionBundle


@dataclass
class TrainConfig:
    alpha: float = 0.3
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0

    def validate(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= self.lr < np.inf or self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("lr must be finite, lr/epochs >= 0, batch_size >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")


@dataclass
class LossBreakdown:
    l_phn: float
    l_word: float
    l_utt: float
    l_mdd: float

    @property
    def l_apa(self) -> float:
        return self.l_phn + self.l_word + self.l_utt

    def l_total(self, alpha: float) -> float:
        return (1.0 - alpha) * self.l_apa + alpha * self.l_mdd


# ---------------------------------------------------------------------------
# loss terms


def apa_loss(out: PredictionBundle, phone_t, word_t, utt_t, phone_w=None, word_w=None):
    """Per-level MSE terms; returns (l_phn, l_word, l_utt, l_apa) tensors.

    ``phone_w`` and ``word_w`` weight the phone and word rows (see ``dc.mse``);
    by default every row counts the same.  ``dc.mse`` raises ``ShapeError``
    for a missing or mismatched target.
    """
    l_phn = dc.mse(out.phone_scores, phone_t, phone_w)
    l_word = dc.mse(out.word_scores, word_t, word_w)
    l_utt = dc.mse(out.utterance_scores, utt_t)
    return l_phn, l_word, l_utt, dc.add(dc.add(l_phn, l_word), l_utt)


def mdd_loss(mdd_logits: dc.Tensor, realized_ids, phone_w=None) -> dc.Tensor:
    return dc.cross_entropy(mdd_logits, realized_ids, phone_w)


def total_loss(l_apa: dc.Tensor, l_mdd: dc.Tensor, alpha: float) -> dc.Tensor:
    """(1 - alpha) * l_apa + alpha * l_mdd; ``TrainConfig.validate`` checks alpha."""
    return dc.add(dc.scale(l_apa, 1.0 - alpha), dc.scale(l_mdd, alpha))


def batch_loss(model, batch, alpha: float):
    """Averaged loss over a batch of utterance records.

    The batch runs as one packed graph: a single ``model.forward`` call over
    all utterances.  Each loss term is the mean over the batch of the
    per-utterance mean, so every phone and word row is weighted by
    1 / (B * its utterance's phone or word count) and utterance length does
    not reweight the objective.

    Returns (graph total loss, LossBreakdown of the averaged terms).
    """
    n_utts = len(batch)
    n_phones = np.array([rec.n_phones for rec in batch])
    n_words = np.array([len(rec.word_scores) for rec in batch])
    spans = [(s + ofs, e + ofs)
             for rec, ofs in zip(batch, np.cumsum(n_phones) - n_phones)
             for s, e in rec.word_spans()]
    out = model.forward(np.concatenate([rec.features for rec in batch]),
                        np.concatenate([rec.canonical_ids() for rec in batch]),
                        spans, n_phones)
    phone_w = np.repeat(1.0 / (n_utts * n_phones), n_phones)
    word_w = np.repeat(1.0 / (n_utts * n_words), n_words)
    utt_t = np.stack([rec.utt_targets_norm() for rec in batch])
    l_phn, l_word, l_utt, l_apa = apa_loss(
        out,
        np.concatenate([rec.phone_targets_norm() for rec in batch]),
        np.concatenate([rec.word_targets_norm() for rec in batch]),
        utt_t.reshape(out.utterance_scores.data.shape),  # (5,) for one utterance
        phone_w, word_w,
    )
    l_mdd = mdd_loss(out.mdd_logits, np.concatenate([rec.realized_ids() for rec in batch]),
                     phone_w)
    graph_total = total_loss(l_apa, l_mdd, alpha)
    breakdown = LossBreakdown(float(l_phn.data), float(l_word.data),
                              float(l_utt.data), float(l_mdd.data))
    return graph_total, breakdown


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with every moment in two flat buffers.

    A step gathers the gradients into one flat array, checks it once, and
    runs each update term as one ufunc over all parameters.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, params: ParamStore, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m, self._v = (np.zeros(sum(t.data.size for t in params.tensors())) for _ in range(2))

    def step(self):
        """Update every parameter.  A missing or non-finite gradient raises
        ``ContractError`` or ``NumericError`` naming it and changes nothing."""
        items = list(self.params.items())
        missing = next((n for n, t in items if t.grad is None), None)
        if missing is not None:
            raise ContractError(f"no gradient for parameter {missing!r}")
        g = np.concatenate([t.grad.ravel() for _, t in items])
        if not np.isfinite(g).all():
            bad = next(n for n, t in items if not np.isfinite(t.grad).all())
            raise NumericError(f"non-finite gradient of {bad!r}")
        self.t += 1
        m, v = self._m, self._v
        m *= self.b1
        upd = np.multiply(g, 1 - self.b1)
        m += upd
        v *= self.b2
        np.multiply(g, 1 - self.b2, out=upd)
        upd *= g
        v += upd
        # upd = lr * m_hat / (sqrt(v_hat) + eps), with v_hat in the gradient array
        np.divide(v, 1 - self.b2**self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1 - self.b1**self.t, out=upd)
        upd *= self.lr
        upd /= g
        ofs = 0
        for _, t in items:
            t.data -= upd[ofs : ofs + t.data.size].reshape(t.data.shape)
            ofs += t.data.size


# ---------------------------------------------------------------------------
# training loop


def train(records, cfg: TrainConfig, model, log_path=None,
          callback=None) -> list[LossBreakdown]:
    """Deterministic (given seed) epoch loop; returns per-epoch breakdowns and
    overwrites ``log_path``, if given, with this run's per-epoch CSV."""
    cfg.validate()
    if not records:
        raise DatasetError("training on an empty dataset")
    model.check_feature_width(records)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, cfg.lr)
    history: list[LossBreakdown] = []
    if log_path:  # an unwritable path fails before the first epoch
        write_file(log_path, b"", PersistenceError, "loss log")
    log = io.StringIO()
    writer = csv.writer(log)
    writer.writerow(["epoch", "l_phn", "l_word", "l_utt", "l_mdd", "l_total"])
    try:
        for epoch in range(cfg.epochs):
            perm = rng.permutation(len(records))
            sums = np.zeros(4)
            n_batches = 0
            for start in range(0, len(records), cfg.batch_size):
                batch = [records[i] for i in perm[start : start + cfg.batch_size]]
                model.params.zero_grad()
                try:
                    with dc.Tape() as tape:
                        loss, bd = batch_loss(model, batch, cfg.alpha)
                        if not np.isfinite(loss.data):
                            raise NumericError("non-finite loss")
                        tape.backward(loss)
                    opt.step()
                except NumericError as e:
                    raise NumericError(
                        f"{e} at epoch {epoch}, batch {n_batches} "
                        f"(utterances {', '.join(rec.id for rec in batch)})"
                    ) from e
                sums += [bd.l_phn, bd.l_word, bd.l_utt, bd.l_mdd]
                n_batches += 1
            bd = LossBreakdown(*(float(v) for v in sums / n_batches))
            history.append(bd)
            writer.writerow([epoch, repr(bd.l_phn), repr(bd.l_word), repr(bd.l_utt),
                             repr(bd.l_mdd), repr(bd.l_total(cfg.alpha))])
            if callback and callback(epoch, bd):
                break
    finally:  # the epochs run so far, also when training stops on an error
        if log_path:
            write_file(log_path, log.getvalue().encode(), PersistenceError, "loss log")
    return history

