"""Multi-task objective and the optimizer loop.

The total loss is (1 - alpha) * L_apa + alpha * L_mdd with alpha = 0.3 by
default; L_apa is the sum of phone-, word- and utterance-level MSE terms in
normalized [0, 1] score space, L_mdd the mean cross-entropy of the realized
phone classifier.  Batches average per-utterance terms so utterance length
does not reweight the objective.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from .encoder import ParamStore
from .errors import ConfigError, ContractError, DatasetError, NumericError
from .scoring import GraphOutputs


@dataclass
class TrainConfig:
    alpha: float = 0.3
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    optimizer: str = "adam"

    def validate(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 <= self.lr < np.inf or self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("lr must be finite, lr/epochs >= 0, batch_size >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


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


def apa_loss(out: GraphOutputs, phone_t, word_t, utt_t, phone_w=None, word_w=None):
    """Per-level MSE terms; returns (l_phn, l_word, l_utt, l_apa) tensors.

    ``phone_w`` and ``word_w`` weight the phone and word rows (see ``dc.mse``);
    by default every row counts the same.
    """
    for name, pred, tgt in (("phone", out.phone_scores, phone_t),
                            ("word", out.word_scores, word_t),
                            ("utterance", out.utterance_scores, utt_t)):
        if tgt is None:
            raise DatasetError(f"missing {name}-level target scores")
        if pred.data.shape != np.asarray(tgt).shape:
            raise DatasetError(
                f"{name}-level arity mismatch: prediction {pred.data.shape} "
                f"vs target {np.asarray(tgt).shape}"
            )
    l_phn = dc.mse(out.phone_scores, phone_t, phone_w)
    l_word = dc.mse(out.word_scores, word_t, word_w)
    l_utt = dc.mse(out.utterance_scores, utt_t)
    return l_phn, l_word, l_utt, dc.add(dc.add(l_phn, l_word), l_utt)


def mdd_loss(mdd_logits: dc.Tensor, realized_ids, phone_w=None) -> dc.Tensor:
    return dc.cross_entropy(mdd_logits, realized_ids, phone_w)


def total_loss(l_apa: dc.Tensor, l_mdd: dc.Tensor, alpha: float) -> dc.Tensor:
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha {alpha} outside [0, 1]")
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
# optimizers


class Sgd:
    def __init__(self, params: ParamStore, lr: float):
        self.params = params
        self.lr = lr

    def step(self):
        for t in self.params.tensors():
            if t.grad is not None:
                t.data -= self.lr * t.grad


class Adam:
    """Adam with every moment in two flat buffers.

    ``m`` and ``v`` map each parameter name to its view into the buffers.  A
    step gathers the gradients into one flat array, so each update term is
    one ufunc over all parameters.  A parameter with no gradient keeps its
    value and its moments.
    """

    def __init__(self, params: ParamStore, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m, self._v = (np.zeros(sum(t.data.size for t in params.tensors())) for _ in range(2))
        self.m, self.v = self._views(self._m), self._views(self._v)

    def _views(self, buf):
        """Each parameter's view into the flat buffer ``buf``, by name."""
        ends = np.cumsum([t.data.size for t in self.params.tensors()])
        return {n: buf[e - t.data.size:e].reshape(t.data.shape)
                for (n, t), e in zip(self.params.items(), ends)}

    def step(self):
        self.t += 1
        items = list(self.params.items())
        g = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                            for _, t in items])
        frozen = [(n, self.m[n].copy(), self.v[n].copy()) for n, t in items if t.grad is None]
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
        for (name, t), u in zip(items, self._views(upd).values()):
            if t.grad is not None:
                t.data -= u
        for name, m_old, v_old in frozen:
            self.m[name][...] = m_old
            self.v[name][...] = v_old


def make_optimizer(cfg: TrainConfig, params: ParamStore):
    return Adam(params, cfg.lr) if cfg.optimizer == "adam" else Sgd(params, cfg.lr)


# ---------------------------------------------------------------------------
# training loop


def train(records, cfg: TrainConfig, model, log_path=None,
          callback=None) -> list[LossBreakdown]:
    """Deterministic (given seed) epoch loop; returns per-epoch breakdowns."""
    cfg.validate()
    if not records:
        raise DatasetError("training on an empty dataset")
    for rec in records:
        if rec.features.shape[1] != model.feat_dim:
            raise DatasetError(
                f"record {rec.id!r}, field 'features': {rec.features.shape[1]} wide, "
                f"model feat_dim is {model.feat_dim}"
            )
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, model.params)
    history: list[LossBreakdown] = []
    log_file = open(log_path, "a", newline="") if log_path else None
    writer = None
    if log_file:
        writer = csv.writer(log_file)
        if log_file.tell() == 0:
            writer.writerow(["epoch", "l_phn", "l_word", "l_utt", "l_mdd", "l_total"])
    try:
        for epoch in range(cfg.epochs):
            perm = rng.permutation(len(records))
            sums = np.zeros(4)
            n_batches = 0
            for start in range(0, len(records), cfg.batch_size):
                batch = [records[i] for i in perm[start : start + cfg.batch_size]]
                model.params.zero_grad()
                with dc.Tape() as tape:
                    try:
                        loss, bd = batch_loss(model, batch, cfg.alpha)
                        if not np.isfinite(loss.data):
                            raise NumericError("non-finite loss")
                    except NumericError as e:
                        raise NumericError(
                            f"{e} at epoch {epoch}, batch {n_batches} "
                            f"(utterances {', '.join(rec.id for rec in batch)})"
                        ) from e
                    tape.backward(loss)
                bad = next((name for name, t in model.params.items()
                            if t.grad is not None and not np.isfinite(t.grad).all()), None)
                if bad is not None:
                    raise NumericError(
                        f"non-finite gradient of {bad!r} at epoch {epoch}, batch {n_batches} "
                        f"(utterances {', '.join(rec.id for rec in batch)})"
                    )
                opt.step()
                sums += [bd.l_phn, bd.l_word, bd.l_utt, bd.l_mdd]
                n_batches += 1
            bd = LossBreakdown(*(float(v) for v in sums / n_batches))
            history.append(bd)
            if writer:
                writer.writerow([epoch, repr(bd.l_phn), repr(bd.l_word),
                                 repr(bd.l_utt), repr(bd.l_mdd),
                                 repr(bd.l_total(cfg.alpha))])
            if callback and callback(epoch, bd):
                break
    finally:
        if log_file:
            log_file.close()
    return history


# ---------------------------------------------------------------------------
# overfit / capacity harness


def training_set_stats(model, records) -> tuple[float, float]:
    """(phone MSE in normalized space, MDD classification accuracy)."""
    sq, n, correct = 0.0, 0, 0
    for rec in records:
        pred = model.predict(rec.features, rec.canonical_ids(), rec.word_spans())
        tgt = rec.phone_targets_norm()
        sq += float(((pred.phone_scores - tgt) ** 2).sum())
        correct += int((pred.mdd_logits.argmax(axis=1) == rec.realized_ids()).sum())
        n += rec.n_phones
    return sq / n, correct / n


def overfit_sanity(n_utts: int, encoder_cfg, train_cfg: TrainConfig,
                   max_epochs: int = 500, mse_threshold: float = 0.01,
                   acc_threshold: float = 0.99) -> dict:
    """Memorization check on a tiny synthetic set."""
    if n_utts < 1:
        raise DatasetError("overfit sanity needs at least 1 utterance")
    if n_utts > 64:
        raise ContractError("overfit sanity is meant for <= 64 utterances")
    from . import model as model_mod
    from .data import synth_records

    records, _ = synth_records(n_utts, seed=train_cfg.seed, rule_seed=0)
    feat_dim = records[0].features.shape[1]
    model = model_mod.init_model(encoder_cfg, feat_dim, seed=train_cfg.seed)

    state = {"epochs": 0}

    def stop(epoch, bd):
        state["epochs"] = epoch + 1
        if (epoch + 1) % 25 == 0 or epoch + 1 == max_epochs:
            mse_now, acc_now = training_set_stats(model, records)
            return mse_now < mse_threshold and acc_now > acc_threshold
        return False

    cfg = replace(train_cfg, epochs=max_epochs, batch_size=min(train_cfg.batch_size, n_utts))
    train(records, cfg, model, callback=stop)
    mse_final, acc_final = training_set_stats(model, records)
    return {
        "n_utterances": n_utts,
        "epochs_run": state["epochs"],
        "phone_mse": mse_final,
        "mdd_accuracy": acc_final,
        "passed": mse_final < mse_threshold and acc_final > acc_threshold,
    }
