"""Finite-difference verification of every layer and the full tiny model,
and the overfit harness.

Each suite entry builds a small random instance, wires it into a scalar loss
and compares the tape gradients against central differences.  The harness
trains a fresh model on N synthetic utterances, for at most 500 epochs, until
it memorizes them.  The CLI ``gradcheck`` subcommand runs the suite, and with
``--overfit N`` the harness first; it exits 0 iff every suite entry stays
within the 1e-4 relative tolerance and the harness passes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diffcore as dc
from . import metrics
from . import model as model_mod
from . import scoring
from .data import PHONE_SCORE_MAX, synth_records
from .encoder import EncoderConfig, discretize, encoder_params, init_params, mamba_block
from .errors import ContractError, DatasetError
from .scan import selective_scan
from .training import TrainConfig, batch_loss, train

TOLERANCE = 1e-4

TINY_CFG = EncoderConfig(d_model=8, d_state=4, n_layers=1, conv_width=4, n_think=2)


def _p(rng, shape):
    return dc.Tensor(rng.normal(0.0, 0.7, size=shape))


def _primitive_checks(rng):
    checks = []

    a, b = _p(rng, (3, 4)), _p(rng, (4, 2))
    checks.append(("matmul", lambda: dc.mean(dc.matmul(a, b)), [a, b]))

    x, y = _p(rng, (5,)), _p(rng, (5,))
    checks.append(("add_mul", lambda: dc.mean(dc.mul(dc.add(x, y), x)), [x, y]))

    z = _p(rng, (4, 3))
    checks.append(("tanh", lambda: dc.mean(dc.tanh(z)), [z]))
    checks.append(("silu", lambda: dc.mean(dc.silu(z)), [z]))
    checks.append(("exp", lambda: dc.mean(dc.exp(z)), [z]))
    checks.append(("softplus", lambda: dc.mean(dc.softplus(z)), [z]))
    checks.append(("softmax", lambda: dc.mean(dc.mul(dc.softmax(z), z)), [z]))

    p = _p(rng, (6,))
    tgt = rng.normal(size=6)
    checks.append(("mse", lambda: dc.mse(p, tgt), [p]))

    logits = _p(rng, (5, 7))
    labels = rng.integers(0, 7, size=5)
    checks.append(("cross_entropy", lambda: dc.cross_entropy(logits, labels), [logits]))

    xc, k, bias = _p(rng, (6, 3)), _p(rng, (4, 3)), _p(rng, (3,))
    checks.append(("conv1d_causal_silu",
                   lambda: dc.mean(dc.conv1d_causal_silu(xc, k, bias)), [xc, k, bias]))

    t_len, ci, s = 5, 3, 2
    xs = _p(rng, (t_len, ci))
    a_raw = _p(rng, (t_len, ci, s))
    bb = _p(rng, (t_len, ci, s))
    cc = _p(rng, (t_len, s))
    dd = _p(rng, (ci,))

    def scan_loss():
        a_bar = dc.sigmoid(a_raw)  # keep the recurrence stable under probing
        return dc.mean(selective_scan(xs, a_bar, bb, cc, dd))

    checks.append(("selective_scan", scan_loss, [xs, a_raw, bb, cc, dd]))

    # an independent stream, so the checks after this one keep their data
    drng = rng.spawn(1)[0]
    t_len, ci, s = 7, 3, 2
    delta = dc.Tensor(drng.uniform(0.5, 1.5, size=(t_len, ci)))
    a_neg = dc.Tensor(-drng.uniform(0.5, 1.5, size=(ci, s)))
    b_t = _p(drng, (t_len, s))
    x_d = dc.Tensor(drng.normal(size=(t_len, ci)))
    c_d = dc.Tensor(drng.normal(size=(t_len, s)))
    d_d = dc.Tensor(drng.normal(size=ci))

    def discretize_loss():
        # two packed segments: A_bar is zeroed on rows 0 and 3
        a_bar = discretize(delta, a_neg, starts=np.array([0, 3]))
        return dc.mean(selective_scan(x_d, a_bar, b_t, c_d, d_d, delta=delta))

    checks.append(("discretize", discretize_loss, [delta, a_neg, b_t]))

    lrng = rng.spawn(1)[0]
    xl, wl, bl = _p(lrng, (4, 3)), _p(lrng, (3, 2)), _p(lrng, (2,))
    checks.append(("linear", lambda: dc.mean(dc.tanh(dc.linear(xl, wl, bl))), [xl, wl, bl]))
    return checks


def _layer_checks(rng):
    checks = []

    cfg = EncoderConfig(d_model=4, d_state=3, n_layers=1, conv_width=3, n_think=0)
    store = init_params(encoder_params(cfg), rng)
    xin = rng.normal(size=(6, 4))

    def block_loss():
        return dc.mean(mamba_block(dc.Tensor(xin), store, "enc.l0.fwd", cfg))

    checks.append(("mamba_block", block_loss, store.tensors()))

    pool_store = init_params(scoring.scoring_params(d_model=5, d_attn=3), rng)
    h = rng.normal(size=(4, 5))
    spans = np.array([(0, 2), (2, 4)])
    phone_tgt = rng.uniform(size=4)
    word_tgt = rng.uniform(size=(2, 3))
    utt_tgt = rng.uniform(size=(1, 5))
    labels = rng.integers(0, 41, size=4)

    def heads_loss():
        ht = dc.Tensor(h)
        scores, logits = scoring.phone_level_outputs(ht, pool_store)
        words = scoring.word_level_outputs(ht, spans, pool_store)
        utts = scoring.utterance_level_outputs(ht, pool_store)
        l = dc.add(dc.mse(scores, phone_tgt), dc.mse(words, word_tgt))
        l = dc.add(l, dc.mse(utts, utt_tgt))
        return dc.add(l, dc.cross_entropy(logits, labels))

    checks.append(("pooling_and_heads", heads_loss, pool_store.tensors()))
    return checks


def _full_model_check(seed: int):
    records, _ = synth_records(8, seed=seed, rule_seed=0, ssl_dim=6)
    # pin the tiny geometry: 5 phones, d_model 8, K = 2
    rec = next(r for r in records if r.n_phones >= 5)
    rec.features = rec.features[:5]
    rec.phones = rec.phones[:5]
    rec.word_scores = rec.word_scores[: rec.phones[4].word_index + 1]
    model = model_mod.init_model(TINY_CFG, feat_dim=7, seed=seed)

    def loss():
        l, _ = batch_loss(model, [rec], alpha=0.3)
        return l

    # 3e-4 balances truncation against float64 roundoff over the deep graph
    return ("full_model_tiny", loss, model.params.tensors(), 3e-4)


def run_suite(seed: int = 0):
    """Returns a list of (name, max_rel_err, passed)."""
    rng = np.random.default_rng(seed)
    checks = [(n, f, p, 1e-4) for n, f, p in _primitive_checks(rng) + _layer_checks(rng)]
    checks.append(_full_model_check(seed))
    results = []
    for name, f, params, eps in checks:
        err = dc.grad_check(f, params, epsilon=eps)
        results.append((name, err, err <= TOLERANCE))
    return results


def training_set_stats(model, records) -> tuple[float, float]:
    """(phone MSE in normalized space, MDD classification accuracy)."""
    rep = metrics.evaluate(model, records)
    hits = rep.mdd_confusion["ta"] + rep.mdd_confusion["cd"]  # predicted as annotated
    return rep.phone_mse / PHONE_SCORE_MAX**2, hits / rep.n_phones


def overfit_sanity(n_utts: int, encoder_cfg, train_cfg: TrainConfig,
                   max_epochs: int = 500, mse_threshold: float = 0.01,
                   acc_threshold: float = 0.99) -> dict:
    """Memorization check on a tiny synthetic set."""
    if n_utts < 1:
        raise DatasetError("overfit sanity needs at least 1 utterance")
    if n_utts > 64:
        raise ContractError("overfit sanity is meant for <= 64 utterances")
    records, _ = synth_records(n_utts, seed=train_cfg.seed, rule_seed=0)
    feat_dim = records[0].features.shape[1]
    model = model_mod.init_model(encoder_cfg, feat_dim, seed=train_cfg.seed)

    # the callback evaluates at the last epoch train runs, whether it stops
    # there or reaches max_epochs; that evaluation is the final one
    state = {"epochs": 0, "stats": None}

    def stop(epoch, bd):
        state["epochs"] = epoch + 1
        if (epoch + 1) % 25 == 0 or epoch + 1 == max_epochs:
            state["stats"] = training_set_stats(model, records)
            mse_now, acc_now = state["stats"]
            return mse_now < mse_threshold and acc_now > acc_threshold
        return False

    cfg = replace(train_cfg, epochs=max_epochs, batch_size=min(train_cfg.batch_size, n_utts))
    train(records, cfg, model, callback=stop)
    mse_final, acc_final = state["stats"] or training_set_stats(model, records)
    return {
        "n_utterances": n_utts,
        "epochs_run": state["epochs"],
        "phone_mse": mse_final,
        "mdd_accuracy": acc_final,
        "passed": mse_final < mse_threshold and acc_final > acc_threshold,
    }
