"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output) before
asserting.  Tolerances and budgets are pinned here; loosening them is a
contract change, not a test fix.
"""

import json
import re
import time

import numpy as np
import pytest

from capt import cli
from capt import diffcore as dc
from capt import metrics as mx
from capt.data import synth_records
from capt.encoder import EncoderConfig
from capt.model import init_model, load_model, save_model
from capt.phonology import DEL_ID
from capt.scoring import ASPECTS
from capt.training import Adam, TrainConfig, batch_loss, overfit_sanity, train
from pooler_reference import attention_weights
from scan_reference import parallel_values, sequential_values


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# criterion 1: gradient suite, read from one gradcheck run --------------------

GRADSUITE_ENTRIES = (
    "matmul", "add_mul", "tanh", "silu", "exp", "softplus", "softmax", "mse",
    "cross_entropy", "conv1d_causal_silu", "selective_scan", "discretize", "linear",
    "mamba_block", "pooling_and_heads", "full_model_tiny",
)


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    code = cli.main(["gradcheck"])
    elapsed = time.perf_counter() - t0
    rows = re.findall(r"^(PASS|FAIL) (\S+) +max rel err (\S+)$", capsys.readouterr().out,
                      flags=re.MULTILINE)
    errs = [float(err) for _, _, err in rows]
    worst = max(errs, default=float("nan"))
    ok = (code == 0 and elapsed < 60.0 and all(err <= 1e-4 for err in errs)
          and [(tag, name) for tag, name, _ in rows] == [("PASS", n) for n in GRADSUITE_ENTRIES])
    with capsys.disabled():
        report(1, "gradient suite <= 1e-4, gradcheck exits 0 in < 60 s", ok,
               f"max rel err {worst:.2e}, {len(rows)} checks, {elapsed:.1f}s")


# criterion 2: parallel vs sequential scan equivalence -----------------------

def test_criterion_2_scan_equivalence(capsys):
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        t_len = int(rng.integers(1, 1025))
        n_ch = int(rng.integers(1, 5))
        n_st = int(rng.integers(1, 5))
        x = rng.normal(size=(t_len, n_ch))
        a_bar = rng.uniform(0.0, 1.0, size=(t_len, n_ch, n_st))
        b_bar = rng.normal(size=(t_len, n_ch, n_st))
        c = rng.normal(size=(t_len, n_st))
        d = rng.normal(size=n_ch)
        y_seq = sequential_values(x, a_bar, b_bar, c, d)
        y_par = parallel_values(x, a_bar, b_bar, c, d)
        worst = max(worst, float(np.abs(y_seq - y_par).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    with capsys.disabled():
        report(2, "parallel/sequential scan agree < 1e-9 over 200 configs", ok,
               f"max abs diff {worst:.2e}, {elapsed:.1f}s")


# criterion 3: loss identities on every step of a 10-epoch run ---------------

def test_criterion_3_loss_identities(capsys):
    alpha = 0.3
    records, _ = synth_records(16, seed=13, ssl_dim=8)
    cfg = EncoderConfig(d_model=16, d_state=4, n_layers=1, conv_width=3, n_think=2)
    model = init_model(cfg, feat_dim=records[0].features.shape[1], seed=0)
    opt = Adam(model.params, lr=2e-3)
    rng = np.random.default_rng(0)
    worst = 0.0
    steps = 0
    for _ in range(10):
        perm = rng.permutation(len(records))
        for start in range(0, len(records), 8):
            batch = [records[i] for i in perm[start : start + 8]]
            model.params.zero_grad()
            with dc.Tape() as tape:
                total, bd = batch_loss(model, batch, alpha)
                tape.backward(total)
            opt.step()
            worst = max(worst,
                        abs(bd.l_apa - (bd.l_phn + bd.l_word + bd.l_utt)),
                        abs(float(total.data)
                            - ((1 - alpha) * bd.l_apa + alpha * bd.l_mdd)))
            steps += 1
    ok = worst <= 1e-12
    with capsys.disabled():
        report(3, "loss identities hold to 1e-12 on every step of 10 epochs",
               ok, f"max deviation {worst:.2e} over {steps} steps")


# criterion 4: overfit sanity ------------------------------------------------

def test_criterion_4_overfit(capsys):
    t0 = time.perf_counter()
    result = overfit_sanity(
        8,
        EncoderConfig(d_model=32, d_state=8, n_layers=1, conv_width=3, n_think=4),
        TrainConfig(lr=3e-3, batch_size=8, seed=1),
        max_epochs=500, mse_threshold=0.01, acc_threshold=0.99,
    )
    elapsed = time.perf_counter() - t0
    ok = result["passed"] and result["epochs_run"] <= 500 and elapsed < 120.0
    with capsys.disabled():
        report(4, "8-utterance overfit: phone MSE < 0.01, MDD acc > 0.99", ok,
               f"mse {result['phone_mse']:.4f}, acc {result['mdd_accuracy']:.3f}, "
               f"{result['epochs_run']} epochs, {elapsed:.1f}s")


# criterion 5: learnability on the planted rule ------------------------------

def test_criterion_5_learnability(capsys):
    t0 = time.perf_counter()
    train_recs, _ = synth_records(512, seed=11, rule_seed=0, ssl_dim=32)
    test_recs, test_meta = synth_records(128, seed=22, rule_seed=0, ssl_dim=32)
    cfg = EncoderConfig(d_model=48, d_state=8, n_layers=1, conv_width=3, n_think=4)
    model = init_model(cfg, feat_dim=train_recs[0].features.shape[1], seed=5)
    train(train_recs, TrainConfig(lr=2e-3, epochs=10, batch_size=16, seed=5), model)
    rep = mx.evaluate(model, test_recs)
    elapsed = time.perf_counter() - t0
    # evaluate() reports raw 0-2 phone MSE; the generator's Bayes floor is
    # reported on the same scale
    bayes = test_meta["bayes_phone_mse"]
    ok = rep.phone_mse <= 2.0 * bayes and rep.mdd_f1 > 0.8 and elapsed < 600.0
    with capsys.disabled():
        report(5, "planted-rule test MSE within 2x Bayes floor, MDD F1 > 0.8",
               ok, f"mse {rep.phone_mse:.4f} vs floor {bayes:.4f}, "
                   f"f1 {rep.mdd_f1:.3f}, {elapsed:.1f}s")


# criterion 6: metric oracles ------------------------------------------------

def test_criterion_6_metric_oracles(capsys):
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        c = rng.integers(0, 39, size=n)
        a = rng.integers(0, 41, size=n)
        p = rng.integers(0, 41, size=n)
        conf = mx.mdd_confusion(c, a, p)
        ta = int(((a == c) & (p == c)).sum())
        fr = int(((a == c) & (p != c)).sum())
        fa = int(((a != c) & (p == c)).sum())
        tr = int(((a != c) & (p != c)).sum())
        cd = int(((a != c) & (p != c) & (p == a)).sum())
        ok &= (conf.ta, conf.fr, conf.fa, conf.tr, conf.cd) == (ta, fr, fa, tr, cd)
        recall, precision, f1, cd_rate, _ = mx.mdd_rates(conf)
        ok &= recall == (tr / (tr + fa) if tr + fa else 0.0)
        ok &= precision == (tr / (tr + fr) if tr + fr else 0.0)
        if precision + recall:
            ok &= abs(f1 - 2 * precision * recall / (precision + recall)) < 1e-15
        ok &= cd_rate == (cd / tr if tr else 0.0)

    for _ in range(200):
        n = int(rng.integers(2, 50))
        x, y = rng.normal(size=n), rng.normal(size=n)
        dx, dy = x - x.mean(), y - y.mean()
        direct = (dx * dy).sum() / np.sqrt((dx**2).sum() * (dy**2).sum())
        ok &= abs(mx.pcc(x, y) - direct) < 1e-10

    per_table = [
        (([1, 2, 3], [1, 2, 3]), 0.0),
        (([1, 2, 3], [1, 9, 3]), 1 / 3),
        (([1, DEL_ID, 3], [1, 2, 3]), 1 / 2),
        (([1, DEL_ID, 3], [1, DEL_ID, 3]), 0.0),
        (([1, DEL_ID], [9, 2]), 2.0),
        (([DEL_ID, 5], [DEL_ID, 5]), 0.0),
    ]
    for (a, p), want in per_table:
        ok &= abs(mx.per(a, p) - want) < 1e-12
    with capsys.disabled():
        report(6, "confusion/rates, PCC and PER match independent oracles", ok,
               "1000 triples, 200 PCC draws, PER decision table")


# criterion 7: architecture contracts ----------------------------------------

def test_criterion_7_architecture_contracts(capsys):
    ok = True
    rng = np.random.default_rng(7)
    n = 6
    rows = rng.normal(size=(n, 5))
    ids = rng.integers(0, 39, size=n)
    spans = [(0, 3), (3, n)]
    for k in (0, 1, 4, 16):
        cfg = EncoderConfig(d_model=12, d_state=4, n_layers=1, conv_width=3,
                            n_think=k)
        model = init_model(cfg, feat_dim=5, seed=k)
        pred = model.predict(rows, ids, spans)
        ok &= pred.phone_scores.shape == (n,)
        ok &= pred.mdd_logits.shape == (n, 41)
        if k > 0:
            model.params.zero_grad()
            with dc.Tape() as tape:
                out = model.forward(rows, ids, spans)
                tape.backward(dc.mean(out.phone_scores))
            g = model.params["enc.think"].grad
            ok &= g is not None and float(np.abs(g).max()) > 0.0

    model = init_model(EncoderConfig(d_model=12, d_state=4, n_layers=1,
                                     conv_width=3, n_think=4), feat_dim=5, seed=0)
    h = dc.Tensor(rng.normal(size=(9, 12)))
    for a in ASPECTS:
        alpha = attention_weights(h, model.params, a)
        ok &= abs(float(alpha.data.sum()) - 1.0) < 1e-9
    with capsys.disabled():
        report(7, "output length N for K in {0,1,4,16}; think-token grads "
                  "nonzero; aspect weights sum to 1", ok)


# criterion 8: determinism and persistence -----------------------------------

def test_criterion_8_determinism_persistence(tmp_path, capsys):
    records, _ = synth_records(10, seed=31, ssl_dim=8)
    cfg = EncoderConfig(d_model=16, d_state=4, n_layers=1, conv_width=3, n_think=2)
    tcfg = TrainConfig(lr=2e-3, epochs=3, batch_size=4, seed=9)
    logs, reports, models = [], [], []
    for run in range(2):
        model = init_model(cfg, feat_dim=records[0].features.shape[1], seed=9)
        log = tmp_path / f"run{run}.csv"
        train(records, tcfg, model, log_path=log)
        logs.append(log.read_bytes())
        reports.append(mx.evaluate(model, records).to_text())
        models.append(model)

    ok = logs[0] == logs[1] and reports[0] == reports[1]

    path = tmp_path / "model.capt"
    save_model(models[0], path)
    loaded = load_model(path)
    for rec in records:
        a = models[0].predict(rec.features, rec.canonical_ids(), rec.word_spans())
        b = loaded.predict(rec.features, rec.canonical_ids(), rec.word_spans())
        ok &= np.array_equal(a.phone_scores, b.phone_scores)
        ok &= np.array_equal(a.mdd_logits, b.mdd_logits)
        ok &= np.array_equal(a.word_scores, b.word_scores)
        ok &= np.array_equal(a.utterance_scores, b.utterance_scores)
    with capsys.disabled():
        report(8, "same seed gives bit-identical logs/report; save/load "
                  "round-trips predictions exactly", ok)
