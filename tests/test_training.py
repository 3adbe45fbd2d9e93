import platform
import resource
import tracemalloc

import numpy as np
import pytest

from capt import diffcore as dc
from capt import gradsuite, metrics
from capt import training as tr
from capt.data import synth_records
from capt.encoder import EncoderConfig, ParamStore
from capt.errors import ConfigError, ContractError, DatasetError, NumericError, ShapeError
from capt.gradsuite import TOLERANCE
from capt.model import init_model
from capt.scoring import GraphOutputs


def tiny_model(seed=0, feat_dim=33):
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=1, conv_width=3, n_think=2)
    return init_model(cfg, feat_dim=feat_dim, seed=seed)


def fake_outputs(rng, n, w):
    return GraphOutputs(
        phone_scores=dc.Tensor(rng.uniform(size=n)),
        mdd_logits=dc.Tensor(rng.normal(size=(n, 41))),
        word_scores=dc.Tensor(rng.uniform(size=(w, 3))),
        utterance_scores=dc.Tensor(rng.uniform(size=5)),
    )


def test_train_config_validation():
    tr.TrainConfig().validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0).validate()


def test_apa_loss_is_sum_of_level_mses():
    rng = np.random.default_rng(0)
    out = fake_outputs(rng, 6, 2)
    pt, wt, ut = rng.uniform(size=6), rng.uniform(size=(2, 3)), rng.uniform(size=5)
    l_phn, l_word, l_utt, l_apa = tr.apa_loss(out, pt, wt, ut)
    assert abs(float(l_phn.data) - ((out.phone_scores.data - pt) ** 2).mean()) < 1e-12
    assert abs(float(l_word.data) - ((out.word_scores.data - wt) ** 2).mean()) < 1e-12
    assert abs(float(l_utt.data) - ((out.utterance_scores.data - ut) ** 2).mean()) < 1e-12
    assert abs(float(l_apa.data) - float(l_phn.data + l_word.data + l_utt.data)) < 1e-12


def test_apa_loss_arity_and_missing_targets():
    rng = np.random.default_rng(1)
    out = fake_outputs(rng, 4, 2)
    with pytest.raises(ShapeError):
        tr.apa_loss(out, None, rng.uniform(size=(2, 3)), rng.uniform(size=5))
    with pytest.raises(ShapeError):
        tr.apa_loss(out, rng.uniform(size=3), rng.uniform(size=(2, 3)),
                    rng.uniform(size=5))


def test_mdd_loss_is_mean_cross_entropy():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 41))
    labels = rng.integers(0, 41, size=5)
    got = float(tr.mdd_loss(dc.Tensor(logits), labels).data)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expect = -logp[np.arange(5), labels].mean()
    assert abs(got - expect) < 1e-12


def test_total_loss_identity_and_alpha_limits():
    l_apa = dc.Tensor(np.asarray(2.0))
    l_mdd = dc.Tensor(np.asarray(6.0))
    assert abs(float(tr.total_loss(l_apa, l_mdd, 0.3).data) - (0.7 * 2 + 0.3 * 6)) < 1e-12
    assert float(tr.total_loss(l_apa, l_mdd, 0.0).data) == 2.0
    assert float(tr.total_loss(l_apa, l_mdd, 1.0).data) == 6.0
    with pytest.raises(ConfigError):
        tr.total_loss(l_apa, l_mdd, -0.1)


def test_batch_loss_breakdown_identity():
    records, _ = synth_records(4, seed=3, ssl_dim=8)
    model = tiny_model(feat_dim=9)
    total, bd = tr.batch_loss(model, records, alpha=0.3)
    assert abs(bd.l_apa - (bd.l_phn + bd.l_word + bd.l_utt)) < 1e-12
    assert abs(float(total.data) - (0.7 * bd.l_apa + 0.3 * bd.l_mdd)) < 1e-12
    assert abs(float(total.data) - bd.l_total(0.3)) < 1e-12


def test_batch_loss_averages_per_utterance():
    records, _ = synth_records(3, seed=4, ssl_dim=8)
    model = tiny_model(feat_dim=9)
    _, bd_all = tr.batch_loss(model, records, alpha=0.3)
    singles = [tr.batch_loss(model, [r], alpha=0.3)[1] for r in records]
    assert abs(bd_all.l_phn - np.mean([b.l_phn for b in singles])) < 1e-12
    assert abs(bd_all.l_mdd - np.mean([b.l_mdd for b in singles])) < 1e-12


def _loss_and_grads(model, batch):
    model.params.zero_grad()
    with dc.Tape() as tape:
        total, bd = tr.batch_loss(model, batch, alpha=0.3)
        tape.backward(total)
    return bd, {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for n, t in model.params.items()}


@pytest.mark.parametrize("n_utts, cfg, ssl_dim", [
    # a criterion-5 batch, then 3 utterances without and with think tokens
    (16, EncoderConfig(d_model=48, d_state=8, n_layers=1, conv_width=3, n_think=4), 32),
    (3, EncoderConfig(d_model=8, d_state=4, n_layers=2, conv_width=4, n_think=0), 8),
    (3, EncoderConfig(d_model=8, d_state=4, n_layers=2, conv_width=4, n_think=4), 8),
])
def test_packed_batch_equals_mean_of_single_utterances(n_utts, cfg, ssl_dim):
    records, _ = synth_records(n_utts, seed=11, ssl_dim=ssl_dim)
    model = init_model(cfg, feat_dim=ssl_dim + 1, seed=5)
    bd, grads = _loss_and_grads(model, records)
    singles = [_loss_and_grads(model, [r]) for r in records]
    for name in ("l_phn", "l_word", "l_utt", "l_mdd"):
        ref = np.mean([getattr(b, name) for b, _ in singles])
        assert abs(getattr(bd, name) - ref) <= 1e-12 * max(1.0, abs(ref)), name
    for name, g in grads.items():
        ref = np.mean([gs[name] for _, gs in singles], axis=0)
        assert (np.abs(g - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all(), name


def test_batch_loss_pinned_breakdown():
    # recorded from the per-utterance implementation that batch packing replaced
    records, _ = synth_records(5, seed=21, ssl_dim=8)
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=2, conv_width=3, n_think=3)
    model = init_model(cfg, feat_dim=9, seed=2)
    total, bd = tr.batch_loss(model, records, alpha=0.3)
    pinned = (0.06674388075737031, 0.030436993656519983, 0.009210728568896591,
              3.705167149681414, 1.1860242669923748)
    got = (bd.l_phn, bd.l_word, bd.l_utt, bd.l_mdd, float(total.data))
    np.testing.assert_allclose(got, pinned, rtol=1e-12, atol=0)


def test_packed_batch_loss_gradcheck():
    # 1 phone, 2 phones (< conv_width 4) and 4 phones, each with K = 2
    cfg = EncoderConfig(d_model=2, d_state=2, n_layers=1, conv_width=4, n_think=2)
    records, _ = synth_records(6, seed=17, ssl_dim=3)
    batch = []
    for rec, n in zip(records, (1, 2, 4)):
        rec.phones, rec.features = rec.phones[:n], rec.features[:n]
        rec.word_scores = rec.word_scores[: rec.phones[-1].word_index + 1]
        batch.append(rec)
    model = init_model(cfg, feat_dim=4, seed=17)
    # the per-row embedding and diagnosis head see no packing (full_model_tiny
    # checks them); leaving them out keeps this check to about a second
    params = [t for name, t in model.params.items()
              if name != "embed.w" and not name.startswith("head.mdd")]
    err = dc.grad_check(lambda: tr.batch_loss(model, batch, alpha=0.3)[0],
                        params, epsilon=3e-4)
    assert err <= TOLERANCE


def test_train_non_finite_loss_names_utterances():
    records, _ = synth_records(4, seed=10, ssl_dim=8)
    records[2].features[1, 3] = np.nan  # bypasses load-time validation
    with pytest.raises(NumericError) as e, np.errstate(invalid="ignore"):
        tr.train(records, tr.TrainConfig(epochs=1, batch_size=4), tiny_model(feat_dim=9))
    assert records[2].id in str(e.value)
    # the packed forward names the row within its own utterance
    assert "of 4, features[1][3]: non-finite value nan (1 in these rows)" in str(e.value)


def test_train_rejects_wrong_feature_width():
    records, _ = synth_records(4, seed=10, ssl_dim=8)
    with pytest.raises(DatasetError) as e:
        tr.train(records, tr.TrainConfig(epochs=1, batch_size=4), tiny_model(feat_dim=10))
    msg = str(e.value)
    assert records[0].id in msg and "features" in msg and "9" in msg and "10" in msg


def test_adam_on_quadratic_converges():
    store = ParamStore()
    store.add("x", np.array([5.0, -3.0]))
    opt = tr.Adam(store, lr=0.1)
    for _ in range(300):
        store.zero_grad()
        with dc.Tape() as tape:
            tape.backward(dc.mse(store["x"], np.zeros(2)))
        opt.step()
    assert np.abs(store["x"].data).max() < 1e-3


def test_train_loss_decreases_and_logs(tmp_path):
    records, _ = synth_records(8, seed=5, ssl_dim=8)
    model = tiny_model(feat_dim=9)
    cfg = tr.TrainConfig(lr=3e-3, epochs=8, batch_size=4, seed=0)
    log = tmp_path / "loss.csv"
    hist = tr.train(records, cfg, model, log_path=log)
    assert len(hist) == 8
    assert hist[-1].l_total(cfg.alpha) < hist[0].l_total(cfg.alpha)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_phn,l_word,l_utt,l_mdd,l_total"
    assert len(lines) == 9
    # logged floats round-trip exactly
    row = lines[1].split(",")
    assert float(row[1]) == hist[0].l_phn


def test_train_overwrites_an_existing_log(tmp_path):
    records, _ = synth_records(4, seed=5, ssl_dim=8)
    log = tmp_path / "loss.csv"
    log.write_text("epoch,l_phn,l_word,l_utt,l_mdd,l_total\n0,1,1,1,1,1\n")
    tr.train(records, tr.TrainConfig(epochs=2, batch_size=4), tiny_model(feat_dim=9),
             log_path=log)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,l_phn,l_word,l_utt,l_mdd,l_total"
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]
    assert "0,1,1,1,1,1" not in lines


def test_train_is_deterministic(tmp_path):
    records, _ = synth_records(6, seed=6, ssl_dim=8)
    cfg = tr.TrainConfig(lr=2e-3, epochs=3, batch_size=4, seed=7)
    outs = []
    for run in range(2):
        model = tiny_model(seed=1, feat_dim=9)
        log = tmp_path / f"run{run}.csv"
        tr.train(records, cfg, model, log_path=log)
        outs.append(log.read_bytes())
    assert outs[0] == outs[1]


def test_train_empty_dataset_and_callback_stop():
    model = tiny_model(feat_dim=9)
    with pytest.raises(DatasetError):
        tr.train([], tr.TrainConfig(), model)
    records, _ = synth_records(4, seed=8, ssl_dim=8)
    hist = tr.train(records, tr.TrainConfig(epochs=10, batch_size=4), model,
                    callback=lambda e, bd: e == 2)
    assert len(hist) == 3


def oracle_training_set_stats(model, records):
    """The per-utterance predict loop that training_set_stats replaced."""
    sq, n, correct = 0.0, 0, 0
    for rec in records:
        pred = model.predict(rec.features, rec.canonical_ids(), rec.word_spans())
        tgt = rec.phone_targets_norm()
        sq += float(((pred.phone_scores - tgt) ** 2).sum())
        correct += int((pred.mdd_logits.argmax(axis=1) == rec.realized_ids()).sum())
        n += rec.n_phones
    return sq / n, correct / n


def test_training_set_stats_ranges():
    records, _ = synth_records(4, seed=9, ssl_dim=8)
    model = tiny_model(feat_dim=9)
    mse, acc = gradsuite.training_set_stats(model, records)
    assert mse >= 0.0
    assert 0.0 <= acc <= 1.0
    # the statistics metrics.evaluate reports are the per-utterance ones,
    # before and after some training (3 epochs take the accuracy from 0.02 to 0.68)
    for epochs in (0, 3):
        if epochs:
            tr.train(records, tr.TrainConfig(epochs=epochs, batch_size=4, lr=0.02), model)
        mse, acc = gradsuite.training_set_stats(model, records)
        want_mse, want_acc = oracle_training_set_stats(model, records)
        assert abs(mse - want_mse) <= 1e-15
        assert acc == want_acc


def test_overfit_sanity_rejects_bad_sizes():
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=1)
    with pytest.raises(DatasetError):
        gradsuite.overfit_sanity(0, cfg, tr.TrainConfig())
    with pytest.raises(ContractError):
        gradsuite.overfit_sanity(65, cfg, tr.TrainConfig())


@pytest.mark.parametrize("max_epochs,threshold,epochs_run", [
    (3, 0.0, 3), (30, np.inf, 25), (0, 0.0, 0),
], ids=["runs_to_max_epochs", "stops_at_25", "no_epochs"])
def test_overfit_sanity_evaluates_once(monkeypatch, max_epochs, threshold, epochs_run):
    # the callback's evaluation at the last epoch run is the final one; only
    # with no epoch run does overfit_sanity evaluate after training
    reports = []
    evaluate = metrics.evaluate

    def counted(*args):
        reports.append(evaluate(*args))
        return reports[-1]

    monkeypatch.setattr(metrics, "evaluate", counted)
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=1)
    result = gradsuite.overfit_sanity(2, cfg, tr.TrainConfig(), max_epochs=max_epochs,
                                      mse_threshold=threshold, acc_threshold=-threshold)
    assert len(reports) == 1
    assert result["epochs_run"] == epochs_run
    assert result["phone_mse"] == reports[0].phone_mse / metrics.PHONE_SCORE_MAX**2
    assert result["passed"] == (threshold == np.inf)


def test_adam_updates_moments_in_place_bit_identically():
    rng = np.random.default_rng(6)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 4)))
    store.add("b", rng.normal(size=4))
    opt = tr.Adam(store, lr=0.01)
    buffers = opt._m, opt._v
    ref = {n: t.data.copy() for n, t in store.items()}
    m = {n: np.zeros_like(t.data) for n, t in store.items()}
    v = {n: np.zeros_like(t.data) for n, t in store.items()}
    b1, b2, lr, eps = opt.b1, opt.b2, opt.lr, opt.eps
    for step in range(1, 4):
        for n, t in store.items():
            t.grad = g = rng.normal(size=t.data.shape)
            # the allocating formula the in-place update replaced
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            m_hat = m[n] / (1 - b1**step)
            v_hat = v[n] / (1 - b2**step)
            ref[n] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for n, t in store.items():
            np.testing.assert_array_equal(t.data, ref[n])
        # the flat buffers hold each parameter's moments in store order
        np.testing.assert_array_equal(opt._m, np.concatenate([m[n].ravel() for n in store]))
        np.testing.assert_array_equal(opt._v, np.concatenate([v[n].ravel() for n in store]))
    assert opt._m is buffers[0] and opt._v is buffers[1]


def stepped_adam(seed):
    """An Adam over three parameters after one step, each with a gradient."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name in ("a", "b", "c"):
        store.add(name, rng.normal(size=(2, 3)))
    opt = tr.Adam(store, lr=0.01)
    for t in store.tensors():
        t.grad = rng.normal(size=t.data.shape)
    opt.step()
    for t in store.tensors():
        t.grad = rng.normal(size=t.data.shape)
    return store, opt


def adam_state(store, opt):
    return {n: t.data.copy() for n, t in store.items()}, opt._m.copy(), opt._v.copy(), opt.t


def test_adam_rejects_parameter_without_gradient():
    store, opt = stepped_adam(7)
    before = adam_state(store, opt)
    store["b"].grad = None
    store["c"].grad = None
    with pytest.raises(ContractError) as e:
        opt.step()
    assert "'b'" in str(e.value) and "'c'" not in str(e.value)
    np.testing.assert_equal(adam_state(store, opt), before)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_rejects_non_finite_gradient(bad):
    store, opt = stepped_adam(7)
    before = adam_state(store, opt)
    store["b"].grad[1, 2] = bad
    store["c"].grad[0, 0] = np.nan
    with pytest.raises(NumericError) as e:
        opt.step()
    assert str(e.value) == "non-finite gradient of 'b'"
    np.testing.assert_equal(adam_state(store, opt), before)


@pytest.mark.parametrize("n_think", [0, 2])
@pytest.mark.parametrize("n_utts", [1, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_batch_loss_gives_every_parameter_a_gradient(n_think, n_utts, alpha):
    # Adam.step requires a gradient for every parameter; scale(., 0) at the
    # ends of alpha's range still hands its input a zero gradient
    records, _ = synth_records(n_utts, seed=12, ssl_dim=8)
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=2, conv_width=3, n_think=n_think)
    model = init_model(cfg, feat_dim=9, seed=1)
    model.params.zero_grad()
    with dc.Tape() as tape:
        tape.backward(tr.batch_loss(model, records, alpha)[0])
    assert [n for n, t in model.params.items() if t.grad is None] == []


class BufferedAdam:
    """A copy of Adam as it was when it also kept the gathered gradient and
    the update in two persistent flat buffers; the oracle for Adam.step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        sizes = [t.data.size for t in params.tensors()]
        self._m, self._v, self._g, self._upd = (np.zeros(sum(sizes)) for _ in range(4))
        ends = np.cumsum(sizes)

        def views(buf):
            return {n: buf[e - k : e].reshape(t.data.shape)
                    for (n, t), k, e in zip(params.items(), sizes, ends)}

        self.m, self.v, self._upd_of = views(self._m), views(self._v), views(self._upd)

    def step(self):
        self.t += 1
        items = list(self.params.items())
        np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                        for _, t in items], out=self._g)
        frozen = [(n, self.m[n].copy(), self.v[n].copy()) for n, t in items if t.grad is None]
        g, m, v, upd = self._g, self._m, self._v, self._upd
        m *= self.b1
        np.multiply(g, 1 - self.b1, out=upd)
        m += upd
        v *= self.b2
        np.multiply(g, 1 - self.b2, out=upd)
        upd *= g
        v += upd
        np.divide(v, 1 - self.b2**self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1 - self.b1**self.t, out=upd)
        upd *= self.lr
        upd /= g
        for name, t in items:
            if t.grad is not None:
                t.data -= self._upd_of[name]
        for name, m_old, v_old in frozen:
            self.m[name][...] = m_old
            self.v[name][...] = v_old


def test_adam_matches_buffered_adam_bit_identically():
    # five steps, every parameter with a gradient on each
    stores, opts = [], []
    for cls in (tr.Adam, BufferedAdam):
        rng = np.random.default_rng(8)
        store = ParamStore()
        for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 1, 3))):
            store.add(name, rng.normal(size=shape))
        stores.append(store)
        opts.append(cls(store, lr=0.01))
    rng = np.random.default_rng(9)
    for step in range(1, 6):
        grads = {n: rng.normal(size=t.data.shape) for n, t in stores[0].items()}
        for store, opt in zip(stores, opts):
            for n, t in store.items():
                t.grad = grads[n].copy()
            opt.step()
        for n in stores[0]:
            np.testing.assert_array_equal(stores[0][n].data, stores[1][n].data)
        np.testing.assert_array_equal(opts[0]._m, opts[1]._m)
        np.testing.assert_array_equal(opts[0]._v, opts[1]._v)


def test_adam_holds_no_gradient_sized_buffer_between_steps():
    store = ParamStore()
    store.add("w", np.ones((200, 100)))
    store.add("b", np.ones(100))
    opt = tr.Adam(store, lr=0.01)
    for t in store.tensors():
        t.grad = np.full(t.data.shape, 0.5)
    grad_bytes = 8 * (200 * 100 + 100)
    tracemalloc.start()
    try:
        opt.step()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= 2 * grad_bytes  # the step's gradient and update arrays
    assert held < grad_bytes / 10
    buffers = [k for k, v in vars(opt).items() if isinstance(v, np.ndarray)]
    assert sorted(buffers) == ["_m", "_v"]


def test_train_non_finite_gradient_names_parameter(monkeypatch):
    records, _ = synth_records(4, seed=10, ssl_dim=8)
    model = tiny_model(feat_dim=9)
    backward = dc.Tape.backward

    def poisoned(self, loss):
        backward(self, loss)
        model.params["enc.l0.fwd.a_raw"].grad[0, 0] = np.nan
        model.params["enc.l0.bwd.a_raw"].grad[0, 0] = np.inf

    monkeypatch.setattr(dc.Tape, "backward", poisoned)
    before = {n: t.data.copy() for n, t in model.params.items()}
    with pytest.raises(NumericError) as e:
        tr.train(records, tr.TrainConfig(epochs=1, batch_size=4), model)
    msg = str(e.value)
    assert "'enc.l0.fwd.a_raw'" in msg and "bwd" not in msg
    assert "epoch 0" in msg and "batch 0" in msg
    assert all(rec.id in msg for rec in records)
    for n, t in model.params.items():  # the optimizer never ran
        np.testing.assert_array_equal(t.data, before[n])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap retention is set through glibc's mallopt")
def test_training_step_reuses_heap_pages():
    # one criterion-5 step: 16 utterances, d_model 48, d_state 8, K = 4
    records, _ = synth_records(16, seed=11, rule_seed=0, ssl_dim=32)
    cfg = EncoderConfig(d_model=48, d_state=8, n_layers=1, conv_width=3, n_think=4)
    model = init_model(cfg, feat_dim=records[0].features.shape[1], seed=5)
    opt = tr.Adam(model.params, lr=2e-3)
    faults = []
    for _ in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.params.zero_grad()
        with dc.Tape() as tape:
            tape.backward(tr.batch_loss(model, records, alpha=0.3)[0])
        opt.step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # without retention every step faults in its ~8 MB of activations again
    assert max(faults[2:]) < 100, faults
