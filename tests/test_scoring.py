import gc
import warnings

import numpy as np
import pytest

from capt import diffcore as dc
from capt import scoring
from capt.encoder import EncoderConfig, init_params
from capt.errors import (AlignmentError, CaptError, ConfigError, ContractError,
                         PersistenceError, ShapeError)
from capt.model import init_model, load_model, save_model
from pooler_reference import attention_weights, pool


def make_store(d_model=6, d_attn=4, seed=0):
    return init_params(scoring.scoring_params(d_model, d_attn), np.random.default_rng(seed))


def test_aspect_set():
    assert scoring.ASPECTS == ("accuracy", "completeness", "fluency",
                               "prosody", "total")
    assert scoring.WORD_SCORE_NAMES == ("accuracy", "stress", "total")


def test_attention_weights_sum_to_one_per_aspect():
    store = make_store()
    h = dc.Tensor(np.random.default_rng(1).normal(size=(7, 6)))
    for a in scoring.ASPECTS:
        alpha = attention_weights(h, store, a)
        assert alpha.data.shape == (7,)
        assert (alpha.data > 0).all()
        assert abs(alpha.data.sum() - 1.0) < 1e-9


def test_attention_single_row_is_degenerate():
    store = make_store()
    h = dc.Tensor(np.random.default_rng(2).normal(size=(1, 6)))
    alpha = attention_weights(h, store, "total")
    np.testing.assert_allclose(alpha.data, [1.0], atol=1e-15)


def test_attention_rejects_empty():
    store = make_store()
    with pytest.raises(ContractError):
        attention_weights(dc.Tensor(np.zeros((0, 6))), store, "total")


def test_pool_is_convex_combination():
    store = make_store()
    h = np.random.default_rng(3).normal(size=(4, 6))
    alpha = np.array([0.1, 0.2, 0.3, 0.4])
    out = pool(dc.Tensor(h), dc.Tensor(alpha))
    np.testing.assert_allclose(out.data, alpha @ h, atol=1e-12)
    with pytest.raises(ContractError):
        pool(dc.Tensor(h), dc.Tensor(np.full(4, 0.3)))
    with pytest.raises(ContractError):
        pool(dc.Tensor(h), dc.Tensor(np.full(3, 1 / 3)))


def test_identical_rows_give_uniform_attention():
    store = make_store()
    h = dc.Tensor(np.tile(np.random.default_rng(4).normal(size=6), (5, 1)))
    alpha = attention_weights(h, store, "fluency")
    np.testing.assert_allclose(alpha.data, 0.2, atol=1e-12)


def test_phone_level_shapes():
    store = make_store()
    h = dc.Tensor(np.random.default_rng(5).normal(size=(9, 6)))
    scores, logits = scoring.phone_level_outputs(h, store)
    assert scores.data.shape == (9,)
    assert logits.data.shape == (9, 41)


def test_word_spans_validation():
    bounds = scoring.validate_word_spans([(0, 2), (2, 5)], 5)
    assert bounds.dtype.kind == "i"
    np.testing.assert_array_equal(bounds, [[0, 2], [2, 5]])
    with pytest.raises(AlignmentError):
        scoring.validate_word_spans([(0, 2), (3, 5)], 5)  # gap
    with pytest.raises(AlignmentError):
        scoring.validate_word_spans([(0, 2), (1, 5)], 5)  # overlap
    with pytest.raises(AlignmentError):
        scoring.validate_word_spans([(0, 2), (2, 2)], 2)  # empty piece
    with pytest.raises(AlignmentError):
        scoring.validate_word_spans([(0, 2)], 5)  # not covering


def test_word_level_is_mean_pool_affine():
    store = make_store()
    h = np.random.default_rng(6).normal(size=(5, 6))
    spans = np.array([(0, 2), (2, 5)])
    out = scoring.word_level_outputs(dc.Tensor(h), spans, store)
    assert out.data.shape == (2, 3)
    pooled = np.stack([h[0:2].mean(axis=0), h[2:5].mean(axis=0)])
    expect = pooled @ store["head.word.w"].data + store["head.word.b"].data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_utterance_level_five_scores():
    store = make_store()
    h = dc.Tensor(np.random.default_rng(7).normal(size=(6, 6)))
    out = scoring.utterance_level_outputs(h, store)
    assert out.data.shape == (5,)


def oracle_aspect_scores(h, params):
    """The per-aspect op chain the multi-aspect pooler replaced, for one
    utterance: a list of five () score tensors."""
    scores = []
    for a in scoring.ASPECTS:
        h_u = pool(h, attention_weights(h, params, a))
        scores.append(dc.add(dc.matmul(h_u, params[f"head.utt.{a}.w"]),
                             params[f"head.utt.{a}.b"]))
    return scores


@pytest.mark.parametrize("n_rows,starts", [
    (7, (0,)),  # one utterance
    (1, (0,)),  # one utterance of one phone
    (12, np.array([0, 1, 5, 9])),  # a packed batch, one utterance of one phone
])
def test_utterance_pooler_matches_per_aspect_chain(n_rows, starts):
    store = make_store(seed=9)
    h = dc.Tensor(np.random.default_rng(9).normal(size=(n_rows, 6)))
    tensors = [h] + store.tensors()
    w = np.random.default_rng(10).normal(size=(5,) if len(starts) == 1 else (len(starts), 5))

    def fused():
        out = scoring.utterance_level_outputs(h, store, starts)
        return out.data, dc.total_sum(dc.mul(out, dc.Tensor(w)))

    def chain():
        # the one-utterance chain on each utterance's rows, all on one tape
        w_b = w.reshape(len(starts), 5)
        values, loss = [], None
        for b, (s, e) in enumerate(zip(starts, [*starts[1:], n_rows])):
            scores = oracle_aspect_scores(dc.index(h, np.s_[s:e]), store)
            values.append([t.data for t in scores])
            for i, t in enumerate(scores):
                term = dc.total_sum(dc.mul(t, dc.Tensor(w_b[b, i])))
                loss = term if loss is None else dc.add(loss, term)
        return np.array(values).reshape(w.shape), loss

    results = []
    for f in (fused, chain):
        for t in tensors:
            t.zero_grad()
        with dc.Tape() as tape:
            value, loss = f()
            tape.backward(loss)
        results.append([value] + [t.grad for t in tensors])
    got, ref = results
    assert got[0].shape == w.shape
    # the pooler parameters get gradients; the other heads' stay None
    assert [g is None for g in got] == [g is None for g in ref]
    for a, b in zip(got, ref):
        if b is not None:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_heads_gradients():
    store = make_store(seed=8)
    rng = np.random.default_rng(8)
    h = rng.normal(size=(5, 6))
    spans = np.array([(0, 3), (3, 5)])
    tgt_p = rng.uniform(size=5)
    tgt_w = rng.uniform(size=(2, 3))
    tgt_u = rng.uniform(size=5)
    labels = rng.integers(0, 41, size=5)

    def f():
        ht = dc.Tensor(h)
        scores, logits = scoring.phone_level_outputs(ht, store)
        loss = dc.add(dc.mse(scores, tgt_p),
                      dc.mse(scoring.word_level_outputs(ht, spans, store), tgt_w))
        loss = dc.add(loss, dc.mse(scoring.utterance_level_outputs(ht, store), tgt_u))
        return dc.add(loss, dc.cross_entropy(logits, labels))

    assert dc.grad_check(f, store.tensors(), epsilon=1e-4) < 1e-4


# --- full model forward + persistence --------------------------------------

def tiny_model(seed=0, n_think=2):
    cfg = EncoderConfig(d_model=8, d_state=4, n_layers=1, conv_width=3, n_think=n_think)
    return init_model(cfg, feat_dim=5, seed=seed)


def test_model_forward_shapes():
    model = tiny_model()
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(4, 5))
    ids = np.array([1, 2, 3, 4])
    out = model.predict(rows, ids, [(0, 2), (2, 4)])
    assert out.phone_scores.shape == (4,)
    assert out.mdd_logits.shape == (4, 41)
    assert out.word_scores.shape == (2, 3)
    assert out.utterance_scores.shape == (5,)


@pytest.mark.parametrize("n_think", [2, 0], ids=["n_think2", "n_think0"])
def test_save_load_round_trip_bit_exact(tmp_path, n_think):
    # with K = 0 the model has no enc.think and Packing.place adds no rows
    model = tiny_model(seed=3, n_think=n_think)
    assert ("enc.think" in model.params) == (n_think > 0)
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(3, 5))
    ids = np.array([7, 8, 9])
    spans = [(0, 3)]
    before = model.predict(rows, ids, spans)
    path = tmp_path / "m.capt"
    save_model(model, path)
    loaded = load_model(path)
    after = loaded.predict(rows, ids, spans)
    np.testing.assert_array_equal(before.phone_scores, after.phone_scores)
    np.testing.assert_array_equal(before.mdd_logits, after.mdd_logits)
    np.testing.assert_array_equal(before.word_scores, after.word_scores)
    np.testing.assert_array_equal(before.utterance_scores, after.utterance_scores)


def test_save_is_deterministic_bytes(tmp_path):
    model = tiny_model(seed=4)
    p1, p2 = tmp_path / "a.capt", tmp_path / "b.capt"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_table_mismatch(tmp_path):
    model = tiny_model()
    model.table_checksum = "0" * 64
    path = tmp_path / "m.capt"
    save_model(model, path)
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert "checksum" in str(e.value)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.capt"
    path.write_bytes(b"not a model")
    with pytest.raises(PersistenceError):
        load_model(path)


def _rewrite_meta(path, edit, params=None):
    """Re-save a model file with its metadata changed by ``edit(meta)`` and
    the parameters named in ``params`` replaced by the given arrays."""
    import io
    import json
    import zipfile

    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
    edit(meta)
    arrays.update({f"param/{name}": value for name, value in (params or {}).items()})
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        for name, arr in {**arrays, "__meta__": blob}.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arr))
            zf.writestr(name + ".npy", buf.getvalue())


def test_load_rejects_wrong_version(tmp_path):
    model = tiny_model()
    path = tmp_path / "m.capt"
    save_model(model, path)
    _rewrite_meta(path, lambda meta: meta.update(format_version=99))
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert "version" in str(e.value)


@pytest.mark.parametrize("field", ["table_checksum", "config", "feat_dim"])
def test_load_rejects_missing_meta_field(tmp_path, field):
    path = tmp_path / "m.capt"
    save_model(tiny_model(), path)
    _rewrite_meta(path, lambda meta: meta.pop(field))
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert str(path) in str(e.value) and repr(field) in str(e.value)


@pytest.mark.parametrize("field,value", [("d_model", 10**9), ("n_think", 10**9)])
def test_load_rejects_model_too_large_to_allocate(tmp_path, field, value):
    path = tmp_path / "m.capt"
    save_model(tiny_model(), path)
    _rewrite_meta(path, lambda meta: meta["config"].update({field: value}))
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert str(path) in str(e.value) and f"{field} {value}" in str(e.value)
    assert "MAX_PARAMS" in str(e.value)


def test_negative_feat_dim_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="feat_dim -3"):
        init_model(EncoderConfig(), -3, seed=0)
    path = tmp_path / "m.capt"
    save_model(tiny_model(), path)
    _rewrite_meta(path, lambda meta: meta.update(feat_dim=-3))
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert str(path) in str(e.value) and "feat_dim -3" in str(e.value)


@pytest.mark.parametrize("target", ["numpy.random.default_rng",
                                    "capt.features.check_embedding_injective"])
def test_load_draws_nothing_and_checks_no_random_embedding(tmp_path, monkeypatch, target):
    model = tiny_model(seed=3)
    path = tmp_path / "m.capt"
    save_model(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError(f"load_model called {target}")

    monkeypatch.setattr(target, refuse)
    loaded = load_model(path)
    assert list(loaded.params) == list(model.params)
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


@pytest.mark.parametrize("case", ["string_param", "nan_param", "config_type",
                                  "feat_dim_true", "feat_dim_false"])
def test_load_rejects_bad_values(tmp_path, case):
    model = tiny_model()
    path = tmp_path / "m.capt"
    save_model(model, path)
    name = "enc.l0.fwd.a_raw"
    bad = model.params[name].data.copy()
    bad[0, 0] = np.nan
    edit, params, named = {
        "string_param": (lambda meta: None, {name: bad.astype(str)}, name),
        "nan_param": (lambda meta: None, {name: bad}, name),
        "config_type": (lambda meta: meta["config"].update(d_model="big"), None, "'d_model'"),
        "feat_dim_true": (lambda meta: meta.update(feat_dim=True), None, "'feat_dim'"),
        "feat_dim_false": (lambda meta: meta.update(feat_dim=False), None, "'feat_dim'"),
    }[case]
    _rewrite_meta(path, edit, params)
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert str(path) in str(e.value) and named in str(e.value)


def test_predict_rejects_wrong_feature_width():
    model = tiny_model()
    rows = np.zeros((3, model.feat_dim + 1))
    with pytest.raises(CaptError) as e:
        model.predict(rows, np.array([4, 5, 6]), [(0, 3)])
    msg = str(e.value)
    assert "features" in msg and str(model.feat_dim) in msg and str(model.feat_dim + 1) in msg


def test_predict_rejects_wrong_row_count():
    model = tiny_model()
    with pytest.raises(ShapeError) as e:
        model.predict(np.zeros((4, model.feat_dim)), np.arange(5), [(0, 5)])
    msg = str(e.value)
    assert "features" in msg and "4 rows" in msg and "5 phone ids" in msg


def test_packed_forward_rejects_word_across_utterances():
    model = tiny_model()
    rows = np.zeros((5, model.feat_dim))
    # the second utterance's first packed row is 2; the second word spans rows 1-2
    with pytest.raises(AlignmentError, match="utterance boundary at row 2$"):
        model.forward(rows, np.arange(5), [(0, 1), (1, 3), (3, 5)], n_phones=[2, 3])
    # the same spans within one utterance are a valid partition
    assert model.predict(rows, np.arange(5), [(0, 1), (1, 3), (3, 5)]).word_scores.shape == (3, 3)


def test_load_ignores_older_d_attn_key(tmp_path):
    # older model files also stored the pooler width as metadata "d_attn"; the
    # width now comes from the config alone and the pooler shapes must match it
    model = tiny_model(seed=6)
    path = tmp_path / "m.capt"
    save_model(model, path)
    _rewrite_meta(path, lambda meta: meta.update(d_attn=model.cfg.attn_dim))
    loaded = load_model(path)
    rows, ids = np.random.default_rng(12).normal(size=(3, 5)), np.array([4, 5, 6])
    np.testing.assert_array_equal(model.predict(rows, ids, [(0, 3)]).utterance_scores,
                                  loaded.predict(rows, ids, [(0, 3)]).utterance_scores)
    wide = model.cfg.attn_dim + 1
    _rewrite_meta(path, lambda meta: meta.update(d_attn=wide),
                  {"pool.total.w_proj": np.zeros((model.cfg.d_model, wide))})
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert "pool.total.w_proj" in str(e.value)


@pytest.mark.parametrize("key,value", [("scan_impl", "parallel"), ("expand", 2), ("d_attn", 0)],
                         ids=["scan_impl", "expand", "d_attn"])
def test_load_drops_retired_config_field(tmp_path, key, value):
    # retired config fields, with the values older model files record
    model = tiny_model(seed=5)
    path = tmp_path / "m.capt"
    save_model(model, path)
    _rewrite_meta(path, lambda meta: meta["config"].update({key: value}))
    loaded = load_model(path)
    rows, ids = np.random.default_rng(11).normal(size=(3, 5)), np.array([4, 5, 6])
    want, got = (m.predict(rows, ids, [(0, 3)]) for m in (model, loaded))
    for field in ("phone_scores", "mdd_logits", "word_scores", "utterance_scores"):
        np.testing.assert_array_equal(getattr(want, field), getattr(got, field))
    _rewrite_meta(path, lambda meta: meta["config"].update(warp=1))
    with pytest.raises(PersistenceError):
        load_model(path)


def test_load_ignores_older_score_ranges_key(tmp_path):
    model = tiny_model(seed=7)
    path = tmp_path / "m.capt"
    save_model(model, path)
    _rewrite_meta(path, lambda meta: meta.update(
        score_ranges={"phone": 2.0, "word": 10.0, "utterance": 10.0}))
    loaded = load_model(path)
    rows, ids = np.random.default_rng(13).normal(size=(3, 5)), np.array([4, 5, 6])
    np.testing.assert_array_equal(model.predict(rows, ids, [(0, 3)]).utterance_scores,
                                  loaded.predict(rows, ids, [(0, 3)]).utterance_scores)


def test_load_rejects_pooler_wider_than_half_d_model(tmp_path):
    # a file whose config set d_attn above d_model // 2: its pooler arrays no
    # longer have the width the config gives
    model = tiny_model(seed=8)
    path = tmp_path / "m.capt"
    save_model(model, path)
    dm, wide = model.cfg.d_model, model.cfg.attn_dim + 2
    rng = np.random.default_rng(14)
    params = {}
    for a in scoring.ASPECTS:
        params[f"pool.{a}.w_proj"] = rng.normal(size=(dm, wide))
        params[f"pool.{a}.w_score"] = rng.normal(size=wide)
    _rewrite_meta(path, lambda meta: meta["config"].update(d_attn=wide), params)
    with pytest.raises(PersistenceError) as e:
        load_model(path)
    assert str(path) in str(e.value)
    assert f"pool.{scoring.ASPECTS[0]}.w_proj" in str(e.value)


def test_save_model_unwritable_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(PersistenceError) as e:
        save_model(tiny_model(), blocker / "m.capt")
    assert str(blocker / "m.capt") in str(e.value)


def test_load_rejects_truncated_file(tmp_path):
    model = tiny_model()
    full = tmp_path / "m.capt"
    save_model(model, full)
    blob = full.read_bytes()
    for cut in (0, 1, 30, len(blob) // 4, len(blob) // 2, len(blob) - 23, len(blob) - 1):
        path = tmp_path / f"cut{cut}.capt"
        path.write_bytes(blob[:cut])
        with pytest.raises(PersistenceError) as e:
            load_model(path)
        assert str(path) in str(e.value)


def test_load_closes_a_file_that_is_not_a_zip(tmp_path):
    path = tmp_path / "cut.capt"
    save_model(tiny_model(), path)
    path.write_bytes(path.read_bytes()[:30])  # the zip magic, then no directory
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(20):
            with pytest.raises(PersistenceError):
                load_model(path)
        gc.collect()  # a file still open when it is freed warns "unclosed file"
    assert [str(w.message) for w in seen if w.category is ResourceWarning] == []
