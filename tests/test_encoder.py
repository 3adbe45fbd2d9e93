import math

import numpy as np
import pytest

from capt import diffcore as dc
from capt.encoder import (EncoderConfig, Packing, bimamba_encode, encoder_params,
                          init_params, mamba_block)
from capt.errors import ConfigError, ContractError
from scan_reference import sequential_values


def small_cfg(**kw):
    base = dict(d_model=4, d_state=3, n_layers=1, conv_width=3, n_think=0)
    base.update(kw)
    return EncoderConfig(**base)


def build(cfg, seed=0):
    return init_params(encoder_params(cfg), np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(d_model=0).validate()
    with pytest.raises(ConfigError):
        EncoderConfig(n_think=-1).validate()
    with pytest.raises(ConfigError, match="feat_dim -3 must be >= 0"):
        EncoderConfig().validate(-3)


@pytest.mark.parametrize("cfg", [
    EncoderConfig(),
    EncoderConfig(d_model=48, d_state=8, n_layers=1, conv_width=3, n_think=4),  # criterion 5
    EncoderConfig(d_model=14, d_state=5, n_layers=3, conv_width=2, n_think=0),
])
def test_n_params_counts_the_width_set_arrays(cfg):
    from capt.model import param_entries

    feat_dim = 33
    sized = [math.prod(shape) for name, shape, _ in param_entries(cfg, feat_dim)
             if name.startswith("enc.") or name == "feat.proj.w"
             or (name.startswith("pool.") and name.endswith(".w_proj"))]
    assert cfg.n_params(feat_dim) == sum(sized)


def test_block_zero_out_proj_is_identity():
    cfg = small_cfg()
    store = build(cfg)
    store["enc.l0.fwd.out_proj.w"].data[:] = 0.0
    store["enc.l0.fwd.out_proj.b"].data[:] = 0.0
    x = np.random.default_rng(1).normal(size=(5, 4))
    out = mamba_block(dc.Tensor(x), store, "enc.l0.fwd", cfg)
    np.testing.assert_array_equal(out.data, x)


def test_block_zero_gate_passes_residual_only():
    cfg = small_cfg()
    store = build(cfg)
    # zero the gate half of the input projection -> SiLU(0) = 0 kills the scan path
    di = cfg.d_inner
    store["enc.l0.fwd.in_proj.w"].data[:, di:] = 0.0
    store["enc.l0.fwd.in_proj.b"].data[di:] = 0.0
    x = np.random.default_rng(2).normal(size=(6, 4))
    out = mamba_block(dc.Tensor(x), store, "enc.l0.fwd", cfg)
    # out_proj sees zeros, so only its bias (zero) plus the residual remains
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_block_gradients():
    cfg = small_cfg()
    store = build(cfg, seed=3)
    x = np.random.default_rng(3).normal(size=(5, 4))

    def f():
        return dc.mean(mamba_block(dc.Tensor(x), store, "enc.l0.fwd", cfg))

    assert dc.grad_check(f, store.tensors(), epsilon=1e-4) < 1e-4


def test_block_rejects_empty_sequence():
    cfg = small_cfg()
    store = build(cfg)
    with pytest.raises(ContractError):
        mamba_block(dc.Tensor(np.zeros((0, 4))), store, "enc.l0.fwd", cfg)


def test_append_think_tokens():
    x = dc.Tensor(np.arange(8.0).reshape(2, 4))
    assert Packing([2], 0).place(x, None) is x
    tokens = dc.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    out = Packing([2], 3).place(x, tokens)
    assert out.data.shape == (5, 4)
    np.testing.assert_array_equal(out.data[:2], x.data)
    np.testing.assert_array_equal(out.data[2], tokens.data[0])


@pytest.mark.parametrize("k", [0, 1, 4, 16])
def test_encoder_output_length_is_phone_count(k):
    cfg = small_cfg(n_think=k, n_layers=2)
    store = build(cfg, seed=4)
    n = 6
    x = dc.Tensor(np.random.default_rng(4).normal(size=(n, 4)))
    think = store["enc.think"] if k > 0 else None
    packing = Packing([n], k)
    h = bimamba_encode(packing.place(x, think), packing, store, cfg)
    assert h.data.shape == (n, 4)


def test_encoder_rejects_empty_utterance():
    cfg = small_cfg()
    store = build(cfg)
    with pytest.raises(ContractError):
        bimamba_encode(dc.Tensor(np.zeros((2, 4))), Packing([0], 2), store, cfg)


def test_think_tokens_receive_gradient():
    cfg = small_cfg(n_think=4)
    store = build(cfg, seed=5)
    x = dc.Tensor(np.random.default_rng(5).normal(size=(5, 4)))
    store.zero_grad()
    with dc.Tape() as tape:
        packing = Packing([5], 4)
        h = bimamba_encode(packing.place(x, store["enc.think"]), packing, store, cfg)
        tape.backward(dc.mean(h))
    g = store["enc.think"].grad
    assert g is not None and np.abs(g).max() > 0


def test_forward_scan_on_reversed_equals_reversed_backward_scan():
    # at the scan level with shared streams: running the recurrence on the
    # reversed streams and un-reversing equals a right-to-left recurrence
    rng = np.random.default_rng(6)
    t_len, n_ch, n_st = 7, 2, 3
    x = rng.normal(size=(t_len, n_ch))
    a_bar = rng.uniform(0, 1, size=(t_len, n_ch, n_st))
    b_bar = rng.normal(size=(t_len, n_ch, n_st))
    c = rng.normal(size=(t_len, n_st))
    d = rng.normal(size=n_ch)
    y_rev = sequential_values(x[::-1], a_bar[::-1], b_bar[::-1], c[::-1], d)[::-1]

    h = np.zeros((n_ch, n_st))
    y_right = np.zeros((t_len, n_ch))
    for t in range(t_len - 1, -1, -1):
        h = a_bar[t] * h + b_bar[t] * x[t][:, None]
        y_right[t] = h @ c[t] + d * x[t]
    np.testing.assert_allclose(y_rev, y_right, atol=1e-12)


def test_encoder_gradients_full_stack():
    cfg = small_cfg(n_think=2, n_layers=1)
    store = build(cfg, seed=7)
    x = np.random.default_rng(7).normal(size=(4, 4))

    def f():
        packing = Packing([4], 2)
        xt = packing.place(dc.Tensor(x), store["enc.think"])
        return dc.mean(bimamba_encode(xt, packing, store, cfg))

    assert dc.grad_check(f, store.tensors(), epsilon=1e-4) < 1e-4


def test_packing_layout():
    packing = Packing([2, 1, 3], 2)
    assert packing.n_rows == 12
    np.testing.assert_array_equal(packing.pos, [0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3, 4])
    np.testing.assert_array_equal(packing.starts, np.flatnonzero(packing.pos == 0))
    np.testing.assert_array_equal(packing.phone_starts, [0, 2, 3])
    # phone rows 0..5 then think rows 6, 7, as Model.forward hands them over
    x_hat = dc.Tensor(np.arange(6.0)[:, None])
    think = dc.Tensor(np.array([[6.0], [7.0]]))
    packed = packing.place(x_hat, think)
    np.testing.assert_array_equal(packed.data[:, 0], [0, 1, 6, 7, 2, 6, 7, 3, 4, 5, 6, 7])
    np.testing.assert_array_equal(packing.reverse(packed).data[:, 0],
                                  [7, 6, 1, 0, 7, 6, 2, 7, 6, 5, 4, 3])
    np.testing.assert_array_equal(packing.phones(packed).data[:, 0], np.arange(6.0))
    single = Packing([4], 2)
    assert single.single and single.pos is None and single.starts is None


@pytest.mark.parametrize("k", [0, 2])
def test_packed_encoder_matches_separate_utterances(k):
    # lengths 1 and 2 are shorter than the conv, so taps reach across segments
    cfg = small_cfg(n_think=k, n_layers=2, conv_width=3)
    store = build(cfg, seed=8)
    rng = np.random.default_rng(8)
    lengths = [1, 2, 5]
    xs = [rng.normal(size=(n, 4)) for n in lengths]
    think = store["enc.think"] if k else None
    packing = Packing(lengths, k)
    packed = bimamba_encode(packing.place(dc.Tensor(np.concatenate(xs)), think),
                            packing, store, cfg).data
    separate = []
    for x in xs:
        single = Packing([len(x)], k)
        separate.append(bimamba_encode(single.place(dc.Tensor(x), think), single, store,
                                       cfg).data)
    np.testing.assert_allclose(packed, np.concatenate(separate), rtol=1e-12, atol=1e-15)
