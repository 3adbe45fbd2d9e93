import os

import numpy as np
import pytest

from capt import diffcore as dc
from capt import scan
from capt.encoder import discretize
from capt.errors import ContractError


def rand_instance(rng, t_len, n_ch=3, n_st=2, a_max=1.0):
    x = rng.normal(size=(t_len, n_ch))
    a_bar = rng.uniform(0.0, a_max, size=(t_len, n_ch, n_st))
    b_bar = rng.normal(size=(t_len, n_ch, n_st))
    c = rng.normal(size=(t_len, n_st))
    d = rng.normal(size=n_ch)
    return x, a_bar, b_bar, c, d


# --- discretization --------------------------------------------------------

def test_discretize_small_delta_freezes_state():
    delta = dc.Tensor(np.full((2, 3), 1e-12))
    a = dc.Tensor(np.full((3, 2), -1.0))
    b_t = dc.Tensor(np.ones((2, 2)))
    a_bar, b_bar = discretize(delta, a, b_t)
    np.testing.assert_allclose(a_bar.data, 1.0, atol=1e-11)
    np.testing.assert_allclose(b_bar.data, 0.0, atol=1e-11)


def test_discretize_zero_a():
    delta = dc.Tensor(np.full((2, 3), 2.5))
    a = dc.Tensor(np.zeros((3, 2)))
    a_bar, _ = discretize(delta, a, dc.Tensor(np.ones((2, 2))))
    np.testing.assert_array_equal(a_bar.data, np.ones((2, 3, 2)))


def test_discretize_closed_form():
    delta = dc.Tensor(np.ones((1, 1)))
    a = dc.Tensor(np.array([[-1.0]]))
    a_bar, _ = discretize(delta, a, dc.Tensor(np.ones((1, 1))))
    assert abs(a_bar.data[0, 0, 0] - 0.3679) < 1e-4


def test_discretize_rejects_nonpositive_delta():
    with pytest.raises(ContractError):
        discretize(dc.Tensor(np.zeros((1, 1))), dc.Tensor(np.array([[-1.0]])),
                   dc.Tensor(np.ones((1, 1))))


def test_a_bar_in_unit_interval_for_stable_params():
    rng = np.random.default_rng(0)
    delta = dc.Tensor(rng.uniform(1e-3, 5.0, size=(10, 4)))
    a = dc.Tensor(-np.exp(rng.normal(size=(4, 3))))
    a_bar, _ = discretize(delta, a, dc.Tensor(rng.normal(size=(10, 3))))
    assert (a_bar.data > 0).all() and (a_bar.data < 1).all()


# --- sequential scan -------------------------------------------------------

def test_scan_memoryless():
    rng = np.random.default_rng(1)
    x, _, b_bar, c, _ = rand_instance(rng, 6)
    a_bar = np.zeros_like(b_bar)
    d = np.zeros(3)
    y = scan.scan_sequential_values(x, a_bar, b_bar, c, d)
    expect = np.einsum("ts,tcs->tc", c, b_bar * x[:, :, None])
    np.testing.assert_allclose(y, expect, atol=1e-12)


def test_scan_geometric_impulse():
    t_len, a, b = 8, 0.7, 1.3
    x = np.zeros((t_len, 1))
    x[0, 0] = 1.0
    a_bar = np.full((t_len, 1, 1), a)
    b_bar = np.full((t_len, 1, 1), b)
    c = np.ones((t_len, 1))
    y = scan.scan_sequential_values(x, a_bar, b_bar, c, np.zeros(1))
    expect = np.array([b * a ** (t - 1) if t >= 1 else 0 for t in range(1, t_len + 1)])
    # y_t = b * a^(t-1) for the impulse at t=1
    np.testing.assert_allclose(y[:, 0], b * (a ** np.arange(t_len)), atol=1e-12)
    np.testing.assert_allclose(y[:, 0], expect, atol=1e-12)


def test_scan_zero_input():
    rng = np.random.default_rng(2)
    x, a_bar, b_bar, c, d = rand_instance(rng, 5)
    y = scan.scan_sequential_values(np.zeros_like(x), a_bar, b_bar, c, d)
    np.testing.assert_array_equal(y, 0.0)


def test_scan_stream_length_mismatch():
    rng = np.random.default_rng(3)
    x, a_bar, b_bar, c, d = rand_instance(rng, 5)
    with pytest.raises(ContractError):
        scan.scan_sequential_values(x, a_bar[:4], b_bar, c, d)


# --- parallel scan ---------------------------------------------------------

def test_parallel_matches_sequential_small():
    rng = np.random.default_rng(4)
    for _ in range(25):
        t_len = int(rng.integers(1, 257))
        inst = rand_instance(rng, t_len)
        y_seq = scan.scan_sequential_values(*inst)
        y_par = scan.scan_parallel_values(*inst)
        assert np.abs(y_seq - y_par).max() < 1e-9


def test_parallel_single_step():
    rng = np.random.default_rng(5)
    inst = rand_instance(rng, 1)
    np.testing.assert_array_equal(scan.scan_parallel_values(*inst),
                                  scan.scan_sequential_values(*inst))


def test_parallel_running_sum():
    t_len = 16
    x = np.ones((t_len, 1))
    a_bar = np.ones((t_len, 1, 1))
    b_bar = np.ones((t_len, 1, 1))
    c = np.ones((t_len, 1))
    y = scan.scan_parallel_values(x, a_bar, b_bar, c, np.zeros(1))
    np.testing.assert_allclose(y[:, 0], np.arange(1, t_len + 1), atol=1e-12)


# --- backend selection -----------------------------------------------------

def test_numpy_and_numba_backends_agree(monkeypatch):
    rng = np.random.default_rng(7)
    inst = rand_instance(rng, 33)
    monkeypatch.setenv("CAPT_SCAN_BACKEND", "numpy")
    assert scan.backend() == "numpy"
    y_np = scan.scan_sequential_values(*inst)
    monkeypatch.delenv("CAPT_SCAN_BACKEND")
    if scan.HAVE_NUMBA:
        assert scan.backend() == "numba"
    y_default = scan.scan_sequential_values(*inst)
    np.testing.assert_allclose(y_np, y_default, atol=1e-12)


def test_scan_gradients_on_numpy_backend(monkeypatch):
    monkeypatch.setenv("CAPT_SCAN_BACKEND", "numpy")
    rng = np.random.default_rng(8)
    x, a_raw, b_bar, c, d = (dc.Tensor(v, requires_grad=True)
                             for v in rand_instance(rng, 5))

    def f():
        return dc.mean(scan.selective_scan(x, dc.sigmoid(a_raw), b_bar, c, d))

    assert dc.grad_check(f, [x, a_raw, b_bar, c, d], epsilon=1e-4) < 1e-4
