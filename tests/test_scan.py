import numpy as np
import pytest

from capt import diffcore as dc
from capt import scan
from capt.encoder import discretize
from capt.errors import ContractError, ShapeError


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


# --- kernels vs the per-step oracle ----------------------------------------
# The per-step loops below are the kernels the vectorized ones replaced; they
# stay here as the oracle the fast kernels must match.

def oracle_fwd(x, a_bar, b_bar, c, d):
    t_len, n_ch = x.shape
    n_st = c.shape[1]
    h = np.empty((t_len, n_ch, n_st))
    cur = np.zeros((n_ch, n_st))
    for t in range(t_len):
        cur = a_bar[t] * cur + b_bar[t] * x[t][:, None]
        h[t] = cur
    y = np.einsum("tcs,ts->tc", h, c) + d * x
    return y, h


def oracle_bwd(x, a_bar, b_bar, c, d, h, dy):
    t_len, n_ch = x.shape
    n_st = c.shape[1]
    dx = np.zeros_like(x)
    da = np.zeros_like(a_bar)
    db = np.zeros_like(b_bar)
    dc_ = np.zeros_like(c)
    dd = np.zeros(n_ch)
    dh = np.zeros((n_ch, n_st))
    for t in range(t_len - 1, -1, -1):
        dh += dy[t][:, None] * c[t][None, :]
        dc_[t] = (dy[t][:, None] * h[t]).sum(axis=0)
        h_prev = h[t - 1] if t > 0 else np.zeros((n_ch, n_st))
        da[t] = dh * h_prev
        db[t] = dh * x[t][:, None]
        dx[t] = (dh * b_bar[t]).sum(axis=1) + dy[t] * d
        dd += dy[t] * x[t]
        dh = dh * a_bar[t]
    return dx, da, db, dc_, dd


def assert_close(got, ref, name):
    err = np.abs(got - ref).max(initial=0.0)
    assert err <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0)), (name, err)


def reset_rows(t_len, starts):
    """0/1 factor that zeroes A_bar on each segment's first row, as packing does."""
    factor = np.ones((t_len, 1, 1))
    factor[starts] = 0.0
    return factor


KERNEL_CASES = {
    "T1_C1_S1": ((1, 1, 1), None),
    "train_short": ((242, 96, 8), None),
    "train_long": ((756, 128, 16), None),
    "packed_resets": ((40, 6, 4), [0, 1, 7, 8, 23, 39]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernels_match_per_step_oracle(case):
    (t_len, n_ch, n_st), starts = KERNEL_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    x, a_bar, b_bar, c, d = rand_instance(rng, t_len, n_ch, n_st)
    if starts is not None:
        a_bar = a_bar * reset_rows(t_len, starts)
    dy = rng.normal(size=(t_len, n_ch))
    y_ref, h_ref = oracle_fwd(x, a_bar, b_bar, c, d)
    grads_ref = oracle_bwd(x, a_bar, b_bar, c, d, h_ref, dy)

    y, h_pad = scan._scan_fwd(x, a_bar, b_bar, c, d)
    np.testing.assert_array_equal(h_pad[0], 0.0)
    np.testing.assert_array_equal(h_pad[1:], h_ref)
    assert_close(y, y_ref, "y")

    # through the differentiable op and the tape, as training runs it
    ts = [dc.Tensor(v) for v in (x, a_bar, b_bar, c, d)]
    with dc.Tape() as tape:
        out = scan.selective_scan(*ts)
        assert_close(out.data, y_ref, "op y")
        tape.backward(dc.total_sum(dc.mul(out, dc.Tensor(dy))))
    for name, t, ref in zip(("dx", "dA_bar", "dB_bar", "dC", "dD"), ts, grads_ref):
        assert t.grad.shape == ref.shape
        assert_close(t.grad, ref, name)


def test_scan_gradients_on_numpy_backend():
    rng = np.random.default_rng(8)
    x, a_raw, b_bar, c, d = (dc.Tensor(v) for v in rand_instance(rng, 5))

    def f():
        return dc.mean(scan.selective_scan(x, dc.sigmoid(a_raw), b_bar, c, d))

    assert dc.grad_check(f, [x, a_raw, b_bar, c, d], epsilon=1e-4) < 1e-4


# --- fused discretization vs the op chain it replaced ----------------------
# Copies of the three tape ops discretize used to record: exp(delta (x) a)
# times a (T, 1, 1) 0/1 reset factor, and delta (x) b.

def oracle_outer_time_channel(delta, a):
    out = dc.Tensor(delta.data[:, :, None] * a.data[None, :, :])

    def bwd(g):
        dc._acc(delta, np.einsum("tcs,cs->tc", g, a.data))
        dc._acc(a, np.einsum("tcs,tc->cs", g, delta.data))

    dc._record(bwd, out)
    return out


def oracle_exp(x, factor=None):
    out = dc.Tensor(np.exp(x.data) if factor is None else np.exp(x.data) * factor)

    def bwd(g):
        dc._acc(x, g * out.data, owned=True)

    dc._record(bwd, out)
    return out


def oracle_outer_time_state(delta, b):
    out = dc.Tensor(delta.data[:, :, None] * b.data[:, None, :])

    def bwd(g):
        dc._acc(delta, np.matmul(g, b.data[:, :, None])[:, :, 0])
        dc._acc(b, np.matmul(delta.data[:, None, :], g)[:, 0, :])

    dc._record(bwd, out)
    return out


def oracle_discretize(delta, a, b_t, starts=None):
    reset = None if starts is None else reset_rows(delta.data.shape[0], starts)
    return (oracle_exp(oracle_outer_time_channel(delta, a), reset),
            oracle_outer_time_state(delta, b_t))


def run_discretize(fn, values, starts, g_a, g_b=None):
    """A_bar, B_bar and the input gradients of sum(A_bar * g_a) + sum(B_bar * g_b);
    without g_b, B_bar gets no gradient."""
    ins = [dc.Tensor(v) for v in values]
    with dc.Tape() as tape:
        a_bar, b_bar = fn(*ins, starts=starts)
        loss = dc.total_sum(dc.mul(a_bar, g_a))
        if g_b is not None:
            loss = dc.add(loss, dc.total_sum(dc.mul(b_bar, g_b)))
        tape.backward(loss)
    return a_bar.data, b_bar.data, [t.grad for t in ins]


DISCRETIZE_CASES = {
    "train_short": ((242, 96, 8), None),
    "train_long": ((756, 128, 16), None),
    "packed_starts": ((40, 6, 4), [0, 1, 7, 8, 23, 39]),
}


@pytest.mark.parametrize("case", sorted(DISCRETIZE_CASES))
def test_discretize_matches_op_chain(case):
    (t_len, n_ch, n_st), starts = DISCRETIZE_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    values = (rng.uniform(0.01, 3.0, size=(t_len, n_ch)),
              -np.exp(rng.normal(size=(n_ch, n_st))),
              rng.normal(size=(t_len, n_st)))
    # upstream gradients of A_bar and B_bar
    g_a, g_b = (dc.Tensor(rng.normal(size=(t_len, n_ch, n_st))) for _ in range(2))
    (a_bar, b_bar, grads), (a_ref, b_ref, grads_ref) = (
        run_discretize(fn, values, starts, g_a, g_b) for fn in (discretize, oracle_discretize))
    np.testing.assert_array_equal(a_bar, a_ref)
    np.testing.assert_array_equal(b_bar, b_ref)
    if starts is not None:
        np.testing.assert_array_equal(a_bar[starts], 0.0)
    for name, g, ref in zip(("d_delta", "d_a", "d_b"), grads, grads_ref):
        assert g.shape == ref.shape
        assert_close(g, ref, name)


def test_discretize_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        discretize(dc.Tensor(np.ones((3, 2))), dc.Tensor(-np.ones((2, 4))),
                   dc.Tensor(np.ones((3, 5))))


def test_discretize_gradient_on_a_bar_only():
    (t_len, n_ch, n_st), starts = DISCRETIZE_CASES["packed_starts"]
    rng = np.random.default_rng(15)
    values = (rng.uniform(0.01, 3.0, size=(t_len, n_ch)),
              -np.exp(rng.normal(size=(n_ch, n_st))),
              rng.normal(size=(t_len, n_st)))
    g_a = dc.Tensor(rng.normal(size=(t_len, n_ch, n_st)))
    _, _, grads = run_discretize(discretize, values, starts, g_a)
    _, _, grads_ref = run_discretize(oracle_discretize, values, starts, g_a)
    assert grads[2] is None and grads_ref[2] is None  # b_t reaches only B_bar
    for name, g, ref in zip(("d_delta", "d_a"), grads, grads_ref):
        assert_close(g, ref, name)
