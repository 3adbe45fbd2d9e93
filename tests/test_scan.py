import tracemalloc

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
    a_bar = discretize(delta, a)
    np.testing.assert_allclose(a_bar.data, 1.0, atol=1e-11)
    # B_bar = delta (x) B is never built; the scan's delta form starts its
    # states from (delta * x) (x) B, so with D = 0 nothing reaches y
    x, b_t, c = (dc.Tensor(np.ones(shape)) for shape in ((2, 3), (2, 2), (2, 2)))
    y = scan.selective_scan(x, a_bar, b_t, c, dc.Tensor(np.zeros(3)), delta=delta)
    np.testing.assert_allclose(y.data, 0.0, atol=1e-11)


def test_discretize_zero_a():
    delta = dc.Tensor(np.full((2, 3), 2.5))
    a = dc.Tensor(np.zeros((3, 2)))
    np.testing.assert_array_equal(discretize(delta, a).data, np.ones((2, 3, 2)))


def test_discretize_closed_form():
    delta = dc.Tensor(np.ones((1, 1)))
    a = dc.Tensor(np.array([[-1.0]]))
    assert abs(discretize(delta, a).data[0, 0, 0] - 0.3679) < 1e-4


def test_discretize_rejects_nonpositive_delta():
    with pytest.raises(ContractError):
        discretize(dc.Tensor(np.zeros((1, 1))), dc.Tensor(np.array([[-1.0]])))


def test_a_bar_in_unit_interval_for_stable_params():
    rng = np.random.default_rng(0)
    delta = dc.Tensor(rng.uniform(1e-3, 5.0, size=(10, 4)))
    a = dc.Tensor(-np.exp(rng.normal(size=(4, 3))))
    a_bar = discretize(delta, a)
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


def test_delta_form_shape_mismatch_names_every_stream():
    rng = np.random.default_rng(3)
    x, a_bar, _, c, d = (dc.Tensor(v) for v in rand_instance(rng, 5))
    b_t = dc.Tensor(rng.normal(size=(5, 2)))
    delta = rng.uniform(0.5, 1.5, size=(5, 3))
    with pytest.raises(ContractError) as e:
        scan.selective_scan(x, a_bar, b_t, c, d, delta=dc.Tensor(delta[:4]))
    for name, shape in (("x", x.shape), ("delta", (4, 3)), ("A_bar", a_bar.shape),
                        ("B", b_t.shape), ("C", c.shape), ("D", d.shape)):
        assert f"{name} {shape}" in str(e.value)
    with pytest.raises(ContractError):  # a B_bar where B belongs
        scan.selective_scan(x, a_bar, a_bar, c, d, delta=dc.Tensor(delta))


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

    y, saved = scan._scan_fwd(x, a_bar, b_bar, c, d)
    # every state the backward reads, kept or recomputed, is the oracle's
    ends = []
    for s, e, pad in scan._chunk_states(a_bar, b_bar, x, saved):
        np.testing.assert_array_equal(pad[0], h_ref[s - 1] if s else 0.0)
        np.testing.assert_array_equal(pad[1:], h_ref[s:e])
        ends.append((s, e))
    assert ends == [(s, min(s + saved[0], t_len)) for s in range(0, t_len, saved[0])][::-1]
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


# --- the cache-blocked kernel vs the whole-stream kernel it replaced -------
# Copies of _scan_fwd/_scan_bwd as they were before the stream ran in chunks:
# one (T + 1, C, S) state buffer kept from the forward to the backward.  The
# chunked kernel runs the same operations in the same order, so y and every
# gradient must be bit-identical.

def whole_fwd(x, a_bar, b, c, d, delta=None):
    t_len, n_ch = x.shape
    h_pad = np.empty((t_len + 1, n_ch, c.shape[1]))
    h_pad[0] = 0.0
    h = h_pad[1:]
    if delta is None:
        np.einsum("tcs,tc->tcs", b, x, out=h)
    else:
        np.einsum("tc,ts->tcs", delta * x, b, out=h)
    tmp = np.empty(h.shape[1:])
    for a_t, h_prev, h_t in zip(a_bar[1:], h[:-1], h[1:]):
        np.multiply(a_t, h_prev, out=tmp)
        h_t += tmp
    y = np.matmul(h, c[:, :, None])[:, :, 0] + d * x
    return y, h_pad


def whole_bwd(x, a_bar, b, c, d, h_pad, dy, delta=None):
    h = h_pad[1:]
    g = np.einsum("tc,ts->tcs", dy, c)
    tmp = np.empty(g.shape[1:])
    for a_next, g_next, g_t in zip(a_bar[:0:-1], g[:0:-1], g[-2::-1]):
        np.multiply(a_next, g_next, out=tmp)
        g_t += tmp
    dc_ = np.matmul(dy[:, None, :], h)[:, 0]
    dd = np.einsum("tc,tc->c", dy, x)
    da = h_pad[:-1]
    np.multiply(g, da, out=da)
    if delta is None:
        dx = np.einsum("tcs,tcs->tc", g, b) + dy * d
        np.multiply(g, x[:, :, None], out=g)
        return dx, da, g, dc_, dd, None
    dxb = np.matmul(g, b[:, :, None])[:, :, 0]
    db = np.matmul((delta * x)[:, None, :], g)[:, 0, :]
    return dxb * delta + dy * d, da, db, dc_, dd, dxb * x


def scan_streams(rng, t_len, n_ch, n_st, form, starts=()):
    """(x, A_bar, b, C, D, delta) as the encoder makes them; b is B_bar and
    delta None in the B_bar form.  A_bar is 0 on the ``starts`` rows."""
    x, a_bar, b_bar, c, d = rand_instance(rng, t_len, n_ch, n_st)
    a_bar[list(starts)] = 0.0
    if form == "B_bar":
        return x, a_bar, b_bar, c, d, None
    return (x, a_bar, rng.normal(size=(t_len, n_st)), c, d,
            rng.uniform(0.01, 3.0, size=(t_len, n_ch)))


def assert_bit_identical(streams, dy, chunk=None):
    """y and every gradient of the chunked kernel equal the whole-stream
    kernel's; returns the chunked forward's saved states."""
    *arrays, delta = streams
    y_ref, h_pad = whole_fwd(*arrays, delta=delta)
    grads_ref = whole_bwd(*arrays, h_pad, dy, delta=delta)
    y, saved = scan._scan_fwd(*arrays, delta=delta, chunk=chunk)
    grads = scan._scan_bwd(*arrays, saved, dy, delta=delta)
    np.testing.assert_array_equal(y, y_ref)
    for name, g, ref in zip(("dx", "dA_bar", "db", "dC", "dD", "d_delta"), grads, grads_ref):
        assert (g is None) == (ref is None), name
        if ref is not None:
            assert g.shape == ref.shape and np.array_equal(g, ref), name
    return saved


CHUNK_LENGTHS = {"1": 1, "3": 3, "T-1": 39, "T": 40, "T+5": 45}


@pytest.mark.parametrize("form", ["delta", "B_bar"])
@pytest.mark.parametrize("length", sorted(CHUNK_LENGTHS))
def test_chunked_kernel_is_bit_identical(form, length):
    chunk = CHUNK_LENGTHS[length]
    rng = np.random.default_rng(chunk)
    streams = scan_streams(rng, 40, 6, 4, form, starts=[0, 1, 7, 8, 23, 39])
    saved = assert_bit_identical(streams, rng.normal(size=(40, 6)), chunk)
    assert saved[0] == chunk and len(saved[1]) == 41  # all kept at this size


@pytest.mark.parametrize("form", ["delta", "B_bar"])
def test_segment_starts_on_chunk_edges(form):
    # chunks of 8 rows: segments start on a chunk's first row (8, 24, 32)
    # and on its last row (15, 39)
    rng = np.random.default_rng(9)
    streams = scan_streams(rng, 40, 6, 4, form, starts=[0, 8, 15, 24, 32, 39])
    assert_bit_identical(streams, rng.normal(size=(40, 6)), chunk=8)


@pytest.mark.parametrize("form", ["delta", "B_bar"])
def test_partially_kept_stream_is_bit_identical(form, monkeypatch):
    # room for 12 of the 41 state rows: only the state entering each of the
    # eight chunks of 5 is kept, and every chunk is recomputed in the backward
    monkeypatch.setattr(scan, "KEEP_BYTES", 12 * 8 * 6 * 4)
    rng = np.random.default_rng(10)
    streams = scan_streams(rng, 40, 6, 4, form, starts=[0, 5, 14, 29, 30])
    dy = rng.normal(size=(40, 6))
    _, states = assert_bit_identical(streams, dy, chunk=5)
    assert states.shape == (8, 6, 4)
    # and with no room for a single state row
    monkeypatch.setattr(scan, "KEEP_BYTES", 0)
    _, states = assert_bit_identical(streams, dy, chunk=5)
    assert states.shape == (8, 6, 4)


@pytest.mark.parametrize("form", ["delta", "B_bar"])
def test_default_budgets_at_train_long_shape_are_bit_identical(form):
    # the default budgets keep only the state entering each chunk of a
    # train_long stream and recompute every chunk
    rng = np.random.default_rng(11)
    streams = scan_streams(rng, 756, 128, 16, form)
    chunk, states = assert_bit_identical(streams, rng.normal(size=(756, 128)))
    assert len(states) == -(-756 // chunk) and len(states) > 1


@pytest.mark.parametrize("form", ["delta", "B_bar"])
@pytest.mark.parametrize("rows_over", [0, 1])
def test_keep_budget_boundary(form, rows_over):
    # at C = 128, S = 16 a state row is 16 KiB and KEEP_BYTES holds 160 rows:
    # T = 159 keeps all T + 1 states, and T = 160, one row over, keeps only
    # the state entering each chunk
    row_bytes = 8 * 128 * 16
    t_len = scan.KEEP_BYTES // row_bytes - 1 + rows_over
    rng = np.random.default_rng(t_len)
    streams = scan_streams(rng, t_len, 128, 16, form, starts=[0, 40, 41])
    chunk, states = assert_bit_identical(streams, rng.normal(size=(t_len, 128)))
    assert len(states) == (-(-t_len // chunk) if rows_over else t_len + 1)
    assert (t_len + 1) * row_bytes - scan.KEEP_BYTES == rows_over * row_bytes


def test_scan_holds_at_most_the_kept_and_entry_states():
    """Between forward and backward a delta-form scan under a tape whose
    states overflow KEEP_BYTES holds y and the states entering its chunks,
    not the T * C * S states of the stream."""
    t_len, n_ch, n_st = 756, 128, 16
    rng = np.random.default_rng(12)
    *arrays, delta = (dc.Tensor(v) for v in scan_streams(rng, t_len, n_ch, n_st, "delta"))
    row_bytes = 8 * n_ch * n_st
    chunk = scan.CHUNK_BYTES // row_bytes
    entries_bytes = -(-t_len // chunk) * row_bytes
    tracemalloc.start()
    try:
        with dc.Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            y = scan.selective_scan(*arrays, delta=delta)
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(dc.total_sum(y))
    finally:
        tracemalloc.stop()
    assert held <= y.data.nbytes + entries_bytes + row_bytes
    assert held < t_len * row_bytes / 2
    assert arrays[1].grad.shape == (t_len, n_ch, n_st)


def test_scan_gradients_on_numpy_backend():
    rng = np.random.default_rng(8)
    x, a_raw, b_bar, c, d = (dc.Tensor(v) for v in rand_instance(rng, 5))

    def f():
        return dc.mean(scan.selective_scan(x, dc.sigmoid(a_raw), b_bar, c, d))

    assert dc.grad_check(f, [x, a_raw, b_bar, c, d], epsilon=1e-4) < 1e-4


# --- fused discretization vs the op chain it replaced ----------------------
# Copies of the two tape ops that made A_bar before discretize was one op:
# exp(delta (x) a) times a (T, 1, 1) 0/1 reset factor.

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


def run_discretize(fn, values, starts, g_a):
    """A_bar and the input gradients of sum(A_bar * g_a)."""
    ins = [dc.Tensor(v) for v in values]
    with dc.Tape() as tape:
        a_bar = fn(*ins, starts=starts)
        tape.backward(dc.total_sum(dc.mul(a_bar, g_a)))
    return a_bar.data, [t.grad for t in ins]


def oracle_a_bar(delta, a, starts=None):
    reset = None if starts is None else reset_rows(delta.data.shape[0], starts)
    return oracle_exp(oracle_outer_time_channel(delta, a), reset)


DISCRETIZE_CASES = {
    "train_short": ((242, 96, 8), None),
    "train_long": ((756, 128, 16), None),
    "packed_starts": ((40, 6, 4), [0, 1, 7, 8, 23, 39]),
}


def discretize_values(rng, t_len, n_ch, n_st):
    """delta, a and b_t as the encoder makes them."""
    return (rng.uniform(0.01, 3.0, size=(t_len, n_ch)),
            -np.exp(rng.normal(size=(n_ch, n_st))),
            rng.normal(size=(t_len, n_st)))


@pytest.mark.parametrize("case", sorted(DISCRETIZE_CASES))
def test_discretize_matches_op_chain(case):
    (t_len, n_ch, n_st), starts = DISCRETIZE_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    values = discretize_values(rng, t_len, n_ch, n_st)[:2]
    g_a = dc.Tensor(rng.normal(size=(t_len, n_ch, n_st)))  # upstream gradient of A_bar
    (a_bar, grads), (a_ref, grads_ref) = (
        run_discretize(fn, values, starts, g_a) for fn in (discretize, oracle_a_bar))
    np.testing.assert_array_equal(a_bar, a_ref)
    if starts is not None:
        np.testing.assert_array_equal(a_bar[starts], 0.0)
    for name, g, ref in zip(("d_delta", "d_a"), grads, grads_ref):
        assert g.shape == ref.shape
        assert_close(g, ref, name)


def test_discretize_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        discretize(dc.Tensor(np.ones((3, 2))), dc.Tensor(-np.ones((3, 4))))
    with pytest.raises(ShapeError):
        discretize(dc.Tensor(np.ones((3, 2))), dc.Tensor(-np.ones(2)))


# --- the delta-form scan vs the B_bar form it replaced in training ---------
# A copy of discretize as it was when it also built B_bar = delta (x) B as a
# second (T, C, S) output, one tape op; with the B_bar scan it is the oracle
# of discretize plus selective_scan(..., delta=delta).

def oracle_discretize_b_bar(delta, a, b_t, starts=None):
    dd, ad, bd = delta.data, a.data, b_t.data
    a_bar = dc.Tensor(np.einsum("tc,cs->tcs", dd, ad))
    np.exp(a_bar.data, out=a_bar.data)
    if starts is not None:
        a_bar.data[starts] = 0.0
    b_bar = dc.Tensor(np.einsum("tc,ts->tcs", dd, bd))

    def bwd(g_a, g_b):
        d_delta = np.zeros_like(dd)
        if g_a is not None:
            g_a *= a_bar.data
            d_delta += np.einsum("tcs,cs->tc", g_a, ad)
            dc._acc(a, np.einsum("tcs,tc->cs", g_a, dd), owned=True)
        if g_b is not None:
            d_delta += np.matmul(g_b, bd[:, :, None])[:, :, 0]
            dc._acc(b_t, np.matmul(dd[:, None, :], g_b)[:, 0, :], owned=True)
        dc._acc(delta, d_delta, owned=True)

    dc._record(bwd, a_bar, b_bar)
    return a_bar, b_bar


def delta_form_path(u, delta, a, b_t, c, d, starts):
    return scan.selective_scan(u, discretize(delta, a, starts), b_t, c, d, delta=delta)


def b_bar_path(u, delta, a, b_t, c, d, starts):
    a_bar, b_bar = oracle_discretize_b_bar(delta, a, b_t, starts)
    return scan.selective_scan(u, a_bar, b_bar, c, d)


@pytest.mark.parametrize("case", sorted(DISCRETIZE_CASES))
def test_delta_form_matches_b_bar_oracle(case):
    (t_len, n_ch, n_st), starts = DISCRETIZE_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    delta, a, b_t = discretize_values(rng, t_len, n_ch, n_st)
    values = (rng.normal(size=(t_len, n_ch)), delta, a, b_t,
              rng.normal(size=(t_len, n_st)), rng.normal(size=n_ch))
    dy = dc.Tensor(rng.normal(size=(t_len, n_ch)))
    results = []
    for path in (delta_form_path, b_bar_path):
        ins = [dc.Tensor(v) for v in values]
        with dc.Tape() as tape:
            y = path(*ins, starts=starts)
            tape.backward(dc.total_sum(dc.mul(y, dy)))
        results.append((y.data, [t.grad for t in ins]))
    (y, grads), (y_ref, grads_ref) = results
    assert_close(y, y_ref, "y")
    for name, g, ref in zip(("du", "d_delta", "d_a", "d_b_t", "dC", "dD"), grads, grads_ref):
        assert g.shape == ref.shape
        assert_close(g, ref, name)
