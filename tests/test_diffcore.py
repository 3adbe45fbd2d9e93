import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capt import diffcore as dc
from capt.errors import ContractError, NumericError, ShapeError


def test_softmax_symmetry():
    out = dc.softmax(dc.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_tanh_at_origin():
    assert dc.tanh(dc.Tensor(0.0)).data == 0.0


def test_softmax_two_logits():
    out = dc.softmax(dc.Tensor([2.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.8808, 0.1192], atol=1e-4)


def test_softmax_positive_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(0, 5, size=(rng.integers(1, 6), rng.integers(2, 9)))
        s = dc.softmax(dc.Tensor(z)).data
        assert (s > 0).all()
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_backward_identity():
    x = dc.Tensor(3.0)
    with dc.Tape() as tape:
        loss = dc.scale(x, 1.0)
        tape.backward(loss)
    assert x.grad == 1.0


def test_backward_mse_at_minimum():
    x = dc.Tensor([1.0, 2.0])
    with dc.Tape() as tape:
        loss = dc.mse(x, np.array([1.0, 2.0]))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_backward_linear_map_column_sums():
    # loss = sum(A @ x) -> dloss/dx = column sums of A
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))
    x = dc.Tensor(rng.normal(size=3))
    with dc.Tape() as tape:
        loss = dc.total_sum(dc.matmul(dc.Tensor(a), x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, a.sum(axis=0), atol=1e-12)


def test_gradient_accumulates_across_uses():
    x = dc.Tensor([2.0])
    with dc.Tape() as tape:
        loss = dc.total_sum(dc.add(x, x))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_linearity_of_sum():
    rng = np.random.default_rng(2)
    xv = rng.normal(size=5)
    t1, t2 = rng.normal(size=5), rng.normal(size=5)

    x = dc.Tensor(xv)
    with dc.Tape() as tape:
        tape.backward(dc.add(dc.mse(x, t1), dc.mse(x, t2)))
    g_sum = x.grad.copy()

    parts = []
    for t in (t1, t2):
        x = dc.Tensor(xv)
        with dc.Tape() as tape:
            tape.backward(dc.mse(x, t))
        parts.append(x.grad.copy())
    np.testing.assert_allclose(g_sum, parts[0] + parts[1], atol=1e-12)


def test_backward_rejects_nonscalar_loss():
    x = dc.Tensor([1.0, 2.0])
    with dc.Tape() as tape:
        y = dc.tanh(x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_rejects_empty_tape():
    with dc.Tape() as tape:
        pass
    with pytest.raises(ContractError):
        tape.backward(dc.Tensor(0.0))


@pytest.mark.parametrize("op,args", [
    ("matmul", (dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((4, 2))))),
    ("mul", (dc.Tensor(np.zeros(3)), dc.Tensor(np.zeros(4)))),
    ("add", (dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((3, 2))))),
    ("mse", (dc.Tensor(np.zeros(3)), np.zeros(2))),
    ("concat", ([dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((2, 4)))],)),
    ("add", (dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros(3)))),  # a last-axis vector
])
def test_shape_errors_name_primitive(op, args):
    with pytest.raises(ShapeError) as e:
        getattr(dc, op)(*args)
    assert op.split("_")[0] in str(e.value)


def test_grad_check_quadratic():
    x = dc.Tensor(3.0)
    err = dc.grad_check(lambda: dc.mul(x, x), [x], epsilon=1e-4)
    assert err < 1e-6


def test_grad_check_probes_run_without_a_tape():
    x = dc.Tensor(np.array([0.5, -1.5, 2.0]))
    seen = []

    def f():
        seen.append(bool(dc._TAPES))
        return dc.total_sum(dc.mul(x, x))

    assert dc.grad_check(f, [x], epsilon=1e-4) < 1e-8
    # one analytic pass with its tape, then two probes per element with none
    assert seen == [True] + [False] * (2 * x.data.size)


def test_grad_check_epsilon_range():
    x = dc.Tensor(1.0)
    with pytest.raises(ContractError):
        dc.grad_check(lambda: dc.mul(x, x), [x], epsilon=1e-2)


def test_grad_check_three_layer_composition():
    rng = np.random.default_rng(3)
    w1 = dc.Tensor(rng.normal(size=(4, 5)))
    w2 = dc.Tensor(rng.normal(size=(5, 3)))
    w3 = dc.Tensor(rng.normal(size=(3,)))
    xin = rng.normal(size=(2, 4))

    def f():
        h = dc.tanh(dc.matmul(dc.Tensor(xin), w1))
        h = dc.silu(dc.matmul(h, w2))
        return dc.mean(dc.matmul(h, w3))

    assert dc.grad_check(f, [w1, w2, w3], epsilon=1e-4) < 1e-4


def test_grad_check_catches_wrong_backward():
    # a primitive with a deliberately wrong adjoint must be flagged
    def bad_square(t):
        out = dc.Tensor(t.data**2)

        def bwd(g):
            dc._acc(t, g * 3.0 * t.data)  # wrong factor

        dc._record(bwd, out)
        return out

    x = dc.Tensor(1.5)
    err = dc.grad_check(lambda: bad_square(x), [x], epsilon=1e-4)
    assert err > 1e-2


def test_grad_check_nonfinite_probe():
    x = dc.Tensor(0.0)

    def f():
        # log at 0 blows up under probing below zero
        return dc.Tensor(np.log(np.abs(x.data) + 0.0)) if False else _diverge(x)

    def _diverge(t):
        out = dc.Tensor(np.asarray(1.0 / t.data if t.data != 0 else np.inf))
        dc._record(lambda g: None, out)
        return out

    with pytest.raises(NumericError):
        dc.grad_check(lambda: _diverge(x), [x], epsilon=1e-4)


def test_softplus_matches_logaddexp():
    mags = np.concatenate([[0.0, 1e-300, 750.0], np.geomspace(1e-300, 750.0, 4001),
                           np.linspace(0.0, 750.0, 30001)])
    x = np.concatenate([mags, -mags])
    ref = np.logaddexp(0.0, x)
    got = dc.softplus(dc.Tensor(x)).data
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


PRIMS = ["tanh", "silu", "exp", "softplus", "sigmoid", "softmax"]


def test_elementwise_primitives_random_shapes_gradcheck():
    # >= 100 random shape/value instances across the primitive set
    rng = np.random.default_rng(4)
    fns = {"tanh": dc.tanh, "silu": dc.silu, "exp": dc.exp,
           "softplus": dc.softplus, "sigmoid": dc.sigmoid, "softmax": dc.softmax}
    count = 0
    for _ in range(20):
        for name in PRIMS:
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
            x = dc.Tensor(rng.normal(0, 1.5, size=shape))
            w = rng.normal(size=shape)

            def f(x=x, w=w, fn=fns[name]):
                return dc.mean(dc.mul(fn(x), dc.Tensor(w)))

            assert dc.grad_check(f, [x], epsilon=1e-4) < 1e-4, name
            count += 1
    assert count >= 100


def test_matmul_conv_losses_random_gradcheck():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, k, m = rng.integers(1, 5, size=3)
        a = dc.Tensor(rng.normal(size=(n, k)))
        b = dc.Tensor(rng.normal(size=(k, m)))
        assert dc.grad_check(lambda: dc.mean(dc.matmul(a, b)), [a, b]) < 1e-4

        t, c, w = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = dc.Tensor(rng.normal(size=(t, c)))
        kern = dc.Tensor(rng.normal(size=(w, c)))
        no_bias = dc.Tensor(np.zeros(c))
        assert dc.grad_check(lambda: dc.mean(dc.conv1d_causal_silu(x, kern, no_bias)),
                             [x, kern]) < 1e-4

        logits = dc.Tensor(rng.normal(size=(3, 5)))
        labels = rng.integers(0, 5, size=3)
        assert dc.grad_check(lambda: dc.cross_entropy(logits, labels), [logits]) < 1e-4


def test_cross_entropy_matches_three_exp_formula():
    # the formula before the logits were exponentiated once: value and
    # gradient must stay bit-identical
    rng = np.random.default_rng(14)
    logits = dc.Tensor(rng.normal(0.0, 3.0, size=(9, 41)))
    labels = rng.integers(0, 41, size=9)
    w = rng.uniform(size=9)
    with dc.Tape() as tape:
        loss = dc.cross_entropy(logits, labels, w)
        tape.backward(loss)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    nll = np.log(np.exp(z).sum(axis=1)) - z[np.arange(9), labels]
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    probs[np.arange(9), labels] -= 1.0
    assert loss.data == (w * nll).sum()
    np.testing.assert_array_equal(logits.grad, probs * w[:, None])


def test_cross_entropy_label_range():
    with pytest.raises(ContractError):
        dc.cross_entropy(dc.Tensor(np.zeros((2, 3))), [0, 3])


# --- fused ops against the op chains they replace ---------------------------

def oracle_conv1d_causal(x, kernel, pos=None):
    """The masked-tap depthwise causal conv the fused op replaced."""
    t_len, w = x.data.shape[0], kernel.data.shape[0]
    xpad = np.concatenate([np.zeros((w - 1, x.data.shape[1])), x.data], axis=0)
    keep = [None] * w if pos is None else [(pos >= w - 1 - j)[:, None] for j in range(w)]
    taps = [xpad[j : j + t_len] if m is None else xpad[j : j + t_len] * m
            for j, m in enumerate(keep)]
    y = np.zeros_like(x.data)
    for j in range(w):
        y += kernel.data[j] * taps[j]
    out = dc.Tensor(y)

    def bwd(g):
        dk = np.empty_like(kernel.data)
        dxpad = np.zeros_like(xpad)
        for j in range(w):
            dk[j] = (g * taps[j]).sum(axis=0)
            gk = g * kernel.data[j]
            dxpad[j : j + t_len] += gk if keep[j] is None else gk * keep[j]
        dc._acc(kernel, dk)
        dc._acc(x, dxpad[w - 1 :])

    dc._record(bwd, out)
    return out


def _values_and_grads(f, tensors, seed):
    """f(*tensors), then the gradients of a random weighting of it."""
    for t in tensors:
        t.zero_grad()
    with dc.Tape() as tape:
        out = f(*tensors)
        w = np.random.default_rng(seed).normal(size=out.data.shape)
        tape.backward(dc.total_sum(dc.mul(out, dc.Tensor(w))))
    return [out.data] + [t.grad for t in tensors]


def _assert_same(fused, chain):
    assert len(fused) == len(chain)
    for got, ref in zip(fused, chain):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


CONV_CASES = {
    # (T, C, w, segment lengths); None is one unpacked stream
    "single": (10, 3, 4, None),
    "single_shorter_than_kernel": (2, 3, 4, None),
    "packed": (12, 3, 4, [3, 5, 4]),
    "packed_short_segments": (12, 3, 4, [1, 2, 5, 4]),
    "packed_width_3": (9, 2, 3, [1, 1, 1, 6]),
    "packed_width_1": (6, 2, 1, [2, 4]),
    "packed_segment_of_width_minus_1": (9, 3, 4, [3, 6]),
    "packed_shorter_than_kernel": (3, 2, 4, [1, 2]),
    "packed_width_2": (7, 2, 2, [1, 3, 3]),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv1d_causal_silu_matches_op_chain(case):
    t_len, n_ch, w, lengths = CONV_CASES[case]
    rng = np.random.default_rng(15)
    tensors = [dc.Tensor(rng.normal(size=shape)) for shape in ((t_len, n_ch), (w, n_ch), n_ch)]
    pos = None if lengths is None else np.concatenate([np.arange(n) for n in lengths])
    fused = _values_and_grads(lambda x, k, b: dc.conv1d_causal_silu(x, k, b, pos), tensors, 1)
    chain = _values_and_grads(lambda x, k, b: dc.silu(dc.linear(
        oracle_conv1d_causal(x, k, pos), dc.Tensor(np.eye(n_ch)), b)), tensors, 1)
    _assert_same(fused, chain)
    # the forward values are the same sums in the same order
    np.testing.assert_array_equal(fused[0], chain[0])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
       w=st.integers(1, 5), n_ch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_conv1d_causal_silu_packed_equals_per_segment_calls(lengths, w, n_ch, seed):
    rng = np.random.default_rng(seed)
    x, k, b = (rng.normal(size=shape) for shape in ((sum(lengths), n_ch), (w, n_ch), n_ch))
    pos = np.concatenate([np.arange(n) for n in lengths])
    ends = np.cumsum(lengths)
    packed = dc.conv1d_causal_silu(dc.Tensor(x), dc.Tensor(k), dc.Tensor(b), pos).data
    alone = [dc.conv1d_causal_silu(dc.Tensor(x[e - n : e]), dc.Tensor(k), dc.Tensor(b)).data
             for n, e in zip(lengths, ends)]
    np.testing.assert_array_equal(packed, np.concatenate(alone))
    tensors = [dc.Tensor(a) for a in (x, k, b)]
    fused = _values_and_grads(lambda x, k, b: dc.conv1d_causal_silu(x, k, b, pos), tensors, seed)
    chain = _values_and_grads(lambda x, k, b: dc.silu(dc.linear(
        oracle_conv1d_causal(x, k, pos), dc.Tensor(np.eye(n_ch)), b)), tensors, seed)
    _assert_same(fused[1:], chain[1:])


@pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (4, 2)), ((3, 4), (4,)),
                                             ((4,), (4, 2)), ((4,), (4,))])
def test_matmul_every_rank_pair(shape_a, shape_b):
    rng = np.random.default_rng(17)
    a, b = dc.Tensor(rng.normal(size=shape_a)), dc.Tensor(rng.normal(size=shape_b))
    ad, bd = a.data, b.data
    out, da, db = _values_and_grads(dc.matmul, [a, b], 3)
    g = np.random.default_rng(3).normal(size=out.shape)  # the weighting's gradient
    # the per-rank-pair formulas of the matmul backward
    if ad.ndim == 2 and bd.ndim == 2:
        want = (g @ bd.T, ad.T @ g)
    elif ad.ndim == 2:
        want = (np.outer(g, bd), ad.T @ g)
    elif bd.ndim == 2:
        want = (g @ bd.T, np.outer(ad, g))
    else:
        want = (g * bd, g * ad)
    np.testing.assert_array_equal(out, ad @ bd)
    np.testing.assert_array_equal(da, want[0])
    np.testing.assert_array_equal(db, want[1])
    w = dc.Tensor(rng.normal(size=out.shape))
    assert dc.grad_check(lambda: dc.total_sum(dc.mul(dc.matmul(a, b), w)), [a, b]) < 1e-4


def test_mse_takes_a_constant_target():
    rng = np.random.default_rng(18)
    p, t, rw = rng.normal(size=5), rng.normal(size=5), rng.uniform(size=5)
    for target in (t, t.tolist()):
        pred = dc.Tensor(p)
        with dc.Tape() as tape:
            tape.backward(dc.mse(pred, target, rw))
        np.testing.assert_array_equal(pred.grad, 2.0 * rw * (p - t))
    with pytest.raises(ShapeError):
        dc.mse(dc.Tensor(p), t.tolist()[:4])


def test_linear_matches_op_chain():
    rng = np.random.default_rng(16)
    tensors = [dc.Tensor(rng.normal(size=shape)) for shape in ((7, 4), (4, 3), 3)]
    fused = _values_and_grads(dc.linear, tensors, 2)
    # the bias row is broadcast over the 7 rows by a product with a ones column
    chain = _values_and_grads(lambda x, w, b: dc.add(dc.matmul(x, w), dc.matmul(
        dc.Tensor(np.ones((7, 1))), dc.index(b, (None, slice(None))))), tensors, 2)
    _assert_same(fused, chain)
    with pytest.raises(ShapeError):
        dc.linear(tensors[0], tensors[1], dc.Tensor(np.zeros(4)))


# --- ops for batches packed along time --------------------------------------

def test_packed_ops_gradcheck():
    rng = np.random.default_rng(12)
    h = dc.Tensor(rng.normal(size=(6, 3)))
    w = rng.normal(size=(3, 3))
    # rows 0 and 5 are read twice, row 3 never
    index = np.array([5, 0, 2, 0, 1, 4, 5])
    wg = rng.normal(size=(7, 3))
    assert dc.grad_check(lambda: dc.mean(dc.mul(dc.index(h, index), dc.Tensor(wg))),
                         [h]) < 1e-4
    pos = np.array([0, 0, 1, 2, 0, 1])
    kern = dc.Tensor(rng.normal(size=(3, 3)))
    no_bias = dc.Tensor(np.zeros(3))
    assert dc.grad_check(lambda: dc.mean(dc.mul(dc.conv1d_causal_silu(h, kern, no_bias, pos),
                                                dc.Tensor(w[[0, 1, 2, 0, 1, 2]]))),
                         [h, kern]) < 1e-4
    row_w = rng.uniform(size=6)
    tgt = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    assert dc.grad_check(lambda: dc.add(dc.mse(h, tgt, row_w),
                                        dc.cross_entropy(h, labels, row_w)), [h]) < 1e-4


def test_segment_ops_match_per_segment_ops():
    rng = np.random.default_rng(13)
    starts, stops = [0, 1, 4], [1, 4, 6]  # segments of 1, 3 and 2 rows
    h = rng.normal(size=(6, 3))
    pos = np.array([0, 0, 1, 2, 0, 1])
    kern = rng.normal(size=(3, 3))
    no_bias = dc.Tensor(np.zeros(3))
    conv = dc.conv1d_causal_silu(dc.Tensor(h), dc.Tensor(kern), no_bias, pos).data
    for s, e in zip(starts, stops):
        np.testing.assert_array_equal(
            conv[s:e], dc.conv1d_causal_silu(dc.Tensor(h[s:e]), dc.Tensor(kern), no_bias).data)
    # weights 1/n give the plain means
    tgt = rng.normal(size=(6, 3))
    assert abs(float(dc.mse(dc.Tensor(h), tgt, np.full(6, 1 / 6)).data)
               - ((h - tgt) ** 2).mean()) < 1e-15
    with pytest.raises(ShapeError):
        dc.mse(dc.Tensor(h), tgt, np.ones(5))


# --- gradient routing: the tape and _acc ------------------------------------

def test_tape_skips_closure_of_output_without_gradient():
    def never(g):
        raise AssertionError("backward ran for an output that got no gradient")

    x = dc.Tensor([1.0, 2.0])
    with dc.Tape() as tape:
        unused = dc.Tensor(2.0 * x.data)
        dc._record(never, unused)
        dc.tanh(x)  # a primitive whose output is never used
        tape.backward(dc.total_sum(x))
    assert len(tape) == 0
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


PARTIAL_OPS = {
    # name: (the part of the input dc.index reads, whether it repeats an element)
    "rows": (np.s_[2:5], False),
    "cols": (np.s_[:, 1:4], False),
    "reversed": (np.s_[::-1], False),
    "gather": ([4, 0, 6, 2], False),
    "gather_repeats": ([4, 0, 4, 2, 0, 0], True),
}


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_matches_numpy(axis):
    rng = np.random.default_rng(15)
    shapes = [(3, 4), (1, 4), (2, 4)] if axis == 0 else [(4, 3), (4, 1), (4, 2)]
    parts = [dc.Tensor(rng.normal(size=s)) for s in shapes]
    with dc.Tape() as tape:
        out = dc.concat(parts, axis=axis)
        g = rng.normal(size=out.shape)
        tape.backward(dc.total_sum(dc.mul(out, dc.Tensor(g))))
    np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts], axis=axis))
    stops = np.cumsum([s[axis] for s in shapes])
    for p, g_part in zip(parts, np.split(g, stops[:-1], axis=axis)):
        np.testing.assert_array_equal(p.grad, g_part)


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("name", sorted(PARTIAL_OPS))
def test_partial_gradient_matches_zero_fill(name, existing):
    at, repeats = PARTIAL_OPS[name]
    rng = np.random.default_rng(14)
    a = dc.Tensor(rng.normal(size=(7, 5)))
    prior = rng.normal(size=(7, 5))
    if existing:
        a.grad = prior.copy()
    with dc.Tape() as tape:
        out = dc.index(a, at)
        g = rng.normal(size=out.shape)
        tape.backward(dc.total_sum(dc.mul(out, dc.Tensor(g))))
    # the formula it replaces: a zero array of the input's size, written and added
    full = np.zeros_like(a.data)
    if repeats:
        np.add.at(full, at, g)
    else:
        full[at] = g
    ref = prior + full if existing else full
    if repeats and existing:  # one sum per row instead of two: the order differs
        assert np.all(np.abs(a.grad - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    else:
        np.testing.assert_array_equal(a.grad, ref)
