"""Reverse-mode differentiable primitives over float64 numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient buffer.  Every
differentiable operand of an op is a ``Tensor``, and ``Tensor(data)`` is the
one place an array becomes one.  Constant operands (loss targets, row weights,
labels, indices, segment positions) stay plain arrays and get no gradient.  An
operation executed while a ``Tape`` is active records a backward closure with
its one output, ``_record(bwd, out)``.  ``Tape.backward(loss)`` replays the
records in exact reverse recording order, calls ``bwd(out.grad)`` only when
that gradient is not None, and drops each record once it has run, so a tape
is replayed once.  A closure adds into its inputs' gradients with ``_acc``.
Everything runs in float64 so the finite-difference checker is meaningful at
1e-4 relative tolerance.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_TAPES: list["Tape"] = []


def _retain_freed_memory():
    """Keep freed heap memory in the process instead of returning it to the OS.

    ``Tape.backward`` frees a step's activations, glibc trims that memory back
    to the kernel, and the next step faults it all in again: ~1,950 minor
    faults per criterion-5 training step and 4,900-5,800 per step of 16-
    utterance records, at ~2 us per 4 KB page.  A 1 GiB trim threshold and
    the largest mmap threshold (32 MiB) keep the pages, so a steady-state step
    faults in almost none.  Both must be set: setting either one alone freezes
    glibc's dynamic mmap threshold at 128 KiB, and every (T, C, S) array would
    then be mapped and unmapped on each use.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_retain_freed_memory()


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Records operations; backward() visits them in reverse order."""

    def __init__(self):
        self._ops = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor):
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if not self._ops:
            raise ContractError("backward on an empty tape")
        loss.grad = np.ones_like(loss.data)
        # drop each closure once it has run, so the activations and gradients
        # it holds are freed as the pass goes rather than with the tape
        while self._ops:
            bwd, out = self._ops.pop()
            if out.grad is not None:
                bwd(out.grad)


def _record(fn, out):
    if _TAPES:
        _TAPES[-1]._ops.append((fn, out))


def _acc(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g to t.grad.  ``owned``: g is a fresh array no one else holds, so
    it can become t.grad itself instead of a copy (saves time and memory on
    the large (T, C, S) tensors)."""
    if t.grad is None:
        g = g.reshape(t.data.shape)
        t.grad = g if owned else g.copy()
    else:
        t.grad += g.reshape(t.data.shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a scalar ()."""
    if b.data.shape not in (a.data.shape, ()):
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        _acc(a, g)
        _acc(b, g if b.data.shape == a.data.shape else np.asarray(g.sum()))

    _record(bwd, out)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes differ {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    _record(bwd, out)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def bwd(g):
        _acc(a, g * c)

    _record(bwd, out)
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))

    def bwd(g):
        _acc(a, g * out.data, owned=True)

    _record(bwd, out)
    return out


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))

    def bwd(g):
        _acc(a, g * (1.0 - out.data**2))

    _record(bwd, out)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form avoids overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(s)

    def bwd(g):
        _acc(a, g * s * (1.0 - s))

    _record(bwd, out)
    return out


def silu(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)

    def bwd(g):
        _acc(a, g * (s + a.data * s * (1.0 - s)))

    _record(bwd, out)
    return out


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) as np.logaddexp(0, x) computes it, on SIMD ufuncs
    out = Tensor(np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data))))

    def bwd(g):
        _acc(a, g * _sigmoid(a.data))

    _record(bwd, out)
    return out


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis (max subtraction)."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        _acc(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    _record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {ad.shape} @ {bd.shape}")
    ka = ad.shape[-1]
    kb = bd.shape[0]
    if ka != kb:
        raise ShapeError(f"matmul: inner dims differ {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd)

    def bwd(g):
        # against a 1-D operand the gradient is an outer product with it
        _acc(a, g @ bd.T if bd.ndim == 2 else np.multiply.outer(g, bd))
        _acc(b, ad.T @ g if ad.ndim == 2 else np.multiply.outer(ad, g))

    _record(bwd, out)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one op: x (N, k), w (k, m), b (m,)."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear: incompatible {xd.shape} @ {wd.shape} + {b.data.shape}")
    y = xd @ wd
    y += b.data
    out = Tensor(y)

    def bwd(g):
        _acc(b, g.sum(axis=0), owned=True)
        _acc(x, g @ wd.T, owned=True)
        _acc(w, xd.T @ g, owned=True)

    _record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def index(a: Tensor, at) -> Tensor:
    """out = a.data[at] for a slice, a tuple of slices (views) or a 1-D int
    array of rows, which may repeat one.  The adjoint adds each output
    element's gradient back onto the element it was read from."""
    if isinstance(at, (slice, tuple)):
        repeats = False
    else:
        at = np.asarray(at, dtype=np.int64)
        # without repeats the scatter is one indexed add, far faster than add.at
        repeats = np.unique(at).size < at.size
    out = Tensor(a.data[at])

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if repeats:
            np.add.at(a.grad, at, g)
        else:
            a.grad[at] += g

    _record(bwd, out)
    return out


def concat(parts, axis: int = 0) -> Tensor:
    """The 2-D parts joined along ``axis``; each gets its slice of the gradient."""
    shapes = [p.data.shape for p in parts]
    if any(len(s) != 2 or s[1 - axis] != shapes[0][1 - axis] for s in shapes):
        raise ShapeError(f"concat: parts {shapes} differ off axis {axis}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def bwd(g):
        ofs = 0
        for p, s in zip(parts, shapes):
            _acc(p, g[(slice(None),) * axis + (slice(ofs, ofs + s[axis]),)])
            ofs += s[axis]

    _record(bwd, out)
    return out


def total_sum(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum()))

    def bwd(g):
        _acc(a, np.broadcast_to(g, a.data.shape).copy())

    _record(bwd, out)
    return out


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.asarray(a.data.mean()))

    def bwd(g):
        _acc(a, np.broadcast_to(g / n, a.data.shape).copy())

    _record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# segments: a 1-D axis cut into consecutive pieces, given by their starts
# (increasing, the first one 0), as in a minibatch packed along time


def _segment_of(starts, n: int) -> np.ndarray:
    """Segment index of each of the n positions."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


# ---------------------------------------------------------------------------
# depthwise causal convolution


def conv1d_causal_silu(x: Tensor, kernel: Tensor, bias: Tensor, pos=None) -> Tensor:
    """silu(conv(x) + bias) for a depthwise causal conv: x (T, C), kernel (w, C), bias (C,).

    Tap j of row t reads x[t - (w - 1 - j)], and zero before the first row.
    ``pos`` (T,) gives each row's position within its segment when x packs
    several sequences; a tap reaching back past its segment's first row then
    reads zero too, as ``seq_idx`` does in Mamba's ``causal_conv1d_fn``.  Each
    tap is one product over all of x whose cut rows, those read by a row with
    pos < shift (at most shift per segment), are zeroed before the add; the
    backward drops the same (row, tap) pairs from dx and dk.  A packed call
    thus adds the same terms in the same order as one call per segment, and
    equals it bit for bit.
    """
    xd, kd = x.data, kernel.data
    if (xd.ndim != 2 or kd.ndim != 2 or xd.shape[1] != kd.shape[1]
            or bias.data.shape != xd.shape[1:]):
        raise ShapeError(f"conv1d_causal_silu: incompatible {xd.shape}, kernel {kd.shape} "
                         f"and bias {bias.data.shape}")
    t_len, w = xd.shape[0], kd.shape[0]
    shifts = w - 1 - np.arange(w)  # tap j reads shifts[j] rows back
    y = np.zeros(xd.shape)
    tmp = np.empty(xd.shape)
    # per tap, the source rows s whose reader s + sh lies in a later segment
    cuts = None if pos is None else [np.flatnonzero(pos[sh:] < sh) for sh in shifts]
    for j, sh in enumerate(shifts):
        n = t_len - sh
        if n > 0:
            np.multiply(xd[:n], kd[j], out=tmp[:n])
            if pos is not None:
                tmp[cuts[j]] = 0.0
            y[sh:] += tmp[:n]
    y += bias.data
    s = _sigmoid(y)
    y *= s
    out = Tensor(y)

    def bwd(g):
        # d silu(z)/dz = s + z*s*(1 - s), and z*s is the output
        gz = 1.0 - s
        gz *= out.data
        gz += s
        gz *= g
        _acc(bias, gz.sum(axis=0), owned=True)
        dk = np.zeros(kd.shape)
        dx = np.zeros(xd.shape)
        buf = np.empty(xd.shape)
        for j, sh in enumerate(shifts):
            n = t_len - sh
            if n > 0:
                dk[j] = np.einsum("tc,tc->c", gz[sh:], xd[:n])
                np.multiply(gz[sh:], kd[j], out=buf[:n])
                if pos is not None:
                    cut = cuts[j]
                    dk[j] -= np.einsum("tc,tc->c", gz[cut + sh], xd[cut])
                    buf[cut] = 0.0
                dx[:n] += buf[:n]
        _acc(kernel, dk, owned=True)
        _acc(x, dx, owned=True)

    _record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# losses


def _row_weights(row_weights, n_rows: int, op: str) -> np.ndarray:
    """The given per-row loss weights, or 1/n_rows each (a plain mean)."""
    if row_weights is None:
        return np.full(n_rows, 1.0 / n_rows)
    w = np.asarray(row_weights, dtype=np.float64)
    if w.shape != (n_rows,):
        raise ShapeError(f"{op}: row weights {w.shape} for {n_rows} rows")
    return w


def mse(pred: Tensor, target, row_weights=None) -> Tensor:
    """Mean squared error of pred against the constant array ``target``.

    With ``row_weights`` (one per leading-axis row) it is the weighted sum
    over rows of each row's mean squared error; weights 1/n give the plain mean.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ShapeError(f"mse: shapes differ {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    n_rows = diff.shape[0] if diff.ndim else 1
    # per-element weights: each row's weight spread evenly over its elements
    w = _row_weights(row_weights, n_rows, "mse") * (n_rows / diff.size)
    w = w.reshape((-1,) + (1,) * (diff.ndim - 1)) if diff.ndim else w[0]
    out = Tensor(np.asarray((w * diff**2).sum()))

    def bwd(g):
        _acc(pred, g * 2.0 * w * diff, owned=True)

    _record(bwd, out)
    return out


def cross_entropy(logits: Tensor, labels, row_weights=None) -> Tensor:
    """Mean over rows of -log softmax(logits)[label]; weighted sum with ``row_weights``."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.data.shape} vs labels {labels.shape}"
        )
    n, c = logits.data.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(f"cross_entropy: label out of range for {c} classes")
    w = _row_weights(row_weights, n, "cross_entropy")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z)
    sums = probs.sum(axis=1, keepdims=True)
    nll = np.log(sums[:, 0]) - z[np.arange(n), labels]
    out = Tensor(np.asarray((w * nll).sum()))
    probs /= sums

    def bwd(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        _acc(logits, g * d * w[:, None])

    _record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checker


def grad_check(f, params, epsilon: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` rebuilds the scalar loss from the current values of ``params``
    (a sequence of Tensors) on every call and must be deterministic.  Only
    the analytic pass records a tape; the probes run with none, so they
    build no backward closures.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ContractError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if not np.isfinite(loss.data).all():
            raise NumericError("non-finite loss in grad_check")
        tape.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    max_rel = 0.0
    for idx, (p, ga) in enumerate(zip(params, analytic)):
        flat = p.data.ravel()
        gflat = ga.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            lp = float(f().data)
            flat[i] = orig - epsilon
            lm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite probe at parameter {idx}, element {i}")
            fd = (lp - lm) / (2.0 * epsilon)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel
