"""Selective-scan kernels: the hot inner loops of the encoder.

The linear recurrence h_t = A_t * h_{t-1} + B_t * x_t is inherently
sequential over time, so the forward and backward passes are compiled with
numba when available.  Set ``CAPT_SCAN_BACKEND=numpy`` to force the pure
numpy fallback (used by the benchmark and as a safety hatch).

A parallel formulation via the associative composition
(a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2) is provided as
``scan_parallel_values``, the reference the sequential kernel must agree
with to 1e-9; training and inference use the sequential kernel only.
"""

from __future__ import annotations

import os

import numpy as np

from . import diffcore as dc
from .errors import ContractError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*a, **k):
        def wrap(f):
            return f

        return wrap


def backend() -> str:
    if not HAVE_NUMBA:
        return "numpy"
    return "numpy" if os.environ.get("CAPT_SCAN_BACKEND", "") == "numpy" else "numba"


# ---------------------------------------------------------------------------
# pure numpy reference kernels


def _scan_fwd_numpy(x, a_bar, b_bar, c, d):
    t_len, n_ch = x.shape
    n_st = c.shape[1]
    h = np.empty((t_len, n_ch, n_st))
    cur = np.zeros((n_ch, n_st))
    for t in range(t_len):
        cur = a_bar[t] * cur + b_bar[t] * x[t][:, None]
        h[t] = cur
    y = np.einsum("tcs,ts->tc", h, c) + d * x
    return y, h


def _scan_bwd_numpy(x, a_bar, b_bar, c, d, h, dy):
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


# ---------------------------------------------------------------------------
# numba kernels (same math, explicit loops)


@njit(cache=True)
def _scan_fwd_numba(x, a_bar, b_bar, c, d):  # pragma: no cover - compiled
    t_len, n_ch = x.shape
    n_st = c.shape[1]
    h = np.zeros((t_len, n_ch, n_st))
    y = np.empty((t_len, n_ch))
    for t in range(t_len):
        for ch in range(n_ch):
            acc = 0.0
            for s in range(n_st):
                prev = h[t - 1, ch, s] if t > 0 else 0.0
                hv = a_bar[t, ch, s] * prev + b_bar[t, ch, s] * x[t, ch]
                h[t, ch, s] = hv
                acc += c[t, s] * hv
            y[t, ch] = acc + d[ch] * x[t, ch]
    return y, h


@njit(cache=True)
def _scan_bwd_numba(x, a_bar, b_bar, c, d, h, dy):  # pragma: no cover - compiled
    t_len, n_ch = x.shape
    n_st = c.shape[1]
    dx = np.zeros((t_len, n_ch))
    da = np.zeros((t_len, n_ch, n_st))
    db = np.zeros((t_len, n_ch, n_st))
    dc_ = np.zeros((t_len, n_st))
    dd = np.zeros(n_ch)
    dh = np.zeros((n_ch, n_st))
    for t in range(t_len - 1, -1, -1):
        for ch in range(n_ch):
            acc_x = 0.0
            for s in range(n_st):
                dhv = dh[ch, s] + dy[t, ch] * c[t, s]
                dc_[t, s] += dy[t, ch] * h[t, ch, s]
                h_prev = h[t - 1, ch, s] if t > 0 else 0.0
                da[t, ch, s] = dhv * h_prev
                db[t, ch, s] = dhv * x[t, ch]
                acc_x += dhv * b_bar[t, ch, s]
                dh[ch, s] = dhv * a_bar[t, ch, s]
            dx[t, ch] = acc_x + dy[t, ch] * d[ch]
            dd[ch] += dy[t, ch] * x[t, ch]
    return dx, da, db, dc_, dd


def _fwd_kernel():
    return _scan_fwd_numba if backend() == "numba" else _scan_fwd_numpy


def _bwd_kernel():
    return _scan_bwd_numba if backend() == "numba" else _scan_bwd_numpy


# ---------------------------------------------------------------------------
# value-level entry points (plain ndarrays)


def _check_streams(x, a_bar, b_bar, c, d):
    t_len, n_ch = x.shape
    n_st = c.shape[1] if c.ndim == 2 else -1
    ok = (
        a_bar.shape == (t_len, n_ch, n_st)
        and b_bar.shape == (t_len, n_ch, n_st)
        and c.shape == (t_len, n_st)
        and d.shape == (n_ch,)
    )
    if not ok:
        raise ContractError(
            "selective_scan: stream shapes disagree: "
            f"x {x.shape}, A_bar {a_bar.shape}, B_bar {b_bar.shape}, "
            f"C {c.shape}, D {d.shape}"
        )


def scan_sequential_values(x, a_bar, b_bar, c, d):
    """Sequential recurrence, values only.  Returns y (T, C)."""
    x, a_bar, b_bar, c, d = (np.asarray(v, dtype=np.float64) for v in (x, a_bar, b_bar, c, d))
    _check_streams(x, a_bar, b_bar, c, d)
    y, _ = _fwd_kernel()(x, a_bar, b_bar, c, d)
    return y


def scan_parallel_values(x, a_bar, b_bar, c, d):
    """Associative prefix-scan formulation (Hillis-Steele doubling)."""
    x, a_bar, b_bar, c, d = (np.asarray(v, dtype=np.float64) for v in (x, a_bar, b_bar, c, d))
    _check_streams(x, a_bar, b_bar, c, d)
    t_len = x.shape[0]
    a = a_bar.copy()
    b = b_bar * x[:, :, None]
    offset = 1
    while offset < t_len:
        # RHS reads pre-update values in full before assignment
        b[offset:] = b[offset:] + a[offset:] * b[:-offset]
        a[offset:] = a[offset:] * a[:-offset]
        offset *= 2
    h = b
    return np.einsum("tcs,ts->tc", h, c) + d * x


# ---------------------------------------------------------------------------
# differentiable op


def selective_scan(x, a_bar, b_bar, c, d):
    """Differentiable selective scan over Tensors (sequential kernels)."""
    x, a_bar, b_bar, c, d = (dc.as_tensor(v) for v in (x, a_bar, b_bar, c, d))
    _check_streams(x.data, a_bar.data, b_bar.data, c.data, d.data)
    y, h = _fwd_kernel()(x.data, a_bar.data, b_bar.data, c.data, d.data)
    out = dc.Tensor(y)

    def bwd():
        if out.grad is None:
            return
        dx, da, db, dcs, dd = _bwd_kernel()(
            x.data, a_bar.data, b_bar.data, c.data, d.data, h, out.grad
        )
        for t, g in ((x, dx), (a_bar, da), (b_bar, db), (c, dcs), (d, dd)):
            dc._acc(t, g, owned=True)

    dc._record(bwd)
    return out
