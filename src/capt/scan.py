"""Selective-scan kernels: the hot inner loops of the encoder.

The linear recurrence h_t = A_t * h_{t-1} + B_t * x_t is serial over time,
and so is its adjoint g_t = A_{t+1} * g_{t+1} + dy_t (x) C_t.  Each pass runs
exactly one Python loop for its recurrence, one (C, S) row update per step
through a preallocated temp; every other term (the readout y, dx, dA, dB,
dC, dD) is one vectorized numpy expression over the whole (T, C, S) stream.

A parallel formulation via the associative composition
(a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2) is provided as
``scan_parallel_values``, the reference the sequential kernel must agree
with to 1e-9; training and inference use the sequential kernel only.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .errors import ContractError


def backend() -> str:
    """Name of the scan kernel in use (recorded by benchmarks)."""
    return "numpy"


# ---------------------------------------------------------------------------
# kernels


def _scan_fwd(x, a_bar, b_bar, c, d):
    """Returns y (T, C) and the states in a (T + 1, C, S) buffer whose row 0
    is the zero initial state and row t + 1 is h_t."""
    t_len, n_ch = x.shape
    h_pad = np.empty((t_len + 1, n_ch, c.shape[1]))
    h_pad[0] = 0.0
    h = h_pad[1:]
    np.einsum("tcs,tc->tcs", b_bar, x, out=h)  # B_bar * x, faster than broadcasting
    tmp = np.empty(h.shape[1:])
    for a_t, h_prev, h_t in zip(a_bar[1:], h[:-1], h[1:]):
        np.multiply(a_t, h_prev, out=tmp)
        h_t += tmp
    y = np.matmul(h, c[:, :, None])[:, :, 0] + d * x
    return y, h_pad


def _scan_bwd(x, a_bar, b_bar, c, d, h_pad, dy):
    """Gradients (dx, dA_bar, dB_bar, dC, dD) of sum(y * dy).

    Consumes ``h_pad`` from ``_scan_fwd``: dA_bar is written over it, and
    dB_bar over the adjoint buffer, the one (T, C, S) array this allocates.
    """
    h = h_pad[1:]
    g = np.einsum("tc,ts->tcs", dy, c)  # dy (x) C
    tmp = np.empty(g.shape[1:])
    # g_t += A_{t+1} * g_{t+1}, for t = T-2 down to 0
    for a_next, g_next, g_t in zip(a_bar[:0:-1], g[:0:-1], g[-2::-1]):
        np.multiply(a_next, g_next, out=tmp)
        g_t += tmp
    dc_ = np.matmul(dy[:, None, :], h)[:, 0]
    dx = np.einsum("tcs,tcs->tc", g, b_bar) + dy * d
    dd = np.einsum("tc,tc->c", dy, x)
    da = h_pad[:-1]  # row t holds h_{t-1}, so this is elementwise in place
    np.multiply(g, da, out=da)
    np.multiply(g, x[:, :, None], out=g)
    return dx, da, g, dc_, dd


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
    y, _ = _scan_fwd(x, a_bar, b_bar, c, d)
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
    """Differentiable selective scan over Tensors (sequential kernels).

    The backward closure hands the kernel's state buffer and adjoint buffer
    to ``_acc`` as gradients; this is safe because a tape runs each closure
    once and then drops it.
    """
    x, a_bar, b_bar, c, d = (dc.as_tensor(v) for v in (x, a_bar, b_bar, c, d))
    _check_streams(x.data, a_bar.data, b_bar.data, c.data, d.data)
    y, h_pad = _scan_fwd(x.data, a_bar.data, b_bar.data, c.data, d.data)
    out = dc.Tensor(y)

    def bwd(dy):
        dx, da, db, dcs, dd = _scan_bwd(
            x.data, a_bar.data, b_bar.data, c.data, d.data, h_pad, dy
        )
        for t, g in ((x, dx), (a_bar, da), (b_bar, db), (c, dcs), (d, dd)):
            dc._acc(t, g, owned=True)

    dc._record(bwd, out)
    return out
