"""Selective-scan kernels: the hot inner loops of the encoder.

The linear recurrence h_t = A_t * h_{t-1} + B_t * x_t is serial over time,
and so is its adjoint g_t = A_{t+1} * g_{t+1} + dy_t (x) C_t.  Each pass runs
exactly one Python loop for its recurrence, one (C, S) row update per step
through a preallocated temp; every other term (the readout y, dx, dA, dB,
dC, dD) is one vectorized numpy expression over the whole (T, C, S) stream.

The encoder calls the delta form, ``selective_scan(x, A_bar, B, C, D,
delta=delta)`` with the (T, S) projection B, as Mamba's ``selective_scan_fn``
(Gu & Dao 2023, section 3.3.2) takes delta and B: the states start from
(delta * x) (x) B, so the (T, C, S) B_bar = delta (x) B is never built.  The
B_bar form, with a (T, C, S) b and no delta, stays for perfbench's kernel
replay and the value-level functions below.

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


def _scan_fwd(x, a_bar, b, c, d, delta=None):
    """Returns y (T, C) and the states in a (T + 1, C, S) buffer whose row 0
    is the zero initial state and row t + 1 is h_t.

    Without ``delta``, b is B_bar (T, C, S) and the states start from
    B_bar * x; with it, b is the (T, S) projection B and they start from
    (delta * x) (x) B, so B_bar is never built.
    """
    t_len, n_ch = x.shape
    h_pad = np.empty((t_len + 1, n_ch, c.shape[1]))
    h_pad[0] = 0.0
    h = h_pad[1:]
    if delta is None:
        np.einsum("tcs,tc->tcs", b, x, out=h)  # B_bar * x, faster than broadcasting
    else:
        np.einsum("tc,ts->tcs", delta * x, b, out=h)  # also faster than broadcasting
    tmp = np.empty(h.shape[1:])
    for a_t, h_prev, h_t in zip(a_bar[1:], h[:-1], h[1:]):
        np.multiply(a_t, h_prev, out=tmp)
        h_t += tmp
    y = np.matmul(h, c[:, :, None])[:, :, 0] + d * x
    return y, h_pad


def _scan_bwd(x, a_bar, b, c, d, h_pad, dy, delta=None):
    """Gradients (dx, dA_bar, db, dC, dD, d_delta) of sum(y * dy); d_delta is
    None without ``delta``, and db is then dB_bar (T, C, S).

    Consumes ``h_pad`` from ``_scan_fwd``: dA_bar is written over it.  The
    adjoint buffer is the one (T, C, S) array this allocates; without
    ``delta`` dB_bar is written over it.
    """
    h = h_pad[1:]
    g = np.einsum("tc,ts->tcs", dy, c)  # dy (x) C
    tmp = np.empty(g.shape[1:])
    # g_t += A_{t+1} * g_{t+1}, for t = T-2 down to 0
    for a_next, g_next, g_t in zip(a_bar[:0:-1], g[:0:-1], g[-2::-1]):
        np.multiply(a_next, g_next, out=tmp)
        g_t += tmp
    dc_ = np.matmul(dy[:, None, :], h)[:, 0]
    dd = np.einsum("tc,tc->c", dy, x)
    da = h_pad[:-1]  # row t holds h_{t-1}, so this is elementwise in place
    np.multiply(g, da, out=da)
    if delta is None:
        dx = np.einsum("tcs,tcs->tc", g, b) + dy * d
        np.multiply(g, x[:, :, None], out=g)
        return dx, da, g, dc_, dd, None
    # batched matrix products over t: (C,S)@(S,1) and (1,C)@(C,S)
    dxb = np.matmul(g, b[:, :, None])[:, :, 0]  # gradient of delta * x
    db = np.matmul((delta * x)[:, None, :], g)[:, 0, :]
    return dxb * delta + dy * d, da, db, dc_, dd, dxb * x


# ---------------------------------------------------------------------------
# value-level entry points (plain ndarrays)


def _check_streams(x, a_bar, b, c, d, delta=None):
    t_len, n_ch = x.shape
    n_st = c.shape[1] if c.ndim == 2 else -1
    ok = (
        a_bar.shape == (t_len, n_ch, n_st)
        and b.shape == ((t_len, n_ch, n_st) if delta is None else (t_len, n_st))
        and c.shape == (t_len, n_st)
        and d.shape == (n_ch,)
        and (delta is None or delta.shape == (t_len, n_ch))
    )
    if not ok:
        streams = (f"A_bar {a_bar.shape}, B_bar {b.shape}" if delta is None
                   else f"delta {delta.shape}, A_bar {a_bar.shape}, B {b.shape}")
        raise ContractError(
            f"selective_scan: stream shapes disagree: x {x.shape}, {streams}, "
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


def selective_scan(x, a_bar, b, c, d, delta=None):
    """Differentiable selective scan over Tensors (sequential kernels).

    Without ``delta``, b is B_bar (T, C, S).  With ``delta`` (T, C), b is the
    (T, S) input projection B and the op computes the same y as with
    B_bar = delta (x) B, the form training runs: B_bar is never built, and
    the backward hands gradients to x, delta and B directly.

    The backward closure hands the kernel's state buffer and adjoint buffer
    to ``_acc`` as gradients; this is safe because a tape runs each closure
    once and then drops it.
    """
    ins = [dc.as_tensor(v) for v in (x, a_bar, b, c, d)]
    if delta is not None:
        ins.append(dc.as_tensor(delta))
    arrays = [t.data for t in ins]
    _check_streams(*arrays)
    y, h_pad = _scan_fwd(*arrays)
    out = dc.Tensor(y)

    def bwd(dy):
        grads = _scan_bwd(*arrays[:5], h_pad, dy, *arrays[5:])
        for t, g in zip(ins, grads):
            dc._acc(t, g, owned=True)

    dc._record(bwd, out)
    return out
