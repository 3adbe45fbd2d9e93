"""Selective-scan kernels: the hot inner loops of the encoder.

The linear recurrence h_t = A_t * h_{t-1} + B_t * x_t is serial over time,
and so is its adjoint g_t = A_{t+1} * g_{t+1} + dy_t (x) C_t.  One Python
loop, ``_recur``, runs both (the adjoint on time-reversed views), one (C, S)
row update per step through a preallocated temp; every other term (the
readout y, dx, dA, dB, dC) is one numpy expression per chunk of time rows.

The kernel is cache-blocked.  The forward runs the stream in chunks of
CHUNK_BYTES of (C, S) state rows and reads each chunk's states out into y
while they sit in L2.  A stream whose T + 1 states fit KEEP_BYTES keeps all
of them for the backward.  A longer one writes every chunk into one reused
buffer and keeps only the state entering each chunk.  The backward walks the
chunks in reverse in one loop; each takes its states, kept or recomputed from
its entry state, runs its adjoint and carries A_bar_s * g_s into the chunk
before.  This is how Mamba's scan keeps its (B, L, D, N) states out of slow
memory (Gu & Dao 2023, section 3.3.2), the checkpoint-and-recompute trade of
Chen et al. 2016.  Every operation runs in the same order as over the whole
stream, so y and the gradients do not depend on the chunk length or on what
is kept.

The encoder calls the delta form, ``selective_scan(x, A_bar, B, C, D,
delta=delta)`` with the (T, S) projection B, as Mamba's ``selective_scan_fn``
(Gu & Dao 2023, section 3.3.2) takes delta and B: the states start from
(delta * x) (x) B, so the (T, C, S) B_bar = delta (x) B is never built.  The
B_bar form, with a (T, C, S) b and no delta, stays for perfbench's kernel
replay and the gradient suite.  ``selective_scan`` is the one entry point;
outside a tape it records nothing.
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

# The two budgets of the cache-blocked kernel, in bytes of float64 state.  A
# chunk of CHUNK_BYTES worth of (C, S) state rows stays in a core's L2 while
# the recurrence writes it and the readout reads it.  A stream whose T + 1
# states fit KEEP_BYTES keeps them all for the backward; a longer one keeps
# the state entering each chunk and recomputes the chunk there.  Chosen with
# benchmarks/bench_scan.py and perfbench's train_long.
CHUNK_BYTES = 512 * 1024
KEEP_BYTES = 2560 * 1024


def _states(pad, a_bar, b, xs, s, e, tmp):
    """Writes the states h_s .. h_{e-1} into pad[1:], continuing from the
    state h_{s-1} in pad[0]; the first row, s = 0, reads the zero entry state.

    ``xs`` is x when b is B_bar (T, C, S) and delta * x when b is the (T, S)
    projection B, whose states start from (delta * x) (x) B.
    """
    h = pad[1:]
    if b.ndim == 3:
        np.einsum("tcs,tc->tcs", b[s:e], xs[s:e], out=h)  # faster than broadcasting
    else:
        np.einsum("tc,ts->tcs", xs[s:e], b[s:e], out=h)  # also faster than broadcasting
    _recur(a_bar[s:e], pad, tmp)


def _recur(a, h, tmp):
    """Runs h[i] += a[i-1] * h[i-1] for i = 1 .. len(h) - 1 in order, through
    ``tmp``: the states' recurrence, and the adjoint's on reversed views."""
    for a_prev, h_prev, h_i in zip(a, h[:-1], h[1:]):
        np.multiply(a_prev, h_prev, out=tmp)
        h_i += tmp


def _scan_fwd(x, a_bar, b, c, d, delta=None):
    """Returns y (T, C) and what ``_scan_bwd`` needs of the states:
    ``(chunk, states)``.

    The stream runs in chunks of as many (C, S) rows as fit CHUNK_BYTES (at
    least one), each read out into y while it is hot.  When the T + 1
    states fit KEEP_BYTES, ``states`` is all of them, from the zero state
    on.  Otherwise the chunks are written into one reused buffer and
    ``states`` holds the state entering each chunk.

    Without ``delta``, b is B_bar (T, C, S) and the states start from
    B_bar * x; with it, b is the (T, S) projection B and they start from
    (delta * x) (x) B, so B_bar is never built.
    """
    t_len, n_ch = x.shape
    row = (n_ch, c.shape[1])
    row_bytes = 8 * n_ch * row[1]
    chunk = CHUNK_BYTES // row_bytes or 1
    keep = (t_len + 1) * row_bytes <= KEEP_BYTES
    states = np.empty((t_len + 1 if keep else -(-t_len // chunk), *row))
    states[0] = 0.0  # the state entering the first chunk
    work = None if keep else np.empty((min(chunk, t_len) + 1, *row))
    tmp = np.empty(row)
    xs = x if delta is None else delta * x
    y = np.empty(x.shape)
    for s in range(0, t_len, chunk):
        e = min(s + chunk, t_len)
        if keep:
            pad = states[s:e + 1]
        else:
            pad = work[:e - s + 1]
            pad[0] = states[s // chunk]
        _states(pad, a_bar, b, xs, s, e, tmp)
        np.matmul(pad[1:], c[s:e, :, None], out=y[s:e, :, None])
        if not keep and e < t_len:
            states[e // chunk] = pad[-1]
    y += d * x
    return y, (chunk, states)


def _scan_bwd(x, a_bar, b, c, d, saved, dy, delta=None):
    """Gradients (dx, dA_bar, db, dC, dD, d_delta) of sum(y * dy); d_delta is
    None without ``delta``, and db is then dB_bar (T, C, S).

    Walks the chunks of ``saved`` (from ``_scan_fwd``) in reverse; each
    takes its kept states or recomputes them, runs its adjoint g in one
    reused buffer and carries A_bar_s * g_s into the chunk before.  When the
    forward kept every state, dA_bar is written over them; otherwise it is a
    fresh (T, C, S) array, as dB_bar always is without ``delta``.
    """
    t_len, n_ch = x.shape
    row = (n_ch, c.shape[1])
    chunk, states = saved
    keep = len(states) == t_len + 1
    xs = x if delta is None else delta * x
    dc_ = np.empty(c.shape)
    if keep:  # dC first: dA_bar overwrites the states in place
        np.matmul(dy[:, None, :], states[1:], out=dc_[:, None, :])
        da = states[:-1]
    else:
        da = np.empty(a_bar.shape)
    db = np.empty(b.shape)
    g_b = np.empty(x.shape)  # sum_s g * B_bar, or sum_s g * B with delta
    g_buf = np.empty((min(chunk, t_len), *row))
    work = None if keep else np.empty((min(chunk, t_len) + 1, *row))
    tmp, carry = np.empty(row), np.empty(row)
    for s in reversed(range(0, t_len, chunk)):
        e = min(s + chunk, t_len)
        if keep:
            pad = states[s:e + 1]
        else:  # recompute the chunk's states from the state entering it
            pad = work[:e - s + 1]
            pad[0] = states[s // chunk]
            _states(pad, a_bar, b, xs, s, e, tmp)
        g = g_buf[:e - s]
        np.einsum("tc,ts->tcs", dy[s:e], c[s:e], out=g)  # dy (x) C
        if e < t_len:
            g[-1] += carry
        _recur(a_bar[e - 1:s:-1], g[::-1], tmp)  # g_t += A_{t+1} * g_{t+1}, t = e-2 .. s
        if s:
            np.multiply(a_bar[s], g[0], out=carry)
        if not keep:
            np.matmul(dy[s:e, None, :], pad[1:], out=dc_[s:e, None, :])
        np.multiply(g, pad[:-1], out=da[s:e])  # pad row t - s holds h_{t-1}
        if delta is None:
            np.einsum("tcs,tcs->tc", g, b[s:e], out=g_b[s:e])
            np.multiply(g, x[s:e, :, None], out=db[s:e])
        else:
            # batched matrix products over t: (C,S)@(S,1) and (1,C)@(C,S)
            np.matmul(g, b[s:e, :, None], out=g_b[s:e, :, None])  # gradient of delta * x
            np.matmul(xs[s:e, None, :], g, out=db[s:e, None, :])
    dd = np.einsum("tc,tc->c", dy, x)
    if delta is None:
        return g_b + dy * d, da, db, dc_, dd, None
    return g_b * delta + dy * d, da, db, dc_, dd, g_b * x


# ---------------------------------------------------------------------------
# differentiable op


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


def selective_scan(x, a_bar, b, c, d, delta=None):
    """Differentiable selective scan over Tensors (sequential kernels).

    Without ``delta``, b is B_bar (T, C, S).  With ``delta`` (T, C), b is the
    (T, S) input projection B and the op computes the same y as with
    B_bar = delta (x) B, the form training runs: B_bar is never built, and
    the backward hands gradients to x, delta and B directly.

    Between forward and backward the op holds y and either all T + 1
    states, when they fit KEEP_BYTES, or the state entering each chunk.  The
    backward closure hands the kept state buffer (as dA_bar, when it holds
    every state) to ``_acc`` as a gradient; this is safe because a tape runs
    each closure once and then drops it.
    """
    ins = [x, a_bar, b, c, d] + ([] if delta is None else [delta])
    arrays = [t.data for t in ins]
    _check_streams(*arrays)
    y, saved = _scan_fwd(*arrays)
    out = dc.Tensor(y)

    def bwd(dy):
        grads = _scan_bwd(*arrays[:5], saved, dy, *arrays[5:])
        for t, g in zip(ins, grads):
            dc._acc(t, g, owned=True)

    dc._record(bwd, out)
    return out
