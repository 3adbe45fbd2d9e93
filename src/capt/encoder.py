"""Bidirectional selective state-space encoder with think tokens.

Each direction runs a gated block: input projection splits into a main and a
gate branch; the main branch goes through a causal depthwise convolution,
SiLU, input-dependent discretization and the selective scan; the gate branch
modulates the scan output through SiLU before the output projection and a
residual connection.  Per layer the two directions are concatenated and
projected back to d_model.  Learnable "think" embeddings are appended after
the real phone positions and dropped again after the final layer.  Several
utterances run as one sequence packed along time (``Packing``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, ContractError, ShapeError
from .scan import selective_scan


#: The most parameters a model may have: 400 MB of float64, and Adam keeps
#: two more buffers of that size.  ``EncoderConfig.validate`` checks it before
#: anything is allocated.
MAX_PARAMS = 50_000_000


@dataclass
class EncoderConfig:
    d_model: int = 64
    d_state: int = 16
    n_layers: int = 2
    conv_width: int = 4
    n_think: int = 4

    @property
    def d_inner(self) -> int:
        return 2 * self.d_model  # Mamba's expansion factor E = 2 (Gu & Dao 2023)

    @property
    def attn_dim(self) -> int:
        """The attention pooler width."""
        return max(self.d_model // 2, 1)

    def n_params(self, feat_dim: int = 0) -> int:
        """Parameters of every array whose size a width sets: the encoder, the
        projection from feat_dim input features and the five aspect poolers of
        width ``attn_dim``.  The fixed-size embedding and heads, small beside
        these, are left out."""
        # one layer's entries times n_layers, so that a huge n_layers is
        # counted without listing its entries
        one = replace(self, n_layers=1, n_think=0)
        layer = sum(math.prod(shape) for _, shape, _ in encoder_params(one))
        # think rows, feature projection, one pooler projection per aspect
        return self.n_layers * layer + (self.n_think + feat_dim + 5 * self.attn_dim) * self.d_model

    def validate(self, feat_dim: int = 0):
        """Check the fields; a model built with ``feat_dim`` input features
        must fit in MAX_PARAMS."""
        if min(self.d_model, self.d_state, self.n_layers, self.conv_width) < 1:
            raise ConfigError("encoder dimensions must all be >= 1")
        if self.n_think < 0:
            raise ConfigError("think token count must be >= 0")
        if feat_dim < 0:
            raise ConfigError(f"feat_dim {feat_dim} must be >= 0")
        n = self.n_params(feat_dim)
        if n > MAX_PARAMS:
            sizes = ", ".join(f"{f.name} {getattr(self, f.name)}" for f in fields(self))
            raise ConfigError(f"{sizes}, feat_dim {feat_dim}: "
                              f"{n:,} parameters, more than MAX_PARAMS ({MAX_PARAMS:,})")


class ParamStore(dict):
    """Flat name -> Tensor registry for every learnable parameter."""

    def add(self, name: str, value: np.ndarray) -> dc.Tensor:
        if name in self:
            raise ContractError(f"duplicate parameter {name!r}")
        self[name] = t = dc.Tensor(value)
        return t

    def tensors(self):
        return list(self.values())

    def zero_grad(self):
        for t in self.values():
            t.zero_grad()


def he_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform in +-sqrt(6 / fan_in), fan_in = shape[0]."""
    bound = np.sqrt(6.0 / max(shape[0], 1))
    return rng.uniform(-bound, bound, size=shape)


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)) for a (fan_in, fan_out) shape."""
    bound = np.sqrt(6.0 / max(shape[0] + shape[1], 1))
    return rng.uniform(-bound, bound, size=shape)


def normal(std: float):
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def init_params(entries: list, rng: np.random.Generator) -> ParamStore:
    """A store of (name, shape, init) entries drawn in order from ``rng``; init
    is a fill value or a function ``init(rng, shape)`` returning the array."""
    store = ParamStore()
    for name, shape, init in entries:
        store.add(name, init(rng, shape) if callable(init) else np.full(shape, init))
    return store


def encoder_params(cfg: EncoderConfig) -> list:
    dm, di, ds, w = cfg.d_model, cfg.d_inner, cfg.d_state, cfg.conv_width
    entries = [("enc.think", (cfg.n_think, dm), normal(0.02))] if cfg.n_think > 0 else []
    for layer in range(cfg.n_layers):
        for p in (f"enc.l{layer}.fwd", f"enc.l{layer}.bwd"):
            entries += [(f"{p}.in_proj.w", (dm, 2 * di), xavier_uniform),
                        (f"{p}.in_proj.b", (2 * di,), 0.0),
                        (f"{p}.conv.k", (w, di), he_uniform),
                        (f"{p}.conv.b", (di,), 0.0),
                        (f"{p}.delta_proj.w", (di, di), xavier_uniform),
                        # softplus(0.54) ~ 1.0: start with a mid-range step size
                        (f"{p}.delta_proj.b", (di,), 0.54),
                        (f"{p}.b_proj.w", (di, ds), xavier_uniform),
                        (f"{p}.c_proj.w", (di, ds), xavier_uniform),
                        # A = -exp(raw); raw 0 gives A = -1
                        (f"{p}.a_raw", (di, ds), 0.0),
                        (f"{p}.d_skip", (di,), 1.0),
                        # small output projection: blocks start near the identity map
                        (f"{p}.out_proj.w", (di, dm),
                         lambda rng, shape: 0.1 * xavier_uniform(rng, shape)),
                        (f"{p}.out_proj.b", (dm,), 0.0)]
        entries += [(f"enc.l{layer}.comb.w", (2 * dm, dm), xavier_uniform),
                    (f"enc.l{layer}.comb.b", (dm,), 0.0)]
    return entries


def discretize(delta: dc.Tensor, a: dc.Tensor, starts=None) -> dc.Tensor:
    """Zero-order hold on the state path: A_bar = exp(delta (x) a), (T, C, S).

    delta (T, C) must be strictly positive; a (C, S) is the diagonal state
    matrix.  A_bar is 0 on the rows ``starts``, where the scan state must
    start from zero (see ``Packing``).  The input path (Euler,
    B_bar = delta (x) B) is never built: ``selective_scan(..., delta=delta)``
    starts its states from (delta * x) (x) B.  One tape op that stores no
    (T, C, S) tensor besides its output.
    """
    dd, ad = delta.data, a.data
    if not (dd.ndim == ad.ndim == 2 and ad.shape[0] == dd.shape[1]):
        raise ShapeError(f"discretize: incompatible delta {dd.shape}, a {ad.shape}")
    if np.any(dd <= 0.0):
        raise ContractError("discretize: delta must be strictly positive")
    a_bar = dc.Tensor(np.einsum("tc,cs->tcs", dd, ad))
    np.exp(a_bar.data, out=a_bar.data)
    if starts is not None:
        a_bar.data[starts] = 0.0

    def bwd(g_a):
        # d(delta * a) = dA_bar * A_bar, in the gradient buffer this op owns
        g_a *= a_bar.data
        dc._acc(delta, np.einsum("tcs,cs->tc", g_a, ad), owned=True)
        dc._acc(a, np.einsum("tcs,tc->cs", g_a, dd), owned=True)

    dc._record(bwd, a_bar)
    return a_bar


class Packing:
    """Row layout of B utterances packed along time into one graph.

    Segment b holds utterance b's N_b phone rows followed by its own copy of
    the K think rows, so the packed tensor has sum(N_b) + B*K rows.  The
    segments stay exactly separate: the scan state and the causal conv reset
    at each segment's first row, and the backward direction reverses rows
    within each segment.  With one segment the layout is the plain
    [phones; think] sequence: no mask, per-segment reversal or gather is
    built, and each method below is the single-utterance op.
    """

    def __init__(self, n_phones, n_think: int):
        n = np.asarray(n_phones, dtype=np.int64)
        if n.ndim != 1 or n.size < 1 or n.min() < 1:
            raise ContractError(f"packing: every utterance needs a phone, got {n.tolist()}")
        self.n_phones = n
        self.n_think = n_think
        self.single = n.size == 1
        if self.single:
            self.n_rows = int(n[0]) + n_think
            self.phone_starts = (0,)
            self.pos = self.starts = None
            return
        lengths = n + n_think
        self.n_rows = int(lengths.sum())
        #: first phone row of each utterance among the packed phone rows
        self.phone_starts = np.cumsum(n) - n
        #: first row of each segment, where A_bar is 0
        self.starts = starts = np.cumsum(lengths) - lengths
        seg = np.repeat(np.arange(n.size), lengths)
        #: position of each row within its segment
        self.pos = np.arange(self.n_rows) - starts[seg]
        self._reverse = starts[seg] + lengths[seg] - 1 - self.pos
        is_phone = self.pos < n[seg]
        self._phone_rows = np.flatnonzero(is_phone)
        # source row in [phones; think] of each packed row
        self._place = np.where(is_phone, np.cumsum(is_phone) - 1,
                               n.sum() + self.pos - n[seg])

    def place(self, x_hat: dc.Tensor, think: dc.Tensor | None) -> dc.Tensor:
        """(sum N_b, d) phone rows and (K, d) think rows -> the packed rows;
        ``think`` is None when K = 0."""
        if think is None:
            return x_hat
        ext = dc.concat_rows([x_hat, think])
        return ext if self.single else dc.gather_rows(ext, self._place)

    def reverse(self, h: dc.Tensor) -> dc.Tensor:
        """Reverse the rows of each segment in place."""
        return dc.reverse_rows(h) if self.single else dc.gather_rows(h, self._reverse)

    def phones(self, h: dc.Tensor) -> dc.Tensor:
        """The sum(N_b) phone rows of the packed rows, in order."""
        if self.n_think == 0:
            return h
        if self.single:
            return dc.slice_rows(h, 0, int(self.n_phones[0]))
        return dc.gather_rows(h, self._phone_rows)


def mamba_block(x: dc.Tensor, params: ParamStore, prefix: str,
                cfg: EncoderConfig, packing: Packing | None = None) -> dc.Tensor:
    """One gated selective-SSM block with residual connection; x is (T, d_model).

    ``packing`` describes the segments when x packs several sequences.
    """
    if x.data.shape[0] < 1:
        raise ContractError("mamba_block: empty sequence")
    pos, starts = (None, None) if packing is None else (packing.pos, packing.starts)
    di = cfg.d_inner
    xz = dc.linear(x, params[f"{prefix}.in_proj.w"], params[f"{prefix}.in_proj.b"])
    main = dc.slice_cols(xz, 0, di)
    gate = dc.slice_cols(xz, di, 2 * di)

    u = dc.conv1d_causal_silu(main, params[f"{prefix}.conv.k"], params[f"{prefix}.conv.b"], pos)
    delta = dc.softplus(dc.linear(u, params[f"{prefix}.delta_proj.w"],
                                  params[f"{prefix}.delta_proj.b"]))
    b_t = dc.matmul(u, params[f"{prefix}.b_proj.w"])
    c_t = dc.matmul(u, params[f"{prefix}.c_proj.w"])
    a = dc.scale(dc.exp(params[f"{prefix}.a_raw"]), -1.0)
    # the previous segment's last state must not reach a segment's first row
    a_bar = discretize(delta, a, starts)
    y = selective_scan(u, a_bar, b_t, c_t, params[f"{prefix}.d_skip"], delta=delta)

    gated = dc.mul(y, dc.silu(gate))
    out = dc.linear(gated, params[f"{prefix}.out_proj.w"], params[f"{prefix}.out_proj.b"])
    return dc.add(out, x)


def bimamba_encode(x_ext: dc.Tensor, packing: Packing, params: ParamStore,
                   cfg: EncoderConfig) -> dc.Tensor:
    """Run the bidirectional stack over the packed rows; return the phone rows."""
    if x_ext.data.shape[0] != packing.n_rows:
        raise ContractError(
            f"bimamba_encode: {x_ext.data.shape[0]} rows for a packing of {packing.n_rows}"
        )
    h = x_ext
    for layer in range(cfg.n_layers):
        p = f"enc.l{layer}"
        f = mamba_block(h, params, f"{p}.fwd", cfg, packing)
        b = packing.reverse(mamba_block(packing.reverse(h), params, f"{p}.bwd", cfg, packing))
        h = dc.linear(dc.concat_cols(f, b), params[f"{p}.comb.w"], params[f"{p}.comb.b"])
    return packing.phones(h)
