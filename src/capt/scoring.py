"""Aspect attention pooling and the multi-level prediction heads.

Phone-level: a regression head (one score per phone) and a 41-way
classifier over realized phones.  Word-level: mean-pool the phone
representations inside each word span, then one affine map to
(accuracy, stress, total).  Utterance-level: an attention pooler and a
regressor for each of the five aspects, all computed together as one tape
op (``utterance_level_outputs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .encoder import ParamStore, he_uniform, normal
from .errors import AlignmentError, as_array
from .phonology import N_PHONES

ASPECTS = ("accuracy", "completeness", "fluency", "prosody", "total")
WORD_SCORE_NAMES = ("accuracy", "stress", "total")


@dataclass
class PredictionBundle:
    """Predictions for a packed batch of utterances, normalized scale: graph
    tensors from ``Model.forward``, numpy arrays after ``detach``."""

    phone_scores: dc.Tensor | np.ndarray  # (N,)
    mdd_logits: dc.Tensor | np.ndarray  # (N, 41)
    word_scores: dc.Tensor | np.ndarray  # (W, 3)
    utterance_scores: dc.Tensor | np.ndarray  # (B, 5); (5,) from Model.predict

    def detach(self) -> PredictionBundle:
        return PredictionBundle(
            phone_scores=self.phone_scores.data.copy(),
            mdd_logits=self.mdd_logits.data.copy(),
            word_scores=self.word_scores.data.copy(),
            utterance_scores=self.utterance_scores.data.copy(),
        )


def scoring_params(d_model: int, d_attn: int) -> list:
    # heads start small: keeps initial losses O(1) and the MDD softmax
    # unsaturated regardless of how much the residual stack grows activations
    entries = []
    for a in ASPECTS:
        entries += [(f"pool.{a}.w_proj", (d_model, d_attn), he_uniform),
                    (f"pool.{a}.w_score", (d_attn,), normal(0.2)),
                    (f"head.utt.{a}.w", (d_model,), normal(0.02)),
                    (f"head.utt.{a}.b", (), 0.5)]
    return entries + [("head.phone.w", (d_model,), normal(0.02)),
                      ("head.phone.b", (), 0.5),
                      ("head.mdd.w", (d_model, N_PHONES), normal(0.02)),
                      ("head.mdd.b", (N_PHONES,), 0.0),
                      ("head.word.w", (d_model, len(WORD_SCORE_NAMES)), normal(0.02)),
                      ("head.word.b", (len(WORD_SCORE_NAMES),), 0.5)]


def phone_level_outputs(h: dc.Tensor, params: ParamStore):
    scores = dc.add(dc.matmul(h, params["head.phone.w"]), params["head.phone.b"])
    logits = dc.linear(h, params["head.mdd.w"], params["head.mdd.b"])
    return scores, logits


def validate_word_spans(spans, n_phones: int, starts=(0,)) -> np.ndarray:
    """The spans as a (W, 2) int array of (start, stop) pairs, which must
    partition 0..N-1 into contiguous nonempty pieces, in order.

    No word may cross an utterance boundary: every entry of ``starts``
    (first row of each utterance) must begin a word.
    """
    bounds = as_array(spans, AlignmentError, "word spans")
    if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.dtype.kind not in "iu":
        raise AlignmentError(f"word spans must be (start, stop) integer pairs, "
                             f"got {bounds.dtype} of shape {bounds.shape}")
    pairs, expect = bounds.tolist(), 0
    for w, (start, stop) in enumerate(pairs):
        if start != expect or stop <= start:
            raise AlignmentError(
                f"word {w}: span ({start}, {stop}) does not continue partition at {expect}"
            )
        expect = stop
    if expect != n_phones:
        raise AlignmentError(f"word spans cover {expect} phones, utterance has {n_phones}")
    crossed = {int(s) for s in starts} - {s for s, _ in pairs}
    if crossed:
        raise AlignmentError(f"a word span crosses the utterance boundary at row {min(crossed)}")
    return bounds


def word_level_outputs(h: dc.Tensor, bounds: np.ndarray, params: ParamStore) -> dc.Tensor:
    """Mean-pool the phone rows of each word, then one affine map to 3 scores.

    ``bounds`` is the (W, 2) array ``validate_word_spans`` returns.  The
    pooling is one product with a constant (W, N) segment-mean matrix.
    """
    n = h.data.shape[0]
    sizes = bounds[:, 1] - bounds[:, 0]
    word_of = np.repeat(np.arange(len(sizes)), sizes)
    means = np.zeros((len(sizes), n))
    means[word_of, np.arange(n)] = 1.0 / sizes[word_of]
    pooled = dc.matmul(dc.Tensor(means), h)
    return dc.linear(pooled, params["head.word.w"], params["head.word.b"])


def utterance_level_outputs(h: dc.Tensor, params: ParamStore, starts=(0,)) -> dc.Tensor:
    """Five aspect scores for each of the B utterance ``starts``: (B, 5).

    Per aspect a and utterance this is the weights
    alpha_i = softmax_i(w_a . tanh(W_a h_i)), the pooled row sum_i alpha_i h_i
    and the head w_a . pooled + b_a, for all five aspects in one op: the five
    (d, d_attn) projections side by side as one (d, 5 d_attn) matrix, one
    tanh, an (N, 5) score matrix with a softmax per utterance and column, the
    (B, 5, d) pooled rows and one head contraction.
    """
    hd = h.data
    n = hd.shape[0]
    proj = [params[f"pool.{a}.w_proj"] for a in ASPECTS]
    score_w = [params[f"pool.{a}.w_score"] for a in ASPECTS]
    head_w = [params[f"head.utt.{a}.w"] for a in ASPECTS]
    head_b = [params[f"head.utt.{a}.b"] for a in ASPECTS]
    n_asp, d_attn = len(ASPECTS), proj[0].data.shape[1]
    w_proj = np.concatenate([p.data for p in proj], axis=1)
    w_score = np.stack([p.data for p in score_w])  # (5, d_attn)
    w_head = np.stack([p.data for p in head_w])  # (5, d)
    starts = np.asarray(starts)
    seg = dc._segment_of(starts, n)
    t = np.tanh(hd @ w_proj).reshape(n, n_asp, d_attn)
    alpha = np.einsum("nak,ak->na", t, w_score)
    alpha -= np.maximum.reduceat(alpha, starts, axis=0)[seg]
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduceat(alpha, starts, axis=0)[seg]
    pooled = np.add.reduceat(alpha[:, :, None] * hd[:, None, :], starts, axis=0)
    y = np.einsum("bad,ad->ba", pooled, w_head)
    y += [p.data for p in head_b]
    out = dc.Tensor(y)

    def bwd(g):
        g_pooled = (g[:, :, None] * w_head)[seg]  # (N, 5, d), each row's utterance
        g_alpha = np.einsum("nad,nd->na", g_pooled, hd)
        # softmax adjoint within each utterance and aspect
        g_alpha -= np.add.reduceat(g_alpha * alpha, starts, axis=0)[seg]
        g_alpha *= alpha
        g_t = g_alpha[:, :, None] * w_score
        g_t *= 1.0 - t**2
        g_t = g_t.reshape(n, n_asp * d_attn)
        g_proj = hd.T @ g_t
        g_h = g_t @ w_proj.T
        g_h += np.einsum("na,nad->nd", alpha, g_pooled)
        dc._acc(h, g_h, owned=True)
        g_score = np.einsum("na,nak->ak", g_alpha, t)
        g_head = np.einsum("ba,bad->ad", g, pooled)
        for i in range(n_asp):
            dc._acc(proj[i], g_proj[:, i * d_attn : (i + 1) * d_attn])
            dc._acc(score_w[i], g_score[i], owned=True)
            dc._acc(head_w[i], g_head[i], owned=True)
            dc._acc(head_b[i], np.asarray(g[:, i].sum()), owned=True)

    dc._record(bwd, out)
    return out
