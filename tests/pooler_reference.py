"""One-aspect, one-utterance attention pooling: the reference that
``scoring.utterance_level_outputs`` is checked against, built from tape ops."""

from capt import diffcore as dc
from capt.encoder import ParamStore
from capt.errors import ContractError


def attention_weights(h: dc.Tensor, params: ParamStore, aspect: str) -> dc.Tensor:
    """alpha_i = softmax_i( w_a . tanh(W_a h_i) ); (N,) summing to 1."""
    if h.data.shape[0] < 1:
        raise ContractError("attention_weights: empty sequence")
    scores = dc.matmul(dc.tanh(dc.matmul(h, params[f"pool.{aspect}.w_proj"])),
                       params[f"pool.{aspect}.w_score"])
    return dc.softmax(scores)


def pool(h: dc.Tensor, alpha: dc.Tensor) -> dc.Tensor:
    """Convex combination of the rows of h; alpha must sum to 1."""
    if alpha.data.shape != (h.data.shape[0],):
        raise ContractError(
            f"pool: weight length {alpha.data.shape} vs {h.data.shape[0]} rows"
        )
    if abs(alpha.data.sum() - 1.0) > 1e-9:
        raise ContractError("pool: weights do not sum to 1")
    return dc.matmul(alpha, h)
