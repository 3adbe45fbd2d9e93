"""Per-phone input vectors: projected feature rows plus phone embeddings.

The acoustic side of each phone is a precomputed feature row
(GOP scalar followed by an SSL-style embedding) projected to d_model.
The symbolic side is a projection of [one-hot(41) | attributes(24)].
The two are fused by elementwise addition to form the encoder input.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .encoder import ParamStore, he_uniform
from .errors import ContractError
from .phonology import N_ATTRIBUTES, N_PHONES


def build_onehot_attr_matrix(attr_table: np.ndarray) -> np.ndarray:
    """(41, 65) constant matrix: identity one-hot block next to the (41, 24) attributes."""
    return np.concatenate([np.eye(N_PHONES), attr_table], axis=1)


def feature_params(feat_dim: int, d_model: int) -> list:
    return [("feat.proj.w", (feat_dim, d_model), he_uniform),
            ("feat.proj.b", (d_model,), 0.0),
            ("embed.w", (N_PHONES + N_ATTRIBUTES, d_model), he_uniform)]


def check_embedding_injective(onehot_attr: np.ndarray, embed_w: np.ndarray) -> None:
    """All 41 canonical embeddings must be pairwise distinct at init."""
    emb = onehot_attr @ embed_w
    diff = emb[:, None, :] - emb[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist += np.eye(len(emb))
    if np.any(dist < 1e-9):
        raise ContractError("canonical embeddings collide; re-seed the projection")


def assemble_utterance_features(feature_rows: np.ndarray, phone_ids: np.ndarray,
                                onehot_attr: np.ndarray, params: ParamStore) -> dc.Tensor:
    """X_hat = project(gop | ssl) + c_i per phone, where the canonical
    embedding c_i is the phone's [one-hot | attributes] row times embed.w,
    for the float rows and int64 ids that ``Model.forward`` has checked."""
    x = dc.linear(dc.Tensor(feature_rows), params["feat.proj.w"], params["feat.proj.b"])
    c = dc.matmul(dc.Tensor(onehot_attr[phone_ids]), params["embed.w"])
    return dc.add(x, c)
