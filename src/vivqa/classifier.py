"""Classification head and answer selection: affine -> norm -> GELU ->
affine to the answer classes, then argmax over the logits (ties to lowest
index).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .optim import linear_params, norm_params
from .rng import RngStream
from .tensor import (
    Tensor, chain, gelu_bwd, gelu_fwd, layer_norm_bwd, layer_norm_fwd, linear_bwd, linear_fwd,
)


class ClassifierParams:
    """768 -> 1536 -> C at paper scale; hidden is 2x the pooled width."""

    def __init__(self, in_width: int, n_classes: int, rng: RngStream):
        self.hidden = 2 * in_width
        self.params: dict[str, Tensor] = {}
        linear_params(self.params, "classifier.fc1", rng.split("fc1"), in_width, self.hidden)
        norm_params(self.params, "classifier.norm", self.hidden)
        linear_params(self.params, "classifier.fc2", rng.split("fc2"), self.hidden, n_classes)


def classify(x: Tensor, p: ClassifierParams) -> Tensor:
    """(B, in_width) -> (B, C) logits, as one graph node.  Loss and
    prediction both consume logits directly."""
    w1, b1, gamma, beta, w2, b2 = p.params.values()
    if x.data.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise ShapeError(f"classify: input shape {x.shape} != (batch, {w1.shape[0]})")
    return chain(x, [(linear_fwd, linear_bwd, [w1, b1]),
                     (layer_norm_fwd, layer_norm_bwd, [gamma, beta]),
                     (gelu_fwd, gelu_bwd, []),
                     (linear_fwd, linear_bwd, [w2, b2])])


def predict(logits: Tensor, answer_vocab: list[str]) -> list[str]:
    """One answer string per row of (B, C) logits."""
    if logits.data.ndim != 2 or logits.shape[1] != len(answer_vocab):
        raise ShapeError(f"predict: logits {logits.shape} vs {len(answer_vocab)} answers")
    best = np.argmax(logits.data, axis=1)  # np.argmax returns the lowest index on ties
    return [answer_vocab[i] for i in best]
