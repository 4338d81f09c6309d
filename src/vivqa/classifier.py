"""Classification head and answer selection: affine -> norm -> GELU ->
affine to the answer classes, then argmax over the logits (ties to lowest
index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rng import RngStream
from .tensor import (
    Tensor, chain, gelu_bwd, gelu_fwd, layer_norm_bwd, layer_norm_fwd, linear_bwd, linear_fwd,
)


class ClassifierParams:
    """768 -> 1536 -> C at paper scale; hidden is 2x the pooled width."""

    def __init__(self, in_width: int, n_classes: int, rng: RngStream):
        self.in_width = in_width
        self.hidden = 2 * in_width
        self.n_classes = n_classes
        s1 = 1.0 / np.sqrt(in_width)
        s2 = 1.0 / np.sqrt(self.hidden)
        self.fc1_w = Tensor(rng.split("fc1").normal((in_width, self.hidden), scale=s1),
                            requires_grad=True)
        self.fc1_b = Tensor(np.zeros(self.hidden), requires_grad=True)
        self.norm_gamma = Tensor(np.ones(self.hidden), requires_grad=True)
        self.norm_beta = Tensor(np.zeros(self.hidden), requires_grad=True)
        self.fc2_w = Tensor(rng.split("fc2").normal((self.hidden, n_classes), scale=s2),
                            requires_grad=True)
        self.fc2_b = Tensor(np.zeros(n_classes), requires_grad=True)

    def named_params(self) -> dict[str, Tensor]:
        return {
            "classifier.fc1.weight": self.fc1_w,
            "classifier.fc1.bias": self.fc1_b,
            "classifier.norm.gamma": self.norm_gamma,
            "classifier.norm.beta": self.norm_beta,
            "classifier.fc2.weight": self.fc2_w,
            "classifier.fc2.bias": self.fc2_b,
        }


def classify(x: Tensor, p: ClassifierParams) -> Tensor:
    """(B, in_width) -> (B, C) logits, as one graph node.  Loss and
    prediction both consume logits directly."""
    if x.data.ndim != 2 or x.shape[1] != p.in_width:
        raise ShapeError(f"classify: input shape {x.shape} != (batch, {p.in_width})")
    return chain(x, [(linear_fwd, linear_bwd, [p.fc1_w, p.fc1_b]),
                     (layer_norm_fwd, layer_norm_bwd, [p.norm_gamma, p.norm_beta]),
                     (gelu_fwd, gelu_bwd, []),
                     (linear_fwd, linear_bwd, [p.fc2_w, p.fc2_b])])


@dataclass(frozen=True)
class AnswerDistribution:
    index: int
    answer: str


def predict(logits: Tensor, answer_vocab: list[str]) -> list[AnswerDistribution]:
    """One answer per row of (B, C) logits."""
    if logits.data.ndim != 2 or logits.shape[1] != len(answer_vocab):
        raise ShapeError(f"predict: logits {logits.shape} vs {len(answer_vocab)} answers")
    best = np.argmax(logits.data, axis=1)  # np.argmax returns the lowest index on ties
    return [AnswerDistribution(index=int(i), answer=answer_vocab[i]) for i in best]
