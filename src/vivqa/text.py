"""Trainable text encoder: whitespace word vocabulary, token + positional
embeddings at the encoder width in one graph node, and the affine projection
down to the fusion width, each component's parameters in one `params` dict
under their arena names (`text.positional`, `text.proj.weight`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .optim import linear_params
from .rng import RngStream
from .tensor import Tensor, as_ids, linear, node

PAD, CLS, SEP, UNK = 0, 1, 2, 3
RESERVED = ["[PAD]", "[CLS]", "[SEP]", "[UNK]"]


class Vocabulary:
    """Deterministic word vocabulary: reserved ids 0-3, then corpus tokens
    ordered by frequency descending, ties broken lexicographically."""

    def __init__(self, tokens: list[str]):
        self.id_of = {tok: i + len(RESERVED) for i, tok in enumerate(tokens)}
        self.tokens = list(tokens)

    def __len__(self) -> int:
        return len(self.tokens) + len(RESERVED)

    def lookup(self, token: str) -> int:
        return self.id_of.get(token, UNK)


def build_vocab(corpus: list[str]) -> Vocabulary:
    if not corpus:
        raise ValueError("build_vocab: empty corpus")
    counts: dict[str, int] = {}
    for q in corpus:
        for tok in q.split():
            counts[tok] = counts.get(tok, 0) + 1
    return Vocabulary(sorted(counts, key=lambda t: (-counts[t], t)))


@dataclass
class TokenizedQuestion:
    ids: np.ndarray        # (l_max + 2,) int64, [CLS] w1..wL [SEP] then PAD
    mask: np.ndarray       # (l_max + 2,) 1.0 at the L+2 real positions


def tokenize(question: str, vocab: Vocabulary, l_max: int) -> TokenizedQuestion:
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    words = question.split()[:l_max]
    ids = [CLS] + [vocab.lookup(w) for w in words] + [SEP]
    total = l_max + 2
    mask = np.zeros(total)
    mask[: len(ids)] = 1.0
    ids = ids + [PAD] * (total - len(ids))
    return TokenizedQuestion(ids=np.asarray(ids, dtype=np.int64), mask=mask)


class TextEncoderParams:
    """Token table (V x width) plus learned positional table; both trainable."""

    def __init__(self, vocab_size: int, width: int, l_max: int, rng: RngStream):
        self.params = {f"text.{name}": Tensor(rng.split(label).normal((rows, width), scale=0.02),
                                              requires_grad=True)
                       for name, label, rows in (("embedding", "tok", vocab_size),
                                                 ("positional", "pos", l_max + 2))}


def encode(ids: np.ndarray, p: TextEncoderParams) -> Tensor:
    """(B, l_max + 2) token ids -> (B, l_max + 2, width) token + positional
    embeddings in one graph node; PAD rows are produced here and masked
    downstream.  The token table's gradient is one np.bincount over (id,
    column) slots, np.add.at's float64 bits; the positional table's sums."""
    table, positional = p.params.values()
    ids = as_ids(ids, table.shape[0], "encode: token id")
    if ids.ndim != 2 or ids.shape[1] != positional.shape[0]:
        raise ShapeError(f"encode: token ids {ids.shape}, not (batch, {positional.shape[0]})")

    def bwd(g):
        slots = ids[..., None] * table.shape[1] + np.arange(table.shape[1])
        dt = np.bincount(slots.reshape(-1), g.reshape(-1), table.data.size)
        return dt.reshape(table.shape).astype(g.dtype, copy=False), g.sum(axis=0)

    out = table.data[ids]
    out += positional.data
    return node(out, (table, positional), bwd)


class ProjectionParams:
    def __init__(self, in_width: int, out_width: int, rng: RngStream):
        self.params: dict[str, Tensor] = {}
        linear_params(self.params, "text.proj", rng, in_width, out_width)


def project(q: Tensor, p: ProjectionParams) -> Tensor:
    w, b = p.params.values()
    if q.shape[-1] != w.shape[0]:
        raise ShapeError(f"project: last axis {q.shape} != {w.shape[0]}")
    return linear(q, w, b)
