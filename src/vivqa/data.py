"""Corpus loading, answer vocabulary, deterministic splits/folds, batching,
corpus statistics, and the synthetic complementary-cue generator.

The synthetic corpus is built so the two stub extractors each see exactly
one cue: the global cue is a within-block zero-mean Walsh texture over the
whole image (invisible to block-mean pooling), the local cue is *which*
grid block carries a fixed color offset (invisible to the centered-texture
global stub).  The answer names the (global, local) pair, so a model fed
one extractor caps at chance over the other cue.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .errors import DataError, ParseError
from .metrics import canonicalize, read_json_lines
from .rng import RngStream
from .vision import MID_GRAY, VisionDims

OOV_TARGET = -1


@dataclass(frozen=True)
class Example:
    id: str
    image: str          # "synthetic:g=G,l=L", or a path base for .vvqf pairs
    question: str
    answer: str


def load_jsonl(path) -> list[Example]:
    out: list[Example] = []
    seen: set[str] = set()
    keys = ("id", "image", "question", "answer")
    for lineno, obj in read_json_lines(path, keys):
        ex = Example(*(obj[k] for k in keys))
        if not ex.answer:
            raise ParseError(f"{path}:{lineno}: empty answer")
        if ex.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ex.id!r}")
        seen.add(ex.id)
        out.append(ex)
    return out


class AnswerVocab:
    """Canonicalized answer string -> class index, built from training
    answers only; frequency descending, ties lexicographic.  With `ranked`,
    `answers` is already that class list, as a checkpoint stores it."""

    def __init__(self, answers: list[str], ranked: bool = False):
        if not answers:
            raise ValueError("AnswerVocab: no answers")
        if ranked:
            self.answers = list(answers)
        else:
            counts: dict[str, int] = {}
            for a in answers:
                key = canonicalize(a)
                counts[key] = counts.get(key, 0) + 1
            self.answers = sorted(counts, key=lambda a: (-counts[a], a))
        self.index = {a: i for i, a in enumerate(self.answers)}

    def __len__(self) -> int:
        return len(self.answers)

    def target_of(self, answer: str) -> int:
        """Class index, or OOV_TARGET for answers outside the training set."""
        return self.index.get(canonicalize(answer), OOV_TARGET)

    @classmethod
    def from_examples(cls, examples) -> "AnswerVocab":
        return cls([ex.answer for ex in examples])


def split_train_test(examples, ratio: float = 0.8, seed: int = 0):
    examples = list(examples)
    if not examples:
        raise ValueError("split_train_test: empty corpus")
    order = RngStream(seed).split("train-test-split").permutation(len(examples))
    n_train = math.ceil(ratio * len(examples))
    train = [examples[i] for i in order[:n_train]]
    test = [examples[i] for i in order[n_train:]]
    return train, test


@dataclass(frozen=True)
class FoldPlan:
    fold_of: tuple    # fold index per example position
    k: int

    def fold_indices(self, f: int) -> list[int]:
        return [i for i, v in enumerate(self.fold_of) if v == f]

    def splits(self):
        """Yield (train_positions, val_positions) per fold."""
        for f in range(self.k):
            val = self.fold_indices(f)
            train = [i for i, v in enumerate(self.fold_of) if v != f]
            yield train, val


def kfold(examples, k: int = 5, seed: int = 0) -> FoldPlan:
    n = len(examples)
    if k > n:
        raise ValueError(f"kfold: k={k} exceeds corpus size {n}")
    order = RngStream(seed).split("kfold").permutation(n)
    fold_of = [0] * n
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % k
    return FoldPlan(fold_of=tuple(fold_of), k=k)


def _render_mean(total: int, n: int) -> str:
    frac = Fraction(total, n)
    d = Decimal(frac.numerator) / Decimal(frac.denominator)
    return str(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def corpus_stats(examples) -> dict:
    examples = list(examples)
    if not examples:
        raise ValueError("corpus_stats: empty corpus")
    q_lens = [len(ex.question.split()) for ex in examples]
    a_lens = [len(ex.answer.split()) for ex in examples]
    return {
        "count": len(examples),
        "longest_question": max(q_lens),
        "longest_answer": max(a_lens),
        "average_question": _render_mean(sum(q_lens), len(examples)),
        "average_answer": _render_mean(sum(a_lens), len(examples)),
    }


# ---------------------------------------------------------------------------
# Synthetic complementary-cue corpus

BASE_LEVEL = MID_GRAY
TEXTURE_AMP = 0.12
LOCAL_DELTA = (0.30, 0.18, 0.24)
NOISE_AMP = 0.02
MAX_GLOBAL_CUES = 15
MAX_LOCAL_CUES = VisionDims().grid ** 2     # the 7x7 block grid both presets share
_SYNTHETIC_REF = re.compile(r"synthetic:g=(?P<g>-?[0-9]+),l=(?P<l>-?[0-9]+)")

_QUESTION_TEMPLATES = (
    "what pair is shown",
    "which pair appears here",
    "name the pair in this image",
)


@dataclass(frozen=True)
class SyntheticSpec:
    global_cue: int
    local_cue: int

    def image_ref(self) -> str:
        return f"synthetic:g={self.global_cue},l={self.local_cue}"

    @classmethod
    def parse(cls, ref: str) -> "SyntheticSpec":
        """`synthetic:g=<G>,l=<L>` with G in [0, MAX_GLOBAL_CUES) and L >= 0;
        `render_synthetic` bounds L by the grid."""
        if not ref.startswith("synthetic:"):
            raise DataError(f"{ref}: not a synthetic image ref (a feature file feeds "
                            "frozen extractors only)")
        m = _SYNTHETIC_REF.fullmatch(ref)
        if m is None:
            raise ParseError(f"malformed synthetic image ref {ref!r}: "
                             "expected synthetic:g=<int>,l=<int>")
        g, l = int(m["g"]), int(m["l"])
        if not 0 <= g < MAX_GLOBAL_CUES:
            raise ParseError(f"{ref!r}: global cue must be in [0, {MAX_GLOBAL_CUES - 1}]")
        if l < 0:
            raise ParseError(f"{ref!r}: local cue must be >= 0")
        return cls(global_cue=g, local_cue=l)


@functools.lru_cache(maxsize=None)
def _walsh_texture(g: int, block: int, grid: int) -> np.ndarray:
    """Read-only (H, W) texture of global cue g: TEXTURE_AMP times a within-
    block zero-mean sign pattern, the 2-D Walsh function (index g+1) on a 4x4
    sub-grid tiled over every block.  Index 16 would be the constant function,
    hence MAX_GLOBAL_CUES, which also bounds the cache per (block, grid)."""
    m = g + 1
    sub = block // 4
    u = np.arange(4)
    bits_u = ((m >> 0) & 1) * (u & 1) + ((m >> 1) & 1) * ((u >> 1) & 1)
    v = np.arange(4)
    bits_v = ((m >> 2) & 1) * (v & 1) + ((m >> 3) & 1) * ((v >> 1) & 1)
    signs = (-1.0) ** (bits_u[:, None] + bits_v[None, :])
    out = TEXTURE_AMP * np.tile(np.kron(signs, np.ones((sub, sub))), (grid, grid))
    out.flags.writeable = False
    return out


@functools.cache
def _local_positions(grid: int) -> tuple[tuple[int, int], ...]:    # diagonal first
    return tuple([(i, i) for i in range(grid)]
                 + [(i, j) for i in range(grid) for j in range(grid) if i != j])


def render_synthetic(spec: SyntheticSpec, dims: VisionDims,
                     noise_seed: int = 0) -> np.ndarray:
    """Deterministic (channels, H, W) image in [0, 1] for one cue pair."""
    if dims.block % 4 != 0:
        raise ValueError(f"block size {dims.block} not divisible by 4")
    c, size, b, grid = dims.channels, dims.image_size, dims.block, dims.grid
    if not 0 <= spec.local_cue < grid * grid:
        raise DataError(f"local cue {spec.local_cue} outside the {grid}x{grid} block grid")
    img = np.add(_walsh_texture(spec.global_cue, b, grid), BASE_LEVEL, out=np.empty((c, size, size)))
    bi, bj = _local_positions(grid)[spec.local_cue]
    for ch in range(c):
        img[ch, bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] += LOCAL_DELTA[ch % 3]
    img += RngStream(noise_seed).split("pixel-noise").uniform(-NOISE_AMP, NOISE_AMP,
                                                              (c, size, size))
    return np.clip(img, 0.0, 1.0, out=img)


def synthetic_answer(spec: SyntheticSpec) -> str:
    return f"g{spec.global_cue} l{spec.local_cue}"


def make_synthetic(n: int, n_global: int, n_local: int, seed: int,
                   id_prefix: str = "syn") -> list[Example]:
    """n examples cycling through all cue pairs in seeded order, so every
    answer class appears about n/(n_global*n_local) times."""
    if n < 1:
        raise ValueError("make_synthetic: n must be >= 1")
    if n_global < 2 or n_local < 2:
        raise ValueError("make_synthetic: cue counts must be >= 2")
    if n_global > MAX_GLOBAL_CUES:
        raise ValueError(f"make_synthetic: at most {MAX_GLOBAL_CUES} global texture cues")
    if n_local > MAX_LOCAL_CUES:
        raise ValueError(f"make_synthetic: at most {MAX_LOCAL_CUES} local block cues")
    rng = RngStream(seed).split("make-synthetic")
    pairs = [(g, l) for g in range(n_global) for l in range(n_local)]
    out: list[Example] = []
    for i in range(n):
        if i % len(pairs) == 0:
            order = rng.permutation(len(pairs))
        g, l = pairs[order[i % len(pairs)]]
        spec = SyntheticSpec(g, l)
        question = _QUESTION_TEMPLATES[int(rng.integers(0, len(_QUESTION_TEMPLATES)))]
        out.append(Example(id=f"{id_prefix}-{i:05d}", image=spec.image_ref(),
                           question=question, answer=synthetic_answer(spec)))
    return out


def example_noise_seed(example_id: str) -> int:
    import hashlib
    return int.from_bytes(hashlib.sha256(example_id.encode()).digest()[:8], "little")


# ---------------------------------------------------------------------------
# Batching


def batch_iter(split, batch_size: int, answer_vocab: AnswerVocab, seed: int, epoch: int,
               is_train: bool):
    """Seeded per-epoch reshuffle; yields (examples, targets) per batch, a
    list and an int array, final partial batch included.  OOV train answers
    are a data error; OOV test answers map to a reserved target that can
    never be predicted correctly."""
    if batch_size < 1:
        raise ValueError("batch_iter: batch_size must be >= 1")
    split = list(split)
    order = RngStream(seed).split(f"batch-epoch-{epoch}").permutation(len(split))
    examples = [split[idx] for idx in order]
    targets = np.array([answer_vocab.target_of(ex.answer) for ex in examples], dtype=np.int64)
    for ex, target in zip(examples, targets):
        if target == OOV_TARGET and is_train:
            raise DataError(f"train answer {ex.answer!r} (example {ex.id}) not in vocabulary")
    for i in range(0, len(examples), batch_size):
        yield examples[i:i + batch_size], targets[i:i + batch_size]
