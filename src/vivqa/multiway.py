"""Multiway transformer fusion: shared self-attention over the concatenated
vision+text sequence, with separate per-modality feed-forward experts, then
the pooler that produces the classification vector.

A minibatch runs as one (B, rows, hidden) sequence tensor.  Blocks are
pre-norm residual:
    x <- x + drop_path(SharedMHSA(norm(x), mask))
    x <- x + drop_path(Expert_modality(norm_modality(x)))   # rows routed by k
Expert routing slices axis 1 at the vision row count k, which is fixed per
config.  Padded text keys get an additive mask of MASK_VALUE so their
attention weight is exactly zero; K has no bias, which softmax would ignore.
The pooler reads row 0 only, so the last block computes only row 0 once its
keys and values are projected, and has no language expert.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ShapeError
from .rng import RngStream
from .tensor import (
    MASK_VALUE, Tensor, add, add_rows, concat, drop_path, gelu, layer_norm,
    linear, matmul, multi_head_attention, narrow, reshape, tanh,
)


@dataclass
class FusedSequence:
    x: Tensor                 # (B, rows, hidden), or the leading rows a last block kept
    boundary: int             # k: first text row
    mask: np.ndarray          # (B, rows) 1.0 = real token, 0.0 = PAD; rows = k + l_max + 2

    def __post_init__(self):
        if not 0 < self.boundary < self.mask.shape[1]:
            raise ValueError(
                f"boundary {self.boundary} outside sequence of {self.mask.shape[1]} rows")


def _linear_params(rng: RngStream, d_in: int, d_out: int, name: str, out: dict, bias=True):
    out[f"{name}.weight"] = Tensor(
        rng.split(name).normal((d_in, d_out), scale=1.0 / np.sqrt(d_in)), requires_grad=True)
    if bias:
        out[f"{name}.bias"] = Tensor(np.zeros(d_out), requires_grad=True)


def _norm_params(d: int, name: str, out: dict):
    out[f"{name}.gamma"] = Tensor(np.ones(d), requires_grad=True)
    out[f"{name}.beta"] = Tensor(np.zeros(d), requires_grad=True)


class MultiwayBlockParams:
    """One block: shared Q/K/V/output projections (K without a bias), a
    vision-expert FFN and, unless `language` is False, a language-expert FFN
    with disjoint weights, pre-norms for each path."""

    def __init__(self, cfg: RunConfig, rng: RngStream, prefix: str = "block", language=True):
        self.cfg = cfg
        dims = cfg.dims
        h, w = dims.hidden, dims.expert_ffn_width
        p: dict[str, Tensor] = {}
        _norm_params(h, f"{prefix}.attn_norm", p)
        for proj in ("q", "k", "v", "o"):
            _linear_params(rng, h, h, f"{prefix}.attn.{proj}", p, bias=proj != "k")
        self.experts = ("vision", "language") if language else ("vision",)
        for expert in self.experts:
            _norm_params(h, f"{prefix}.{expert}_norm", p)
            _linear_params(rng, h, w, f"{prefix}.{expert}.fc1", p)
            _linear_params(rng, w, h, f"{prefix}.{expert}.fc2", p)
        self.prefix = prefix
        self.params = p

    def __getitem__(self, key: str) -> Tensor:
        return self.params[f"{self.prefix}.{key}"]


def _linear(x: Tensor, p: MultiwayBlockParams, name: str) -> Tensor:
    return linear(x, p[f"{name}.weight"], p[f"{name}.bias"])


def shared_attention(x: Tensor, mask: np.ndarray, p: MultiwayBlockParams,
                     cfg: RunConfig, weights_sink: list | None = None,
                     keep: int | None = None) -> Tensor:
    """Pre-norm multi-head self-attention over the whole fused sequence;
    with `keep`, only the leading `keep` rows query, and only theirs return."""
    xn = layer_norm(x, p["attn_norm.gamma"], p["attn_norm.beta"])
    q = _linear(xn if keep is None else narrow(xn, 1, 0, keep), p, "attn.q")
    k = matmul(xn, p["attn.k.weight"])
    v = _linear(xn, p, "attn.v")
    merged = multi_head_attention(q, k, v, np.where(np.asarray(mask) > 0.0, 0.0, MASK_VALUE),
                                  cfg.heads, weights_sink=weights_sink)
    return _linear(merged, p, "attn.o")


def _expert_ffn(x: Tensor, p: MultiwayBlockParams, expert: str) -> Tensor:
    xn = layer_norm(x, p[f"{expert}_norm.gamma"], p[f"{expert}_norm.beta"])
    return _linear(gelu(_linear(xn, p, f"{expert}.fc1")), p, f"{expert}.fc2")


def expert_sublayer(x: Tensor, boundary: int, p: MultiwayBlockParams) -> Tensor:
    """Pre-residual expert output: rows [0,k) of every item through the
    vision expert, rows [k,end) through the language expert, which does not
    run when `x` holds vision rows only.  A block without a language expert
    (the last, whose text rows no output reads) gives text rows zeros."""
    rows = x.shape[1]
    if rows <= boundary:
        return _expert_ffn(x, p, "vision")
    xv = narrow(x, 1, 0, boundary)
    xt = narrow(x, 1, boundary, rows - boundary)
    text = (_expert_ffn(xt, p, "language") if "language" in p.experts
            else Tensor(np.zeros_like(xt.data)))
    return concat([_expert_ffn(xv, p, "vision"), text], axis=1)


def multiway_block(f: FusedSequence, p: MultiwayBlockParams, drop_rate: float,
                   rngs: list[RngStream] | None = None, keep: int | None = None,
                   weights_sink: list | None = None) -> FusedSequence:
    """One block; with `rngs`, rngs[i] draws item i's drop-path keeps,
    attention branch first, then the expert branch.  With `keep`, past the
    key/value projections only the leading `keep` rows are computed and
    returned; `weights_sink` gets their (B, heads, keep, rows) weights."""
    x = f.x
    attn = shared_attention(x, f.mask, p, p.cfg, weights_sink, keep)
    if keep is not None:
        x = narrow(x, 1, 0, keep)
    x = add(x, drop_path(attn, drop_rate, rngs))
    experts = expert_sublayer(x, f.boundary, p)
    x = add(x, drop_path(experts, drop_rate, rngs))
    return FusedSequence(x=x, boundary=f.boundary, mask=f.mask)


class FusionStackParams:
    """All fusion-module parameters: per-block weights, learned position and
    modality-type embeddings, and the pooler."""

    def __init__(self, cfg: RunConfig, max_rows: int, rng: RngStream):
        self.cfg = cfg
        self.hidden = h = cfg.dims.hidden
        self.blocks = []
        for i in range(cfg.layers):     # the last block computes row 0 alone, a vision row
            self.blocks.append(MultiwayBlockParams(cfg, rng.split(f"block{i}"), f"fusion.block{i}",
                                                   language=i < cfg.layers - 1))
        extra = {"fusion.position": rng.split("pos").normal((max_rows, h), scale=0.02),
                 "fusion.type": rng.split("type").normal((2, h), scale=0.02)}
        extra = {name: Tensor(v, requires_grad=True) for name, v in extra.items()}
        _norm_params(h, "fusion.pooler_norm", extra)
        _linear_params(rng.split("pooler"), h, h, "fusion.pooler", extra)
        self.extra = extra

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for bp in self.blocks:
            out.update(bp.params)
        out.update(self.extra)
        return out


def concat_modalities(v: Tensor, q: Tensor, q_mask: np.ndarray,
                      stack: FusionStackParams) -> FusedSequence:
    """(B, k, hidden) vision rows first, (B, L, hidden) text rows after,
    with the (B, L) text mask; add the learned position and modality-type
    embeddings, one row per sequence row shared by every item (`add_rows`)."""
    h = stack.hidden
    if v.data.ndim != 3 or q.data.ndim != 3 or v.shape[0] != q.shape[0]:
        raise ShapeError(f"concat_modalities: batches {v.shape} / {q.shape}")
    if v.shape[-1] != h or q.shape[-1] != h:
        raise ShapeError(f"concat_modalities: widths {v.shape} / {q.shape} != {h}")
    batch, k = v.shape[:2]
    x = concat([v, q], axis=1)
    rows = np.arange(x.shape[1])
    x = add_rows(x, stack.extra["fusion.position"], rows)
    x = add_rows(x, stack.extra["fusion.type"], rows >= k)
    mask = np.concatenate([np.ones((batch, k)), q_mask], axis=1)
    return FusedSequence(x=x, boundary=k, mask=mask)


def block_drop_rates(cfg: RunConfig) -> list[float]:
    """Linear stochastic-depth ramp from 0 to the configured rate."""
    if cfg.layers <= 1:
        return [cfg.drop_path] * cfg.layers
    return [cfg.drop_path * i / (cfg.layers - 1) for i in range(cfg.layers)]


def encode(f: FusedSequence, stack: FusionStackParams,
           rngs: list[RngStream] | None = None, keep: int | None = None,
           weights_sink: list | None = None) -> FusedSequence:
    """All blocks, the last computing only its leading `keep` rows (default
    all), with one `weights_sink` array per block.  Drop path runs only when
    `rngs` is given, one stream per item; a block with a rate above 0 draws
    from each item's `layer<i>` child stream.  The last block has no language
    expert, so without `keep` its text rows hold the attention residual only:
    right in shape, and never read by the pooler, which reads row 0."""
    rates = block_drop_rates(stack.cfg)
    last = len(stack.blocks) - 1
    for i, (bp, rate) in enumerate(zip(stack.blocks, rates)):
        layer_rngs = [r.split(f"layer{i}") for r in rngs] if rngs and rate > 0 else None
        f = multiway_block(f, bp, rate, layer_rngs, keep if i == last else None, weights_sink)
    return f


def pool_cls(f: FusedSequence, stack: FusionStackParams) -> Tensor:
    """Classification vectors: each item's row 0 (its first visual token) ->
    norm -> affine -> tanh, (B, hidden)."""
    row = reshape(narrow(f.x, 1, 0, 1), (f.x.shape[0], stack.hidden))
    row = layer_norm(row, stack.extra["fusion.pooler_norm.gamma"],
                     stack.extra["fusion.pooler_norm.beta"])
    row = linear(row, stack.extra["fusion.pooler.weight"], stack.extra["fusion.pooler.bias"])
    return tanh(row)
