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
Each line above is one graph node, and so is the pooler: it runs the tensor
kernels of its norm, projections or experts, drop path and residual, and
their backwards in reverse, summing the gradients of a value read twice as
an op-by-op graph's walk would, so every bit is that graph's.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ShapeError
from .rng import RngStream
from .tensor import (
    MASK_VALUE, Tensor, add_leading, add_rows, attention_bwd, attention_fwd, chain, chain_bwd,
    chain_fwd, chain_params, concat, gelu_bwd, gelu_fwd, layer_norm_bwd, layer_norm_fwd, linear_bwd,
    linear_fwd, residual, select_bwd, select_fwd, tanh_bwd, tanh_fwd,
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


def _ffn(p: MultiwayBlockParams, e: str) -> list:
    """Expert `e` as `chain` steps: norm -> fc1 -> GELU -> fc2."""
    return [(layer_norm_fwd, layer_norm_bwd, [p[f"{e}_norm.gamma"], p[f"{e}_norm.beta"]]),
            (linear_fwd, linear_bwd, [p[f"{e}.fc1.weight"], p[f"{e}.fc1.bias"]]),
            (gelu_fwd, gelu_bwd, []),
            (linear_fwd, linear_bwd, [p[f"{e}.fc2.weight"], p[f"{e}.fc2.bias"]])]


def _attention_fwd(bias, heads, keep, weights_sink, xn, wq, bq, wk, wv, bv):
    q, s_q = linear_fwd(xn if keep is None else xn[:, :keep].copy(), wq, bq)
    k, s_k = linear_fwd(xn, wk)
    v, s_v = linear_fwd(xn, wv, bv)
    out, s_attn = attention_fwd(q, k, v, bias, heads, weights_sink)
    return out, (s_q, s_k, s_v, s_attn)


def _attention_bwd(saved, g):
    s_q, s_k, s_v, s_attn = saved
    dq, dk, dv = attention_bwd(s_attn, g)
    dq, dwq, dbq = linear_bwd(s_q, dq)
    dxn, dwk = linear_bwd(s_k, dk)
    dxv, dwv, dbv = linear_bwd(s_v, dv)
    add_leading(dxn, dq)            # xn's three gradients in an op-by-op walk's order
    dxn += dxv
    return dxn, dwq, dbq, dwk, dwv, dbv


def shared_attention(x: Tensor, mask: np.ndarray, p: MultiwayBlockParams,
                     cfg: RunConfig, weights_sink: list | None = None,
                     keep: int | None = None, drop: np.ndarray | None = None) -> Tensor:
    """x + drop_path(SharedMHSA(norm(x), mask), drop) over the whole fused
    sequence, one graph node; with `keep`, only the leading `keep` rows
    query, and only theirs return."""
    core = functools.partial(_attention_fwd, np.where(np.asarray(mask) > 0.0, 0.0, MASK_VALUE),
                             cfg.heads, keep, weights_sink)
    qkv = [p[f"attn.{n}"] for n in ("q.weight", "q.bias", "k.weight", "v.weight", "v.bias")]
    return residual(x, [
        (layer_norm_fwd, layer_norm_bwd, [p["attn_norm.gamma"], p["attn_norm.beta"]]),
        (core, _attention_bwd, qkv),
        (linear_fwd, linear_bwd, [p["attn.o.weight"], p["attn.o.bias"]])], drop)


def _experts_fwd(spans, x, *_):     # each span's steps hold its expert's parameters
    out, saved = np.zeros_like(x), []
    for rows, steps in spans:
        out[:, rows], s = chain_fwd(x[:, rows], steps)
        saved.append((rows, s))
    return out, saved


def _experts_bwd(saved, g):
    dx, grads = np.zeros_like(g), []
    for rows, s in saved:
        dx[:, rows], *gp = chain_bwd(s, g[:, rows])
        grads += gp
    if len(saved) > 1:              # each expert's zero-padded gradient adds 0.0 to
        dx += 0.0                   # the other's rows
    return (dx, *grads)


def expert_sublayer(x: Tensor, boundary: int, p: MultiwayBlockParams,
                    drop: np.ndarray | None = None) -> Tensor:
    """x + drop_path(experts(x), drop), one graph node: rows [0,k) of every item
    through the vision expert, rows [k,end) through the language expert,
    which does not run when `x` holds vision rows only.  A block without a
    language expert (the last, whose text rows no output reads) gives text
    rows a zero expert output."""
    steps = _ffn(p, "vision")
    if x.shape[1] > boundary:
        spans = [(slice(0, boundary), steps)]
        if "language" in p.experts:
            spans.append((slice(boundary, None), _ffn(p, "language")))
        params = [t for _, ss in spans for t in chain_params(ss)]
        steps = [(functools.partial(_experts_fwd, spans), _experts_bwd, params)]
    return residual(x, steps, drop)


def multiway_block(f: FusedSequence, p: MultiwayBlockParams, drop: np.ndarray | None = None,
                   keep: int | None = None, weights_sink: list | None = None) -> FusedSequence:
    """One block, two graph nodes; with a (B, 2) `drop`, its columns are the
    attention and the expert branch's drop-path masks.  With `keep`, past
    the key/value projections only the leading `keep` rows are computed and
    returned; `weights_sink` gets their (B, heads, keep, rows) weights."""
    attn_drop, expert_drop = (None, None) if drop is None else drop.T
    x = shared_attention(f.x, f.mask, p, p.cfg, weights_sink, keep, attn_drop)
    return FusedSequence(expert_sublayer(x, f.boundary, p, expert_drop), f.boundary, f.mask)


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


def encode(f: FusedSequence, stack: FusionStackParams, drop: np.ndarray | None = None,
           keep: int | None = None, weights_sink: list | None = None) -> FusedSequence:
    """All blocks, the last computing only its leading `keep` rows (default
    all), with one `weights_sink` array per block.  Drop path runs only with
    a (B, 2 * layers) `drop` table (`rng.keep_table`): block i's attention
    and expert branches take columns 2i and 2i + 1, and a block whose rate
    is 0 takes none.  The last block has no language expert, so without
    `keep` its text rows hold the attention residual only: right in shape,
    and never read by the pooler, which reads row 0."""
    rates = block_drop_rates(stack.cfg)
    last = len(stack.blocks) - 1
    for i, (bp, rate) in enumerate(zip(stack.blocks, rates)):
        cols = drop[:, 2 * i:2 * i + 2] if drop is not None and rate > 0 else None
        f = multiway_block(f, bp, cols, keep if i == last else None, weights_sink)
    return f


def pool_cls(f: FusedSequence, stack: FusionStackParams) -> Tensor:
    """Classification vectors: each item's row 0 (its first visual token) ->
    norm -> affine -> tanh, (B, hidden), one graph node."""
    e = stack.extra
    return chain(f.x, [
        (functools.partial(select_fwd, idx=(slice(None), 0)), select_bwd, []),
        (layer_norm_fwd, layer_norm_bwd, [e[f"fusion.pooler_norm.{n}"] for n in ("gamma", "beta")]),
        (linear_fwd, linear_bwd, [e["fusion.pooler.weight"], e["fusion.pooler.bias"]]),
        (tanh_fwd, tanh_bwd, [])])
