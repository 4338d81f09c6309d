"""The VQA model behind one `VivqaModel.forward(examples, rngs=None)`: visual
stubs, adapter and fusion, tokenizer, text encoder and projection, multiway
stack, pooler and classifier; plus the parameter registry and checkpoints.

Frozen extractor outputs are constants of the image, kept in a feature store
(a plain dict the harness shares across an experiment's arms): a minibatch
extracts only the images the store lacks, and adapts them in one pass.
"""
from __future__ import annotations

import io
import json
import os
import zipfile
import zlib

import numpy as np

from .classifier import ClassifierParams, classify
from .config import RunConfig
from .data import AnswerVocab, Example, SyntheticSpec, example_noise_seed, render_synthetic
from .errors import ConfigError, DataError, FormatError
from .multiway import (
    FusionStackParams, concat_modalities, encode as fusion_encode, pool_cls,
)
from .rng import RngStream
from .tensor import Tensor, stack
from .text import (
    ProjectionParams, TextEncoderParams, Vocabulary, encode as text_encode, project, tokenize,
)
from .vision import (
    StubExtractorParams, adapt_local, extract_global_stub, extract_local_stub, fuse,
    fused_token_count,
)
from .vvqf import read_feature_file

CHECKPOINT_VERSION = 1


class _Undrawn:
    """Stands in for the init streams of a model whose checkpoint fills
    every parameter: each draw is an uninitialised array of its shape."""

    def split(self, label: str) -> "_Undrawn":
        return self

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        return np.empty(shape)


class VivqaModel:
    def __init__(self, cfg: RunConfig, vocab: Vocabulary, answer_vocab: AnswerVocab,
                 store: dict | None = None, drawn: bool = True):
        """With `drawn=False` no parameter is drawn from its init stream;
        `load_checkpoint` then fills them all."""
        self.cfg = cfg
        self.vocab = vocab
        self.answer_vocab = answer_vocab
        dims = cfg.dims
        self.vision_dims = dims.vision
        undrawn = None if drawn else _Undrawn()
        init_rng = undrawn or RngStream(cfg.seed).split("model-init")

        self.extractor = StubExtractorParams(
            dims.vision, seed=cfg.extractor_seed, trainable=not cfg.freeze_extractors,
            rng=undrawn)
        self.text_params = TextEncoderParams(
            len(vocab), dims.text_width, cfg.l_max, init_rng.split("text"))
        self.projection = ProjectionParams(dims.text_width, dims.hidden,
                                           init_rng.split("proj"))
        k = dims.vision.n_tokens
        if cfg.vision_mode == "both":
            k = fused_token_count(cfg.fusion_op, k)
        self.vision_rows = k
        max_rows = k + cfg.l_max + 2
        self.fusion = FusionStackParams(cfg, max_rows, init_rng.split("fusion"))
        self.classifier = ClassifierParams(dims.hidden, len(answer_vocab),
                                           init_rng.split("classifier"))
        # (vision dims, extractor seed, example id, image ref) -> frozen
        # (global, adapted local) tokens.  The id fixes the pixel-noise seed
        # and the ref the image, so the key fixes the tokens for any model.
        self.store = {} if store is None else store

    # -- parameters ---------------------------------------------------------

    def trainable_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.text_params.named_params())
        out.update(self.projection.named_params())
        out.update(self.fusion.named_params())
        out.update(self.classifier.named_params())
        if not self.cfg.freeze_extractors:
            out.update(self.extractor.named_params())
        return out

    def all_params(self) -> dict[str, Tensor]:
        out = self.trainable_params()
        out.update(self.extractor.named_params())
        return out

    def decay_exempt_names(self) -> set[str]:
        return {
            name for name in self.trainable_params()
            if name.endswith((".bias", ".gamma", ".beta"))
        }

    def param_counts(self) -> dict[str, int]:
        trainable = sum(p.size for p in self.trainable_params().values())
        total = sum(p.size for p in self.all_params().values())
        return {"total": total, "trainable": trainable, "frozen": total - trainable}

    # -- features -----------------------------------------------------------

    def visual_features(self, example: Example) -> tuple[Tensor, Tensor]:
        """Raw (global, local) extractor outputs of one example, rendered
        from a `synthetic:` ref or read from the ref's VVQF pair, whose
        shapes must be the preset's extractor output shapes."""
        d = self.vision_dims
        if example.image.startswith("synthetic:"):
            img = render_synthetic(SyntheticSpec.parse(example.image), d,
                                   noise_seed=example_noise_seed(example.id))
            return extract_global_stub(img, self.extractor), extract_local_stub(img, self.extractor)
        pair = []
        for suffix, want in ((".global.vvqf", (d.n_tokens, d.token_dim)),
                             (".local.vvqf", (d.local_channels, d.grid, d.grid))):
            t = read_feature_file(example.image + suffix)
            if t.shape != want:
                raise DataError(f"{example.image}{suffix}: shape {t.shape}, expected {want}")
            pair.append(Tensor(t.data.astype(np.float64)))
        return tuple(pair)

    def vision_tokens(self, examples) -> Tensor:
        """(B, k, hidden) tokens of B examples, adapted and fused once per batch.
        The store extracts and adapts only the distinct keys it lacks; tokens
        of unfrozen extractors, which train, are never stored."""
        if not self.cfg.freeze_extractors:
            feats = [self.visual_features(ex) for ex in examples]
            glob = stack([g for g, _ in feats])
            local = adapt_local(stack([l for _, l in feats]), self.vision_dims)
        else:
            keys = [(self.vision_dims, self.cfg.extractor_seed, ex.id, ex.image) for ex in examples]
            misses = {k: ex for k, ex in zip(keys, examples) if k not in self.store}
            if misses:
                feats = [self.visual_features(ex) for ex in misses.values()]
                rows = adapt_local(Tensor(np.stack([l.data for _, l in feats])), self.vision_dims)
                self.store.update(zip(misses, zip([g.data for g, _ in feats], rows.data)))
            glob = Tensor(np.stack([self.store[k][0] for k in keys]))
            local = Tensor(np.stack([self.store[k][1] for k in keys]))
        if self.cfg.vision_mode != "both":
            return glob if self.cfg.vision_mode == "global" else local
        return fuse(glob, local, self.cfg.fusion_op)

    # -- forward ------------------------------------------------------------

    def forward(self, examples: list[Example], rngs: list[RngStream] | None = None,
                weights_sink: list | None = None) -> Tensor:
        """B examples -> (B, C) logits.  Drop path runs only with `rngs`,
        rngs[i] being item i's stream for its drop-path draws.  The last block
        computes only row 0, which `pool_cls` reads: `weights_sink` gets its
        (B, heads, 1, rows) weights after each inner block's (B, heads, rows, rows)."""
        tokens = [tokenize(ex.question, self.vocab, self.cfg.l_max) for ex in examples]
        v = self.vision_tokens(examples)
        q = project(text_encode(np.stack([t.ids for t in tokens]), self.text_params),
                    self.projection)
        fused = concat_modalities(v, q, np.stack([t.mask for t in tokens]), self.fusion)
        fused = fusion_encode(fused, self.fusion, rngs, keep=1, weights_sink=weights_sink)
        pooled = pool_cls(fused, self.fusion)
        return classify(pooled, self.classifier)


# ---------------------------------------------------------------------------
# Checkpoints: one .npz holding what `vivqa eval` needs and nothing more --
# every parameter, the config echo, both vocabularies and a format version.
# Save/load round-trips bitwise.


def save_checkpoint(path, model: VivqaModel) -> None:
    arrays = {f"param::{name}": p.data for name, p in model.all_params().items()}
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": json.loads(model.cfg.to_json()),
        "vocab": model.vocab.tokens,
        "answers": model.answer_vocab.answers,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    tmp = io.BytesIO()
    np.savez(tmp, **arrays)
    with open(path, "wb") as fh:
        fh.write(tmp.getvalue())


def _read_npz(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FormatError(f"{path}: not an npz checkpoint")
        fh.seek(0)
        try:
            with np.load(fh) as z:
                return {k: z[k] for k in z.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise FormatError(f"{path}: unreadable checkpoint: {exc}") from exc


def load_checkpoint(path) -> tuple[VivqaModel, dict]:
    """(model, meta) from a checkpoint whose `param::` entries match the
    rebuilt model's parameters exactly, by name and shape.  The model is
    built undrawn, so its parameters hold only the checkpoint's arrays."""
    arrays = _read_npz(path)
    try:
        meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: checkpoint has no readable meta entry") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: checkpoint meta is not an object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
    try:
        config, tokens, answers = meta["config"], meta["vocab"], meta["answers"]
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint meta has no {exc} field") from exc
    if not isinstance(config, dict):
        raise FormatError(f"{path}: checkpoint config is not an object")
    for name, strings in (("vocab", tokens), ("answers", answers)):
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise FormatError(f"{path}: checkpoint {name} is not a list of strings")
    if not answers:
        raise FormatError(f"{path}: checkpoint has no answers")
    model = VivqaModel(RunConfig.from_dict(config), Vocabulary(tokens),
                       AnswerVocab(answers, ranked=True), drawn=False)
    params = {f"param::{name}": p for name, p in model.all_params().items()}
    mismatched = sorted(set(arrays) ^ set(params))
    if mismatched:
        kind = "unknown" if mismatched[0] in arrays else "missing"
        raise FormatError(f"{path}: {kind} checkpoint entry {mismatched[0]!r}")
    for key, p in params.items():
        if arrays[key].shape != p.shape or arrays[key].dtype != np.float64:
            raise FormatError(f"{path}: {key!r} is {arrays[key].dtype} {arrays[key].shape}, "
                              f"the model expects float64 {p.shape}")
        # A copy, not the array np.load returned: forwards over the latter
        # ran tiny-eval's predict steps about 15 % slower.
        p.data = np.array(arrays[key])
    return model, meta


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
