"""Full pipeline assembly: frozen (or unfrozen) visual stubs, adapter and
fusion, text encoder and projection, multiway stack, pooler, classifier —
plus the parameter registry and checkpoint serialization.
"""
from __future__ import annotations

import io
import json
import os

import numpy as np

from .classifier import ClassifierParams, classify
from .config import RunConfig
from .data import AnswerVocab, Example, SyntheticSpec, example_noise_seed, render_synthetic
from .errors import ConfigError
from .multiway import (
    FusionConfig, FusionStackParams, concat_modalities, encode as fusion_encode, pool_cls,
)
from .rng import RngStream
from .tensor import Tensor, stack
from .text import (
    ProjectionParams, TextEncoderParams, TokenizedQuestion, Vocabulary,
    encode as text_encode, project,
)
from .vision import (
    StubExtractorParams, adapt_local, extract_global_stub, extract_local_stub, fuse,
    fused_token_count,
)
from .vvqf import read_feature_file

CHECKPOINT_VERSION = 1


class VivqaModel:
    def __init__(self, cfg: RunConfig, vocab: Vocabulary, answer_vocab: AnswerVocab,
                 n_local_cues: int | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.answer_vocab = answer_vocab
        self.n_local_cues = n_local_cues
        dims = cfg.dims
        self.vision_dims = dims.vision
        init_rng = RngStream(cfg.seed).split("model-init")

        self.extractor = StubExtractorParams(
            dims.vision, seed=cfg.extractor_seed, trainable=not cfg.freeze_extractors)
        self.text_params = TextEncoderParams(
            len(vocab), dims.text_width, cfg.l_max, init_rng.split("text"))
        self.projection = ProjectionParams(dims.text_width, dims.hidden,
                                           init_rng.split("proj"))
        self.fusion_cfg = FusionConfig(
            layers=cfg.layers, heads=cfg.heads, hidden=dims.hidden,
            expert_ffn_width=dims.expert_ffn_width, drop_path_rate=cfg.drop_path,
            use_position_embeddings=cfg.use_position_embeddings,
            use_modality_type_embeddings=cfg.use_modality_type_embeddings,
            cls_row=cfg.cls_row)
        k = dims.vision.n_tokens
        if cfg.vision_mode == "both":
            k = fused_token_count(cfg.fusion_op, k)
        self.vision_rows = k
        max_rows = k + cfg.l_max + 2
        self.fusion = FusionStackParams(self.fusion_cfg, max_rows, init_rng.split("fusion"))
        self.classifier = ClassifierParams(dims.hidden, len(answer_vocab),
                                           init_rng.split("classifier"))
        # (example id, image ref) -> frozen vision tokens.  The id fixes the
        # pixel-noise seed and the ref the image, so together they fix the tokens.
        self._token_cache: dict[tuple[str, str], np.ndarray] = {}

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

    def _raw_image(self, example: Example) -> np.ndarray:
        spec = SyntheticSpec.parse(example.image)
        n_local = self.n_local_cues
        if n_local is None:
            n_local = spec.local_cue + 1
        return render_synthetic(spec, self.vision_dims, max(n_local, spec.local_cue + 1),
                                noise_seed=example_noise_seed(example.id))

    def visual_features(self, example: Example) -> tuple[Tensor, Tensor]:
        """(global, local) feature tensors.  Frozen extractor outputs stay
        off the gradient tape."""
        if example.image.startswith("synthetic:"):
            img = self._raw_image(example)
            g = extract_global_stub(img, self.extractor)
            l = extract_local_stub(img, self.extractor)
        else:
            g = read_feature_file(example.image + ".global.vvqf")
            l = read_feature_file(example.image + ".local.vvqf")
            g = Tensor(g.data.astype(np.float64))
            l = Tensor(l.data.astype(np.float64))
        if self.cfg.freeze_extractors:
            g, l = g.detach(), l.detach()
        return g, l

    def vision_tokens(self, example: Example) -> Tensor:
        """(k, hidden) vision tokens of one example.  The adapter and fusion
        are parameter-free, so with frozen extractors the whole vision path
        is a constant per example, computed once."""
        frozen = self.cfg.freeze_extractors
        key = (example.id, example.image)
        if frozen and key in self._token_cache:
            return Tensor(self._token_cache[key])
        g, l = self.visual_features(example)
        mode = self.cfg.vision_mode
        if mode == "global":
            out = g
        else:
            adapted = adapt_local(l, self.vision_dims)
            out = adapted if mode == "local" else fuse(g, adapted, self.cfg.fusion_op)
        if frozen:
            out = out.detach()
            self._token_cache[key] = out.data
        return out

    # -- forward ------------------------------------------------------------

    def forward(self, batch: list[tuple[Example, TokenizedQuestion]],
                training: bool = False, rngs: list[RngStream] | None = None) -> Tensor:
        """B (image, question) pairs -> (B, C) logits.  In training, rngs[i]
        is item i's stream for its drop-path draws."""
        v = stack([self.vision_tokens(ex) for ex, _ in batch])
        ids = np.stack([tokens.ids for _, tokens in batch])
        mask = np.stack([tokens.mask for _, tokens in batch])
        q = project(text_encode(ids, self.text_params), self.projection)
        fused = concat_modalities(v, q, mask, self.fusion)
        fused = fusion_encode(fused, self.fusion, training, rngs)
        pooled = pool_cls(fused, self.fusion)
        return classify(pooled, self.classifier)


# ---------------------------------------------------------------------------
# Checkpoints: one .npz holding parameters, optimizer state, config echo,
# both vocabularies, and a format version.  Save/load round-trips bitwise.


def save_checkpoint(path, model: VivqaModel, optimizer=None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.all_params().items():
        arrays[f"param::{name}"] = p.data
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": json.loads(model.cfg.to_json()),
        "vocab": model.vocab.tokens,
        "answers": model.answer_vocab.answers,
        "n_local_cues": model.n_local_cues,
        "opt_t": optimizer.t if optimizer is not None else None,
    }
    if optimizer is not None:
        for key, arr in optimizer.state_arrays().items():
            arrays[f"opt::{key}"] = arr
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    tmp = io.BytesIO()
    np.savez(tmp, **arrays)
    with open(path, "wb") as fh:
        fh.write(tmp.getvalue())


def load_checkpoint(path) -> tuple[VivqaModel, dict]:
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays.pop("meta").tobytes()).decode("utf-8"))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
    cfg = RunConfig.from_dict(meta["config"])
    vocab = Vocabulary(list(meta["vocab"]))
    answer_vocab = AnswerVocab.__new__(AnswerVocab)
    answer_vocab.answers = list(meta["answers"])
    answer_vocab.index = {a: i for i, a in enumerate(answer_vocab.answers)}
    model = VivqaModel(cfg, vocab, answer_vocab, n_local_cues=meta.get("n_local_cues"))
    params = model.all_params()
    for key, arr in arrays.items():
        if key.startswith("param::"):
            name = key[len("param::"):]
            if name in params:
                params[name].data = np.array(arr)
    opt_state = {k[len("opt::"):]: v for k, v in arrays.items() if k.startswith("opt::")}
    return model, {"opt_state": opt_state, "opt_t": meta.get("opt_t")}


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
