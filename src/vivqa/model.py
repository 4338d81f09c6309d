"""The VQA model behind one `VivqaModel.forward(examples, drop=None)`: visual
stubs, adapter and fusion, tokenizer, text encoder and projection, multiway
stack, pooler and classifier; plus the arena and its one checkpoint format,
which holds no frozen extractor.  Its outputs are constants of the image,
kept in a feature store (a dict the harness shares across an experiment's
arms, a table per vision dims and extractor seed): `fill_store` extracts
what a table lacks in `batch_size` chunks.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
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
from .optim import pack
from .rng import RngStream
from .tensor import Tensor, concat, embedding_lookup
from .text import (
    ProjectionParams, TextEncoderParams, Vocabulary, encode as text_encode, project, tokenize,
)
from .vision import (
    StubExtractorParams, adapt_local, extract_global_stub, extract_local_stub, extractor_stream,
    frozen_extractor, fuse, fused_token_count,
)
from .vvqf import read_feature_file

CHECKPOINT_VERSION = 2
_EXEMPT = (".bias", ".gamma", ".beta")      # decay-exempt name suffixes
_CHUNK = 1 << 24                            # bytes per read of `params` into the arena


@functools.cache
def _keep_heap() -> None:
    """Once per process: M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3) at 32 MiB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 32 << 20)
        mallopt(-3, 32 << 20)


class _Draws:
    """Stands in for an init stream while the components are built: each
    draw is an uninitialised array of its shape, noted with the stream and
    scale that draw it, so the model draws it straight into its arena.
    Without a stream (a model `load_checkpoint` fills) nothing is noted."""

    def __init__(self, stream: RngStream | None, notes: list):
        self.stream, self.notes = stream, notes

    def split(self, label: str) -> "_Draws":
        return _Draws(self.stream and self.stream.split(label), self.notes)

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        out = np.empty(shape)
        if self.stream is not None:
            self.notes.append((out, self.stream, scale))
        return out


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
        notes = []
        init_rng = _Draws(RngStream(cfg.seed).split("model-init") if drawn else None, notes)

        if not cfg.freeze_extractors:     # else the class's `extractor`, drawn on first use
            self.extractor = StubExtractorParams(
                dims.vision, seed=cfg.extractor_seed, trainable=True,
                rng=_Draws(extractor_stream(cfg.extractor_seed) if drawn else None, notes))
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
        # One flat arena holds every trainable parameter and one its gradient,
        # as views: decayed parameters (`n_decay` elements), then exempt ones.
        # The constants are copied in; the draws go straight into their views.
        named = {**self.text_params.named_params(), **self.projection.named_params(),
                 **self.fusion.named_params(), **self.classifier.named_params(),
                 **({} if cfg.freeze_extractors else self.extractor.named_params())}
        self._params = dict(sorted(named.items(), key=lambda item: item[0].endswith(_EXEMPT)))
        self.n_decay = sum(p.size for name, p in named.items() if not name.endswith(_EXEMPT))
        recipe = {id(out): (stream, scale) for out, stream, scale in notes}
        draws = [(p, *recipe[id(p.data)]) for p in named.values() if id(p.data) in recipe]
        assert len(draws) == len(notes), "an init draw is not a parameter's array as drawn"
        self.arena, self.grad = pack(self._params, fill=drawn)
        for p, stream, scale in draws:
            stream.normal_into(p.data, scale)
        # (example id, image ref) -> frozen (global, adapted local) tokens, in the
        # store's table of this (vision dims, extractor seed).  The id fixes the
        # pixel-noise seed and the ref the image, so the key fixes the tokens.
        self.store = ({} if store is None or not cfg.freeze_extractors
                      else store.setdefault((dims.vision, cfg.extractor_seed), {}))
        self._tokens = {}       # question -> its read-only TokenizedQuestion
        _keep_heap()        # glibc keeps freed graphs for the next step, see README

    @functools.cached_property
    def extractor(self) -> StubExtractorParams:
        """A frozen model's stubs, drawn on first use (an unfrozen one's are its own)."""
        return frozen_extractor(self.vision_dims, self.cfg.extractor_seed)

    # -- parameters ---------------------------------------------------------

    def trainable_params(self) -> dict[str, Tensor]:
        """Every parameter in the arena, in arena order: all are trainable."""
        return dict(self._params)

    def layout(self) -> list:
        """[name, shape] of every parameter, in arena order."""
        return [[name, list(p.shape)] for name, p in self._params.items()]

    def param_counts(self) -> dict[str, int]:      # a frozen extractor's from its dims, undrawn
        frozen = self.vision_dims.extractor_size if self.cfg.freeze_extractors else 0
        return {"total": self.arena.size + frozen, "trainable": self.arena.size, "frozen": frozen}

    # -- features -----------------------------------------------------------

    def visual_features(self, example: Example) -> tuple[Tensor, Tensor]:
        """Raw (global, local) extractor outputs of one example: the N=1 case
        of `extract`, without its leading axis."""
        return tuple(Tensor(part.data[0]) for part in self.extract([example]))

    def extract(self, examples) -> tuple[Tensor, Tensor]:
        """Raw (global, local) extractor outputs of N examples, (N, ...) each, on the
        stubs' graph: `synthetic:` refs rendered through each stub in one call, the
        others read from their VVQF pairs, which must have the preset's shapes."""
        d = self.vision_dims
        rendered = np.array([ex.image.startswith("synthetic:") for ex in examples], dtype=bool)
        files = [ex for ex, r in zip(examples, rendered) if not r]
        out = [np.empty((len(files),) + shape) for shape in (
            (d.n_tokens, d.token_dim), (d.local_channels, d.grid, d.grid))]
        for i, ex in enumerate(files):
            for part, suffix in zip(out, (".global.vvqf", ".local.vvqf")):
                t = read_feature_file(ex.image + suffix)
                if t.shape != part.shape[1:]:
                    raise DataError(f"{ex.image}{suffix}: shape {t.shape}, "
                                    f"expected {part.shape[1:]}")
                part[i] = t.data
        if not rendered.any():
            return tuple(Tensor(part) for part in out)
        imgs = np.stack([render_synthetic(SyntheticSpec.parse(ex.image), d,
                                          noise_seed=example_noise_seed(ex.id))
                         for ex, r in zip(examples, rendered) if r])
        feats = extract_global_stub(imgs, self.extractor), extract_local_stub(imgs, self.extractor)
        if not files:
            return feats
        rows = np.argsort(np.argsort(~rendered, kind="stable"))     # stub rows, then files'
        return tuple(embedding_lookup(concat([f, Tensor(part)], axis=0), rows)
                     for f, part in zip(feats, out))

    def fill_store(self, examples) -> list:
        """The store keys of `examples`, after extracting the distinct ones the
        store lacks in `batch_size` chunks, one `extract` and one adapter pass
        each (frozen extractors only)."""
        keys = [(ex.id, ex.image) for ex in examples]
        misses = list({k: ex for k, ex in zip(keys, examples) if k not in self.store}.items())
        for start in range(0, len(misses), self.cfg.batch_size):
            chunk = dict(misses[start:start + self.cfg.batch_size])
            glob, local = self.extract(list(chunk.values()))
            self.store.update(zip(chunk, zip(glob.data, adapt_local(local, self.vision_dims).data)))
        return keys

    def vision_tokens(self, examples) -> Tensor:
        """(B, k, hidden) tokens of B examples, adapted and fused once per batch:
        frozen tokens through the store, unfrozen ones (one `extract` graph) never."""
        if not self.cfg.freeze_extractors:
            glob, local = self.extract(examples)
            local = adapt_local(local, self.vision_dims)
        else:
            entries = [self.store[k] for k in self.fill_store(examples)]
            glob, local = (Tensor(np.stack(part)) for part in zip(*entries))
        if self.cfg.vision_mode != "both":
            return glob if self.cfg.vision_mode == "global" else local
        return fuse(glob, local, self.cfg.fusion_op)

    # -- forward ------------------------------------------------------------

    def forward(self, examples: list[Example], drop: np.ndarray | None = None,
                weights_sink: list | None = None) -> Tensor:
        """B examples -> (B, C) logits.  Drop path runs only with `drop`, a
        (B, 2 * layers) `rng.keep_table` whose row i holds item i's masks.
        The last block computes only row 0, which `pool_cls` reads:
        `weights_sink` gets its (B, heads, 1, rows) weights after each inner
        block's (B, heads, rows, rows)."""
        for question in {ex.question for ex in examples} - self._tokens.keys():
            t = self._tokens[question] = tokenize(question, self.vocab, self.cfg.l_max)
            t.ids.flags.writeable = t.mask.flags.writeable = False
        tokens = [self._tokens[ex.question] for ex in examples]
        v = self.vision_tokens(examples)
        q = project(text_encode(np.stack([t.ids for t in tokens]), self.text_params),
                    self.projection)
        fused = concat_modalities(v, q, np.stack([t.mask for t in tokens]), self.fusion)
        fused = fusion_encode(fused, self.fusion, drop, keep=1, weights_sink=weights_sink)
        pooled = pool_cls(fused, self.fusion)
        return classify(pooled, self.classifier)


# ---------------------------------------------------------------------------
# Checkpoints: one .npz holding what `vivqa eval` needs and nothing more --
# the parameter arena as one `params` array, and a `meta` entry with the
# config echo, both vocabularies, the arena's layout and a format version.
# Loading reads only this format and round-trips bitwise.


def save_checkpoint(path, model: VivqaModel) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": json.loads(model.cfg.to_json()),
        "vocab": model.vocab.tokens,
        "answers": model.answer_vocab.answers,
        "layout": model.layout(),
    }
    meta = np.frombuffer(
        json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    tmp = io.BytesIO()
    np.savez(tmp, params=model.arena, meta=meta)
    with open(path, "wb") as fh:
        fh.write(tmp.getvalue())


@contextlib.contextmanager
def _readable(path):
    """A zip or npy read error under it is a FormatError naming `path`."""
    try:
        yield
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise FormatError(f"{path}: unreadable checkpoint: {exc}") from exc


def _read_params(path, zf, member: str, out: np.ndarray) -> None:
    """`member` into the flat float64 `out`: an npy 1.0 header (np.savez's) that gives
    `out.shape`, the data `_CHUNK` bytes at a time, and on to the member's end, where
    zipfile checks its CRC."""
    with _readable(path), zf.open(member) as fh:
        np.lib.format.read_magic(fh)
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        if dtype != np.float64 or shape != out.shape:
            raise FormatError(f"{path}: params is {dtype} {shape}, "
                              f"the layout needs float64 {out.shape}")
        view = memoryview(out).cast("B")
        done = sum(fh.readinto(view[i:i + _CHUNK]) for i in range(0, len(view), _CHUNK))
        if done != len(view) or fh.read(1):
            raise FormatError(f"{path}: params does not hold the {shape} its header gives")


def load_checkpoint(path) -> tuple[VivqaModel, dict]:
    """(model, meta) from a file `save_checkpoint` wrote: `meta` read first, the model
    built undrawn, and `params`, whose `layout` must be the model's, streamed into its
    arena, never held whole."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FormatError(f"{path}: not an npz checkpoint")
    with _readable(path):
        zf = zipfile.ZipFile(path)
    with zf:
        members = {name.removesuffix(".npy"): name for name in zf.namelist()}
        try:
            with _readable(path):
                raw = zf.read(members.pop("meta"))
                meta = json.loads(np.lib.format.read_array(io.BytesIO(raw)).tobytes())
        except (KeyError, FormatError) as exc:
            raise FormatError(f"{path}: checkpoint has no readable meta entry") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: checkpoint meta is not an object")
        version = meta.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:   # not True, 2.0
            raise ConfigError(f"unsupported checkpoint version {version}")
        config, tokens, answers = meta.get("config"), meta.get("vocab"), meta.get("answers")
        if not isinstance(config, dict):
            raise FormatError(f"{path}: checkpoint config is not an object")
        for name, strings in (("vocab", tokens), ("answers", answers)):
            if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
                raise FormatError(f"{path}: checkpoint {name} is not a list of strings")
        if not answers:
            raise FormatError(f"{path}: checkpoint has no answers")
        model = VivqaModel(RunConfig.from_dict(config), Vocabulary(tokens),
                           AnswerVocab(answers, ranked=True), drawn=False)
        layout, want = meta.get("layout"), model.layout()
        if layout != want:
            got = layout if isinstance(layout, list) else [layout]
            i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
            got, want = (repr(x[i]) if i < len(x) else "absent" for x in (got, want))
            raise FormatError(f"{path}: checkpoint layout entry {i} is {got}, the model's {want}")
        if set(members) != {"params"}:
            raise FormatError(f"{path}: checkpoint holds {sorted(members)} beside meta, "
                              f"not ['params']")
        # Into the model's own arena: forwards over arrays on the file's
        # bytes ran tiny-eval 15 % slower.
        _read_params(path, zf, members["params"], model.arena)
    return model, meta


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
