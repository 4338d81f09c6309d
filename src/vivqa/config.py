"""Run configuration: Table-2 style training hyperparameters plus artifact
plumbing (scale preset, fusion op, freeze flags, paths).

The "paper" preset pins the published dimensions (hidden 768, text 1024,
32 query tokens, 2560x7x7 local grid); "tiny" shrinks every dimension while
preserving the structural ratios so shape and gradient properties transfer.
Dropout does not exist anywhere in the model; drop path is the only
stochastic regularizer.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

from .errors import ConfigError
from .vision import FUSION_OPS, VisionDims

PRESETS = ("paper", "tiny")
VISION_MODES = ("both", "global", "local")
_FIELD_TYPES = dict(int=Integral, float=Real, bool=bool, str=str, tuple=(tuple, list))


@dataclass(frozen=True)
class PresetDims:
    vision: VisionDims
    text_width: int
    hidden: int
    expert_ffn_width: int
    default_l_max: int


@functools.cache    # one shared, frozen PresetDims per preset: store keys compare by identity
def preset_dims(preset: str) -> PresetDims:
    if preset == "paper":
        return PresetDims(
            vision=VisionDims(image_size=224, channels=3, block=32, n_tokens=32,
                              token_dim=768, local_channels=2560),
            text_width=1024, hidden=768, expert_ffn_width=3072, default_l_max=26)
    if preset == "tiny":
        return PresetDims(
            vision=VisionDims(image_size=28, channels=3, block=4, n_tokens=8,
                              token_dim=24, local_channels=16),
            text_width=32, hidden=24, expert_ffn_width=96, default_l_max=6)
    raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")


@dataclass
class RunConfig:
    # Table-2 training hyperparameters
    epochs: int = 20
    layers: int = 6
    heads: int = 6
    batch_size: int = 65
    adam_eps: float = 1e-8
    adam_betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.01
    lr: float = 3e-5
    warmup_ratio: float = 0.1
    floor_lr: float = 0.0
    drop_path: float = 0.3
    # artifact-level fields
    preset: str = "paper"
    fusion_op: str = "concatenate"
    vision_mode: str = "both"
    freeze_extractors: bool = True
    seed: int = 0
    extractor_seed: int = 777
    l_max: int | None = None
    split_ratio: float = 0.8
    early_stop_train_acc: float | None = None
    data: str | None = None
    eval_data: str | None = None
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            # bool is an Integral, but a JSON true is no layer count.
            if not (value is None and optional or isinstance(value, _FIELD_TYPES[kind])
                    and (kind == "bool" or not isinstance(value, bool))):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.fusion_op not in FUSION_OPS:
            raise ConfigError(f"unknown fusion op {self.fusion_op!r}")
        if self.vision_mode not in VISION_MODES:
            raise ConfigError(f"unknown vision mode {self.vision_mode!r}")
        dims = preset_dims(self.preset)
        if self.l_max is None:
            self.l_max = dims.default_l_max
        self.adam_betas = tuple(self.adam_betas)
        for name, ok, want in (
                ("heads", self.heads >= 1, ">= 1"), ("layers", self.layers >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"), ("epochs", self.epochs >= 0, ">= 0"),
                ("l_max", self.l_max >= 1, ">= 1"), ("lr", self.lr > 0, "> 0"),
                ("floor_lr", 0 <= self.floor_lr <= self.lr, "in [0, lr]"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("adam_eps", self.adam_eps > 0, "> 0"),
                ("warmup_ratio", 0 <= self.warmup_ratio < 1, "in [0, 1)"),
                ("split_ratio", 0 < self.split_ratio <= 1, "in (0, 1]"),
                ("drop_path", 0 <= self.drop_path < 1, "in [0, 1)"),
                ("early_stop_train_acc", self.early_stop_train_acc is None
                 or 0 < self.early_stop_train_acc <= 1, "in (0, 1]"),
                ("adam_betas", len(self.adam_betas) == 2 and all(
                    isinstance(b, Real) and not isinstance(b, bool) and 0 <= b < 1
                    for b in self.adam_betas),
                 "two numbers in [0, 1)")):
            if not ok:
                raise ConfigError(f"{name} must be {want}, got {getattr(self, name)!r}")
        if dims.hidden % self.heads != 0:
            raise ConfigError(f"heads {self.heads} does not divide hidden {dims.hidden}")

    @property
    def dims(self) -> PresetDims:
        return preset_dims(self.preset)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_config_file(path))


def read_config_file(path) -> dict:
    """The JSON object a config file holds; anything else is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj
