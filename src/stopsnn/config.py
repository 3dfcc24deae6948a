"""Training configuration: JSON-backed, CLI-overridable and digestible (a
checkpoint stores the config, and loading recomputes its digest from it). Each
field is checked once, when a TrainConfig is made: its JSON type against its
annotation (a bool is not a number, an int is a float, floats are finite), then its value.
Settings with one value in use are constants, not fields: NetworkSpec's default
surrogate, and the threshold floor learning.THRESHOLD_FLOOR."""
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .learning import LossKind, SynergyMode
from .topology import InitMode


def read_json(path, what: str):
    """The JSON value in a user-named file; an unreadable or invalid file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


# what a value of each JSON type is; input_shape is the one tuple field
_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
             dict: "an object", tuple: "a positive integer or a list of them"}


def _is(kind: type, value) -> bool:
    """isinstance for JSON types: a bool is only a bool, and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_json(what: str, kind: type, value):
    """value, as a field annotated kind holds it; a ConfigError naming what if its JSON type does not fit."""
    if kind is tuple:
        dims = [value] if _is(int, value) else value
        if isinstance(dims, (list, tuple)) and dims and all(_is(int, d) and d >= 1 for d in dims):
            return tuple(dims)
    elif _is(kind, value) and (kind is not float or abs(value) <= sys.float_info.max):
        return value
    raise ConfigError(f"{what} must be {_EXPECTED[kind]}, got {value!r}")


@dataclass
class TrainConfig:
    """Everything a training run needs; every field is a config JSON key of
    the same name. stopsnn train overrides 15 of them by flag (cli.TRAIN_FLAGS);
    input_shape, num_classes, dataset and init_mode
    come from the config file alone."""

    arch: str = "16-10"
    input_shape: tuple = (10,)
    num_classes: int = 10
    dataset: dict = field(default_factory=lambda: {"kind": "teacher", "n_train": 200, "n_test": 100})
    time_steps: int = 6
    mode: str = "WTL"
    loss: str = "ce"
    eta_w: float = 1e-2
    eta_theta: float = 1e-4
    eta_alpha: float = 1e-4
    weight_decay: float = 0.0
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    init_mode: str = "fan_in_scaled"
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.jsonl"
    resume: bool = False

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, check_json(f"config field {f.name!r}", f.type, getattr(self, f.name)))
        try:
            mode = SynergyMode(self.mode)
            LossKind(self.loss)
            InitMode(self.init_mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.eta_w < 0:
            raise ConfigError("eta_w must be non-negative")
        if mode.trains_thresholds and self.eta_theta < 0:
            raise ConfigError(f"mode {self.mode} trains thresholds; eta_theta must be non-negative")
        if mode.trains_leakages and self.eta_alpha < 0:
            raise ConfigError(f"mode {self.mode} trains leakages; eta_alpha must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be non-negative")
        if self.epochs < 0 or self.batch_size < 1 or self.time_steps < 1:
            raise ConfigError("epochs must be >= 0; batch_size and time_steps >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if "kind" not in self.dataset:
            raise ConfigError("dataset must have a 'kind' entry")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {**asdict(self), "input_shape": list(self.input_shape)}

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        merged = dict(data)
        merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
        unknown = set(merged) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**merged)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "TrainConfig":
        return cls.from_dict(read_json(path, "config"), overrides)

    def with_overrides(self, **overrides) -> "TrainConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    # -- identity -----------------------------------------------------------

    def model_digest(self) -> str:
        """Digest of the fields that define the parameter tensors; a
        checkpoint whose stored config digests otherwise refuses to load."""
        essence = {k: getattr(self, k) for k in (
            "arch", "input_shape", "num_classes", "time_steps", "init_mode", "seed")}
        blob = json.dumps(essence, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
