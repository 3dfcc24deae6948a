"""Training configuration: JSON-backed, CLI-overridable, digestible."""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .learning import LossKind, SynergyMode
from .lif import SurrogateKind
from .topology import InitMode


def read_json(path, what: str):
    """The JSON value in a user-named file; an unreadable or invalid file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


@dataclass
class TrainConfig:
    """Everything a training run needs; all fields map 1:1 onto config JSON
    keys and CLI override flags of the same name."""

    arch: str = "16-10"
    input_shape: tuple = (10,)
    num_classes: int = 10
    dataset: dict = field(default_factory=lambda: {"kind": "teacher", "n_train": 200, "n_test": 100})
    time_steps: int = 6
    mode: str = "WTL"
    loss: str = "ce"
    surrogate: str = "exp_abs"
    eta_w: float = 1e-2
    eta_theta: float = 1e-4
    eta_alpha: float = 1e-4
    weight_decay: float = 0.0
    momentum: float = 0.9
    momentum_scope: str = "weights"  # or "all"
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    init_mode: str = "fan_in_scaled"
    epsilon: float = 0.01
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.jsonl"
    resume: bool = False

    def __post_init__(self):
        try:
            self.input_shape = tuple(int(d) for d in (
                (self.input_shape,) if isinstance(self.input_shape, int) else self.input_shape
            ))
            self.validate()
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # a field of the wrong type
            raise ConfigError(f"invalid config: {exc}") from exc

    def validate(self):
        try:
            mode = SynergyMode(self.mode)
            LossKind(self.loss)
            SurrogateKind(self.surrogate)
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
        if self.momentum_scope not in ("weights", "all"):
            raise ConfigError("momentum_scope must be 'weights' or 'all'")
        if self.epochs < 0 or self.batch_size < 1 or self.time_steps < 1:
            raise ConfigError("epochs must be >= 0; batch_size and time_steps >= 1")
        if self.epsilon <= 0:
            raise ConfigError("threshold floor epsilon must be positive")
        if not isinstance(self.dataset, dict) or "kind" not in self.dataset:
            raise ConfigError("dataset must be a mapping with a 'kind' entry")
        if not isinstance(self.arch, str):
            raise ConfigError("arch must be an architecture string")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["input_shape"] = list(self.input_shape)
        return data

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        merged = dict(data)
        merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(merged) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**merged)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "TrainConfig":
        return cls.from_dict(read_json(path, "config"), overrides)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def with_overrides(self, **overrides) -> "TrainConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    # -- identity -----------------------------------------------------------

    def model_digest(self) -> str:
        """Digest of the fields that define the parameter tensors; a
        checkpoint refuses to load under a different digest."""
        essence = {
            "arch": self.arch,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "time_steps": self.time_steps,
            "surrogate": self.surrogate,
            "init_mode": self.init_mode,
            "seed": self.seed,
        }
        blob = json.dumps(essence, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
