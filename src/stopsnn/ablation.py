"""Desk-scale synergy ablation: streaming rule variants against a
temporally-backward baseline.

Trains the same task under the weights-only and fully synergistic modes of
the streaming rule, plus a weights-only baseline whose gradients come from
the fully unrolled temporal backpropagation sweep (reset feedback
included). All three arms run through trainer.train and differ only in the
gradient engine; each reports its last epoch's running train accuracy.
The baseline is reported for direction, not gated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .learning import GradAccumulator, LossKind, SynergyMode, infer_batch, validate_one_hot
from .oracle import unrolled_stbp_gradients
from .topology import NetworkSpec
from .trainer import train


@dataclass
class AblationOutcome:
    per_seed: dict  # seed -> {"W": acc, "WTL": acc, "STBP": acc}

    def _mean(self, arm: str) -> float:
        return float(np.mean([row[arm] for row in self.per_seed.values()]))

    mean_w = property(lambda self: self._mean("W"))
    mean_wtl = property(lambda self: self._mean("WTL"))
    mean_stbp = property(lambda self: self._mean("STBP"))

    def summary(self) -> str:
        lines = [f"seed {seed}: " + ", ".join(f"{k}={v:.3f}" for k, v in row.items())
                 for seed, row in sorted(self.per_seed.items())]
        lines.append(
            f"means: W={self.mean_w:.3f}, WTL={self.mean_wtl:.3f}, STBP baseline={self.mean_stbp:.3f}"
        )
        return "\n".join(lines)


def unrolled_learn_batch(spec: NetworkSpec, params, frames, targets, mode: SynergyMode = SynergyMode.W,
                         loss: LossKind = LossKind.CE, audit: dict | None = None) -> GradAccumulator:
    """The baseline's gradient engine, with learn_batch's contract.

    Each sample of the batch is recorded on a full-history tape and swept
    backward through layers and time, reset feedback included; only weights
    learn, whatever the mode. The audit's loss and predictions come from
    infer_batch over the same window.
    """
    steps = list(frames)
    targets = validate_one_hot(targets, spec.num_classes)
    acc = GradAccumulator.zeros(spec, SynergyMode.W)
    for b, target in enumerate(targets):
        grads = unrolled_stbp_gradients(
            spec, params, [step[b] for step in steps], target, mode=SynergyMode.W, loss=loss, include_illusory=True
        )
        for i in spec.lif_indices:
            acc.dw[i] += grads.dw[i]
    acc.samples = len(targets)
    if audit is not None:
        audit["prediction"], audit["loss"] = infer_batch(spec, params, steps, targets, loss)
    return acc


def run_ablation(base_config: TrainConfig, seeds=(0, 1, 2)) -> AblationOutcome:
    arms = (("W", "W", None), ("WTL", "WTL", None), ("STBP", "W", unrolled_learn_batch))
    per_seed = {}
    for seed in seeds:
        per_seed[seed] = {
            name: train(base_config.with_overrides(seed=seed, mode=mode), learn=learn).metrics[-1]["train_acc"]
            for name, mode, learn in arms
        }
    return AblationOutcome(per_seed=per_seed)
