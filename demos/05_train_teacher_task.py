#!/usr/bin/env python3
"""Train a student network to imitate a frozen random teacher.

A frozen spiking network labels random inputs by its own decoded
prediction, yielding a learnable two-class task. A wider student then
fits those labels with the full weight-threshold-leakage rule; finishes
in a few seconds. A smaller ablation pass compares the weights-only and
fully synergistic modes plus the unrolled temporal-backprop baseline.
"""
import tempfile
from pathlib import Path

from stopsnn.ablation import run_ablation
from stopsnn.config import TrainConfig
from stopsnn.trainer import train

workdir = Path(tempfile.mkdtemp(prefix="stopsnn_demo_"))
config = TrainConfig(
    arch="32-2",
    input_shape=(8,),
    num_classes=2,
    dataset={"kind": "teacher", "n_train": 150, "n_test": 60, "arch": "6-2"},
    time_steps=6,
    mode="WTL",
    epochs=20,
    batch_size=8,
    seed=3,
    eta_w=5e-2,
    eta_theta=1e-3,
    eta_alpha=1e-3,
    checkpoint_path=str(workdir / "checkpoint.json"),
    metrics_path=str(workdir / "metrics.jsonl"),
)

print("training a 32-unit student on a 6-unit teacher's labels:")
result = train(config, log=print)
final = result.metrics[-1]
print(f"\nfinal: train acc {final['train_acc']:.3f}, test acc {final['test_acc']:.3f}")
print(f"learned leakages per layer: "
      f"{[round(p.leak, 4) for p in result.params if p is not None]} (started at 1/e = 0.3679)")
print(f"artifacts in {workdir}")

print("\nsynergy ablation over 2 seeds (weights-only vs full synergy vs unrolled baseline):")
outcome = run_ablation(config.with_overrides(epochs=10), seeds=(0, 1))
print(outcome.summary())
