"""Training loop, evaluation, checkpointing, and metrics emission.

The loop follows the streaming rule one mini-batch at a time: a single
batched learn call per batch accumulates the batch's summed gradients,
weights take an SGD-with-momentum step, thresholds and leakages take
plain truncated steps (switchable to momentum via momentum_scope="all"),
and all three learning rates follow one cosine annealing schedule.
Evaluation runs the same batched forward sweep over slices of the set.
Metrics go to a JSON-lines file with a CSV mirror; a checkpoint is
written after every epoch, atomically.
"""
from __future__ import annotations

import base64
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets as ds
from .config import TrainConfig
from .errors import ConfigError, DataError, NumericError
from .learning import (  # noqa: F401 -- learn_sample stays importable here for tools that wrap it
    LossKind,
    SynergyMode,
    apply_updates,
    learn_batch,
    learn_sample,
    loss_value,
)
from .lif import SpikeMode, SurrogateKind
from .topology import (
    InitMode,
    LayerParams,
    NetworkSpec,
    forward_timestep,
    init_params,
    parse_architecture,
    reset_network,
)

CHECKPOINT_VERSION = 1


def cosine_lr(initial: float, epoch: int, total_epochs: int) -> float:
    """Half-cosine decay from the initial rate to zero across the run."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside schedule of {total_epochs}")
    return 0.5 * initial * (1.0 + math.cos(math.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# dataset assembly

def _load_manifest(path) -> list[tuple[Path, int]]:
    base = Path(path).parent
    entries = []
    for ln, line in enumerate(Path(path).read_text().strip().splitlines(), start=1):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"bad manifest line {ln} in {path}: {line!r}")
        entries.append((base / parts[0], int(parts[1])))
    if not entries:
        raise DataError(f"empty manifest {path}")
    return entries


def load_dataset(config: TrainConfig) -> tuple[list, list]:
    """Materialize (train, test) sample lists for the configured source."""
    options = dict(config.dataset)
    kind = options.pop("kind")
    steps = config.time_steps
    if kind == "idx":
        train = ds.dataset_from_images(
            *ds.load_idx(options["train_images"], options["train_labels"]),
            time_steps=steps, num_classes=config.num_classes,
            max_value=options.get("max_value", 255.0),
        )
        test = ds.dataset_from_images(
            *ds.load_idx(options["test_images"], options["test_labels"]),
            time_steps=steps, num_classes=config.num_classes,
            max_value=options.get("max_value", 255.0),
        )
        return train, test
    if kind == "glyphs":
        n_train, n_test = int(options.get("n_train", 1000)), int(options.get("n_test", 300))
        side = int(options.get("side", 28))
        noise = float(options.get("noise", 12.0))
        seed = int(options.get("seed", config.seed))
        images, labels = ds.synthetic_glyphs(seed, n_train + n_test, side=side, noise=noise)
        all_samples = ds.dataset_from_images(images, labels, steps, config.num_classes)
        return all_samples[:n_train], all_samples[n_train:]
    if kind == "teacher":
        n_train, n_test = int(options.get("n_train", 200)), int(options.get("n_test", 100))
        seed = int(options.get("seed", config.seed))
        arch = options.get("arch", config.arch)
        teacher_spec = parse_architecture(
            arch, config.input_shape, config.num_classes,
            time_steps=steps, surrogate=SurrogateKind(config.surrogate),
        )
        samples, _ = ds.synthetic_teacher(seed, teacher_spec, n_train + n_test)
        return samples[:n_train], samples[n_train:]
    if kind == "events":
        out = []
        for key in ("train_manifest", "test_manifest"):
            samples = []
            for path, label in _load_manifest(options[key]):
                stream = ds.load_event_stream(path)
                frames = ds.slice_events(stream, steps, normalize=options.get("normalize", True))
                samples.append(ds.Sample.from_frames(frames, label, config.num_classes))
            out.append(samples)
        return out[0], out[1]
    raise ConfigError(f"unknown dataset kind {kind!r}")


def build_network(config: TrainConfig) -> NetworkSpec:
    return parse_architecture(
        config.arch, config.input_shape, config.num_classes,
        time_steps=config.time_steps, surrogate=SurrogateKind(config.surrogate),
    )


# ---------------------------------------------------------------------------
# evaluation

# evaluation runs the forward sweep over slices of at most this many samples,
# which bounds its memory whatever the size of the set
EVAL_BATCH = 32


def evaluate(spec: NetworkSpec, params, dataset, loss: LossKind = LossKind.CE) -> tuple[float, float]:
    """(accuracy, mean total loss) of hard-mode inference over a dataset.

    The prediction is the class with the most output spikes over the
    window, ties going to the lowest index.
    """
    if not dataset:
        raise DataError("cannot evaluate an empty dataset")
    hits = 0
    total_loss = 0.0
    for start in range(0, len(dataset), EVAL_BATCH):
        chunk = dataset[start : start + EVAL_BATCH]
        targets = ds.batch_targets(chunk)
        states = reset_network(spec, len(chunk))
        counts = np.zeros(targets.shape)
        for frame in ds.batch_frames(chunk):
            states, out = forward_timestep(spec, params, states, frame, SpikeMode.HARD)
            counts += out
            total_loss += loss_value(out, targets, loss)
        hits += int(np.count_nonzero(counts.argmax(axis=1) == [s.label for s in chunk]))
    return hits / len(dataset), total_loss / len(dataset)


# ---------------------------------------------------------------------------
# checkpoints

def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def _decode_array(blob: dict) -> np.ndarray:
    data = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8")
    return data.reshape(blob["shape"]).copy()


@dataclass
class OptimizerState:
    """Momentum buffers mirroring the learnable tensors, plus the epoch clock."""

    weight_velocities: list = field(default_factory=list)
    threshold_velocities: list | None = None
    leak_velocities: list | None = None
    epoch: int = 0

    @classmethod
    def fresh(cls, params, scope: str) -> "OptimizerState":
        state = cls(weight_velocities=[None if p is None else np.zeros_like(p.weights) for p in params])
        if scope == "all":
            state.threshold_velocities = [None if p is None else np.zeros_like(p.thresholds) for p in params]
            state.leak_velocities = [None if p is None else 0.0 for p in params]
        return state


def checkpoint_save(path, params, optimizer: OptimizerState, epoch: int, config: TrainConfig) -> None:
    """Write a versioned, portable checkpoint atomically (temp then rename)."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "digest": config.model_digest(),
        "epoch": epoch,
        "config": config.to_dict(),
        "params": [
            None if p is None else {
                "weights": _encode_array(p.weights),
                "thresholds": _encode_array(p.thresholds),
                "leak": p.leak,
            }
            for p in params
        ],
        "optimizer": {
            "weight_velocities": [None if v is None else _encode_array(v) for v in optimizer.weight_velocities],
            "threshold_velocities": None if optimizer.threshold_velocities is None else [
                None if v is None else _encode_array(v) for v in optimizer.threshold_velocities
            ],
            "leak_velocities": optimizer.leak_velocities,
            "epoch": optimizer.epoch,
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def checkpoint_load(path, expected_digest: str | None = None):
    """Load (params, optimizer, epoch, config_dict); refuse foreign digests."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from exc
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {payload.get('version')!r}")
    if expected_digest is not None and payload["digest"] != expected_digest:
        raise DataError("checkpoint digest does not match the requested configuration")
    params = [
        None if entry is None else LayerParams(
            weights=_decode_array(entry["weights"]),
            thresholds=_decode_array(entry["thresholds"]),
            leak=float(entry["leak"]),
        )
        for entry in payload["params"]
    ]
    opt_blob = payload["optimizer"]
    optimizer = OptimizerState(
        weight_velocities=[None if v is None else _decode_array(v) for v in opt_blob["weight_velocities"]],
        threshold_velocities=None if opt_blob["threshold_velocities"] is None else [
            None if v is None else _decode_array(v) for v in opt_blob["threshold_velocities"]
        ],
        leak_velocities=opt_blob["leak_velocities"],
        epoch=opt_blob["epoch"],
    )
    return params, optimizer, payload["epoch"], payload["config"]


# ---------------------------------------------------------------------------
# metrics

METRIC_FIELDS = ("epoch", "train_loss", "train_acc", "test_acc", "wall_seconds", "lr_w", "lr_theta", "lr_alpha")


def _write_metrics(path, rows: list[dict]) -> None:
    """Rewrite the JSONL metrics file and its CSV mirror atomically."""
    path = Path(path)
    text = "".join(json.dumps({k: row[k] for k in METRIC_FIELDS}, sort_keys=True) + "\n" for row in rows)
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    csv_path = path.with_suffix(".csv")
    lines = [",".join(METRIC_FIELDS)]
    for row in rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in METRIC_FIELDS))
    tmp = Path(str(csv_path) + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, csv_path)


def _epoch_shuffle_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


@dataclass
class TrainResult:
    spec: NetworkSpec
    params: list
    optimizer: OptimizerState
    metrics: list[dict]
    config: TrainConfig


# ---------------------------------------------------------------------------
# the loop

def train(config: TrainConfig, clock=time.perf_counter, log=None,
          stop_after_epoch: int | None = None) -> TrainResult:
    """Run the configured training job start to finish (or resume it).

    Deterministic given the config and seed in single-threaded execution;
    wall-clock timing enters only through the injectable clock. A
    non-finite gradient, parameter or loss aborts with a NumericError,
    leaving the last finite epoch's checkpoint in place. stop_after_epoch
    interrupts the run after that epoch's checkpoint (the schedule still
    spans config.epochs); a later run with resume=True continues it.
    """
    spec = build_network(config)
    mode = SynergyMode(config.mode)
    loss = LossKind(config.loss)
    train_set, test_set = load_dataset(config)
    say = log or (lambda msg: None)

    params = init_params(spec, seed=config.seed, init_mode=InitMode(config.init_mode))
    optimizer = OptimizerState.fresh(params, config.momentum_scope)
    metrics: list[dict] = []
    start_epoch = 0

    if config.resume and Path(config.checkpoint_path).exists():
        params, optimizer, saved_epoch, _ = checkpoint_load(
            config.checkpoint_path, expected_digest=config.model_digest()
        )
        start_epoch = saved_epoch + 1
        if Path(config.metrics_path).exists():
            for line in Path(config.metrics_path).read_text().splitlines():
                row = json.loads(line)
                if row["epoch"] <= saved_epoch:
                    metrics.append(row)
        say(f"resuming from epoch {start_epoch}")

    for epoch in range(start_epoch, config.epochs):
        tick = clock()
        lr_w = cosine_lr(config.eta_w, epoch, config.epochs)
        lr_theta = cosine_lr(config.eta_theta, epoch, config.epochs)
        lr_alpha = cosine_lr(config.eta_alpha, epoch, config.epochs)

        epoch_loss = 0.0
        epoch_hits = 0
        for batch in ds.batch_iter(train_set, config.batch_size, _epoch_shuffle_seed(config.seed, epoch)):
            audit: dict = {}
            grads = learn_batch(
                spec, params, ds.batch_frames(batch), ds.batch_targets(batch), mode=mode, loss=loss, audit=audit
            )
            epoch_loss += audit["loss"]
            epoch_hits += sum(p == s.label for p, s in zip(audit["prediction"], batch))
            apply_updates(
                params, grads, spec,
                eta_w=lr_w, eta_theta=lr_theta, eta_alpha=lr_alpha,
                mode=mode, batch_size=grads.samples,
                weight_decay=config.weight_decay, epsilon=config.epsilon,
                momentum=config.momentum,
                weight_velocities=optimizer.weight_velocities,
                threshold_velocities=optimizer.threshold_velocities,
                leak_velocities=optimizer.leak_velocities,
            )

        train_loss = epoch_loss / len(train_set)
        train_acc = epoch_hits / len(train_set)
        test_acc, test_loss = evaluate(spec, params, test_set, loss)
        row = {
            "epoch": epoch,
            "train_loss": train_loss,
            "train_acc": train_acc,
            "test_acc": test_acc,
            "wall_seconds": clock() - tick,
            "lr_w": lr_w,
            "lr_theta": lr_theta,
            "lr_alpha": lr_alpha,
        }
        if not all(np.isfinite(v) for v in (train_loss, train_acc, test_acc, test_loss)):
            raise NumericError(
                f"non-finite metrics at epoch {epoch} (train loss {train_loss}); "
                f"last finite checkpoint kept at {config.checkpoint_path}"
            )
        metrics.append(row)
        optimizer.epoch = epoch
        _write_metrics(config.metrics_path, metrics)
        checkpoint_save(config.checkpoint_path, params, optimizer, epoch, config)
        say(
            f"epoch {epoch}: train loss {train_loss:.4f}, train acc {train_acc:.3f}, "
            f"test acc {test_acc:.3f} ({row['wall_seconds']:.1f}s)"
        )
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            say(f"stopping after epoch {epoch} as requested")
            break

    return TrainResult(spec=spec, params=params, optimizer=optimizer, metrics=metrics, config=config)
