"""Training loop, evaluation, checkpointing, and metrics emission.

The loop runs one mini-batch at a time: one call of the gradient engine
(the streaming rule's batched learn by default) accumulates the batch's
summed gradients, and one apply_updates call steps weights with SGD and
momentum, thresholds and leakages with plain truncated steps, all three
learning rates following one cosine annealing schedule. Evaluation runs
learning.infer_batch over slices of the set. Metrics go to a JSON-lines
file with a CSV mirror; a checkpoint (version, epoch, config, params and
weight_velocities) is written after every epoch, atomically, and loading
one checks its tensors against the architecture of its stored config.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datasets as ds
from .config import TrainConfig, check_json
from .errors import ConfigError, DataError, NumericError
from .learning import (  # noqa: F401 -- learn_sample and loss_value stay importable here for tools that wrap them
    LossKind,
    OptimizerState,
    SynergyMode,
    UpdateRates,
    apply_updates,
    infer_batch,
    learn_batch,
    learn_sample,
    loss_value,
)
from .topology import (  # noqa: F401 -- forward_timestep stays importable here for tools that wrap it
    InitMode,
    LayerParams,
    NetworkSpec,
    forward_timestep,
    init_params,
    parse_architecture,
)

CHECKPOINT_VERSION = 3


def cosine_lr(initial: float, epoch: int, total_epochs: int) -> float:
    """Half-cosine decay from the initial rate to zero across the run."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside schedule of {total_epochs}")
    return 0.5 * initial * (1.0 + math.cos(math.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# dataset assembly

_REQUIRED, _FROM_CONFIG = object(), object()  # no default; the TrainConfig field of the same name
_PATH = (str, _REQUIRED, None)

# (JSON type as config.check_json reads it, default, lower bound or None) of every option each kind reads
DATASET_OPTIONS = {
    "idx": {"train_images": _PATH, "train_labels": _PATH, "test_images": _PATH, "test_labels": _PATH},
    "glyphs": {"n_train": (int, 1000, 1), "n_test": (int, 300, 1), "seed": (int, _FROM_CONFIG, 0)},
    "teacher": {"n_train": (int, 200, 1), "n_test": (int, 100, 1), "seed": (int, _FROM_CONFIG, 0),
                "arch": (str, _FROM_CONFIG, None)},
    "events": {"train_manifest": _PATH, "test_manifest": _PATH},
}


def _resolve_options(config: TrainConfig) -> tuple[str, dict]:
    """(kind, every option of that kind, defaults filled in) from config.dataset.

    An unknown kind or option, a missing required option, a value of another
    JSON type (a bool is not a number, a float must be finite) or one below
    its bound is a ConfigError.
    """
    options = dict(config.dataset)
    kind = options.pop("kind", None)
    if not isinstance(kind, str) or kind not in DATASET_OPTIONS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    table = DATASET_OPTIONS[kind]
    unknown = sorted(str(key) for key in options if key not in table)
    if unknown:
        raise ConfigError(f"dataset option {unknown[0]!r} is unknown for kind {kind!r}; it takes {sorted(table)}")
    resolved = {}
    for key, (json_type, default, low) in table.items():
        value = options.get(key, default)
        if value is _FROM_CONFIG:
            value = getattr(config, key)
        if value is _REQUIRED:
            raise ConfigError(f"dataset option {key!r} is required")
        resolved[key] = check_json(f"dataset option {key!r}", json_type, value)
        if low is not None and value < low:
            raise ConfigError(f"dataset option {key!r} must be at least {low}, got {value!r}")
    return kind, resolved


def _split_per_class(samples: list, n_train: int) -> tuple[list, list]:
    """(train, test) in draw order, each class's earliest draws in train.

    Samples are ranked by their draw count within their class, and the
    n_train of lowest rank (earlier draws first among equals) form the
    training split, so every class is split in the same proportion.
    """
    seen: dict[int, int] = {}
    rank = []
    for s in samples:
        rank.append(seen.get(s.label, 0))
        seen[s.label] = rank[-1] + 1
    train = set(sorted(range(len(samples)), key=lambda j: (rank[j], j))[:n_train])
    return ([s for j, s in enumerate(samples) if j in train],
            [s for j, s in enumerate(samples) if j not in train])


def load_dataset(config: TrainConfig) -> tuple[list, list]:
    """Materialize (train, test) sample lists for the configured source.

    Options are resolved by DATASET_OPTIONS: an unknown or malformed one
    raises ConfigError. Unreadable or malformed files raise DataError naming
    the file, and so do a file whose frames do not have config.input_shape,
    an IDX file with no images or labels outside config.num_classes, and an
    event file with fewer events than time steps. IDX frames are bytes / 255,
    event frames are normalized by their peak count. Glyphs take input_shape
    (1, s, s) and num_classes 10, or raise ConfigError. The teacher kind
    splits each class's draws between train and test.
    """
    kind, opt = _resolve_options(config)
    steps, shape = config.time_steps, config.input_shape

    def fits(frame_shape: tuple, path) -> None:
        if frame_shape != shape:
            raise DataError(f"{path} holds frames of shape {frame_shape}, but input_shape is {shape}")

    if kind == "idx":
        splits = []
        for split in ("train", "test"):
            images_path, labels_path = opt[f"{split}_images"], opt[f"{split}_labels"]
            images, labels = ds.load_idx(images_path, labels_path)
            if not len(images):
                raise DataError(f"{images_path} holds no images")
            fits((1, *images.shape[1:]), images_path)
            if labels.max(initial=0) >= config.num_classes:
                raise DataError(f"{labels_path} holds label {labels.max()}, outside the {config.num_classes} "
                                f"classes 0..{config.num_classes - 1}")
            splits.append(ds.dataset_from_images(images, labels, time_steps=steps, num_classes=config.num_classes))
        return splits[0], splits[1]
    if kind == "glyphs":
        n_train, side = opt["n_train"], shape[-1]
        if shape != (1, side, side):
            raise ConfigError(f"glyphs are images of shape (1, s, s), but input_shape is {shape}")
        if config.num_classes != ds.GLYPH_CLASSES:
            raise ConfigError(f"glyphs have {ds.GLYPH_CLASSES} classes, but num_classes is {config.num_classes}")
        images, labels = ds.synthetic_glyphs(opt["seed"], n_train + opt["n_test"], side=side)
        all_samples = ds.dataset_from_images(images, labels, steps, config.num_classes)
        return all_samples[:n_train], all_samples[n_train:]
    if kind == "teacher":
        teacher_spec = build_network(config.with_overrides(arch=opt["arch"]))
        samples, _ = ds.synthetic_teacher(opt["seed"], teacher_spec, opt["n_train"] + opt["n_test"])
        return _split_per_class(samples, opt["n_train"])
    out = []
    for key in ("train_manifest", "test_manifest"):
        samples = []
        for path, label in ds.load_manifest(opt[key], config.num_classes):
            stream = ds.load_event_stream(path)
            fits((2, stream.height, stream.width), path)
            try:
                frames = ds.slice_events(stream, steps)
            except DataError as exc:
                raise DataError(f"{exc} in {path}") from None
            samples.append(ds.Sample.from_frames(frames, label, config.num_classes))
        out.append(samples)
    return out[0], out[1]


def build_network(config: TrainConfig) -> NetworkSpec:
    return parse_architecture(config.arch, config.input_shape, config.num_classes, time_steps=config.time_steps)


# ---------------------------------------------------------------------------
# evaluation

# evaluation runs the forward sweep over slices of at most this many samples,
# which bounds its memory whatever the size of the set
EVAL_BATCH = 32


def evaluate(spec: NetworkSpec, params, dataset, loss: LossKind = LossKind.CE) -> tuple[float, float]:
    """(accuracy, mean total loss) of inference over a dataset, one infer_batch call per slice."""
    hits, total_loss = 0, 0.0
    for chunk in ds.batch_iter(dataset, EVAL_BATCH):
        predictions, chunk_loss = infer_batch(spec, params, ds.batch_frames(chunk), ds.batch_targets(chunk), loss)
        hits += sum(p == s.label for p, s in zip(predictions, chunk))
        total_loss += chunk_loss
    return hits / len(dataset), total_loss / len(dataset)


# ---------------------------------------------------------------------------
# checkpoints

def _decode_array(blob: dict) -> np.ndarray:
    data = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8")
    return data.reshape(blob["shape"]).copy()


def _write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temporary file next to path, then rename it over path."""
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# a spliced value stands in the skeleton as the JSON string of a NUL and its index
_SPLICE = re.compile(r'"\\u0000(\d+)"')


def checkpoint_save(path, params, optimizer: OptimizerState, config: TrainConfig) -> None:
    """Write a versioned, portable checkpoint of optimizer.epoch atomically (temp then rename).

    The bytes are json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with each tensor as {"shape", "data": base64 of its little-endian
    float64 bytes}. The JSON encoder sees only a small skeleton of numbers
    and fixed keys; the config's own JSON text and each tensor's base64
    text are spliced in where their placeholders were written. Config
    strings never reach the skeleton, so no placeholder can collide.
    """
    texts: list[tuple[bytes, ...]] = []

    def spliced(*text: bytes) -> str:
        texts.append(text)
        return f"\x00{len(texts) - 1}"

    def tensor(arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        return {"shape": list(arr.shape), "data": spliced(b'"', binascii.b2a_base64(arr, newline=False), b'"')}

    skeleton = {
        "version": CHECKPOINT_VERSION,
        "epoch": optimizer.epoch,
        "config": spliced(json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()),
        "params": [
            None if p is None else {"weights": tensor(p.weights), "thresholds": tensor(p.thresholds), "leak": p.leak}
            for p in params
        ],
        "weight_velocities": [None if v is None else tensor(v) for v in optimizer.weight_velocities],
    }
    chunks: list[bytes] = []
    for k, piece in enumerate(_SPLICE.split(json.dumps(skeleton, sort_keys=True, separators=(",", ":")))):
        chunks.extend(texts[int(piece)] if k % 2 else (piece.encode(),))
    _write_atomic(path, chunks)


def _misfit(spec: NetworkSpec, params, velocities) -> str | None:
    """How a checkpoint's tensors disagree with the network its config describes, or None."""
    if len(params) != len(spec.layers):
        return f"{len(params)} parameter entries for {len(spec.layers)} layers"
    for i, (layer, p) in enumerate(zip(spec.layers, params)):
        if (p is not None) != layer.is_lif:
            return f"layer {i} {'has' if p is not None else 'lacks'} parameters"
        expected = (layer.weight_shape, (layer.num_thresholds,))
        if p is not None and (p.weights.shape, p.thresholds.shape) != expected:
            return f"layer {i} weights, thresholds {(p.weights.shape, p.thresholds.shape)}, expected {expected}"
    if len(velocities) != len(params):
        return f"weight velocities do not cover the {len(params)} layers"
    for i, (v, p) in enumerate(zip(velocities, params)):
        if (v is None) != (p is None) or (p is not None and v.shape != p.weights.shape):
            return f"layer {i} weight velocity of shape {np.shape(v)} does not match its parameter"
    return None


def _json_number(value) -> float:
    """A JSON number as a float; a string, bool or null is a TypeError."""
    if type(value) not in (int, float):  # bool is a subclass of int, not a number here
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def checkpoint_load(path, expected_digest: str | None = None):
    """Load (params, optimizer, epoch, config_dict). A DataError refuses:
    - an unreadable file, one that is not a JSON object, or one of another CHECKPOINT_VERSION;
    - a missing section, an epoch that is not a non-negative integer, a leak that is not a JSON number;
    - a stored config that does not build, or tensors that do not fit the network it builds;
    - non-finite parameters or weight velocities, a threshold <= 0, a leak outside [0, 1];
    - a stored config whose model digest is not expected_digest, when that is given."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"corrupt checkpoint {path}: not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {payload.get('version')!r} in {path}")
    try:
        params = [
            None if entry is None else LayerParams(
                weights=_decode_array(entry["weights"]),
                thresholds=_decode_array(entry["thresholds"]),
                leak=_json_number(entry["leak"]),
            )
            for entry in payload["params"]
        ]
        velocities = [None if v is None else _decode_array(v) for v in payload["weight_velocities"]]
        epoch, config = payload["epoch"], payload["config"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__} {exc}") from exc
    if type(epoch) is not int or epoch < 0:  # a bool is not an epoch
        raise DataError(f"checkpoint {path} has epoch {epoch!r}, not a non-negative integer")
    try:
        stored = TrainConfig.from_dict(config)
        spec = build_network(stored)
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} holds an unusable config: {exc}") from exc
    misfit = _misfit(spec, params, velocities)
    if misfit is not None:
        raise DataError(f"checkpoint {path} does not fit its architecture: {misfit}")
    for i, (p, v) in enumerate(zip(params, velocities)):
        if p is None:
            continue
        if not all(np.isfinite(x).all() for x in (p.weights, p.thresholds, p.leak)):
            raise DataError(f"non-finite parameter at layer {i} in checkpoint {path}")
        if not np.isfinite(v).all():
            raise DataError(f"non-finite weight velocity at layer {i} in checkpoint {path}")
        if (p.thresholds <= 0.0).any() or not 0.0 <= p.leak <= 1.0:
            raise DataError(f"threshold <= 0 or leak outside [0, 1] at layer {i} in checkpoint {path}")
    if expected_digest is not None and stored.model_digest() != expected_digest:
        raise DataError(f"checkpoint {path} digest does not match the requested configuration")
    return params, OptimizerState(velocities, epoch), epoch, config


# ---------------------------------------------------------------------------
# metrics

METRIC_FIELDS = ("epoch", "train_loss", "train_acc", "test_acc", "wall_seconds", "lr_w", "lr_theta", "lr_alpha")


def _write_metrics(path, rows: list[dict]) -> None:
    """Rewrite the JSONL metrics file and its CSV mirror atomically."""
    path = Path(path)
    text = "".join(json.dumps({k: row[k] for k in METRIC_FIELDS}, sort_keys=True) + "\n" for row in rows)
    _write_atomic(path, [text.encode()])
    lines = [",".join(METRIC_FIELDS)]
    for row in rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in METRIC_FIELDS))
    _write_atomic(path.with_suffix(".csv"), [("\n".join(lines) + "\n").encode()])


def _check_output_paths(config: TrainConfig) -> None:
    """Refuse a checkpoint, metrics file and CSV mirror that are not three distinct files in existing
    directories, or of which one is the temporary file another is written through."""
    checkpoint, metrics = Path(config.checkpoint_path).resolve(), Path(config.metrics_path).resolve()
    for name, path in (("checkpoint_path", checkpoint), ("metrics_path", metrics)):
        if path.is_dir() or not path.parent.is_dir():
            raise ConfigError(f"config field {name!r} must name a file in an existing directory, "
                              f"got {getattr(config, name)!r}")
    if metrics.suffix == ".csv":
        raise ConfigError(f"config field 'metrics_path': {config.metrics_path!r} is its own CSV mirror's name")
    outputs = (checkpoint, metrics, metrics.with_suffix(".csv"))
    if checkpoint in outputs[1:]:
        raise ConfigError(f"config field 'checkpoint_path': {config.checkpoint_path!r} names a metrics output")
    for name, path in (("checkpoint_path", checkpoint), ("metrics_path", metrics)):
        if path in (Path(str(output) + ".tmp") for output in outputs):  # _write_atomic's temporary file
            raise ConfigError(f"config field {name!r}: {getattr(config, name)!r} is another output's temporary file")


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
          stop_after_epoch: int | None = None, learn=None) -> TrainResult:
    """Run the configured training job start to finish (or resume it).

    Deterministic given the config and seed in single-threaded execution;
    wall-clock timing enters only through the injectable clock. A
    non-finite gradient, parameter or loss aborts with a NumericError,
    leaving the last finite epoch's checkpoint in place. stop_after_epoch
    interrupts the run after that epoch's checkpoint (the schedule still
    spans config.epochs); a later run with resume=True continues it.
    learn is the gradient engine, called once per mini-batch with
    learn_batch's contract; the default is the streaming rule, learn_batch.
    """
    learn = learn_batch if learn is None else learn
    spec = build_network(config)
    mode = SynergyMode(config.mode)
    loss = LossKind(config.loss)
    _check_output_paths(config)
    train_set, test_set = load_dataset(config)
    say = log or (lambda msg: None)

    params = init_params(spec, seed=config.seed, init_mode=InitMode(config.init_mode))
    optimizer = OptimizerState.fresh(params)
    metrics: list[dict] = []
    start_epoch = 0

    if config.resume and Path(config.checkpoint_path).exists():
        params, optimizer, saved_epoch, _ = checkpoint_load(config.checkpoint_path, config.model_digest())
        start_epoch = saved_epoch + 1
        if Path(config.metrics_path).exists():
            try:
                rows = [json.loads(line) for line in Path(config.metrics_path).read_text().splitlines()]
                metrics = [{k: row[k] for k in METRIC_FIELDS} for row in rows if row["epoch"] <= saved_epoch]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise DataError(f"corrupt metrics file {config.metrics_path}: {type(exc).__name__} {exc}") from exc
            if [row["epoch"] for row in metrics] != list(range(start_epoch)):
                raise DataError(f"metrics file {config.metrics_path} does not hold epochs 0..{saved_epoch} in order")
        say(f"resuming from epoch {start_epoch}")

    for epoch in range(start_epoch, config.epochs):
        tick = clock()
        rates = UpdateRates(
            eta_w=cosine_lr(config.eta_w, epoch, config.epochs),
            eta_theta=cosine_lr(config.eta_theta, epoch, config.epochs),
            eta_alpha=cosine_lr(config.eta_alpha, epoch, config.epochs),
            momentum=config.momentum, weight_decay=config.weight_decay,
        )

        epoch_loss = 0.0
        epoch_hits = 0
        for batch in ds.batch_iter(train_set, config.batch_size, _epoch_shuffle_seed(config.seed, epoch)):
            audit: dict = {}
            grads = learn(
                spec, params, ds.batch_frames(batch), ds.batch_targets(batch), mode=mode, loss=loss, audit=audit
            )
            epoch_loss += audit["loss"]
            epoch_hits += sum(p == s.label for p, s in zip(audit["prediction"], batch))
            apply_updates(params, grads, optimizer, rates)

        train_loss = epoch_loss / len(train_set)
        train_acc = epoch_hits / len(train_set)
        test_acc, test_loss = evaluate(spec, params, test_set, loss)
        row = {
            "epoch": epoch,
            "train_loss": train_loss,
            "train_acc": train_acc,
            "test_acc": test_acc,
            "wall_seconds": clock() - tick,
            "lr_w": rates.eta_w,
            "lr_theta": rates.eta_theta,
            "lr_alpha": rates.eta_alpha,
        }
        if not all(np.isfinite(v) for v in (train_loss, train_acc, test_acc, test_loss)):
            raise NumericError(
                f"non-finite metrics at epoch {epoch} (train loss {train_loss}); "
                f"last finite checkpoint kept at {config.checkpoint_path}"
            )
        metrics.append(row)
        optimizer.epoch = epoch
        _write_metrics(config.metrics_path, metrics)
        checkpoint_save(config.checkpoint_path, params, optimizer, config)
        say(
            f"epoch {epoch}: train loss {train_loss:.4f}, train acc {train_acc:.3f}, "
            f"test acc {test_acc:.3f} ({row['wall_seconds']:.1f}s)"
        )
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            say(f"stopping after epoch {epoch} as requested")
            break

    return TrainResult(spec=spec, params=params, optimizer=optimizer, metrics=metrics, config=config)
