"""The benchmark's three workloads: input generation and training configs.

Each workload writes its inputs as files under a work directory, from the
workload seed alone, and returns the `TrainConfig` through which the
program reads them back (`trainer.load_dataset`). The program never sees
the generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stopsnn import datasets as ds
from stopsnn.config import TrainConfig
from stopsnn.topology import NetworkSpec, parse_architecture


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    arch: str
    input_shape: tuple
    num_classes: int
    time_steps: int
    mode: str
    n_train: int
    n_test: int
    epochs: int
    init_mode: str = "fan_in_scaled"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conv-image",
            why=(
                "W1 conv net on 28x28 IDX glyphs, T=6, WTL: time is in the numerics conv kernels and the "
                "dense 1568->256 weight gradient; the only one with conv/pool, 9 MB checkpoints, 28x28 IDX"
            ),
            arch="16C5-P2-32C5-P2-256-10", input_shape=(1, 28, 28), num_classes=10,
            time_steps=6, mode="WTL", n_train=32, n_test=16, epochs=2,
        ),
        Workload(
            name="dense-teacher",
            why=(
                "W2 dense 4x100 student on 10x10 IDX inputs labelled by a 100-100-4 teacher, T=6, WTL: "
                "small matmuls, so per-call overhead in lif_step, traces and glue dominates; no conv"
            ),
            arch="100-100-100-100-4", input_shape=(1, 10, 10), num_classes=4,
            time_steps=6, mode="WTL", n_train=96, n_test=64, epochs=2,
        ),
        Workload(
            name="event-long",
            why=(
                "128-128-10 on 16x16 text event streams, T=32, mode W: long window, sparse frames, no "
                "threshold/leak traces; setup is event parsing; memory at a T where unrolled BPTT grows"
            ),
            arch="128-128-10", input_shape=(2, 16, 16), num_classes=10,
            time_steps=32, mode="W", n_train=32, n_test=16, epochs=2,
            # fan-in-scaled weights leave both hidden layers silent on these sparse frames;
            # unit-Gaussian ones fire 35-50% of the time, as a trained net would
            init_mode="unit_gaussian",
        ),
    )
}

TEACHER_ARCH = "100-100-4"
EVENTS_PER_STREAM = 4000


def network(w: Workload) -> NetworkSpec:
    """The workload's network, as `trainer.build_network` parses it."""
    return parse_architecture(w.arch, w.input_shape, w.num_classes, time_steps=w.time_steps)


def _config(w: Workload, seed: int, work: Path, dataset: dict) -> TrainConfig:
    return TrainConfig(
        arch=w.arch, input_shape=w.input_shape, num_classes=w.num_classes, dataset=dataset,
        time_steps=w.time_steps, mode=w.mode, loss="ce", momentum=0.9, epochs=w.epochs,
        batch_size=32, seed=seed, init_mode=w.init_mode,
        checkpoint_path=str(work / "checkpoint.json"), metrics_path=str(work / "metrics.jsonl"),
    )


def _write_idx_split(work: Path, images, labels, n_train: int) -> dict:
    paths = {}
    for split, sl in (("train", slice(0, n_train)), ("test", slice(n_train, None))):
        img, lab = work / f"{split}-images.idx", work / f"{split}-labels.idx"
        ds.write_idx(img, lab, images[sl], labels[sl])
        paths[f"{split}_images"], paths[f"{split}_labels"] = str(img), str(lab)
    return {"kind": "idx", **paths}


def _glyph_inputs(w: Workload, seed: int, work: Path) -> dict:
    images, labels = ds.synthetic_glyphs(seed, w.n_train + w.n_test, side=w.input_shape[-1])
    return _write_idx_split(work, images, labels, w.n_train)


def _teacher_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Byte images labelled by a frozen teacher's prediction on the stored bytes.

    `synthetic_teacher` draws a teacher that emits every class on a small
    quota; asked for the whole set, each teacher it rejects costs 50 draws
    per requested sample, tens of seconds on some seeds. That teacher labels
    a pool of byte images four times the set. The set takes up to n/C of
    each class, tops up from the rest of the pool where a class is rarer
    than that, and is shuffled before the train/test split.
    """
    n = w.n_train + w.n_test
    teacher = parse_architecture(TEACHER_ARCH, w.input_shape, w.num_classes, time_steps=w.time_steps)
    _, teacher_params = ds.synthetic_teacher(seed, teacher, 4 * w.num_classes)
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 256, size=(4 * n, *w.input_shape[1:])).astype(np.float64)
    labels = np.array([
        ds.teacher_predict(teacher, teacher_params, [img[None] / 255.0] * w.time_steps) for img in pool
    ])
    quota = n // w.num_classes
    balanced = np.concatenate([np.flatnonzero(labels == c)[:quota] for c in range(w.num_classes)])
    rest = np.setdiff1d(np.arange(len(pool)), balanced)[: n - len(balanced)]
    chosen = rng.permutation(np.concatenate([balanced, rest]))
    return _write_idx_split(work, pool[chosen], labels[chosen], w.n_train)


def _event_inputs(w: Workload, seed: int, work: Path) -> dict:
    _, height, width = w.input_shape
    rng = np.random.default_rng(seed)
    dataset = {"kind": "events"}
    for split, count in (("train", w.n_train), ("test", w.n_test)):
        lines = []
        for k in range(count):
            name = f"{split}-{k:04d}.events"
            stream = ds.synthetic_event_stream(int(rng.integers(2**31)), EVENTS_PER_STREAM, width, height)
            ds.save_event_stream(work / name, stream)
            lines.append(f"{name} {int(rng.integers(w.num_classes))}")
        manifest = work / f"{split}.manifest"
        manifest.write_text("\n".join(lines) + "\n")
        dataset[f"{split}_manifest"] = str(manifest)
    return dataset


_GENERATORS = {"conv-image": _glyph_inputs, "dense-teacher": _teacher_inputs, "event-long": _event_inputs}


def generate(w: Workload, seed: int, work: Path) -> TrainConfig:
    """Write the workload's input files under work; return the config that reads them."""
    work.mkdir(parents=True, exist_ok=True)
    return _config(w, seed, work, _GENERATORS[w.name](w, seed, work))


def input_sizes(work: Path) -> dict:
    """Bytes of every generated input file, by kind, plus the file count."""
    sizes: dict = {}
    for path in sorted(work.iterdir()):
        if path.suffix in (".idx", ".events", ".manifest"):
            entry = sizes.setdefault(path.suffix.lstrip("."), {"files": 0, "bytes": 0})
            entry["files"] += 1
            entry["bytes"] += path.stat().st_size
    return sizes
