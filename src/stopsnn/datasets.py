"""Sample ingestion: IDX image files, event streams, synthetic tasks.

IDX is the classic big-endian binary container (magic 0x00000803 for
image tensors, 0x00000801 for label vectors, unsigned-byte payload).
Event streams use a plain text format: a header line "H W" followed by
one event per line as "timestamp x y polarity" with non-decreasing
microsecond timestamps. Event streams are cut into equal-event-count
slices and histogrammed per pixel and polarity into pseudo-frames.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .lif import SpikeMode, decode_prediction, encode_direct
from .numerics import Tensor
from .topology import NetworkSpec, forward_timestep, init_params, reset_network

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Sample:
    """One training example: per-time-step frames, label, one-hot target."""

    frames: list[Tensor]
    label: int
    target: Tensor

    @classmethod
    def from_frames(cls, frames, label: int, num_classes: int) -> "Sample":
        target = np.zeros(num_classes)
        target[label] = 1.0
        return cls(frames=list(frames), label=int(label), target=target)


def _read_exact(handle, count: int, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise DataError(f"truncated IDX file while reading {what}")
    return data


def load_idx(images_path, labels_path) -> tuple[Tensor, np.ndarray]:
    """Load an IDX image/label file pair as (images, labels).

    Images come back as float64 arrays of the raw byte values; labels as an
    int vector. Fails closed on bad magic, truncation, or a count mismatch.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        header = _read_exact(f, 16, "image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(f"bad image magic 0x{magic:08x} in {images_path}")
        payload = _read_exact(f, count * rows * cols, "image payload")
        if f.read(1):
            raise DataError(f"trailing bytes after image payload in {images_path}")
    images = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        header = _read_exact(f, 8, "label header")
        magic, label_count = struct.unpack(">II", header)
        if magic != IDX_LABEL_MAGIC:
            raise DataError(f"bad label magic 0x{magic:08x} in {labels_path}")
        label_payload = _read_exact(f, label_count, "label payload")
        if f.read(1):
            raise DataError(f"trailing bytes after label payload in {labels_path}")
    labels = np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise DataError(f"image count {count} does not match label count {label_count}")
    return images, labels


def write_idx(images_path, labels_path, images: Tensor, labels) -> None:
    """Write an IDX image/label pair (values are rounded into unsigned bytes)."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    count, rows, cols = images.shape
    if labels.shape != (count,):
        raise DataError(f"need one label per image, got {labels.shape} for {count} images")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        f.write(np.clip(np.rint(images), 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# event streams

@dataclass
class EventStream:
    """Ordered sensor events plus the sensor geometry."""

    timestamps: np.ndarray  # microseconds, non-decreasing
    xs: np.ndarray
    ys: np.ndarray
    polarities: np.ndarray  # 0 or 1
    width: int
    height: int

    def __post_init__(self):
        n = len(self.timestamps)
        if not (len(self.xs) == len(self.ys) == len(self.polarities) == n):
            raise DataError("event fields have inconsistent lengths")
        if n and np.any(np.diff(self.timestamps) < 0):
            raise DataError("event timestamps must be non-decreasing")
        if n and (self.xs.min() < 0 or self.xs.max() >= self.width or self.ys.min() < 0 or self.ys.max() >= self.height):
            raise DataError("event coordinates outside sensor bounds")
        if n and not set(np.unique(self.polarities)) <= {0, 1}:
            raise DataError("polarities must be 0 or 1")

    def __len__(self):
        return len(self.timestamps)


def load_event_stream(path) -> EventStream:
    """Read the text event format: header "H W", then "t x y p" lines."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise DataError(f"empty event file {path}")
    try:
        height, width = (int(v) for v in lines[0].split())
    except ValueError as exc:
        raise DataError(f"bad event header {lines[0]!r} in {path}") from exc
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"bad event line {ln} in {path}: {line!r}")
        rows.append([int(p) for p in parts])
    data = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return EventStream(
        timestamps=data[:, 0], xs=data[:, 1], ys=data[:, 2], polarities=data[:, 3],
        width=width, height=height,
    )


def save_event_stream(path, stream: EventStream) -> None:
    with open(path, "w") as f:
        f.write(f"{stream.height} {stream.width}\n")
        for t, x, y, p in zip(stream.timestamps, stream.xs, stream.ys, stream.polarities):
            f.write(f"{t} {x} {y} {p}\n")


def slice_events(stream: EventStream, time_steps: int, normalize: bool = True) -> list[Tensor]:
    """Cut a stream into equal-event-count slices and histogram each one.

    Events are split in arrival order into time_steps contiguous slices of
    floor(count / time_steps) events, remainder appended to the last slice;
    each slice becomes a (2, H, W) per-polarity pixel count map. With
    normalize the counts are divided by the sample's maximum count so
    values land in [0, 1].
    """
    count = len(stream)
    if time_steps < 1 or count < time_steps:
        raise DataError(f"stream has {count} events, need at least {time_steps}")
    base = count // time_steps
    frames = []
    for s in range(time_steps):
        lo = s * base
        hi = (s + 1) * base if s < time_steps - 1 else count
        frame = np.zeros((2, stream.height, stream.width))
        np.add.at(frame, (stream.polarities[lo:hi], stream.ys[lo:hi], stream.xs[lo:hi]), 1.0)
        frames.append(frame)
    if normalize:
        peak = max(f.max() for f in frames)
        frames = [f / peak for f in frames]
    return frames


def synthetic_event_stream(seed: int, n_events: int, width: int = 8, height: int = 8) -> EventStream:
    """Random but deterministic event stream for round-trip tests and demos."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 50, size=n_events)
    return EventStream(
        timestamps=np.cumsum(gaps),
        xs=rng.integers(0, width, size=n_events),
        ys=rng.integers(0, height, size=n_events),
        polarities=rng.integers(0, 2, size=n_events),
        width=width,
        height=height,
    )


# ---------------------------------------------------------------------------
# synthetic tasks

def teacher_predict(spec: NetworkSpec, params, frames) -> int:
    states = reset_network(spec)
    outputs = []
    for frame in frames:
        states, out = forward_timestep(spec, params, states, frame, SpikeMode.HARD)
        outputs.append(out)
    return decode_prediction(outputs)


def _teacher_params(spec: NetworkSpec, seed: int, gain: float):
    """Teacher initialization tuned for lively, input-sensitive predictions:
    weights scaled up so neurons actually fire, output rows centered across
    classes so no class wins by construction."""
    params = init_params(spec, seed=seed)
    for p in params:
        if p is not None:
            p.weights *= gain
    top = spec.lif_indices[-1]
    params[top].weights -= params[top].weights.mean(axis=0, keepdims=True)
    return params


def synthetic_teacher(seed: int, spec: NetworkSpec, n_samples: int, max_attempts: int = 100,
                      gain: float = 2.0):
    """A frozen random network labels random inputs by its own prediction.

    Uniform inputs are drawn and kept against a per-class quota until
    n_samples are collected, which pins every class count between
    floor(n/C) and ceil(n/C) (well within 20% balance). A teacher whose
    predictions are too lopsided to fill the quotas within its draw budget
    is discarded and redrawn; after max_attempts teachers the generation
    fails.

    Returns (samples, teacher_params).
    """
    rng = np.random.default_rng(seed)
    quota = -(-n_samples // spec.num_classes)  # ceil
    for _ in range(max_attempts):
        params = _teacher_params(spec, seed=int(rng.integers(0, 2**31)), gain=gain)
        counts = np.zeros(spec.num_classes, dtype=int)
        samples: list[Sample] = []
        budget = 50 * n_samples
        for _ in range(budget):
            raw = rng.uniform(0.0, 1.0, size=spec.input_shape)
            frames = [raw] * spec.time_steps
            label = teacher_predict(spec, params, frames)
            if counts[label] >= quota:
                continue
            counts[label] += 1
            samples.append(Sample.from_frames(frames, label, spec.num_classes))
            if len(samples) == n_samples:
                return samples, params
    raise DataError(
        f"no teacher produced {n_samples} class-balanced samples in {max_attempts} attempts"
    )


_GLYPH_CLASSES = 10


def synthetic_glyphs(seed: int, n_samples: int, side: int = 28, noise: float = 12.0, jitter: int = 2):
    """Digit-like 10-class image task: smooth random prototype glyphs with
    per-sample translation jitter, amplitude wobble, and pixel noise.

    Returns (images, labels) with byte-range values, IDX-compatible.
    """
    rng = np.random.default_rng(seed)
    protos = []
    yy, xx = np.mgrid[0:side, 0:side]
    for c in range(_GLYPH_CLASSES):
        blob = np.zeros((side, side))
        for _ in range(4):
            cy, cx = rng.uniform(side * 0.2, side * 0.8, size=2)
            sy, sx = rng.uniform(side * 0.08, side * 0.22, size=2)
            blob += rng.uniform(0.4, 1.0) * np.exp(
                -((yy - cy) ** 2 / (2 * sy**2) + (xx - cx) ** 2 / (2 * sx**2))
            )
        protos.append(200.0 * blob / blob.max())
    images = np.zeros((n_samples, side, side))
    labels = rng.integers(0, _GLYPH_CLASSES, size=n_samples)
    for i, label in enumerate(labels):
        img = protos[label] * rng.uniform(0.8, 1.2)
        dy, dx = rng.integers(-jitter, jitter + 1, size=2)
        img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 255.0)
    return images, labels.astype(np.int64)


def dataset_from_images(images: Tensor, labels, time_steps: int, num_classes: int,
                        max_value: float = 255.0, channels: bool = True) -> list[Sample]:
    """Direct-code an image set into per-sample frame sequences."""
    samples = []
    for img, label in zip(images, labels):
        raw = img[None, :, :] if channels and img.ndim == 2 else img
        frames = encode_direct(raw, max_value, time_steps)
        samples.append(Sample.from_frames(frames, int(label), num_classes))
    return samples


def batch_iter(dataset, batch_size: int, shuffle_seed: int | None = None):
    """Deterministic batches; the final short batch is emitted."""
    n = len(dataset)
    if n == 0:
        raise DataError("empty dataset")
    if batch_size < 1:
        raise DataError(f"batch size must be positive, got {batch_size}")
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        yield [dataset[int(i)] for i in order[start : start + batch_size]]


def batch_frames(samples):
    """Per time-step, that step's frames of every sample stacked into one (B, ...) array.

    Only one step's batch exists at a time; nothing is stacked across time.
    """
    for step in zip(*(sample.frames for sample in samples)):
        yield np.array(step)


def batch_targets(samples) -> Tensor:
    """The samples' one-hot targets as (B, C) rows."""
    return np.stack([sample.target for sample in samples])
