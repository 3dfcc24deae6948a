"""Sample ingestion: IDX image files, event streams, synthetic tasks.

IDX is the classic big-endian binary container (magic 0x00000803 for
image tensors, 0x00000801 for label vectors, unsigned-byte payload).
Event streams use a plain text format: a header line "H W" followed by
one event per line as "timestamp x y polarity" with non-decreasing
microsecond timestamps. Every field is a whitespace-separated decimal
integer (ASCII digits, optional sign, within int64); the header has two
of them and each event line exactly four. Blank lines between events and
comments are not allowed; leading and trailing whitespace of the file is
ignored. Event streams are cut into equal-event-count slices and
histogrammed per pixel and polarity into pseudo-frames. The synthetic
teacher labels its inputs through learning.infer_batch.
"""
from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .learning import infer_batch
from .lif import encode_direct
from .numerics import Tensor
from .topology import NetworkSpec, init_params

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
        if not 0 <= label < num_classes:
            raise DataError(f"label {label} is outside the {num_classes} classes 0..{num_classes - 1}")
        target = np.zeros(num_classes)
        target[label] = 1.0
        return cls(frames=list(frames), label=int(label), target=target)


def _read_idx(path: Path, magic: int, dims: int, what: str) -> tuple[list[int], np.ndarray]:
    """The header's sizes and the byte payload of one IDX file, checked against each other."""
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read IDX {what} file {path}: {exc}") from exc
    header = 4 * (1 + dims)
    if len(data) < header:
        raise DataError(f"truncated IDX file while reading {what} header in {path}")
    found, *sizes = struct.unpack(f">{1 + dims}I", data[:header])
    if found != magic:
        raise DataError(f"bad {what} magic 0x{found:08x} in {path}")
    declared = math.prod(sizes)
    if len(data) - header < declared:
        raise DataError(f"truncated IDX file: {what} payload of {declared} bytes declared in {path}")
    if len(data) - header > declared:
        raise DataError(f"trailing bytes after {what} payload in {path}")
    return sizes, np.frombuffer(data, dtype=np.uint8, offset=header)


def load_idx(images_path, labels_path) -> tuple[Tensor, np.ndarray]:
    """Load an IDX image/label file pair as (images, labels).

    Images come back as float64 arrays of the raw byte values; labels as an
    int vector. Fails closed with a DataError on an unreadable file, bad
    magic, a payload shorter or longer than its header declares, or a
    count mismatch.
    """
    (count, rows, cols), pixels = _read_idx(Path(images_path), IDX_IMAGE_MAGIC, 3, "image")
    (label_count,), label_bytes = _read_idx(Path(labels_path), IDX_LABEL_MAGIC, 1, "label")
    if label_count != count:
        raise DataError(f"image count {count} does not match label count {label_count}")
    return pixels.astype(np.float64).reshape(count, rows, cols), label_bytes.astype(np.int64)


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


_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = range(-(2**63), 2**63)


def _int_fields(line: str) -> list[int] | None:
    """The line's whitespace-separated fields as int64 values, or None if one is not."""
    fields = line.split()
    if not all(_INTEGER.fullmatch(f) for f in fields):
        return None
    values = [int(f) for f in fields]
    return values if all(v in _INT64 for v in values) else None


def _bad_event_line(path, rows: list[str], first_line: int) -> DataError:
    """The error naming the first of rows that is not four int64 fields."""
    for ln, line in enumerate(rows, start=first_line):
        fields = _int_fields(line)
        if fields is None or len(fields) != 4:
            return DataError(f"bad event line {ln} in {path}: {line!r}")
    return DataError(f"unparseable event lines in {path}")


def load_event_stream(path) -> EventStream:
    """Read the text event format: header "H W", then "t x y p" lines.

    The body is parsed in one C-level pass; only when that fails, or
    yields fewer rows than there are lines (a blank line), are the lines
    scanned one by one to name the first bad one. Every DataError names
    the file, EventStream's own checks included.
    """
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read event file {path}: {exc}") from exc
    lines = text.strip().splitlines()
    if not lines:
        raise DataError(f"empty event file {path}")
    lead = text[: len(text) - len(text.lstrip())]
    first = len((lead + ".").splitlines())  # file line number of lines[0]
    header = _int_fields(lines[0])
    if header is None or len(header) != 2:
        raise DataError(f"bad event header on line {first} in {path}: {lines[0]!r}")
    height, width = header
    rows = lines[1:]
    data = np.empty((0, 4), dtype=np.int64)
    if rows:
        try:
            data = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
        # loadtxt skips blank lines, so a row count short of the line count means one
        if data.shape != (len(rows), 4):
            raise _bad_event_line(path, rows, first + 1)
    try:
        return EventStream(timestamps=data[:, 0], xs=data[:, 1], ys=data[:, 2], polarities=data[:, 3],
                           width=width, height=height)
    except DataError as exc:
        raise DataError(f"{exc} in {path}") from None


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
    height, width = stream.height, stream.width
    steps = np.minimum(np.arange(count) // (count // time_steps), time_steps - 1)
    flat = ((steps * 2 + stream.polarities) * height + stream.ys) * width + stream.xs
    counts = np.bincount(flat, minlength=time_steps * 2 * height * width)
    frames = counts.reshape(time_steps, 2, height, width).astype(np.float64)
    if normalize:
        frames /= frames.max()
    return list(frames)


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
    """The network's prediction for one sample's window (learning.infer_batch on a batch of one)."""
    return infer_batch(spec, params, (np.asarray(f)[None] for f in frames))[0][0]


def _teacher_params(spec: NetworkSpec, seed: int):
    """Teacher initialization tuned for lively, input-sensitive predictions:
    weights scaled up twofold so neurons actually fire, output rows centered
    across classes so no class wins by construction."""
    params = init_params(spec, seed=seed)
    for p in params:
        if p is not None:
            p.weights *= 2.0
    top = spec.lif_indices[-1]
    params[top].weights -= params[top].weights.mean(axis=0, keepdims=True)
    return params


TEACHER_CHUNK = 256  # draws labelled per infer_batch call
TEACHER_ATTEMPTS = 100  # teachers drawn before the generation fails


def synthetic_teacher(seed: int, spec: NetworkSpec, n_samples: int):
    """A frozen random network labels random inputs by its own prediction.

    Uniform inputs are drawn and kept against a per-class quota until
    n_samples are collected, which pins every class count between
    floor(n/C) and ceil(n/C) (well within 20% balance). A teacher whose
    predictions are too lopsided to fill the quotas within its draw budget
    of 50 per sample is discarded and redrawn; after TEACHER_ATTEMPTS
    teachers the generation fails. Draws are labelled in chunks (one infer_batch
    call each) that use up exactly that budget, so the generator advances
    as it would with single draws.

    Returns (samples, teacher_params).
    """
    rng = np.random.default_rng(seed)
    quota = -(-n_samples // spec.num_classes)  # ceil
    budget = 50 * n_samples
    for _ in range(TEACHER_ATTEMPTS):
        params = _teacher_params(spec, seed=int(rng.integers(0, 2**31)))
        counts = np.zeros(spec.num_classes, dtype=int)
        samples: list[Sample] = []
        for start in range(0, budget, TEACHER_CHUNK):
            raws = rng.uniform(0.0, 1.0, size=(min(TEACHER_CHUNK, budget - start), *spec.input_shape))
            labels, _ = infer_batch(spec, params, [raws] * spec.time_steps)
            for raw, label in zip(raws, labels):
                if counts[label] >= quota:
                    continue
                counts[label] += 1
                samples.append(Sample.from_frames([raw.copy()] * spec.time_steps, label, spec.num_classes))
                if len(samples) == n_samples:
                    return samples, params
    raise DataError(f"no teacher produced {n_samples} class-balanced samples in {TEACHER_ATTEMPTS} attempts")


GLYPH_CLASSES = 10


def synthetic_glyphs(seed: int, n_samples: int, side: int = 28, noise: float = 12.0):
    """Digit-like 10-class image task: smooth random prototype glyphs with
    per-sample translation jitter of up to 2 pixels, amplitude wobble, and
    pixel noise.

    Returns (images, labels) with byte-range values, IDX-compatible.
    """
    rng = np.random.default_rng(seed)
    protos = []
    yy, xx = np.mgrid[0:side, 0:side]
    for c in range(GLYPH_CLASSES):
        blob = np.zeros((side, side))
        for _ in range(4):
            cy, cx = rng.uniform(side * 0.2, side * 0.8, size=2)
            sy, sx = rng.uniform(side * 0.08, side * 0.22, size=2)
            blob += rng.uniform(0.4, 1.0) * np.exp(
                -((yy - cy) ** 2 / (2 * sy**2) + (xx - cx) ** 2 / (2 * sx**2))
            )
        protos.append(200.0 * blob / blob.max())
    images = np.zeros((n_samples, side, side))
    labels = rng.integers(0, GLYPH_CLASSES, size=n_samples)
    for i, label in enumerate(labels):
        img = protos[label] * rng.uniform(0.8, 1.2)
        dy, dx = rng.integers(-2, 3, size=2)
        img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 255.0)
    return images, labels.astype(np.int64)


def dataset_from_images(images: Tensor, labels, time_steps: int, num_classes: int,
                        max_value: float = 255.0) -> list[Sample]:
    """Direct-code an image set into per-sample frame sequences; a 2-D image gains a channel axis."""
    samples = []
    for img, label in zip(images, labels):
        raw = img[None, :, :] if img.ndim == 2 else img
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
    Windows of different lengths, or one step's frames of different shapes,
    raise DataError.
    """
    lengths = sorted({len(sample.frames) for sample in samples})
    if len(lengths) > 1:
        raise DataError(f"a batch's windows differ in length: {lengths} frames")
    for t, step in enumerate(zip(*(sample.frames for sample in samples))):
        try:
            frames = np.array(step)
        except ValueError as exc:
            shapes = sorted({np.shape(frame) for frame in step})
            raise DataError(f"a batch's frames at step {t} differ in shape: {shapes}") from exc
        yield frames


def batch_targets(samples) -> Tensor:
    """The samples' one-hot targets as (B, C) rows."""
    return np.stack([sample.target for sample in samples])
