"""Property tests of event-stream ingestion: text round trip, slicing against a
per-slice reference, and byte-fuzzed event files and manifests."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stopsnn.config import TrainConfig
from stopsnn.datasets import EventStream, load_event_stream, save_event_stream, slice_events
from stopsnn.errors import DataError
from stopsnn.trainer import load_dataset

SETTINGS = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def event_streams(draw, min_events=0, max_events=80):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = draw(st.integers(min_events, max_events))
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)  # noqa: E731
    start = draw(st.integers(-(2**62), 2**62))
    return EventStream(
        timestamps=start + np.cumsum(np.array(draw(ints(0, 2**50)), dtype=np.int64)),
        xs=np.array(draw(ints(0, width - 1)), dtype=np.int64),
        ys=np.array(draw(ints(0, height - 1)), dtype=np.int64),
        polarities=np.array(draw(ints(0, 1)), dtype=np.int64),
        width=width,
        height=height,
    )


def reference_frames(stream, time_steps, normalize):
    """One np.add.at histogram per slice; the remainder goes to the last slice."""
    count = len(stream)
    base = count // time_steps
    frames = []
    for s in range(time_steps):
        lo, hi = s * base, ((s + 1) * base if s < time_steps - 1 else count)
        frame = np.zeros((2, stream.height, stream.width))
        np.add.at(frame, (stream.polarities[lo:hi], stream.ys[lo:hi], stream.xs[lo:hi]), 1.0)
        frames.append(frame)
    if normalize:
        peak = max(f.max() for f in frames)
        frames = [f / peak for f in frames]
    return frames


@st.composite
def mutations(draw, data: bytes):
    """data with a few bytes replaced, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if op == "insert" or not out:
            out.insert(pos, byte)
        elif op == "replace":
            out[min(pos, len(out) - 1)] = byte
        else:
            del out[min(pos, len(out) - 1)]
    return bytes(out)


@SETTINGS
@given(stream=event_streams())
def test_save_load_round_trip(tmp_path, stream):
    path = tmp_path / "events.txt"
    save_event_stream(path, stream)
    loaded = load_event_stream(path)
    assert (loaded.height, loaded.width) == (stream.height, stream.width)
    for field in ("timestamps", "xs", "ys", "polarities"):
        got = getattr(loaded, field)
        assert got.dtype == np.int64 and got.shape == (len(stream),)
        np.testing.assert_array_equal(got, getattr(stream, field))


@SETTINGS
@given(data=st.data(), normalize=st.booleans())
def test_slices_equal_per_slice_reference(data, normalize):
    stream = data.draw(event_streams(min_events=1, max_events=120))
    time_steps = data.draw(st.integers(1, len(stream)))
    frames = slice_events(stream, time_steps, normalize=normalize)
    expected = reference_frames(stream, time_steps, normalize)
    assert len(frames) == time_steps
    for got, want in zip(frames, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


VALID_EVENTS = b"3 4\n0 1 2 1\n5 3 0 0\n9 0 2 1\n"


@SETTINGS
@given(data=mutations(VALID_EVENTS))
def test_fuzzed_event_file_raises_only_data_error(tmp_path, data):
    path = tmp_path / "events.txt"
    path.write_bytes(data)
    try:
        slice_events(load_event_stream(path), 2)
    except DataError:
        pass


VALID_MANIFEST = b"a.ev 0\nb.ev 1\n"


@SETTINGS
@given(data=mutations(VALID_MANIFEST))
def test_fuzzed_manifest_raises_only_data_error(tmp_path, data):
    for name in ("a.ev", "b.ev"):
        (tmp_path / name).write_bytes(VALID_EVENTS)
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(data)
    config = TrainConfig(
        arch="4-2", input_shape=(2, 3, 4), num_classes=2, time_steps=2,
        dataset={"kind": "events", "train_manifest": str(manifest), "test_manifest": str(manifest)},
    )
    try:
        load_dataset(config)
    except DataError:
        pass

