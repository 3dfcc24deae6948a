"""Property tests: event-stream ingestion (text round trip, slicing against a
per-slice reference), the dot-product identities of the convolution and pooling
adjoints over random shapes, byte-fuzzed event files, manifests, IDX pairs
and checkpoints raising only DataError, fuzzed dataset options raising
only the package's own errors, and JSON junk in any config field giving a
config or a ConfigError."""
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stopsnn import numerics
from stopsnn.config import TrainConfig
from stopsnn.datasets import (
    EventStream,
    load_event_stream,
    load_idx,
    save_event_stream,
    slice_events,
    synthetic_event_stream,
    write_idx,
)
from stopsnn.errors import ConfigError, DataError, StopSnnError
from stopsnn.topology import init_params
from stopsnn.trainer import (
    DATASET_OPTIONS,
    OptimizerState,
    build_network,
    checkpoint_load,
    checkpoint_save,
    load_dataset,
)

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



def _batch_shape(batch, shape):
    return shape if batch is None else (batch,) + shape


@st.composite
def conv_cases(draw):
    """(x, kernels, d, stride, padding) with d shaped like conv2d(x, kernels)."""
    batch = draw(st.one_of(st.none(), st.integers(1, 3)))
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kernel, stride = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    h_out, w_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # every input size (o-1)*stride + k - 2p >= 1 is valid; cap the padding accordingly
    reach = (min(h_out, w_out) - 1) * stride + kernel - 1
    padding = draw(st.integers(0, min(kernel - 1, reach // 2)))
    h, w = ((n - 1) * stride + kernel - 2 * padding for n in (h_out, w_out))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=_batch_shape(batch, (cin, h, w)))
    kernels = rng.normal(size=(cout, cin, kernel, kernel))
    d = rng.normal(size=_batch_shape(batch, (cout, h_out, w_out)))
    return x, kernels, d, stride, padding


@SETTINGS
@given(case=conv_cases())
def test_conv_adjoints_satisfy_dot_product_identities(case):
    x, kernels, d, stride, padding = case
    y = numerics.conv2d(x, kernels, stride=stride, padding=padding)
    assert y.shape == d.shape
    forward = np.vdot(y, d)
    back_input = numerics.conv2d_adjoint_input(d, kernels, stride=stride, padding=padding)
    back_weight = numerics.conv2d_weight_grad(x, d, stride=stride, padding=padding)
    assert back_input.shape == x.shape and back_weight.shape == kernels.shape
    assert abs(forward - np.vdot(x, back_input)) <= 1e-10 * max(1.0, abs(forward))
    assert abs(forward - np.vdot(kernels, back_weight)) <= 1e-10 * max(1.0, abs(forward))


@SETTINGS
@given(
    batch=st.one_of(st.none(), st.integers(1, 3)), channels=st.integers(1, 3), window=st.integers(1, 3),
    h_out=st.integers(1, 4), w_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
)
def test_avgpool_adjoint_satisfies_dot_product_identity(batch, channels, window, h_out, w_out, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=_batch_shape(batch, (channels, h_out * window, w_out * window)))
    d = rng.normal(size=_batch_shape(batch, (channels, h_out, w_out)))
    back = numerics.avgpool2d_adjoint(d, window)
    assert back.shape == x.shape
    forward = np.vdot(numerics.avgpool2d(x, window), d)
    assert abs(forward - np.vdot(x, back)) <= 1e-10 * max(1.0, abs(forward))


def _valid_idx_pair(tmp_path):
    images = np.arange(2 * 3 * 2).reshape(2, 3, 2)
    write_idx(tmp_path / "img.idx", tmp_path / "lbl.idx", images, [1, 0])
    return (tmp_path / "img.idx").read_bytes(), (tmp_path / "lbl.idx").read_bytes()


@SETTINGS
@given(data=st.data(), which=st.sampled_from(["images", "labels"]))
def test_fuzzed_idx_pair_raises_only_data_error(tmp_path, data, which):
    images, labels = _valid_idx_pair(tmp_path)
    if which == "images":
        images = data.draw(mutations(images))
    else:
        labels = data.draw(mutations(labels))
    (tmp_path / "img.idx").write_bytes(images)
    (tmp_path / "lbl.idx").write_bytes(labels)
    try:
        load_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
    except DataError:
        pass


def _valid_checkpoint(tmp_path) -> bytes:
    config = TrainConfig(arch="3-2", input_shape=(2,), num_classes=2, time_steps=2)
    params = init_params(build_network(config), seed=0)
    path = tmp_path / "ck.json"
    checkpoint_save(path, params, OptimizerState.fresh(params), config)
    return path.read_bytes()


@SETTINGS
@given(data=st.data())
def test_fuzzed_checkpoint_raises_only_data_error(tmp_path, data):
    path = tmp_path / "fuzzed.json"
    path.write_bytes(data.draw(mutations(_valid_checkpoint(tmp_path))))
    try:
        checkpoint_load(path)
    except DataError:
        pass


def _dataset_files(tmp_path) -> dict:
    """A valid file for every path option, by option name."""
    _valid_idx_pair(tmp_path)
    save_event_stream(tmp_path / "ev.txt", synthetic_event_stream(seed=0, n_events=20, width=3, height=3))
    (tmp_path / "manifest.txt").write_text("ev.txt 1\n")
    files = {f"{split}_images": tmp_path / "img.idx" for split in ("train", "test")}
    files.update({f"{split}_labels": tmp_path / "lbl.idx" for split in ("train", "test")})
    files.update({f"{split}_manifest": tmp_path / "manifest.txt" for split in ("train", "test")})
    return {key: str(path) for key, path in files.items()}


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(DATASET_OPTIONS)))
def test_fuzzed_dataset_options_raise_only_package_errors(tmp_path, data, kind):
    files = _dataset_files(tmp_path)
    junk = st.one_of(
        st.integers(-2, 12), st.floats(-2.0, 300.0), st.sampled_from([math.nan, math.inf]),
        st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
        st.sampled_from([str(tmp_path / "missing"), "6-2", *files.values()]),
    )
    options = {"kind": kind}
    for key in DATASET_OPTIONS[kind]:
        if data.draw(st.booleans()):
            options[key] = data.draw(st.one_of(st.just(files[key]), junk) if key in files else junk)
    # now and then a key the kind does not take: a misspelling, or another kind's option
    taken = set(DATASET_OPTIONS[kind])
    for key in sorted({"n_trian", *(k for other in DATASET_OPTIONS.values() for k in other)} - taken):
        if data.draw(st.integers(0, 9)) == 0:
            options[key] = data.draw(st.one_of(st.just(files[key]), junk) if key in files else junk)
    shape, classes = {"idx": ((1, 3, 2), 2), "glyphs": ((1, 28, 28), 10),
                      "teacher": ((8,), 2), "events": ((2, 3, 3), 2)}[kind]
    config = TrainConfig(arch=f"4-{classes}", input_shape=shape, num_classes=classes, time_steps=2, dataset=options)
    took_unknown = not set(options) <= {"kind", *taken}
    try:
        train, test = load_dataset(config)
    except StopSnnError as exc:
        assert not took_unknown or (isinstance(exc, ConfigError) and "unknown" in str(exc))
        return
    assert train and test and not took_unknown


JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(-(2**80), 2**80), st.floats(),
    st.text(max_size=4), st.sampled_from(["W", "ce", "all", "exp_abs", "unit_gaussian", "6-2"]),
    st.lists(st.one_of(st.integers(-1, 30), st.floats(-1.0, 30.0), st.booleans(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "n_train", "x"]), st.one_of(st.integers(-1, 9), st.text(max_size=3)),
                    max_size=2),
)


@SETTINGS
@given(name=st.sampled_from(sorted(TrainConfig.__dataclass_fields__)), value=JSON_JUNK)
def test_fuzzed_config_field_gives_a_config_or_config_error(name, value):
    try:
        config = TrainConfig.from_dict({name: value})
    except ConfigError:
        return
    # an accepted value is held as given, in its annotation's JSON type (an int may stand for a float)
    kind, held = TrainConfig.__dataclass_fields__[name].type, getattr(config, name)
    if kind is tuple:
        assert held == tuple(value if isinstance(value, list) else [value])
        assert all(type(d) is int for d in held)
    else:
        assert held == value and type(held) in ((int, float) if kind is float else (kind,))
    assert TrainConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
