import struct

import numpy as np
import pytest

from stopsnn.datasets import (
    EventStream,
    Sample,
    batch_iter,
    dataset_from_images,
    load_event_stream,
    load_idx,
    save_event_stream,
    slice_events,
    synthetic_event_stream,
    synthetic_glyphs,
    synthetic_teacher,
    teacher_predict,
    write_idx,
)
from stopsnn.errors import DataError
from stopsnn.topology import parse_architecture


class TestIdx:
    def _write_pair(self, tmp_path, images, labels):
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx(ip, lp, images, labels)
        return ip, lp

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 5, 4)).astype(np.float64)
        labels = rng.integers(0, 10, size=7)
        ip, lp = self._write_pair(tmp_path, images, labels)
        loaded_images, loaded_labels = load_idx(ip, lp)
        assert loaded_images.shape == (7, 5, 4)
        np.testing.assert_array_equal(loaded_images, images)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_header_fields_drive_shape(self, tmp_path):
        images = np.zeros((3, 2, 6))
        ip, lp = self._write_pair(tmp_path, images, np.zeros(3))
        with open(ip, "rb") as f:
            magic, count, rows, cols = struct.unpack(">IIII", f.read(16))
        assert (magic, count, rows, cols) == (0x00000803, 3, 2, 6)

    def test_truncated_payload_fails_closed(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, np.zeros((4, 3, 3)), np.zeros(4))
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_idx(ip, lp)

    def test_bad_magic(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x99
        ip.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            load_idx(ip, lp)

    def test_huge_declared_size_is_truncation(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 2**27, 2**27, 2**26) + bytes(8))
        with pytest.raises(DataError, match="truncated"):
            load_idx(ip, lp)

    def test_trailing_bytes(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        lp.write_bytes(lp.read_bytes() + b"\0")
        with pytest.raises(DataError, match="trailing bytes after label payload"):
            load_idx(ip, lp)

    def test_missing_file(self, tmp_path):
        ip, _ = self._write_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        with pytest.raises(DataError, match="cannot read IDX label file"):
            load_idx(ip, tmp_path / "absent.idx")

    def test_empty_file(self, tmp_path):
        ip = tmp_path / "empty.idx"
        ip.write_bytes(b"")
        with pytest.raises(DataError):
            load_idx(ip, ip)

    def test_count_mismatch(self, tmp_path):
        ip, _ = self._write_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
        lp = tmp_path / "other.idx"
        with open(lp, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2))
            f.write(bytes(2))
        with pytest.raises(DataError, match="count"):
            load_idx(ip, lp)


class TestEventStreams:
    def test_text_round_trip(self, tmp_path):
        stream = synthetic_event_stream(seed=1, n_events=40, width=6, height=5)
        path = tmp_path / "events.txt"
        save_event_stream(path, stream)
        loaded = load_event_stream(path)
        assert loaded.width == 6 and loaded.height == 5
        np.testing.assert_array_equal(loaded.timestamps, stream.timestamps)
        np.testing.assert_array_equal(loaded.xs, stream.xs)
        np.testing.assert_array_equal(loaded.ys, stream.ys)
        np.testing.assert_array_equal(loaded.polarities, stream.polarities)

    def test_header_only_file_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("5 6\n")
        loaded = load_event_stream(path)
        assert (loaded.height, loaded.width, len(loaded)) == (5, 6, 0)
        assert loaded.timestamps.dtype == np.int64

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1 2 1\n0 1 x 1\n", 3),  # non-integer field
            ("0 1 2 1\n1 1 2\n", 3),  # three fields
            ("0 1 2 1 0\n", 2),  # five fields
            ("0 1 2 1\n\n1 1 2 0\n", 3),  # blank interior line
            ("0 1 2 1\n# a comment\n", 3),
            ("0 1 2 1  # trailing comment\n", 2),
            ("0 1.0 2 1\n", 2),
            ("99999999999999999999 1 2 1\n", 2),  # beyond int64
        ],
    )
    def test_bad_event_line_is_data_error_naming_the_line(self, tmp_path, body, line):
        path = tmp_path / "events.txt"
        path.write_text("4 4\n" + body)
        with pytest.raises(DataError, match=f"line {line} in .*events.txt"):
            load_event_stream(path)

    def test_line_numbers_count_leading_blank_lines(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("\n\n4 4\n0 1 x 1\n")
        with pytest.raises(DataError, match="line 4 in"):
            load_event_stream(path)

    @pytest.mark.parametrize("header", ["4", "4 4 4", "4 x", "#4 4"])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "events.txt"
        path.write_text(f"{header}\n0 1 2 1\n")
        with pytest.raises(DataError, match="header on line 1"):
            load_event_stream(path)

    def test_unreadable_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_event_stream(tmp_path / "missing.txt")
        (tmp_path / "latin.txt").write_bytes(b"4 4\n0 1 2 \xff\n")
        with pytest.raises(DataError, match="cannot read"):
            load_event_stream(tmp_path / "latin.txt")

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(DataError, match="non-decreasing"):
            EventStream(
                timestamps=np.array([5, 3]), xs=np.zeros(2, dtype=int), ys=np.zeros(2, dtype=int),
                polarities=np.zeros(2, dtype=int), width=4, height=4,
            )

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DataError, match="bounds"):
            EventStream(
                timestamps=np.array([0]), xs=np.array([4]), ys=np.array([0]),
                polarities=np.array([1]), width=4, height=4,
            )

    def test_single_pixel_slicing(self):
        # ten events at one pixel, two slices: raw count 5 each, normalized to 1
        stream = EventStream(
            timestamps=np.arange(10), xs=np.full(10, 1), ys=np.full(10, 1),
            polarities=np.ones(10, dtype=int), width=3, height=3,
        )
        raw = slice_events(stream, 2, normalize=False)
        assert len(raw) == 2
        for frame in raw:
            assert frame[1, 1, 1] == 5.0
            assert frame.sum() == 5.0
        normalized = slice_events(stream, 2)
        for frame in normalized:
            assert frame[1, 1, 1] == 1.0

    def test_whole_stream_histogram_at_one_slice(self):
        stream = synthetic_event_stream(seed=2, n_events=33)
        frames = slice_events(stream, 1, normalize=False)
        assert len(frames) == 1
        assert frames[0].sum() == 33.0

    def test_event_count_conserved(self):
        stream = synthetic_event_stream(seed=3, n_events=101)
        for steps in (1, 2, 3, 7):
            frames = slice_events(stream, steps, normalize=False)
            assert sum(f.sum() for f in frames) == 101.0

    def test_remainder_goes_to_last_slice(self):
        stream = synthetic_event_stream(seed=4, n_events=10)
        frames = slice_events(stream, 3, normalize=False)
        assert [int(f.sum()) for f in frames] == [3, 3, 4]

    def test_too_few_events(self):
        stream = synthetic_event_stream(seed=5, n_events=3)
        with pytest.raises(DataError):
            slice_events(stream, 4)

    def test_deterministic_frames(self):
        a = slice_events(synthetic_event_stream(seed=6, n_events=50), 4)
        b = slice_events(synthetic_event_stream(seed=6, n_events=50), 4)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_normalized_values_in_unit_range(self):
        frames = slice_events(synthetic_event_stream(seed=7, n_events=200), 5)
        for f in frames:
            assert f.min() >= 0.0 and f.max() <= 1.0
        assert max(f.max() for f in frames) == 1.0


class TestSyntheticTeacher:
    def _spec(self):
        return parse_architecture("6-2", (8,), 2, time_steps=3)

    def test_same_seed_same_dataset(self):
        spec = self._spec()
        a, _ = synthetic_teacher(11, spec, 30)
        b, _ = synthetic_teacher(11, spec, 30)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            np.testing.assert_array_equal(sa.frames[0], sb.frames[0])

    def test_teacher_scores_perfectly_on_own_labels(self):
        spec = self._spec()
        samples, params = synthetic_teacher(11, spec, 40)
        hits = sum(teacher_predict(spec, params, s.frames) == s.label for s in samples)
        assert hits == len(samples)

    def test_class_balance(self):
        spec = self._spec()
        samples, _ = synthetic_teacher(11, spec, 500)
        counts = np.bincount([s.label for s in samples], minlength=2)
        assert counts.min() >= 200

    def test_one_hot_targets(self):
        spec = self._spec()
        samples, _ = synthetic_teacher(11, spec, 10)
        for s in samples:
            assert s.target.sum() == 1.0 and s.target[s.label] == 1.0


class TestGlyphs:
    def test_deterministic(self):
        a_images, a_labels = synthetic_glyphs(seed=0, n_samples=20)
        b_images, b_labels = synthetic_glyphs(seed=0, n_samples=20)
        np.testing.assert_array_equal(a_images, b_images)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_byte_range_and_shape(self):
        images, labels = synthetic_glyphs(seed=1, n_samples=15, side=20)
        assert images.shape == (15, 20, 20)
        assert images.min() >= 0.0 and images.max() <= 255.0
        assert set(np.unique(labels)) <= set(range(10))

    def test_idx_round_trip(self, tmp_path):
        images, labels = synthetic_glyphs(seed=2, n_samples=12)
        write_idx(tmp_path / "i.idx", tmp_path / "l.idx", images, labels)
        loaded, lab = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(lab, labels)
        assert np.abs(loaded - images).max() <= 0.5  # byte rounding only


class TestSampleLabels:
    @pytest.mark.parametrize("label", [-1, 3, 255])
    def test_label_outside_classes_is_data_error(self, label):
        with pytest.raises(DataError, match="outside the 3 classes"):
            Sample.from_frames([np.zeros(2)], label, 3)

    def test_idx_label_beyond_classes_is_data_error(self):
        images = np.zeros((2, 4, 4))
        with pytest.raises(DataError, match="label 7"):
            dataset_from_images(images, [1, 7], time_steps=2, num_classes=5)


class TestBatching:
    def _dataset(self, n):
        return [Sample.from_frames([np.zeros(2)], i % 3, 3) for i in range(n)]

    def test_final_short_batch(self):
        sizes = [len(b) for b in batch_iter(self._dataset(5), 2)]
        assert sizes == [2, 2, 1]

    def test_same_seed_same_order(self):
        data = self._dataset(12)
        a = [s.label for b in batch_iter(data, 4, shuffle_seed=3) for s in b]
        b = [s.label for b in batch_iter(data, 4, shuffle_seed=3) for s in b]
        assert a == b

    def test_different_seed_different_order(self):
        data = self._dataset(30)
        a = [id(s) for b in batch_iter(data, 5, shuffle_seed=1) for s in b]
        b = [id(s) for b in batch_iter(data, 5, shuffle_seed=2) for s in b]
        assert a != b
        assert sorted(a) == sorted(b)  # same multiset of samples

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            next(batch_iter([], 2))


class TestEncodingIdempotence:
    def test_rescaling_round_trip(self):
        images, labels = synthetic_glyphs(seed=3, n_samples=4)
        samples = dataset_from_images(images, labels, time_steps=3, num_classes=10)
        for sample, img in zip(samples, images):
            for frame in sample.frames:
                assert frame.min() >= 0.0 and frame.max() <= 1.0
                np.testing.assert_allclose(frame[0] * 255.0, img, atol=1e-9)
