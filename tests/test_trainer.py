import base64
import json
import math

import numpy as np
import pytest

from stopsnn import trainer
from stopsnn.config import TrainConfig
from stopsnn.datasets import Sample, synthetic_teacher
from stopsnn.errors import ConfigError, DataError, NumericError
from stopsnn.topology import InitMode, init_params, parse_architecture
from stopsnn.trainer import (
    OptimizerState,
    checkpoint_load,
    checkpoint_save,
    cosine_lr,
    evaluate,
    load_dataset,
    train,
)


def teacher_config(tmp_path, **overrides):
    base = dict(
        arch="12-2",
        input_shape=(8,),
        num_classes=2,
        dataset={"kind": "teacher", "n_train": 40, "n_test": 20, "arch": "6-2"},
        time_steps=3,
        mode="WTL",
        epochs=3,
        batch_size=8,
        seed=5,
        eta_w=2e-2,
        eta_theta=1e-3,
        eta_alpha=1e-3,
        checkpoint_path=str(tmp_path / "ck.json"),
        metrics_path=str(tmp_path / "metrics.jsonl"),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestCosineSchedule:
    def test_start_is_initial_rate(self):
        assert cosine_lr(0.5, 0, 10) == 0.5

    def test_midpoint_is_half(self):
        assert cosine_lr(0.5, 5, 10) == pytest.approx(0.25, abs=1e-15)

    def test_approaches_zero(self):
        assert cosine_lr(1.0, 199, 200) == pytest.approx(
            0.5 * (1 + math.cos(math.pi * 199 / 200)), abs=1e-15
        )
        assert cosine_lr(1.0, 199, 200) < 1e-4

    def test_monotone_non_increasing(self):
        rates = [cosine_lr(0.1, e, 50) for e in range(50)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_epoch_out_of_schedule(self):
        with pytest.raises(ConfigError):
            cosine_lr(0.1, 10, 10)


class TestEvaluate:
    def test_teacher_scores_its_own_labels(self):
        spec = parse_architecture("6-2", (8,), 2, time_steps=3)
        samples, params = synthetic_teacher(7, spec, 30)
        accuracy, loss = evaluate(spec, params, samples)
        assert accuracy == 1.0
        assert np.isfinite(loss)

    def test_constant_predictor_scores_near_chance(self):
        # a silent network always decodes class 0, so accuracy on uniform
        # 10-class labels sits at the class-0 frequency, about 0.1
        spec = parse_architecture("10", (3,), 10, time_steps=2)
        params = init_params(spec, seed=0)
        params[0].weights[:] = 0.0
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=1000)
        dataset = [
            Sample.from_frames([rng.uniform(size=(3,))] * 2, int(lab), 10) for lab in labels
        ]
        accuracy, _ = evaluate(spec, params, dataset)
        assert accuracy == pytest.approx(np.mean(labels == 0), abs=1e-12)
        assert abs(accuracy - 0.1) < 0.03

    def test_empty_dataset(self):
        spec = parse_architecture("2", (2,), 2)
        with pytest.raises(DataError):
            evaluate(spec, init_params(spec, seed=0), [])


class TestCheckpoints:
    def _setup(self, tmp_path):
        config = teacher_config(tmp_path)
        spec = trainer.build_network(config)
        params = init_params(spec, seed=config.seed)
        optimizer = OptimizerState.fresh(params, "weights")
        return config, params, optimizer

    def test_round_trip_bit_identical(self, tmp_path):
        config, params, optimizer = self._setup(tmp_path)
        path = tmp_path / "a.json"
        optimizer.epoch = 4
        checkpoint_save(path, params, optimizer, config)
        loaded, opt, epoch, config_dict = checkpoint_load(path, expected_digest=config.model_digest())
        assert epoch == 4
        for p, q in zip(params, loaded):
            if p is None:
                assert q is None
                continue
            assert np.array_equal(p.weights, q.weights)
            assert np.array_equal(p.thresholds, q.thresholds)
            assert p.leak == q.leak
        second = tmp_path / "b.json"
        checkpoint_save(second, loaded, opt, TrainConfig.from_dict(config_dict))
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("text", [
        "plain.jsonl",
        'métriques ☃ "q" \\ \n\t\u2028.jsonl',  # non-ASCII and characters JSON escapes
        "a\x007b\x00.jsonl",  # the NUL-and-digits form the tensor placeholders take
        "a\\u00003.jsonl",  # a literal backslash-u0000 before digits
    ])
    def test_bytes_match_the_reference_encoding(self, tmp_path, text):
        config, params, _ = self._setup(tmp_path)
        config = config.with_overrides(metrics_path=text)
        optimizer = OptimizerState.fresh(params, "all")
        rng = np.random.default_rng(0)
        for velocities in (optimizer.weight_velocities, optimizer.threshold_velocities):
            for v in velocities:
                if v is not None:
                    v += rng.normal(size=v.shape)
        optimizer.leak_velocities = [None if v is None else 0.25 for v in optimizer.leak_velocities]
        optimizer.epoch = 2

        def encode(arr):
            data = base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()
            return {"shape": list(arr.shape), "data": data}

        reference = {
            "version": trainer.CHECKPOINT_VERSION,
            "digest": config.model_digest(),
            "epoch": 2,
            "config": config.to_dict(),
            "params": [None if p is None else {"weights": encode(p.weights), "thresholds": encode(p.thresholds),
                                               "leak": p.leak} for p in params],
            "optimizer": {
                "weight_velocities": [None if v is None else encode(v) for v in optimizer.weight_velocities],
                "threshold_velocities": [None if v is None else encode(v) for v in optimizer.threshold_velocities],
                "leak_velocities": optimizer.leak_velocities,
                "epoch": optimizer.epoch,
            },
        }
        path = tmp_path / "a.json"
        checkpoint_save(path, params, optimizer, config)
        assert path.read_bytes() == json.dumps(reference, sort_keys=True, separators=(",", ":")).encode()

    def test_digest_mismatch_refused(self, tmp_path):
        config, params, optimizer = self._setup(tmp_path)
        path = tmp_path / "a.json"
        checkpoint_save(path, params, optimizer, config)
        other = config.with_overrides(arch="16-2")
        with pytest.raises(DataError, match="digest"):
            checkpoint_load(path, expected_digest=other.model_digest())

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="corrupt"):
            checkpoint_load(path)

    def test_version_check(self, tmp_path):
        config, params, optimizer = self._setup(tmp_path)
        path = tmp_path / "a.json"
        checkpoint_save(path, params, optimizer, config)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            checkpoint_load(path)

    @pytest.mark.parametrize("missing", ["params", "digest", "optimizer", "epoch"])
    def test_missing_section_is_data_error(self, tmp_path, missing):
        config, params, optimizer = self._setup(tmp_path)
        path = tmp_path / "a.json"
        checkpoint_save(path, params, optimizer, config)
        payload = json.loads(path.read_text())
        del payload[missing]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed checkpoint"):
            checkpoint_load(path)

    def _load_with(self, tmp_path, **values):
        """Save a checkpoint whose first neuron layer carries the given values, then load it."""
        config, params, optimizer = self._setup(tmp_path)
        for name, value in values.items():
            current = getattr(params[0], name)
            setattr(params[0], name, value if np.isscalar(current) else np.full_like(current, value))
        path = tmp_path / "a.json"
        checkpoint_save(path, params, optimizer, config)
        return checkpoint_load(path)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_bad_threshold_raises(self, tmp_path, threshold):
        with pytest.raises(DataError, match="threshold <= 0"):
            self._load_with(tmp_path, thresholds=threshold)

    @pytest.mark.parametrize("leak", [1.5, -0.1])
    def test_bad_leak_raises(self, tmp_path, leak):
        with pytest.raises(DataError, match=r"leak outside \[0, 1\]"):
            self._load_with(tmp_path, leak=leak)

    @pytest.mark.parametrize("family", ["weights", "thresholds", "leak"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_raises(self, tmp_path, family, value):
        with pytest.raises(DataError, match="non-finite parameter at layer 0"):
            self._load_with(tmp_path, **{family: value})

    def test_unreadable_path_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            checkpoint_load(tmp_path)
        with pytest.raises(DataError, match="cannot read checkpoint"):
            checkpoint_load(tmp_path / "missing.json")

    @pytest.mark.parametrize("section,key,value,message", [
        ("params", 2, None, "3 parameter entries for 2 layers"),
        ("params", 0, None, "layer 0 lacks parameters"),
        ("optimizer", "weight_velocities", [{"shape": [2, 2], "data": base64.b64encode(bytes(32)).decode()}, None],
         "layer 0 weights velocity"),
        ("optimizer", "threshold_velocities", [None, None], "layer 0 thresholds velocity"),
        ("optimizer", "leak_velocities", [0.0], "leak velocities do not cover"),
        ("config", "arch", "12Q-2", "unusable config"),
        ("config", "arch", "10-2", "layer 0 weights, thresholds"),
        ("config", "epochs", "3", "unusable config"),
        ("optimizer", "epoch", 7, "has epoch 0 but optimizer epoch 7"),
    ])
    def test_tensors_must_fit_the_stored_architecture(self, tmp_path, section, key, value, message):
        config, params, _ = self._setup(tmp_path)
        path = tmp_path / "a.json"
        checkpoint_save(path, params, OptimizerState.fresh(params, "all"), config)
        payload = json.loads(path.read_text())
        if section == "params" and key == len(payload["params"]):
            payload["params"].append(value)
        else:
            payload[section][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            checkpoint_load(path)

    @pytest.mark.parametrize("text", ["[]", '"checkpoint"', '{"version": 1, "digest": "x", "params": 3}'])
    def test_wrong_structure_is_data_error(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(text)
        with pytest.raises(DataError):
            checkpoint_load(path)


class TestTrain:
    def test_zero_epochs_is_identity(self, tmp_path):
        config = teacher_config(tmp_path, epochs=0)
        result = train(config)
        fresh = init_params(result.spec, seed=config.seed, init_mode=InitMode(config.init_mode))
        for p, q in zip(result.params, fresh):
            if p is not None:
                assert np.array_equal(p.weights, q.weights)
        assert result.metrics == []

    def test_zero_rate_mode_w_keeps_parameters(self, tmp_path):
        config = teacher_config(tmp_path, mode="W", eta_w=0.0, epochs=2)
        result = train(config)
        fresh = init_params(result.spec, seed=config.seed)
        for p, q in zip(result.params, fresh):
            if p is not None:
                assert np.array_equal(p.weights, q.weights)

    def test_deterministic_metrics_bytes(self, tmp_path):
        files = []
        for run in ("x", "y"):
            config = teacher_config(
                tmp_path,
                metrics_path=str(tmp_path / f"{run}.jsonl"),
                checkpoint_path=str(tmp_path / f"{run}_ck.json"),
            )
            train(config, clock=lambda: 0.0)
            files.append((tmp_path / f"{run}.jsonl").read_bytes())
        assert files[0] == files[1]

    def test_metrics_rows_and_csv_mirror(self, tmp_path):
        config = teacher_config(tmp_path)
        result = train(config)
        rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert set(row) == set(trainer.METRIC_FIELDS)
            assert all(np.isfinite(v) for v in row.values())
        csv_lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == ",".join(trainer.METRIC_FIELDS)
        assert len(csv_lines) == 4
        assert result.metrics[-1]["epoch"] == 2

    def test_mode_w_checkpoint_keeps_initial_theta_alpha(self, tmp_path):
        config = teacher_config(tmp_path, mode="W", epochs=2)
        train(config)
        params, _, _, _ = checkpoint_load(config.checkpoint_path)
        for p in params:
            if p is not None:
                assert np.all(p.thresholds == 1.0)
                assert p.leak == math.exp(-1.0)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        full = teacher_config(
            tmp_path, epochs=6,
            metrics_path=str(tmp_path / "full.jsonl"), checkpoint_path=str(tmp_path / "full_ck.json"),
        )
        full_result = train(full, clock=lambda: 0.0)

        part = teacher_config(
            tmp_path, epochs=6,
            metrics_path=str(tmp_path / "part.jsonl"), checkpoint_path=str(tmp_path / "part_ck.json"),
        )
        train(part, clock=lambda: 0.0, stop_after_epoch=2)
        resumed_result = train(part.with_overrides(resume=True), clock=lambda: 0.0)

        assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        for p, q in zip(full_result.params, resumed_result.params):
            if p is not None:
                assert np.array_equal(p.weights, q.weights)
                assert np.array_equal(p.thresholds, q.thresholds)
                assert p.leak == q.leak

    def test_nan_aborts_and_keeps_last_checkpoint(self, tmp_path, monkeypatch):
        config = teacher_config(tmp_path, epochs=5)
        real = trainer.learn_batch
        state = {"epoch_calls": 0}

        def poisoned(spec, params, frames, target, mode, loss, audit=None):
            acc = real(spec, params, frames, target, mode=mode, loss=loss, audit=audit)
            state["epoch_calls"] += 1
            if state["epoch_calls"] > 10 and audit is not None:  # into the third epoch (5 batches each)
                audit["loss"] = float("nan")
            return acc

        monkeypatch.setattr(trainer, "learn_batch", poisoned)
        with pytest.raises(NumericError):
            train(config)
        _, _, epoch, _ = checkpoint_load(config.checkpoint_path)
        assert epoch == 1  # last finite epoch

    def test_momentum_scope_all_runs(self, tmp_path):
        config = teacher_config(tmp_path, momentum_scope="all", epochs=2)
        result = train(config)
        assert len(result.metrics) == 2
        assert result.optimizer.threshold_velocities is not None


class TestLoadDataset:
    def test_glyph_split_sizes(self, tmp_path):
        config = teacher_config(
            tmp_path,
            arch="10",
            input_shape=(1, 12, 12),
            num_classes=10,
            dataset={"kind": "glyphs", "n_train": 30, "n_test": 10, "side": 12},
        )
        train_set, test_set = load_dataset(config)
        assert len(train_set) == 30 and len(test_set) == 10
        assert train_set[0].frames[0].shape == (1, 12, 12)

    def test_idx_kind(self, tmp_path):
        from stopsnn.datasets import synthetic_glyphs, write_idx

        images, labels = synthetic_glyphs(seed=0, n_samples=20, side=10)
        for split in ("train", "test"):
            write_idx(tmp_path / f"{split}_i.idx", tmp_path / f"{split}_l.idx", images, labels)
        config = teacher_config(
            tmp_path,
            arch="10",
            input_shape=(1, 10, 10),
            num_classes=10,
            dataset={
                "kind": "idx",
                "train_images": str(tmp_path / "train_i.idx"),
                "train_labels": str(tmp_path / "train_l.idx"),
                "test_images": str(tmp_path / "test_i.idx"),
                "test_labels": str(tmp_path / "test_l.idx"),
            },
        )
        train_set, test_set = load_dataset(config)
        assert len(train_set) == len(test_set) == 20
        assert train_set[0].frames[0].max() <= 1.0

    def test_events_kind(self, tmp_path):
        from stopsnn.datasets import save_event_stream, synthetic_event_stream

        manifest_lines = []
        for i in range(4):
            stream = synthetic_event_stream(seed=i, n_events=40, width=5, height=5)
            save_event_stream(tmp_path / f"ev{i}.txt", stream)
            manifest_lines.append(f"ev{i}.txt {i % 2}")
        for split in ("train", "test"):
            (tmp_path / f"{split}.txt").write_text("\n".join(manifest_lines) + "\n")
        config = teacher_config(
            tmp_path,
            arch="4",
            input_shape=(2, 5, 5),
            num_classes=4,
            dataset={
                "kind": "events",
                "train_manifest": str(tmp_path / "train.txt"),
                "test_manifest": str(tmp_path / "test.txt"),
            },
        )
        train_set, _ = load_dataset(config)
        assert len(train_set) == 4
        assert train_set[0].frames[0].shape == (2, 5, 5)
        assert len(train_set[0].frames) == 3

    @pytest.mark.parametrize("line", ["ev0.txt one", "ev0.txt", "ev0.txt 1 2", "ev0.txt 4", "ev0.txt -1"])
    def test_bad_manifest_line_is_data_error(self, tmp_path, line):
        from stopsnn.datasets import save_event_stream, synthetic_event_stream

        save_event_stream(tmp_path / "ev0.txt", synthetic_event_stream(seed=0, n_events=40, width=5, height=5))
        (tmp_path / "m.txt").write_text(f"ev0.txt 0\n{line}\n")
        config = teacher_config(
            tmp_path, arch="4", input_shape=(2, 5, 5), num_classes=4,
            dataset={"kind": "events", "train_manifest": str(tmp_path / "m.txt"),
                     "test_manifest": str(tmp_path / "m.txt")},
        )
        with pytest.raises(DataError):
            load_dataset(config)

    def test_unknown_kind(self, tmp_path):
        config = teacher_config(tmp_path)
        config.dataset = {"kind": "nope"}
        with pytest.raises(ConfigError):
            load_dataset(config)

    @pytest.mark.parametrize("dataset", [
        {"kind": "teacher", "n_train": "x"},
        {"kind": "glyphs", "n_test": 0},
        {"kind": "glyphs", "seed": -1},
        {"kind": "teacher", "arch": 6},
        {"kind": "idx", "train_labels": "l", "test_images": "i", "test_labels": "l"},
        {"kind": "events", "train_manifest": 3, "test_manifest": "m"},
        {"kind": "glyphs", "n_trian": 3},
    ])
    def test_bad_option_is_config_error(self, tmp_path, dataset):
        config = teacher_config(tmp_path)
        config.dataset = dataset
        with pytest.raises(ConfigError, match="dataset option"):
            load_dataset(config)

    def test_teacher_splits_each_class(self, tmp_path):
        # drawn in this order, the labels fill class 1's quota early and end in a run of 0s
        config = teacher_config(tmp_path)
        draws, _ = synthetic_teacher(5, parse_architecture("6-2", (8,), 2, time_steps=3), 60)
        train_set, test_set = load_dataset(config)
        assert [s.label for s in draws[-20:]] == [0] * 20
        for split, per_class in ((train_set, 20), (test_set, 10)):
            assert [sum(s.label == c for s in split) for c in (0, 1)] == [per_class, per_class]
        # each split keeps draw order, and together they are the draws
        order = {s.frames[0].tobytes(): j for j, s in enumerate(draws)}
        drawn = [[order[s.frames[0].tobytes()] for s in split] for split in (train_set, test_set)]
        assert sorted(drawn[0] + drawn[1]) == list(range(60))
        assert all(d == sorted(d) for d in drawn)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = teacher_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = TrainConfig.load(path)
        assert loaded == config

    def test_overrides(self, tmp_path):
        config = teacher_config(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(config.to_dict()))
        loaded = TrainConfig.load(tmp_path / "c.json", {"epochs": 9, "seed": None})
        assert loaded.epochs == 9
        assert loaded.seed == config.seed  # None overrides are ignored

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"archh": "4"})

    def test_invalid_values(self, tmp_path):
        with pytest.raises(ConfigError):
            teacher_config(tmp_path, momentum=1.5)
        with pytest.raises(ConfigError):
            teacher_config(tmp_path, mode="XYZ")
        with pytest.raises(ConfigError):
            teacher_config(tmp_path, eta_w=-0.1)

    def test_json_types(self, tmp_path):
        config = teacher_config(tmp_path, input_shape=8, eta_w=1)
        assert config.input_shape == (8,) and config.eta_w == 1
        for name, value in (("time_steps", 2.5), ("seed", True), ("momentum", float("nan")),
                            ("input_shape", [0]), ("dataset", []), ("metrics_path", None)):
            with pytest.raises(ConfigError, match=name):
                teacher_config(tmp_path, **{name: value})

    def test_digest_tracks_model_fields_only(self, tmp_path):
        a = teacher_config(tmp_path)
        assert a.model_digest() == a.with_overrides(epochs=99).model_digest()
        assert a.model_digest() != a.with_overrides(arch="16-2").model_digest()
        assert a.model_digest() != a.with_overrides(seed=6).model_digest()
