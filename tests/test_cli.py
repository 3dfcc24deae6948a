import base64
import json
import re

import numpy as np
import pytest

from stopsnn import cli
from stopsnn.checks import CheckResult
from stopsnn.datasets import save_event_stream, synthetic_event_stream, synthetic_glyphs, write_idx
from stopsnn.trainer import _decode_array


def encode_tensor(arr):
    """A checkpoint tensor entry: the shape and the base64 of the little-endian float64 bytes."""
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def write_config(tmp_path, **overrides):
    base = dict(
        arch="10-2",
        input_shape=[8],
        num_classes=2,
        dataset={"kind": "teacher", "n_train": 24, "n_test": 12, "arch": "6-2"},
        time_steps=2,
        mode="WTL",
        epochs=2,
        batch_size=8,
        seed=5,
        eta_w=2e-2,
        eta_theta=1e-3,
        eta_alpha=1e-3,
        checkpoint_path=str(tmp_path / "ck.json"),
        metrics_path=str(tmp_path / "metrics.jsonl"),
    )
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


class TestArchCheck:
    def test_valid_architecture(self, capsys):
        code = cli.main(["arch-check", "--arch", "16C5-P2-10", "--input-shape", "1,28,28", "--classes", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conv" in out and "avgpool" in out and "dense" in out

    def test_parse_error_is_usage_exit(self, capsys):
        code = cli.main(["arch-check", "--arch", "16C5-P3-10", "--input-shape", "1,28,28"])
        assert code == 1
        assert "P3" in capsys.readouterr().err

    def test_zero_size_input_is_usage_exit(self, capsys):
        code = cli.main(["arch-check", "--arch", "4C3-2", "--input-shape", "0,4,4", "--classes", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error_line(captured.err, "dimension below 1")

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1


def assert_one_error_line(err, named):
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0], err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["arch-check", "--arch", "8-2", "--input-shape", "a,b"], "--input-shape"),
    (["arch-check", "--arch", "8-2", "--input-shape", ""], "--input-shape"),
    (["ablation", "--config", "config.json", "--seeds", "x"], "--seeds"),
], ids=["input_shape_letters", "input_shape_empty", "seeds_letter"])
def test_malformed_integer_list_is_usage(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    assert cli.main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, named)


class TestProfile:
    def test_reports_table_and_ratio(self, capsys):
        code = cli.main(["profile", "--layers", "4", "--width", "100", "--timesteps", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4.00" in out  # 2T/3 at T=6
        assert "STOP-WTL" in out
        assert "tape length: 6" in out

    def test_measured_learning_peak_is_flat_in_the_window(self, capsys):
        code = cli.main(["profile", "--layers", "3", "--width", "16", "--timesteps", "8"])
        out = capsys.readouterr().out
        assert code == 0
        (line,) = [ln for ln in out.splitlines() if "tracemalloc peak" in ln]
        peaks = dict(re.findall(r"T=(\d+): (\d+) bytes", line))
        assert set(peaks) == {"8", "32"}
        short, long = int(peaks["8"]), int(peaks["32"])
        assert 0 < long <= 1.05 * short and short <= 1.05 * long, line

    @pytest.mark.parametrize("argv", [["--layers", "0", "--width", "4"], ["--layers", "2", "--width", "-3"]],
                             ids=["layers", "width"])
    def test_nonpositive_size_is_usage(self, capsys, argv):
        assert cli.main(["profile", *argv, "--timesteps", "4"]) == 1
        assert_one_error_line(capsys.readouterr().err, "must be positive")


class TestAblation:
    def test_tiny_teacher_ablation(self, tmp_path, capsys):
        config_path = write_config(tmp_path, arch="8-2", epochs=1)
        assert cli.main(["ablation", "--config", str(config_path), "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed 0: W=")
        assert re.search(r"^means: W=[\d.]+, WTL=[\d.]+, STBP baseline=[\d.]+$", out, re.MULTILINE), out


class TestGradcheck:
    def test_zero_trials_empty_report(self, capsys):
        code = cli.main(["gradcheck", "--trials", "0"])
        assert code == 0
        assert "empty report" in capsys.readouterr().out

    def test_small_battery_passes(self, capsys):
        code = cli.main(["gradcheck", "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 4

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_negative_count_or_seed_is_usage(self, capsys, flag):
        assert cli.main(["gradcheck", "--trials", "1", flag, "-1"]) == 1
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert_one_error_line(captured.err, flag[2:])

    def test_breach_exits_numeric(self, capsys, monkeypatch):
        def fake_run_all(trials=None, seed=0):
            return [CheckResult("good", 2, worst_rel=1e-12, tolerance=1e-9, worst_case="trial 0: fine"),
                    CheckResult("bad", 2, worst_rel=1.0, tolerance=1e-9, worst_case="trial 1 (T=3): max rel at dw[0]")]

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        assert cli.main(["gradcheck"]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] good: worst rel 1.000e-12 (tolerance 1e-09, 2 trials)",
            "[FAIL] bad: worst rel 1.000e+00 (tolerance 1e-09, 2 trials)",
            "    worst case: trial 1 (T=3): max rel at dw[0]",
        ]


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        code = cli.main(["train", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "done: 2 epochs" in out
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "ck.json").exists()

        code = cli.main(["eval", "--checkpoint", str(tmp_path / "ck.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out

    def test_eval_with_data_override(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(config_path)]) == 0
        capsys.readouterr()
        override = tmp_path / "data.json"
        override.write_text(json.dumps({"kind": "teacher", "n_train": 8, "n_test": 30, "arch": "6-2", "seed": 9}))
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "ck.json"), "--data", str(override)])
        out = capsys.readouterr().out
        assert code == 0
        assert "30 samples" in out

    def test_flag_overrides(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        code = cli.main(["train", "--config", str(config_path), "--epochs", "1", "--mode", "W"])
        assert code == 0
        rows = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(rows) == 1

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, epochs=1)
        monkeypatch.setenv("STOP_SEED", "77")
        assert cli.main(["train", "--config", str(config_path)]) == 0
        saved = json.loads((tmp_path / "ck.json").read_text())
        assert saved["config"]["seed"] == 77

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, epochs=1)
        monkeypatch.setenv("STOP_SEED", "77")
        assert cli.main(["train", "--config", str(config_path), "--seed", "33"]) == 0
        saved = json.loads((tmp_path / "ck.json").read_text())
        assert saved["config"]["seed"] == 33

    def test_missing_config_is_usage(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cli.main(["eval", "--checkpoint", str(bad)]) == 2

    def test_invalid_config_value(self, tmp_path, capsys):
        config_path = write_config(tmp_path, momentum=2.0)
        assert cli.main(["train", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("dataset", [{"kind": "teacher", "n_train": "x"}, {"kind": "idx"}])
    def test_bad_dataset_option_is_usage(self, tmp_path, capsys, dataset):
        assert cli.main(["train", "--config", str(write_config(tmp_path, dataset=dataset))]) == 1
        assert "error: dataset option" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, stop_seed, named", [
        ({"time_steps": 2.5}, None, "time_steps"),
        ({"epochs": 2.5}, None, "epochs"),
        ({"batch_size": 2.5}, None, "batch_size"),
        ({"num_classes": 2.0}, None, "num_classes"),
        ({}, "x", "seed"),
        ({"checkpoint_path": 5}, None, "checkpoint_path"),
        ({"input_shape": "28"}, None, "input_shape"),
        ({"input_shape": [8.9]}, None, "input_shape"),
        ({"input_shape": [True]}, None, "input_shape"),
        ({"resume": "no"}, None, "resume"),
        ({"dataset": {"kind": "teacher", "n_train": 24, "n_test": 12, "arch": "6-2", "n_trian": 3}}, None, "n_trian"),
    ], ids=["time_steps", "epochs", "batch_size", "num_classes", "STOP_SEED", "checkpoint_path",
            "input_shape_string", "input_shape_float", "input_shape_bool", "resume_string", "misspelt_option"])
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, monkeypatch, overrides, stop_seed, named):
        monkeypatch.chdir(tmp_path)
        if stop_seed is not None:
            monkeypatch.setenv("STOP_SEED", stop_seed)
        assert cli.main(["train", "--config", str(write_config(tmp_path, **overrides))]) == 1
        assert_one_error_line(capsys.readouterr().err, named)
        # refused before any training: no metrics, no checkpoint, no temporary file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_help_lists_the_override_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        flags = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--arch", "--mode", "--loss", "--epochs", "--batch-size",
                         "--time-steps", "--seed", "--eta-w", "--eta-theta", "--eta-alpha", "--weight-decay",
                         "--momentum", "--checkpoint-path", "--metrics-path", "--resume"}

    @pytest.mark.parametrize("argv", [["--epochs", "2.5"], ["--seed", "x"], ["--eta-w", "nan"], ["--mode", "XYZ"]],
                             ids=["epochs", "seed", "eta_w", "mode"])
    def test_malformed_flag_is_usage(self, tmp_path, capsys, argv):
        assert cli.main(["train", "--config", str(write_config(tmp_path)), *argv]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path)]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "{oops"])
    def test_unreadable_data_file_is_usage(self, tmp_path, capsys, text):
        assert cli.main(["train", "--config", str(write_config(tmp_path, epochs=1))]) == 0
        data = tmp_path / "data.json"
        if text is not None:
            data.write_text(text)
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "ck.json"), "--data", str(data)]) == 1
        assert "dataset file" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("momentum_scope", "weights"), ("surrogate", "exp_abs"),
                                              ("epsilon", 0.01)], ids=["momentum_scope", "surrogate", "epsilon"])
    def test_removed_setting_is_an_unknown_field(self, tmp_path, capsys, field, value):
        assert cli.main(["train", "--config", str(write_config(tmp_path, **{field: value}))]) == 1
        assert_one_error_line(capsys.readouterr().err, f"unknown config fields: [{field!r}]")
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_corrupt_metrics_on_resume_is_data_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(config_path), "--epochs", "1"]) == 0
        (tmp_path / "metrics.jsonl").write_text('{"epoch": 0, "train_loss"\n')
        assert cli.main(["train", "--config", str(config_path), "--resume"]) == 2
        assert "corrupt metrics file" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        ({"checkpoint_path": "absent/ck.json"}, "checkpoint_path"),
        ({"metrics_path": "absent/metrics.jsonl"}, "metrics_path"),
        ({"metrics_path": "metrics.csv"}, "metrics_path"),
        ({"checkpoint_path": "metrics.csv"}, "checkpoint_path"),
        ({"metrics_path": "ck.json.tmp"}, "metrics_path"),
        ({"checkpoint_path": "metrics.jsonl.tmp"}, "checkpoint_path"),
        ({"checkpoint_path": "metrics.csv.tmp"}, "checkpoint_path"),
    ], ids=["checkpoint_directory_missing", "metrics_directory_missing", "metrics_is_its_csv_mirror",
            "checkpoint_is_the_csv_mirror", "metrics_is_the_checkpoint_temporary",
            "checkpoint_is_the_metrics_temporary", "checkpoint_is_the_csv_mirror_temporary"])
    def test_bad_output_path_is_refused_before_training(self, tmp_path, capsys, monkeypatch, overrides, named):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--config", str(write_config(tmp_path, **overrides))]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, named)
        assert "epoch 0" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def write_event_config(tmp_path, bad_event=None, bad_label=None):
    """An events-kind config over four small streams; optionally one bad event line or label."""
    lines = []
    for i in range(4):
        save_event_stream(tmp_path / f"ev{i}.txt", synthetic_event_stream(seed=i, n_events=40, width=4, height=4))
        lines.append(f"ev{i}.txt {i % 2}")
    if bad_event is not None:
        with open(tmp_path / "ev2.txt", "a") as f:
            f.write(bad_event + "\n")
    if bad_label is not None:
        lines[1] = f"ev1.txt {bad_label}"
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    manifest = str(tmp_path / "manifest.txt")
    return write_config(
        tmp_path, arch="6-2", input_shape=[2, 4, 4], epochs=1, batch_size=4,
        dataset={"kind": "events", "train_manifest": manifest, "test_manifest": manifest},
    )


class TestBadInputExitsData:
    def test_valid_event_dataset_trains(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(write_event_config(tmp_path))]) == 0

    def test_non_integer_event_field(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(write_event_config(tmp_path, bad_event="2000 1 x 1"))])
        assert code == 2
        assert "line 42" in capsys.readouterr().err

    def test_non_integer_manifest_label(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(write_event_config(tmp_path, bad_label="one"))])
        assert code == 2
        assert "manifest line 2" in capsys.readouterr().err

    def test_manifest_label_outside_classes(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(write_event_config(tmp_path, bad_label="2"))]) == 2

    def test_checkpoint_missing_params(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(write_config(tmp_path, epochs=1))]) == 0
        path = tmp_path / "ck.json"
        payload = json.loads(path.read_text())
        del payload["params"]
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_checkpoint_bad_thresholds(self, tmp_path, capsys, threshold):
        assert cli.main(["train", "--config", str(write_config(tmp_path, epochs=1))]) == 0
        path = tmp_path / "ck.json"
        payload = json.loads(path.read_text())
        for entry in payload["params"]:
            if entry is not None:
                shape = _decode_array(entry["thresholds"]).shape
                entry["thresholds"] = encode_tensor(np.full(shape, threshold))
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def _trained_checkpoint(self, tmp_path):
        assert cli.main(["train", "--config", str(write_config(tmp_path, arch="6-2", input_shape=[4], epochs=1))]) == 0
        path = tmp_path / "ck.json"
        return path, json.loads(path.read_text())

    def test_checkpoint_weights_of_the_wrong_shape(self, tmp_path, capsys):
        path, payload = self._trained_checkpoint(tmp_path)
        payload["params"][0]["weights"]["shape"].reverse()  # (6, 4) -> (4, 6)
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        assert "does not fit its architecture" in capsys.readouterr().err

    def test_checkpoint_threshold_count_differs(self, tmp_path, capsys):
        path, payload = self._trained_checkpoint(tmp_path)
        payload["params"][1]["thresholds"] = encode_tensor(np.ones(1))  # two output neurons, one threshold
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        assert "does not fit its architecture" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["0", 0.5, True, -1], ids=["string", "fraction", "bool", "negative"])
    def test_checkpoint_epoch_is_not_a_count_on_resume(self, tmp_path, capsys, epoch):
        config = write_config(tmp_path, epochs=1)
        assert cli.main(["train", "--config", str(config)]) == 0
        path = tmp_path / "ck.json"
        payload = json.loads(path.read_text())
        payload["epoch"] = epoch
        path.write_text(json.dumps(payload))
        assert cli.main(["train", "--config", str(config), "--resume"]) == 2
        err = capsys.readouterr().err
        assert f"has epoch {epoch!r}, not a non-negative integer" in err and "Traceback" not in err

    def test_checkpoint_of_version_1_is_refused(self, tmp_path, capsys):
        path, payload = self._trained_checkpoint(tmp_path)
        velocities = payload.pop("weight_velocities")
        payload.update(version=1, digest="0" * 64, optimizer={
            "weight_velocities": velocities, "threshold_velocities": None, "leak_velocities": None, "epoch": 0})
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 1" in err and "Traceback" not in err

    def test_checkpoint_of_version_2_is_refused(self, tmp_path, capsys):
        path, payload = self._trained_checkpoint(tmp_path)
        payload.update(version=2, config={**payload["config"], "surrogate": "exp_abs", "epsilon": 0.01})
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_velocity_is_refused_on_resume(self, tmp_path, capsys, value):
        config = write_config(tmp_path, arch="6-2", input_shape=[4])
        assert cli.main(["train", "--config", str(config), "--epochs", "1"]) == 0
        path = tmp_path / "ck.json"
        payload = json.loads(path.read_text())
        payload["weight_velocities"][0] = encode_tensor(np.full((6, 4), value))
        path.write_text(json.dumps(payload))
        assert cli.main(["train", "--config", str(config), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "non-finite weight velocity at layer 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("leak", ["0.5", True, None], ids=["string", "bool", "null"])
    def test_checkpoint_leak_is_not_a_number(self, tmp_path, capsys, leak):
        path, payload = self._trained_checkpoint(tmp_path)
        payload["params"][0]["leak"] = leak
        path.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{leak!r} is not a number" in err and "Traceback" not in err

    def test_checkpoint_path_is_a_directory(self, tmp_path, capsys):
        assert cli.main(["eval", "--checkpoint", str(tmp_path)]) == 2

    def test_missing_idx_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.idx")
        dataset = {"kind": "idx", "train_images": missing, "train_labels": missing,
                   "test_images": missing, "test_labels": missing}
        config = write_config(tmp_path, arch="4-2", input_shape=[1, 2, 2], dataset=dataset)
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "cannot read IDX image file" in capsys.readouterr().err


def _idx_of_8x8_glyphs(tmp_path, labels, input_shape=(1, 8, 8)):
    images, _ = synthetic_glyphs(seed=0, n_samples=8, side=8)
    write_idx(tmp_path / "img.idx", tmp_path / "lbl.idx", images, labels)
    files = {"train_images": "img.idx", "train_labels": "lbl.idx", "test_images": "img.idx", "test_labels": "lbl.idx"}
    dataset = {"kind": "idx", **{key: str(tmp_path / name) for key, name in files.items()}}
    return write_config(tmp_path, arch="4-2", input_shape=list(input_shape), dataset=dataset)


def _events_on_4x4(tmp_path, manifest: str, side: int = 4):
    """A manifest over ev.txt, which holds a stream of a side x side sensor unless the caller wrote one."""
    if not (tmp_path / "ev.txt").exists():
        save_event_stream(tmp_path / "ev.txt", synthetic_event_stream(seed=0, n_events=40, width=side, height=side))
    (tmp_path / "manifest.txt").write_text(manifest)
    manifest = str(tmp_path / "manifest.txt")
    dataset = {"kind": "events", "train_manifest": manifest, "test_manifest": manifest}
    return write_config(tmp_path, arch="6-2", input_shape=[2, 4, 4], dataset=dataset)


def _idx_8x8(tmp_path):
    return _idx_of_8x8_glyphs(tmp_path, np.arange(8) % 2, input_shape=(1, 10, 10)), str(tmp_path / "img.idx")


def _events_8x8(tmp_path):
    return _events_on_4x4(tmp_path, "ev.txt 0\nev.txt 1\n", side=8), str(tmp_path / "ev.txt")


def _glyphs_of_10x12(tmp_path):
    dataset = {"kind": "glyphs", "n_train": 8, "n_test": 4}
    return write_config(tmp_path, arch="4-10", input_shape=[1, 10, 12], num_classes=10, dataset=dataset), "input_shape"


def _glyphs_in_four_classes(tmp_path):
    dataset = {"kind": "glyphs", "n_train": 8, "n_test": 4}
    return write_config(tmp_path, arch="4-4", input_shape=[1, 10, 10], num_classes=4, dataset=dataset), "num_classes"


def _idx_label_outside_the_classes(tmp_path):
    return _idx_of_8x8_glyphs(tmp_path, np.arange(8) % 3), "lbl.idx"


def _manifest_label_outside_the_classes(tmp_path):
    return _events_on_4x4(tmp_path, "ev.txt 0\nev.txt 5\n"), "manifest.txt"


def _event_outside_the_sensor(tmp_path):
    (tmp_path / "ev.txt").write_text("4 4\n0 1 1 0\n5 4 1 1\n9 2 3 0\n")  # x = 4 on a 4-wide sensor
    return _events_on_4x4(tmp_path, "ev.txt 0\nev.txt 1\n"), "ev.txt"


def _event_file_shorter_than_the_window(tmp_path):
    (tmp_path / "ev.txt").write_text("4 4\n0 1 1 0\n")  # one event for a window of two steps
    return _events_on_4x4(tmp_path, "ev.txt 0\nev.txt 1\n"), "ev.txt"


# the load-time data checks each name the file (a manifest's label, also the line) and exit 2
@pytest.mark.parametrize("build, code, prefix", [
    (_idx_8x8, 2, "data error:"), (_events_8x8, 2, "data error:"), (_glyphs_of_10x12, 1, "error:"),
    (_glyphs_in_four_classes, 1, "error:"), (_idx_label_outside_the_classes, 2, "data error:"),
    (_manifest_label_outside_the_classes, 2, "data error:"), (_event_outside_the_sensor, 2, "data error:"),
    (_event_file_shorter_than_the_window, 2, "data error:"),
], ids=["idx", "events", "glyphs", "glyph-classes", "idx-label", "manifest-label", "event-bounds", "event-count"])
def test_dataset_geometry_is_checked_before_training(tmp_path, capsys, build, code, prefix):
    config, named = build(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith(prefix)]
    assert len(errors) == 1 and named in errors[0] and "Traceback" not in err, err
    assert not any((tmp_path / name).exists() for name in ("ck.json", "metrics.jsonl", "metrics.csv"))


def test_idx_count_mismatch_names_both_files(tmp_path, capsys):
    config = _idx_of_8x8_glyphs(tmp_path, np.arange(8) % 2)
    write_idx(tmp_path / "unused.idx", tmp_path / "lbl.idx", np.zeros((3, 8, 8)), np.zeros(3))  # 3 labels, 8 images
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"image count 8 in {tmp_path / 'img.idx'} does not match label count 3 in {tmp_path / 'lbl.idx'}" in err
    assert "Traceback" not in err
