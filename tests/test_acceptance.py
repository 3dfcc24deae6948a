"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts
its stated tolerance. Budgets are wall-clock sanity bounds, generous
enough for a laptop-class CPU.
"""
import time
import tracemalloc

import numpy as np
import pytest

from stopsnn import checks
from stopsnn.ablation import run_ablation
from stopsnn.config import TrainConfig
from stopsnn.datasets import (
    EventStream,
    load_event_stream,
    save_event_stream,
    slice_events,
    synthetic_event_stream,
    synthetic_glyphs,
    write_idx,
)
from stopsnn.learning import (
    GradAccumulator,
    OptimizerState,
    SynergyMode,
    UpdateRates,
    apply_updates,
    learn_sample,
    learning_bytes,
)
from stopsnn.oracle import record_tape
from stopsnn.topology import init_params, parse_architecture
from stopsnn.trainer import train


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


class TestCriterion1StreamingVsNaive:
    def test_hundred_random_networks(self):
        start = time.monotonic()
        result = checks.check_streaming_vs_naive(trials=100, seed=0)
        elapsed = time.monotonic() - start
        detail = f"worst rel {result.worst_rel:.3e} <= 1e-9 over 100 nets in {elapsed:.1f}s"
        report("1 streaming-vs-naive equivalence", result.ok and elapsed < 120, detail)
        assert result.ok, result.worst_case
        assert elapsed < 120


class TestCriterion2SoftSingleStepExactness:
    def test_twenty_random_nets(self):
        start = time.monotonic()
        result = checks.check_t1_finite_diff(trials=20, seed=1)
        elapsed = time.monotonic() - start
        detail = f"worst rel {result.worst_rel:.3e} <= 1e-4 over 20 nets in {elapsed:.1f}s"
        report("2 soft-mode single-step exactness", result.ok and elapsed < 60, detail)
        assert result.ok, result.worst_case
        assert elapsed < 60


class TestCriterion3OutputLayerDetachedReset:
    def test_windows_up_to_six(self):
        start = time.monotonic()
        result = checks.check_output_layer_detached(trials=20, seed=2)
        elapsed = time.monotonic() - start
        detail = f"worst rel {result.worst_rel:.3e} <= 1e-9 in {elapsed:.1f}s"
        report("3 output-layer detached-reset exactness", result.ok and elapsed < 60, detail)
        assert result.ok, result.worst_case
        assert elapsed < 60


class TestCriterion4UnrolledOracleValidity:
    def test_against_finite_differences(self):
        start = time.monotonic()
        result = checks.check_stbp_vs_finite_diff(trials=10, seed=3)
        elapsed = time.monotonic() - start
        detail = f"worst rel {result.worst_rel:.3e} <= 1e-4 in {elapsed:.1f}s"
        report("4 unrolled temporal-backprop oracle validity", result.ok and elapsed < 120, detail)
        assert result.ok, result.worst_case
        assert elapsed < 120


class TestCriterion5MemoryBehavior:
    def test_streaming_constant_tape_linear_formulas_exact(self):
        # in bytes: the streaming rule's warm learning peak holds learning_bytes and stays flat from
        # window 20 to 200, while the unrolled tape of temporal backprop grows tenfold past it
        spec = parse_architecture("4C3-P2-8-3", (1, 4, 4), 3, time_steps=8)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        frames = [rng.uniform(size=(1, 4, 4)) for _ in range(200)]
        target = np.eye(3)[0]
        held = learning_bytes(spec, 1, SynergyMode.WTL)

        def warm_peak(window):
            learn_sample(spec, params, window, target, mode=SynergyMode.WTL)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                learn_sample(spec, params, window, target, mode=SynergyMode.WTL)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peaks = {steps: warm_peak(frames[:steps]) for steps in (20, 200)}
        tapes = {steps: record_tape(spec, params, frames[:steps]) for steps in (20, 200)}
        held_ok = all(held <= peak for peak in peaks.values())
        constant = peaks[200] <= 1.05 * peaks[20]
        linear = tapes[200].nbytes == 10 * tapes[20].nbytes and tapes[20].nbytes > held
        tape_ok = all(tape.length == steps for steps, tape in tapes.items())

        ok = held_ok and constant and linear and tape_ok
        report(
            "5 memory behavior",
            ok,
            f"learning_bytes {held} <= warm peak T=20:{peaks[20]}, T=200:{peaks[200]} bytes; "
            f"tape T=20:{tapes[20].nbytes}, T=200:{tapes[200].nbytes} bytes",
        )
        assert held_ok, (held, peaks)
        assert constant, peaks
        assert linear, (held, tapes[20].nbytes, tapes[200].nbytes)
        assert tape_ok


class TestCriterion6TruncationInvariants:
    def test_thousand_adversarial_updates(self):
        spec = parse_architecture("4C3-P2-8-3", (1, 4, 4), 3)
        params = init_params(spec, seed=1)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            acc = GradAccumulator.zeros(spec)
            scale = float(rng.choice([1e-6, 1.0, 1e3, 1e9]))
            for i, layer in enumerate(spec.layers):
                if layer.is_lif:
                    acc.dw[i] = rng.standard_cauchy(acc.dw[i].shape) * scale
                    acc.dtheta[i] = rng.standard_cauchy(acc.dtheta[i].shape) * scale
                    acc.dalpha[i] = rng.standard_cauchy(acc.dalpha[i].shape) * scale
            acc.samples = 1
            apply_updates(
                params, acc, OptimizerState.fresh(params),
                UpdateRates(eta_w=float(rng.uniform(0, 0.5)), eta_theta=float(rng.uniform(0, 0.5)),
                            eta_alpha=float(rng.uniform(0, 0.5))),
            )
            for i, layer in enumerate(spec.layers):
                if layer.is_lif:
                    assert np.all(params[i].thresholds >= 0.01)
                    assert 0.0 <= params[i].leak <= 1.0
        report("6 truncation invariants", True, "1000 adversarial updates kept thresholds >= 0.01 and leak in [0,1]")


@pytest.fixture(scope="module")
def glyph_idx_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("glyph_idx")
    images, labels = synthetic_glyphs(seed=0, n_samples=1300)
    write_idx(root / "train_images.idx", root / "train_labels.idx", images[:1000], labels[:1000])
    write_idx(root / "test_images.idx", root / "test_labels.idx", images[1000:], labels[1000:])
    return root


class TestCriterion7DeskScaleLearning:
    def test_image_task_from_idx_files(self, glyph_idx_files, tmp_path):
        start = time.monotonic()
        config = TrainConfig(
            arch="16C5-P2-32C5-P2-256-10",
            input_shape=(1, 28, 28),
            num_classes=10,
            dataset={
                "kind": "idx",
                "train_images": str(glyph_idx_files / "train_images.idx"),
                "train_labels": str(glyph_idx_files / "train_labels.idx"),
                "test_images": str(glyph_idx_files / "test_images.idx"),
                "test_labels": str(glyph_idx_files / "test_labels.idx"),
            },
            time_steps=6,
            mode="WTL",
            loss="ce",
            epochs=4,
            batch_size=32,
            seed=0,
            eta_w=1e-2,
            eta_theta=1e-4,
            eta_alpha=1e-4,
            momentum=0.9,
            checkpoint_path=str(tmp_path / "glyph_ck.json"),
            metrics_path=str(tmp_path / "glyph_metrics.jsonl"),
        )
        result = train(config)
        elapsed = time.monotonic() - start
        best = max(row["test_acc"] for row in result.metrics)
        ok = best >= 0.96 and elapsed < 1800
        report(
            "7a image-task learning",
            ok,
            f"best test acc {best:.3f} >= 0.96 within {len(result.metrics)} epochs in {elapsed / 60:.1f} min",
        )
        assert best >= 0.96
        assert elapsed < 1800

    def test_teacher_task_fast_learning(self, tmp_path):
        start = time.monotonic()
        config = TrainConfig(
            arch="32-2",
            input_shape=(8,),
            num_classes=2,
            dataset={"kind": "teacher", "n_train": 150, "n_test": 60, "arch": "6-2"},
            time_steps=6,
            mode="WTL",
            epochs=20,
            batch_size=8,
            seed=3,
            eta_w=5e-2,
            eta_theta=1e-3,
            eta_alpha=1e-3,
            momentum=0.9,
            checkpoint_path=str(tmp_path / "teacher_ck.json"),
            metrics_path=str(tmp_path / "teacher_metrics.jsonl"),
        )
        result = train(config)
        elapsed = time.monotonic() - start
        final = result.metrics[-1]["train_acc"]
        ok = final >= 0.95 and elapsed < 60
        report("7b teacher-task learning", ok, f"train acc {final:.3f} >= 0.95 in {elapsed:.1f}s (20 epochs)")
        assert final >= 0.95
        assert elapsed < 60


class TestCriterion8AblationDirection:
    def test_synergy_non_inferiority_and_baseline_logged(self, tmp_path):
        base = TrainConfig(
            arch="32-2",
            input_shape=(8,),
            num_classes=2,
            dataset={"kind": "teacher", "n_train": 150, "n_test": 60, "arch": "6-2"},
            time_steps=6,
            mode="WTL",
            epochs=20,
            batch_size=8,
            seed=0,
            eta_w=5e-2,
            eta_theta=5e-3,
            eta_alpha=5e-3,
            momentum=0.9,
            checkpoint_path=str(tmp_path / "abl_ck.json"),
            metrics_path=str(tmp_path / "abl_metrics.jsonl"),
        )
        outcome = run_ablation(base, seeds=(0, 1, 2))
        gap = outcome.mean_wtl - outcome.mean_w
        ok = outcome.mean_wtl >= outcome.mean_w - 0.003
        report(
            "8 ablation direction",
            ok,
            f"mean WTL {outcome.mean_wtl:.3f} vs W {outcome.mean_w:.3f} (gap {gap:+.3f} >= -0.003); "
            f"unrolled-baseline mean {outcome.mean_stbp:.3f} logged, not gated",
        )
        print(outcome.summary())
        assert ok


class TestCriterion9EventPipeline:
    def test_round_trip_conservation_and_example(self, tmp_path):
        stream = synthetic_event_stream(seed=5, n_events=137, width=7, height=6)
        save_event_stream(tmp_path / "s.txt", stream)
        loaded = load_event_stream(tmp_path / "s.txt")
        round_trip = (
            np.array_equal(loaded.timestamps, stream.timestamps)
            and np.array_equal(loaded.xs, stream.xs)
            and np.array_equal(loaded.ys, stream.ys)
            and np.array_equal(loaded.polarities, stream.polarities)
        )
        conserved = all(
            sum(f.sum() for f in slice_events(stream, steps, normalize=False)) == 137.0
            for steps in (1, 2, 5, 10)
        )
        deterministic = all(
            np.array_equal(a, b)
            for a, b in zip(slice_events(loaded, 5), slice_events(stream, 5))
        )

        ten = EventStream(
            timestamps=np.arange(10), xs=np.full(10, 1), ys=np.full(10, 1),
            polarities=np.ones(10, dtype=int), width=3, height=3,
        )
        frames = slice_events(ten, 2, normalize=False)
        example_ok = all(f[1, 1, 1] == 5.0 and f.sum() == 5.0 for f in frames)

        ok = round_trip and conserved and deterministic and example_ok
        report(
            "9 event pipeline integrity",
            ok,
            "text round-trip exact; counts conserved; frames deterministic; 10-event/T=2 slice count 5",
        )
        assert round_trip and conserved and deterministic and example_ok
