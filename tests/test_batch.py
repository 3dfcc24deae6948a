"""The batch axis through the streaming engine.

A batched learn call must equal the sum of per-sample reference
gradients, its memory must stay flat in the window length, and batched
evaluation must agree with one sample at a time.
"""
import tracemalloc

import numpy as np
import pytest

from stopsnn import learning, numerics, trainer
from stopsnn.checks import STREAMING_VS_NAIVE_TOL
from stopsnn.config import TrainConfig
from stopsnn.datasets import Sample, batch_frames, batch_targets
from stopsnn.errors import NumericError
from stopsnn.learning import (
    GradAccumulator,
    LossKind,
    OptimizerState,
    SynergyMode,
    TraceSet,
    UpdateRates,
    accumulate_gradients,
    apply_updates,
    learn_batch,
    learn_sample,
)
from stopsnn.oracle import compare_gradients, naive_stop_gradients, unrolled_stbp_gradients
from stopsnn.topology import NetworkSpec, dense_layer, init_params, parse_architecture

NETS = {
    "dense": ("7-5-3", (6,)),
    "conv": ("2C3-P2-3", (1, 4, 4)),
}
LABELS = (0, 2, 1)


def _lively(arch, input_shape, steps, seed):
    spec = parse_architecture(arch, input_shape, 3, time_steps=steps)
    params = init_params(spec, seed=seed)
    for p in params:
        if p is not None:
            p.weights *= 2.5
            p.leak = 0.6
    return spec, params


def _samples(spec, rng, labels=LABELS):
    return [
        Sample.from_frames([rng.uniform(0.0, 1.0, size=spec.input_shape) for _ in range(spec.time_steps)],
                           label, spec.num_classes)
        for label in labels
    ]


def _summed(parts):
    total = None
    for part in parts:
        total = part if total is None else [None if a is None else a + b for a, b in zip(total, part)]
    return total


class TestBatchedGradients:
    @pytest.mark.parametrize("net", sorted(NETS))
    @pytest.mark.parametrize("mode", [SynergyMode.W, SynergyMode.WTL])
    @pytest.mark.parametrize("loss", [LossKind.CE, LossKind.MSE])
    def test_batch_equals_sum_of_per_sample_naive(self, net, mode, loss):
        arch, input_shape = NETS[net]
        spec, params = _lively(arch, input_shape, steps=4, seed=3)
        batch = _samples(spec, np.random.default_rng(4))
        audit: dict = {}
        acc = learn_batch(spec, params, batch_frames(batch), batch_targets(batch),
                          mode=mode, loss=loss, audit=audit)
        refs = [naive_stop_gradients(spec, params, s.frames, s.target, mode, loss=loss.value) for s in batch]
        want = {"dw": _summed(r.dw for r in refs), "dtheta": _summed(r.dtheta for r in refs),
                "dalpha": _summed(r.dalpha for r in refs)}
        report = compare_gradients({"dw": acc.dw, "dtheta": acc.dtheta, "dalpha": acc.dalpha}, want)
        assert report.max_rel <= STREAMING_VS_NAIVE_TOL, str(report)
        assert any(np.any(g) for g in acc.dw if g is not None)
        assert acc.samples == len(batch)

        singles = []
        for s in batch:
            one: dict = {}
            learn_sample(spec, params, s.frames, s.target, mode=mode, loss=loss, audit=one)
            singles.append(one)
        assert audit["prediction"] == [one["prediction"] for one in singles]
        assert audit["loss"] == pytest.approx(sum(one["loss"] for one in singles), rel=1e-12)

    def test_batch_of_one_equals_unbatched_call(self):
        spec, params = _lively(*NETS["conv"], steps=3, seed=5)
        (sample,) = _samples(spec, np.random.default_rng(6), labels=(1,))
        one: dict = {}
        batch: dict = {}
        single = learn_sample(spec, params, sample.frames, sample.target, mode=SynergyMode.WTL, audit=one)
        batched = learn_batch(spec, params, batch_frames([sample]), batch_targets([sample]),
                              mode=SynergyMode.WTL, audit=batch)
        report = compare_gradients({"dw": single.dw, "dtheta": single.dtheta, "dalpha": single.dalpha},
                                   {"dw": batched.dw, "dtheta": batched.dtheta, "dalpha": batched.dalpha})
        assert report.max_rel <= 1e-12, str(report)
        assert isinstance(one["prediction"], int) and [one["prediction"]] == batch["prediction"]

    def test_untrained_families_take_no_memory(self):
        spec = parse_architecture("8C3-P2-200-3", (1, 4, 4), 3)
        acc = GradAccumulator.zeros(spec, SynergyMode.W)
        for i in spec.lif_indices:
            for family in (acc.dtheta, acc.dalpha):
                assert family[i].shape == spec.layers[i].out_shape
                assert not family[i].flags.writeable and not np.any(family[i])
                assert family[i].base is not None and family[i].base.size == 1
        trained = GradAccumulator.zeros(spec, SynergyMode.WT)
        assert trained.dtheta[0].flags.writeable and not trained.dalpha[0].flags.writeable
        trained.merge(trained)  # untrained zero views are skipped


class TestBatchedKernels:
    def test_conv_kernels_batch_like_a_loop(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 5, 5))
        k = rng.normal(size=(4, 2, 3, 3))
        for stride, padding in ((1, 1), (2, 1), (1, 0)):
            y = numerics.conv2d(x, k, stride, padding)
            d = rng.normal(size=y.shape)
            np.testing.assert_allclose(y, [numerics.conv2d(xi, k, stride, padding) for xi in x], atol=1e-12)
            np.testing.assert_allclose(numerics.conv2d_adjoint_input(d, k, stride, padding),
                                       [numerics.conv2d_adjoint_input(di, k, stride, padding) for di in d],
                                       atol=1e-12)
            np.testing.assert_allclose(numerics.conv2d_weight_grad(x, d, stride, padding),
                                       sum(numerics.conv2d_weight_grad(xi, di, stride, padding)
                                           for xi, di in zip(x, d)), atol=1e-12)

    def test_adjoint_identity_with_padding_beyond_kernel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 3))
        k = rng.normal(size=(2, 2, 2, 2))
        y = numerics.conv2d(x, k, stride=1, padding=2)
        d = rng.normal(size=y.shape)
        back = numerics.conv2d_adjoint_input(d, k, stride=1, padding=2)
        assert abs(np.vdot(y, d) - np.vdot(x, back)) <= 1e-12 * max(1.0, abs(np.vdot(y, d)))


class TestStackedDenseFold:
    def _net(self, monkeypatch):
        # a budget of 8000 bytes makes the 40->30 layer stack K = 3 steps at a batch of one: a
        # quarter of the budget, 2000 bytes, holds three 560-byte (delta, trace) rows; the 30->4
        # layer's 272-byte rows stack all 7 steps of the window. At a batch of three one step of
        # the 40->30 layer takes 1680 bytes, so K = 1 there.
        monkeypatch.setattr(numerics, "COLUMN_BUDGET", 8000)
        spec = parse_architecture("30-4", (40,), 4, time_steps=7)
        params = init_params(spec, seed=3)
        for p in params:
            p.weights *= 2.5
            p.leak = 0.6
        return spec, params

    def _window(self, spec, batch, seed):
        rng = np.random.default_rng(seed)
        frames = [rng.uniform(0.0, 1.0, size=(batch, *spec.input_shape)) for _ in range(spec.time_steps)]
        return frames, np.eye(spec.num_classes)[np.arange(batch)]  # the net's favourite class is 3

    @pytest.mark.parametrize("mode", list(SynergyMode))
    @pytest.mark.parametrize("loss", [LossKind.CE, LossKind.MSE])
    def test_stacked_sample_equals_naive(self, monkeypatch, mode, loss):
        # T = 7 steps fold as 3 + 3 during the window and the last 1 at its end on the 40->30
        # layer, and as one fold of 7 on the 30->4 layer
        spec, params = self._net(monkeypatch)
        stacks = TraceSet.zeros(spec, mode, 1).stacks
        assert (len(stacks[0].deltas), len(stacks[1].deltas)) == (3, 7)
        folded = {}
        real_fold = learning.StepStack.fold

        def counting_fold(stack, dw):
            if stack.rows:
                folded.setdefault(stack.inputs.shape[1], []).append(stack.rows)
            real_fold(stack, dw)

        monkeypatch.setattr(learning.StepStack, "fold", counting_fold)
        frames, target = self._window(spec, 1, seed=4)
        acc = learn_sample(spec, params, [f[0] for f in frames], target[0], mode=mode, loss=loss)
        assert folded == {40: [3, 3, 1], 30: [7]}
        ref = naive_stop_gradients(spec, params, [f[0] for f in frames], target[0], mode, loss=loss.value)
        report = compare_gradients({"dw": acc.dw, "dtheta": acc.dtheta, "dalpha": acc.dalpha},
                                   {"dw": ref.dw, "dtheta": ref.dtheta, "dalpha": ref.dalpha})
        assert report.max_rel <= STREAMING_VS_NAIVE_TOL, str(report)
        assert np.any(acc.dw[0]) and np.any(acc.dw[1])

    def test_batch_with_one_step_stacks_folds_each_step_in_order(self, monkeypatch):
        spec, params = self._net(monkeypatch)
        assert len(TraceSet.zeros(spec, SynergyMode.WTL, 3).stacks[0].deltas) == 3  # K = 1 at B = 3
        steps = []
        real = learning.accumulate_gradients

        def recording(acc, index, layer, delta, traces, mode):
            if index == 0:
                steps.append((delta.copy(), traces.weight[0].copy()))
            return real(acc, index, layer, delta, traces, mode)

        monkeypatch.setattr(learning, "accumulate_gradients", recording)
        frames, targets = self._window(spec, 3, seed=5)
        acc = learn_batch(spec, params, frames, targets, mode=SynergyMode.WTL)
        # each step's whole product, added in step order
        want = np.zeros((30, 40))
        for delta, wt in steps:
            want += np.dot(delta.T, wt)
        assert len(steps) == 7 and np.any(want)
        np.testing.assert_allclose(acc.dw[0], want, rtol=1e-14, atol=0)

    def test_fold_adds_into_dw_in_place(self):
        # W1's 1568->256 layer at a batch of one stacks K = 4 steps; the fourth push folds them
        # into the 3.2 MB gradient, and a copy of it would show in the traced peak
        spec = NetworkSpec(input_shape=(1568,), layers=(dense_layer(1568, 256),), num_classes=256)
        traces = TraceSet.zeros(spec, SynergyMode.W, 1)
        assert len(traces.stacks[0].deltas) == 4
        acc = GradAccumulator.zeros(spec, SynergyMode.W)
        rng = np.random.default_rng(8)
        dw = acc.dw[0]
        dw[...] = rng.normal(size=dw.shape)
        start = dw.copy()
        delta, wt = rng.normal(size=(4, 256)), rng.normal(size=(4, 1568))
        for step in range(3):
            traces.weight[0][...] = wt[step]
            accumulate_gradients(acc, 0, spec.layers[0], delta[step:step + 1], traces, SynergyMode.W)
        traces.weight[0][...] = wt[3]
        peak = _peak_bytes(lambda: accumulate_gradients(acc, 0, spec.layers[0], delta[3:], traces, SynergyMode.W))
        assert traces.stacks[0].rows == 0
        assert peak < dw.nbytes / 4, peak
        assert acc.dw[0] is dw
        np.testing.assert_allclose(dw, start + delta.T @ wt, rtol=1e-14, atol=0)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBatchedMemory:
    def test_batched_learning_memory_is_flat_in_time(self):
        batch = 4
        spec = parse_architecture("64-64-64-4", (64,), 4)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(batch, 64))
        targets = np.eye(4)[[0, 1, 2, 3]]

        def learn(steps):
            return _peak_bytes(lambda: learn_batch(spec, params, [frame] * steps, targets, mode=SynergyMode.WTL))

        short, long = learn(2), learn(32)
        assert long <= 1.05 * short, (short, long)

        one = np.eye(4)[0]

        def unrolled(steps):
            return _peak_bytes(lambda: unrolled_stbp_gradients(spec, params, [frame[0]] * steps, one,
                                                               mode=SynergyMode.WTL, loss="ce"))

        peaks = [unrolled(t) for t in (2, 8, 32)]
        assert peaks[0] < peaks[1] < peaks[2], peaks

    def test_conv_batch_memory_is_bounded_and_flat_in_time(self):
        # the W1 image network at a batch of 32: states, traces and gradient accumulators are
        # 25 MiB and the learning scratch 6 MiB; the convolutions' patch scratch and the input
        # adjoint's padded delta buffer stay within one batch slice per call. No step keeps the
        # last step's input adjoint through its forward sweep, and the flatten layer allocates no
        # spike array. The peak measured 34.8 MiB; the bound leaves 6.3% above it.
        spec = parse_architecture("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(32, 1, 28, 28))
        targets = np.eye(10)[rng.integers(0, 10, size=32)]

        def learn(steps):
            return _peak_bytes(lambda: learn_batch(spec, params, [frame] * steps, targets, mode=SynergyMode.WTL))

        short, long = learn(2), learn(6)
        assert long <= 1.05 * short, (short, long)
        assert long <= 37 * 2**20, long / 2**20

    def test_one_conv_sample_memory_is_bounded_and_flat_in_time(self):
        # the W1 image network on one sample: accumulators, states and traces are 4.1 MiB and
        # the largest transient is the conv2 input adjoint's 1.2 MiB patch matrix; the dense
        # layers' step stacks add 70 KiB. The peak measured 5.90 MiB.
        spec = parse_architecture("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10)
        params = init_params(spec, seed=0)
        frame = np.random.default_rng(0).uniform(size=(1, 28, 28))
        target = np.eye(10)[3]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.WTL))

        short, long = learn(2), learn(6)
        assert long <= 1.05 * short, (short, long)
        assert long <= 6 * 2**20, long / 2**20

    def test_one_sample_memory_with_a_stacked_dense_layer_is_flat_over_a_long_window(self):
        # at a batch of one the 512->128 layer's 512 KiB gradient stacks K = 12 steps; the stack
        # is sized by numerics.COLUMN_BUDGET, not by the window
        spec = parse_architecture("128-10", (2, 16, 16), 10, time_steps=32)
        assert len(TraceSet.zeros(spec, SynergyMode.W, 1).stacks[1].deltas) == 12
        params = init_params(spec, seed=0)
        frame = (np.random.default_rng(0).uniform(size=(2, 16, 16)) < 0.3).astype(float)
        target = np.eye(10)[3]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.W))

        short, long = learn(2), learn(128)
        assert long <= 1.05 * short, (short, long)

    def test_one_sample_memory_of_the_dense_teacher_net_is_flat_over_a_long_window(self):
        # every dense layer stacks, but K is capped at the network's time_steps (6), not at the
        # window it is given
        spec = parse_architecture("100-100-100-100-4", (1, 10, 10), 4)
        params = init_params(spec, seed=0)
        frame = np.random.default_rng(0).uniform(size=(1, 10, 10))
        target = np.eye(4)[1]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.WTL))

        short, long = learn(2), learn(128)
        assert long <= 1.05 * short, (short, long)

    def test_one_sample_memory_is_flat_over_a_long_window(self):
        spec = parse_architecture("64-64-64-4", (64,), 4)
        params = init_params(spec, seed=0)
        frame = np.random.default_rng(0).uniform(size=64)
        target = np.eye(4)[0]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.WTL))

        short, long = learn(2), learn(128)
        assert long <= 1.05 * short, (short, long)

        def unrolled(steps):
            return _peak_bytes(lambda: unrolled_stbp_gradients(spec, params, [frame] * steps, target,
                                                               mode=SynergyMode.WTL, loss="ce"))

        peaks = [unrolled(t) for t in (2, 8, 32, 128)]
        assert peaks[0] < peaks[1] < peaks[2] < peaks[3], peaks


class TestBatchedEvaluation:
    def test_slices_agree_with_one_sample_at_a_time(self, monkeypatch):
        spec, params = _lively("6-3", (5,), steps=3, seed=1)
        rng = np.random.default_rng(2)
        data = _samples(spec, rng, labels=[int(v) for v in rng.integers(0, 3, size=11)])
        singles = [trainer.evaluate(spec, params, [s]) for s in data]
        monkeypatch.setattr(trainer, "EVAL_BATCH", 4)  # three slices, the last one short
        accuracy, mean_loss = trainer.evaluate(spec, params, data)
        assert accuracy * len(data) == pytest.approx(sum(a for a, _ in singles))
        assert mean_loss == pytest.approx(np.mean([l for _, l in singles]), rel=1e-12)


class TestFailClosed:
    def _net(self):
        spec = parse_architecture("16-4", (8,), 4)
        return spec, init_params(spec, seed=0)

    def _step(self, params, acc, rates):
        acc.samples = 1
        apply_updates(params, acc, OptimizerState.fresh(params, "weights"), rates)

    @pytest.mark.parametrize("family,name", [("dw", "w"), ("dtheta", "theta"), ("dalpha", "alpha")])
    def test_non_finite_gradient_names_layer_and_family(self, family, name):
        spec, params = self._net()
        before = [p.copy() for p in params]
        acc = GradAccumulator.zeros(spec)
        getattr(acc, family)[1].flat[0] = np.nan
        with pytest.raises(NumericError, match=f"non-finite {name} gradient at layer 1"):
            self._step(params, acc, UpdateRates(eta_w=0.1, eta_theta=0.1, eta_alpha=0.1))
        for p, q in zip(params, before):  # checked before any parameter moved
            assert np.array_equal(p.weights, q.weights) and np.array_equal(p.thresholds, q.thresholds)

    def test_untrained_family_is_not_checked(self):
        spec, params = self._net()
        acc = GradAccumulator.zeros(spec, SynergyMode.W)
        acc.dtheta[0] = np.full(16, np.nan)
        self._step(params, acc, UpdateRates(eta_w=0.1, eta_theta=0.1, eta_alpha=0.1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_update_names_the_parameter(self):
        spec, params = self._net()
        acc = GradAccumulator.zeros(spec)
        acc.dw[0][0, 0] = 1e308
        with pytest.raises(NumericError, match="non-finite w at layer 0"):
            self._step(params, acc, UpdateRates(eta_w=-10.0, eta_theta=0.0, eta_alpha=0.0))

    def test_one_nan_weight_aborts_training(self, tmp_path, monkeypatch):
        # NaN potentials never fire, so without the update-time check this
        # trains to finite losses and metrics while NaN spreads
        real = trainer.init_params

        def poisoned(spec, seed, init_mode):
            params = real(spec, seed=seed, init_mode=init_mode)
            params[0].weights[3, 2] = np.nan
            return params

        monkeypatch.setattr(trainer, "init_params", poisoned)
        config = TrainConfig(
            arch="16-4", input_shape=(8,), num_classes=4, time_steps=3, epochs=2, batch_size=8, seed=5,
            dataset={"kind": "teacher", "n_train": 24, "n_test": 8, "arch": "6-4"},
            checkpoint_path=str(tmp_path / "ck.json"), metrics_path=str(tmp_path / "metrics.jsonl"),
        )
        with pytest.raises(NumericError, match="at layer 0"):
            trainer.train(config)
        assert not (tmp_path / "ck.json").exists()
