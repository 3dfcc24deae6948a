import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stopsnn import checks, learning
from stopsnn.datasets import Sample, batch_frames, batch_targets, dataset_from_images
from stopsnn.errors import ShapeError, TargetError
from stopsnn.learning import (
    GradAccumulator,
    LossKind,
    OptimizerState,
    SynergyMode,
    UpdateRates,
    WindowStack,
    accumulate_gradients,
    apply_updates,
    hidden_error,
    infer_batch,
    learn_batch,
    learn_sample,
    learning_bytes,
    loss_derivative,
    loss_value,
    output_error,
    softmax,
    update_leakage_traces,
    update_threshold_traces,
    update_weight_traces,
)
from stopsnn.lif import SpikeMode, SurrogateKind
from stopsnn.topology import NetworkSpec, dense_layer, init_params, parse_architecture, reset_network
from stopsnn.trainer import evaluate


class TestWeightTraces:
    def test_silent_presynapse_keeps_zero(self):
        tr = np.zeros(3)
        for _ in range(5):
            tr = update_weight_traces(tr, np.zeros(3), 0.5)
        assert np.array_equal(tr, np.zeros(3))

    def test_steady_spiking_recurrence(self):
        tr = np.zeros(1)
        seen = []
        for _ in range(3):
            tr = update_weight_traces(tr, np.ones(1), 0.5)
            seen.append(tr[0])
        assert seen == [1.0, 1.5, 1.75]

    def test_memoryless_with_zero_leak(self):
        tr = np.zeros(2)
        tr = update_weight_traces(tr, np.array([1.0, 0.0]), 0.0)
        tr = update_weight_traces(tr, np.array([0.0, 1.0]), 0.0)
        assert np.array_equal(tr, [0.0, 1.0])

    def test_linear_in_drive(self):
        rng = np.random.default_rng(0)
        drives = [rng.uniform(size=4) for _ in range(6)]
        a = np.zeros(4)
        b = np.zeros(4)
        for d in drives:
            a = update_weight_traces(a, d, 0.7)
            b = update_weight_traces(b, 3.0 * d, 0.7)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-15)


class TestThresholdTraces:
    def test_never_fires_stays_zero(self):
        tr = np.zeros(2)
        for _ in range(4):
            tr = update_threshold_traces(tr, np.zeros(2), 0.5)
        assert np.array_equal(tr, np.zeros(2))

    def test_firing_recurrence(self):
        tr = np.zeros(1)
        tr = update_threshold_traces(tr, np.zeros(1), 0.5)  # t=1: no previous spike
        assert tr[0] == 0.0
        tr = update_threshold_traces(tr, np.ones(1), 0.5)  # spike at t=1
        assert tr[0] == -0.5
        tr = update_threshold_traces(tr, np.ones(1), 0.5)  # spike at t=2
        assert tr[0] == -0.75

    def test_zero_leak_kills_trace(self):
        tr = np.zeros(1)
        for _ in range(3):
            tr = update_threshold_traces(tr, np.ones(1), 0.0)
            assert tr[0] == 0.0


class TestLeakageTraces:
    def test_first_step_zero(self):
        tr = update_leakage_traces(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2), 0.5)
        assert np.array_equal(tr, np.zeros(2))

    def test_recurrence_on_pulse_trajectory(self):
        # potentials 1.5, 0.25, 0.125 with a spike at the first step only
        theta, leak = np.ones(1), 0.5
        tr = np.zeros(1)
        tr = update_leakage_traces(tr, np.zeros(1), np.zeros(1), theta, leak)
        assert tr[0] == 0.0
        tr = update_leakage_traces(tr, np.array([1.5]), np.ones(1), theta, leak)
        assert tr[0] == 0.5
        tr = update_leakage_traces(tr, np.array([0.25]), np.zeros(1), theta, leak)
        assert tr[0] == 0.5

    def test_exact_reset_to_zero_residual(self):
        tr = np.zeros(1)
        for _ in range(4):
            tr = update_leakage_traces(tr, np.ones(1), np.ones(1), np.ones(1), 0.5)
            assert tr[0] == 0.0


class TestLossAndErrors:
    def test_mse_zero_residual(self):
        target = np.array([0.0, 1.0, 0.0])
        delta = output_error(target, target, np.zeros(3), np.ones(3), LossKind.MSE, SurrogateKind.EXP_ABS,
                             SpikeMode.HARD)
        assert np.array_equal(delta, np.zeros(3))

    def test_ce_derivative_value(self):
        grad = loss_derivative(np.array([1.0, 0.0]), np.array([1.0, 0.0]), LossKind.CE)
        np.testing.assert_allclose(grad, [-0.2689414213699951, 0.2689414213699951], atol=1e-12)

    def test_ce_derivative_matches_finite_difference_of_loss(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(size=5)
        target = np.zeros(5)
        target[2] = 1.0
        grad = loss_derivative(s, target, LossKind.CE)
        h = 1e-6
        for j in range(5):
            bumped = s.copy()
            bumped[j] += h
            dipped = s.copy()
            dipped[j] -= h
            numeric = (loss_value(bumped, target, LossKind.CE) - loss_value(dipped, target, LossKind.CE)) / (2 * h)
            assert numeric == pytest.approx(grad[j], abs=1e-8)

    def test_output_error_scales_by_firing_derivative(self):
        spikes = np.array([1.0])
        target = np.array([1.0])
        potentials = np.array([1.5])  # margin 0.5 above threshold 1
        delta = output_error(spikes, target, potentials, np.ones(1), LossKind.CE, SurrogateKind.EXP_ABS, SpikeMode.HARD)
        expected = (softmax(spikes) - target) * np.exp(-0.5)
        np.testing.assert_allclose(delta, expected, rtol=1e-15)

    def test_hidden_error_hand_value(self):
        # one downstream neuron: weighted delta 0.2*0.5, margin 0.5
        delta = hidden_error(np.array([0.1]), np.array([1.5]), np.ones(1), SurrogateKind.EXP_ABS, SpikeMode.HARD)
        assert delta[0] == pytest.approx(0.1 * 0.6065306597126334, abs=1e-15)

    def test_far_from_threshold_attenuates(self):
        delta = hidden_error(np.array([1.0]), np.array([11.0]), np.ones(1), SurrogateKind.EXP_ABS, SpikeMode.HARD)
        assert delta[0] == pytest.approx(np.exp(-10.0), rel=1e-12)

    def test_zero_downstream_error(self):
        delta = hidden_error(np.zeros(4), np.ones(4), np.ones(4), SurrogateKind.INV_QUAD, SpikeMode.HARD)
        assert np.array_equal(delta, np.zeros(4))


class TestInferBatch:
    def _copying_net(self):
        # one dense layer that fires exactly where its input reaches 1: identity weights, threshold 1, leak 0
        spec = parse_architecture("3", (3,), 3, time_steps=3)
        params = init_params(spec, seed=0)
        params[0].weights = np.eye(3)
        params[0].leak = 0.0
        return spec, params

    def test_argmax(self):
        spec, params = self._copying_net()
        frames = [np.array([[1.0, 1.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]), np.array([[0.0, 1.0, 1.0]])]
        assert infer_batch(spec, params, frames) == ([1], 0.0)

    def test_tie_breaks_low(self):
        spec, params = self._copying_net()
        tie = [np.array([[0.0, 1.0, 1.0]])] * 2
        assert infer_batch(spec, params, tie)[0] == [1]
        batch = [np.concatenate([f, f[:, ::-1]]) for f in tie]  # counts (0, 2, 2) and (2, 2, 0)
        assert infer_batch(spec, params, batch)[0] == [1, 0]

    @pytest.mark.parametrize("target,loss", [([1.0, 1.0, 0.0], LossKind.CE), ([0.5, 0.0, 0.0], LossKind.MSE),
                                             ([0.0, 0.0, 0.0, 1.0], LossKind.CE)])  # one-hot, one class too many
    def test_malformed_target(self, target, loss):
        spec, params = self._copying_net()
        frames, target = [np.ones(3)] * 2, np.array(target)
        with pytest.raises(TargetError):
            learn_sample(spec, params, frames, target, loss=loss)
        with pytest.raises(TargetError):
            infer_batch(spec, params, [f[None] for f in frames], target[None], loss)
        with pytest.raises(TargetError):
            evaluate(spec, params, [Sample(frames=frames, label=0, target=target)], loss)

    def test_targets_must_match_the_batch(self):
        spec, params = self._copying_net()
        with pytest.raises(TargetError):
            infer_batch(spec, params, [np.ones((3, 3))] * 2, np.eye(3)[:2])

    def test_empty_window_is_shape_error(self):
        spec, params = self._copying_net()
        with pytest.raises(ShapeError, match="no frames"):
            infer_batch(spec, params, [])

    def test_scalar_frame_is_shape_error(self):
        spec, params = self._copying_net()
        with pytest.raises(ShapeError):
            infer_batch(spec, params, [np.float64(1.0)])


class TestInPlaceTraces:
    def test_helpers_return_the_array_they_update(self):
        rng = np.random.default_rng(0)
        spikes, potentials = (rng.uniform(size=(2, 3)) for _ in range(2))
        for update, args in (
            (update_weight_traces, (spikes, 0.5)),
            (update_threshold_traces, (spikes, 0.5)),
            (update_leakage_traces, (potentials, spikes, np.ones(3), 0.5)),
        ):
            traces = rng.uniform(size=(2, 3))
            before = traces.copy()
            assert update(traces, *args) is traces
            assert not np.array_equal(traces, before)

    def test_learning_leaves_frames_untouched_and_repeats_exactly(self):
        # direct-coded frames are one shared array, repeated over the window
        spec = parse_architecture("2C3-P2-6-3", (1, 6, 6), 3, time_steps=4)
        params = init_params(spec, seed=2)
        rng = np.random.default_rng(3)
        data = dataset_from_images(rng.uniform(0, 255, size=(3, 6, 6)), [0, 2, 1], 4, 3)
        assert all(f is data[0].frames[0] for f in data[0].frames)
        originals = [s.frames[0].copy() for s in data]
        batch = next(batch_frames(data))
        batch_copy = batch.copy()
        runs = [learn_batch(spec, params, [batch] * 4, batch_targets(data), mode=SynergyMode.WTL)
                for _ in range(2)]
        learn_sample(spec, params, data[0].frames, data[0].target, mode=SynergyMode.WTL)
        assert all(np.array_equal(s.frames[0], o) for s, o in zip(data, originals))
        assert np.array_equal(batch, batch_copy)
        for family in ("dw", "dtheta", "dalpha"):
            for a, b in zip(getattr(runs[0], family), getattr(runs[1], family)):
                assert (a is None and b is None) or np.array_equal(a, b)
        assert any(np.any(g) for g in runs[0].dw if g is not None)


class TestTraceStorage:
    def test_weight_traces_keyed_by_presynaptic_side(self):
        # storage follows the input, not the layer's own (much larger) width
        spec = parse_architecture("8C3-P2-200-3", (1, 4, 4), 3)
        stack = _window(spec, SynergyMode.WTL, 1)
        for i, layer in enumerate(spec.layers):
            if layer.is_lif:
                assert stack.weight_traces[i].shape == (1, *layer.in_shape)
                assert stack.threshold_traces[i].shape == (1, *layer.out_shape)
                assert stack.leakage_traces[i].shape == (1, *layer.out_shape)
        conv = spec.layers[0]
        assert stack.weight_traces[0].size == conv.fan_in < conv.fan_out

    def test_mode_w_allocates_weight_traces_only(self):
        spec = parse_architecture("6-3", (4,), 3)
        stack = _window(spec, SynergyMode.W, 1)
        assert stack.weight_traces[0] is not None
        assert stack.threshold_traces[0] is None and stack.leakage_traces[0] is None

    def test_targets_tile_the_batch_over_the_stacked_steps(self):
        spec = parse_architecture("6-3", (4,), 3, time_steps=4)
        target = np.eye(3)[[2, 0]]
        stack = WindowStack(spec, SynergyMode.W, reset_network(spec, 2), target)
        assert stack.depth == 4 and np.array_equal(stack.targets, np.tile(target, (4, 1)))


def _window(spec, mode, batch):
    """The stack a learn call on a fresh batch builds: the window's live traces and the rows a sweep reads."""
    return WindowStack(spec, mode, reset_network(spec, batch), np.eye(spec.num_classes)[[0] * batch])


class TestAccumulate:
    def _tiny(self, mode=SynergyMode.WTL):
        # the window stack holds 6 steps of the 2->1 layer's rows, and a sweep folds its rows at once
        spec = NetworkSpec(input_shape=(2,), layers=(dense_layer(2, 1),), num_classes=1)
        acc = GradAccumulator.zeros(spec, mode)
        stack = _window(spec, mode, 1)
        assert stack.depth == 6 and len(stack.weight[0]) == len(stack.errors[0]) == 6
        return spec, acc, stack

    def test_product_accumulation(self):
        spec, acc, stack = self._tiny()
        stack.weight[0][0] = [1.5, 0.0]
        accumulate_gradients(acc, 0, np.array([[0.1]]), stack)
        assert acc.dw[0][0, 0] == pytest.approx(0.15)

    def test_threshold_gets_minus_delta_with_zero_trace(self):
        spec, acc, stack = self._tiny()
        stack.threshold[0][0] = 0.0
        accumulate_gradients(acc, 0, np.array([[0.3]]), stack)
        assert acc.dtheta[0][0] == pytest.approx(-0.3)

    def test_mode_w_leaves_theta_alpha_untouched(self):
        spec, acc, stack = self._tiny(SynergyMode.W)
        stack.weight[0][0] = 1.0
        accumulate_gradients(acc, 0, np.array([[0.3]]), stack)
        assert np.array_equal(acc.dtheta[0], np.zeros(1))
        assert acc.dalpha[0] == 0.0

    @pytest.mark.parametrize("batch", [1, 4])
    def test_dense_fold_is_one_product_within_the_budget(self, monkeypatch, batch):
        # a budget of 10240 bytes: one sample-step of the 64->40 net's window rows (potentials,
        # weight trace, output spikes, error scratch) takes 1472 bytes, more than half of its
        # fifth, so the window holds K = 1 step and its rows are the live arrays. Each sweep
        # folds its rows at once, with one dgemm call. (OpenBLAS sends products much smaller
        # than these through a small-matrix kernel whose last bit can differ from a GEMM's)
        monkeypatch.setattr(learning.numerics, "COLUMN_BUDGET", 20 * 64 * 8)
        calls = []
        real_dgemm = learning.dgemm

        def recording_dgemm(*args, **kwargs):
            calls.append(kwargs["c"])
            return real_dgemm(*args, **kwargs)

        monkeypatch.setattr(learning, "dgemm", recording_dgemm)
        spec = NetworkSpec(input_shape=(64,), layers=(dense_layer(64, 40),), num_classes=40, time_steps=6)
        rng = np.random.default_rng(4)
        stack = _window(spec, SynergyMode.W, batch)
        assert stack.depth == 1 and stack.weight[0] is stack.weight_traces[0]
        assert stack.errors[0].shape == (batch, 40)
        acc = GradAccumulator.zeros(spec, SynergyMode.W)
        acc.dw[0][...] = rng.normal(size=acc.dw[0].shape)
        dw = acc.dw[0]
        for fold in range(2):  # what two steps and their sweeps do with the layer's rows
            start = dw.copy()
            stack.weight_traces[0][...] = rng.normal(size=stack.weight_traces[0].shape)
            stack.errors[0][...] = rng.normal(size=(batch, 40))
            assert stack.push()  # one step fills the stack
            stack.steps = 0
            accumulate_gradients(acc, 0, stack.errors[0], stack)
            assert len(calls) == fold + 1
            assert np.array_equal(dw, start + np.dot(stack.errors[0].T, stack.weight_traces[0]))
        assert acc.dw[0] is dw and all(np.shares_memory(c, dw) for c in calls)


def _apply(params, acc, rates, samples=1):
    """One update of a freshly made optimizer (plain SGD at momentum 0) over a given sample count."""
    acc.samples = samples
    return apply_updates(params, acc, OptimizerState.fresh(params), rates)


class TestApplyUpdates:
    def _one_layer(self):
        spec = NetworkSpec(input_shape=(2,), layers=(dense_layer(2, 2),), num_classes=2)
        params = init_params(spec, seed=0)
        return spec, params

    def test_zero_gradients_keep_parameters(self):
        spec, params = self._one_layer()
        before = params[0].copy()
        acc = GradAccumulator.zeros(spec)
        _apply(params, acc, UpdateRates(eta_w=0.1, eta_theta=0.1, eta_alpha=0.1), samples=4)
        assert np.array_equal(params[0].weights, before.weights)
        assert np.array_equal(params[0].thresholds, before.thresholds)
        assert params[0].leak == before.leak

    def test_threshold_truncates_at_floor(self):
        spec, params = self._one_layer()
        params[0].thresholds = np.array([0.05, 0.05])
        acc = GradAccumulator.zeros(spec)
        acc.dtheta[0] = np.array([1.0, -1.0])
        _apply(params, acc, UpdateRates(eta_w=0.0, eta_theta=0.1, eta_alpha=0.0))
        assert params[0].thresholds[0] == 0.01  # 0.05 - 0.1 clamps up to the floor
        assert params[0].thresholds[1] == pytest.approx(0.15)

    def test_leak_clamps_to_unit_interval(self):
        spec, params = self._one_layer()
        params[0].leak = 0.9
        acc = GradAccumulator.zeros(spec)
        acc.dalpha[0] = np.array(-6.0)  # summed over the layer's two neurons, whose mean is -3
        _apply(params, acc, UpdateRates(eta_w=0.0, eta_theta=0.0, eta_alpha=0.1))
        assert params[0].leak == 1.0

    def test_mode_w_freezes_theta_and_leak(self):
        spec, params = self._one_layer()
        acc = GradAccumulator.zeros(spec, SynergyMode.W)
        acc.dtheta[0] = np.ones(2)
        acc.dalpha[0] = np.array(1.0)
        _apply(params, acc, UpdateRates(eta_w=0.1, eta_theta=0.1, eta_alpha=0.1))
        assert np.array_equal(params[0].thresholds, np.ones(2))
        assert params[0].leak == pytest.approx(np.exp(-1.0))

    def test_batch_scaling_and_weight_decay(self):
        spec, params = self._one_layer()
        params[0].weights = np.ones((2, 2))
        acc = GradAccumulator.zeros(spec)
        acc.dw[0] = np.full((2, 2), 4.0)
        _apply(params, acc, UpdateRates(eta_w=0.5, eta_theta=0.0, eta_alpha=0.0, weight_decay=0.1), samples=2)
        # step = 0.5 * (4/2 + 0.1*1) = 1.05
        np.testing.assert_allclose(params[0].weights, np.full((2, 2), 1.0 - 1.05), rtol=1e-15)

    def test_conv_threshold_channel_average(self):
        spec = parse_architecture("2C3-2", (1, 2, 2), 2)
        params = init_params(spec, seed=0)
        acc = GradAccumulator.zeros(spec)
        acc.dtheta[0] = np.array([6.0, 22.0])  # summed over each channel's 4 positions: means 1.5 and 5.5
        _apply(params, acc, UpdateRates(eta_w=0.0, eta_theta=0.1, eta_alpha=0.0))
        np.testing.assert_allclose(params[0].thresholds, [1.0 - 0.15, 1.0 - 0.55], rtol=1e-15)

    def test_randomized_truncation_safety(self):
        spec = parse_architecture("4C3-6-3", (1, 4, 4), 3)
        params = init_params(spec, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(300):
            acc = GradAccumulator.zeros(spec)
            for i, layer in enumerate(spec.layers):
                if layer.is_lif:
                    acc.dw[i] = rng.normal(scale=100.0, size=acc.dw[i].shape)
                    acc.dtheta[i] = rng.normal(scale=100.0, size=acc.dtheta[i].shape)
                    acc.dalpha[i] = rng.normal(scale=100.0, size=acc.dalpha[i].shape)
            _apply(params, acc, UpdateRates(eta_w=0.0, eta_theta=1.0, eta_alpha=1.0))
            for i, layer in enumerate(spec.layers):
                if layer.is_lif:
                    assert np.all(params[i].thresholds >= 0.01)
                    assert 0.0 <= params[i].leak <= 1.0


class TestLearnSample:
    def test_wrong_shaped_frame_is_shape_error(self):
        # the trace helpers check no shapes; every frame is checked once, in the forward step
        spec = parse_architecture("6-2", (4,), 2, time_steps=2)
        params = init_params(spec, seed=0)
        batch_target = np.tile([1.0, 0.0], (3, 1))
        cases = [
            (np.ones((3, 5)), batch_target),  # per-sample shape differs from the input
            (np.ones((2, 4)), batch_target),  # batch differs from the target's
            (np.ones(4), batch_target),  # one sample for a batched target
            (np.ones((3, 4)), batch_target[0]),  # a batch for one sample's target
        ]
        for frame, target in cases:
            with pytest.raises(ShapeError):
                learn_batch(spec, params, [frame, frame], target)
        with pytest.raises(ShapeError):  # one sample's frame
            infer_batch(spec, params, [np.ones(4)] * 2)
        # a frame of the input's own shape lacks the batch axis, and says so
        one = parse_architecture("5", (5,), 5)
        with pytest.raises(ShapeError, match=r"\(5,\) has no \(B, \.\.\.\) batch axis"):
            infer_batch(one, init_params(one, seed=0), [np.ones(5)])

    def test_empty_window_is_shape_error(self):
        spec = parse_architecture("6-2", (4,), 2, time_steps=2)
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError, match="no frames"):
            learn_batch(spec, params, [], np.tile([1.0, 0.0], (3, 1)))

    def test_mode_w_gates_accumulators(self):
        spec = parse_architecture("6-3", (4,), 3, time_steps=4)
        params = init_params(spec, seed=1)
        frames = [np.full(4, 0.8)] * 4
        target = np.array([0.0, 1.0, 0.0])
        acc = learn_sample(spec, params, frames, target, mode=SynergyMode.W)
        for i in (0, 1):
            assert np.array_equal(acc.dtheta[i], np.zeros_like(acc.dtheta[i]))
            assert np.array_equal(acc.dalpha[i], np.zeros_like(acc.dalpha[i]))
        assert np.any(acc.dw[0] != 0.0)  # first layer's trace is the raw input

    def test_zero_weight_network_ce(self):
        # a silent single-layer network still learns through the uniform softmax
        spec = parse_architecture("2", (3,), 2, time_steps=1)
        params = init_params(spec, seed=0)
        params[0].weights[:] = 0.0
        frames = [np.array([1.0, 1.0, 1.0])]
        target = np.array([1.0, 0.0])
        acc = learn_sample(spec, params, frames, target, mode=SynergyMode.W, loss=LossKind.CE)
        # output spikes are zero -> softmax uniform -> dE/ds = (-0.5, 0.5); margin -1 -> phi = e^-1
        delta = np.array([-0.5, 0.5]) * np.exp(-1.0)
        np.testing.assert_allclose(acc.dw[0], np.outer(delta, frames[0]), atol=1e-15)

    def test_zero_weight_deep_network_has_silent_upper_traces(self):
        spec = parse_architecture("3-2", (3,), 2, time_steps=2)
        params = init_params(spec, seed=0)
        for p in params:
            p.weights[:] = 0.0
        frames = [np.ones(3)] * 2
        acc = learn_sample(spec, params, frames, np.array([1.0, 0.0]), mode=SynergyMode.W)
        # the hidden layer never fires, so the output layer's trace stays zero
        assert np.array_equal(acc.dw[1], np.zeros((2, 3)))

    def test_one_error_evaluation_per_layer_per_step(self, monkeypatch):
        # one output and one hidden error per neuron layer and backward sweep, over every
        # stacked row at once: one sweep per K steps and one for the rest, so one per step at K = 1
        calls = {"output": [], "hidden": 0}
        real_output, real_hidden = learning.output_error, learning.hidden_error

        def counting_output(output_spikes, *a, **k):
            calls["output"].append(len(output_spikes))
            return real_output(output_spikes, *a, **k)

        def counting_hidden(*a, **k):
            calls["hidden"] += 1
            return real_hidden(*a, **k)

        monkeypatch.setattr(learning, "output_error", counting_output)
        monkeypatch.setattr(learning, "hidden_error", counting_hidden)
        spec = parse_architecture("4C3-P2-6-3", (1, 4, 4), 3, time_steps=5)
        params = init_params(spec, seed=0)
        frames = [np.full((1, 4, 4), 0.5)] * 5
        target = np.array([1.0, 0.0, 0.0])
        # a budget of 15000 bytes leaves the stack 3000: two 1424-byte sample-steps in mode W,
        # none of WTL's 3136 (K = 1)
        for budget, sweeps in ((None, {SynergyMode.W: [5], SynergyMode.WTL: [5]}),
                               (15000, {SynergyMode.W: [2, 2, 1], SynergyMode.WTL: [1] * 5})):
            if budget is not None:
                monkeypatch.setattr(learning.numerics, "COLUMN_BUDGET", budget)
            for mode in (SynergyMode.W, SynergyMode.WTL):
                calls["output"], calls["hidden"] = [], 0
                learn_sample(spec, params, frames, target, mode=mode)
                assert calls["output"] == sweeps[mode]  # the rows of each sweep
                assert calls["hidden"] == 2 * len(sweeps[mode])  # two hidden neuron layers per sweep


class TestLearningBytes:
    @staticmethod
    def _warm_peak(fn) -> int:
        """Traced peak of a second call of fn above what existed before it."""
        fn()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_random_nets_peak_at_or_above_the_held_bytes_and_flat_in_the_window(self):
        # 16 random nets, one per spike mode x synergy mode x batch (1 or 4), at time_steps 8.
        # The peak at window 128 read at most 1.103x the peak at window 8 over seeds 100-139,
        # on nets of a few KiB where transients show; 1.25 leaves margin.
        rng = np.random.default_rng(0)
        kinds = set()
        for n in range(16):
            spec, params = checks.random_network(rng, time_steps=8)
            spec = replace(spec, spike_mode=(SpikeMode.HARD, SpikeMode.SOFT)[n % 2])
            mode, batch = list(SynergyMode)[n // 2 % 4], (1, 4)[n // 8]
            kinds.add(len(spec.input_shape))
            frame = rng.uniform(0.1, 1.0, size=(batch, *spec.input_shape))
            target = np.eye(spec.num_classes)[rng.integers(spec.num_classes, size=batch)]
            held = learning_bytes(spec, batch, mode)
            peaks = {window: self._warm_peak(lambda: learn_batch(spec, params, [frame] * window, target, mode))
                     for window in (8, 32, 128)}
            case = (n, spec.layers, spec.spike_mode, mode, batch, held, peaks)
            assert min(peaks.values()) >= held, case
            assert peaks[128] <= 1.25 * peaks[8], case
        assert kinds == {1, 3}  # dense and convolutional inputs

    def test_orders_modes_and_grows_with_the_batch(self):
        # at batches 1 and 2 the stack is time_steps deep in every mode, so a mode's extra traces
        # only add bytes; at larger batches it is shallower for the modes with more traces
        spec = parse_architecture("4C3-P2-8-3", (1, 4, 4), 3, time_steps=8)
        for batch in (1, 2):
            target = np.zeros((batch, 3))
            assert {WindowStack(spec, mode, reset_network(spec, batch), target).depth for mode in SynergyMode} == {8}
            held = {mode: learning_bytes(spec, batch, mode) for mode in SynergyMode}
            assert held[SynergyMode.W] < held[SynergyMode.WT] < held[SynergyMode.WTL]
            assert held[SynergyMode.W] < held[SynergyMode.WL] < held[SynergyMode.WTL]
        for mode in SynergyMode:
            assert learning_bytes(spec, 1, mode) < learning_bytes(spec, 4, mode) < learning_bytes(spec, 32, mode)

    def test_counts_each_buffer_once(self):
        # a K = 1 stack's blocks are its live arrays, and an untrained family is one 8-byte zero
        spec = parse_architecture("6-3", (4,), 3, time_steps=1)
        states = reset_network(spec, 1)
        assert WindowStack(spec, SynergyMode.W, states, np.zeros((1, 3))).depth == 1
        # per neuron layer: potentials, spikes, weight trace, error scratch of the largest layer, dw,
        # a zero dtheta and a zero dalpha; one output-count row and one target row
        floats = (6 + 6 + 4 + 6 + 24) + (3 + 3 + 6 + 0 + 18) + 3 + 3
        assert learning_bytes(spec, 1, SynergyMode.W) == 8 * floats + 4 * 8
