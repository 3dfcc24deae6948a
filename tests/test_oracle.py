from dataclasses import replace

import numpy as np
import pytest

from stopsnn import checks, learning
from stopsnn.errors import ShapeError, SizeGuardError, UnsupportedModeError
from stopsnn.learning import LossKind, SynergyMode, learn_sample
from stopsnn.lif import SpikeMode
from stopsnn.oracle import compare_gradients, naive_stop_gradients, record_tape, unrolled_stbp_gradients
from stopsnn.oracle.finitediff import finite_diff_gradient, total_relaxed_loss
from stopsnn.oracle.linearize import FlatNetwork
from stopsnn.topology import LayerKind, forward_timestep, init_params, parse_architecture, reset_network


def small_net(arch="4-3", shape=(4,), classes=3, steps=3, seed=0):
    spec = parse_architecture(arch, shape, classes, time_steps=steps)
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    frames = [rng.uniform(0.1, 1.0, size=shape) for _ in range(steps)]
    target = np.zeros(classes)
    target[0] = 1.0
    return spec, params, frames, target


def soft(spec):
    return replace(spec, spike_mode=SpikeMode.SOFT)


class TestFlatNetwork:
    @pytest.mark.parametrize("mode", [SpikeMode.HARD, SpikeMode.SOFT])
    def test_matches_layered_forward(self, mode):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec, params = checks.random_network(rng)
            spec = replace(spec, spike_mode=mode)
            frames, _ = checks.random_sample(rng, spec, low=0.0)
            net = FlatNetwork(spec, params)
            potentials, spikes = net.zero_state()
            states = reset_network(spec, 1)
            for frame in frames:
                potentials, spikes, _ = net.step(potentials, spikes, frame)
                states, out = forward_timestep(spec, params, states, frame[None])
            for i in spec.lif_indices:
                np.testing.assert_allclose(potentials[i], states[i].potentials.ravel(), atol=1e-11)
                np.testing.assert_allclose(spikes[i], states[i].spikes.ravel(), atol=1e-11)


class TestNaive:
    def test_zero_weight_net_matches_streaming_exactly(self):
        spec, params, frames, target = small_net()
        for p in params:
            if p is not None:
                p.weights[:] = 0.0
        acc = learn_sample(spec, params, frames, target, mode=SynergyMode.WTL)
        ref = naive_stop_gradients(spec, params, frames, target, SynergyMode.WTL)
        for i in spec.lif_indices:
            np.testing.assert_array_equal(acc.dw[i], ref.dw[i])
            np.testing.assert_array_equal(acc.dtheta[i], ref.dtheta[i])
            np.testing.assert_array_equal(acc.dalpha[i], ref.dleak[i])

    def test_mode_w_zeroes_theta_alpha(self):
        spec, params, frames, target = small_net()
        ref = naive_stop_gradients(spec, params, frames, target, SynergyMode.W)
        for i in spec.lif_indices:
            assert np.array_equal(ref.dtheta[i], np.zeros_like(ref.dtheta[i]))
            assert ref.dleak[i] == 0.0

    def test_size_guard(self):
        spec = parse_architecture("200-200", (100,), 200, time_steps=1)
        params = init_params(spec, seed=0)
        with pytest.raises(SizeGuardError):
            naive_stop_gradients(spec, params, [np.zeros(100)], np.eye(200)[0], SynergyMode.W)

    def test_random_nets_match_streaming(self):
        result = checks.check_streaming_vs_naive(trials=40, seed=9)
        assert result.ok, result.line()


class TestUnrolled:
    def test_tape_length_equals_window(self):
        spec, params, frames, _ = small_net(steps=5)
        tape = record_tape(spec, params, frames)
        assert tape.length == 5

    def test_tape_bytes_grow_linearly_with_window(self):
        spec, params, _, _ = small_net(steps=1)
        rng = np.random.default_rng(0)
        sizes = {}
        for steps in (2, 20):
            frames = [rng.uniform(size=(4,)) for _ in range(steps)]
            sizes[steps] = record_tape(spec, params, frames).nbytes
        # a step records both layers' potentials and spikes and the frame; the hidden spikes,
        # which are also the output layer's input, count once
        assert sizes[2] == 2 * 8 * (4 + 3 + 4 + 3 + 4)
        assert sizes[20] == 10 * sizes[2]

    def test_tape_replays_exactly(self):
        spec, params, frames, _ = small_net(steps=4, seed=3)
        tape = record_tape(spec, params, frames)

        def same(a, b):
            return a.length == b.length and all(
                np.array_equal(x[t][i], y[t][i])
                for x, y in ((a.potentials, b.potentials), (a.spikes, b.spikes))
                for t in range(a.length) for i in a.potentials[t]
            )

        assert same(record_tape(spec, params, frames), tape)
        params[0].weights[0, 0] += 0.5
        assert not same(record_tape(spec, params, frames), tape)

    def test_illusory_flag_irrelevant_at_single_step(self):
        spec, params, frames, target = small_net(steps=1, seed=5)
        spec = soft(spec)
        with_term = unrolled_stbp_gradients(spec, params, frames, target, include_illusory=True)
        without = unrolled_stbp_gradients(spec, params, frames, target, include_illusory=False)
        report = compare_gradients(
            {"dw": with_term.dw, "dtheta": with_term.dtheta, "dleak": with_term.dleak},
            {"dw": without.dw, "dtheta": without.dtheta, "dleak": without.dleak},
        )
        assert report.max_abs == 0.0

    def test_full_sweep_is_exact_gradient_in_soft_mode(self):
        # fixed seed: a central difference at h=1e-5 bottoms out near 2e-11
        # absolute, so randomly near-cancelled coordinates below ~2e-7 would
        # breach the relative tolerance despite a correct sweep
        result = checks.check_stbp_vs_finite_diff(trials=8, seed=5)
        assert result.ok, result.line()

    def test_detached_reset_matches_streaming_output_layer(self):
        result = checks.check_output_layer_detached(trials=12, seed=13)
        assert result.ok, result.line()


class TestFiniteDiff:
    def test_hard_mode_unsupported(self):
        spec, params, frames, target = small_net()  # a hard spec is refused
        assert spec.spike_mode is SpikeMode.HARD
        with pytest.raises(UnsupportedModeError):
            finite_diff_gradient(spec, params, frames, target, (0, "weight", 0))

    def test_second_order_convergence(self):
        spec, params, frames, target = small_net(steps=2, seed=7)
        spec = soft(spec)
        coordinate = (0, "weight", 1)
        exact = unrolled_stbp_gradients(spec, params, frames, target, include_illusory=True).dw[0].flat[1]
        err_coarse = abs(finite_diff_gradient(spec, params, frames, target, coordinate, h=2e-4) - exact)
        err_fine = abs(finite_diff_gradient(spec, params, frames, target, coordinate, h=1e-4) - exact)
        assert err_fine < err_coarse
        assert err_fine == pytest.approx(err_coarse / 4.0, rel=0.35)

    def test_symmetric_coordinate_has_zero_gradient(self):
        # two output neurons fed identically and a symmetric (uniform-target-like)
        # situation: the loss is symmetric under swapping them, so moving the
        # shared input weight of one against the other cancels at first order
        spec = soft(parse_architecture("2", (1,), 2, time_steps=1))
        params = init_params(spec, seed=0)
        params[0].weights[:] = 1.0  # both neurons identical
        frames = [np.array([0.7])]
        # symmetric target is not one-hot, so emulate via difference of the two
        gradients = [
            finite_diff_gradient(spec, params, frames, np.array([1.0, 0.0]), (0, "weight", k))
            for k in range(2)
        ]
        swapped = [
            finite_diff_gradient(spec, params, frames, np.array([0.0, 1.0]), (0, "weight", k))
            for k in range(2)
        ]
        assert gradients[0] == pytest.approx(swapped[1], abs=1e-10)
        assert gradients[1] == pytest.approx(swapped[0], abs=1e-10)

    def test_streaming_exact_at_single_step(self):
        result = checks.check_t1_finite_diff(trials=12, seed=17)
        assert result.ok, result.line()

    def test_relaxed_loss_is_finite_and_positive(self):
        spec, params, frames, target = small_net()
        value = total_relaxed_loss(soft(spec), params, frames, target)
        assert np.isfinite(value) and value > 0.0


class TestLossNames:
    """Every oracle entry reads its loss as a LossKind or its value."""

    @staticmethod
    def entries():
        spec = soft(parse_architecture("4-2", (3,), 2, time_steps=6))
        params = init_params(spec, seed=0)
        frames, target = [np.ones(3)] * 6, np.array([1.0, 0.0])
        return {
            "relaxed": lambda loss: total_relaxed_loss(spec, params, frames, target, loss=loss),
            "naive": lambda loss: naive_stop_gradients(spec, params, frames, target, SynergyMode.WTL, loss=loss),
            "unrolled": lambda loss: unrolled_stbp_gradients(spec, params, frames, target, loss=loss),
        }

    def test_the_losses_differ_on_this_net(self):
        relaxed = self.entries()["relaxed"]
        assert relaxed("ce") == pytest.approx(4.933, abs=1e-3)
        assert relaxed("mse") == pytest.approx(3.120, abs=1e-3)

    @pytest.mark.parametrize("entry", ["relaxed", "naive", "unrolled"])
    def test_an_unknown_name_is_refused(self, entry):
        with pytest.raises(ValueError):
            self.entries()[entry]("CE")

    @pytest.mark.parametrize("entry", ["relaxed", "naive", "unrolled"])
    def test_member_and_value_agree_bit_for_bit(self, entry):
        run = self.entries()[entry]
        by_member, by_value = run(LossKind.CE), run("ce")
        if entry == "relaxed":
            assert by_member == by_value
            return
        for name in vars(by_member):
            for a, b in zip(getattr(by_member, name), getattr(by_value, name)):
                np.testing.assert_array_equal(a, b)


class TestCompareGradients:
    def test_identical(self):
        report = compare_gradients({"a": np.ones(3)}, {"a": np.ones(3)})
        assert report.max_abs == 0.0 and report.max_rel == 0.0

    def test_small_relative(self):
        report = compare_gradients(np.array([1.0]), np.array([1.001]))
        assert report.max_rel == pytest.approx(1e-3, rel=1e-2)

    def test_zeros(self):
        report = compare_gradients(np.zeros(4), np.zeros(4))
        assert report.max_abs == 0.0 and report.max_rel == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compare_gradients(np.zeros(3), np.zeros(4))

    def test_alignment_mismatch(self):
        with pytest.raises(ShapeError):
            compare_gradients({"a": np.zeros(3)}, {"b": np.zeros(3)})


class TestMutationDetection:
    def test_threshold_sign_flip_is_caught(self, monkeypatch):
        real = learning.accumulate_gradients

        def flipped(acc, index, delta, stack):
            real(acc, index, delta, stack)
            if acc.mode.trains_thresholds:
                # undo and re-apply with the wrong sign, summed per threshold
                d = delta.reshape(len(delta), len(acc.dtheta[index]), -1)
                trace = stack.threshold[index][:len(delta)].reshape(d.shape)
                acc.dtheta[index] -= 2.0 * (d * (trace - 1.0)).sum(axis=(0, 2))
            return acc

        monkeypatch.setattr(learning, "accumulate_gradients", flipped)
        result = checks.check_streaming_vs_naive(trials=8, seed=21)
        assert not result.ok

    def test_conv_threshold_trace_flipped_top_to_bottom_is_caught(self, monkeypatch):
        # a convolution's threshold gradient is one sum per channel, yet a trace paired with the
        # errors of the mirrored rows of the channel's map still shows in the sum
        real = learning.accumulate_gradients
        flips = []

        def misaligned(acc, index, delta, stack):
            real(acc, index, delta, stack)
            if acc.mode.trains_thresholds and acc.spec.layers[index].kind is LayerKind.CONV:
                trace = stack.threshold[index][:len(delta)]
                acc.dtheta[index] += np.einsum("nchw,nchw->c", delta, trace[:, :, ::-1] - trace)
                flips.append(index)
            return acc

        monkeypatch.setattr(learning, "accumulate_gradients", misaligned)
        result = checks.check_streaming_vs_naive(trials=8, seed=21)
        assert flips and not result.ok, result.line()
