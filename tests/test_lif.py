import numpy as np
import pytest

from stopsnn import lif
from stopsnn.errors import EncodingError, ShapeError
from stopsnn.lif import LifState, SpikeMode, SurrogateKind


def zeros_state(n):
    return LifState(potentials=np.zeros(n), spikes=np.zeros(n))


class TestSurrogates:
    @pytest.mark.parametrize("kind", list(SurrogateKind))
    def test_peak_symmetry_positivity(self, kind):
        xs = np.linspace(-4, 4, 101)
        vals = lif.surrogate_eval(xs, kind)
        assert lif.surrogate_eval(np.array(0.0), kind) == 1.0
        np.testing.assert_array_equal(vals, lif.surrogate_eval(-xs, kind))
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_exp_abs_value(self):
        assert lif.surrogate_eval(np.array(0.5), SurrogateKind.EXP_ABS) == pytest.approx(
            0.6065306597126334, abs=1e-12
        )

    def test_inv_quad_value(self):
        assert lif.surrogate_eval(np.array(1.0), SurrogateKind.INV_QUAD) == pytest.approx(
            1.0 / (1.0 + np.pi**2), abs=1e-12
        )


class TestSoftMode:
    @pytest.mark.parametrize("kind", list(SurrogateKind))
    def test_range_strictly_inside_unit_interval(self, kind):
        xs = np.linspace(-30, 30, 301)
        vals = lif.soft_spike(xs, kind)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) > 0)  # strictly increasing

    @pytest.mark.parametrize("kind", list(SurrogateKind))
    def test_derivative_matches_centered_difference(self, kind):
        h = 1e-5
        xs = np.linspace(-3, 3, 61)
        numeric = (lif.soft_spike(xs + h, kind) - lif.soft_spike(xs - h, kind)) / (2 * h)
        analytic = lif.soft_spike_derivative(xs, kind)
        smooth = np.abs(xs) > 1e-3  # EXP_ABS is only C1 at 0: centered diff is O(h) there
        np.testing.assert_allclose(numeric[smooth], analytic[smooth], rtol=0, atol=1e-6)
        np.testing.assert_allclose(numeric, analytic, rtol=0, atol=5e-6)

    def test_inv_quad_derivative_equals_surrogate(self):
        xs = np.linspace(-3, 3, 61)
        np.testing.assert_array_equal(
            lif.soft_spike_derivative(xs, SurrogateKind.INV_QUAD),
            lif.surrogate_eval(xs, SurrogateKind.INV_QUAD),
        )

    def test_hard_mode_uses_surrogate(self):
        xs = np.linspace(-2, 2, 11)
        np.testing.assert_array_equal(
            lif.firing_derivative(xs, SurrogateKind.EXP_ABS, SpikeMode.HARD),
            lif.surrogate_eval(xs, SurrogateKind.EXP_ABS),
        )


class TestLifStep:
    def test_zero_input_stays_silent(self):
        state = zeros_state(3)
        for _ in range(5):
            state = lif.lif_step(state, np.zeros(3), np.ones(3), 0.5, SurrogateKind.EXP_ABS, SpikeMode.HARD)
            assert np.array_equal(state.potentials, np.zeros(3))
            assert np.array_equal(state.spikes, np.zeros(3))

    def test_steady_firing(self):
        # threshold 1, leak 0.5, constant drive 1.0: fires every step
        state = zeros_state(1)
        for _ in range(4):
            state = lif.lif_step(state, np.array([1.0]), np.array([1.0]), 0.5, SurrogateKind.EXP_ABS, SpikeMode.HARD)
            assert state.potentials[0] == 1.0
            assert state.spikes[0] == 1.0

    def test_single_pulse_decays(self):
        state = zeros_state(1)
        theta, leak = np.array([1.0]), 0.5
        state = lif.lif_step(state, np.array([1.5]), theta, leak, SurrogateKind.EXP_ABS, SpikeMode.HARD)
        assert state.potentials[0] == 1.5 and state.spikes[0] == 1.0
        state = lif.lif_step(state, np.array([0.0]), theta, leak, SurrogateKind.EXP_ABS, SpikeMode.HARD)
        assert state.potentials[0] == 0.25 and state.spikes[0] == 0.0
        state = lif.lif_step(state, np.array([0.0]), theta, leak, SurrogateKind.EXP_ABS, SpikeMode.HARD)
        assert state.potentials[0] == 0.125 and state.spikes[0] == 0.0

    def test_fires_exactly_at_threshold(self):
        state = lif.lif_step(zeros_state(1), np.array([1.0]), np.array([1.0]), 0.5, SurrogateKind.EXP_ABS,
                             SpikeMode.HARD)
        assert state.spikes[0] == 1.0

    def test_pure_accumulation_with_no_leak_loss(self):
        # leakage 1 and unreachable threshold: potential is the running input sum
        state = zeros_state(1)
        total = 0.0
        rng = np.random.default_rng(0)
        for _ in range(6):
            drive = float(rng.uniform(0, 1))
            total += drive
            state = lif.lif_step(state, np.array([drive]), np.array([1e9]), 1.0, SurrogateKind.EXP_ABS, SpikeMode.HARD)
            assert state.potentials[0] == pytest.approx(total, rel=1e-15)

    def test_memoryless_with_full_leak(self):
        state = zeros_state(1)
        for drive in (0.3, 1.7, 0.2):
            state = lif.lif_step(state, np.array([drive]), np.array([1.0]), 0.0, SurrogateKind.EXP_ABS, SpikeMode.HARD)
            assert state.potentials[0] == drive

    def test_hard_spikes_are_binary(self):
        rng = np.random.default_rng(1)
        state = zeros_state(50)
        for _ in range(10):
            state = lif.lif_step(state, rng.normal(size=50), np.ones(50), 0.7, SurrogateKind.INV_QUAD, SpikeMode.HARD)
            assert set(np.unique(state.spikes)) <= {0.0, 1.0}

    def test_soft_spikes_fractional(self):
        state = lif.lif_step(
            zeros_state(4), np.array([-1.0, 0.0, 1.0, 2.0]), np.ones(4), 0.5,
            SurrogateKind.EXP_ABS, SpikeMode.SOFT,
        )
        assert np.all(state.spikes > 0.0) and np.all(state.spikes < 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            lif.lif_step(zeros_state(2), np.zeros(3), np.ones(3), 0.5, SurrogateKind.EXP_ABS, SpikeMode.HARD)


class TestEncodeDirect:
    def test_upper_bound(self):
        frames = lif.encode_direct(np.array([255.0]), 255.0, 4)
        assert len(frames) == 4
        for f in frames:
            assert f[0] == 1.0

    def test_zero(self):
        frames = lif.encode_direct(np.array([0.0]), 255.0, 3)
        assert all(f[0] == 0.0 for f in frames)

    def test_midpoint(self):
        frames = lif.encode_direct(np.array([128.0]), 255.0, 5)
        assert len(frames) == 5
        for f in frames:
            assert f[0] == pytest.approx(128.0 / 255.0, abs=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(EncodingError):
            lif.encode_direct(np.array([-1.0]), 255.0, 2)
        with pytest.raises(EncodingError):
            lif.encode_direct(np.array([300.0]), 255.0, 2)

    def test_no_steps_raises(self):
        with pytest.raises(EncodingError):
            lif.encode_direct(np.array([1.0]), 255.0, 0)

