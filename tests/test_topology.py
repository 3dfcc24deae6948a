import math
from dataclasses import replace

import numpy as np
import pytest

from stopsnn import topology
from stopsnn.errors import ParseError, ShapeError
from stopsnn.lif import SpikeMode
from stopsnn.topology import (
    InitMode,
    LayerKind,
    NetworkSpec,
    dense_layer,
    forward_timestep,
    init_params,
    parse_architecture,
    reset_network,
)


class TestParseArchitecture:
    def test_conv_pool_dense(self):
        spec = parse_architecture("64C3-P2-10", (3, 32, 32), 10)
        kinds = [l.kind for l in spec.layers]
        assert kinds == [LayerKind.CONV, LayerKind.AVGPOOL, LayerKind.FLATTEN, LayerKind.DENSE]
        conv = spec.layers[0]
        assert conv.out_shape == (64, 32, 32) and conv.kernel == 3 and conv.stride == 1 and conv.padding == 1
        assert spec.layers[1].out_shape == (64, 16, 16)
        assert spec.layers[2].out_shape == (64 * 16 * 16,)
        assert spec.layers[3].out_shape == (10,)

    def test_single_dense(self):
        spec = parse_architecture("10", (100,), 10)
        assert [l.kind for l in spec.layers] == [LayerKind.DENSE]
        assert spec.layers[0].in_shape == (100,)

    def test_indivisible_pool_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_architecture("64C3-P3", (3, 32, 32), 10)
        assert err.value.token == "P3"
        assert err.value.position == 1

    def test_unknown_token(self):
        with pytest.raises(ParseError) as err:
            parse_architecture("64C3-Q2-10", (3, 32, 32), 10)
        assert err.value.token == "Q2"

    def test_wrong_final_width(self):
        with pytest.raises(ParseError):
            parse_architecture("16C3-P2-12", (1, 8, 8), 10)

    def test_conv_after_dense_rejected(self):
        with pytest.raises(ParseError):
            parse_architecture("10-4C3", (3, 8, 8), 10)

    def test_empty_string(self):
        with pytest.raises(ParseError):
            parse_architecture("", (4,), 2)

    def test_chain_of_dense_layers(self):
        spec = parse_architecture("32-16-4", (8,), 4)
        assert [l.out_shape for l in spec.layers] == [(32,), (16,), (4,)]

    def test_deep_conv_stack_shape_accounting(self):
        arch = "64C3-P2-128C3-P2-256C3-256C3-P2-512C3-512C3-P2-512C3-512C3-P2-4096-4096-10"
        spec = parse_architecture(arch, (3, 32, 32), 10)
        conv_shapes = [l.out_shape for l in spec.layers if l.kind is LayerKind.CONV]
        assert conv_shapes[0] == (64, 32, 32)
        assert conv_shapes[-1] == (512, 2, 2)
        flat = [l for l in spec.layers if l.kind is LayerKind.FLATTEN]
        assert flat[0].out_shape == (512,)  # 512 channels at 1x1 after five poolings
        assert spec.layers[-1].out_shape == (10,)


class TestInitParams:
    def test_threshold_and_leak_initial_values(self):
        spec = parse_architecture("8C3-P2-6", (1, 4, 4), 6)
        params = init_params(spec, seed=0)
        for layer, p in zip(spec.layers, params):
            if layer.is_lif:
                assert np.all(p.thresholds == 1.0)
                assert p.leak == pytest.approx(math.exp(-1.0), abs=0)
            else:
                assert p is None

    def test_conv_has_per_channel_thresholds(self):
        spec = parse_architecture("8C3-6", (1, 4, 4), 6)
        params = init_params(spec, seed=0)
        assert params[0].thresholds.shape == (8,)
        assert params[-1].thresholds.shape == (6,)

    def test_deterministic_in_seed(self):
        spec = parse_architecture("12-4", (6,), 4)
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.weights, pb.weights)
        c = init_params(spec, seed=43)
        assert not np.array_equal(a[0].weights, c[0].weights)

    def test_fan_in_scaled_sigma(self):
        spec = parse_architecture("200", (100,), 200)
        params = init_params(spec, seed=1, init_mode=InitMode.FAN_IN_SCALED)
        sample_std = params[0].weights.std()
        assert sample_std == pytest.approx(math.sqrt(2.0 / 100.0), rel=0.10)

    def test_unit_gaussian_sigma(self):
        spec = parse_architecture("200", (100,), 200)
        params = init_params(spec, seed=1, init_mode=InitMode.UNIT_GAUSSIAN)
        assert params[0].weights.std() == pytest.approx(1.0, rel=0.10)


class TestForward:
    def test_reset_is_all_zero(self):
        spec = parse_architecture("4C3-P2-5", (1, 4, 4), 5)
        states = reset_network(spec, 2)
        assert len(states) == len(spec.layers)
        for layer, state in zip(spec.layers, states):
            if layer.kind is LayerKind.FLATTEN:  # a view of its input from the first step on
                assert state.spikes is None
            else:
                assert np.array_equal(state.spikes, np.zeros((2, *layer.out_shape)))
            if layer.is_lif:
                assert np.array_equal(state.potentials, np.zeros((2, *layer.out_shape)))
            else:
                assert state.potentials is None

    def test_zero_weights_stay_silent(self):
        spec = parse_architecture("6-3", (4,), 3)
        params = init_params(spec, seed=0)
        for p in params:
            p.weights[:] = 0.0
        states = reset_network(spec, 1)
        for _ in range(4):
            states, out = forward_timestep(spec, params, states, np.ones((1, 4)))
            assert np.array_equal(out, np.zeros((1, 3)))
            assert np.array_equal(states[0].potentials, np.zeros((1, 6)))

    def _unit_dense_spec(self, depth):
        layers = tuple(dense_layer(1, 1) for _ in range(depth))
        spec = NetworkSpec(input_shape=(1,), layers=layers, num_classes=1)
        params = init_params(spec, seed=0)
        for p in params:
            p.weights[:] = 1.0
            p.leak = 0.5
        return spec, params

    def test_single_unit_fires_every_step(self):
        spec, params = self._unit_dense_spec(1)
        states = reset_network(spec, 1)
        for _ in range(5):
            states, out = forward_timestep(spec, params, states, np.array([[1.0]]))
            assert out[0, 0] == 1.0

    def test_stacked_units_relay_spikes(self):
        spec, params = self._unit_dense_spec(2)
        states = reset_network(spec, 1)
        seen = []
        for _ in range(5):
            states, out = forward_timestep(spec, params, states, np.array([[1.0]]))
            seen.append(out[0, 0])
        # within one sweep layer 2 sees layer 1's current spike, so it fires from t=1
        assert seen == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_forward_is_reproducible_after_reset(self):
        spec = parse_architecture("4C3-P2-6-3", (1, 4, 4), 3, time_steps=4)
        params = init_params(spec, seed=3)
        rng = np.random.default_rng(0)
        frames = [rng.uniform(0, 1, size=(1, 1, 4, 4)) for _ in range(4)]

        def raster():
            states = reset_network(spec, 1)
            outs = []
            for f in frames:
                states, out = forward_timestep(spec, params, states, f)
                outs.append(out.copy())
            return np.array(outs)

        assert np.array_equal(raster(), raster())

    def test_step_advances_the_given_state_arrays(self):
        spec = parse_architecture("4C3-P2-6-3", (1, 4, 4), 3)
        params = init_params(spec, seed=3)
        states = reset_network(spec, batch=2)
        arrays = [(st.potentials, st.spikes) for st in states]
        frame = np.random.default_rng(0).uniform(size=(2, 1, 4, 4))
        for _ in range(3):
            returned, out = forward_timestep(spec, params, states, frame)
            assert returned is states
            for i in spec.lif_indices:
                assert states[i].potentials is arrays[i][0] and states[i].spikes is arrays[i][1]
            assert out is states[-1].spikes

    def test_pool_and_flatten_are_linear(self):
        spec = parse_architecture("4C3-P2-6-3", (1, 4, 4), 3)
        layer = spec.layers[1]
        x = np.random.default_rng(1).uniform(size=(2, 4, 4, 4))
        doubled = topology.passthrough(layer, 2.0 * x)
        assert np.allclose(doubled, 2.0 * topology.passthrough(layer, x))

    def test_input_shape_mismatch(self):
        spec = parse_architecture("3", (4,), 3)
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            forward_timestep(spec, params, reset_network(spec, 1), np.ones((1, 5)))

    def test_soft_mode_outputs_fractional(self):
        spec = replace(parse_architecture("6-3", (4,), 3), spike_mode=SpikeMode.SOFT)
        params = init_params(spec, seed=5)
        states = reset_network(spec, 1)
        states, out = forward_timestep(spec, params, states, np.ones((1, 4)))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sweep_touches_each_neuron_layer_exactly_once(self, monkeypatch):
        touched = []
        real = topology.synaptic_input

        def counting(layer, params, presyn):
            touched.append(id(layer))
            return real(layer, params, presyn)

        monkeypatch.setattr(topology, "synaptic_input", counting)
        spec = parse_architecture("4C3-P2-6-3", (1, 4, 4), 3)
        params = init_params(spec, seed=0)
        forward_timestep(spec, params, reset_network(spec, 1), np.ones((1, 1, 4, 4)))
        assert sorted(touched) == sorted(id(spec.layers[i]) for i in spec.lif_indices)


class TestNetworkSpecValidation:
    def test_broken_chain_rejected(self):
        with pytest.raises(ShapeError):
            NetworkSpec(input_shape=(4,), layers=(dense_layer(5, 3),), num_classes=3)

    def test_class_count_enforced(self):
        with pytest.raises(ShapeError):
            NetworkSpec(input_shape=(4,), layers=(dense_layer(4, 3),), num_classes=5)
