"""The batch axis through the streaming engine.

A batched learn call must equal the sum of per-sample reference
gradients, its memory must stay flat in the window length, and batched
evaluation must agree with one sample at a time.
"""
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg.blas import dgemm

from stopsnn import learning, numerics, trainer
from stopsnn.checks import STREAMING_VS_NAIVE_TOL
from stopsnn.config import TrainConfig
from stopsnn.datasets import Sample, batch_frames, batch_targets, dataset_from_images, synthetic_glyphs
from stopsnn.errors import NumericError
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
    learn_batch,
    learn_sample,
    learning_bytes,
    loss_value,
    output_error,
    update_leakage_traces,
    update_threshold_traces,
    update_weight_traces,
    weight_adjoint,
)
from stopsnn.lif import SpikeMode
from stopsnn.oracle import compare_gradients, naive_stop_gradients, unrolled_stbp_gradients
from stopsnn.topology import (
    LayerKind,
    broadcast_thresholds,
    forward_timestep,
    init_params,
    parse_architecture,
    passthrough_adjoint,
    reset_network,
)

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
                "dalpha": _summed(r.dleak for r in refs)}
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
            for family, shape in ((acc.dtheta, (spec.layers[i].num_thresholds,)), (acc.dalpha, ())):
                assert family[i].shape == shape
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


# the benchmark's three networks at their modes: W1 images, the W2 teacher student, long event streams
WORKLOAD_NETS = {
    "conv-image": ("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10, 6, SynergyMode.WTL),
    "dense-teacher": ("100-100-100-100-4", (1, 10, 10), 4, 6, SynergyMode.WTL),
    "event-long": ("128-128-10", (2, 16, 16), 10, 32, SynergyMode.W),
}


def _workload_net(name):
    arch, input_shape, classes, steps, mode = WORKLOAD_NETS[name]
    return parse_architecture(arch, input_shape, classes, time_steps=steps), mode


def _stack(spec, mode, batch):
    """The WindowStack a learn call on a fresh batch builds."""
    return WindowStack(spec, mode, reset_network(spec, batch), np.eye(spec.num_classes)[[0] * batch])


def _per_step_reference(spec, params, frames, target, mode, loss, audit):
    """A backward pass after every time-step, each layer's products added in step order.

    A dense layer adds each step's (delta, weight trace) rows into dw with the engine's in-place
    dgemm call; thresholds and leakages sum each step's rows with the engine's einsum and dot product.
    """
    batch = len(target)
    states = reset_network(spec, batch)
    # its own zero traces, apart from the engine's: weight traces of each neuron layer's input shape,
    # threshold and leakage traces of its output shape
    weight_traces = [np.zeros((batch, *layer.in_shape)) if layer.is_lif else None for layer in spec.layers]
    threshold_traces = [np.zeros((batch, *layer.out_shape)) if layer.is_lif else None for layer in spec.layers]
    leakage_traces = [np.zeros((batch, *layer.out_shape)) if layer.is_lif else None for layer in spec.layers]
    acc = GradAccumulator.zeros(spec, mode)
    lif = spec.lif_indices
    thetas = [None if p is None else broadcast_thresholds(layer, p.thresholds) for layer, p in zip(spec.layers, params)]
    total, counts = 0.0, np.zeros((batch, spec.num_classes))
    for t, frame in enumerate(frames):
        for i in lif if t else ():
            if mode.trains_thresholds:
                update_threshold_traces(threshold_traces[i], states[i].spikes, params[i].leak)
            if mode.trains_leakages:
                update_leakage_traces(leakage_traces[i], states[i].potentials, states[i].spikes, thetas[i],
                                      params[i].leak)
        forward_timestep(spec, params, states, frame)
        current = frame
        for i, layer in enumerate(spec.layers):
            if layer.is_lif:
                update_weight_traces(weight_traces[i], current, params[i].leak)
            current = states[i].spikes
        out = states[lif[-1]].spikes
        total += loss_value(out, target, loss)
        counts += out
        delta_spikes = None
        for i in reversed(range(lif[0], len(spec.layers))):
            layer, st = spec.layers[i], states[i]
            if not layer.is_lif:
                delta_spikes = passthrough_adjoint(layer, delta_spikes)
                continue
            if i == lif[-1]:
                delta = output_error(out, target, st.potentials, thetas[i], loss, spec.surrogate, spec.spike_mode)
            else:
                delta = hidden_error(delta_spikes, st.potentials, thetas[i], spec.surrogate, spec.spike_mode)
            wt = weight_traces[i]
            if layer.kind is LayerKind.DENSE:
                dgemm(1.0, wt.T, delta.T, beta=1.0, c=acc.dw[i].T, trans_b=1, overwrite_c=1)
            else:
                acc.dw[i] += numerics.conv2d_weight_grad(wt, delta, stride=layer.stride, padding=layer.padding)
            if mode.trains_thresholds:
                d = delta.reshape(batch, layer.num_thresholds, -1)
                acc.dtheta[i] += np.einsum("ncp,ncp->c", d, threshold_traces[i].reshape(d.shape)) - d.sum(axis=(0, 2))
            if mode.trains_leakages:
                acc.dalpha[i] += np.vdot(delta, leakage_traces[i])
            if i > lif[0]:
                delta_spikes = weight_adjoint(layer, params[i], delta)
    audit["loss"], audit["prediction"] = total, np.argmax(counts, axis=-1).tolist()
    return acc


class TestStackedDenseFold:
    """Every neuron layer's backward rows stack K steps deep in one WindowStack."""

    def _net(self, monkeypatch):
        # a budget of 8000 bytes: its fifth, 1600, holds no two of the 40-30-4 net's window rows
        # (1104 bytes a sample-step in mode W, 1648 in WTL), so K = 1
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
        # T = 7 steps, in both spike modes: at K = 3 (three sweeps, of 3, 3 and 1 steps) and at
        # K = 1 (a sweep per step), each sweep adding each dense layer's rows into dw at once.
        # A sample-step stacks both layers' potentials and weight traces, the traces the mode
        # learns, the output spikes and a row of the error scratch; a budget whose fifth is three
        # of them gives K = 3
        spec, params = self._net(monkeypatch)
        frames, target = self._window(spec, 1, seed=4)
        frames = [f[0] for f in frames]
        sweeps, folded = [], {}
        real_output, real_fold = learning.output_error, learning._fold_dense

        def counting_output(output_spikes, *a, **k):
            sweeps.append(len(output_spikes))
            return real_output(output_spikes, *a, **k)

        def counting_fold(dw, deltas, inputs):
            folded.setdefault(dw.shape[1], []).append(len(deltas))
            real_fold(dw, deltas, inputs)

        monkeypatch.setattr(learning, "output_error", counting_output)
        monkeypatch.setattr(learning, "_fold_dense", counting_fold)
        step = {SynergyMode.W: 1104, SynergyMode.WT: 1376, SynergyMode.WL: 1376, SynergyMode.WTL: 1648}[mode]
        for depth, budget, want_sweeps, want_folds in (
                (3, 5 * 3 * step, [3, 3, 1], {40: [3, 3, 1], 30: [3, 3, 1]}),
                (1, 8000, [1] * 7, {40: [1] * 7, 30: [1] * 7})):
            monkeypatch.setattr(numerics, "COLUMN_BUDGET", budget)
            assert _stack(spec, mode, 1).depth == depth
            monkeypatch.setattr(numerics, "COLUMN_BUDGET", budget - 1)  # a byte less holds a step less, at least one
            assert _stack(spec, mode, 1).depth == max(1, depth - 1)
            monkeypatch.setattr(numerics, "COLUMN_BUDGET", budget)
            for spike_mode in SpikeMode:
                sweeps.clear()
                folded.clear()
                net = replace(spec, spike_mode=spike_mode)
                acc = learn_sample(net, params, frames, target[0], mode=mode, loss=loss)
                assert sweeps == want_sweeps and folded == want_folds
                ref = naive_stop_gradients(net, params, frames, target[0], mode, loss=loss.value)
                report = compare_gradients({"dw": acc.dw, "dtheta": acc.dtheta, "dalpha": acc.dalpha},
                                           {"dw": ref.dw, "dtheta": ref.dtheta, "dalpha": ref.dleak})
                assert report.max_rel <= STREAMING_VS_NAIVE_TOL, (depth, spike_mode, str(report))
                assert np.any(acc.dw[0]) and np.any(acc.dw[1])

    @pytest.mark.parametrize("name", list(WORKLOAD_NETS))
    def test_window_depth_of_the_workload_networks(self, name):
        # a fifth of numerics.COLUMN_BUDGET (256 KiB) holds 5 of event-long's 9376-byte
        # sample-steps and 3 of dense-teacher's 14528; one W1 sample-step takes 604 KB. Every
        # stacked block and the error scratch hold exactly K steps' rows
        spec, mode = _workload_net(name)
        stacks = [_stack(spec, mode, batch) for batch in (1, 32)]
        assert tuple(stack.depth for stack in stacks) == {
            "conv-image": (1, 1), "dense-teacher": (3, 1), "event-long": (5, 1)}[name]
        for batch, stack in zip((1, 32), stacks):
            rows = stack.depth * batch
            for i in spec.lif_indices:
                assert len(stack.potentials[i]) == len(stack.weight[i]) == len(stack.errors[i]) == rows, batch

    def test_batch_with_one_step_stacks_folds_each_step_in_order(self):
        # at B = 32 every workload network stacks K = 1 step, so a learn call is a backward pass
        # after each step, on the live arrays, bit for bit
        rng = np.random.default_rng(5)
        for name in WORKLOAD_NETS:
            spec, mode = _workload_net(name)
            params = init_params(spec, seed=1)
            for p in params:
                if p is not None:
                    p.weights *= 2.0
            frames = [rng.uniform(size=(32, *spec.input_shape)) for _ in range(spec.time_steps)]
            target = np.eye(spec.num_classes)[rng.integers(0, spec.num_classes, size=32)]
            stack = WindowStack(spec, mode, reset_network(spec, 32), target)
            assert stack.depth == 1 and all(w is t for w, t in zip(stack.weight, stack.weight_traces)), name
            audit, ref_audit = {}, {}
            acc = learn_batch(spec, params, frames, target, mode=mode, audit=audit)
            ref = _per_step_reference(spec, params, frames, target, mode, LossKind.CE, ref_audit)
            for mine, theirs in ((acc.dw, ref.dw), (acc.dtheta, ref.dtheta), (acc.dalpha, ref.dalpha)):
                for i in spec.lif_indices:
                    assert np.array_equal(mine[i], theirs[i]), (name, i)
            assert np.any(acc.dw[spec.lif_indices[0]]), name
            assert (audit["loss"], audit["prediction"]) == (ref_audit["loss"], ref_audit["prediction"]), name

    def test_image_network_folds_each_dense_layer_once_per_sweep(self, monkeypatch):
        # W1 at a batch of one: K = 1, so each of the T = 6 sweeps adds one step's rows into
        # each dense layer's gradient with one dgemm
        spec, mode = _workload_net("conv-image")
        params = init_params(spec, seed=0)
        folded = {}
        real_fold = learning._fold_dense

        def counting_fold(dw, deltas, inputs):
            folded.setdefault(dw.shape, []).append(len(deltas))
            real_fold(dw, deltas, inputs)

        monkeypatch.setattr(learning, "_fold_dense", counting_fold)
        frames = np.random.default_rng(2).uniform(size=(6, *spec.input_shape))
        learn_sample(spec, params, frames, np.eye(10)[3], mode=mode)
        assert folded == {(256, 1568): [1] * 6, (10, 256): [1] * 6}

    def test_fold_adds_into_dw_in_place(self):
        # a sweep of W1's 1568->256 layer at a batch of one adds its one step's rows into the
        # 3.2 MB gradient; a copy of it would show in the traced peak
        spec, mode = parse_architecture("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10), SynergyMode.W
        stack = _stack(spec, mode, 1)
        assert stack.depth == 1 and stack.weight[5] is stack.weight_traces[5] and stack.errors[5].shape == (1, 256)
        acc = GradAccumulator.zeros(spec, mode)
        rng = np.random.default_rng(8)
        dw = acc.dw[5]
        dw[...] = rng.normal(size=dw.shape)
        start = dw.copy()
        delta, wt = rng.normal(size=(1, 256)), rng.normal(size=(1, 1568))
        stack.weight_traces[5][...] = wt
        stack.errors[5][...] = delta
        peak = _peak_bytes(lambda: accumulate_gradients(acc, 5, stack.errors[5], stack))
        assert peak < dw.nbytes / 4, peak
        assert acc.dw[5] is dw
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

    W1 = ("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10)

    def _conv_batch_peaks(self, frame, targets, seed=0):
        """Learning peaks of the W1 image network at T = 2 and 6 on one repeated batch frame."""
        spec = parse_architecture(*self.W1)
        params = init_params(spec, seed=seed)

        def learn(steps):
            return _peak_bytes(lambda: learn_batch(spec, params, [frame] * steps, targets, mode=SynergyMode.WTL))

        return learn(2), learn(6)

    def _assert_peak_holds_the_learning_bytes(self, batch, peak):
        # learning_bytes, the buffers a learn call holds for its window, is at most the peak, and on
        # W1 the larger part of it: it read 0.82-0.87 of the warm peak at batches 1 and 32
        held = learning_bytes(parse_architecture(*self.W1), batch, SynergyMode.WTL)
        assert 0.8 * peak <= held <= peak, (batch, held / 2**20, peak / 2**20)

    def test_conv_batch_memory_is_bounded_and_flat_in_time(self):
        # the W1 image network at a batch of 32: learning_bytes is 27.44 MiB (states, traces, the
        # sweep's error scratch and gradient accumulators); the convolutions' patch scratch and the
        # input adjoint's padded delta buffer stay within one batch slice per call. No step keeps
        # the last step's input adjoint through its forward sweep, and the flatten layer allocates
        # no spike array. The peak measured 31.45 MiB (31.73 MiB with per-neuron threshold and
        # leakage sums); a second 3 MiB scratch for the sweep's threshold/leakage products read
        # 34.8 MiB, which this bound refuses.
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(32, 1, 28, 28))
        short, long = self._conv_batch_peaks(frame, np.eye(10)[rng.integers(0, 10, size=32)])
        assert long <= 1.05 * short, (short, long)
        assert long <= 34 * 2**20, long / 2**20
        self._assert_peak_holds_the_learning_bytes(32, long)

    def test_conv_batch_memory_on_glyphs_is_bounded_with_the_coo_route(self, monkeypatch):
        # uniform noise keeps pool1 busy, so conv2 builds im2col patches; on glyphs it builds COO
        # patches, whose 2.65 MB delta grid is the weight gradient's scratch at the peak. The
        # sweep drops pool2's 1.6 MB pulled-back error once conv2's error is formed, before that
        # grid exists: the peaks measured 31.51, 32.01 and 32.06 MiB at parameter seeds 0, 1 and
        # 4 (0.29 MiB more each with per-neuron threshold and leakage sums). A sweep that kept it
        # read 36.13, 36.89 and 36.94 MiB, and one with a second 3 MiB scratch for the
        # threshold/leakage products 34.86, 35.36 and 35.41 MiB; this bound refuses both
        samples = dataset_from_images(*synthetic_glyphs(1, 32), 6, 10)
        coo = []
        real_patches = numerics._sparse_patches
        monkeypatch.setattr(numerics, "_sparse_patches", lambda x, *a: coo.append(x.shape[1:]) or real_patches(x, *a))
        for seed in (0, 1, 4):
            coo.clear()
            short, long = self._conv_batch_peaks(next(batch_frames(samples)), batch_targets(samples), seed)
            assert (16, 14, 14) in coo, seed  # conv2's input
            assert long <= 1.05 * short, (seed, short, long)
            assert long <= 34 * 2**20, (seed, long / 2**20)
            self._assert_peak_holds_the_learning_bytes(32, long)

    def test_one_conv_sample_memory_is_bounded_and_flat_in_time(self):
        # the W1 image network on one sample: learning_bytes is 3.94 MiB. Its transients include
        # conv2's 0.6 MiB im2col patch matrix (forward and weight gradient) and its input
        # adjoint's 0.3 MiB window matrix. The peak measured 4.69 MiB. Threshold and leakage
        # sums kept per neuron, 0.29 MiB of maps, peaked at 4.98 MiB, and an adjoint that built
        # a 1.2 MiB patch matrix of the deltas at 5.88 MiB; the bound refuses both.
        spec = parse_architecture(*self.W1)
        params = init_params(spec, seed=0)
        frame = np.random.default_rng(0).uniform(size=(1, 28, 28))
        target = np.eye(10)[3]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.WTL))

        short, long = learn(2), learn(6)
        assert long <= 1.05 * short, (short, long)
        assert long <= 4.9 * 2**20, long / 2**20
        self._assert_peak_holds_the_learning_bytes(1, long)

    def test_one_sample_memory_with_a_stacked_dense_layer_is_flat_over_a_long_window(self):
        # at a batch of one the window stack holds K = 7 of this net's 7328-byte sample-steps; it
        # is sized by numerics.COLUMN_BUDGET, not by the window
        spec = parse_architecture("128-10", (2, 16, 16), 10, time_steps=32)
        assert _stack(spec, SynergyMode.W, 1).depth == 7
        params = init_params(spec, seed=0)
        frame = (np.random.default_rng(0).uniform(size=(2, 16, 16)) < 0.3).astype(float)
        target = np.eye(10)[3]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.W))

        short, long = learn(2), learn(128)
        assert long <= 1.05 * short, (short, long)

    def test_one_sample_memory_of_the_dense_teacher_net_is_flat_over_a_long_window(self):
        # the window stack holds K = 3 steps, sized by the network, not by the window it is given
        spec = parse_architecture("100-100-100-100-4", (1, 10, 10), 4)
        params = init_params(spec, seed=0)
        frame = np.random.default_rng(0).uniform(size=(1, 10, 10))
        target = np.eye(4)[1]

        def learn(steps):
            return _peak_bytes(lambda: learn_sample(spec, params, [frame] * steps, target, mode=SynergyMode.WTL))

        short, long = learn(2), learn(128)
        assert long <= 1.05 * short, (short, long)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_inference_memory_is_flat_in_the_window(self, batch, monkeypatch):
        # the event-long net: infer_batch's block of output rows is sized by the budget, not by the
        # window; at a batch of 32 the budget, not time_steps, caps it (20 of 32 steps). The short
        # window fills a block: a shorter one computes its loss over fewer rows, whose temporaries
        # are smaller (at a batch of one, 8 frames peaked at 13.3 KiB, a full block at 20.9 KiB)
        spec, params, frames, targets = _event_long(batch, 128)
        short_window, long_window = frames[:32], frames

        def infer(window):
            return _peak_bytes(lambda: learning.infer_batch(spec, params, window, targets))

        infer(short_window)  # warm
        short, long = infer(short_window), infer(long_window)
        assert long <= 1.05 * short, (short, long)
        blocks = []
        monkeypatch.setattr(learning, "loss_value",
                            lambda rows, *a: blocks.append(rows if rows.base is None else rows.base) or loss_value(rows, *a))
        learning.infer_batch(spec, params, frames, targets)
        assert max(block.nbytes for block in blocks) <= numerics.COLUMN_BUDGET // 5

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


def _gradients(acc) -> dict:
    return {"dw": acc.dw, "dtheta": acc.dtheta, "dalpha": acc.dalpha}


class TestSparseRoutes:
    """The engine through numerics' sparse drive and patch routes."""

    def _net(self, monkeypatch):
        # at a 4096-byte budget and gather size the 1x24x24 input's 41,472-byte patch matrix and
        # the 288->12 layer's 27,648 bytes of weights are over them and check their activity, while
        # the 12->3 layer's 288 bytes are not. Two pixels of each sample's 576 light up, at a new brightness
        # each step, so the convolution and its weight gradient build COO patches on every call,
        # and the pooled spikes leave the dense drive on each side of its threshold
        monkeypatch.setattr(numerics, "COLUMN_BUDGET", 4096)
        monkeypatch.setattr(numerics, "GATHER_BYTES", 4096)
        spec = parse_architecture("2C3-P2-12-3", (1, 24, 24), 3, time_steps=5)
        params = init_params(spec, seed=3)
        for p in params:
            if p is not None:
                p.weights *= 2.5 if p.weights.ndim == 4 else 8.0
                p.leak = 0.6
        rng = np.random.default_rng(4)
        lit = np.zeros((2, *spec.input_shape))
        for sample in lit:
            sample.flat[rng.choice(sample.size, 2, replace=False)] = 1.0
        frames = [lit * rng.uniform(0.5, 1.5, size=lit.shape) for _ in range(spec.time_steps)]
        return spec, params, frames, np.eye(3)[[0, 2]]

    @pytest.mark.parametrize("spike_mode", list(SpikeMode))
    def test_batch_equals_naive_and_the_dense_routes(self, monkeypatch, spike_mode):
        spec, params, frames, targets = self._net(monkeypatch)
        spec = replace(spec, spike_mode=spike_mode)
        coo, gathered = [], set()
        real_patches, real_matmul = numerics._sparse_patches, numerics.matmul

        def matmul(a, b):
            if a is params[3].weights:  # the 288->12 drive on every column
                gathered.add(False)
            elif a.shape[0] == 12 and a.base is not params[4].weights:  # gathered, not the 12->3 adjoint
                gathered.add(True)
            return real_matmul(a, b)

        monkeypatch.setattr(numerics, "_sparse_patches", lambda *a, **k: coo.append(1) or real_patches(*a, **k))
        monkeypatch.setattr(numerics, "matmul", matmul)
        acc = learn_batch(spec, params, frames, targets, mode=SynergyMode.WTL)
        # a forward and a weight-gradient correlation per step; soft spikes are nowhere exactly
        # zero, so there the pooled drive is never gathered
        assert len(coo) == 2 * spec.time_steps
        assert gathered == ({True, False} if spike_mode is SpikeMode.HARD else {False})
        assert all(np.any(g) for g in acc.dw if g is not None)

        refs = [naive_stop_gradients(spec, params, [f[b] for f in frames], targets[b], SynergyMode.WTL)
                for b in range(len(targets))]
        want = {"dw": _summed(r.dw for r in refs), "dtheta": _summed(r.dtheta for r in refs),
                "dalpha": _summed(r.dleak for r in refs)}
        report = compare_gradients(_gradients(acc), want)
        assert report.max_rel <= STREAMING_VS_NAIVE_TOL, str(report)

        monkeypatch.setattr(numerics, "sparse_enough", lambda values, factor: False)
        dense = learn_batch(spec, params, frames, targets, mode=SynergyMode.WTL)
        report = compare_gradients(_gradients(acc), _gradients(dense))
        assert report.max_rel <= 1e-12, str(report)


# A fresh interpreter's first and second learn_sample on the W1 network and a glyph that takes both
# sparse routes: the first call must not pay for an import or a cache the second does not
COLD_CALL = """
import tracemalloc

from stopsnn import numerics
from stopsnn.datasets import dataset_from_images, synthetic_glyphs
from stopsnn.learning import SynergyMode, learn_sample
from stopsnn.topology import init_params, parse_architecture

spec = parse_architecture("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10)
params = init_params(spec, seed=1)
(sample,) = dataset_from_images(*synthetic_glyphs(1, 1), spec.time_steps, 10)


def learn():
    learn_sample(spec, params, sample.frames, sample.target, mode=SynergyMode.WTL)


def peak():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        learn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


cold, warm = peak(), peak()
coo, gathers = [], []
real_patches, real_matmul = numerics._sparse_patches, numerics.matmul
numerics._sparse_patches = lambda *a, **k: coo.append(1) or real_patches(*a, **k)
numerics.matmul = lambda a, b: gathers.append(a.shape[0] == 256 and a.shape[1] < 1568) or real_matmul(a, b)
learn()
print(cold, warm, len(coo), sum(gathers))
"""


def test_first_learn_call_on_the_sparse_routes_peaks_like_the_second(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_CALL], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cold, warm, coo, gather = map(int, proc.stdout.split())
    assert coo > 0 and gather > 0, (coo, gather)
    assert abs(cold - warm) <= 0.02 * warm, (cold, warm)


def _event_long(batch, steps):
    """The event-long benchmark net, 128-128-10 over (2, 16, 16) at T = 32, with a sparse window and targets."""
    spec = parse_architecture("128-128-10", (2, 16, 16), 10, time_steps=32)
    rng = np.random.default_rng(0)
    frames = [(rng.uniform(size=(batch, 2, 16, 16)) < 0.2).astype(float) for _ in range(steps)]
    return spec, init_params(spec, seed=0), frames, np.eye(10)[rng.integers(0, 10, size=batch)]


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

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("loss", [LossKind.CE, LossKind.MSE])
    def test_block_loss_equals_the_per_step_sum(self, loss, soft, monkeypatch):
        # 4 samples of 3 classes are 96 bytes a step; this budget holds K = 3 steps, so the
        # window's 8 steps are two full blocks and a short one
        spec, params = _lively("6-3", (5,), steps=8, seed=1)
        if soft:
            spec = replace(spec, spike_mode=SpikeMode.SOFT)
        rng = np.random.default_rng(3)
        frames = [rng.uniform(size=(4, 5)) for _ in range(8)]
        targets = np.eye(3)[[0, 2, 1, 1]]
        states, counts, expected = reset_network(spec, 4), np.zeros((4, 3)), 0.0
        for frame in frames:
            states, out = forward_timestep(spec, params, states, frame)
            counts += out
            expected += loss_value(out, targets, loss)
        assert expected > 0
        monkeypatch.setattr(numerics, "COLUMN_BUDGET", 5 * 96 * 3)
        blocks = []
        monkeypatch.setattr(learning, "loss_value", lambda rows, *a: blocks.append(len(rows)) or loss_value(rows, *a))
        predictions, total = learning.infer_batch(spec, params, frames, targets, loss)
        assert blocks == [3, 3, 2]
        assert total == pytest.approx(expected, rel=1e-12)
        assert predictions == np.argmax(counts, axis=-1).tolist()

    def test_one_loss_call_per_block(self, monkeypatch):
        # the event-long net at a batch of one: the loss reads K steps' output rows per call, not one step's
        spec, params, frames, targets = _event_long(1, 32)
        k = learning._steps_that_fit(spec, 1 * 10 * 8)
        calls = []
        monkeypatch.setattr(learning, "loss_value", lambda *a: calls.append(1) or loss_value(*a))
        learning.infer_batch(spec, params, frames, targets)
        assert len(calls) == math.ceil(32 / k) < 32
        calls.clear()
        assert learning.infer_batch(spec, params, frames)[1] == 0.0
        assert not calls


class TestFailClosed:
    def _net(self):
        spec = parse_architecture("16-4", (8,), 4)
        return spec, init_params(spec, seed=0)

    def _step(self, params, acc, rates):
        acc.samples = 1
        apply_updates(params, acc, OptimizerState.fresh(params), rates)

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
