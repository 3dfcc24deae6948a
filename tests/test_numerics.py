import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopsnn import numerics
from stopsnn.errors import ShapeError
from stopsnn.topology import LayerKind, LayerParams, dense_layer, parse_architecture, synaptic_input


def inner(a, b):
    return float(np.sum(np.asarray(a) * np.asarray(b)))


class TestMatmul:
    def test_identity(self):
        out = numerics.matmul(np.eye(2), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, [[3.0], [4.0]])

    def test_hand_value(self):
        out = numerics.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, [[11.0]])

    def test_zero_annihilates(self):
        out = numerics.matmul(np.zeros((3, 4)), np.arange(8.0).reshape(4, 2))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_vector_rhs(self):
        out = numerics.matmul(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([5.0, 7.0]))
        assert np.array_equal(out, [19.0, 7.0])

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            numerics.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


class TestConv2d:
    def test_scaling_kernel(self):
        out = numerics.conv2d(np.ones((1, 3, 3)), np.full((1, 1, 1, 1), 2.0))
        assert np.array_equal(out, np.full((1, 3, 3), 2.0))

    def test_hand_value(self):
        inp = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        kernel = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = numerics.conv2d(inp, kernel)
        assert np.array_equal(out, [[[5.0]]])

    def test_zero_kernel(self):
        rng = np.random.default_rng(0)
        out = numerics.conv2d(rng.normal(size=(2, 4, 4)), np.zeros((3, 2, 3, 3)), padding=1)
        assert np.array_equal(out, np.zeros((3, 4, 4)))

    def test_non_integral_output_raises(self):
        with pytest.raises(ShapeError):
            numerics.conv2d(np.zeros((1, 5, 5)), np.zeros((1, 1, 2, 2)), stride=2)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            numerics.conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))

    def test_matches_direct_summation(self):
        # independent oracle: quadruple loop over the cross-correlation definition
        rng = np.random.default_rng(7)
        inp = rng.normal(size=(2, 5, 5))
        kernels = rng.normal(size=(3, 2, 3, 3))
        stride, padding = 2, 1
        padded = np.pad(inp, ((0, 0), (1, 1), (1, 1)))
        expect = np.zeros((3, 3, 3))
        for o in range(3):
            for y in range(3):
                for x in range(3):
                    patch = padded[:, y * stride : y * stride + 3, x * stride : x * stride + 3]
                    expect[o, y, x] = np.sum(patch * kernels[o])
        out = numerics.conv2d(inp, kernels, stride=stride, padding=padding)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)


class TestConvAdjointInput:
    def test_identity_kernel_passthrough(self):
        deltas = np.arange(9.0).reshape(1, 3, 3)
        kernel = np.ones((1, 1, 1, 1))
        out = numerics.conv2d_adjoint_input(deltas, kernel)
        assert np.array_equal(out, deltas)

    def test_zero_deltas(self):
        out = numerics.conv2d_adjoint_input(np.zeros((2, 3, 3)), np.ones((2, 1, 2, 2)))
        assert np.array_equal(out, np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 2), (1, 1, 3), (2, 1, 3)])
    def test_adjoint_identity(self, stride, padding, k):
        rng = np.random.default_rng(stride * 10 + padding + k)
        cin, cout, h = 2, 3, 5 if stride == 1 else 5
        x = rng.normal(size=(cin, h, h))
        kernels = rng.normal(size=(cout, cin, k, k))
        for x in (x, np.ones((0, cin, h, h))):  # one map, and an empty batch (B = 0)
            y = numerics.conv2d(x, kernels, stride=stride, padding=padding)
            d = rng.normal(size=y.shape)
            back = numerics.conv2d_adjoint_input(d, kernels, stride=stride, padding=padding)
            assert back.shape == x.shape
            assert abs(inner(y, d) - inner(x, back)) <= 1e-12 * max(1.0, abs(inner(y, d)))


class TestConvWeightGrad:
    def test_zero_deltas(self):
        out = numerics.conv2d_weight_grad(np.ones((1, 4, 4)), np.zeros((2, 3, 3)))
        assert np.array_equal(out, np.zeros((2, 1, 2, 2)))

    def test_hand_value(self):
        traces = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        deltas = np.ones((1, 2, 2))
        out = numerics.conv2d_weight_grad(traces, deltas)
        assert np.array_equal(out, [[[[10.0]]]])

    def test_single_position_is_outer_product(self):
        rng = np.random.default_rng(3)
        traces = rng.normal(size=(2, 3, 3))
        deltas = rng.normal(size=(4, 1, 1))
        out = numerics.conv2d_weight_grad(traces, deltas)
        expect = deltas[:, 0, 0][:, None, None, None] * traces[None, :, :, :]
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 2), (1, 1, 3), (2, 1, 3)])
    def test_matches_one_hot_brute_force(self, stride, padding, k):
        # per-scalar oracle: g[o,c,i,j] = <conv2d(traces, onehot_ocij), deltas>
        rng = np.random.default_rng(stride + padding + k)
        cin, cout = 2, 2
        size = 5 if stride == 2 else 4
        traces = rng.normal(size=(cin, size, size))
        h_out = (size + 2 * padding - k) // stride + 1
        deltas = rng.normal(size=(cout, h_out, h_out))
        grad = numerics.conv2d_weight_grad(traces, deltas, stride=stride, padding=padding)
        assert grad.shape == (cout, cin, k, k)
        for o in range(cout):
            for c in range(cin):
                for i in range(k):
                    for j in range(k):
                        onehot = np.zeros((cout, cin, k, k))
                        onehot[o, c, i, j] = 1.0
                        probe = numerics.conv2d(traces, onehot, stride=stride, padding=padding)
                        assert abs(grad[o, c, i, j] - inner(probe, deltas)) <= 1e-12

    def test_is_adjoint_in_kernel_argument(self):
        rng = np.random.default_rng(11)
        traces = rng.normal(size=(2, 4, 4))
        kernels = rng.normal(size=(3, 2, 3, 3))
        for traces in (traces, np.ones((0, 2, 4, 4))):  # one map, and an empty batch (B = 0)
            y = numerics.conv2d(traces, kernels, padding=1)
            d = rng.normal(size=y.shape)
            g = numerics.conv2d_weight_grad(traces, d, padding=1)
            assert g.shape == kernels.shape
            assert abs(inner(y, d) - inner(kernels, g)) <= 1e-12 * max(1.0, abs(inner(y, d)))
        assert np.array_equal(g, np.zeros_like(kernels))  # the empty batch's gradient


def _patch_bytes(channels, kernel, h_out, w_out):
    """Bytes of one sample's float64 im2col patch matrix."""
    return 8 * channels * kernel * kernel * h_out * w_out


class TestBoundedScratch:
    """Batches are convolved in slices whose patch matrices fit numerics.COLUMN_BUDGET."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("split", ["2+2+1", "one sample over budget"])
    def test_slices_equal_a_per_sample_loop(self, monkeypatch, stride, split):
        rng = np.random.default_rng(stride)
        cin, cout, k, size, padding = 2, 3, 3, 7, 1
        x = rng.normal(size=(5, cin, size, size))
        kernels = rng.normal(size=(cout, cin, k, k))
        h_out = (size + 2 * padding - k) // stride + 1
        d = rng.normal(size=(5, cout, h_out, h_out))
        slice_sizes = []
        real_patches = numerics._patches

        def spy(padded, *args):
            slice_sizes.append(len(padded))
            return real_patches(padded, *args)

        monkeypatch.setattr(numerics, "_patches", spy)
        # forward and weight gradient patch the input (cin rows per kernel cell, one column per
        # output pixel); the adjoint patches the deltas (cout rows, one column per input pixel)
        forward_sample = _patch_bytes(cin, k, h_out, h_out)
        adjoint_sample = _patch_bytes(cout, k, size, size)
        samples_per_budget, want = (2.5, [2, 2, 1]) if split == "2+2+1" else (0.9, [1] * 5)

        monkeypatch.setattr(numerics, "COLUMN_BUDGET", int(samples_per_budget * forward_sample))
        y = numerics.conv2d(x, kernels, stride, padding)
        g = numerics.conv2d_weight_grad(x, d, stride, padding)
        monkeypatch.setattr(numerics, "COLUMN_BUDGET", int(samples_per_budget * adjoint_sample))
        back = numerics.conv2d_adjoint_input(d, kernels, stride, padding)
        assert slice_sizes == want * 3

        monkeypatch.setattr(numerics, "COLUMN_BUDGET", 2**40)  # one slice per call
        np.testing.assert_allclose(y, [numerics.conv2d(xi, kernels, stride, padding) for xi in x],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, sum(numerics.conv2d_weight_grad(xi, di, stride, padding)
                                          for xi, di in zip(x, d)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(back, [numerics.conv2d_adjoint_input(di, kernels, stride, padding) for di in d],
                                   rtol=0, atol=1e-12)
        forward = inner(y, d)
        assert abs(forward - inner(x, back)) <= 1e-10 * max(1.0, abs(forward))
        assert abs(forward - inner(kernels, g)) <= 1e-10 * max(1.0, abs(forward))

    def test_adjoint_scratch_is_bounded_at_batch_32(self):
        # the W1 network's second convolution (32C5 at padding 2 on 16x14x14) at a batch of 32:
        # one patch matrix of the whole batch would be 40 MB
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(32, 32, 14, 14))
        kernels = rng.normal(size=(32, 16, 5, 5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            numerics.conv2d_adjoint_input(deltas, kernels, stride=1, padding=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak / 2**20


class TestAvgPool:
    def test_constant_preserved(self):
        out = numerics.avgpool2d(np.full((2, 4, 4), 3.5), 2)
        assert np.array_equal(out, np.full((2, 2, 2), 3.5))

    def test_hand_value(self):
        out = numerics.avgpool2d(np.array([[[1.0, 2.0], [3.0, 4.0]]]), 2)
        assert np.array_equal(out, [[[2.5]]])

    def test_indivisible_raises(self):
        with pytest.raises(ShapeError):
            numerics.avgpool2d(np.zeros((1, 5, 4)), 2)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 6))
        y = numerics.avgpool2d(x, 3)
        d = rng.normal(size=y.shape)
        back = numerics.avgpool2d_adjoint(d, 3)
        assert abs(inner(y, d) - inner(x, back)) <= 1e-12

    def test_adjoint_spreads_uniformly(self):
        out = numerics.avgpool2d_adjoint(np.array([[[4.0]]]), 2)
        assert np.array_equal(out, np.full((1, 2, 2), 1.0))


class TestKernelHygiene:
    def test_pure_and_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        a = numerics.conv2d(x, k, padding=1)
        b = numerics.conv2d(x, k, padding=1)
        assert np.array_equal(a, b)

    def test_finite_outputs(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 4, 4)) * 1e6
        k = rng.normal(size=(2, 2, 3, 3)) * 1e6
        for out in (
            numerics.conv2d(x, k, padding=1),
            numerics.conv2d_adjoint_input(numerics.conv2d(x, k, padding=1), k, padding=1),
            numerics.avgpool2d(x, 2),
        ):
            assert np.all(np.isfinite(out))


@contextmanager
def _route(sparse):
    """Every layer over the budget and the gather size, and every activity check answering sparse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "COLUMN_BUDGET", 0)
        mp.setattr(numerics, "GATHER_BYTES", 0)
        mp.setattr(numerics, "sparse_enough", lambda values, factor: sparse)
        yield


def _assert_routes_agree(call):
    """call() on the sparse route equals it on the dense route to 1e-12 of the largest value."""
    with _route(True):
        sparse = call()
    with _route(False):
        dense = call()
    assert sparse.shape == dense.shape
    # an all-zero input gives exact zeros on both routes
    assert np.abs(sparse - dense).max(initial=0.0) <= 1e-12 * np.abs(dense).max(initial=0.0)


# how many of a route's n values are nonzero: none, one, just under and just over each route's
# threshold of n/F, and all
DENSITIES = ("zero", "single", "under coo", "over coo", "under gather", "over gather", "dense")


def _nonzero_count(density, n):
    if density in ("zero", "single", "dense"):
        return {"zero": 0, "single": 1, "dense": n}[density]
    side, route = density.split()
    factor = numerics.COO_FACTOR if route == "coo" else numerics.GATHER_FACTOR
    return min(n, n // factor + (side == "over"))


def _with_nonzeros(rng, shape, count):
    x = np.zeros(shape)
    x.flat[rng.choice(x.size, count, replace=False)] = rng.uniform(0.1, 1.0, count) * rng.choice([-1.0, 1.0], count)
    return x


ROUTE_SETTINGS = settings(max_examples=80, deadline=None, database=None)


class TestSparseRoutes:
    """The sparse drive and patch routes give the dense routes' values, and are taken on the stated rule."""

    @ROUTE_SETTINGS
    @given(k=st.sampled_from([1, 3, 5]), batch=st.sampled_from([1, 3]), cin=st.integers(1, 3),
           cout=st.integers(1, 3), h=st.integers(5, 9), w=st.integers(5, 9),
           density=st.sampled_from(DENSITIES), seed=st.integers(0, 2**32 - 1))
    def test_conv_routes_agree(self, k, batch, cin, cout, h, w, density, seed):
        rng = np.random.default_rng(seed)
        x = _with_nonzeros(rng, (batch, cin, h, w), _nonzero_count(density, batch * cin * h * w))
        kernels = rng.normal(size=(cout, cin, k, k))
        deltas = rng.normal(size=(batch, cout, h, w))
        _assert_routes_agree(lambda: numerics.conv2d(x, kernels, 1, k // 2))
        _assert_routes_agree(lambda: numerics.conv2d_weight_grad(x, deltas, 1, k // 2))

    @ROUTE_SETTINGS
    @given(fan_in=st.integers(1, 80), fan_out=st.integers(1, 6), batch=st.sampled_from([1, 3]),
           density=st.sampled_from(DENSITIES), seed=st.integers(0, 2**32 - 1))
    def test_dense_drive_routes_agree(self, fan_in, fan_out, batch, density, seed):
        # the density counts active columns: units nonzero in at least one sample of the batch
        rng = np.random.default_rng(seed)
        layer = dense_layer(fan_in, fan_out)
        params = LayerParams(rng.normal(size=(fan_out, fan_in)), np.ones(fan_out), 0.5)
        active = rng.choice(fan_in, _nonzero_count(density, fan_in), replace=False)
        presyn = np.zeros((batch, fan_in))
        presyn[:, active] = rng.random((batch, len(active))) < 0.5
        presyn[rng.integers(batch, size=len(active)), active] = 1.0
        _assert_routes_agree(lambda: synaptic_input(layer, params, presyn))

    @pytest.fixture
    def checks(self, monkeypatch):
        """The (factor, answer) of every activity check."""
        seen = []
        real = numerics.sparse_enough

        def spy(values, factor):
            seen.append((factor, real(values, factor)))
            return seen[-1][1]

        monkeypatch.setattr(numerics, "sparse_enough", spy)
        return seen

    # the W1 network: conv2's 16x14x14 input has a 627,200-byte patch matrix per sample, over the
    # budget, and the 1568->256 layer 3.2 MB of weights, over the gather size; conv1's 156,800-byte
    # patches and the 256->10 layer's 20 KB are under them
    W1 = parse_architecture("16C5-P2-32C5-P2-256-10", (1, 28, 28), 10).layers

    @pytest.mark.parametrize("side, route", [("under", True), ("over", False)])
    def test_conv_route_on_each_side_of_its_threshold(self, monkeypatch, checks, side, route):
        conv2 = self.W1[2]
        rng = np.random.default_rng(0)
        size = conv2.fan_in
        x = _with_nonzeros(rng, (1, *conv2.in_shape), size // numerics.COO_FACTOR + (side == "over"))
        kernels = rng.normal(size=conv2.weight_shape)
        deltas = rng.normal(size=(1, *conv2.out_shape))
        routes = []
        real_sparse, real_dense = numerics._sparse_patches, numerics._patches
        monkeypatch.setattr(numerics, "_sparse_patches", lambda *a, **k: routes.append("coo") or real_sparse(*a, **k))
        monkeypatch.setattr(numerics, "_patches", lambda *a: routes.append("im2col") or real_dense(*a))
        numerics.conv2d(x, kernels, 1, conv2.padding)
        numerics.conv2d_weight_grad(x, deltas, 1, conv2.padding)
        assert checks == [(numerics.COO_FACTOR, route)] * 2
        assert routes == ["coo" if route else "im2col"] * 2

    @pytest.mark.parametrize("side, route", [("under", True), ("over", False)])
    def test_dense_route_on_each_side_of_its_threshold(self, monkeypatch, checks, side, route):
        hidden = self.W1[5]
        active = hidden.fan_in // numerics.GATHER_FACTOR + (side == "over")
        presyn = np.zeros((2, hidden.fan_in))
        presyn[0, :active] = 1.0
        params = LayerParams(np.ones(hidden.weight_shape), np.ones(hidden.fan_out), 0.5)
        widths = []
        real = numerics.matmul
        monkeypatch.setattr(numerics, "matmul", lambda a, b: widths.append(a.shape[1]) or real(a, b))
        assert np.array_equal(synaptic_input(hidden, params, presyn), [[active] * hidden.fan_out, [0] * hidden.fan_out])
        # one check per call, of the active columns
        assert checks == [(numerics.GATHER_FACTOR, route)]
        assert widths == [active if route else hidden.fan_in]

    def test_layers_under_the_budget_never_check(self, checks):
        # all-zero inputs, which would take any sparse route that checked
        conv1, top = self.W1[0], self.W1[6]
        numerics.conv2d(np.zeros((1, *conv1.in_shape)), np.ones(conv1.weight_shape), 1, conv1.padding)
        numerics.conv2d_weight_grad(np.zeros((1, *conv1.in_shape)), np.ones((1, *conv1.out_shape)), 1, conv1.padding)
        synaptic_input(top, LayerParams(np.ones(top.weight_shape), np.ones(10), 0.5), np.zeros((1, top.fan_in)))
        # a stride-2 convolution always builds im2col patches, however large
        numerics.conv2d(np.zeros((1, 16, 29, 29)), np.ones((32, 16, 5, 5)), 2, 2)
        assert checks == []

    @pytest.mark.parametrize("batch", [1, 16])
    def test_dense_layers_of_event_long_and_dense_teacher_never_check(self, checks, batch):
        # event-long's 512->128 layer has 512 KiB of weights, dense-teacher's layers 80 KB at most:
        # all under the gather size, so an all-zero batch, which would gather, is driven dense
        for arch, shape, classes in (("128-128-10", (2, 16, 16), 10), ("100-100-100-100-4", (1, 10, 10), 4)):
            for layer in parse_architecture(arch, shape, classes).layers:
                if layer.kind is LayerKind.DENSE:
                    params = LayerParams(np.ones(layer.weight_shape), np.ones(layer.fan_out), 0.5)
                    synaptic_input(layer, params, np.zeros((batch, layer.fan_in)))
        assert checks == []

    def test_dense_layer_checks_only_over_the_gather_size(self, checks):
        # all-zero inputs: 128 neurons hold exactly numerics.GATHER_BYTES of weights on the first
        # fan-in, one column more on the second
        for fan_in in (numerics.GATHER_BYTES // (8 * 128), numerics.GATHER_BYTES // (8 * 128) + 1):
            layer = dense_layer(fan_in, 128)
            synaptic_input(layer, LayerParams(np.ones(layer.weight_shape), np.ones(128), 0.5), np.zeros((1, fan_in)))
        assert checks == [(numerics.GATHER_FACTOR, True)]
