"""Flat-vector view of a network for the reference computations.

Every layer, including convolution and pooling, is materialized as an
explicit (fan_out, fan_in) matrix built by enumerating connections, so the
oracles never touch the production convolution kernels. Neuron dynamics
run by direct recursion on flattened arrays.
"""
from __future__ import annotations

import numpy as np

from ..learning import LossKind
from ..lif import fire
from ..topology import LayerKind, LayerParams, LayerSpec, NetworkSpec


def conv_placements(layer: LayerSpec):
    """Yield every (o, c, ki, kj, out_flat, in_flat) connection of a conv layer."""
    cin, h, w = layer.in_shape
    cout, h_out, w_out = layer.out_shape
    k, stride, pad = layer.kernel, layer.stride, layer.padding
    for o in range(cout):
        for y in range(h_out):
            for x in range(w_out):
                out_flat = (o * h_out + y) * w_out + x
                for c in range(cin):
                    for ki in range(k):
                        iy = y * stride + ki - pad
                        if iy < 0 or iy >= h:
                            continue
                        for kj in range(k):
                            ix = x * stride + kj - pad
                            if ix < 0 or ix >= w:
                                continue
                            yield o, c, ki, kj, out_flat, (c * h + iy) * w + ix


def layer_matrix(layer: LayerSpec, params: LayerParams | None) -> np.ndarray:
    """The layer's action on a flattened input as an explicit matrix."""
    if layer.kind is LayerKind.DENSE:
        return np.array(params.weights, dtype=np.float64)
    if layer.kind is LayerKind.FLATTEN:
        return np.eye(layer.fan_in)
    if layer.kind is LayerKind.AVGPOOL:
        c, h, w = layer.in_shape
        _, h_out, w_out = layer.out_shape
        win = layer.window
        mat = np.zeros((layer.fan_out, layer.fan_in))
        share = 1.0 / (win * win)
        for ch in range(c):
            for y in range(h_out):
                for x in range(w_out):
                    row = (ch * h_out + y) * w_out + x
                    for dy in range(win):
                        for dx in range(win):
                            col = (ch * h + y * win + dy) * w + x * win + dx
                            mat[row, col] = share
        return mat
    # convolution: scatter each kernel element over its placements
    mat = np.zeros((layer.fan_out, layer.fan_in))
    for o, c, ki, kj, out_flat, in_flat in conv_placements(layer):
        mat[out_flat, in_flat] += params.weights[o, c, ki, kj]
    return mat


def flat_thresholds(layer: LayerSpec, params: LayerParams) -> np.ndarray:
    """Per-neuron threshold vector (channel thresholds repeated over positions)."""
    if layer.kind is LayerKind.DENSE:
        return np.array(params.thresholds, dtype=np.float64)
    _, h_out, w_out = layer.out_shape
    return np.repeat(params.thresholds, h_out * w_out)


def loss_of(spikes: np.ndarray, target: np.ndarray, loss: LossKind) -> float:
    if loss is LossKind.CE:
        shifted = spikes - np.max(spikes)
        probs = np.exp(shifted) / np.sum(np.exp(shifted))
        return float(-np.sum(target * np.log(np.maximum(probs, 1e-300))))
    return float(0.5 * np.sum((spikes - target) ** 2))


def loss_grad_of(spikes: np.ndarray, target: np.ndarray, loss: LossKind) -> np.ndarray:
    if loss is LossKind.CE:
        shifted = spikes - np.max(spikes)
        probs = np.exp(shifted) / np.sum(np.exp(shifted))
        return probs - target
    return spikes - target


class FlatNetwork:
    """Materialized network: matrices plus per-layer neuron bookkeeping."""

    def __init__(self, spec: NetworkSpec, params):
        self.spec = spec
        self.matrices = [layer_matrix(layer, p) for layer, p in zip(spec.layers, params)]
        self.lif_indices = spec.lif_indices
        self.thresholds = {
            i: flat_thresholds(spec.layers[i], params[i]) for i in self.lif_indices
        }
        self.leaks = {i: float(params[i].leak) for i in self.lif_indices}

    def step(self, potentials, spikes, frame):
        """One forward time-step by direct recursion on flat vectors, in the spec's spike mode.

        Returns (potentials, spikes, inputs): the new per-lif-layer state
        plus, per layer, the input vector it consumed. Every call builds new
        arrays, so a caller may keep them without copying.
        """
        spec = self.spec
        x = np.asarray(frame, dtype=np.float64).ravel()
        inputs = []
        new_u, new_s = {}, {}
        for i, layer in enumerate(spec.layers):
            inputs.append(x)
            if layer.is_lif:
                v = self.matrices[i] @ x
                theta = self.thresholds[i]
                u = self.leaks[i] * (potentials[i] - theta * spikes[i]) + v
                s = fire(u, theta, spec.surrogate, spec.spike_mode)
                new_u[i], new_s[i] = u, s
                x = s
            else:
                x = self.matrices[i] @ x
        return new_u, new_s, inputs

    def zero_state(self):
        potentials = {i: np.zeros(self.spec.layers[i].fan_out) for i in self.lif_indices}
        spikes = {i: np.zeros(self.spec.layers[i].fan_out) for i in self.lif_indices}
        return potentials, spikes


def parameter_count(spec: NetworkSpec, params) -> int:
    total = 0
    for layer, p in zip(spec.layers, params):
        if layer.is_lif:
            total += p.weights.size + p.thresholds.size + 1
    return total
