"""Fully unrolled reverse-mode training sweep over space and time.

Keeps the complete per-time-step record the streaming rule avoids storing,
then backpropagates through the whole graph. With the surrogate-induced
reset feedback included this is classic temporal backpropagation and, in
soft mode, the exact gradient of the relaxed total loss. With the feedback
excluded ("detached reset": the membrane carry-over survives, the error
path through past firings does not), the sweep is the reference the
streaming rule's output layer must match exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lif import firing_derivative
from ..topology import LayerKind, NetworkSpec
from .linearize import FlatNetwork, conv_placements, loss_grad_of


@dataclass
class UnrolledTape:
    """Complete per-time-step record of the forward pass, flat vectors.

    potentials/spikes are keyed [t][lif_layer_index]; inputs holds the
    vector each layer consumed. These are what the reverse sweep reads.
    network is the materialized network that ran, so a sweep over the tape
    reuses its matrices and thresholds.
    """

    network: FlatNetwork
    potentials: list = field(default_factory=list)
    spikes: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.potentials)

    def retained_tensor_count(self) -> int:
        total = 0
        for group in (self.potentials, self.spikes, self.inputs):
            for step in group:
                total += len(step)
        return total


@dataclass
class TrueGradients:
    """Gradients with respect to the actual parameter tensors.

    dw is weight-shaped per layer; dtheta matches the threshold array
    (per neuron for dense layers, per channel for convolutions, summed over
    the channel's positions); dleak is one scalar per layer (summed over
    neurons). These are the quantities finite differences measure.
    """

    dw: list
    dtheta: list
    dleak: list


def record_tape(spec: NetworkSpec, params, frames) -> UnrolledTape:
    """The forward window in the spec's spike mode, every step kept."""
    net = FlatNetwork(spec, params)
    potentials, spikes = net.zero_state()
    tape = UnrolledTape(network=net)
    for frame in frames:
        potentials, spikes, inputs = net.step(potentials, spikes, frame)
        tape.potentials.append(potentials)
        tape.spikes.append(spikes)
        tape.inputs.append(inputs)
    return tape


def unrolled_stbp_gradients(
    spec: NetworkSpec,
    params,
    frames,
    target,
    mode=None,
    loss: str = "ce",
    include_illusory: bool = True,
) -> TrueGradients:
    """Reverse sweep over the unrolled graph through layers and time.

    include_illusory toggles the reset-feedback term of the temporal error
    recurrence: when set, the error at a step inherits
    leak * (1 - threshold * slope) times the next step's error; when clear
    only the plain leak * next-step term survives (detached reset). The
    synergy mode only masks which gradient families are reported.
    """
    loss = getattr(loss, "value", loss)
    frames = list(frames)
    target = np.asarray(target, dtype=np.float64)
    tape = record_tape(spec, params, frames)
    net = tape.network
    layers = spec.layers
    lif_set = set(net.lif_indices)
    top = net.lif_indices[-1]
    steps = len(frames)

    gw_flat = {i: np.zeros_like(net.matrices[i]) for i in lif_set}
    gtheta = {i: np.zeros(layers[i].fan_out) for i in lif_set}
    gleak = {i: 0.0 for i in lif_set}

    gu_next = {i: np.zeros(layers[i].fan_out) for i in lif_set}
    for t in reversed(range(steps)):
        gu_cur = {}
        d = None
        for i in reversed(range(len(layers))):
            if i in lif_set:
                leak = net.leaks[i]
                theta = net.thresholds[i]
                margin = tape.potentials[t][i] - theta
                slope = firing_derivative(margin, spec.surrogate, spec.spike_mode)
                gs = loss_grad_of(tape.spikes[t][i], target, loss) if i == top else d
                if include_illusory:
                    gs = gs - leak * theta * gu_next[i]
                gu = gs * slope + leak * gu_next[i]
                gu_cur[i] = gu

                prev_s = tape.spikes[t - 1][i] if t > 0 else np.zeros_like(gu)
                prev_u = tape.potentials[t - 1][i] if t > 0 else np.zeros_like(gu)
                gw_flat[i] += np.outer(gu, tape.inputs[t][i])
                gtheta[i] += -gs * slope - leak * prev_s * gu
                gleak[i] += float(np.dot(gu, prev_u - theta * prev_s))
                d = net.matrices[i].T @ gu
            else:
                d = net.matrices[i].T @ d
        gu_next = gu_cur

    # collapse flat results onto the parameter tensors
    dw = [None] * len(layers)
    dtheta = [None] * len(layers)
    dleak = [None] * len(layers)
    trains_thresholds = mode is None or mode.name in ("WT", "WTL")
    trains_leakages = mode is None or mode.name in ("WL", "WTL")
    for i, layer in enumerate(layers):
        if i not in lif_set:
            continue
        if layer.kind is LayerKind.DENSE:
            dw[i] = gw_flat[i].copy()
            dtheta[i] = gtheta[i].copy() if trains_thresholds else np.zeros(layer.fan_out)
        else:
            cout = layer.out_shape[0]
            cin = layer.in_shape[0]
            g = np.zeros((cout, cin, layer.kernel, layer.kernel))
            for o, c, ki, kj, out_flat, in_flat in conv_placements(layer):
                g[o, c, ki, kj] += gw_flat[i][out_flat, in_flat]
            dw[i] = g
            per_channel = gtheta[i].reshape(layer.out_shape).sum(axis=(1, 2))
            dtheta[i] = per_channel if trains_thresholds else np.zeros(cout)
        dleak[i] = gleak[i] if trains_leakages else 0.0
    return TrueGradients(dw=dw, dtheta=dtheta, dleak=dleak)
