"""Brute-force restatement of the forward-trace rule, per scalar.

Recomputes every neuron error and every trace by direct recursion over
the step-by-step history recorded by record_tape, then sums the
error/trace products one scalar at a time (threshold and leakage products
per neuron, then onto each threshold and the layer's leakage). Shares no
code with the streaming implementation beyond elementary activation
formulas; used to pin its gradients bit-for-bit at desk scale.
"""
from __future__ import annotations

import numpy as np

from ..errors import SizeGuardError
from ..learning import LossKind, SynergyMode
from ..lif import firing_derivative
from ..topology import LayerKind, NetworkSpec
from .linearize import conv_placements, loss_grad_of, parameter_count
from .unrolled import TrueGradients, record_tape

NAIVE_PARAMETER_GUARD = 10_000


def naive_stop_gradients(
    spec: NetworkSpec,
    params,
    frames,
    target,
    mode: SynergyMode,
    loss: LossKind | str = LossKind.CE,
) -> TrueGradients:
    if parameter_count(spec, params) > NAIVE_PARAMETER_GUARD:
        raise SizeGuardError(
            f"network exceeds the {NAIVE_PARAMETER_GUARD}-parameter enumeration guard"
        )
    loss = LossKind(loss)
    frames = list(frames)
    target = np.asarray(target, dtype=np.float64)
    tape = record_tape(spec, params, frames)
    net = tape.network
    layers = spec.layers
    lif_set = set(net.lif_indices)
    top = net.lif_indices[-1]

    # --- traces by direct recursion over the recorded forward window ---------
    zeros = {i: np.zeros(layers[i].fan_out) for i in lif_set}
    wtr_hist = {i: [] for i in lif_set}
    ttr_hist = {i: [] for i in lif_set}
    atr_hist = {i: [] for i in lif_set}
    wtr = {i: np.zeros(layers[i].fan_in) for i in lif_set}
    ttr = {i: np.zeros(layers[i].fan_out) for i in lif_set}
    atr = {i: np.zeros(layers[i].fan_out) for i in lif_set}
    for t in range(len(frames)):
        prev_u = tape.potentials[t - 1] if t > 0 else zeros
        prev_s = tape.spikes[t - 1] if t > 0 else zeros
        for i in lif_set:
            leak = net.leaks[i]
            theta = net.thresholds[i]
            wtr[i] = leak * wtr[i] + tape.inputs[t][i]
            ttr[i] = leak * (ttr[i] - prev_s[i])
            atr[i] = leak * atr[i] + (prev_u[i] - theta * prev_s[i])
            wtr_hist[i].append(wtr[i])
            ttr_hist[i].append(ttr[i])
            atr_hist[i].append(atr[i])

    # --- neuron errors per time-step, spatial sweep only --------------------
    delta_hist = {i: [] for i in lif_set}
    for t in range(len(frames)):
        d = None
        for i in reversed(range(len(layers))):
            if i in lif_set:
                slope = firing_derivative(tape.potentials[t][i] - net.thresholds[i], spec.surrogate, spec.spike_mode)
                if i == top:
                    delta = loss_grad_of(tape.spikes[t][i], target, loss) * slope
                else:
                    delta = d * slope
                delta_hist[i].append(delta)
                d = net.matrices[i].T @ delta
            else:
                d = net.matrices[i].T @ d

    # --- per-scalar accumulation --------------------------------------------
    dw = [None] * len(layers)
    dtheta = [None] * len(layers)
    dleak = [None] * len(layers)
    for i, layer in enumerate(layers):
        if i not in lif_set:
            continue
        if layer.kind is LayerKind.DENSE:
            g = np.zeros((layer.fan_out, layer.fan_in))
            for t in range(len(frames)):
                delta, trace = delta_hist[i][t], wtr_hist[i][t]
                for j in range(layer.fan_out):
                    for k in range(layer.fan_in):
                        g[j, k] += delta[j] * trace[k]
        else:
            cout = layer.out_shape[0]
            cin = layer.in_shape[0]
            g = np.zeros((cout, cin, layer.kernel, layer.kernel))
            placements = list(conv_placements(layer))
            for t in range(len(frames)):
                delta, trace = delta_hist[i][t], wtr_hist[i][t]
                for o, c, ki, kj, out_flat, in_flat in placements:
                    g[o, c, ki, kj] += delta[out_flat] * trace[in_flat]
        dw[i] = g

        n = layer.fan_out
        gt = np.zeros(n)
        ga = np.zeros(n)
        for t in range(len(frames)):
            delta = delta_hist[i][t]
            for j in range(n):
                if mode.trains_thresholds:
                    gt[j] += delta[j] * (ttr_hist[i][t][j] - 1.0)
                if mode.trains_leakages:
                    ga[j] += delta[j] * atr_hist[i][t][j]
        dtheta[i] = gt.reshape(layer.num_thresholds, -1).sum(axis=1)
        dleak[i] = float(ga.sum())

    return TrueGradients(dw=dw, dtheta=dtheta, dleak=dleak)
