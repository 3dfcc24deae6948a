"""Central finite differences of the relaxed (soft-spike) total loss.

Hard-mode spike counts are piecewise constant in the parameters, so only
the smooth relaxation admits numeric differentiation.
"""
from __future__ import annotations

import numpy as np

from ..errors import UnsupportedModeError
from ..learning import LossKind
from ..lif import SpikeMode
from ..topology import NetworkSpec
from .linearize import loss_of
from .unrolled import TrueGradients, record_tape

DEFAULT_STEP = 1e-5


def total_relaxed_loss(spec: NetworkSpec, params, frames, target, loss: LossKind | str = LossKind.CE) -> float:
    """Sum of instantaneous losses over the presentation window, in the spec's spike mode."""
    loss = LossKind(loss)
    target = np.asarray(target, dtype=np.float64)
    tape = record_tape(spec, params, frames)
    top = tape.network.lif_indices[-1]
    return sum(loss_of(spikes[top], target, loss) for spikes in tape.spikes)


def _perturbed(params, layer_index: int, kind: str, flat_index: int | None, amount: float):
    clone = [p.copy() if p is not None else None for p in params]
    p = clone[layer_index]
    if kind == "weight":
        p.weights.flat[flat_index] += amount
    elif kind == "threshold":
        p.thresholds.flat[flat_index] += amount
    elif kind == "leak":
        p.leak += amount
    else:
        raise ValueError(f"unknown parameter kind {kind!r}")
    return clone


def finite_diff_gradient(
    spec: NetworkSpec,
    params,
    frames,
    target,
    coordinate: tuple,
    loss: LossKind | str = LossKind.CE,
    h: float = DEFAULT_STEP,
) -> float:
    """Central-difference derivative of the total loss at one coordinate.

    coordinate is (layer_index, kind, flat_index) with kind one of
    "weight", "threshold", "leak" (flat_index ignored for "leak"). A spec
    with hard spikes raises UnsupportedModeError.
    """
    if spec.spike_mode is not SpikeMode.SOFT:
        raise UnsupportedModeError("finite differences require soft spikes; the hard loss is piecewise constant")
    layer_index, kind, flat_index = coordinate
    up = total_relaxed_loss(spec, _perturbed(params, layer_index, kind, flat_index, +h), frames, target, loss)
    down = total_relaxed_loss(spec, _perturbed(params, layer_index, kind, flat_index, -h), frames, target, loss)
    return (up - down) / (2.0 * h)


def finite_diff_all(spec: NetworkSpec, params, frames, target, loss: LossKind | str = LossKind.CE) -> TrueGradients:
    """Finite differences at every parameter coordinate, parameter-shaped."""
    dw = [None] * len(spec.layers)
    dtheta = [None] * len(spec.layers)
    dleak = [None] * len(spec.layers)
    for i, layer in enumerate(spec.layers):
        if not layer.is_lif:
            continue
        p = params[i]
        gw = np.zeros_like(p.weights)
        for flat in range(p.weights.size):
            gw.flat[flat] = finite_diff_gradient(spec, params, frames, target, (i, "weight", flat), loss)
        gt = np.zeros_like(p.thresholds)
        for flat in range(p.thresholds.size):
            gt.flat[flat] = finite_diff_gradient(spec, params, frames, target, (i, "threshold", flat), loss)
        dw[i] = gw
        dtheta[i] = gt
        dleak[i] = finite_diff_gradient(spec, params, frames, target, (i, "leak", None), loss)
    return TrueGradients(dw=dw, dtheta=dtheta, dleak=dleak)
