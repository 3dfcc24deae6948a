"""Leaky integrate-and-fire dynamics, surrogate gradients, input coding.

A neuron integrates weighted input onto its membrane potential, leaks it
multiplicatively by the layer's leakage factor each step, fires when the
potential reaches its threshold, and resets by subtracting the threshold.
Hard mode fires binary spikes through a step function; soft mode is a
smooth relaxation used only by the numerical-gradient checks. These
kernels take the spike mode as an argument; everything above them reads
it from the network, NetworkSpec.spike_mode. A step advances its state in
place.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EncodingError, ShapeError
from .numerics import Tensor


class SurrogateKind(Enum):
    """Smooth stand-ins for the firing step's derivative."""

    EXP_ABS = "exp_abs"  # exp(-|x|)
    INV_QUAD = "inv_quad"  # 1 / (1 + pi^2 x^2)


class SpikeMode(Enum):
    HARD = "hard"
    SOFT = "soft"


@dataclass
class LifState:
    """Per-layer dynamic state: membrane potentials and last fired spikes.

    potentials is None for pooling and flatten layers; spikes then holds
    the pass-through output (a flatten layer's is None until its first step).
    """

    potentials: Tensor | None
    spikes: Tensor | None


def surrogate_eval(x: Tensor, kind: SurrogateKind, out: Tensor | None = None) -> Tensor:
    """Elementwise surrogate value (peak 1 at x = 0, symmetric, positive), into out (may be x) when given."""
    x = np.asarray(x, dtype=np.float64)
    if kind is SurrogateKind.EXP_ABS:
        return np.exp(np.negative(np.abs(x, out=out), out=out), out=out)
    if kind is SurrogateKind.INV_QUAD:
        return np.divide(1.0, np.add(1.0, np.multiply(np.pi**2, np.square(x, out=out), out=out), out=out), out=out)
    raise ValueError(f"unknown surrogate kind: {kind!r}")


def soft_spike(x: Tensor, kind: SurrogateKind) -> Tensor:
    """Smooth firing function for soft mode, strictly inside (0, 1).

    Each variant is the surrogate's antiderivative rescaled to unit range,
    so its derivative is exactly soft_spike_derivative.
    """
    x = np.asarray(x, dtype=np.float64)
    if kind is SurrogateKind.EXP_ABS:
        return np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
    if kind is SurrogateKind.INV_QUAD:
        return 0.5 + np.arctan(np.pi * x) / np.pi
    raise ValueError(f"unknown surrogate kind: {kind!r}")


def soft_spike_derivative(x: Tensor, kind: SurrogateKind, out: Tensor | None = None) -> Tensor:
    """Exact derivative of soft_spike; out works as in surrogate_eval.

    For INV_QUAD this equals surrogate_eval; for EXP_ABS the unit-range
    rescaling halves it (the raw surrogate integrates to 2, so no (0,1)
    sigmoid can have it as an exact derivative).
    """
    if kind is SurrogateKind.EXP_ABS:
        return np.multiply(0.5, surrogate_eval(x, kind, out), out=out)
    return surrogate_eval(x, kind, out)


def firing_derivative(x: Tensor, kind: SurrogateKind, mode: SpikeMode, out: Tensor | None = None) -> Tensor:
    """Derivative factor used when errors cross the firing nonlinearity.

    Hard mode uses the configured surrogate; soft mode uses the soft firing
    function's true derivative so numeric gradient checks are exact.
    """
    if mode is SpikeMode.SOFT:
        return soft_spike_derivative(x, kind, out)
    return surrogate_eval(x, kind, out)


def fire(
    potentials: Tensor, thresholds: Tensor, kind: SurrogateKind, mode: SpikeMode, out: Tensor | None = None
) -> Tensor:
    """Spike output for given potentials, written into out (float64) when given.

    Hard mode fires at potential >= threshold.
    """
    if out is None:
        out = np.empty(np.broadcast(potentials, thresholds).shape)
    if mode is SpikeMode.HARD:
        return np.greater_equal(potentials, thresholds, out=out)
    out[...] = soft_spike(np.subtract(potentials, thresholds), kind)
    return out


def lif_step(
    state: LifState,
    synaptic_input: Tensor,
    thresholds: Tensor,
    leakage: float,
    surrogate: SurrogateKind,
    mode: SpikeMode,
) -> LifState:
    """Advance one time-step of leaky integrate-and-fire dynamics, in place.

    New potential: leakage * (old potential - threshold * old spike) + input,
    i.e. exponential leak with reset-by-subtraction. New spike: step (hard)
    or smooth (soft) function of potential minus threshold. Overwrites the
    state's arrays (spikes hold threshold * old spike until the new spikes
    replace them) and returns the state. Parameter ranges are checked where
    values enter or change, not on every step.
    """
    potentials, spikes = state.potentials, state.spikes
    if potentials is None or potentials.shape != np.shape(synaptic_input):
        raise ShapeError("state and synaptic input shapes disagree")
    np.multiply(thresholds, spikes, out=spikes)
    np.subtract(potentials, spikes, out=potentials)
    potentials *= leakage
    potentials += synaptic_input
    fire(potentials, thresholds, surrogate, mode, out=spikes)
    return state


def encode_direct(raw: Tensor, max_value: float, time_steps: int) -> list[Tensor]:
    """Rescale raw values to [0, 1] fractional spikes, repeated each step.

    The returned frames share one array; encoded inputs are read-only by
    convention.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if time_steps < 1:
        raise EncodingError(f"need at least one time-step, got {time_steps}")
    if max_value <= 0:
        raise EncodingError(f"max_value must be positive, got {max_value}")
    if np.any(raw < 0.0) or np.any(raw > max_value):
        raise EncodingError("raw values outside [0, max_value]")
    frame = raw / float(max_value)
    return [frame] * time_steps

