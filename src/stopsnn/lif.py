"""Leaky integrate-and-fire dynamics, surrogate gradients, coding.

A neuron integrates weighted input onto its membrane potential, leaks it
multiplicatively by the layer's leakage factor each step, fires when the
potential reaches its threshold, and resets by subtracting the threshold.
Hard mode fires binary spikes through a step function; soft mode is a
smooth relaxation used only by the numerical-gradient oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DecodingError, EncodingError, ParameterError, ShapeError
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

    potentials is None for layers without neuron dynamics (pooling,
    flatten); spikes then holds the layer's pass-through output.
    """

    potentials: Tensor | None
    spikes: Tensor


def surrogate_eval(x: Tensor, kind: SurrogateKind) -> Tensor:
    """Elementwise surrogate value; peaks at 1 for x = 0, symmetric, positive."""
    x = np.asarray(x, dtype=np.float64)
    if kind is SurrogateKind.EXP_ABS:
        return np.exp(-np.abs(x))
    if kind is SurrogateKind.INV_QUAD:
        return 1.0 / (1.0 + np.pi**2 * x**2)
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


def soft_spike_derivative(x: Tensor, kind: SurrogateKind) -> Tensor:
    """Exact derivative of soft_spike.

    For INV_QUAD this equals surrogate_eval; for EXP_ABS the unit-range
    rescaling halves it (the raw surrogate integrates to 2, so no (0,1)
    sigmoid can have it as an exact derivative).
    """
    if kind is SurrogateKind.EXP_ABS:
        return 0.5 * surrogate_eval(x, kind)
    return surrogate_eval(x, kind)


def firing_derivative(x: Tensor, kind: SurrogateKind, mode: SpikeMode) -> Tensor:
    """Derivative factor used when errors cross the firing nonlinearity.

    Hard mode uses the configured surrogate; soft mode uses the soft firing
    function's true derivative so numeric gradient checks are exact.
    """
    if mode is SpikeMode.SOFT:
        return soft_spike_derivative(x, kind)
    return surrogate_eval(x, kind)


def fire(potentials: Tensor, thresholds: Tensor, kind: SurrogateKind, mode: SpikeMode) -> Tensor:
    """Spike output for given potentials; fires at potential >= threshold."""
    margin = potentials - thresholds
    if mode is SpikeMode.HARD:
        return (margin >= 0.0).astype(np.float64)
    return soft_spike(margin, kind)


def lif_step(
    state: LifState,
    synaptic_input: Tensor,
    thresholds: Tensor,
    leakage: float,
    surrogate: SurrogateKind,
    mode: SpikeMode = SpikeMode.HARD,
) -> LifState:
    """Advance one time-step of leaky integrate-and-fire dynamics.

    New potential: leakage * (old potential - threshold * old spike) + input,
    i.e. exponential leak with reset-by-subtraction. New spike: step (hard)
    or smooth (soft) function of potential minus threshold.
    """
    synaptic_input = np.asarray(synaptic_input, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if state.potentials is None or state.potentials.shape != synaptic_input.shape:
        raise ShapeError("state and synaptic input shapes disagree")
    if (thresholds <= 0.0).any():
        raise ParameterError("thresholds must be strictly positive")
    if not 0.0 <= leakage <= 1.0:
        raise ParameterError(f"leakage must lie in [0, 1], got {leakage}")
    potentials = leakage * (state.potentials - thresholds * state.spikes) + synaptic_input
    spikes = fire(potentials, thresholds, surrogate, mode)
    return LifState(potentials=potentials, spikes=spikes)


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


def decode_prediction(output_spikes) -> int:
    """Class with the highest total spike count; ties go to the lowest index."""
    frames = list(output_spikes)
    if not frames:
        raise DecodingError("empty output spike sequence")
    counts = np.sum([np.asarray(f, dtype=np.float64).ravel() for f in frames], axis=0)
    return int(np.argmax(counts))
