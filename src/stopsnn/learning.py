"""Forward-trace synergistic learning for feedforward spiking networks.

The rule factorizes each parameter's gradient into two streams that never
mix: per-time-step neuron errors flow backward through layers only (never
through time), while per-parameter eligibility traces flow forward through
time only (never across layers). Their products, accumulated over the
presentation window, yield the updates for synaptic weights, firing
thresholds, and leakage factors.

Trace recurrences (per layer, elementwise; all traces start at zero):

* weight trace, one per presynaptic unit, shared across the layer's
  neurons:  wt[t] = leak * wt[t-1] + presyn_spikes[t]
* threshold trace, one per neuron, driven by the neuron's own firing:
  tt[t] = leak * (tt[t-1] - own_spikes[t-1])
* leakage trace, one per neuron, charged by the post-reset membrane
  residual:  at[t] = leak * at[t-1] + (potential[t-1] - threshold * own_spikes[t-1])

Per-time-step accumulation with the neuron error d:  weights get
d x weight-trace (outer product; convolution kernels sum the product over
all spatial positions they touch), thresholds get d * (threshold_trace - 1)
-- the constant -1 carries the error path that bypasses the membrane
through the firing comparison -- and leakages get d * leakage_trace.

Everything here streams: after a time-step advances, no per-time-step
tensor from earlier steps is retained. The reference implementations that
do keep full history live in the oracle subpackage.

States, traces and errors may carry a leading batch axis, so one call
learns a whole mini-batch: per layer and time-step the dense weight
gradient is one GEMM over the batch (delta^T @ traces), a convolution's
one batched-im2col GEMM. Memory stays constant in the window length and
grows linearly in the batch. Unbatched arguments are the batch-of-one
case.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics
from .errors import NumericError, ShapeError, TargetError
from .lif import SpikeMode, SurrogateKind, firing_derivative
from .numerics import Tensor
from .topology import (
    LayerKind,
    LayerParams,
    LayerSpec,
    NetworkSpec,
    batch_shape,
    broadcast_thresholds,
    forward_timestep,
    passthrough_adjoint,
    reset_network,
)


class SynergyMode(Enum):
    """Which parameter families learn: weights always, thresholds/leakages optionally."""

    W = "W"
    WT = "WT"
    WL = "WL"
    WTL = "WTL"

    @property
    def trains_thresholds(self) -> bool:
        return self in (SynergyMode.WT, SynergyMode.WTL)

    @property
    def trains_leakages(self) -> bool:
        return self in (SynergyMode.WL, SynergyMode.WTL)


class LossKind(Enum):
    CE = "ce"
    MSE = "mse"


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis (each sample of a batch separately)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def validate_one_hot(target: Tensor) -> Tensor:
    """A one-hot target vector, or a (B, C) batch of one-hot rows."""
    target = np.asarray(target, dtype=np.float64)
    if target.ndim not in (1, 2) or target.size == 0:
        raise TargetError("target must be a one-hot vector with exactly one 1")
    rows = target.size // target.shape[-1]
    ones = np.count_nonzero(target == 1.0)
    # every nonzero is a 1 and there are as many as rows; with no empty row, one per row
    if ones != rows or np.count_nonzero(target) != ones or (rows > 1 and not target.any(axis=-1).all()):
        raise TargetError("target must be a one-hot vector with exactly one 1")
    return target


def loss_value(output_spikes: Tensor, target: Tensor, kind: LossKind) -> float:
    """Instantaneous loss at one time-step, summed over a batch."""
    target = validate_one_hot(target)
    if kind is LossKind.CE:
        probs = softmax(output_spikes)
        return float(-np.sum(target * np.log(np.maximum(probs, 1e-300))))
    return float(0.5 * np.sum((output_spikes - target) ** 2))


def loss_derivative(output_spikes: Tensor, target: Tensor, kind: LossKind) -> Tensor:
    target = validate_one_hot(target)
    if kind is LossKind.CE:
        return softmax(output_spikes) - target
    return output_spikes - target


# ---------------------------------------------------------------------------
# trace recurrences

def update_weight_traces(traces: Tensor, presyn_spikes: Tensor, leak: float) -> Tensor:
    """Leaky accumulation of presynaptic spikes; shape follows the presynaptic side."""
    presyn_spikes = np.asarray(presyn_spikes, dtype=np.float64)
    if traces.shape != presyn_spikes.shape:
        raise ShapeError(f"trace shape {traces.shape} does not match presynaptic {presyn_spikes.shape}")
    return leak * traces + presyn_spikes


def update_threshold_traces(traces: Tensor, prev_own_spikes: Tensor, leak: float) -> Tensor:
    """Leaky accumulation of the neuron's own past firing, negated."""
    prev_own_spikes = np.asarray(prev_own_spikes, dtype=np.float64)
    if traces.shape != prev_own_spikes.shape:
        raise ShapeError(f"trace shape {traces.shape} does not match spikes {prev_own_spikes.shape}")
    return leak * (traces - prev_own_spikes)


def update_leakage_traces(
    traces: Tensor, prev_potentials: Tensor, prev_own_spikes: Tensor, thresholds: Tensor, leak: float
) -> Tensor:
    """Leaky accumulation of the post-reset membrane residual."""
    prev_potentials = np.asarray(prev_potentials, dtype=np.float64)
    if traces.shape != prev_potentials.shape:
        raise ShapeError(f"trace shape {traces.shape} does not match potentials {prev_potentials.shape}")
    return leak * traces + (prev_potentials - thresholds * prev_own_spikes)


@dataclass
class TraceSet:
    """Per-layer forward traces; entries are None for non-neuron layers.

    Weight traces are keyed by presynaptic unit (input shape of the layer),
    independent of the layer's own width; threshold and leakage traces are
    allocated only for the parameter families the synergy mode trains.
    """

    weight: list[Tensor | None]
    threshold: list[Tensor | None]
    leakage: list[Tensor | None]

    @classmethod
    def zeros(cls, spec: NetworkSpec, mode: SynergyMode, batch: int | None = None) -> "TraceSet":
        weight, threshold, leakage = [], [], []
        for layer in spec.layers:
            if layer.is_lif:
                out_shape = batch_shape(batch, layer.out_shape)
                weight.append(np.zeros(batch_shape(batch, layer.in_shape)))
                threshold.append(np.zeros(out_shape) if mode.trains_thresholds else None)
                leakage.append(np.zeros(out_shape) if mode.trains_leakages else None)
            else:
                weight.append(None)
                threshold.append(None)
                leakage.append(None)
        return cls(weight=weight, threshold=threshold, leakage=leakage)

    def live_tensor_count(self) -> int:
        return sum(t is not None for group in (self.weight, self.threshold, self.leakage) for t in group)


@dataclass
class GradAccumulator:
    """Running parameter-change sums over time-steps and samples.

    Threshold and leakage entries are kept per neuron (a full spatial map
    for convolution layers); channel and layer averaging happen at update
    time, so these raw sums are directly comparable with the reference
    oracles. Only the families the mode trains are allocated; the others
    are read-only zero views that take no memory.
    """

    dw: list[Tensor | None]
    dtheta: list[Tensor | None]
    dalpha: list[Tensor | None]
    samples: int = 0

    @classmethod
    def zeros(cls, spec: NetworkSpec, mode: SynergyMode = SynergyMode.WTL) -> "GradAccumulator":
        def family(trained: bool, layer: LayerSpec) -> Tensor:
            return np.zeros(layer.out_shape) if trained else np.broadcast_to(0.0, layer.out_shape)

        dw, dtheta, dalpha = [], [], []
        for layer in spec.layers:
            lif = layer.is_lif
            dw.append(np.zeros(layer.weight_shape) if lif else None)
            dtheta.append(family(mode.trains_thresholds, layer) if lif else None)
            dalpha.append(family(mode.trains_leakages, layer) if lif else None)
        return cls(dw=dw, dtheta=dtheta, dalpha=dalpha)

    def merge(self, other: "GradAccumulator") -> None:
        """Add another accumulator in place (deterministic, index-ordered).

        Read-only entries are untrained families' zero views; they add nothing.
        """
        for mine, theirs in ((self.dw, other.dw), (self.dtheta, other.dtheta), (self.dalpha, other.dalpha)):
            for i, arr in enumerate(theirs):
                if arr is not None and arr.flags.writeable:
                    mine[i] += arr
        self.samples += other.samples


# ---------------------------------------------------------------------------
# neuron errors

def output_error(
    output_spikes: Tensor,
    target: Tensor,
    potentials: Tensor,
    thresholds: Tensor,
    loss: LossKind,
    surrogate: SurrogateKind,
    mode: SpikeMode = SpikeMode.HARD,
) -> Tensor:
    """Neuron error of the output layer at the current time-step."""
    grad = loss_derivative(np.asarray(output_spikes, dtype=np.float64), target, loss)
    return grad * firing_derivative(potentials - thresholds, surrogate, mode)


def hidden_error(
    weighted_delta: Tensor,
    potentials: Tensor,
    thresholds: Tensor,
    surrogate: SurrogateKind,
    mode: SpikeMode = SpikeMode.HARD,
) -> Tensor:
    """Neuron error of a hidden layer at the current time-step.

    weighted_delta is the downstream error already pulled back through the
    intervening weights (and any pooling/flatten adjoints, which carry no
    firing-derivative factor).
    """
    weighted_delta = np.asarray(weighted_delta, dtype=np.float64)
    if weighted_delta.shape != np.shape(potentials):
        raise ShapeError(f"delta shape {weighted_delta.shape} does not match layer {np.shape(potentials)}")
    return weighted_delta * firing_derivative(potentials - thresholds, surrogate, mode)


def weight_adjoint(layer: LayerSpec, params: LayerParams, delta: Tensor) -> Tensor:
    """Pull a layer's neuron error back through its weights to its input."""
    if layer.kind is LayerKind.DENSE:
        return numerics.matmul(params.weights.T, delta.T).T
    return numerics.conv2d_adjoint_input(delta, params.weights, stride=layer.stride, padding=layer.padding)


def accumulate_gradients(
    acc: GradAccumulator,
    index: int,
    layer: LayerSpec,
    delta: Tensor,
    traces: TraceSet,
    mode: SynergyMode,
) -> GradAccumulator:
    """Fold one layer's error/trace products for the current time-step into acc.

    A batched delta is summed over the batch: one GEMM for the weights,
    one batch-sum each for thresholds and leakages.
    """
    wt = traces.weight[index]
    if layer.kind is LayerKind.DENSE:
        acc.dw[index] += np.dot(delta.reshape(-1, delta.shape[-1]).T, wt.reshape(-1, wt.shape[-1]))
    else:
        acc.dw[index] += numerics.conv2d_weight_grad(wt, delta, stride=layer.stride, padding=layer.padding)
    if mode.trains_thresholds:
        acc.dtheta[index] += _batch_sum(delta * (traces.threshold[index] - 1.0), layer)
    if mode.trains_leakages:
        acc.dalpha[index] += _batch_sum(delta * traces.leakage[index], layer)
    return acc


def _batch_sum(values: Tensor, layer: LayerSpec) -> Tensor:
    """Per-neuron values summed over a leading batch axis, if there is one."""
    return values if values.ndim == len(layer.out_shape) else values.sum(axis=0)


# ---------------------------------------------------------------------------
# learning a sample or a mini-batch

def learn_batch(
    spec: NetworkSpec,
    params: list[LayerParams | None],
    frames,
    target: Tensor,
    mode: SynergyMode = SynergyMode.WTL,
    loss: LossKind = LossKind.CE,
    spike_mode: SpikeMode = SpikeMode.HARD,
    audit: dict | None = None,
) -> GradAccumulator:
    """Run a mini-batch, or one sample, through the full learning procedure.

    frames yields one input per time-step: a (B, ...) batch with a (B, C)
    target of one-hot rows, or a single sample with a one-hot vector. Each
    time-step performs the forward sweep (dynamics plus trace updates),
    then backpropagates the instantaneous loss spatially and folds the
    error/trace products, summed over the batch, into the accumulator. No
    per-time-step history survives the step; pass an audit dict to receive
    the count of retained step-carried tensors plus the total loss over
    the batch and the decoded prediction (one per sample when batched).
    """
    target = validate_one_hot(target)
    batch = target.shape[0] if target.ndim == 2 else None
    states = reset_network(spec, batch)
    traces = TraceSet.zeros(spec, mode, batch)
    acc = GradAccumulator.zeros(spec, mode)
    lif_indices = spec.lif_indices
    first, top = lif_indices[0], lif_indices[-1]
    total_loss = 0.0
    output_counts = np.zeros(batch_shape(batch, (spec.num_classes,)))

    for frame in frames:
        prev_states = states
        states, _ = forward_timestep(spec, params, states, frame, spike_mode)

        current = np.asarray(frame, dtype=np.float64)
        for i, layer in enumerate(spec.layers):
            if layer.is_lif:
                p = params[i]
                theta = broadcast_thresholds(layer, p.thresholds)
                traces.weight[i] = update_weight_traces(traces.weight[i], current, p.leak)
                if mode.trains_thresholds:
                    traces.threshold[i] = update_threshold_traces(
                        traces.threshold[i], prev_states[i].spikes, p.leak
                    )
                if mode.trains_leakages:
                    traces.leakage[i] = update_leakage_traces(
                        traces.leakage[i], prev_states[i].potentials, prev_states[i].spikes, theta, p.leak
                    )
            current = states[i].spikes

        total_loss += loss_value(states[top].spikes, target, loss)
        output_counts += states[top].spikes

        delta_spikes: Tensor | None = None
        # no error is needed below the first neuron layer
        for i in reversed(range(first, len(spec.layers))):
            layer = spec.layers[i]
            if layer.is_lif:
                p = params[i]
                theta = broadcast_thresholds(layer, p.thresholds)
                if i == top:
                    delta = output_error(
                        states[i].spikes, target, states[i].potentials, theta, loss, spec.surrogate, spike_mode
                    )
                else:
                    delta = hidden_error(delta_spikes, states[i].potentials, theta, spec.surrogate, spike_mode)
                accumulate_gradients(acc, i, layer, delta, traces, mode)
                if i > first:
                    delta_spikes = weight_adjoint(layer, p, delta)
            else:
                delta_spikes = passthrough_adjoint(layer, delta_spikes)

    acc.samples = 1 if batch is None else batch
    if audit is not None:
        state_tensors = sum(
            (st.potentials is not None) + 1 for st, l in zip(states, spec.layers) if l.is_lif
        )
        audit["retained_time_indexed_tensors"] = state_tensors + traces.live_tensor_count()
        audit["loss"] = total_loss
        audit["prediction"] = np.argmax(output_counts, axis=-1).tolist()
    return acc


# a single sample is the unbatched case of the batched engine
learn_sample = learn_batch


# ---------------------------------------------------------------------------
# parameter updates

THRESHOLD_FLOOR = 0.01


def apply_updates(
    params: list[LayerParams | None],
    acc: GradAccumulator,
    spec: NetworkSpec,
    eta_w: float,
    eta_theta: float,
    eta_alpha: float,
    mode: SynergyMode = SynergyMode.WTL,
    batch_size: int = 1,
    weight_decay: float = 0.0,
    epsilon: float = THRESHOLD_FLOOR,
    momentum: float = 0.0,
    weight_velocities: list[Tensor | None] | None = None,
    threshold_velocities: list[Tensor | None] | None = None,
    leak_velocities: list[float] | None = None,
) -> list[LayerParams | None]:
    """Apply accumulated gradients to the parameters, in place.

    Gradients are divided by batch_size. Weights take an L2-decayed step,
    optionally through momentum velocity buffers. Convolution threshold
    changes are averaged over each channel's neurons (the channel shares
    one threshold), then truncated at the floor epsilon; leakage changes
    are averaged over the layer's neurons and the result clamped to [0, 1].

    Fails closed: a non-finite gradient of a trained family, checked before
    any parameter moves, or a non-finite updated parameter raises
    NumericError naming the layer and the family (w, theta or alpha).
    """
    for i in spec.lif_indices:
        _require_finite(acc.dw[i], "w gradient", i)
        if mode.trains_thresholds:
            _require_finite(acc.dtheta[i], "theta gradient", i)
        if mode.trains_leakages:
            _require_finite(acc.dalpha[i], "alpha gradient", i)
    scale = 1.0 / float(batch_size)
    for i, layer in enumerate(spec.layers):
        if not layer.is_lif:
            continue
        p = params[i]
        grad_w = acc.dw[i] * scale + weight_decay * p.weights
        if weight_velocities is not None:
            weight_velocities[i] = momentum * weight_velocities[i] + grad_w
            grad_w = weight_velocities[i]
        p.weights = p.weights - eta_w * grad_w

        if mode.trains_thresholds:
            dtheta = acc.dtheta[i] * scale
            if layer.kind is LayerKind.CONV:
                dtheta = dtheta.mean(axis=(1, 2))
            if threshold_velocities is not None:
                threshold_velocities[i] = momentum * threshold_velocities[i] + dtheta
                dtheta = threshold_velocities[i]
            p.thresholds = np.maximum(epsilon, p.thresholds - eta_theta * dtheta)

        if mode.trains_leakages:
            dalpha = float(np.mean(acc.dalpha[i])) * scale
            if leak_velocities is not None:
                leak_velocities[i] = momentum * leak_velocities[i] + dalpha
                dalpha = leak_velocities[i]
            p.leak = float(min(1.0, max(0.0, p.leak - eta_alpha * dalpha)))
        _require_finite(p.weights, "w", i)
        _require_finite(p.thresholds, "theta", i)
        _require_finite(p.leak, "alpha", i)
    return params


def _require_finite(values, what: str, layer: int) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite {what} at layer {layer}")


# ---------------------------------------------------------------------------
# analytic cost model

COMPLEXITY_RULES = ("STBP", "STOP-W", "STOP-WTL")


def complexity_estimate(depth: int, width: int, time_steps: int, rule: str) -> tuple[int, int]:
    """Learning-pass cost model: (retained memory units, multiply count).

    Temporally backward training stores two state variables per neuron per
    time-step; the streaming rule keeps a constant three (weights only) or
    five (full synergy) per neuron regardless of window length.
    """
    if depth < 1 or width < 1 or time_steps < 1:
        raise ValueError("depth, width, and time_steps must be positive")
    l, n, t = depth, width, time_steps
    if rule == "STBP":
        return 2 * t * l * n, t * l * n * (2 * n + 7)
    if rule == "STOP-W":
        return 3 * l * n, t * l * n * (2 * n + 2)
    if rule == "STOP-WTL":
        return 5 * l * n, t * l * n * (2 * n + 6)
    raise ValueError(f"unknown rule {rule!r}; expected one of {COMPLEXITY_RULES}")
