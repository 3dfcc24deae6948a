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

Everything here streams: no per-time-step tensor outlives the backward
sweep that reads it, and a sweep covers at most K steps, K set by the
network and the batch, never by the window. The reference implementations
that do keep full history live in the oracle subpackage.

States, traces and errors always carry a leading batch axis, so one call
learns a whole mini-batch. Because errors never cross time, the backward
passes of K consecutive steps are one pass over K*B rows: each step
copies the rows its pass reads (every neuron layer's potentials and
traces, and the output spikes) into a WindowStack, and every K steps, and
once at the window's end, one sweep runs the error, adjoint and
accumulation helpers once per layer on all of them. A dense layer adds
its rows into dw with one in-place BLAS GEMM (scipy's dgemm, beta = 1)
that builds no temporary of dw's size; a convolution's weight gradient is
one im2col GEMM per batch slice of numerics.COLUMN_BUDGET. K is as many
steps as fit a fifth of that budget, capped at the network's time_steps,
so the stack is bounded by the network and the batch, never by the
window (WindowStack.depth; the README lists K for the benchmark networks).
Stacking sums in another order, within the oracle battery's 1e-9; at
K = 1 the steps add in order. The WindowStack owns what a learn call
keeps for its window, allocated once: the live traces, the stacked rows
and their targets, and the sweep's error scratch of K*B rows the size of
the largest neuron layer. A step allocates no state: the forward sweep
works in place, and a sweep drops each pulled-back error once the
layer's error is formed from it. Memory stays constant in the window
length; states, traces and errors grow linearly in the batch, the
kernels' blocks do not. learning_bytes(spec, batch, mode) is that memory
in bytes: it builds what a learn call holds with the call's own
constructors and takes no window length. One sample is a batch of one:
learn_sample adds the axis and learns through learn_batch.

infer_batch is the one inference rollout (evaluation and teacher
labelling go through it). Like a backward sweep, it computes the loss
over stacked output rows: once per block of K steps, K as many steps of
the block as fit the same fifth of the budget, and once at the window's
end. apply_updates(params, grads, optimizer, rates) is the one update step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg.blas import dgemm

from . import numerics
from .errors import NumericError, ShapeError, TargetError
from .lif import SpikeMode, SurrogateKind, firing_derivative
from .numerics import Tensor
from .topology import (
    LayerKind,
    LayerParams,
    LayerSpec,
    NetworkSpec,
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


def validate_one_hot(target: Tensor, classes: int) -> Tensor:
    """A (B, classes) batch of one-hot rows; another rank is a ShapeError, another width a TargetError."""
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ShapeError(f"targets {target.shape} are not (B, C) rows")
    if target.shape[1] != classes:
        raise TargetError(f"targets {target.shape} are not one-hot over the network's {classes} classes")
    # one 1 per row, and no other nonzero
    if target.size == 0 or not (target == 1.0).sum(axis=1).all() or np.count_nonzero(target) != len(target):
        raise TargetError("every target row must be one-hot, with exactly one 1")
    return target


def loss_value(output_spikes: Tensor, target: Tensor, kind: LossKind) -> float:
    """Instantaneous loss summed over output rows of one or more time-steps.

    output_spikes is one step's (B, C) rows, or a stack of several steps'
    rows that the (B, C) targets match or broadcast against; targets are
    validated by the callers.
    """
    if kind is LossKind.CE:
        probs = softmax(output_spikes)
        return float(-np.sum(target * np.log(np.maximum(probs, 1e-300))))
    return float(0.5 * np.sum((output_spikes - target) ** 2))


def loss_derivative(output_spikes: Tensor, target: Tensor, kind: LossKind) -> Tensor:
    if kind is LossKind.CE:
        return softmax(output_spikes) - target
    return output_spikes - target


# ---------------------------------------------------------------------------
# trace recurrences

def update_weight_traces(traces: Tensor, presyn_spikes: Tensor, leak: float) -> Tensor:
    """Leaky accumulation of presynaptic spikes; shape follows the presynaptic side.

    Updates traces in place and returns that array.
    """
    traces *= leak
    traces += presyn_spikes
    return traces


def update_threshold_traces(traces: Tensor, prev_own_spikes: Tensor, leak: float) -> Tensor:
    """Leaky accumulation of the neuron's own past firing, negated.

    Updates traces in place and returns that array.
    """
    np.subtract(traces, prev_own_spikes, out=traces)
    traces *= leak
    return traces


def update_leakage_traces(
    traces: Tensor, prev_potentials: Tensor, prev_own_spikes: Tensor, thresholds: Tensor, leak: float,
    scratch: Tensor | None = None,
) -> Tensor:
    """Leaky accumulation of the post-reset membrane residual.

    Updates traces in place and returns that array; the residual is formed
    in scratch (of the traces' shape) when given.
    """
    residual = np.multiply(thresholds, prev_own_spikes, out=scratch)
    np.subtract(prev_potentials, residual, out=residual)
    traces *= leak
    traces += residual
    return traces


@dataclass
class GradAccumulator:
    """Running parameter-change sums over time-steps and samples, in parameter shape.

    dtheta holds one sum per threshold (over a convolution channel's
    positions) and dalpha one per layer (over its neurons): the raw sums
    the reference oracles report; averaging happens at update time. Only
    the families the mode trains are allocated; the others are read-only
    zero views. apply_updates reads the spec, mode and sample count from here.
    """

    dw: list[Tensor | None]
    dtheta: list[Tensor | None]
    dalpha: list[Tensor | None]
    spec: NetworkSpec
    mode: SynergyMode
    samples: int = 0

    @classmethod
    def zeros(cls, spec: NetworkSpec, mode: SynergyMode = SynergyMode.WTL) -> "GradAccumulator":
        def family(trained: bool, shape: tuple) -> Tensor:
            return np.zeros(shape) if trained else np.broadcast_to(0.0, shape)

        dw, dtheta, dalpha = [], [], []
        for layer in spec.layers:
            lif = layer.is_lif
            dw.append(np.zeros(layer.weight_shape) if lif else None)
            dtheta.append(family(mode.trains_thresholds, (layer.num_thresholds,)) if lif else None)
            dalpha.append(family(mode.trains_leakages, ()) if lif else None)
        return cls(dw=dw, dtheta=dtheta, dalpha=dalpha, spec=spec, mode=mode)

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
    mode: SpikeMode,
    out: Tensor | None = None,
) -> Tensor:
    """Neuron error of the output layer at the current time-step, written into out when given."""
    grad = loss_derivative(np.asarray(output_spikes, dtype=np.float64), target, loss)
    return _times_slope(grad, potentials, thresholds, surrogate, mode, out)


def hidden_error(
    weighted_delta: Tensor,
    potentials: Tensor,
    thresholds: Tensor,
    surrogate: SurrogateKind,
    mode: SpikeMode,
    out: Tensor | None = None,
) -> Tensor:
    """Neuron error of a hidden layer at the current time-step.

    weighted_delta is the downstream error already pulled back through the
    intervening weights (and any pooling/flatten adjoints, which carry no
    firing-derivative factor). Written into out when given.
    """
    return _times_slope(weighted_delta, potentials, thresholds, surrogate, mode, out)


def _times_slope(factor, potentials, thresholds, surrogate, mode, out) -> Tensor:
    """factor times the firing derivative at potentials - thresholds, formed in out when given."""
    slope = np.subtract(potentials, thresholds, out=out)
    slope = firing_derivative(slope, surrogate, mode, out=slope)
    slope *= factor
    return slope


def weight_adjoint(layer: LayerSpec, params: LayerParams, delta: Tensor) -> Tensor:
    """Pull a layer's neuron error back through its weights to its input."""
    if layer.kind is LayerKind.DENSE:
        return numerics.matmul(params.weights.T, delta.T).T
    return numerics.conv2d_adjoint_input(delta, params.weights, stride=layer.stride, padding=layer.padding)


def accumulate_gradients(acc: GradAccumulator, index: int, delta: Tensor, stack: "WindowStack") -> GradAccumulator:
    """Fold one layer's error/trace products over a backward sweep's rows into acc.

    The layer is acc.spec.layers[index], and acc.mode says which families
    learn. delta holds the sweep's (n, ...) errors, which pair with the
    first n rows of the stack. The products are summed over the rows into
    each parameter: a dense layer adds them into dw with one in-place dgemm,
    a convolution runs one im2col GEMM, thresholds take one einsum and the
    leakage one dot product, neither building a product of the rows' size.
    """
    rows, layer, mode = len(delta), acc.spec.layers[index], acc.mode
    if layer.kind is LayerKind.CONV:
        acc.dw[index] += numerics.conv2d_weight_grad(stack.weight[index][:rows], delta,
                                                     stride=layer.stride, padding=layer.padding)
    else:
        _fold_dense(acc.dw[index], delta, stack.weight[index][:rows])
    if mode.trains_thresholds:  # d * (trace - 1), summed as d * trace less d
        d = delta.reshape(rows, layer.num_thresholds, -1)
        acc.dtheta[index] += (np.einsum("ncp,ncp->c", d, stack.threshold[index][:rows].reshape(d.shape))
                              - d.sum(axis=(0, 2)))
    if mode.trains_leakages:
        acc.dalpha[index] += np.vdot(delta, stack.leakage[index][:rows])
    return acc


def _fold_dense(dw: Tensor, deltas: Tensor, inputs: Tensor) -> None:
    """dw += deltas^T @ inputs, in place, for C-ordered (n, out) deltas and (n, in) inputs.

    dgemm with beta = 1 adds into the C-ordered dw's Fortran-ordered transpose in place. All
    operands are Fortran-ordered views, so none is copied; a copy of c would drop the sum.
    """
    dgemm(1.0, inputs.T, deltas.T, beta=1.0, c=dw.T, trans_b=1, overwrite_c=1)


def _steps_that_fit(spec: NetworkSpec, step_bytes: int) -> int:
    """Steps of step_bytes within a fifth of numerics.COLUMN_BUDGET, at least one, at most time_steps."""
    return max(1, min(spec.time_steps, numerics.COLUMN_BUDGET // 5 // step_bytes))


class WindowStack:
    """A learn call's window arrays: the live traces, and the rows a backward sweep reads, K = depth steps deep.

    The live traces start at zero and learn_batch updates them in place.
    Per neuron layer (None elsewhere), the weight trace has the layer's
    input shape and the threshold and leakage traces, kept only for the
    families mode trains, its output shape. Each block (potentials and
    traces per layer, the output spikes) is (K*B, ...), rows s*B to
    (s+1)*B holding step s; at K = 1 it is the live array itself. targets
    tiles the (B, C) target over the K steps. errors is the sweep's
    scratch, as large as the largest neuron layer; a sweep drops each
    pulled-back error once the layer's error is formed from it. K is the
    number of steps of all of these, read off the live arrays, that fit a
    fifth of the budget.
    """

    def __init__(self, spec: NetworkSpec, mode: SynergyMode, states, target: Tensor):
        top = spec.lif_indices[-1]
        self.batch = batch = len(target)

        def zeros(shape: tuple, kept: bool) -> Tensor | None:
            return np.zeros((batch, *shape)) if kept else None

        layers = spec.layers
        self.weight_traces = [zeros(layer.in_shape, layer.is_lif) for layer in layers]
        self.threshold_traces = [zeros(layer.out_shape, layer.is_lif and mode.trains_thresholds) for layer in layers]
        self.leakage_traces = [zeros(layer.out_shape, layer.is_lif and mode.trains_leakages) for layer in layers]
        lives = ([state.potentials for state in states], self.weight_traces, self.threshold_traces,
                 self.leakage_traces, [states[top].spikes])
        scratch = max(states[i].potentials.nbytes for i in spec.lif_indices)
        self.depth = depth = _steps_that_fit(spec, sum(a.nbytes for group in lives for a in group if a is not None)
                                             + scratch)
        self.targets = np.tile(target, (depth, 1))  # the target of every stacked row
        self.steps = 0
        self._copies: list[tuple[Tensor, Tensor]] = []

        def block(live: Tensor | None) -> Tensor | None:
            if live is None or depth == 1:
                return live
            rows = np.empty((depth * batch, *live.shape[1:]))
            self._copies.append((rows, live))
            return rows

        self.potentials, self.weight, self.threshold, self.leakage, (self.output,) = (
            [block(live) for live in group] for group in lives)
        self.errors = _layer_scratch(spec, depth * batch)

    def push(self) -> bool:
        """Copy the live arrays into the next step's rows; True when all K steps are filled."""
        rows = slice(self.steps * self.batch, (self.steps + 1) * self.batch)
        for block, live in self._copies:
            block[rows] = live
        self.steps += 1
        return self.steps == self.depth


def _layer_scratch(spec: NetworkSpec, batch: int) -> list[Tensor | None]:
    """Per neuron layer (None elsewhere), a (batch, ...) view of one buffer as large as the largest.

    The views overlap: one holds its values until another is written.
    """
    shapes = [(batch, *layer.out_shape) if layer.is_lif else None for layer in spec.layers]
    buffer = np.empty(max(math.prod(shape) for shape in shapes if shape))
    return [None if shape is None else buffer[: math.prod(shape)].reshape(shape) for shape in shapes]


# ---------------------------------------------------------------------------
# learning a mini-batch, or one sample as a batch of one

def learn_batch(
    spec: NetworkSpec,
    params: list[LayerParams | None],
    frames,
    target: Tensor,
    mode: SynergyMode = SynergyMode.WTL,
    loss: LossKind = LossKind.CE,
    audit: dict | None = None,
) -> GradAccumulator:
    """Run a mini-batch through the full learning procedure, in the spec's spike mode.

    frames yields one (B, ...) input batch per time-step, and target holds
    the B one-hot rows. Each time-step performs the forward sweep (dynamics
    plus trace updates) and stacks the rows its backward pass reads; every
    K steps, and once at the window's end, one backward sweep over the
    stacked rows backpropagates the instantaneous losses spatially and
    folds the error/trace products, summed over the rows, into the
    accumulator. No history survives the sweep (learning_bytes counts what
    the call holds); pass an audit dict to receive the total loss and one
    decoded prediction per sample. A target that is not (B, C), a frame
    that does not fit the network input and the target's batch, or a
    window with no frames raises ShapeError, and target rows that are not
    one-hot over the network's classes raise TargetError; trace and error
    shapes are fixed with the states, so the helpers recheck none.
    """
    target = validate_one_hot(target, spec.num_classes)
    batch = len(target)
    states = reset_network(spec, batch)
    stack = WindowStack(spec, mode, states, target)
    acc = GradAccumulator.zeros(spec, mode)
    lif_indices = spec.lif_indices
    top = lif_indices[-1]
    total_loss = 0.0
    output_counts = np.zeros((batch, spec.num_classes))
    thetas = [None if p is None else broadcast_thresholds(layer, p.thresholds) for layer, p in zip(spec.layers, params)]
    trains_thresholds, trains_leakages = mode.trains_thresholds, mode.trains_leakages

    t = -1  # stays -1 when the window has no frames
    for t, frame in enumerate(frames):
        # threshold and leakage traces read the previous step's state before the step overwrites
        # it; from the rest state (t = 0) they would stay zero
        for i in lif_indices if t else ():
            p, st = params[i], states[i]
            if trains_thresholds:
                update_threshold_traces(stack.threshold_traces[i], st.spikes, p.leak)
            if trains_leakages:  # the sweep's error scratch is free; its first B rows take the residual
                update_leakage_traces(stack.leakage_traces[i], st.potentials, st.spikes, thetas[i], p.leak,
                                      stack.errors[i][:batch])
        forward_timestep(spec, params, states, frame)

        current = frame  # forward_timestep has checked it against the states
        for i, layer in enumerate(spec.layers):
            if layer.is_lif:
                update_weight_traces(stack.weight_traces[i], current, params[i].leak)
            current = states[i].spikes
        output_counts += states[top].spikes
        if stack.push():
            total_loss += _backward_sweep(params, stack, thetas, acc, loss)

    if t < 0:
        raise ShapeError("the window has no frames")
    if stack.steps:  # the steps stacked since the last sweep
        total_loss += _backward_sweep(params, stack, thetas, acc, loss)
    acc.samples = batch
    if audit is not None:
        audit["loss"] = total_loss
        audit["prediction"] = np.argmax(output_counts, axis=-1).tolist()
    return acc


def _backward_sweep(params, stack: WindowStack, thetas, acc: GradAccumulator, loss) -> float:
    """One backward pass over the stack's filled rows, which it then empties; returns their summed loss.

    The error at a step reads only that step's potentials, spikes and
    traces, so the stacked steps go down acc.spec's layers as one batch of
    rows. No error is needed below the first neuron layer.
    """
    spec, rows = acc.spec, stack.steps * stack.batch
    first, top = spec.lif_indices[0], spec.lif_indices[-1]
    output, target = stack.output[:rows], stack.targets[:rows]
    sweep_loss = loss_value(output, target, loss)
    delta_spikes = None
    for i in reversed(range(first, len(spec.layers))):
        layer = spec.layers[i]
        if layer.is_lif:
            potentials, out = stack.potentials[i][:rows], stack.errors[i][:rows]
            if i == top:
                delta = output_error(output, target, potentials, thetas[i], loss, spec.surrogate, spec.spike_mode, out)
            else:
                delta = hidden_error(delta_spikes, potentials, thetas[i], spec.surrogate, spec.spike_mode, out)
                delta_spikes = None  # read: freed before the layer's gradient scratch
            accumulate_gradients(acc, i, delta, stack)
            if i > first:
                delta_spikes = weight_adjoint(layer, params[i], delta)
        else:
            delta_spikes = passthrough_adjoint(layer, delta_spikes)
    stack.steps = 0
    return sweep_loss


def learn_sample(spec: NetworkSpec, params: list[LayerParams | None], frames, target: Tensor,
                 mode: SynergyMode = SynergyMode.WTL, loss: LossKind = LossKind.CE,
                 audit: dict | None = None) -> GradAccumulator:
    """learn_batch on one sample: its frames and one-hot target gain a batch axis of one.

    The audit's prediction is the sample's one class.
    """
    acc = learn_batch(spec, params, (np.asarray(f)[None] for f in frames), np.asarray(target)[None],
                      mode, loss, audit)
    if audit is not None:
        (audit["prediction"],) = audit["prediction"]
    return acc


# ---------------------------------------------------------------------------
# inference over a window

def infer_batch(spec: NetworkSpec, params: list[LayerParams | None], frames, targets: Tensor | None = None,
                loss: LossKind = LossKind.CE) -> tuple[list[int], float]:
    """(predictions, total loss) of a window run from rest in the spec's spike mode.

    frames yields one (B, ...) input batch per time-step, and there is one
    prediction per sample: the class with the most output spikes, ties
    going to the lowest index. The loss, 0 without targets, is the
    instantaneous loss summed over steps and the batch, computed once per
    block of K steps' output rows (K from _steps_that_fit on one step's
    rows, so within a fifth of numerics.COLUMN_BUDGET) and once on the
    rows left at the window's end; without targets nothing is stacked.
    A window with no frames, or a first frame without a batch axis,
    raises ShapeError.
    """
    if targets is not None:
        targets = validate_one_hot(targets, spec.num_classes)
    states = counts = block = None
    total_loss, steps = 0.0, 0
    for frame in frames:
        if states is None:  # the first frame gives the batch
            if np.ndim(frame) == 0:
                raise ShapeError("an input frame must be a (B, ...) batch, got a scalar")
            states = reset_network(spec, len(frame))
            counts = np.zeros((len(frame), spec.num_classes))
            if targets is not None:
                if len(targets) != len(frame):
                    raise TargetError(f"{len(targets)} targets do not match a batch of {len(frame)}")
                block = np.empty((_steps_that_fit(spec, counts.nbytes), *counts.shape))
        states, out = forward_timestep(spec, params, states, frame)
        counts += out
        if block is not None:
            block[steps] = out
            steps += 1
            if steps == len(block):
                total_loss += loss_value(block, targets, loss)
                steps = 0
    if states is None:
        raise ShapeError("the window has no frames")
    if steps:  # the steps stacked since the last full block
        total_loss += loss_value(block[:steps], targets, loss)
    return np.argmax(counts, axis=-1).tolist(), total_loss


# ---------------------------------------------------------------------------
# parameter updates

THRESHOLD_FLOOR = 0.01


@dataclass
class OptimizerState:
    """The weights' momentum buffers (None for a layer without parameters) and the
    epoch clock; thresholds and leakages take plain truncated steps, without buffers."""

    weight_velocities: list = field(default_factory=list)
    epoch: int = 0

    @classmethod
    def fresh(cls, params) -> "OptimizerState":
        return cls(weight_velocities=[None if p is None else np.zeros_like(p.weights) for p in params])


@dataclass(frozen=True)
class UpdateRates:
    """One epoch's learning rates plus momentum and weight decay."""

    eta_w: float
    eta_theta: float
    eta_alpha: float
    momentum: float = 0.0
    weight_decay: float = 0.0


def apply_updates(
    params: list[LayerParams | None],
    grads: GradAccumulator,
    optimizer: OptimizerState,
    rates: UpdateRates,
) -> list[LayerParams | None]:
    """Apply accumulated gradients to the parameters, in place.

    Gradients are divided by grads.samples; only the families grads.mode
    trains move. Weights take an L2-decayed momentum step (momentum 0 is
    plain SGD). Threshold changes are averaged over the neurons that share
    each threshold (a convolution channel's positions), then truncated
    at THRESHOLD_FLOOR; leakage changes are averaged over the layer's
    neurons and the result clamped to [0, 1]. Neither takes momentum.

    Fails closed: a non-finite gradient of a trained family, checked before
    any parameter moves, or a non-finite updated parameter raises
    NumericError naming the layer and the family (w, theta or alpha).
    """
    spec, mode = grads.spec, grads.mode
    for i in spec.lif_indices:
        _require_finite(grads.dw[i], "w gradient", i)
        if mode.trains_thresholds:
            _require_finite(grads.dtheta[i], "theta gradient", i)
        if mode.trains_leakages:
            _require_finite(grads.dalpha[i], "alpha gradient", i)
    scale = 1.0 / float(grads.samples)
    velocities = optimizer.weight_velocities
    for i in spec.lif_indices:
        layer, p = spec.layers[i], params[i]
        velocities[i] = rates.momentum * velocities[i] + (grads.dw[i] * scale + rates.weight_decay * p.weights)
        p.weights = p.weights - rates.eta_w * velocities[i]

        if mode.trains_thresholds:
            dtheta = grads.dtheta[i] * (scale / (layer.fan_out // layer.num_thresholds))
            p.thresholds = np.maximum(THRESHOLD_FLOOR, p.thresholds - rates.eta_theta * dtheta)

        if mode.trains_leakages:
            dalpha = float(grads.dalpha[i]) / layer.fan_out * scale
            p.leak = float(min(1.0, max(0.0, p.leak - rates.eta_alpha * dalpha)))
        _require_finite(p.weights, "w", i)
        _require_finite(p.thresholds, "theta", i)
        _require_finite(p.leak, "alpha", i)
    return params


def _require_finite(values, what: str, layer: int) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite {what} at layer {layer}")


# ---------------------------------------------------------------------------
# memory held by a learn call

def learning_bytes(spec: NetworkSpec, batch: int, mode: SynergyMode) -> int:
    """Bytes a learn_batch call on a batch of B samples holds for its whole window: the output counts
    and what learn_batch's own constructors build, the network states, the WindowStack (live traces,
    stacked rows, their targets, the error scratch) and the accumulator. Each distinct buffer counts
    once, at its real size: a K = 1 block that is its live array, the overlapping error views, an
    untrained family's 8-byte zero view. No window argument: the rule holds the same for any length."""
    states = reset_network(spec, batch)
    stack = WindowStack(spec, mode, states, np.zeros((batch, spec.num_classes)))
    output_counts = np.zeros((batch, spec.num_classes))
    held = [output_counts, [vars(state) for state in states], vars(stack), vars(GradAccumulator.zeros(spec, mode))]
    buffers = {}
    while held:
        item = held.pop()
        if isinstance(item, dict | list | tuple):
            held.extend(item.values() if isinstance(item, dict) else item)
        elif isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            buffers[id(item)] = item
    return sum(buffer.nbytes for buffer in buffers.values())
