"""Network architecture description, parsing, and the forward sweep.

An architecture is an ordered list of layers; convolution and dense layers
carry neuron dynamics and learnable parameters, pooling and flatten layers
pass values through unchanged. The string grammar is dash-separated
tokens: "<n>C<k>" is a convolution with n output channels and a k-by-k
kernel (stride 1, padding k//2), "P<w>" is average pooling with window w,
and a bare "<n>" is a dense layer of n neurons (a flatten is inserted
implicitly before the first dense layer). The last layer must be dense
with one neuron per class.

Activity always carries a leading batch axis: the forward sweep advances
a whole (B, ...) batch of samples per time-step, in place, and one sample
is a batch of one.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import numerics
from .errors import ParseError, ShapeError
from .lif import LifState, SpikeMode, SurrogateKind, lif_step
from .numerics import Tensor


class LayerKind(Enum):
    DENSE = "dense"
    CONV = "conv"
    AVGPOOL = "avgpool"
    FLATTEN = "flatten"


class InitMode(Enum):
    FAN_IN_SCALED = "fan_in_scaled"  # Gaussian, sigma = sqrt(2 / fan_in)
    UNIT_GAUSSIAN = "unit_gaussian"  # Gaussian, sigma = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind, chained shapes, and kind-specific geometry.

    Conv layers share one threshold per output channel; dense layers keep
    one per neuron.
    """

    kind: LayerKind
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    window: int = 0
    # read on every layer-step, so set once here rather than derived per read
    is_lif: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_lif", self.kind in (LayerKind.DENSE, LayerKind.CONV))

    @property
    def fan_in(self) -> int:
        return math.prod(self.in_shape)

    @property
    def fan_out(self) -> int:
        return math.prod(self.out_shape)

    @property
    def num_thresholds(self) -> int:
        return self.out_shape[0] if self.is_lif else 0

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """(fan_out, fan_in) for dense, (Cout, Cin, k, k) for conv."""
        if self.kind is LayerKind.CONV:
            return (self.out_shape[0], self.in_shape[0], self.kernel, self.kernel)
        return (self.fan_out, self.fan_in)


def dense_layer(fan_in: int, fan_out: int) -> LayerSpec:
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(f"dense layer needs positive sizes, got {fan_in} -> {fan_out}")
    return LayerSpec(LayerKind.DENSE, (fan_in,), (fan_out,))


@dataclass(frozen=True)
class NetworkSpec:
    """Static architecture plus simulation-wide settings; parse_architecture builds hard-spike networks."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    num_classes: int
    time_steps: int = 6
    surrogate: SurrogateKind = SurrogateKind.EXP_ABS
    spike_mode: SpikeMode = SpikeMode.HARD
    lif_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        if self.time_steps < 1:
            raise ShapeError("need at least one time-step")
        prev = self.input_shape
        for i, layer in enumerate(self.layers):
            if layer.in_shape != prev:
                raise ShapeError(f"layer {i} input shape {layer.in_shape} breaks the chain after {prev}")
            prev = layer.out_shape
        if math.prod(prev) != self.num_classes:
            raise ShapeError(f"final layer width {prev} does not match class count {self.num_classes}")
        object.__setattr__(self, "lif_indices", tuple(i for i, l in enumerate(self.layers) if l.is_lif))


@dataclass
class LayerParams:
    """Learnable state of one neuron layer.

    weights: (fan_out, fan_in) for dense, (Cout, Cin, k, k) for conv.
    thresholds: one per neuron (dense) or per output channel (conv),
    strictly positive. leak: leakage factor in [0, 1], shared layer-wide.
    """

    weights: Tensor
    thresholds: Tensor
    leak: float

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.thresholds.copy(), float(self.leak))


_CONV_TOKEN = re.compile(r"^(\d+)C(\d+)$")
_POOL_TOKEN = re.compile(r"^P(\d+)$")
_DENSE_TOKEN = re.compile(r"^(\d+)$")


def parse_architecture(
    arch: str,
    input_shape,
    num_classes: int,
    time_steps: int = 6,
    surrogate: SurrogateKind = SurrogateKind.EXP_ABS,
) -> NetworkSpec:
    """Build a shape-checked NetworkSpec from an architecture string."""
    if isinstance(input_shape, int):
        input_shape = (input_shape,)
    input_shape = tuple(int(d) for d in input_shape)
    if not arch.strip():
        raise ParseError("empty architecture string")
    tokens = arch.strip().split("-")
    if min(input_shape, default=1) < 1:
        raise ParseError(f"input shape {input_shape} has a dimension below 1", tokens[0], 0)
    layers: list[LayerSpec] = []
    shape = input_shape
    for pos, token in enumerate(tokens):
        try:
            if m := _CONV_TOKEN.match(token):
                channels, kernel = int(m.group(1)), int(m.group(2))
                if channels < 1 or kernel < 1:
                    raise ParseError("conv sizes must be positive", token, pos)
                if len(shape) != 3:
                    raise ParseError("conv layer needs a (C,H,W) input", token, pos)
                out = [numerics._conv_out_len(n, kernel, 1, kernel // 2) for n in shape[1:]]
                layer = LayerSpec(LayerKind.CONV, shape, (channels, *out), kernel=kernel, padding=kernel // 2)
            elif m := _POOL_TOKEN.match(token):
                window = int(m.group(1))
                if window < 1:
                    raise ParseError("pool window must be positive", token, pos)
                if len(shape) != 3:
                    raise ParseError("pool layer needs a (C,H,W) input", token, pos)
                c, h, w = shape
                if h % window != 0 or w % window != 0:
                    raise ParseError(f"pool window {window} does not divide {h}x{w}", token, pos)
                layer = LayerSpec(LayerKind.AVGPOOL, shape, (c, h // window, w // window), window=window)
            elif m := _DENSE_TOKEN.match(token):
                width = int(m.group(1))
                if width < 1:
                    raise ParseError("dense width must be positive", token, pos)
                if len(shape) != 1:
                    layers.append(LayerSpec(LayerKind.FLATTEN, shape, (math.prod(shape),)))
                    shape = layers[-1].out_shape
                layer = dense_layer(shape[0], width)
            else:
                raise ParseError("unknown token", token, pos)
        except ShapeError as exc:
            raise ParseError(str(exc), token, pos) from exc
        layers.append(layer)
        shape = layer.out_shape
    if layers[-1].kind is not LayerKind.DENSE or layers[-1].fan_out != num_classes:
        raise ParseError(
            f"architecture must end with a dense layer of width {num_classes}",
            tokens[-1], len(tokens) - 1,
        )
    return NetworkSpec(
        input_shape=input_shape, layers=tuple(layers), num_classes=num_classes,
        time_steps=time_steps, surrogate=surrogate,
    )


INITIAL_THRESHOLD = 1.0
INITIAL_LEAK = float(math.exp(-1.0))


def init_params(spec: NetworkSpec, seed: int, init_mode: InitMode = InitMode.FAN_IN_SCALED) -> list[LayerParams | None]:
    """Fresh parameters: thresholds 1, leak 1/e, Gaussian weights.

    Returns one entry per layer; pooling/flatten entries are None. Weight
    sigma is sqrt(2/fan_in) by default or 1 in unit-Gaussian mode; draws
    are deterministic in the seed, one child stream per layer.
    """
    streams = np.random.SeedSequence(seed).spawn(len(spec.layers))
    params: list[LayerParams | None] = []
    for layer, stream in zip(spec.layers, streams):
        if not layer.is_lif:
            params.append(None)
            continue
        rng = np.random.default_rng(stream)
        shape = layer.weight_shape
        fan_in = math.prod(shape[1:])
        sigma = 1.0 if init_mode is InitMode.UNIT_GAUSSIAN else math.sqrt(2.0 / fan_in)
        params.append(
            LayerParams(
                weights=rng.normal(0.0, sigma, size=shape),
                thresholds=np.full(layer.num_thresholds, INITIAL_THRESHOLD),
                leak=INITIAL_LEAK,
            )
        )
    return params


def broadcast_thresholds(layer: LayerSpec, thresholds: Tensor) -> Tensor:
    """View of the threshold array with the rank of the layer's (B, ...) neuron maps.

    Its batch axis has length one, so a batch of one meets it shape for shape.
    """
    if layer.kind is LayerKind.CONV:
        return thresholds[None, :, None, None]
    return thresholds[None]


def synaptic_input(layer: LayerSpec, params: LayerParams, presyn: Tensor) -> Tensor:
    """Weighted drive a layer receives from its presynaptic activity.

    A large dense layer may gather its active weight columns first, and a
    convolution may build COO patches: the numerics module docstring
    states both rules.
    """
    if layer.kind is LayerKind.DENSE:
        weights = params.weights
        if weights.nbytes > numerics.GATHER_BYTES:
            active = presyn.any(axis=0)
            if numerics.sparse_enough(active, numerics.GATHER_FACTOR):
                active = np.flatnonzero(active)
                weights, presyn = weights[:, active], presyn[:, active]
        # samples are the columns of presyn.T, so one GEMM drives the whole batch
        return numerics.matmul(weights, presyn.T).T
    return numerics.conv2d(presyn, params.weights, stride=layer.stride, padding=layer.padding)


def passthrough(layer: LayerSpec, value: Tensor, out: Tensor | None = None) -> Tensor:
    """A pooling layer's output, written into out if given, or a flatten layer's view of its input."""
    if layer.kind is LayerKind.AVGPOOL:
        return numerics.avgpool2d(value, layer.window, out)
    if layer.kind is LayerKind.FLATTEN:
        return np.ascontiguousarray(value).reshape(len(value), *layer.out_shape)
    raise ShapeError(f"layer kind {layer.kind} has no pass-through semantics")


def passthrough_adjoint(layer: LayerSpec, delta: Tensor) -> Tensor:
    if layer.kind is LayerKind.AVGPOOL:
        return numerics.avgpool2d_adjoint(delta, layer.window)
    if layer.kind is LayerKind.FLATTEN:
        return delta.reshape(len(delta), *layer.in_shape)
    raise ShapeError(f"layer kind {layer.kind} has no pass-through semantics")


def reset_network(spec: NetworkSpec, batch: int) -> list[LifState]:
    """Zeroed dynamic state for every layer of a batch; a flatten layer's spikes are None until a step."""
    states = []
    for layer in spec.layers:
        shape = (batch, *layer.out_shape)
        potentials = np.zeros(shape) if layer.is_lif else None
        spikes = None if layer.kind is LayerKind.FLATTEN else np.zeros(shape)
        states.append(LifState(potentials=potentials, spikes=spikes))
    return states


def forward_timestep(
    spec: NetworkSpec,
    params: list[LayerParams | None],
    states: list[LifState],
    input_frame: Tensor,
) -> tuple[list[LifState], Tensor]:
    """Advance every layer one time-step, bottom-up, in place, in the spec's spike mode.

    Neuron layers integrate their synaptic input and fire into the arrays
    reset_network allocated, and pooling layers pool into theirs; a
    flatten layer's spikes are a view of its input. The frame is a
    (B, ...) batch of spec.input_shape inputs, B the states' batch.
    Returns the given state list and the output layer's spikes, which the
    next step overwrites.
    """
    input_frame = np.asarray(input_frame, dtype=np.float64)
    if input_frame.shape[1:] != spec.input_shape:
        if input_frame.shape == spec.input_shape:
            raise ShapeError(f"input frame {input_frame.shape} has no (B, ...) batch axis")
        raise ShapeError(f"input frame {input_frame.shape} does not match (B, {', '.join(map(str, spec.input_shape))})")
    current = input_frame
    for layer, layer_params, state in zip(spec.layers, params, states):
        if layer.is_lif:
            # the drive lives only for this call, not while the next layer computes its own
            theta = broadcast_thresholds(layer, layer_params.thresholds)
            lif_step(state, synaptic_input(layer, layer_params, current), theta, layer_params.leak, spec.surrogate,
                     spec.spike_mode)
        else:
            state.spikes = passthrough(layer, current, state.spikes)
        current = state.spikes
    return states, current
