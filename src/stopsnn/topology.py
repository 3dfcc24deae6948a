"""Network architecture description, parsing, and the forward sweep.

An architecture is an ordered list of layers; convolution and dense layers
carry neuron dynamics and learnable parameters, pooling and flatten layers
pass values through unchanged. The string grammar is dash-separated
tokens: "<n>C<k>" is a convolution with n output channels and a k-by-k
kernel (stride 1, padding k//2), "P<w>" is average pooling with window w,
and a bare "<n>" is a dense layer of n neurons (a flatten is inserted
implicitly before the first dense layer). The last layer must be dense
with one neuron per class.

Activity may carry a leading batch axis: the forward sweep advances a
whole (B, ...) batch of samples per time-step, and an array without one
is a single sample.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
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

    @property
    def is_lif(self) -> bool:
        return self.kind in (LayerKind.DENSE, LayerKind.CONV)

    @property
    def fan_in(self) -> int:
        return int(np.prod(self.in_shape))

    @property
    def fan_out(self) -> int:
        return int(np.prod(self.out_shape))

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


def conv_layer(in_shape: tuple[int, int, int], channels: int, kernel: int, stride: int = 1, padding: int = 0) -> LayerSpec:
    cin, h, w = in_shape
    h_out = numerics._conv_out_len(h, kernel, stride, padding)
    w_out = numerics._conv_out_len(w, kernel, stride, padding)
    return LayerSpec(
        LayerKind.CONV, (cin, h, w), (channels, h_out, w_out),
        kernel=kernel, stride=stride, padding=padding,
    )


def avgpool_layer(in_shape: tuple[int, int, int], window: int) -> LayerSpec:
    c, h, w = in_shape
    if h % window != 0 or w % window != 0:
        raise ShapeError(f"pool window {window} does not divide {h}x{w}")
    return LayerSpec(LayerKind.AVGPOOL, (c, h, w), (c, h // window, w // window), window=window)


def flatten_layer(in_shape: tuple[int, ...]) -> LayerSpec:
    return LayerSpec(LayerKind.FLATTEN, in_shape, (int(np.prod(in_shape)),))


@dataclass(frozen=True)
class NetworkSpec:
    """Static architecture plus simulation-wide settings."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    num_classes: int
    time_steps: int = 6
    surrogate: SurrogateKind = SurrogateKind.EXP_ABS

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
        if int(np.prod(prev)) != self.num_classes:
            raise ShapeError(f"final layer width {prev} does not match class count {self.num_classes}")

    @property
    def lif_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.is_lif]


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
    tokens = [t for t in arch.strip().split("-")]
    if not arch.strip() or not tokens:
        raise ParseError("empty architecture string")
    layers: list[LayerSpec] = []
    shape = input_shape
    for pos, token in enumerate(tokens):
        if m := _CONV_TOKEN.match(token):
            channels, kernel = int(m.group(1)), int(m.group(2))
            if channels < 1 or kernel < 1:
                raise ParseError("conv sizes must be positive", token, pos)
            if len(shape) != 3:
                raise ParseError("conv layer needs a (C,H,W) input", token, pos)
            try:
                layer = conv_layer(shape, channels, kernel, stride=1, padding=kernel // 2)
            except ShapeError as exc:
                raise ParseError(str(exc), token, pos) from exc
        elif m := _POOL_TOKEN.match(token):
            window = int(m.group(1))
            if window < 1:
                raise ParseError("pool window must be positive", token, pos)
            if len(shape) != 3:
                raise ParseError("pool layer needs a (C,H,W) input", token, pos)
            try:
                layer = avgpool_layer(shape, window)
            except ShapeError as exc:
                raise ParseError(str(exc), token, pos) from exc
        elif m := _DENSE_TOKEN.match(token):
            width = int(m.group(1))
            if width < 1:
                raise ParseError("dense width must be positive", token, pos)
            if len(shape) != 1:
                layers.append(flatten_layer(shape))
                shape = layers[-1].out_shape
            layer = dense_layer(shape[0], width)
        else:
            raise ParseError("unknown token", token, pos)
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
        fan_in = int(np.prod(shape[1:]))
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
    """View of the threshold array broadcastable over the layer's neuron map."""
    if layer.kind is LayerKind.CONV:
        return thresholds[:, None, None]
    return thresholds


def batch_shape(batch: int | None, shape: tuple[int, ...]) -> tuple[int, ...]:
    """shape with a leading batch axis, or unchanged for a single sample (batch None)."""
    return shape if batch is None else (batch, *shape)


def synaptic_input(layer: LayerSpec, params: LayerParams, presyn: Tensor) -> Tensor:
    """Weighted drive a layer receives from its presynaptic activity."""
    if layer.kind is LayerKind.DENSE:
        # samples are the columns of presyn.T, so one GEMM drives the whole batch
        return numerics.matmul(params.weights, presyn.T).T
    return numerics.conv2d(presyn, params.weights, stride=layer.stride, padding=layer.padding)


def _lead(value: Tensor, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The batch axes of value in front of a per-sample shape."""
    return value.shape[: value.ndim - len(shape)]


def passthrough(layer: LayerSpec, value: Tensor) -> Tensor:
    if layer.kind is LayerKind.AVGPOOL:
        return numerics.avgpool2d(value, layer.window)
    if layer.kind is LayerKind.FLATTEN:
        return np.ascontiguousarray(value).reshape(_lead(value, layer.in_shape) + layer.out_shape)
    raise ShapeError(f"layer kind {layer.kind} has no pass-through semantics")


def passthrough_adjoint(layer: LayerSpec, delta: Tensor) -> Tensor:
    if layer.kind is LayerKind.AVGPOOL:
        return numerics.avgpool2d_adjoint(delta, layer.window)
    if layer.kind is LayerKind.FLATTEN:
        delta = np.asarray(delta)
        return delta.reshape(_lead(delta, layer.out_shape) + layer.in_shape)
    raise ShapeError(f"layer kind {layer.kind} has no pass-through semantics")


def reset_network(spec: NetworkSpec, batch: int | None = None) -> list[LifState]:
    """Zeroed dynamic state for every layer, for a single sample or a batch."""
    states = []
    for layer in spec.layers:
        shape = batch_shape(batch, layer.out_shape)
        potentials = np.zeros(shape) if layer.is_lif else None
        states.append(LifState(potentials=potentials, spikes=np.zeros(shape)))
    return states


def forward_timestep(
    spec: NetworkSpec,
    params: list[LayerParams | None],
    states: list[LifState],
    input_frame: Tensor,
    mode: SpikeMode = SpikeMode.HARD,
) -> tuple[list[LifState], Tensor]:
    """Advance every layer one time-step, bottom-up.

    Neuron layers integrate their synaptic input and fire; pooling and
    flatten layers forward their input unchanged. The frame is one sample
    of spec.input_shape or a (B, ...) batch matching the states. Returns
    the new state list and the output layer's spikes.
    """
    input_frame = np.asarray(input_frame, dtype=np.float64)
    lead = input_frame.ndim - len(spec.input_shape)
    if lead not in (0, 1) or input_frame.shape[lead:] != spec.input_shape:
        raise ShapeError(f"input frame {input_frame.shape} does not match {spec.input_shape}")
    new_states: list[LifState] = []
    current = input_frame
    for layer, layer_params, state in zip(spec.layers, params, states):
        if layer.is_lif:
            drive = synaptic_input(layer, layer_params, current)
            theta = broadcast_thresholds(layer, layer_params.thresholds)
            new_state = lif_step(state, drive, theta, layer_params.leak, spec.surrogate, mode)
        else:
            new_state = LifState(potentials=None, spikes=passthrough(layer, current))
        new_states.append(new_state)
        current = new_state.spikes
    return new_states, current
