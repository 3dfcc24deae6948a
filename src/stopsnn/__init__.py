"""Forward-trace training engine for deep feedforward spiking networks.

Neuron errors backpropagate through layers within each time-step while
eligibility traces for weights, firing thresholds, and leakage factors
propagate forward through time; their products accumulate the parameter
updates. The oracle subpackage holds independent reference gradients
(per-scalar brute force, unrolled temporal backprop, finite differences)
that pin the streaming rule at desk scale.
"""
from .config import TrainConfig
from .learning import (
    GradAccumulator,
    LossKind,
    SynergyMode,
    TraceSet,
    apply_updates,
    complexity_estimate,
    learn_batch,
    learn_sample,
)
from .lif import LifState, SpikeMode, SurrogateKind, decode_prediction, encode_direct, lif_step, surrogate_eval
from .topology import (
    InitMode,
    LayerKind,
    LayerParams,
    LayerSpec,
    NetworkSpec,
    forward_timestep,
    init_params,
    parse_architecture,
    reset_network,
)

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "GradAccumulator",
    "LossKind",
    "SynergyMode",
    "TraceSet",
    "apply_updates",
    "complexity_estimate",
    "learn_batch",
    "learn_sample",
    "LifState",
    "SpikeMode",
    "SurrogateKind",
    "decode_prediction",
    "encode_direct",
    "lif_step",
    "surrogate_eval",
    "InitMode",
    "LayerKind",
    "LayerParams",
    "LayerSpec",
    "NetworkSpec",
    "forward_timestep",
    "init_params",
    "parse_architecture",
    "reset_network",
    "__version__",
]
