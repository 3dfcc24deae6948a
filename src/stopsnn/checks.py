"""Randomized gradient-check suites over the reference oracles.

Each check builds small random networks, runs the streaming rule against
an independent reference path, and reports the worst hybrid relative
deviation. The command-line `gradcheck` subcommand and the acceptance
tests both drive these routines.

Finite-difference checks use the cross-entropy loss and inputs bounded
away from zero so every gradient coordinate stays well above the numeric
noise floor of a central difference at step 1e-5.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .learning import GradAccumulator, LossKind, SynergyMode, learn_sample
from .lif import SpikeMode, SurrogateKind
from .oracle import (
    compare_gradients,
    finite_diff_all,
    naive_stop_gradients,
    unrolled_stbp_gradients,
)
from .topology import LayerKind, NetworkSpec, init_params, parse_architecture

STREAMING_VS_NAIVE_TOL = 1e-9
OUTPUT_LAYER_TOL = 1e-9
FINITE_DIFF_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    trials: int
    worst_rel: float
    tolerance: float
    worst_case: str = ""

    @property
    def ok(self) -> bool:
        return self.worst_rel <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.name}: worst rel {self.worst_rel:.3e} "
            f"(tolerance {self.tolerance:.0e}, {self.trials} trials)"
        )


def random_network(rng: np.random.Generator, max_width: int = 16,
                   time_steps: int | None = None) -> tuple[NetworkSpec, list]:
    """A small random mixed dense/conv architecture with lively dynamics, hard spikes."""
    tokens = []
    if rng.random() < 0.5:
        cin = int(rng.integers(1, 3))
        side = int(rng.choice([4, 6]))
        input_shape = (cin, side, side)
        for _ in range(int(rng.integers(1, 3))):
            tokens.append(f"{int(rng.integers(2, 4))}C3")
            if side % 2 == 0 and rng.random() < 0.5:
                tokens.append("P2")
                side //= 2
    else:
        input_shape = (int(rng.integers(2, max_width + 1)),)
        tokens += [str(int(rng.integers(2, max_width + 1))) for _ in range(int(rng.integers(1, 4)))]
    classes = int(rng.integers(2, 5))
    tokens.append(str(classes))
    spec = parse_architecture("-".join(tokens), input_shape, classes, time_steps=time_steps or int(rng.integers(1, 7)),
                              surrogate=rng.choice(list(SurrogateKind)))
    params = init_params(spec, seed=int(rng.integers(0, 2**31)))
    for p in params:
        if p is not None:
            p.weights *= float(rng.uniform(1.0, 2.5))
            p.leak = float(rng.uniform(0.2, 0.9))
    return spec, params


def random_sample(rng: np.random.Generator, spec: NetworkSpec, low: float = 0.1):
    frames = [rng.uniform(low, 1.0, size=spec.input_shape) for _ in range(spec.time_steps)]
    target = np.zeros(spec.num_classes)
    target[int(rng.integers(spec.num_classes))] = 1.0
    return frames, target


def _battery(name: str, tolerance: float, trials: int, seed: int, trial_fn) -> CheckResult:
    """Run trial_fn(rng, trial) -> (report, label) for each trial from one
    seeded rng and keep the worst relative deviation; label tags the case."""
    rng = np.random.default_rng(seed)
    worst, worst_case = 0.0, ""
    for trial in range(trials):
        report, label = trial_fn(rng, trial)
        if report.max_rel > worst:
            worst, worst_case = report.max_rel, f"trial {trial}{label}: {report}"
    return CheckResult(name, trials, worst, tolerance, worst_case)


def check_streaming_vs_naive(trials: int = 100, seed: int = 0) -> CheckResult:
    """Streaming rule against the per-scalar brute-force restatement, hard spikes."""
    modes = list(SynergyMode)

    def trial_fn(rng, trial):
        spec, params = random_network(rng)
        frames, target = random_sample(rng, spec, low=0.0)
        mode = modes[trial % len(modes)]
        loss = LossKind.CE if trial % 2 == 0 else LossKind.MSE
        acc = learn_sample(spec, params, frames, target, mode=mode, loss=loss)
        ref = naive_stop_gradients(spec, params, frames, target, mode, loss=loss)
        report = compare_gradients(
            {"dw": acc.dw, "dtheta": acc.dtheta, "dalpha": acc.dalpha},
            {"dw": ref.dw, "dtheta": ref.dtheta, "dalpha": ref.dalpha},
        )
        return report, f" ({mode.value}, {loss.value})"

    return _battery("streaming vs naive", STREAMING_VS_NAIVE_TOL, trials, seed, trial_fn)


def _fold_to_parameter_shapes(spec: NetworkSpec, acc: GradAccumulator):
    """Sum per-neuron accumulations onto the shared parameter tensors."""
    dtheta, dleak = [], []
    for i, layer in enumerate(spec.layers):
        if not layer.is_lif:
            dtheta.append(None)
            dleak.append(None)
            continue
        if layer.kind is LayerKind.CONV:
            dtheta.append(acc.dtheta[i].sum(axis=(1, 2)))
        else:
            dtheta.append(acc.dtheta[i].copy())
        dleak.append(float(acc.dalpha[i].sum()))
    return dtheta, dleak


def check_t1_finite_diff(trials: int = 20, seed: int = 1) -> CheckResult:
    """Soft mode, single time-step: streaming gradients against central differences."""

    def trial_fn(rng, trial):
        spec, params = random_network(rng, max_width=8, time_steps=1)
        spec = replace(spec, spike_mode=SpikeMode.SOFT)
        frames, target = random_sample(rng, spec)
        acc = learn_sample(spec, params, frames, target, mode=SynergyMode.WTL, loss=LossKind.CE)
        dtheta, dleak = _fold_to_parameter_shapes(spec, acc)
        numeric = finite_diff_all(spec, params, frames, target, loss=LossKind.CE)
        report = compare_gradients(
            {"dw": acc.dw, "dtheta": dtheta, "dleak": dleak},
            {"dw": numeric.dw, "dtheta": numeric.dtheta, "dleak": numeric.dleak},
        )
        return report, ""

    return _battery("soft T=1 vs finite differences", FINITE_DIFF_TOL, trials, seed, trial_fn)


def check_output_layer_detached(trials: int = 20, seed: int = 2) -> CheckResult:
    """Soft mode, windows of 1 to 6 steps: output-layer weight/threshold gradients
    against the detached-reset unrolled reverse sweep."""

    def trial_fn(rng, trial):
        steps = int(rng.integers(1, 7))
        spec, params = random_network(rng, max_width=8, time_steps=steps)
        spec = replace(spec, spike_mode=SpikeMode.SOFT)
        frames, target = random_sample(rng, spec)
        acc = learn_sample(spec, params, frames, target, mode=SynergyMode.WTL, loss=LossKind.CE)
        ref = unrolled_stbp_gradients(spec, params, frames, target, loss=LossKind.CE, include_illusory=False)
        top = spec.lif_indices[-1]
        report = compare_gradients(
            {"dw": acc.dw[top], "dtheta": acc.dtheta[top]},
            {"dw": ref.dw[top], "dtheta": ref.dtheta[top]},
        )
        return report, f" (T={steps})"

    return _battery("output layer vs detached-reset reverse mode", OUTPUT_LAYER_TOL, trials, seed, trial_fn)


def check_stbp_vs_finite_diff(trials: int = 10, seed: int = 3) -> CheckResult:
    """Unrolled sweep with reset feedback, soft mode, windows of 1 to 5 steps, against central differences."""

    def trial_fn(rng, trial):
        steps = int(rng.integers(1, 6))
        spec, params = random_network(rng, max_width=8, time_steps=steps)
        spec = replace(spec, spike_mode=SpikeMode.SOFT)
        frames, target = random_sample(rng, spec)
        ref = unrolled_stbp_gradients(spec, params, frames, target, loss=LossKind.CE, include_illusory=True)
        numeric = finite_diff_all(spec, params, frames, target, loss=LossKind.CE)
        report = compare_gradients(
            {"dw": ref.dw, "dtheta": ref.dtheta, "dleak": ref.dleak},
            {"dw": numeric.dw, "dtheta": numeric.dtheta, "dleak": numeric.dleak},
        )
        return report, f" (T={steps})"

    return _battery("unrolled temporal backprop vs finite differences", FINITE_DIFF_TOL, trials, seed, trial_fn)


def run_all(trials: int | None = None, seed: int = 0) -> list[CheckResult]:
    """The full check battery: suite k runs at seed + k with `trials` trials
    (the same count for every suite), or with its own default count when
    trials is None. Zero trials gives an empty report; a negative count or
    seed is a ConfigError."""
    if trials is not None and trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if trials == 0:
        return []
    counts = {} if trials is None else {"trials": trials}
    suites = (check_streaming_vs_naive, check_t1_finite_diff, check_output_layer_detached, check_stbp_vs_finite_diff)
    return [suite(seed=seed + k, **counts) for k, suite in enumerate(suites)]
