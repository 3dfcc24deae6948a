"""Correctness checks the benchmark makes on every run.

Each check returns None when it passes and a one-line reason when it
fails; `Ops` counts it as one attempted operation either way.
"""
from __future__ import annotations

import numpy as np

from stopsnn import numerics, trainer
from stopsnn.checks import OUTPUT_LAYER_TOL
from stopsnn.learning import learn_sample
from stopsnn.oracle import compare_gradients, unrolled_stbp_gradients
from stopsnn.topology import LayerKind

ADJOINT_TOL = 1e-10
# the output-layer comparison needs a network whose hidden layers fire; freshly
# initialised workload nets are nearly silent, which would make it vacuous
ORACLE_WEIGHT_GAIN = 3.0


class Ops:
    """Attempted and failed operation counts, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {problem}")

    def call(self, name: str, fn, *args, **kwargs):
        """Run one program call as an op; an exception counts as failed and gives None."""
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # every program error is a failed op, not a crash
            self.record(name, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, None)
        return out

    def check(self, name: str, fn, *args) -> None:
        """Run one check as an op: it fails if it returns a reason or raises."""
        try:
            problem = fn(*args)
        except Exception as exc:  # a check that cannot complete has failed
            problem = f"{type(exc).__name__}: {exc}"
        self.record(name, problem)


def _all_finite(arrays) -> bool:
    return all(a is None or bool(np.all(np.isfinite(a))) for a in arrays)


def finite_learn(acc, audit: dict) -> str | None:
    if not np.isfinite(audit["loss"]):
        return f"non-finite loss {audit['loss']}"
    if not _all_finite(acc.dw + acc.dtheta + acc.dalpha):
        return "non-finite gradient"
    return None


def finite_train(result) -> str | None:
    if not _all_finite([p.weights for p in result.params if p is not None]
                       + [p.thresholds for p in result.params if p is not None]
                       + [p.leak for p in result.params if p is not None]):
        return "non-finite parameter after training"
    for row in result.metrics:
        if not all(np.isfinite(row[k]) for k in ("train_loss", "train_acc", "test_acc")):
            return f"non-finite metrics at epoch {row['epoch']}"
    return None


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_round_trip(result) -> str | None:
    """The checkpoint train wrote last loads back bit-identical to the returned state."""
    config = result.config
    params, optimizer, epoch, _ = trainer.checkpoint_load(config.checkpoint_path, config.model_digest())
    if epoch != result.metrics[-1]["epoch"]:
        return f"checkpoint epoch {epoch} is not the last trained epoch"
    for i, (mine, saved) in enumerate(zip(result.params, params)):
        if mine is None or saved is None:
            if mine is not saved:
                return f"layer {i} presence differs"
            continue
        if not (_same_bits(mine.weights, saved.weights) and _same_bits(mine.thresholds, saved.thresholds)
                and _same_bits(mine.leak, saved.leak)):
            return f"layer {i} parameters differ after load"
    for a, b in zip(result.optimizer.weight_velocities, optimizer.weight_velocities):
        if not _same_bits(a, b):
            return "weight velocities differ after load"
    return None


def output_layer_matches_unrolled(spec, params, sample, mode) -> str | None:
    """Streaming output-layer gradient vs the detached-reset unrolled sweep."""
    lively = [None if p is None else p.copy() for p in params]
    for p in lively:
        if p is not None:
            p.weights *= ORACLE_WEIGHT_GAIN
    top = spec.lif_indices[-1]
    acc = learn_sample(spec, lively, sample.frames, sample.target, mode=mode)
    ref = unrolled_stbp_gradients(spec, lively, sample.frames, sample.target, mode=mode, loss="ce",
                                  include_illusory=False)
    if not np.any(acc.dw[top]):
        return "output-layer gradient is zero; the comparison would be vacuous"
    report = compare_gradients({"dw": acc.dw[top], "dtheta": acc.dtheta[top]},
                               {"dw": ref.dw[top], "dtheta": ref.dtheta[top]})
    if report.max_rel > OUTPUT_LAYER_TOL:
        return f"output layer deviates from the unrolled oracle: {report}"
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ADJOINT_TOL * max(abs(a), abs(b), 1e-300)


def adjoint_identities(spec, layer_index: int, rng) -> str | None:
    """Dot-product identities of the conv/pool kernels at one layer's exact shapes."""
    layer = spec.layers[layer_index]
    x = rng.standard_normal(layer.in_shape)
    d = rng.standard_normal(layer.out_shape)
    if layer.kind is LayerKind.CONV:
        k = rng.standard_normal((layer.out_shape[0], layer.in_shape[0], layer.kernel, layer.kernel))
        s, p = layer.stride, layer.padding
        forward = float(np.vdot(numerics.conv2d(x, k, s, p), d))
        through_input = float(np.vdot(x, numerics.conv2d_adjoint_input(d, k, s, p)))
        through_kernel = float(np.vdot(k, numerics.conv2d_weight_grad(x, d, s, p)))
        if not (_close(forward, through_input) and _close(forward, through_kernel)):
            return f"conv adjoint identity fails at layer {layer_index}: {forward} {through_input} {through_kernel}"
        return None
    forward = float(np.vdot(numerics.avgpool2d(x, layer.window), d))
    back = float(np.vdot(x, numerics.avgpool2d_adjoint(d, layer.window)))
    if not _close(forward, back):
        return f"pool adjoint identity fails at layer {layer_index}: {forward} {back}"
    return None


def single_matches_set(whole, singles: list) -> str | None:
    """Evaluating one sample at a time agrees with evaluating the whole set."""
    if whole is None or not singles or any(s is None for s in singles):
        return "evaluate failed"
    accuracy, mean_loss = whole
    n = len(singles)
    hits = sum(a for a, _ in singles)
    loss = sum(l for _, l in singles) / n
    if hits != round(accuracy * n) or abs(loss - mean_loss) > 1e-12 * max(abs(mean_loss), 1.0):
        return f"one-sample evaluation ({hits}/{n}, {loss}) disagrees with the set ({accuracy}, {mean_loss})"
    return None
