"""Spans around calls into the program's modules, for the traced run only.

`Tracer.install()` replaces each traced function in the namespace that
calls it (`from .x import f` binds `f` in the caller, so the binding there
is the one to replace) and `Tracer.remove()` puts every original back.
Spans (name, start, end, parent, network-layer index, scope) stay in
memory; `derive()` turns them into the per-layer metrics and `dump()`
writes them out when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
import types
from collections import defaultdict

import numpy as np

from stopsnn import datasets, learning, numerics, topology, trainer
from workloads import WORKLOADS, network

NAME, START, END, PARENT, LAYER, SCOPE = range(6)

PHASES = ("drive", "lif", "traces", "error", "adjoint", "grad")
# the phase x layer table has a row for every layer index some workload's network has
LAYERS = range(max(len(network(w).layers) for w in WORKLOADS.values()))
PHASE_OF = {
    "topology.synaptic_input": "drive",
    "topology.passthrough": "drive",
    "lif.lif_step": "lif",
    "learning.update_weight_traces": "traces",
    "learning.update_threshold_traces": "traces",
    "learning.update_leakage_traces": "traces",
    "learning.output_error": "error",
    "learning.hidden_error": "error",
    "learning.weight_adjoint": "adjoint",
    "topology.passthrough_adjoint": "adjoint",
    "learning.accumulate_gradients": "grad",
}

COUNTED_KERNELS = ("numerics.conv2d", "numerics.conv2d_adjoint_input", "numerics.conv2d_weight_grad",
                   "numerics.matmul", "learning.outer")

_CONV = "learn_ms_*, train_samples_per_s on conv-image; no change on dense-teacher, event-long"
KERNEL_MOVES = {
    "conv2d": _CONV + "; also infer_* on conv-image",
    "conv2d_adjoint_input": _CONV,
    "conv2d_weight_grad": _CONV,
    "matmul": "learn_ms_*, infer_* on dense-teacher, event-long",
    "avgpool2d": _CONV,
    "avgpool2d_adjoint": _CONV,
}


def _moves() -> dict[str, str]:
    """Per-layer metric name -> the end-to-end metric and workload it should move.

    Units and directions are in BENCHMARK.json.
    """
    rows = []
    for k, moves in KERNEL_MOVES.items():
        rows += [(f"numerics.{k}.ms", moves), (f"numerics.{k}.calls", moves)]
    rows += [("learning.outer.ms", "learn_ms_*, train_samples_per_s on conv-image"),
             ("learning.outer.calls", "learn_ms_* on all workloads")]
    for k in COUNTED_KERNELS:
        rows += [(f"{k}.gflops", f"throughput of {k}; computed from shapes"),
                 (f"{k}.mb", f"bytes {k} touches per sample; computed from shapes")]
    rows += [
        ("numerics.dgemm_peak_gflops", "reference: single-thread dgemm peak, same run"),
        ("lif.lif_step.ms", "learn_ms_*, infer_ms_* on dense-teacher (largest share)"),
        ("lif.lif_step.calls", "learn_ms_*, infer_ms_* on dense-teacher"),
        ("lif.firing_derivative.ms", "learn_ms_* on dense-teacher"),
        ("lif.spike_rate", "none; activity of the learn phase"),
        ("topology.forward_timestep.ms", "infer_* on all workloads"),
        ("topology.forward_timestep.self_ms", "infer_* on all workloads"),
        ("topology.synaptic_input.ms", "infer_* on all workloads"),
        ("topology.passthrough.ms", "infer_* on conv-image"),
        ("topology.passthrough_adjoint.ms", "learn_ms_* on conv-image"),
        ("learning.learn_sample.self_ms", "learn_ms_* on dense-teacher"),
        ("learning.traces.ms", "learn_ms_* on dense-teacher; bypassed on event-long"),
        ("learning.errors.ms", "learn_ms_* on dense-teacher"),
        ("learning.weight_adjoint.ms", "learn_ms_* on conv-image, event-long"),
        ("learning.accumulate_gradients.ms", "learn_ms_* on event-long, conv-image"),
        ("learning.accumulate_gradients.self_ms", "learn_ms_* on event-long, conv-image"),
        ("learning.loss_value.ms", "learn_ms_*, infer_ms_* on dense-teacher"),
        ("learning.merge.ms", "train_samples_per_s only"),
        ("learning.apply_updates.ms_per_batch", "train_samples_per_s only"),
        ("learning.peak_growth", "learn_peak_kib on event-long"),
        ("oracle.unrolled.peak_growth", "reference for learn_peak_kib on event-long"),
        ("oracle.unrolled.peak_kib", "reference for learn_peak_kib on event-long"),
        ("oracle.unrolled.ms", "reference; the oracle is not a user path"),
        ("datasets.load_idx.ms", "setup_s on conv-image, dense-teacher"),
        ("datasets.dataset_from_images.ms", "setup_s on conv-image, dense-teacher"),
        ("datasets.load_event_stream.ms", "setup_s on event-long"),
        ("datasets.slice_events.ms", "setup_s on event-long"),
        ("trainer.evaluate.ms", "infer_samples_per_s on all workloads"),
        ("trainer.checkpoint_save.ms_per_call", "train_samples_per_s on conv-image"),
        ("trainer.checkpoint_load.ms_per_call", "none; resume path"),
        ("trainer.checkpoint.bytes", "train_samples_per_s on conv-image"),
        ("trainer.train.self_ms", "train_samples_per_s on all workloads"),
    ]
    for phase in PHASES:
        for i in LAYERS:
            rows.append((f"phase.{phase}.L{i}.ms", "learn_ms_* on the workload with layer i"))
    rows.append(("trace_overhead_pct", "none; cost of tracing itself"))
    return dict(rows)


MOVES = _moves()


# ---------------------------------------------------------------------------
# computed work of the counted kernels, from array shapes

def _nbytes(*arrays) -> int:
    return sum(np.asarray(a).nbytes for a in arrays)


def _conv_work(args, kwargs, out):
    x, k = np.asarray(args[0]), np.asarray(args[1])
    cout, cin, kh, kw = k.shape
    return 2 * cout * cin * kh * kw * out.shape[1] * out.shape[2], _nbytes(x, k, out)


def _conv_adjoint_work(args, kwargs, out):
    d, k = np.asarray(args[0]), np.asarray(args[1])
    cout, cin, kh, kw = k.shape
    gemm = 2 * cout * cin * kh * kw * d.shape[1] * d.shape[2]
    return gemm + cin * kh * kw * d.shape[1] * d.shape[2], _nbytes(d, k, out)


def _conv_weight_work(args, kwargs, out):
    t, d = np.asarray(args[0]), np.asarray(args[1])
    return 2 * out.size * d.shape[1] * d.shape[2], _nbytes(t, d, out)


def _matmul_work(args, kwargs, out):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    return 2 * a.shape[0] * a.shape[1] * (b.shape[1] if b.ndim == 2 else 1), _nbytes(a, b, out)


def _outer_work(args, kwargs, out):
    return out.size, _nbytes(args[0], args[1], out)


class Tracer:
    """Records nested spans around the program's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scope = "none"
        self.work = defaultdict(lambda: [0, 0])  # (scope, span name) -> [flops, bytes]
        self.spikes = [0.0, 0]  # learn scope: spikes fired, neuron-steps
        self._spec_id = None
        self._layer_of: dict[int, int] = {}
        self._lif_up: list[int] = []
        self._lif_down: list[int] = []
        self._cursor = {"drive": None, "trace": -1, "error": -1}
        self._saved: list = []

    # -- layer attribution -------------------------------------------------

    def _bind(self, spec) -> None:
        if id(spec) != self._spec_id:
            self._spec_id = id(spec)
            self._layer_of = {id(layer): i for i, layer in enumerate(spec.layers)}
            self._lif_up = list(spec.lif_indices)
            self._lif_down = self._lif_up[::-1]

    def _layer_arg(self, args):
        return self._layer_of.get(id(args[0]))

    def _forward(self, args):
        self._bind(args[0])
        self._cursor["trace"] = -1
        return None

    def _drive(self, args):
        self._cursor["drive"] = self._layer_of.get(id(args[0]))
        return self._cursor["drive"]

    def _next_trace(self, args):
        self._cursor["trace"] += 1
        return self._lif_up[self._cursor["trace"]]

    def _same_trace(self, args):
        return self._lif_up[self._cursor["trace"]]

    def _output_error(self, args):
        self._cursor["error"] = 0
        return self._lif_down[0]

    def _hidden_error(self, args):
        self._cursor["error"] += 1
        return self._lif_down[self._cursor["error"]]

    # -- accounting ----------------------------------------------------------

    def _count_work(self, fn):
        def account(name, args, kwargs, out):
            flops, nbytes = fn(args, kwargs, out)
            entry = self.work[(self.scope, name)]
            entry[0] += flops
            entry[1] += nbytes
        return account

    def _count_spikes(self, name, args, kwargs, out):
        if self.scope == "learn":
            self.spikes[0] += float(out.spikes.sum())
            self.spikes[1] += out.spikes.size

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, layer_of=None, account=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            layer = layer_of(args) if layer_of else None
            if layer is None and parent >= 0:
                layer = spans[parent][LAYER]
            record = [name, 0.0, 0.0, parent, layer, self.scope]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if account is not None:
                account(name, args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, replacement) for every traced call site."""
        work = {"conv2d": _conv_work, "conv2d_adjoint_input": _conv_adjoint_work,
                "conv2d_weight_grad": _conv_weight_work, "matmul": _matmul_work}
        rows = [
            # (owner, attribute, span name, layer attribution, accounting)
            (trainer, "load_dataset", "trainer.load_dataset", None, None),
            (trainer, "build_network", "trainer.build_network", None, None),
            (trainer, "init_params", "topology.init_params", None, None),
            (trainer, "train", "trainer.train", None, None),
            (trainer, "evaluate", "trainer.evaluate", None, None),
            (trainer, "checkpoint_save", "trainer.checkpoint_save", None, None),
            (trainer, "checkpoint_load", "trainer.checkpoint_load", None, None),
            (trainer, "learn_sample", "learning.learn_sample", None, None),
            (trainer, "apply_updates", "learning.apply_updates", None, None),
            (trainer, "forward_timestep", "topology.forward_timestep", self._forward, None),
            (trainer, "loss_value", "learning.loss_value", None, None),
            (learning, "learn_sample", "learning.learn_sample", None, None),
            (learning.GradAccumulator, "merge", "learning.merge", None, None),
            (learning, "forward_timestep", "topology.forward_timestep", self._forward, None),
            (learning, "loss_value", "learning.loss_value", None, None),
            (learning, "firing_derivative", "lif.firing_derivative", None, None),
            (learning, "passthrough_adjoint", "topology.passthrough_adjoint", self._layer_arg, None),
            (learning, "update_weight_traces", "learning.update_weight_traces", self._next_trace, None),
            (learning, "update_threshold_traces", "learning.update_threshold_traces", self._same_trace, None),
            (learning, "update_leakage_traces", "learning.update_leakage_traces", self._same_trace, None),
            (learning, "output_error", "learning.output_error", self._output_error, None),
            (learning, "hidden_error", "learning.hidden_error", self._hidden_error, None),
            (learning, "weight_adjoint", "learning.weight_adjoint", self._layer_arg, None),
            (learning, "accumulate_gradients", "learning.accumulate_gradients", lambda args: args[1], None),
            (topology, "lif_step", "lif.lif_step", lambda args: self._cursor["drive"], self._count_spikes),
            (topology, "synaptic_input", "topology.synaptic_input", self._drive, None),
            (topology, "passthrough", "topology.passthrough", self._layer_arg, None),
            (datasets, "load_idx", "datasets.load_idx", None, None),
            (datasets, "dataset_from_images", "datasets.dataset_from_images", None, None),
            (datasets, "load_event_stream", "datasets.load_event_stream", None, None),
            (datasets, "slice_events", "datasets.slice_events", None, None),
        ]
        rows += [(numerics, k, f"numerics.{k}", None, self._count_work(work[k]) if k in work else None)
                 for k in KERNEL_MOVES]
        out = [(owner, attr, self._wrap(name, getattr(owner, attr), layer_of, account))
               for owner, attr, name, layer_of, account in rows]
        # learning calls np.outer through its module-level `np`; give it a copy of numpy whose
        # `outer` is traced, so plain attribute lookups on `np` cost nothing extra
        numpy_traced = types.ModuleType("numpy")
        numpy_traced.__dict__.update(np.__dict__)
        numpy_traced.outer = self._wrap("learning.outer", np.outer, account=self._count_work(_outer_work))
        out.append((learning, "np", numpy_traced))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in self._targets():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self, scope: str):
        """Per span name in one scope: (total seconds, self seconds, calls)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        by_phase = defaultdict(float)
        for idx, s in enumerate(self.spans):
            if s[SCOPE] != scope:
                continue
            dur = s[END] - s[START]
            total[s[NAME]] += dur
            self_time[s[NAME]] += dur - child[idx]
            calls[s[NAME]] += 1
            phase = PHASE_OF.get(s[NAME])
            if phase is not None and s[LAYER] is not None:
                by_phase[(phase, s[LAYER])] += dur
        return total, self_time, calls, by_phase

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, layer, scope in self.spans:
                f.write(json.dumps([name, start, end, parent, layer, scope]) + "\n")


def derive(tracer: Tracer, counts: dict, extra: dict) -> dict:
    """Per-layer metrics from the spans; counts gives each scope's denominator.

    counts: learn_samples, infer_samples, setup_samples, train_samples,
    train_batches, checkpoint_saves, checkpoint_loads. Times are ms per
    sample of the scope unless the name says otherwise.
    """
    ms = 1e3
    lt, ls, lc, phase = tracer.totals("learn")
    n = counts["learn_samples"]
    m = {}
    for k in KERNEL_MOVES:
        m[f"numerics.{k}.ms"] = lt[f"numerics.{k}"] * ms / n
        m[f"numerics.{k}.calls"] = lc[f"numerics.{k}"] / n
    m["learning.outer.ms"] = lt["learning.outer"] * ms / n
    m["learning.outer.calls"] = lc["learning.outer"] / n
    for k in COUNTED_KERNELS:
        flops, nbytes = tracer.work[("learn", k)]
        m[f"{k}.gflops"] = flops / lt[k] / 1e9 if lt[k] else 0.0
        m[f"{k}.mb"] = nbytes / n / 1e6
    m["lif.lif_step.ms"] = lt["lif.lif_step"] * ms / n
    m["lif.lif_step.calls"] = lc["lif.lif_step"] / n
    m["lif.firing_derivative.ms"] = lt["lif.firing_derivative"] * ms / n
    m["lif.spike_rate"] = tracer.spikes[0] / tracer.spikes[1] if tracer.spikes[1] else 0.0
    m["topology.forward_timestep.ms"] = lt["topology.forward_timestep"] * ms / n
    m["topology.forward_timestep.self_ms"] = ls["topology.forward_timestep"] * ms / n
    m["topology.synaptic_input.ms"] = lt["topology.synaptic_input"] * ms / n
    m["topology.passthrough.ms"] = lt["topology.passthrough"] * ms / n
    m["topology.passthrough_adjoint.ms"] = lt["topology.passthrough_adjoint"] * ms / n
    m["learning.learn_sample.self_ms"] = ls["learning.learn_sample"] * ms / n
    m["learning.traces.ms"] = sum(
        lt[f"learning.update_{k}_traces"] for k in ("weight", "threshold", "leakage")) * ms / n
    m["learning.errors.ms"] = (lt["learning.output_error"] + lt["learning.hidden_error"]) * ms / n
    m["learning.weight_adjoint.ms"] = lt["learning.weight_adjoint"] * ms / n
    m["learning.accumulate_gradients.ms"] = lt["learning.accumulate_gradients"] * ms / n
    m["learning.accumulate_gradients.self_ms"] = ls["learning.accumulate_gradients"] * ms / n
    m["learning.loss_value.ms"] = lt["learning.loss_value"] * ms / n
    for phase_name in PHASES:
        for i in LAYERS:
            m[f"phase.{phase_name}.L{i}.ms"] = phase[(phase_name, i)] * ms / n

    tt, ts, tc, _ = tracer.totals("train")
    m["learning.merge.ms"] = tt["learning.merge"] * ms / counts["train_samples"]
    m["learning.apply_updates.ms_per_batch"] = tt["learning.apply_updates"] * ms / counts["train_batches"]
    m["trainer.train.self_ms"] = ts["trainer.train"] * ms / counts["train_samples"]
    for k in ("save", "load"):  # train saves each epoch; the round-trip check loads the last one
        calls = tc[f"trainer.checkpoint_{k}"]
        m[f"trainer.checkpoint_{k}.ms_per_call"] = tt[f"trainer.checkpoint_{k}"] * ms / calls if calls else 0.0

    it, _, _, _ = tracer.totals("infer")
    m["trainer.evaluate.ms"] = it["trainer.evaluate"] * ms / counts["infer_samples"]

    st, _, _, _ = tracer.totals("setup")
    for k in ("load_idx", "dataset_from_images", "load_event_stream", "slice_events"):
        m[f"datasets.{k}.ms"] = st[f"datasets.{k}"] * ms / counts["setup_samples"]
    m.update(extra)
    return m
