"""The phases of one benchmark run, for one workload and seed.

`Bench.end_to_end()` is the untraced run: learning memory and checks,
then the timed set-up, learn, inference and training phases, each given a
share of the run's seconds. `Bench.per_layer()` is the traced run: the same
program calls with spans around them, plus the memory-growth ratios, the
unrolled oracle and a dgemm reference, all measured outside the spans.
"""
from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import verify
from stopsnn import learning, topology, trainer
from stopsnn.learning import LossKind, SynergyMode
from stopsnn.oracle import unrolled_stbp_gradients
from stopsnn.topology import InitMode, LayerKind
from tracer import Tracer, derive
from workloads import Workload, generate

# On a shared host a core can run in two speed states about 1.5x apart (measured
# on a 2-vCPU Xeon guest), switching on a scale of seconds as other tenants load
# it. The timed phases of the end-to-end run therefore take turns in rounds of
# about ROUND_SECONDS, each holding to its share of the run's seconds, so that
# each samples the same mix of states; every timing is over all of a phase's
# calls: p50 and p90 of the per-call times, and rates as total work over total time.
SHARES = {"setup": 0.1, "learn": 0.3, "infer_single": 0.15, "infer_set": 0.1, "train": 0.35}
ROUND_SECONDS = 1.5
# alternating untraced and traced chunks of CHUNK_CALLS learn calls take this
# share of the run's seconds, or this many traced calls if that comes first (each
# call leaves some 150 spans)
CHUNK_CALLS = 10
TRACED_LEARN_SHARE, TRACED_LEARN_MAX = 0.3, 300
ORACLE_CHECK_SAMPLES = 3
DGEMM_SIDE = 512
clock = time.perf_counter


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def _peak_kib(fn) -> float:
    """tracemalloc peak of one call, above what was allocated before it, in KiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1024.0


def _seconds(fn) -> float:
    tick = clock()
    fn()
    return clock() - tick


def _rate(calls: list[tuple[int, float]]) -> float:
    """Total work per second of (work, seconds) calls."""
    return sum(work for work, _ in calls) / sum(seconds for _, seconds in calls)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.ops = verify.Ops()
        self.config = generate(workload, seed, work)
        self.mode = SynergyMode(self.config.mode)
        self.loss = LossKind(self.config.loss)
        self.counts: dict = {}
        self.tracer: Tracer | None = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- program calls -------------------------------------------------------

    def setup(self) -> None:
        """load_dataset + build_network + init_params: what a user waits for before training."""
        self.train_set, self.test_set = trainer.load_dataset(self.config)
        self.spec = trainer.build_network(self.config)
        self.params = topology.init_params(self.spec, seed=self.config.seed,
                                           init_mode=InitMode(self.config.init_mode))

    def _learn_call(self, sample, frames=None, audit=None):
        return self.ops.call("learn_sample", learning.learn_sample, self.spec, self.params,
                             sample.frames if frames is None else frames, sample.target,
                             mode=self.mode, loss=self.loss, audit=audit)

    def learn(self, sample) -> float:
        """Seconds of one learn_sample call; the call and its finiteness check are two ops."""
        audit: dict = {}
        tick = clock()
        acc = self._learn_call(sample, audit=audit)
        elapsed = clock() - tick
        self.ops.record("finite gradients", "learn_sample failed" if acc is None else verify.finite_learn(acc, audit))
        return elapsed

    def evaluate(self, samples):
        tick = clock()
        out = self.ops.call("evaluate", trainer.evaluate, self.spec, self.params, samples, self.loss)
        return clock() - tick, out

    def train(self):
        """One trainer.train call, then its finiteness and checkpoint round-trip checks."""
        tick = clock()
        result = self.ops.call("train", trainer.train, self.config)
        elapsed = clock() - tick
        if result is None:
            self.ops.record("finite training", "train failed")
            return elapsed, None
        self.ops.check("finite training", verify.finite_train, result)
        self.ops.check("checkpoint round trip", verify.checkpoint_round_trip, result)
        return elapsed, result

    # -- untimed phases ------------------------------------------------------

    def memory(self, windows) -> dict:
        """Learning memory of one sample at each window T (its first T frames), in KiB."""
        sample = self.train_set[0]
        return {steps: _peak_kib(lambda: self._learn_call(sample, sample.frames[:steps])) for steps in windows}

    def oracle(self, windows) -> tuple[dict, float]:
        """Peak KiB of the unrolled reverse sweep at each window, and its seconds at the workload's T."""
        sample = self.train_set[0]

        def sweep(steps):
            unrolled_stbp_gradients(self.spec, self.params, sample.frames[:steps], sample.target,
                                    mode=self.mode, loss=self.loss.value, include_illusory=False)

        peaks = {steps: _peak_kib(lambda: sweep(steps)) for steps in windows}
        return peaks, statistics.median(_seconds(lambda: sweep(self.w.time_steps)) for _ in range(3))

    def _runs_unrolled_oracle(self) -> bool:
        """The oracle materialises every layer as a dense matrix; for a conv layer
        those would be hundreds of MB, so it runs on dense nets only."""
        return all(layer.kind is not LayerKind.CONV for layer in self.spec.layers)

    def checks(self) -> None:
        """The output-layer oracle check (dense nets) and adjoint identities (conv/pool layers)."""
        if self._runs_unrolled_oracle():
            for sample in self.train_set[:ORACLE_CHECK_SAMPLES]:
                self.ops.check("output layer vs unrolled", verify.output_layer_matches_unrolled,
                               self.spec, self.params, sample, self.mode)
        rng = np.random.default_rng(self.seed)
        for i, layer in enumerate(self.spec.layers):
            if layer.kind in (LayerKind.CONV, LayerKind.AVGPOOL):
                self.ops.check("adjoint identity", verify.adjoint_identities, self.spec, i, rng)

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> dict:
        self.setup()  # untimed: the first set-up also warms the file cache and imports
        peak = self.memory([self.w.time_steps])[self.w.time_steps]
        self.checks()

        # The phases take turns in short rounds, each holding to its share of the
        # run so far, so that every phase samples the whole run. Per-sample call
        # times are kept round by round; whole-set and training calls stand alone.
        rounds = max(1, round(self.seconds / ROUND_SECONDS))
        used = dict.fromkeys(SHARES, 0.0)
        setup_rounds, learn_rounds, single_rounds, whole_calls, train_calls = [], [], [], [], []
        singles, whole_out = [], None
        n_learn = n_single = 0
        for r in range(1, rounds + 1):
            due = {k: share * self.seconds * r / rounds for k, share in SHARES.items()}
            start, times = clock(), []
            while used["setup"] + clock() - start < due["setup"]:
                times.append(_seconds(self.setup))
            used["setup"] += clock() - start
            setup_rounds.append(times)

            start, times = clock(), []
            while used["learn"] + clock() - start < due["learn"]:
                times.append(self.learn(self.train_set[n_learn % len(self.train_set)]))
                n_learn += 1
            used["learn"] += clock() - start
            learn_rounds.append(times)

            start, times = clock(), []
            while used["infer_single"] + clock() - start < due["infer_single"] or n_single < len(self.test_set):
                elapsed, out = self.evaluate([self.test_set[n_single % len(self.test_set)]])
                if n_single < len(self.test_set):
                    singles.append(out)
                times.append(elapsed)
                n_single += 1
            used["infer_single"] += clock() - start
            single_rounds.append(times)

            start = clock()
            while used["infer_set"] + clock() - start < due["infer_set"] or not whole_calls:
                elapsed, out = self.evaluate(self.test_set)
                whole_calls.append((len(self.test_set), elapsed))
                whole_out = whole_out or out
            used["infer_set"] += clock() - start

            start = clock()
            while used["train"] + clock() - start < due["train"] or not train_calls:
                train_calls.append((self.w.n_train * self.config.epochs, self.train()[0]))
            used["train"] += clock() - start
        self.ops.check("one-sample vs whole-set evaluation", verify.single_matches_set, whole_out, singles)

        learn_ms = [t * 1e3 for r in learn_rounds for t in r]
        single_ms = [t * 1e3 for r in single_rounds for t in r]
        self.counts = {
            "rounds": rounds,
            "calls": {"setup": sum(map(len, setup_rounds)), "learn": n_learn, "infer_single": n_single,
                      "infer_set": len(whole_calls), "train": len(train_calls)},
            "round_median_ms": {"learn": [statistics.median(c) * 1e3 for c in learn_rounds if c],
                                "infer_single": [statistics.median(c) * 1e3 for c in single_rounds if c]},
        }
        return {
            "setup_s": statistics.median(t for r in setup_rounds for t in r),
            "train_samples_per_s": _rate(train_calls),
            "learn_ms_p50": statistics.median(learn_ms),
            "learn_ms_p90": _percentile(learn_ms, 90),
            "infer_samples_per_s": _rate(whole_calls),
            "infer_ms_p50": statistics.median(single_ms),
            "infer_ms_p90": _percentile(single_ms, 90),
            "learn_peak_kib": peak,
        }

    @contextlib.contextmanager
    def _traced(self, scope: str):
        self.tracer.scope = scope
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.remove()
            self.tracer.scope = "none"

    def per_layer(self) -> dict:
        # measured before any span exists, so neither memory nor time includes tracing
        self.setup()
        windows = (2, self.w.time_steps)
        peaks = self.memory(windows)
        extra = {"learning.peak_growth": peaks[windows[-1]] / peaks[windows[0]],
                 "oracle.unrolled.peak_growth": 0.0, "oracle.unrolled.peak_kib": 0.0, "oracle.unrolled.ms": 0.0}
        if self._runs_unrolled_oracle():
            oracle_peaks, oracle_s = self.oracle(windows)
            extra["oracle.unrolled.peak_growth"] = oracle_peaks[windows[-1]] / oracle_peaks[windows[0]]
            extra["oracle.unrolled.peak_kib"] = oracle_peaks[windows[-1]]
            extra["oracle.unrolled.ms"] = oracle_s * 1e3
        a = np.random.default_rng(self.seed).standard_normal((DGEMM_SIDE, DGEMM_SIDE))
        best = min(_seconds(lambda: a @ a) for _ in range(10))
        extra["numerics.dgemm_peak_gflops"] = 2 * DGEMM_SIDE**3 / best / 1e9

        self.tracer = Tracer()
        with self._traced("setup"):
            self.setup()

        # the same chunks of learn calls, untraced then traced, in turn: the ratio of
        # the two medians is the tracing overhead, whatever the core's speed did meanwhile
        for sample in self.train_set[:2]:
            self.learn(sample)
        untraced, traced, start = [], [], clock()
        while not traced or (clock() - start < TRACED_LEARN_SHARE * self.seconds
                             and len(traced) < TRACED_LEARN_MAX):
            chunk = [self.train_set[(len(traced) + k) % len(self.train_set)] for k in range(CHUNK_CALLS)]
            untraced += [self.learn(sample) for sample in chunk]
            with self._traced("learn"):
                traced += [self.learn(sample) for sample in chunk]
        n_learn = len(traced)
        extra["trace_overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1) * 100.0

        with self._traced("infer"):
            self.evaluate(self.test_set)
        with self._traced("train"):
            self.train()
        extra["trainer.checkpoint.bytes"] = float(Path(self.config.checkpoint_path).stat().st_size)
        self.checks()

        epochs, batches = self.config.epochs, math.ceil(self.w.n_train / self.config.batch_size)
        self.counts = {"learn_samples": n_learn, "infer_samples": len(self.test_set),
                       "setup_samples": len(self.train_set) + len(self.test_set),
                       "train_samples": self.w.n_train * epochs, "train_batches": batches * epochs,
                       "spans": len(self.tracer.spans)}
        return derive(self.tracer, self.counts, extra)


def work_dir(root: Path) -> Path:
    """A fresh directory for this process's generated inputs and training outputs."""
    return root / f"work-{os.getpid()}"
