#!/usr/bin/env python3
"""Learning memory in bytes: what the streaming rule holds, and what temporal backprop records.

learning_bytes counts the buffers a learn call holds for its whole window:
the network states, the window stack (live traces, stacked rows, their
targets and the error scratch), the gradient accumulators and the output
counts. It takes no window length, and the measured peak of a real learning
pass stays at or above it whatever the window. The unrolled tape that
temporal backpropagation sweeps grows linearly with the window instead.
"""
import tracemalloc

import numpy as np

from stopsnn.learning import SynergyMode, learn_sample, learning_bytes
from stopsnn.oracle import record_tape
from stopsnn.topology import init_params, parse_architecture

ARCH, SHAPE, STEPS = "100-100-100-100-4", (1, 10, 10), 6
spec = parse_architecture(ARCH, SHAPE, 4, time_steps=STEPS)
print(f"learning_bytes of {ARCH} (time_steps {STEPS}), held for any window:")
print(f"  {'mode':<5} {'batch 1':>12} {'batch 32':>12}")
for mode in SynergyMode:
    print(f"  {mode.value:<5} {learning_bytes(spec, 1, mode):>12} {learning_bytes(spec, 32, mode):>12}")


def warm_peak(frames, target) -> int:
    """Traced peak of a WTL learn_sample call made after a first, untraced one."""
    learn_sample(spec, params, frames, target, mode=SynergyMode.WTL)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        learn_sample(spec, params, frames, target, mode=SynergyMode.WTL)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


params = init_params(spec, seed=0)
rng = np.random.default_rng(0)
target = np.eye(4)[0]
held = learning_bytes(spec, 1, SynergyMode.WTL)
print(f"\none sample, WTL (learning_bytes {held}):")
print(f"  {'window':>6} {'warm peak':>12} {'unrolled tape':>14}")
for window in (STEPS, 4 * STEPS, 16 * STEPS):
    frames = [rng.uniform(size=SHAPE) for _ in range(window)]
    print(f"  {window:>6} {warm_peak(frames, target):>12} {record_tape(spec, params, frames).nbytes:>14}")
