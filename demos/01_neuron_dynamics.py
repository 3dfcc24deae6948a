#!/usr/bin/env python3
"""Walk through the spiking neuron's temporal behavior.

Shows membrane integration with leak and reset-by-subtraction, steady
firing under constant drive, decay after a single pulse, and the two
surrogate-gradient curves with their smooth firing counterparts.
"""
import numpy as np

from stopsnn.lif import LifState, SpikeMode, SurrogateKind, lif_step, soft_spike, surrogate_eval


def trajectory(drives, threshold=1.0, leak=0.5):
    state = LifState(potentials=np.zeros(1), spikes=np.zeros(1))
    rows = []
    for t, drive in enumerate(drives, start=1):
        state = lif_step(state, np.array([drive]), np.array([threshold]), leak, SurrogateKind.EXP_ABS, SpikeMode.HARD)
        rows.append((t, drive, state.potentials[0], int(state.spikes[0])))
    return rows


def show(title, rows):
    print(f"\n{title}")
    print("  t  drive  potential  spike")
    for t, drive, u, s in rows:
        print(f"  {t}  {drive:5.2f}  {u:9.4f}  {'*' if s else '.'}")


print("Leaky integrate-and-fire: potential = leak*(potential - threshold*spike) + drive")
show("Constant drive 1.0 (threshold 1, leak 0.5) fires every step:", trajectory([1.0] * 5))
show("Single pulse of 1.5 then silence decays geometrically:", trajectory([1.5, 0, 0, 0]))
show("Sub-threshold drive 0.45 builds up until the first spike:", trajectory([0.45] * 6))

print("\nSurrogate curves (value at margin x = potential - threshold):")
xs = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
for kind in SurrogateKind:
    vals = ", ".join(f"{v:.4f}" for v in surrogate_eval(xs, kind))
    print(f"  {kind.value:9} phi(x): {vals}")
print("  margins:          " + ", ".join(f"{x:+.1f}" for x in xs))

print("\nSoft firing functions (test-only relaxation, strictly inside (0,1)):")
for kind in SurrogateKind:
    vals = ", ".join(f"{v:.4f}" for v in soft_spike(xs, kind))
    print(f"  {kind.value:9} S(x):   {vals}")
