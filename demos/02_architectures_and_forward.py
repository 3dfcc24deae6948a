#!/usr/bin/env python3
"""Parse architecture strings and watch a network spike.

The grammar: "<n>C<k>" convolution (n channels, k-by-k kernel, stride 1,
padding k//2), "P<w>" average pooling, bare "<n>" a dense layer, with a
flatten inserted automatically before the first dense layer.
"""
import numpy as np

from stopsnn.learning import infer_batch
from stopsnn.topology import forward_timestep, init_params, parse_architecture, reset_network

spec = parse_architecture("8C3-P2-16C3-P2-32-10", (1, 16, 16), 10, time_steps=6)
print("architecture '8C3-P2-16C3-P2-32-10' on a 1x16x16 input:")
for i, layer in enumerate(spec.layers):
    print(f"  layer {i}: {layer.kind.value:8} {layer.in_shape} -> {layer.out_shape}")

params = init_params(spec, seed=7)
rng = np.random.default_rng(0)
frame = rng.uniform(0.0, 1.0, size=(1, 1, 16, 16))  # a batch of one sample

print("\nrunning 6 time-steps of the same frame (direct coding):")
states = reset_network(spec, batch=1)
outputs = []
for t in range(6):
    states, out = forward_timestep(spec, params, states, frame)
    outputs.append(out[0].copy())  # the next step overwrites out in place
    spikes_per_layer = [int(states[i].spikes.sum()) for i in spec.lif_indices]
    print(f"  t={t + 1}: spikes per neuron layer {spikes_per_layer}, output counts so far "
          f"{np.sum(outputs, axis=0).astype(int)}")

(prediction,), _ = infer_batch(spec, params, [frame] * 6)
print(f"\ndecoded class (most output spikes, ties to lowest index): {prediction}")

print("\nmalformed strings report the offending token:")
for bad in ("8C3-P5-10", "8Q3-10", "12"):
    try:
        parse_architecture(bad, (1, 16, 16), 10)
    except Exception as exc:
        print(f"  {bad!r}: {exc}")
