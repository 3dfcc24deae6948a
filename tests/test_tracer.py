"""The benchmark's tracer still wraps the engine.

perfbench/tracer.py times the program by replacing module attributes by
name, so it breaks when a name it patches goes away or when the calls it
attributes by order move (threshold and leakage trace updates before the
first traced forward step). One learn call on a conv net and one on a
dense net, each under a fresh tracer, shows both.
"""
from pathlib import Path

import numpy as np
import pytest

from stopsnn import learning
from stopsnn.learning import SynergyMode
from stopsnn.topology import init_params, parse_architecture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("arch,input_shape,classes,expected", [
    ("4C3-P2-4C3-3", (1, 6, 6), 3, {"numerics.conv2d", "numerics.conv2d_adjoint_input", "numerics.conv2d_weight_grad",
                                    "numerics.avgpool2d", "numerics.avgpool2d_adjoint", "topology.passthrough",
                                    "topology.passthrough_adjoint"}),
    ("8-6-3", (5,), 3, {"numerics.matmul"}),
])
def test_tracer_wraps_one_learn_call(monkeypatch, arch, input_shape, classes, expected):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    spec = parse_architecture(arch, input_shape, classes, time_steps=3)
    params = init_params(spec, seed=0)
    frames = [np.random.default_rng(1).uniform(size=input_shape)] * spec.time_steps
    original = learning.learn_sample
    probe = tracer.Tracer()
    probe.install()
    try:
        learning.learn_sample(spec, params, frames, np.eye(classes)[1], mode=SynergyMode.WTL)
    finally:
        probe.remove()
    names = {span[tracer.NAME] for span in probe.spans}
    assert {"learning.learn_sample", "topology.forward_timestep", "lif.lif_step", "learning.update_weight_traces",
            "learning.update_threshold_traces", "learning.update_leakage_traces", "learning.output_error",
            "learning.accumulate_gradients"} | expected <= names
    assert learning.learn_sample is original  # every original is back
