"""The benchmark's tracer still wraps the engine.

perfbench/tracer.py times the program by replacing module attributes by
name, so it breaks when a name it patches goes away or when the calls it
attributes by order move (threshold and leakage trace updates before the
first traced forward step). One learn call on a conv net and one on a
dense net, each under a fresh tracer, shows both. The backward sweep runs
once per K stacked steps, and the tracer attributes its error, adjoint and
gradient calls to layers by their order and arguments: a learn call at
K > 1 and a short training run check that every span lands on a layer of
the network.
"""
from pathlib import Path

import numpy as np
import pytest

from stopsnn import learning, trainer
from stopsnn.config import TrainConfig
from stopsnn.learning import SynergyMode, TraceSet, WindowStack
from stopsnn.topology import init_params, parse_architecture, reset_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced(monkeypatch, fn):
    """The spans of one call under a fresh tracer, which is removed afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    probe = tracer.Tracer()
    probe.install()
    try:
        fn()
    finally:
        probe.remove()
    return [(span[tracer.NAME], span[tracer.LAYER]) for span in probe.spans]


SWEEP_SPANS = ("learning.output_error", "learning.hidden_error", "learning.weight_adjoint",
               "learning.accumulate_gradients")


def test_traced_sweeps_at_depth_above_one_name_their_layers(monkeypatch):
    # the event-long network at a batch of one stacks K = 5 steps: T = 7 runs two sweeps, of
    # 5 and 2 steps. Layers: 0 flatten, then the dense 1, 2 and 3.
    spec = parse_architecture("128-128-10", (2, 16, 16), 10, time_steps=7)
    assert WindowStack(spec, SynergyMode.W, reset_network(spec, 1), TraceSet.zeros(spec, SynergyMode.W, 1)).depth == 5
    params = init_params(spec, seed=0)
    frames = [np.random.default_rng(s).uniform(size=(2, 16, 16)) < 0.3 for s in range(7)]
    spans = _traced(monkeypatch, lambda: learning.learn_sample(spec, params, frames, np.eye(10)[4],
                                                               mode=SynergyMode.W))
    sweep = {name: [layer for n, layer in spans if n == name] for name in SWEEP_SPANS}
    assert sweep == {"learning.output_error": [3, 3], "learning.hidden_error": [2, 1, 2, 1],
                     "learning.weight_adjoint": [3, 2, 3, 2], "learning.accumulate_gradients": [3, 2, 1, 3, 2, 1]}


def test_traced_training_run_names_its_layers(monkeypatch, tmp_path):
    config = TrainConfig(arch="12-2", input_shape=(8,), num_classes=2,
                         dataset={"kind": "teacher", "n_train": 20, "n_test": 10, "arch": "6-2"},
                         time_steps=3, mode="WTL", epochs=1, batch_size=8, seed=5,
                         checkpoint_path=str(tmp_path / "ck.json"), metrics_path=str(tmp_path / "metrics.jsonl"))
    spans = _traced(monkeypatch, lambda: trainer.train(config))
    names = {name for name, _ in spans}
    assert {"trainer.train", "learning.apply_updates", "trainer.checkpoint_save", "trainer.evaluate",
            "topology.forward_timestep"} | set(SWEEP_SPANS) <= names
    spec = trainer.build_network(config)
    for name, layer in spans:  # every span that names a layer names one of the network's
        assert layer is None or layer in range(len(spec.layers)), (name, layer)
        if name in SWEEP_SPANS[:2] + SWEEP_SPANS[3:]:
            assert layer in spec.lif_indices, (name, layer)


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
