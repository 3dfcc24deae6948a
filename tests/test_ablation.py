"""The unrolled baseline as a gradient engine of the one training loop."""
import numpy as np

from stopsnn import datasets as ds
from stopsnn.ablation import run_ablation, unrolled_learn_batch
from stopsnn.config import TrainConfig
from stopsnn.learning import LossKind, SynergyMode, learn_batch
from stopsnn.oracle import unrolled_stbp_gradients
from stopsnn.topology import InitMode, init_params
from stopsnn.trainer import build_network, load_dataset, train


def baseline_config(tmp_path, **overrides):
    base = dict(
        arch="10-2",
        input_shape=(8,),
        num_classes=2,
        dataset={"kind": "teacher", "n_train": 12, "n_test": 6, "arch": "6-2"},
        time_steps=4,
        mode="W",
        epochs=1,
        batch_size=12,
        seed=2,
        eta_w=5e-2,
        weight_decay=1e-3,
        momentum=0.9,
        checkpoint_path=str(tmp_path / "ck.json"),
        metrics_path=str(tmp_path / "metrics.jsonl"),
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_one_batch_matches_reference_update(tmp_path):
    config = baseline_config(tmp_path)
    spec = build_network(config)
    w0 = init_params(spec, seed=config.seed, init_mode=InitMode(config.init_mode))
    train_set, _ = load_dataset(config)
    per_sample = [
        unrolled_stbp_gradients(spec, w0, s.frames, s.target, mode=SynergyMode.W, include_illusory=True).dw
        for s in train_set
    ]
    result = train(config, learn=unrolled_learn_batch)
    for i in spec.lif_indices:
        dw = sum(g[i] for g in per_sample)
        assert np.abs(dw).max() > 1e-3
        want = w0[i].weights - config.eta_w * (dw / len(train_set) + config.weight_decay * w0[i].weights)
        got = result.params[i].weights
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_array_equal(result.params[i].thresholds, w0[i].thresholds)
        assert result.params[i].leak == w0[i].leak


def test_audit_matches_streaming_forward(tmp_path):
    config = baseline_config(tmp_path)
    spec = build_network(config)
    params = init_params(spec, seed=config.seed)
    train_set, _ = load_dataset(config)
    audits = []
    for engine in (learn_batch, unrolled_learn_batch):
        audit: dict = {}
        acc = engine(spec, params, ds.batch_frames(train_set), ds.batch_targets(train_set),
                     mode=SynergyMode.W, loss=LossKind.CE, audit=audit)
        assert acc.samples == len(train_set)
        audits.append(audit)
    streaming, unrolled = audits
    assert unrolled["prediction"] == streaming["prediction"]
    assert abs(unrolled["loss"] - streaming["loss"]) <= 1e-12 * abs(streaming["loss"])


def test_every_arm_reports_last_epoch_train_acc(tmp_path):
    config = baseline_config(tmp_path, epochs=2, batch_size=4)
    outcome = run_ablation(config, seeds=(1,))
    for arm, mode, learn in (("W", "W", None), ("WTL", "WTL", None), ("STBP", "W", unrolled_learn_batch)):
        result = train(config.with_overrides(seed=1, mode=mode), learn=learn)
        assert outcome.per_seed[1][arm] == result.metrics[-1]["train_acc"]
