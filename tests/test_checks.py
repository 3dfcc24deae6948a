"""The gradient-check battery draws the same networks from the same seeds."""
import numpy as np
import pytest

from stopsnn.checks import random_network

# (input shape, layer kinds with output shapes, T, surrogate) per seed 0-9
DRAWN = {
    (): [
        "(9,) dense(6,) dense(2,) T=1 exp_abs",
        "(13,) dense(2,) dense(4,) dense(14,) dense(4,) T=2 exp_abs",
        "(1, 4, 4) conv(3, 4, 4) avgpool(3, 2, 2) flatten(12,) dense(3,) T=4 inv_quad",
        "(1, 4, 4) conv(3, 4, 4) flatten(48,) dense(2,) T=1 exp_abs",
        "(15,) dense(16,) dense(16,) dense(4,) T=1 exp_abs",
        "(2,) dense(9,) dense(9,) dense(11,) dense(2,) T=6 exp_abs",
        "(9,) dense(16,) dense(7,) dense(3,) T=3 exp_abs",
        "(12,) dense(10,) dense(13,) dense(14,) dense(2,) T=1 exp_abs",
        "(1, 6, 6) conv(2, 6, 6) flatten(72,) dense(3,) T=6 exp_abs",
        "(16,) dense(3,) dense(3,) T=5 inv_quad",
    ],
    (8, 1): [
        "(5,) dense(4,) dense(2,) T=1 exp_abs",
        "(7,) dense(2,) dense(3,) dense(7,) dense(4,) T=1 exp_abs",
        "(1, 4, 4) conv(3, 4, 4) avgpool(3, 2, 2) flatten(12,) dense(3,) T=1 inv_quad",
        "(1, 4, 4) conv(3, 4, 4) flatten(48,) dense(2,) T=1 exp_abs",
        "(8,) dense(8,) dense(8,) dense(4,) T=1 exp_abs",
        "(2,) dense(5,) dense(5,) dense(6,) dense(2,) T=1 inv_quad",
        "(5,) dense(8,) dense(4,) dense(3,) T=1 exp_abs",
        "(6,) dense(6,) dense(7,) dense(7,) dense(2,) T=1 exp_abs",
        "(1, 6, 6) conv(2, 6, 6) flatten(72,) dense(3,) T=1 inv_quad",
        "(8,) dense(2,) dense(3,) T=1 inv_quad",
    ],
    (8, 5): [
        "(5,) dense(4,) dense(2,) T=5 exp_abs",
        "(7,) dense(2,) dense(3,) dense(7,) dense(4,) T=5 exp_abs",
        "(1, 4, 4) conv(3, 4, 4) avgpool(3, 2, 2) flatten(12,) dense(3,) T=5 inv_quad",
        "(1, 4, 4) conv(3, 4, 4) flatten(48,) dense(2,) T=5 exp_abs",
        "(8,) dense(8,) dense(8,) dense(4,) T=5 exp_abs",
        "(2,) dense(5,) dense(5,) dense(6,) dense(2,) T=5 inv_quad",
        "(5,) dense(8,) dense(4,) dense(3,) T=5 exp_abs",
        "(6,) dense(6,) dense(7,) dense(7,) dense(2,) T=5 exp_abs",
        "(1, 6, 6) conv(2, 6, 6) flatten(72,) dense(3,) T=5 inv_quad",
        "(8,) dense(2,) dense(3,) T=5 inv_quad",
    ],
}


def signature(spec) -> str:
    layers = [f"{layer.kind.value}{layer.out_shape}" for layer in spec.layers]
    return " ".join([str(spec.input_shape), *layers, f"T={spec.time_steps}", spec.surrogate.value])


@pytest.mark.parametrize("args", list(DRAWN))
def test_random_network_draws_the_pinned_architectures(args):
    drawn = [signature(random_network(np.random.default_rng(seed), *args)[0]) for seed in range(10)]
    assert drawn == DRAWN[args]
