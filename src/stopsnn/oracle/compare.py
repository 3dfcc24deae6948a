"""Hybrid absolute/relative comparison of gradient structures."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

REL_FLOOR = 1e-12


@dataclass
class ComparisonReport:
    max_abs: float
    max_rel: float
    coordinate: str

    def __str__(self):
        return f"max abs {self.max_abs:.3e}, max rel {self.max_rel:.3e} at {self.coordinate}"


def _leaves(value, label):
    """Flatten nested lists/dicts/scalars/arrays into (label, array) pairs."""
    if value is None:
        return
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaves(sub, f"{label}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for idx, sub in enumerate(value):
            yield from _leaves(sub, f"{label}[{idx}]")
        return
    yield label, np.atleast_1d(np.asarray(value, dtype=np.float64))


def compare_gradients(a, b) -> ComparisonReport:
    """Worst absolute and relative deviation across two gradient structures.

    Relative error uses |a - b| / max(|a|, |b|, 1e-12) elementwise; the
    report names the coordinate where the relative deviation peaks.
    """
    left = list(_leaves(a, "grad"))
    right = list(_leaves(b, "grad"))
    if [l for l, _ in left] != [l for l, _ in right]:
        raise ShapeError("gradient structures do not align")
    max_abs = 0.0
    max_rel = 0.0
    where = "-"
    for (name, x), (_, y) in zip(left, right):
        if x.shape != y.shape:
            raise ShapeError(f"shape mismatch at {name}: {x.shape} vs {y.shape}")
        if x.size == 0:
            continue
        diff = np.abs(x - y)
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), REL_FLOOR)
        rel = diff / denom
        flat = int(np.argmax(rel))
        if rel.flat[flat] >= max_rel:
            max_rel = float(rel.flat[flat])
            where = f"{name}@{np.unravel_index(flat, x.shape)}"
        max_abs = max(max_abs, float(diff.max()))
    return ComparisonReport(max_abs=max_abs, max_rel=max_rel, coordinate=where)
