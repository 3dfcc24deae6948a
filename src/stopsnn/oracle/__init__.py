"""Independent reference computations used by tests and the gradcheck CLI.

Everything in this subpackage deliberately avoids the streaming learning
code: layers are materialized as explicit connection matrices over
flattened vectors, dynamics are re-simulated by direct recursion, and
gradients are accumulated per scalar or by a full unrolled reverse sweep.
These paths are orders of magnitude slower than the production rule; they
exist to pin its correctness. Their only import from `learning` is its
vocabulary: `SynergyMode` names the trained parameter families and
`LossKind` the loss.
"""
from .compare import compare_gradients
from .finitediff import finite_diff_all
from .naive import naive_stop_gradients
from .unrolled import record_tape, unrolled_stbp_gradients

__all__ = [
    "compare_gradients",
    "finite_diff_all",
    "naive_stop_gradients",
    "record_tape",
    "unrolled_stbp_gradients",
]
