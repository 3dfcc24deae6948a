"""Dense float64 tensor kernels.

Matrix multiply, 2-D convolution with its exact adjoints, and average
pooling; every higher-level operation in the package is expressed through
these. All kernels are pure functions over float64 arrays. Convolution is
cross-correlation (no kernel flip) with zero padding.

Spatial kernels take one (C,H,W) map or a (B,C,H,W) batch of them and
return the same rank. conv2d and its weight gradient are unrolled into
GEMMs over im2col patch matrices (Chellapilla et al., 2006). The input
adjoint, a stride-1 correlation of the padded deltas, is lowered by
kernel rows instead (MEC, Cho & Brand, 2017): one matrix of kernel-width
windows, 8*Cout*kw*(H+kh-1)*W bytes a sample where im2col's is
8*Cout*kh*kw*H*W, and kh GEMMs over shifted blocks of its rows. Each is
built for one slice of whole samples at a time, as many as fit
COLUMN_BUDGET bytes of float64, so a kernel's scratch is bounded whatever
the batch size (the dense weight gradient needs none: learning adds it
in place by BLAS).

Spikes are sparse, so the largest layers read only their nonzero inputs
when few are nonzero. Each sparse route's rule is stated here once: a
layer is eligible by its size alone, never counts its nonzeros if not,
and takes the route when at most 1/F of what it would read is nonzero
(sparse_enough).

* Gather (active_columns, for topology.synaptic_input): a dense layer
  whose weights exceed GATHER_BYTES multiplies only the weight columns of
  units active anywhere in the batch, F = GATHER_FACTOR of those columns.
* COO patches (conv2d, conv2d_weight_grad): a stride-1 convolution whose
  one-sample patch matrix exceeds COLUMN_BUDGET builds it as a
  scipy.sparse COO matrix from the input's nonzero entries instead of the
  im2col copy, F = COO_FACTOR of the input.

Either route gives the dense route's values up to summation order. The
COO route's scratch is not sliced: it grows with the batch like the
output, its product on the full-correlation grid holding 1.65 outputs on
W1's conv2. W1's traced learning peak at batch 32 and T=6, on glyph
frames of glyph seed 1, measured 31.80, 32.29 and 32.35 MiB at parameter
seeds 0, 1 and 4; on uniform-noise frames, im2col alone, 31.7 MiB.
Sizes and factors sit at break-evens measured interleaved on a 2-core
Xeon (2 MiB of L2 per core), single-threaded BLAS. At batch 1 a gather
never beat event-long's 512->128 drive (512 KiB of weights) down to 1/48
active columns, matched a 768 KiB drive at 1/24, and matched drives of
1 MiB up to W1's 1568->256 (3.2 MB) at 1/16 to 1/20: GATHER_BYTES is
where that break-even reaches 1/GATHER_FACTOR. At batch 32 it won from
1/4 on every size. COO patches matched conv2's im2col at about 1/20
nonzero inputs at batch 1 and 1/16 at batch 16-32.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import ShapeError

Tensor = np.ndarray

# bytes of one patch (or window) matrix; on the W1 kernels at batch 32 this measured equal or
# faster than 2 MiB slices. A fifth of it sizes learning's WindowStack (WindowStack.depth
# steps of the rows it stacks and of its error scratch) and infer_batch's block of output
# rows that its loss reads, so both stay bounded whatever the window.
COLUMN_BUDGET = 256 * 1024

# bytes a dense layer's weights must exceed before its drive checks for a gather
GATHER_BYTES = 1024 * 1024

# the sparse routes' F: an eligible layer takes one when at most 1/F of what it reads is nonzero
GATHER_FACTOR = 16  # a dense drive's active weight columns
COO_FACTOR = 32  # a stride-1 correlation's nonzero inputs


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of two 2-D arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D a and b, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} vs {b.shape}")
    return np.dot(a, b)


def sparse_enough(values: Tensor, factor: int) -> bool:
    """True when at most 1/factor of values are nonzero: the test every sparse route is taken on."""
    return np.count_nonzero(values) * factor <= values.size


def active_columns(weights: Tensor, x: Tensor) -> Tensor | None:
    """The columns of a (B, n) x nonzero in some row, if weights @ x.T gathers them (the module docstring's rule)."""
    if weights.nbytes <= GATHER_BYTES:
        return None
    active = x.any(axis=0)
    return np.flatnonzero(active) if sparse_enough(active, GATHER_FACTOR) else None


def _check_geometry(stride: int, padding: int) -> None:
    if stride < 1 or padding < 0:
        raise ShapeError(f"convolution needs stride >= 1 and padding >= 0, got stride={stride} padding={padding}")


def _conv_out_len(size: int, kernel: int, stride: int, padding: int) -> int:
    span = size + 2 * padding - kernel
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"convolution output size not integral: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return span // stride + 1


def _batched(x: Tensor, what: str) -> Tensor:
    """A (B,C,H,W) view of a map or batch of maps."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeError(f"{what} must be (C,H,W) or (B,C,H,W), got {x.shape}")
    return x if x.ndim == 4 else x[None]


def _unbatched_like(out: Tensor, like: Tensor) -> Tensor:
    """Drop the batch axis again when the caller passed a single map."""
    return out if np.ndim(like) == 4 else out[0]


def _pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two axes."""
    if padding == 0:
        return x
    out = np.zeros(x.shape[:-2] + (x.shape[-2] + 2 * padding, x.shape[-1] + 2 * padding))
    out[..., padding:-padding, padding:-padding] = x
    return out


def budget_slices(count: int, item_bytes: int) -> list[slice]:
    """Slices of whole samples, at least one each, whose patch matrices fit COLUMN_BUDGET bytes; one empty for none."""
    step = max(1, COLUMN_BUDGET // item_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, max(count, 1), step)]


def _patches(padded: Tensor, kh: int, kw: int, stride: int, h_out: int, w_out: int) -> Tensor:
    """Every patch of a padded (B,C,Hp,Wp) batch as a (B,C,kh,kw,h_out,w_out) strided view (no copy)."""
    sb, sc, sh, sw = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=padded.shape[:2] + (kh, kw, h_out, w_out),
        strides=(sb, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )


def _coo_route(x: Tensor, kh: int, kw: int, stride: int, padding: int, h_out: int, w_out: int) -> bool:
    """Whether a correlation over x builds its patches as COO (the module docstring's rule; its padding
    must also lie inside the kernel)."""
    return (stride == 1 and padding < min(kh, kw) and 8 * x.shape[1] * kh * kw * h_out * w_out > COLUMN_BUDGET
            and sparse_enough(x, COO_FACTOR))


def _sparse_patches(x: Tensor, kh: int, kw: int) -> scipy.sparse.coo_array:
    """Every stride-1 patch of an unpadded (B,C,H,W) batch, from its nonzero entries.

    One row per pixel of the full-correlation grid (B, H+kh-1, W+kw-1), one
    column per kernel cell (c, i, j). Entry
    (b, c, u, v) sits at grid pixel (u+kh-1-i, v+kw-1-j) of every cell, so
    no index needs a bounds test; at padding p the output is the grid
    cropped by kh-1-p and kw-1-p.
    """
    b, c, h, w = x.shape
    he, we = h + kh - 1, w + kw - 1
    flat = np.flatnonzero(x)
    values = np.repeat(x.ravel()[flat], kh * kw)
    rest, v = np.divmod(flat, w)
    rest, u = np.divmod(rest, h)
    sample, channel = np.divmod(rest, c)
    pixels = (((sample * he + u + kh - 1) * we + v + kw - 1)[:, None]
              - (np.arange(kh)[:, None] * we + np.arange(kw)).ravel()).ravel()
    cells = (channel[:, None] * (kh * kw) + np.arange(kh * kw)).ravel()
    return scipy.sparse.coo_array((values, (pixels, cells)), shape=(b * he * we, c * kh * kw))


def conv2d(inp: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate a (Cin,H,W) input, or a batch of them, with (Cout,Cin,kh,kw) kernels."""
    x = _batched(inp, "conv2d input")
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D kernels, got {kernels.shape}")
    _, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernels.shape
    if cin != cin_k:
        raise ShapeError(f"input channels {cin} do not match kernel channels {cin_k}")
    _check_geometry(stride, padding)
    h_out, w_out = _conv_out_len(h, kh, stride, padding), _conv_out_len(w, kw, stride, padding)
    if _coo_route(x, kh, kw, stride, padding, h_out, w_out):
        grid = (_sparse_patches(x, kh, kw) @ kernels.reshape(cout, -1).T).reshape(len(x), h + kh - 1, w + kw - 1, cout)
        top, left = kh - 1 - padding, kw - 1 - padding
        out = np.ascontiguousarray(grid[:, top : top + h_out, left : left + w_out].transpose(0, 3, 1, 2))
    else:
        # per batch slice, one (n, Cin*kh*kw, h_out*w_out) patch matrix and one stacked GEMM into the output
        out = np.empty((len(x), cout, h_out, w_out))
        padded, flat = _pad2d(x, padding), kernels.reshape(cout, cin * kh * kw)
        for part in budget_slices(len(x), 8 * cin * kh * kw * h_out * w_out):
            cols = _patches(padded[part], kh, kw, stride, h_out, w_out).reshape(-1, cin * kh * kw, h_out * w_out)
            np.matmul(flat, cols, out=out[part].reshape(-1, cout, h_out * w_out))
    return _unbatched_like(out, inp)


def conv2d_adjoint_input(deltas: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Exact adjoint of conv2d as a linear map in its input.

    Satisfies <conv2d(x, k), d> == <x, conv2d_adjoint_input(d, k)> for all x, d.
    It is one stride-1 correlation of the deltas, zero-inserted between
    positions for stride > 1, with the flipped, channel-transposed kernels
    at padding k-1-p, lowered by kernel rows (MEC, Cho & Brand, 2017): per
    batch slice, one (n, Cout*kw, Hc*W) matrix of the padded buffer's
    kernel-width windows, Hc = H+kh-1, and kh GEMMs, one per kernel row,
    each over a contiguous block of W-wide rows. A sample's matrix is
    8*Cout*kw*Hc*W bytes, where an im2col one would be 8*Cout*kh*kw*H*W.
    """
    d = _batched(deltas, "deltas")
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim != 4:
        raise ShapeError(f"expected 4-D kernels, got {kernels.shape}")
    _check_geometry(stride, padding)
    b, cout, h_out, w_out = d.shape
    cout_k, cin, kh, kw = kernels.shape
    if cout != cout_k:
        raise ShapeError(f"delta channels {cout} do not match kernel count {cout_k}")
    hp = (h_out - 1) * stride + kh
    wp = (w_out - 1) * stride + kw
    if hp <= 2 * padding or wp <= 2 * padding:
        raise ShapeError("padding exceeds reconstructed input size")
    h, w = hp - 2 * padding, wp - 2 * padding
    hc = h + kh - 1
    # rows[i][c, (o, j)]: row i of the flipped kernels, one row per input channel c
    rows = np.ascontiguousarray(kernels[:, :, ::-1, ::-1].transpose(2, 1, 0, 3)).reshape(kh, cin, cout * kw)
    out = np.empty((b, cin, h, w))
    parts = budget_slices(b, 8 * cout * kw * hc * w)
    # per slice, the deltas placed at their strided positions in a buffer padded by k-1, then
    # cropped by p to (Hc, W+kw-1): correlating that with the flipped kernels covers the input
    # (the buffer's other positions stay zero from slice to slice)
    full = np.zeros((parts[0].stop, cout, hp + kh - 1, wp + kw - 1))
    cropped = full[:, :, padding : full.shape[2] - padding, padding : full.shape[3] - padding]
    windows = np.empty((parts[0].stop, cout * kw, hc * w))
    term = np.empty((parts[0].stop, cin, h * w))
    for part in parts:
        n = part.stop - part.start
        full[:n, :, kh - 1 : hp : stride, kw - 1 : wp : stride] = d[part]
        cols = windows[:n]  # cols[(o, j), (y, x)] = cropped[o, y, x + j]
        np.copyto(cols.reshape(n, cout, 1, kw, hc, w), _patches(cropped[:n], 1, kw, 1, hc, w))
        # kernel row i reads buffer rows i..i+H-1: the contiguous column block [i*W, (i+H)*W)
        flat = out[part].reshape(n, cin, h * w)
        np.matmul(rows[0], cols[:, :, : h * w], out=flat)
        for i in range(1, kh):
            flat += np.matmul(rows[i], cols[:, :, i * w : (i + h) * w], out=term[:n])
    return _unbatched_like(out, deltas)


def conv2d_weight_grad(traces: Tensor, deltas: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Gradient of <conv2d(traces, kernels), deltas> with respect to the kernels.

    Each shared kernel element accumulates the delta/trace product over all
    spatial positions it touches and, for batched arguments, over the batch
    (one GEMM per batch slice, the slices summed in order, or one sparse
    product on the COO route).
    """
    t = _batched(traces, "traces")
    d = _batched(deltas, "deltas")
    b, cin, h, w = t.shape
    b_d, cout, h_out, w_out = d.shape
    if b != b_d:
        raise ShapeError(f"trace batch {b} does not match delta batch {b_d}")
    _check_geometry(stride, padding)
    kh = h + 2 * padding - (h_out - 1) * stride
    kw = w + 2 * padding - (w_out - 1) * stride
    if kh < 1 or kw < 1:
        raise ShapeError(f"inconsistent shapes for weight gradient: {t.shape} vs {d.shape}")
    if _coo_route(t, kh, kw, stride, padding, h_out, w_out):
        # the deltas on the patches' full-correlation grid, zero where the output does not reach
        grid = np.zeros((b, h + kh - 1, w + kw - 1, cout))
        top, left = kh - 1 - padding, kw - 1 - padding
        grid[:, top : top + h_out, left : left + w_out] = d.transpose(0, 2, 3, 1)
        grad = _sparse_patches(t, kh, kw).T @ grid.reshape(-1, cout)
        return np.ascontiguousarray(grad.T).reshape(cout, cin, kh, kw)
    padded = _pad2d(t, padding)
    grad = None
    for part in budget_slices(b, 8 * cin * kh * kw * h_out * w_out):
        cols = _patches(padded[part], kh, kw, stride, h_out, w_out).transpose(1, 2, 3, 0, 4, 5)
        product = d[part].transpose(1, 0, 2, 3).reshape(cout, -1) @ cols.reshape(cin * kh * kw, -1).T
        grad = product if grad is None else grad + product
    return grad.reshape(cout, cin, kh, kw)


def avgpool2d(inp: Tensor, window: int, out: Tensor | None = None) -> Tensor:
    """Non-overlapping window mean over each (H,W) map of a (C,H,W) or (B,C,H,W) input.

    out, if given, is the pooled array to write into and return.
    """
    inp = np.asarray(inp, dtype=np.float64)
    if inp.ndim not in (3, 4):
        raise ShapeError(f"avgpool2d expects a 3-D or 4-D input, got {inp.shape}")
    h, w = inp.shape[-2:]
    if window < 1 or h % window != 0 or w % window != 0:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    shape = inp.shape[:-2] + (h // window, w // window)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ShapeError(f"avgpool2d output {out.shape} does not match {shape}")
    # one strided add per window offset is several times faster than a mean over reshaped axes
    out.fill(0.0)
    for i in range(window):
        for j in range(window):
            out += inp[..., i::window, j::window]
    out /= float(window * window)
    return out


def avgpool2d_adjoint(deltas: Tensor, window: int) -> Tensor:
    """Adjoint of avgpool2d: spreads each delta uniformly as delta/window^2."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim not in (3, 4):
        raise ShapeError(f"avgpool2d_adjoint expects a 3-D or 4-D input, got {deltas.shape}")
    spread = np.empty(deltas.shape[:-2] + (deltas.shape[-2] * window, deltas.shape[-1] * window))
    for i in range(window):
        for j in range(window):
            spread[..., i::window, j::window] = deltas
    spread /= float(window * window)
    return spread
