"""Minimal dense tensors with reverse-mode differentiation.

Implements exactly the operations the offset-predicting network and its
pairwise loss need: valid cross-correlation, ReLU, 2x2 max pooling,
nearest-neighbour 2x upsampling, center-crop concatenation and coordinate
gathers.  Ops executed inside a ``with Tape()`` block record a node per
call; ``Tape.backward`` replays the nodes in exact reverse creation order.
Ops executed without an active tape are plain forward computations.

Training arithmetic is float32; every op also accepts float64 tensors so
gradient checks can run at higher precision.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import threading

import numpy as np
from scipy.linalg import blas as _blas

from .errors import ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)
_GEMM = {np.dtype(np.float32): _blas.sgemm, np.dtype(np.float64): _blas.dgemm}

_tls = threading.local()


def _scratch(tag: str, shape, dtype) -> np.ndarray:
    """Reusable per-thread work buffer; contents are undefined on entry.

    Only for op-internal temporaries whose lifetime ends before the op
    returns; anything handed to the tape or a gradient buffer must be fresh.
    """
    pool = getattr(_tls, "pool", None)
    if pool is None:
        pool = _tls.pool = {}
    key = (tag, shape, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None:
        buf = pool[key] = np.empty(shape, dtype)
    return buf


class Tensor:
    """N-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else np.float32
        self.data = np.ascontiguousarray(arr, dtype=dtype)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _accum(t: Tensor, delta: np.ndarray) -> None:
    # delta must be freshly allocated by the caller; it is adopted on first use
    if t.grad is None:
        t.grad = delta
    else:
        t.grad += delta


class TapeNode:
    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op: str, inputs: Sequence[Tensor], backward: Callable[[], None]):
        self.op = op
        self.inputs = tuple(inputs)
        self.backward = backward


class Tape:
    """Records op nodes for one forward pass.

    The active tape is per thread: each thread can record under its own
    ``with Tape()`` block, and nesting within one thread is an error.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        if getattr(_tls, "tape", None) is not None:
            raise RuntimeError("a tape is already active")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Seed the scalar loss gradient and replay nodes newest-first."""
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            node.backward()


def _record(op: str, inputs: Sequence[Tensor], backward: Callable[[], None]) -> None:
    tape = getattr(_tls, "tape", None)
    if tape is not None:
        tape.nodes.append(TapeNode(op, inputs, backward))


def conv2d_valid(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid cross-correlation of (C,H,W) with (F,C,k,k) filters plus bias.

    k must be 1 or 3; output is (F, H-k+1, W-k+1).
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError("conv2d_valid expects (C,H,W) input and (F,C,k,k) weights")
    C, H, W = x.shape
    F, Cw, k, k2 = w.shape
    if k != k2 or k not in (1, 3):
        raise ShapeError(f"kernel must be square with k in {{1,3}}, got {k}x{k2}")
    if Cw != C:
        raise ShapeError(f"input has {C} channels but weights expect {Cw}")
    if H < k or W < k:
        raise ShapeError(f"input {H}x{W} smaller than kernel {k}")
    if b.shape != (F,):
        raise ShapeError(f"bias shape {b.shape} != ({F},)")
    Ho, Wo = H - k + 1, W - k + 1
    xd, wd = x.data, w.data

    # GEMMs run over shifted contiguous views of the flattened image: for
    # offset (di, dj) the slice x_flat[:, di*W+dj :][:L] aligns input pixel
    # (r+di, c+dj) with output pixel (r, c).  Row-end positions mix
    # neighbouring rows, but those columns fall outside the valid output and
    # are cropped afterwards.  This avoids materializing any patch copies,
    # and the (pixels, channels) GEMM orientation is what the BLAS prefers.
    if k == 1:
        w2 = wd.reshape(F, C)
        out_arr = w2 @ xd.reshape(C, -1)
        out_arr += b.data[:, None]
        out_arr = out_arr.reshape(F, Ho, Wo)
    else:
        L = (Ho - 1) * W + Wo
        x_flat = xd.reshape(C, -1)
        wk = np.ascontiguousarray(wd.transpose(2, 3, 1, 0))  # (k,k,C,F)
        acc = _scratch("conv.acc", (H * W, F), xd.dtype)
        tgt = acc[:L]
        tmp = _scratch("conv.tmp", (L, F), xd.dtype)
        for i, (di, dj) in enumerate((p, q) for p in range(k) for q in range(k)):
            s = di * W + dj
            np.matmul(x_flat[:, s:s + L].T, wk[di, dj], out=tmp)
            if i == 0:
                np.copyto(tgt, tmp)
            else:
                tgt += tmp
        # only positions [0, L) with column < Wo are read here, so the
        # scratch garbage beyond them never leaks into the output
        out_arr = np.ascontiguousarray(
            acc.reshape(H, W, F)[:Ho, :Wo].transpose(2, 0, 1)
        )
        out_arr += b.data[:, None, None]

    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        g2 = g.reshape(F, -1)
        _accum(b, g2.sum(axis=1))
        dw = np.empty_like(wd)
        if k == 1:
            w2 = wd.reshape(F, C)
            x2 = xd.reshape(C, -1)
            dw[...] = (x2 @ g2.T).T.reshape(F, C, 1, 1)
            dx = (w2.T @ g2).reshape(C, H, W)
        else:
            L = (Ho - 1) * W + Wo
            x_flat = xd.reshape(C, -1)
            wk = wd.transpose(2, 3, 0, 1)  # (k,k,F,C), sliced contiguous below
            gemm = _GEMM[xd.dtype]
            # grad lands in a zero-padded full-size channels-last buffer so
            # the shifted flat views stay exact: padding columns are zero and
            # rows >= Ho never fall inside the [0, L) slice
            g_buf = _scratch("conv.gcl", (H * W, F), xd.dtype)
            gv = g_buf.reshape(H, W, F)
            gv[:Ho, :Wo] = g.transpose(1, 2, 0)
            gv[:Ho, Wo:] = 0
            g_cl = g_buf[:L]
            dx_cl = _scratch("conv.dxcl", (H * W, C), xd.dtype)
            dx_cl[L:] = 0
            for i, (di, dj) in enumerate((p, q) for p in range(k) for q in range(k)):
                s = di * W + dj
                dw[:, :, di, dj] = (x_flat[:, s:s + L] @ g_cl).T
                wkc = np.ascontiguousarray(wk[di, dj])
                # in-place accumulate on the F-contiguous transposed view;
                # the first offset (s == 0) overwrites, initializing [0, L)
                gemm(1.0, wkc.T, g_cl.T, beta=0.0 if i == 0 else 1.0,
                     c=dx_cl[s:s + L].T, overwrite_c=1)
            dx = np.ascontiguousarray(dx_cl.reshape(H, W, C).transpose(2, 0, 1))
        _accum(w, dw)
        _accum(x, dx)

    _record("conv2d_valid", (x, w, b), backward)
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient is zero at inputs <= 0."""
    out_arr = np.maximum(x.data, 0)
    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(x, g * (out.data > 0))

    _record("relu", (x,), backward)
    return out


def maxpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pool; gradient routes to the first row-major argmax."""
    if x.data.ndim != 3:
        raise ShapeError("maxpool2 expects (C,H,W)")
    C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    H2, W2 = H // 2, W // 2
    blocks = (
        x.data.reshape(C, H2, 2, W2, 2)
        .transpose(0, 1, 3, 2, 4)
        .reshape(C, H2, W2, 4)
    )
    idx = blocks.argmax(axis=3)
    out_arr = np.take_along_axis(blocks, idx[..., None], axis=3)[..., 0]
    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        d = np.zeros((C, H2, W2, 4), x.data.dtype)
        np.put_along_axis(d, idx[..., None], g[..., None], axis=3)
        dx = d.reshape(C, H2, W2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H, W)
        _accum(x, np.ascontiguousarray(dx))

    _record("maxpool2", (x,), backward)
    return out


def upsample_nearest2(x: Tensor) -> Tensor:
    """Replicate each value into a 2x2 block; gradient sums the four copies."""
    if x.data.ndim != 3:
        raise ShapeError("upsample_nearest2 expects (C,H,W)")
    C, H, W = x.shape
    out_arr = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)
    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        _accum(x, g.reshape(C, H, 2, W, 2).sum(axis=(2, 4)))

    _record("upsample_nearest2", (x,), backward)
    return out


def crop_concat(skip: Tensor, up: Tensor) -> Tensor:
    """Center-crop `skip` to `up`'s spatial size and concatenate channels."""
    if skip.data.ndim != 3 or up.data.ndim != 3:
        raise ShapeError("crop_concat expects (C,H,W) tensors")
    C1, H1, W1 = skip.shape
    C2, H2, W2 = up.shape
    if H1 < H2 or W1 < W2:
        raise ShapeError(f"skip {H1}x{W1} smaller than upsampled {H2}x{W2}")
    r0 = (H1 - H2) // 2
    c0 = (W1 - W2) // 2
    out_arr = np.concatenate(
        [skip.data[:, r0:r0 + H2, c0:c0 + W2], up.data], axis=0
    )
    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        dskip = np.zeros_like(skip.data)
        dskip[:, r0:r0 + H2, c0:c0 + W2] = g[:C1]
        _accum(skip, dskip)
        _accum(up, g[C1:].copy())

    _record("crop_concat", (skip, up), backward)
    return out


def gather_coords(field: Tensor, coords) -> Tensor:
    """Extract the channel vector at each (row, col); duplicates accumulate in backward."""
    if field.data.ndim != 3:
        raise ShapeError("gather_coords expects (C,H,W)")
    _, H, W = field.shape
    pts = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    rows, cols = pts[:, 0], pts[:, 1]
    if pts.size and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= H or cols.max() >= W
    ):
        raise ShapeError("coordinate out of bounds")
    out_arr = np.ascontiguousarray(field.data[:, rows, cols].T)
    out = Tensor(out_arr, dtype=out_arr.dtype)

    def backward():
        g = out.grad
        if g is None:
            return
        dfield = np.zeros_like(field.data)
        np.add.at(dfield, (slice(None), rows, cols), g.T)
        _accum(field, dfield)

    _record("gather_coords", (field,), backward)
    return out
