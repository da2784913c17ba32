"""Minimal dense tensors with reverse-mode differentiation.

Implements exactly the operations the offset-predicting network and its
pairwise loss need: valid cross-correlation, ReLU, 2x2 max pooling,
nearest-neighbour 2x upsampling, center-crop concatenation and coordinate
gathers.  Ops executed inside a ``with Tape()`` block record a node per
call; ``Tape.backward`` replays the nodes in exact reverse creation order.
Ops executed without an active tape are plain forward computations.

Every op, the loss's included, computes its output array and a ``grads(g)``
that maps the output's gradient to one gradient per input, or ``None`` for an
input it does not reach, and hands both to ``_op``.  ``_op`` owns the rest of
the node: it wraps the output, skips the node when no gradient reached the
output, and accumulates each returned array into its input.  The first array
an input receives becomes its ``grad`` and later ones are added into it, so
``grads`` must return fresh arrays, never views of ``g``, of an input or of a
buffer the op reuses.

Replay is one-shot and frees as it goes: ``Tape.backward`` pops each node
before running it, so a node's closure, its output tensor and that output's
gradient die once their last reader has run, and a training step never holds
every activation and every activation gradient at once (Chen et al. 2016).
Leaf tensors, such as parameters, keep their gradients.

``relu(x, inplace=True)`` writes into ``x``'s buffer, as PyTorch's in-place
ReLU does.  That is legal only when no backward pass but the ReLU's own reads
``x.data``: neither the op that produced ``x`` nor another consumer of it.  Of
the ops here, ``relu`` (its mask) and ``maxpool2`` (its argmax) read their own
output in backward; ``conv2d_valid`` reads its input, weights and output
gradient, never its output.  So a ReLU may overwrite a conv output that feeds
nothing else, which is how the network's blocks call it, but not a max-pool's
or a ReLU's output, nor a leaf tensor the caller still reads.

Training arithmetic is float32; every op also accepts float64 tensors so
gradient checks can run at higher precision.

``conv2d_valid`` has one engine for both kernel sizes, im2col over GEMMs
(Chellapilla et al. 2006).  Output pixel (r, c) of a (C, H, W) input is flat
position r*W + c, and tap (di, dj) reads the flat input di*W + dj further on.
The forward walks the flat output positions in chunks of ``CHUNK``: it copies
the k*k shifted slices of a chunk into a (C*k*k, CHUNK) patch buffer, zeroes
the columns past the last valid position and runs one (F, C*k*k) GEMM.  The
backward walks the input positions the same way with patches of the output
gradient: one GEMM gives the chunk's dX and one adds its share of dW.  A 1x1
patch is the input itself, so for k=1 a whole chunk hands its slice of the
flat input (or output gradient) to the GEMM in place.  The dW GEMM of either
kernel size reads whole chunks of the flat input in place too.  Only the last,
partial chunk goes through a zero-padded buffer.

Every GEMM of a call has the same shape, whatever the image size.  A BLAS
GEMM's result for one column can depend on how many columns the call has,
because blocking and threading follow the shape; with a fixed width, the
conv of an image window equals the same window of the whole image's conv
bit for bit, and so tiled inference equals one pass.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import threading

import numpy as np

from .errors import ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)
# flat positions per conv GEMM: the column count of every GEMM conv2d_valid runs
CHUNK = 2048

_tls = threading.local()


def _scratch(tag: str, shape, dtype) -> np.ndarray:
    """Reusable per-thread work buffer; contents are undefined on entry.

    Only for op-internal temporaries whose lifetime ends before the op
    returns.
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
    ``backward`` replays the tape once, popping each node before it runs so
    that intermediate tensors are freed during the replay; a second call
    raises ``RuntimeError``.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        if getattr(_tls, "tape", None) is not None:
            raise RuntimeError("a tape is already active")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def backward(self, loss: Tensor) -> None:
        """Seed the scalar loss gradient and replay nodes newest-first, once."""
        if self._replayed:
            raise RuntimeError("the tape has already been replayed")
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        while self.nodes:
            self.nodes.pop().backward()


def _op(op: str, inputs: Sequence[Tensor], out_arr: np.ndarray,
        grads: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap ``out_arr`` as the output of ``op`` and, under an active tape,
    record its node; the module docstring gives the contract of ``grads``."""
    out = Tensor(out_arr, dtype=out_arr.dtype)
    tape = getattr(_tls, "tape", None)
    if tape is not None:
        def backward():
            g = out.grad
            if g is None:
                return
            for t, delta in zip(inputs, grads(g)):
                if delta is not None:
                    _accum(t, delta)

        tape.nodes.append(TapeNode(op, inputs, backward))
    return out


def conv2d_valid(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid cross-correlation of (C,H,W) with (F,C,k,k) filters plus bias.

    k must be 1 or 3; output is (F, H-k+1, W-k+1).  Both kernel sizes run
    the engine of the module docstring: im2col patches of ``CHUNK`` flat
    positions, each chunk one GEMM of the same shape, so an output pixel does
    not depend on the image size.
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
    kk, HW, dtype = k * k, H * W, x.data.dtype
    # tap (di, dj) reads the flat input at offset di*W + dj from the output
    # pixel (r, c), which sits at flat position r*W + c; positions with
    # c >= Wo straddle two rows and are cropped, and L - 1 is the last valid
    shifts = [di * W + dj for di in range(k) for dj in range(k)]
    L = (Ho - 1) * W + Wo
    x_flat = x.data.reshape(C, HW)

    starts = range(0, L, CHUNK)
    out_flat = np.empty((F, len(starts) * CHUNK + k - 1), dtype)
    patches = _scratch("conv.patches", (C, kk, CHUNK), dtype)
    w2 = w.data.reshape(F, C * kk)  # columns ordered (channel, di, dj) like patches
    for p0 in starts:
        m = min(CHUNK, L - p0)
        if k == 1 and m == CHUNK:  # a 1x1 patch is the input itself
            np.matmul(w2, x_flat[:, p0:p0 + CHUNK], out=out_flat[:, p0:p0 + CHUNK])
            continue
        for i, s in enumerate(shifts):
            patches[:, i, :m] = x_flat[:, p0 + s:p0 + s + m]
        patches[:, :, m:] = 0
        np.matmul(w2, patches.reshape(C * kk, CHUNK), out=out_flat[:, p0:p0 + CHUNK])
    out_arr = out_flat[:, :Ho * W].reshape(F, Ho, W)[:, :, :Wo] + b.data[:, None, None]

    def grads(g):
        # Input pixel q takes tap s's gradient from output position q - s, so
        # both gradients come from im2col patches of g over input chunks of x.
        # Whole chunks of x go to the dW GEMM in place, and only the last
        # partial chunk goes through a zero-padded buffer.  dX is one GEMM per
        # chunk, written into a chunk-padded buffer that the gradient views;
        # dW^T sums x_chunk @ patches^T.
        dstarts = range(0, HW, CHUNK)
        width = len(dstarts) * CHUNK
        full = HW - HW % CHUNK
        x_tail = np.zeros((C, CHUNK), dtype)
        x_tail[:, :HW - full] = x_flat[:, full:]
        if k == 1:
            # a 1x1 gradient patch is g itself, read in place like x
            g_flat = g.reshape(F, HW)
            g_tail = np.zeros((F, CHUNK), dtype)
            g_tail[:, :HW - full] = g_flat[:, full:]

            def g_patches(q0):
                return g_flat[:, q0:q0 + CHUNK] if q0 < full else g_tail
        else:
            # g goes into the flat layout shifted right by the largest tap
            # offset, zero at cropped and padding positions
            smax = shifts[-1]
            g_pad = np.zeros((F, smax + width), dtype)
            g_pad[:, smax:smax + Ho * W].reshape(F, Ho, W)[:, :, :Wo] = g
            gpatches = _scratch("conv.gpatches", (F, kk, CHUNK), dtype)

            def g_patches(q0):
                for i, s in enumerate(shifts):
                    gpatches[:, i] = g_pad[:, q0 + smax - s:q0 + smax - s + CHUNK]
                return gpatches.reshape(F * kk, CHUNK)
        w_t = w.data.transpose(1, 0, 2, 3).reshape(C, F * kk)
        dw_t = np.zeros((C, F * kk), dtype)
        dx = np.empty((C, width), dtype)
        for q0 in dstarts:
            x_chunk = x_flat[:, q0:q0 + CHUNK] if q0 < full else x_tail
            gp = g_patches(q0)
            dw_t += x_chunk @ gp.T
            np.matmul(w_t, gp, out=dx[:, q0:q0 + CHUNK])
        dw = np.ascontiguousarray(dw_t.reshape(C, F, k, k).transpose(1, 0, 2, 3))
        return dx[:, :HW].reshape(C, H, W), dw, g.reshape(F, -1).sum(axis=1)

    return _op("conv2d_valid", (x, w, b), out_arr, grads)


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """Elementwise max(0, x); gradient is zero at inputs <= 0.

    With ``inplace`` the result is written into ``x.data`` and the returned
    tensor shares that buffer; see the module docstring for when that is legal.
    """
    out_arr = np.maximum(x.data, 0, out=x.data if inplace else None)
    return _op("relu", (x,), out_arr, lambda g: (g * (out_arr > 0),))


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))  # a 2x2 block in row-major order


def maxpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pool; gradient routes to the first row-major argmax."""
    if x.data.ndim != 3:
        raise ShapeError("maxpool2 expects (C,H,W)")
    C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    H2, W2 = H // 2, W // 2
    # the four pixels of each block as strided views
    xv = x.data.reshape(C, H2, 2, W2, 2)
    corners = [xv[:, :, di, :, dj] for di, dj in _CORNERS]
    out_arr = np.maximum(np.maximum(corners[0], corners[1]),
                         np.maximum(corners[2], corners[3]))

    def grads(g):
        dx = np.zeros_like(x.data)
        dxv = dx.reshape(C, H2, 2, W2, 2)
        taken = np.zeros((C, H2, W2), bool)
        # a tie goes to the first corner, in row-major order, holding the max
        for (di, dj), corner in zip(_CORNERS, corners):
            hit = (corner == out_arr) & ~taken
            np.copyto(dxv[:, :, di, :, dj], g, where=hit)
            taken |= hit
        return (dx,)

    return _op("maxpool2", (x,), out_arr, grads)


def upsample_nearest2(x: Tensor) -> Tensor:
    """Replicate each value into a 2x2 block; gradient sums the four copies."""
    if x.data.ndim != 3:
        raise ShapeError("upsample_nearest2 expects (C,H,W)")
    C, H, W = x.shape
    out_arr = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def grads(g):
        # each row's two copies first, then the rows: the order a sum over the
        # block axes adds in, so gradients keep their bits
        top, bottom = g.reshape(C, H, 2, W, 2).transpose(2, 0, 1, 3, 4)
        return ((top[..., 0] + top[..., 1]) + (bottom[..., 0] + bottom[..., 1]),)

    return _op("upsample_nearest2", (x,), out_arr, grads)


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

    def grads(g):
        dskip = np.zeros_like(skip.data)
        dskip[:, r0:r0 + H2, c0:c0 + W2] = g[:C1]
        return dskip, g[C1:].copy()

    return _op("crop_concat", (skip, up), out_arr, grads)


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

    def grads(g):
        dfield = np.zeros_like(field.data)
        np.add.at(dfield, (slice(None), rows, cols), g.T)
        return (dfield,)

    return _op("gather_coords", (field,), out_arr, grads)
