"""Minimal dense tensors with reverse-mode differentiation.

Implements exactly the operations the offset-predicting network and its
pairwise loss need: valid cross-correlation, ReLU, 2x2 max pooling, the
decoder entry (a center crop of the skip concatenated with the bottleneck
upsampled 2x by nearest neighbour, one op) and coordinate gathers.  The
stand-alone ``upsample_nearest2`` is kept as the tests' reference for the
decoder entry.  Ops executed inside a ``with Tape()`` block record a node per
call; ``Tape.backward`` replays the nodes in exact reverse creation order.
Ops executed without an active tape are plain forward computations.

Every op, the loss's included, computes its output array and a ``grads(g)``
that maps the output's gradient to one gradient per input, or ``None`` for an
input it does not reach, and hands both to ``_op``.  ``_op`` owns the rest of
the node: it wraps the output, skips the node when no gradient reached the
output, and accumulates each returned array into its input.  A node takes
its output's gradient, sets the output's ``grad`` to ``None`` and drops its
own reference to the output before it calls ``grads``, so the node owns
``g``: ``grads`` may write into ``g`` and return it, or free it early (on
CPython 3.11 and later, where a call moves its arguments into the callee;
before that the caller holds ``g`` until ``grads`` returns).  The first
array an input receives becomes its ``grad`` and later ones are added into
it, so every other array ``grads`` returns must be fresh, never a view of
``g``, of an input or of a buffer the op reuses.

Replay is one-shot and frees as it goes: ``Tape.backward`` pops each node
before running it, so an activation whose readers have all run dies before
its producer's backward allocates, and a training step never holds every
activation and every activation gradient at once (Chen et al. 2016).  An
output the caller still holds keeps its ``data`` and has ``grad`` ``None``
after replay; leaf tensors, such as parameters, keep their gradients.

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

``conv2d_valid`` has one engine for both kernel sizes, patches over GEMMs
(im2col, Chellapilla et al. 2006).  Output pixel (r, c) of a (C, H, W) input
is flat position r*W + c, and tap (di, dj) reads the flat input di*W + dj
further on.  One reader, ``_chunks``, builds every GEMM operand: it walks the
first n columns of a flat array in chunks of ``CHUNK`` and yields, per chunk,
the slices at a list of column offsets stacked into one patch, zero past
column n.  A whole chunk at the single offset 0 is a view of the array; any
other chunk is copied into one buffer per call.

The forward splits the taps between the two sides of its GEMMs, chosen from
the channel counts alone.  A 1x1 conv, and a 3x3 conv wider at its output
than its input (F > C), copy the input at all k*k tap offsets and run one
(F, C*k*k) GEMM per output chunk, written straight into the output.  A 3x3
conv with F <= C copies the input at the three column taps only, 3*C rows
instead of 9*C, and moves the row taps to the output side, as kn2row does
(Vasudevan et al. 2017) but with one GEMM per chunk: a (3F, 3C) GEMM over
the first L + 2W flat positions gives three planes Z0, Z1 and Z2, one per
row tap, and output p is (Z0[p] + Z1[p + W]) + Z2[p + 2W], added in that
order.  Each Z column comes from exactly one CHUNK-wide GEMM; the GEMM
blocks live in a ring of 2W // CHUNK + 2, enough to hold every block an
output chunk reads.  The split is slower where F > C (the encoder's and the
bottleneck's first convs), so those keep the nine-tap copy.  The backward
reads the flat input at offset 0 and the output gradient, shifted into the
input's flat layout, at the reversed tap offsets; per input chunk one GEMM
gives dX and one adds its share of dW.

Every GEMM of a call has the same shape, whatever the image size.  A BLAS
GEMM's result for one column can depend on how many columns the call has,
because blocking and threading follow the shape; with a fixed width, and
the split's planes always added in one order, the conv of an image window
equals the same window of the whole image's conv bit for bit, and so tiled
inference equals one pass.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import threading

import numpy as np

from .errors import ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)
# flat positions per conv GEMM: the column count of every GEMM conv2d_valid runs
CHUNK = 2048

_tls = threading.local()


def _chunks(flat: np.ndarray, offsets: list[int], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(p0, patch)`` for each ``CHUNK`` of the first ``n`` columns of
    the 2-D ``flat``.

    Row block i of the (rows * len(offsets), CHUNK) patch holds ``flat``'s
    columns from p0 + offsets[i] on, zero where p0 plus the patch column
    reaches n.  The caller reads a patch before asking for the next one,
    since later chunks reuse its buffer.
    """
    rows = flat.shape[0]
    buf = None
    for p0 in range(0, n, CHUNK):
        m = min(CHUNK, n - p0)
        if m == CHUNK and offsets == [0]:
            yield p0, flat[:, p0:p0 + CHUNK]
            continue
        if buf is None:
            buf = np.empty((rows, len(offsets), CHUNK), flat.dtype)
        for i, s in enumerate(offsets):
            buf[:, i, :m] = flat[:, p0 + s:p0 + s + m]
        buf[:, :, m:] = 0
        yield p0, buf.reshape(rows * len(offsets), CHUNK)


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
        """Seed the scalar loss gradient and replay nodes newest-first, once.

        Each node drops its output's gradient as it runs, so afterwards only
        leaf tensors hold gradients; outputs the caller kept keep their data.
        """
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
            # take the gradient and drop the output before grads allocates:
            # the box hands g over, so grads holds its only reference
            nonlocal out
            box = [out.grad]
            out.grad = out = None
            if box[0] is None:
                return
            for t, delta in zip(inputs, grads(box.pop())):
                if delta is not None:
                    _accum(t, delta)

        tape.nodes.append(TapeNode(op, inputs, backward))
    return out


def conv2d_valid(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid cross-correlation of (C,H,W) with (F,C,k,k) filters plus bias.

    k must be 1 or 3; output is (F, H-k+1, W-k+1).  Both kernel sizes run
    the engine of the module docstring: patches of ``CHUNK`` flat positions,
    each chunk one GEMM of the same shape, so an output pixel does not depend
    on the image size.  The taps split by channel counts: a 3x3 conv with
    F <= C copies its input at the three column taps and adds the GEMM's
    three row-tap planes, held in a ring of GEMM blocks, in the fixed order
    (Z0 + Z1) + Z2; every other conv copies its input at all k*k taps.
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

    out_flat = np.empty((F, -(-L // CHUNK) * CHUNK + k - 1), dtype)
    if k == 3 and F <= C:
        # the row taps move to the output side: plane di of the GEMM holds
        # Z_di[q] = sum over dj of w[:, :, di, dj] @ x[:, q + dj]
        offsets, planes = [0, 1, 2], [0, W, 2 * W]
        w2 = w.data.transpose(2, 0, 1, 3).reshape(3 * F, 3 * C)  # rows (di, f), columns (c, dj)
        ring = np.empty((2 * W // CHUNK + 2, 3 * F, CHUNK), dtype)
    else:
        offsets, planes = shifts, [0]
        w2 = w.data.reshape(F, C * kk)  # columns ordered (channel, di, dj) like patches
    reach = planes[-1]
    for p0, patches in _chunks(x_flat, offsets, L + reach):
        if len(planes) == 1:
            np.matmul(w2, patches, out=out_flat[:, p0:p0 + CHUNK])
            continue
        np.matmul(w2, patches, out=ring[p0 // CHUNK % len(ring)])
        # this block completes the outputs p whose last plane column p + reach
        # it holds: out[p] = (Z0[p] + Z1[p + W]) + Z2[p + 2W], each plane read
        # from the at most two ring blocks its columns straddle
        lo, hi = max(p0 - reach, 0), min(p0 + CHUNK - reach, L)
        for i, s in enumerate(planes):
            q = lo + s
            while q < hi + s:
                j, c = divmod(q, CHUNK)
                m = min(CHUNK - c, hi + s - q)
                src = ring[j % len(ring), i * F:(i + 1) * F, c:c + m]
                dst = out_flat[:, q - s:q - s + m]
                if i:
                    dst += src
                else:
                    dst[...] = src
                q += m
    out_arr = out_flat[:, :Ho * W].reshape(F, Ho, W)[:, :, :Wo] + b.data[:, None, None]

    def grads(g):
        # Input pixel q takes tap s's gradient from output position q - s.
        # With g shifted right by the largest offset smax into the flat input
        # layout (zero at cropped positions), that is column q + smax - s, so
        # both gradients come from im2col patches of g over input chunks of x:
        # dX is one GEMM per chunk, and dW^T sums x_chunk @ patches^T.
        db = g.reshape(F, -1).sum(axis=1)
        smax = shifts[-1]
        if k == 1:
            g_src = g.reshape(F, HW)
        else:
            g_src = np.zeros((F, smax + HW), dtype)
            g_src[:, smax:smax + Ho * W].reshape(F, Ho, W)[:, :, :Wo] = g
            del g  # the shifted copy is all the GEMMs read
        w_t = w.data.transpose(1, 0, 2, 3).reshape(C, F * kk)
        dw_t = np.zeros((C, F * kk), dtype)
        # dX at its exact size: a partial last chunk runs the same
        # (C, CHUNK) GEMM into a temporary and keeps its first columns
        dx = np.empty((C, HW), dtype)
        for (q0, x_chunk), (_, gp) in zip(_chunks(x_flat, [0], HW),
                                          _chunks(g_src, [smax - s for s in shifts], HW)):
            dw_t += x_chunk @ gp.T
            if q0 + CHUNK <= HW:
                np.matmul(w_t, gp, out=dx[:, q0:q0 + CHUNK])
            else:
                dx[:, q0:] = (w_t @ gp)[:, :HW - q0]
        dw = np.ascontiguousarray(dw_t.reshape(C, F, k, k).transpose(1, 0, 2, 3))
        return dx.reshape(C, H, W), dw, db

    return _op("conv2d_valid", (x, w, b), out_arr, grads)


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """Elementwise max(0, x); gradient is zero at inputs <= 0.

    With ``inplace`` the result is written into ``x.data`` and the returned
    tensor shares that buffer; see the module docstring for when that is legal.
    The backward masks the output's gradient in place and hands that same
    array on as the input's, so it allocates only the boolean mask.
    """
    out_arr = np.maximum(x.data, 0, out=x.data if inplace else None)
    return _op("relu", (x,), out_arr, lambda g: (np.multiply(g, out_arr > 0, out=g),))


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


def _sum_blocks2(g: np.ndarray) -> np.ndarray:
    """Sum each 2x2 block of a (C, 2H, 2W) array into (C, H, W): each row's
    two values first, then the rows, the order a sum over the block axes
    adds in, so the gradients of both upsampling ops keep their bits."""
    C, H2, W2 = g.shape
    top, bottom = g.reshape(C, H2 // 2, 2, W2 // 2, 2).transpose(2, 0, 1, 3, 4)
    return (top[..., 0] + top[..., 1]) + (bottom[..., 0] + bottom[..., 1])


def upsample_nearest2(x: Tensor) -> Tensor:
    """Replicate each value into a 2x2 block; gradient sums the four copies."""
    if x.data.ndim != 3:
        raise ShapeError("upsample_nearest2 expects (C,H,W)")
    out_arr = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)
    return _op("upsample_nearest2", (x,), out_arr, lambda g: (_sum_blocks2(g),))


def crop_concat(skip: Tensor, low: Tensor) -> Tensor:
    """Center-crop `skip` to twice `low`'s spatial size and stack it over
    `low` upsampled 2x by nearest neighbour: ``concatenate`` of the crop and
    ``upsample_nearest2(low)`` along channels, built in one buffer, with no
    upsampled tensor of its own and the same gradients bit for bit."""
    if skip.data.ndim != 3 or low.data.ndim != 3:
        raise ShapeError("crop_concat expects (C,H,W) tensors")
    C1, H1, W1 = skip.shape
    C2, h, w = low.shape
    H2, W2 = 2 * h, 2 * w
    if H1 < H2 or W1 < W2:
        raise ShapeError(f"skip {H1}x{W1} smaller than upsampled {H2}x{W2}")
    r0 = (H1 - H2) // 2
    c0 = (W1 - W2) // 2
    out_arr = np.empty((C1 + C2, H2, W2), np.result_type(skip.data, low.data))
    out_arr[:C1] = skip.data[:, r0:r0 + H2, c0:c0 + W2]
    up = out_arr[C1:]
    up[:, 0::2, 0::2] = low.data
    up[:, 0::2, 1::2] = low.data
    up[:, 1::2] = up[:, 0::2]

    def grads(g):
        dskip = np.zeros_like(skip.data)
        dskip[:, r0:r0 + H2, c0:c0 + W2] = g[:C1]
        return dskip, _sum_blocks2(g[C1:])

    return _op("crop_concat", (skip, low), out_arr, grads)


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
