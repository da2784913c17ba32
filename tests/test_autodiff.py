import sys
import weakref

import numpy as np
import pytest

from conftest import central_diff_grad, fd_step, fd_tolerance, rel_err
from oceseg import (
    ShapeError,
    Tape,
    Tensor,
    conv2d_valid,
    crop_concat,
    gather_coords,
    maxpool2,
    relu,
    upsample_nearest2,
)
from oceseg.autodiff import CHUNK, _op

DTYPES = [np.float64, np.float32]


def tape_grads(build, tensors, proj):
    """Analytic gradient of sum(proj * out) for each input tensor."""
    with Tape() as tape:
        out = build(*tensors)
    out.grad = proj.astype(out.dtype)
    for node in reversed(tape.nodes):
        node.backward()
    return [t.grad for t in tensors]


def check_op(build, arrays, dtype, rng, skip_inputs=()):
    """FD-vs-analytic comparison on one instance; returns max relative error."""
    tensors = [Tensor(a, dtype) for a in arrays]
    with Tape():
        out = build(*tensors)
    proj = rng.normal(size=out.shape)
    grads = tape_grads(build, tensors, proj)
    h = fd_step(dtype)
    worst = 0.0
    for pos, arr in enumerate(arrays):
        if pos in skip_inputs:
            continue

        def f(a, pos=pos):
            args = [Tensor(x, dtype) for x in arrays]
            args[pos] = Tensor(a, dtype)
            return float(np.sum(build(*args).data.astype(np.float64) * proj))

        fd = central_diff_grad(f, arrays[pos].astype(dtype), h)
        worst = max(worst, rel_err(grads[pos], fd))
    return worst


# ---------------------------------------------------------------------------
# conv2d_valid

def test_conv_all_ones_sums_to_nine():
    out = conv2d_valid(
        Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1))
    )
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 9.0


def test_conv_output_shape():
    rng = np.random.default_rng(0)
    out = conv2d_valid(
        Tensor(rng.normal(size=(2, 5, 5))),
        Tensor(rng.normal(size=(4, 2, 3, 3))),
        Tensor(np.zeros(4)),
    )
    assert out.shape == (4, 3, 3)


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d_valid(
            Tensor(np.zeros((2, 5, 5))),
            Tensor(np.zeros((4, 3, 3, 3))),
            Tensor(np.zeros(4)),
        )


def test_conv_rejects_bad_kernel():
    with pytest.raises(ShapeError):
        conv2d_valid(
            Tensor(np.zeros((1, 5, 5))),
            Tensor(np.zeros((1, 1, 2, 2))),
            Tensor(np.zeros(1)),
        )


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_gradients_match_finite_differences(dtype):
    rng = np.random.default_rng(11)
    tol = fd_tolerance(dtype)
    for trial in range(20):
        C = int(rng.integers(1, 4))
        F = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        H = int(rng.integers(k, 7))
        W = int(rng.integers(k, 7))
        arrays = [
            rng.normal(size=(C, H, W)),
            rng.normal(size=(F, C, k, k)),
            rng.normal(size=(F,)),
        ]
        err = check_op(lambda x, w, b: conv2d_valid(x, w, b), arrays, dtype, rng)
        assert err < tol, (trial, err)


def conv_reference(x, w, b, g):
    """out, dW, dX and db of a valid convolution with output gradient g, by
    a float64 loop over the k*k taps."""
    x, w, b, g = (np.asarray(a, np.float64) for a in (x, w, b, g))
    F, C, k, _ = w.shape
    Ho, Wo = x.shape[1] - k + 1, x.shape[2] - k + 1
    out = np.repeat(b, Ho * Wo).reshape(F, Ho, Wo)
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            xs = x[:, di:di + Ho, dj:dj + Wo]
            out += np.tensordot(w[:, :, di, dj], xs, axes=1)
            dw[:, :, di, dj] = np.tensordot(g, xs, axes=([1, 2], [1, 2]))
            dx[:, di:di + Ho, dj:dj + Wo] += np.tensordot(w[:, :, di, dj], g, axes=([0], [0]))
    return out, dw, dx, g.sum(axis=(1, 2))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("C, H, W, F", [(3, 70, 90, 5), (64, 100, 100, 64), (64, 100, 100, 16)])
def test_conv_matches_float64_reference_across_chunks(dtype, k, C, H, W, F):
    Ho, Wo = H - k + 1, W - k + 1
    # forward walks (Ho-1)*W + Wo flat outputs and backward H*W flat inputs;
    # both span at least three chunks and end in a partial one
    for n in ((Ho - 1) * W + Wo, H * W):
        assert n > 2 * CHUNK and n % CHUNK
    rng = np.random.default_rng(C * k + H)
    x = rng.normal(size=(C, H, W)).astype(dtype)
    w = (rng.normal(size=(F, C, k, k)) / np.sqrt(C * k * k)).astype(dtype)
    b = rng.normal(size=F).astype(dtype)
    g = rng.normal(size=(F, Ho, Wo)).astype(dtype)
    tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
    with Tape() as tape:
        out = conv2d_valid(tx, tw, tb)
    out.grad = g
    tape.nodes[0].backward()
    tol = 2e-6 if dtype == np.float32 else 1e-13
    got = (out.data, tw.grad, tx.grad, tb.grad)
    for name, a, ref in zip(("out", "dW", "dX", "db"), got, conv_reference(x, w, b, g)):
        assert a.dtype == dtype and a.shape == ref.shape, name
        err = np.abs(a - ref).max() / np.abs(ref).max()
        assert err <= tol, (name, err)


def conv_backward_padded(x, w, g):
    """dX and dW of a kxk conv by im2col over an input copied whole into a
    chunk-padded buffer, the GEMMs conv2d_valid runs, with no in-place chunks."""
    C, H, W = x.shape
    F, _, k, _ = w.shape
    Ho, Wo, HW, dtype = H - k + 1, W - k + 1, H * W, x.dtype
    shifts = [di * W + dj for di in range(k) for dj in range(k)]
    smax, width = shifts[-1], -(-HW // CHUNK) * CHUNK
    g_pad = np.zeros((F, smax + width), dtype)
    g_pad[:, smax:smax + Ho * W].reshape(F, Ho, W)[:, :, :Wo] = g
    x_pad = np.zeros((C, width), dtype)
    x_pad[:, :HW] = x.reshape(C, HW)
    gpatches = np.empty((F, k * k, CHUNK), dtype)
    w_t = w.transpose(1, 0, 2, 3).reshape(C, F * k * k)
    dw_t = np.zeros((C, F * k * k), dtype)
    dx = np.empty((C, width), dtype)
    for q0 in range(0, HW, CHUNK):
        for i, s in enumerate(shifts):
            gpatches[:, i] = g_pad[:, q0 + smax - s:q0 + smax - s + CHUNK]
        gp = gpatches.reshape(F * k * k, CHUNK)
        dw_t += x_pad[:, q0:q0 + CHUNK] @ gp.T
        np.matmul(w_t, gp, out=dx[:, q0:q0 + CHUNK])
    return dx[:, :HW].reshape(C, H, W), dw_t.reshape(C, F, k, k).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("C, H, W, F", [(3, 64, 64, 5), (5, 32, 64, 7), (3, 70, 90, 5),
                                        (16, 48, 40, 8)])
def test_conv_backward_equals_padded_input_formulation(dtype, k, C, H, W, F):
    """Whole chunks at offset 0 go to the GEMMs in place and only the tail is
    padded; (3, 64, 64) and (5, 32, 64) have no tail, the others end in a
    partial chunk.  dX is one C-contiguous (C, H, W) array with the bytes of
    the same GEMMs written into a chunk-padded buffer."""
    rng = np.random.default_rng(C + H + W)
    x = rng.normal(size=(C, H, W)).astype(dtype)
    w = rng.normal(size=(F, C, k, k)).astype(dtype)
    g = rng.normal(size=(F, H - k + 1, W - k + 1)).astype(dtype)
    tx, tw = Tensor(x), Tensor(w)
    with Tape() as tape:
        out = conv2d_valid(tx, tw, Tensor(np.zeros(F, dtype)))
    out.grad = g
    tape.nodes[0].backward()
    dx, dw = conv_backward_padded(x, w, g)
    assert tx.grad.shape == (C, H, W) and tx.grad.flags.c_contiguous
    assert tx.grad.base is None or tx.grad.base.size == tx.grad.size
    assert tx.grad.tobytes() == dx.tobytes()
    assert np.array_equal(tw.grad, dw)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("C, F, H, W", [(1, 64, 64, 80), (64, 2, 64, 80), (64, 64, 64, 80),
                                        (64, 16, 64, 80), (8, 4, 30, 1100), (16, 16, 46, 46),
                                        (5, 5, 21, 2100)],
                         ids=["1-64", "64-2", "64-64", "64-16", "8-4-30x1100", "16-16-46x46",
                              "5-5-21x2100"])
def test_conv_window_equals_whole_image_window(k, C, F, H, W):
    """A window of the input convolves to the same window of the output, bit
    for bit, which is what makes tiled inference equal one pass.  At 30x1100
    a 3x3 conv's row taps reach 2W >= CHUNK columns, so plane 2 lands in a
    later GEMM block than plane 0 and the first block adds nothing to it; at
    21x2100 one image row is longer than a chunk, so the first block adds
    nothing to planes 1 or 2 and plane 1 lands more than a chunk past its
    outputs; at 46x46 the outputs fit one chunk but the row taps do not."""
    rng = np.random.default_rng(100 * C + F + k)
    x = rng.normal(size=(C, H, W)).astype(np.float32)
    w = Tensor((rng.normal(size=(F, C, k, k)) / np.sqrt(C * k * k)).astype(np.float32))
    b = Tensor(rng.normal(size=F).astype(np.float32))
    whole = conv2d_valid(Tensor(x), w, b).data
    for r, c, h, wd in [(0, 0, 6, 6), (9, 17, 6, 6), (5, 3, 21, 33),
                        (max(H - 34, 0), W - 40, 21, 33), (0, 0, H - k + 1, 40),
                        (2, 4, H - 14, W - 20)]:
        window = conv2d_valid(Tensor(x[:, r:r + h + k - 1, c:c + wd + k - 1]), w, b).data
        assert np.array_equal(window, whole[:, r:r + h, c:c + wd]), (r, c, h, wd)


def test_conv_forward_memory_does_not_grow_with_width():
    """A 3x3 forward adds its row-tap planes into the output as each GEMM
    block lands, so it holds one block, not a ring sized by the width: on a
    (16, 20, 16384) input it peaks under the flat output and the biased
    output (18.0 MiB each) plus 2 MiB.  A ring of blocks sized by the
    width, 18 here, peaked at 43.1 MiB."""
    import tracemalloc

    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(16, 20, 16384)).astype(np.float32))
    w = Tensor((rng.normal(size=(16, 16, 3, 3)) / 12).astype(np.float32))
    b = Tensor(np.zeros(16, np.float32))
    conv2d_valid(x, w, b)  # warm-up: one-off first-call allocations stay out of the trace
    tracemalloc.start()
    try:
        out = conv2d_valid(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.data.nbytes + 2 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("C, F, H, W", [(1, 16, 50, 60), (16, 48, 50, 60), (16, 16, 50, 60),
                                        (64, 16, 50, 60), (8, 4, 30, 1100)])
def test_conv_forward_splits_taps_by_channel_counts(monkeypatch, k, C, F, H, W):
    """A 3x3 conv no wider at its output than its input copies the input at
    the three column taps only; every other conv copies it at all k*k taps.
    Every forward GEMM, on both routes, has CHUNK columns."""
    from oceseg import autodiff

    offsets, widths = [], []
    chunks, matmul = autodiff._chunks, np.matmul

    def spy_chunks(flat, offs, n):
        offsets.append(list(offs))
        return chunks(flat, offs, n)

    def spy_matmul(a, b, *args, **kwargs):
        widths.append((b.shape[-1], kwargs["out"].shape[-1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(autodiff, "_chunks", spy_chunks)
    monkeypatch.setattr(autodiff.np, "matmul", spy_matmul)
    rng = np.random.default_rng(C + F)
    x = Tensor(rng.normal(size=(C, H, W)).astype(np.float32))
    w = Tensor(rng.normal(size=(F, C, k, k)).astype(np.float32))
    conv2d_valid(x, w, Tensor(np.zeros(F, np.float32)))
    taps = [di * W + dj for di in range(k) for dj in range(k)]
    assert offsets == [[0, 1, 2] if k == 3 and F <= C else taps]
    assert widths and set(widths) == {(CHUNK, CHUNK)}


def test_conv_forward_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8, 8)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    a = conv2d_valid(Tensor(x), Tensor(w), Tensor(b)).data
    c = conv2d_valid(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.array_equal(a, c)


# ---------------------------------------------------------------------------
# relu

def test_relu_values_and_grads():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    t = Tensor(np.array([2.0, -1.0, 0.0]))
    with Tape() as tape:
        out = relu(t)
    out.grad = np.ones(3)
    for node in reversed(tape.nodes):
        node.backward()
    assert np.array_equal(t.grad, [1.0, 0.0, 0.0])  # zero subgradient at 0


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_backward_masks_the_gradient_it_was_handed(dtype):
    """ReLU's backward writes the mask into its output's gradient and passes
    that same array on, with the bytes of g * (out > 0): a negative gradient
    at a masked input gives -0.0, as the product does."""
    x = Tensor(np.array([[-2.0, -0.0, 0.0], [1.5, -1.0, 3.0]], dtype))
    g = np.array([[1.0, -2.0, 3.0], [-4.0, -5.0, 6.0]], dtype)
    want = g * (np.maximum(x.data, 0) > 0)
    assert (np.signbit(want) & (want == 0)).any()
    with Tape() as tape:
        out = relu(x)
    out.grad = g
    tape.nodes.pop().backward()
    assert x.grad is g and g.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_gradcheck(dtype):
    rng = np.random.default_rng(21)
    tol = fd_tolerance(dtype)
    h = fd_step(dtype)
    for trial in range(20):
        a = rng.normal(size=(3, 5, 4))
        a[np.abs(a) < 10 * h] += 0.5  # keep FD away from the kink
        err = check_op(lambda x: relu(x), [a], dtype, rng)
        assert err < tol, (trial, err)


def test_relu_leaves_input_untouched():
    a = np.array([-1.0, 0.5, -2.0, 3.0])
    x = Tensor(a.copy())
    relu(x)
    assert np.array_equal(x.data, a)


def test_relu_inplace_shares_input_buffer():
    x = Tensor(np.array([-1.0, 0.5, -2.0, 3.0]))
    out = relu(x, inplace=True)
    assert np.shares_memory(out.data, x.data)
    assert np.array_equal(out.data, [0.0, 0.5, 0.0, 3.0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_relu_inplace_gradients_equal_functional(dtype):
    rng = np.random.default_rng(23)
    arrays = [rng.normal(size=(3, 9, 11)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)]
    proj = rng.normal(size=(4, 7, 9))
    grads = {}
    for inplace in (False, True):
        tensors = [Tensor(a, dtype) for a in arrays]
        with Tape() as tape:
            out = relu(conv2d_valid(*tensors), inplace=inplace)
        out.grad = proj.astype(dtype)
        for node in reversed(tape.nodes):
            node.backward()
        grads[inplace] = (out.data, *(t.grad for t in tensors))
    for got, ref in zip(grads[True], grads[False]):
        assert got.dtype == dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_relu_inplace_gradcheck(dtype):
    rng = np.random.default_rng(24)
    tol = fd_tolerance(dtype)
    h = fd_step(dtype)
    trials = 0
    while trials < 10:
        C, F = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        arrays = [rng.normal(size=(C, 4, 5)), rng.normal(size=(F, C, 3, 3)), rng.normal(size=F)]
        pre = conv2d_valid(*(Tensor(a, np.float64) for a in arrays)).data
        # keep every pre-activation further from the kink than an FD step moves it
        if np.abs(pre).min() < 10 * h * max(np.abs(arrays[0]).max(), np.abs(arrays[1]).max()):
            continue
        err = check_op(lambda x, w, b: relu(conv2d_valid(x, w, b), inplace=True),
                       arrays, dtype, rng)
        assert err < tol, (trials, err)
        trials += 1


# ---------------------------------------------------------------------------
# maxpool2

def test_maxpool_basics():
    out = maxpool2(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
    assert out.data[0, 0, 0] == 4.0
    t = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    with Tape() as tape:
        out = maxpool2(t)
    out.grad = np.full((1, 1, 1), 7.0)
    for node in reversed(tape.nodes):
        node.backward()
    assert np.array_equal(t.grad, [[[0.0, 0.0], [0.0, 7.0]]])


def test_maxpool_rejects_odd():
    with pytest.raises(ShapeError):
        maxpool2(Tensor(np.zeros((1, 5, 5))))


def test_maxpool_tie_first_row_major():
    t = Tensor(np.array([[[5.0, 5.0], [5.0, 5.0]]]))
    with Tape() as tape:
        out = maxpool2(t)
    out.grad = np.ones((1, 1, 1))
    for node in reversed(tape.nodes):
        node.backward()
    assert np.array_equal(t.grad, [[[1.0, 0.0], [0.0, 0.0]]])


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_gradcheck(dtype):
    rng = np.random.default_rng(31)
    tol = fd_tolerance(dtype)
    h = fd_step(dtype)
    for trial in range(20):
        a = rng.normal(size=(2, 6, 4))
        # keep per-block argmax stable under the FD step
        blocks = a.reshape(2, 3, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
        top = np.sort(blocks, axis=1)
        close = top[:, 3] - top[:, 2] < 20 * h
        if close.any():
            idx = blocks.argmax(axis=1)
            blocks[np.arange(len(blocks)), idx] += 1.0
            a = (
                blocks.reshape(2, 3, 2, 2, 2)
                .transpose(0, 1, 3, 2, 4)
                .reshape(2, 6, 4)
            )
        err = check_op(lambda x: maxpool2(x), [a], dtype, rng)
        assert err < tol, (trial, err)


# ---------------------------------------------------------------------------
# upsample_nearest2

def test_upsample_replicates_and_sums():
    out = upsample_nearest2(Tensor(np.array([[[3.0]]])))
    assert np.array_equal(out.data, np.full((1, 2, 2), 3.0))
    assert upsample_nearest2(Tensor(np.zeros((3, 4, 4)))).shape == (3, 8, 8)
    t = Tensor(np.array([[[3.0]]]))
    with Tape() as tape:
        out = upsample_nearest2(t)
    out.grad = np.ones((1, 2, 2))
    for node in reversed(tape.nodes):
        node.backward()
    assert t.grad[0, 0, 0] == 4.0


@pytest.mark.parametrize("dtype", DTYPES)
def test_upsample_gradcheck(dtype):
    rng = np.random.default_rng(41)
    tol = fd_tolerance(dtype)
    for trial in range(20):
        a = rng.normal(size=(2, 3, 4))
        err = check_op(lambda x: upsample_nearest2(x), [a], dtype, rng)
        assert err < tol, (trial, err)


# ---------------------------------------------------------------------------
# crop_concat

def crop_then_concat(skip, low):
    """The composition ``crop_concat`` fuses, as two tape nodes: the center
    crop of ``skip`` concatenated over ``upsample_nearest2(low)``."""
    up = upsample_nearest2(low)
    C1, H1, W1 = skip.shape
    _, H2, W2 = up.shape
    r0, c0 = (H1 - H2) // 2, (W1 - W2) // 2

    def grads(g):
        dskip = np.zeros_like(skip.data)
        dskip[:, r0:r0 + H2, c0:c0 + W2] = g[:C1]
        return dskip, g[C1:].copy()

    out = np.concatenate([skip.data[:, r0:r0 + H2, c0:c0 + W2], up.data])
    return _op("crop_then_concat", (skip, up), out, grads)


def test_crop_concat_shapes_and_offset():
    rng = np.random.default_rng(3)
    skip = Tensor(rng.normal(size=(2, 10, 10)))
    low = Tensor(rng.normal(size=(3, 3, 3)))
    out = crop_concat(skip, low)
    assert out.shape == (5, 6, 6)
    # the crop's channels first, then each low value repeated into a 2x2 block
    assert np.array_equal(out.data[:2], skip.data[:, 2:8, 2:8])
    assert np.array_equal(out.data[2:], np.repeat(np.repeat(low.data, 2, axis=1), 2, axis=2))
    # odd margins: 11 -> 6 starts at row 2, 11 -> 8 at column 1
    skip = Tensor(rng.normal(size=(1, 11, 11)))
    out = crop_concat(skip, Tensor(rng.normal(size=(1, 3, 4))))
    assert out.shape == (2, 6, 8)
    assert np.array_equal(out.data[:1], skip.data[:, 2:8, 1:9])


def test_crop_concat_rejects_small_skip():
    # a 3x3 low-resolution input upsamples to 6x6
    for skip_hw in ((4, 4), (5, 8), (8, 5)):
        with pytest.raises(ShapeError, match="smaller than upsampled 6x6"):
            crop_concat(Tensor(np.zeros((1, *skip_hw))), Tensor(np.zeros((1, 3, 3))))


def test_crop_concat_gradient_outside_window_is_zero():
    skip = Tensor(np.zeros((1, 10, 10)))
    low = Tensor(np.zeros((1, 3, 3)))
    with Tape() as tape:
        out = crop_concat(skip, low)
    out.grad = np.ones(out.shape)
    for node in reversed(tape.nodes):
        node.backward()
    assert np.all(skip.grad[:, :2, :] == 0) and np.all(skip.grad[:, 8:, :] == 0)
    assert np.all(skip.grad[:, :, :2] == 0) and np.all(skip.grad[:, :, 8:] == 0)
    assert np.all(skip.grad[:, 2:8, 2:8] == 1)
    assert np.all(low.grad == 4)  # the four copies of each value


@pytest.mark.parametrize("dtype", DTYPES)
def test_crop_concat_gradcheck(dtype):
    rng = np.random.default_rng(51)
    tol = fd_tolerance(dtype)
    for trial in range(20):
        arrays = [rng.normal(size=(2, 8, 9)), rng.normal(size=(2, 2, 3))]
        err = check_op(lambda s, u: crop_concat(s, u), arrays, dtype, rng)
        assert err < tol, (trial, err)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("maps", [4, 64])
def test_crop_concat_equals_crop_then_concat_of_upsample(maps, dtype):
    # the decoder entry of a 56^2 crop: a 48^2 skip and a 16^2 bottleneck of
    # three times its maps, and an odd-margin case beside it
    rng = np.random.default_rng(maps)
    for skip_shape, low_shape in (((maps, 48, 48), (3 * maps, 16, 16)),
                                  ((maps, 13, 12), (3 * maps, 5, 4))):
        arrays = [rng.normal(size=skip_shape), rng.normal(size=low_shape)]
        skip, low = (Tensor(a, dtype) for a in arrays)
        with Tape() as tape:
            out = crop_concat(skip, low)
        # one node, fed by the bottleneck itself: no upsampled tensor on the tape
        assert [(n.op, n.inputs) for n in tape.nodes] == [("crop_concat", (skip, low))]
        ref = crop_then_concat(*(Tensor(a, dtype) for a in arrays))
        assert out.dtype == ref.dtype and np.array_equal(out.data, ref.data)
        proj = rng.normal(size=out.shape)
        got = tape_grads(crop_concat, [Tensor(a, dtype) for a in arrays], proj)
        want = tape_grads(crop_then_concat, [Tensor(a, dtype) for a in arrays], proj)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# gather_coords

def test_gather_values_and_bounds():
    field = Tensor(np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3))
    out = gather_coords(field, [(0, 0), (2, 2)])
    assert np.array_equal(out.data, [[0.0, 9.0], [8.0, 17.0]])
    with pytest.raises(ShapeError):
        gather_coords(field, [(3, 0)])


def test_gather_duplicates_accumulate():
    field = Tensor(np.zeros((2, 4, 4)))
    with Tape() as tape:
        out = gather_coords(field, [(1, 1), (1, 1)])
    out.grad = np.array([[1.0, 10.0], [2.0, 20.0]])
    for node in reversed(tape.nodes):
        node.backward()
    assert field.grad[0, 1, 1] == 3.0
    assert field.grad[1, 1, 1] == 30.0


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_backward_equals_per_channel_accumulation(dtype):
    rng = np.random.default_rng(62)
    coords = rng.integers(0, 12, size=(500, 2))  # many repeated pixels
    g = rng.normal(size=(500, 2)).astype(dtype)
    field = Tensor(np.zeros((2, 12, 12), dtype))
    with Tape() as tape:
        out = gather_coords(field, coords)
    out.grad = g
    for node in reversed(tape.nodes):
        node.backward()
    expected = np.zeros((2, 12, 12), dtype)
    for c in range(2):  # the same additions, in the same order, channel by channel
        np.add.at(expected[c], (coords[:, 0], coords[:, 1]), g[:, c])
    assert field.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_gradcheck(dtype):
    rng = np.random.default_rng(61)
    tol = fd_tolerance(dtype)
    for trial in range(20):
        a = rng.normal(size=(2, 6, 6))
        coords = rng.integers(0, 6, size=(7, 2))
        coords[3] = coords[2]  # force a duplicate
        err = check_op(lambda x: gather_coords(x, coords), [a], dtype, rng)
        assert err < tol, (trial, err)


# ---------------------------------------------------------------------------
# tape semantics

def test_tape_composition_equals_manual_chain():
    rng = np.random.default_rng(71)
    x = rng.normal(size=(2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    proj = rng.normal(size=(3, 4, 4))

    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    with Tape() as tape:
        z = relu(conv2d_valid(xt, wt, bt))
    z.grad = proj.copy()
    for node in reversed(tape.nodes):
        node.backward()
    full = xt.grad.copy()

    # chain the two ops manually across separate tapes
    x1 = Tensor(x)
    with Tape() as t1:
        y = conv2d_valid(x1, Tensor(w), Tensor(b))
    y2 = Tensor(y.data)
    with Tape() as t2:
        z2 = relu(y2)
    z2.grad = proj.copy()
    for node in reversed(t2.nodes):
        node.backward()
    y.grad = y2.grad
    for node in reversed(t1.nodes):
        node.backward()
    assert np.array_equal(full, x1.grad)


def test_tape_visits_reverse_creation_order():
    calls = []
    t = Tensor(np.ones(1))
    with Tape() as tape:
        a = relu(t)
        b = relu(a)
    order = [n.op for n in tape.nodes]
    assert order == ["relu", "relu"]
    tape.nodes[0].backward = lambda: calls.append("first")
    tape.nodes[1].backward = lambda: calls.append("second")
    tape.backward(b)
    assert calls == ["second", "first"]


def test_backward_populates_all_reachable_grads():
    rng = np.random.default_rng(81)
    x = Tensor(rng.normal(size=(1, 6, 6)))
    w = Tensor(rng.normal(size=(2, 1, 3, 3)))
    b = Tensor(rng.normal(size=2))
    with Tape() as tape:
        out = relu(conv2d_valid(x, w, b))
        pooled = maxpool2(out)
        total = gather_coords(pooled, [(0, 0)])
        loss = Tensor(total.data.sum())
    total.grad = np.ones_like(total.data)
    for node in reversed(tape.nodes):
        node.backward()
    for t in (x, w, b):
        assert t.grad is not None and t.grad.shape == t.shape


@pytest.mark.parametrize("dtype", DTYPES)
def test_unreached_ops_contribute_nothing(dtype):
    from oceseg import LossConfig, oce_loss, sample_pairs

    rng = np.random.default_rng(91)
    shapes = [(1, 30, 30), (2, 1, 3, 3), (2,), (3, 1, 3, 3), (3,)]
    arrays = [rng.normal(size=s) for s in shapes]
    config = LossConfig(pair_radius=3.0)
    pairs = sample_pairs((28, 28), config, rng)

    def run(dead_branch):
        x, w, b, w_dead, b_dead = tensors = [Tensor(a, dtype) for a in arrays]
        dead = []
        with Tape() as tape:
            field = conv2d_valid(x, w, b)
            live = relu(field)
            if dead_branch:
                # one branch off the live conv output, one off a conv of its own
                dead.append(relu(field))
                dead.append(conv2d_valid(x, w_dead, b_dead))
                dead.append(relu(dead[-1], inplace=True))
                dead += [gather_coords(t, [(0, 0), (5, 7), (5, 7)]) for t in (dead[0], dead[2])]
            loss = oce_loss(live, pairs, config)
            tape.backward(loss)
        return loss.data, tensors, dead

    loss, (x, w, b, w_dead, b_dead), dead = run(True)
    ref_loss, ref, _ = run(False)
    assert np.array_equal(loss, ref_loss)
    for t, r in zip((x, w, b), ref):
        assert t.grad is not None and np.array_equal(t.grad, r.grad)
    assert w_dead.grad is None and b_dead.grad is None
    assert all(t.grad is None for t in dead)


def test_op_node_frees_its_output_and_owns_its_gradient():
    """When ``grads`` starts, the node's output buffer is already freed and,
    on CPython 3.11+, ``grads`` holds the only reference to the gradient it
    was handed."""
    seen = {}

    def probe(t):
        out_arr = 2.0 * t.data
        out_ref = weakref.ref(out_arr)

        def grads(g):
            seen["output freed"] = out_ref() is None
            dx = 2.0 * g
            r = weakref.ref(g)
            del g
            seen["gradient freed"] = r() is None
            return (dx,)

        return _op("probe", (t,), out_arr, grads)

    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        mid = probe(x)
        shape = mid.shape
        loss = _op("sum", (mid,), np.asarray(mid.data.sum()),
                   lambda g: (np.full(shape, g.item()),))
        del mid
    tape.backward(loss)
    # CPython 3.11+ moves call arguments into the callee's frame; before that
    # the caller's stack holds g until grads returns
    assert seen == {"output freed": True, "gradient freed": sys.version_info >= (3, 11)}
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_backward_keeps_data_of_held_outputs_and_gradients_of_leaves():
    """After replay an output the caller still holds keeps its data and has no
    gradient; the leaves it was computed from keep theirs."""
    from oceseg import LossConfig, oce_loss, sample_pairs

    rng = np.random.default_rng(95)
    leaves = [Tensor(rng.normal(size=s)) for s in ((1, 12, 12), (2, 1, 3, 3), (2,))]
    config = LossConfig(pair_radius=3.0)
    with Tape() as tape:
        pre = conv2d_valid(*leaves)
        field = relu(pre)
        loss = oce_loss(field, sample_pairs(field.shape[1:], config, rng), config)
    kept = {name: t.data.copy() for name, t in (("pre", pre), ("field", field), ("loss", loss))}
    tape.backward(loss)
    for name, t in (("pre", pre), ("field", field), ("loss", loss)):
        assert t.grad is None and np.array_equal(t.data, kept[name]), name
    for t in leaves:
        assert t.grad is not None and t.grad.shape == t.shape


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_tapes_on_threads_match_sequential_runs():
    import sys
    import threading

    from oceseg import LossConfig, ModelConfig, forward, init_params, oce_loss, sample_pairs

    seeds = range(4)  # more threads than the two cores the suite is sized for
    barrier = threading.Barrier(len(seeds))

    def run(seed, together=False):
        params = init_params(ModelConfig(base_fmaps=4), seed)
        rng = np.random.default_rng(seed)
        image = Tensor(rng.normal(size=(1, 44, 44)).astype(np.float32))
        with Tape() as tape:
            out = forward(params, image)
            loss = oce_loss(out, sample_pairs(out.shape[1:], LossConfig(), rng), LossConfig())
            if together:
                barrier.wait(timeout=30)  # every thread's tape is active here
            tape.backward(loss)
        return loss.item(), {name: t.grad for name, t in params.items()}

    sequential = [run(seed) for seed in seeds]
    results, errors = {}, []

    def work(seed):
        try:
            results[seed] = run(seed, together=True)
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for seed, (loss, grads) in zip(seeds, sequential):
        got_loss, got_grads = results[seed]
        assert got_loss == loss
        assert grads.keys() == got_grads.keys()
        assert all(np.array_equal(got_grads[k], grads[k]) for k in grads)
