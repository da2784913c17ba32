import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from oceseg import (
    ConfigError,
    DegenerateError,
    LabelError,
    ModelConfig,
    SceneSpec,
    ShapeError,
    Tally,
    generate_dataset,
    init_params,
    iou_matrix,
    predict_full,
    scores_from_counts,
    synth_generate,
)
from oceseg import segmentation
from oceseg.autodiff import Tensor
from oceseg.data import relabel_consecutive


@pytest.fixture(scope="module")
def small_params():
    return init_params(ModelConfig(base_fmaps=8), 2)


def _counting_forward(monkeypatch):
    calls = []
    forward = segmentation.forward

    def counted(params, image):
        calls.append(image.shape)
        return forward(params, image)

    monkeypatch.setattr(segmentation, "forward", counted)
    return calls


def _single_pass(params, image):
    """The offset field written out as one untiled forward: the image
    reflect-padded by half the context, one more reflected line on an odd
    side, and the field cropped to (2, H, W)."""
    _, H, W = image.shape
    padded = np.pad(image, ((0, 0), (8, 8), (8, 8)), mode="reflect")
    padded = np.pad(padded, ((0, 0), (0, padded.shape[1] % 2), (0, padded.shape[2] % 2)),
                    mode="reflect")
    return segmentation.forward(params, Tensor(padded)).data[:, :H, :W]


def _check_tiled_equals_single_pass(params, monkeypatch, shape, tile):
    img = np.random.default_rng(sum(shape)).normal(size=(1,) + shape).astype(np.float32)
    calls = _counting_forward(monkeypatch)
    single = _single_pass(params, img)
    assert len(calls) == 1
    del calls[:]
    monkeypatch.setattr(segmentation, "_TILE", tile)
    tiled = predict_full(params, img)
    assert len(calls) > 1
    assert tiled.shape == (2,) + shape
    assert np.array_equal(tiled, single)


@pytest.mark.parametrize("shape", [(60, 70), (101, 87), (128, 128)])
@pytest.mark.parametrize("tile", [20, 24, 40, 52, 64])
def test_predict_full_tiled_equals_single_pass(small_params, monkeypatch, shape, tile):
    _check_tiled_equals_single_pass(small_params, monkeypatch, shape, tile)


@pytest.fixture(scope="module")
def wide_params():
    return {base: init_params(ModelConfig(base_fmaps=base), 2) for base in (16, 64)}


# every conv runs 2048-column GEMMs however small its input, so small tiles
# are slow at 64 maps: tile 20 on (101, 87) alone would take about 20 s
_WIDE_CASES = [
    (base, shape, tile)
    for base in (16, 64)
    for shape in [(60, 70), (101, 87)]
    for tile in (20, 24, 40, 64)
    if (base, shape, tile) != (64, (101, 87), 20)
]


@pytest.mark.parametrize("base_fmaps, shape, tile", _WIDE_CASES,
                         ids=[f"{b}maps-{h}x{w}-tile{t}" for b, (h, w), t in _WIDE_CASES])
def test_predict_full_tiled_equals_single_pass_at_width(wide_params, monkeypatch, base_fmaps,
                                                        shape, tile):
    _check_tiled_equals_single_pass(wide_params[base_fmaps], monkeypatch, shape, tile)


@pytest.mark.parametrize("size, cap", [
    (528, 252), (252, 252), (254, 252), (268, 252), (270, 252), (1040, 252), (2080, 252),
    (40, 20), (100, 20), (102, 24), (96, 40), (130, 64), (528, 284),
])
def test_tile_plan_is_the_fewest_balanced_tiles_under_the_cap(size, cap):
    side, starts = segmentation._tile_plan(size, cap)
    assert side <= cap
    assert side % 2 == 0 and all(s % 2 == 0 for s in starts)
    # the valid interiors, side - CONTEXT wide, cover the valid extent
    assert starts[0] == 0 and starts[-1] + side == size
    assert all(b - a <= side - segmentation.CONTEXT for a, b in zip(starts, starts[1:]))
    # one tile fewer, even at the cap, would not cover it
    assert (len(starts) - 1) * (cap - segmentation.CONTEXT) < size - segmentation.CONTEXT


def test_tile_plan_of_a_512_image_at_the_default_cap():
    assert segmentation._tile_plan(528, 252) == (188, [0, 172, 340])


def test_predict_full_runs_balanced_tiles(small_params, monkeypatch):
    img = np.random.default_rng(2).normal(size=(1, 512, 512)).astype(np.float32)
    calls = _counting_forward(monkeypatch)
    assert predict_full(small_params, img).shape == (2, 512, 512)
    assert calls == [(1, 188, 188)] * 9


@pytest.mark.parametrize("shape", [(21, 22), (101, 87)])
def test_predict_full_returns_a_contiguous_array_of_its_own(small_params, shape):
    img = np.random.default_rng(4).normal(size=(1,) + shape).astype(np.float32)
    field = predict_full(small_params, img)
    assert field.shape == (2,) + shape
    assert field.flags.c_contiguous and field.base is None


def test_predict_full_rejects_a_field_that_overflows():
    # finite weights: on a blank image dec3 outputs its bias, 1, and the head
    # multiplies it by the float32 maximum
    params = init_params(ModelConfig(base_fmaps=4), 0)
    params["dec3.b"].data[...] = 1.0
    params["head.w"].data[...] = np.finfo(np.float32).max
    with pytest.raises(DegenerateError, match="offset field is not finite"):
        predict_full(params, np.zeros((1, 60, 60), np.float32))


def _uses_by_function(source, names):
    """(function, name) of each mention of one of ``names`` in ``source``,
    as a bare name or an attribute, by the innermost function holding it."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in names:
                found.add((where, name))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_band_driver_runs_the_network():
    # one driver predicts the clean field and the noise rounds, and it alone
    # quiets the forward's overflow warnings; Otsu's errstate quiets the
    # division by an empty class
    source = Path(segmentation.__file__).read_text(encoding="utf-8")
    assert _uses_by_function(source, {"forward", "errstate"}) == {
        ("_bands", "forward"), ("_bands", "errstate"), ("otsu_threshold", "errstate"),
    }


# ---------------------------------------------------------------------------
# Noise and foreground

@pytest.mark.parametrize("fraction", [0.013, 0.1])
def test_salt_pepper_hits_disjoint_pixels_in_every_channel(fraction):
    img = np.stack([np.full((30, 40), 0.3), np.full((30, 40), 0.6)]).astype(np.float32)
    before = img.copy()
    out = segmentation.salt_pepper(img, fraction, np.random.default_rng(5))
    m = int(np.floor(fraction * 30 * 40 / 2))
    zeros = (out == 0.0).all(axis=0)
    ones = (out == 1.0).all(axis=0)
    assert zeros.sum() == m and ones.sum() == m
    assert not (zeros & ones).any()
    # a hit pixel is hit in every channel, every other pixel is untouched
    assert np.array_equal((out == 0.0).any(axis=0), zeros)
    assert np.array_equal((out == 1.0).any(axis=0), ones)
    assert np.array_equal(out[:, ~(zeros | ones)], img[:, ~(zeros | ones)])
    assert out.dtype == np.float32
    assert np.array_equal(img, before)


def _variance_oracle(params, image, config, seed):
    """The noise-variance map written out: every round's whole field from one
    untiled forward, stacked, and one whole-stack variance."""
    stack = np.empty((config.noise_rounds, 2) + image.shape[1:], np.float32)
    for r in range(config.noise_rounds):
        rng = np.random.default_rng([seed, r])
        noisy = segmentation.salt_pepper(image, config.noise_fraction, rng)
        stack[r] = _single_pass(params, noisy)
    return np.var(stack, axis=0, ddof=1, dtype=np.float64).sum(axis=0)


def _shift_sum_forward(params, image):
    """A cheap tile-local stand-in for the network: each output pixel is a
    fixed-order sum of 25 pixels of its 17x17 input window, so a tile gives
    the pixels of one pass, and the second channel follows the noise."""
    img = image.data[0]
    h, w = img.shape[0] - segmentation.CONTEXT, img.shape[1] - segmentation.CONTEXT
    acc = np.zeros((h, w), np.float32)
    for dy in range(0, segmentation.CONTEXT + 1, 4):
        for dx in range(0, segmentation.CONTEXT + 1, 4):
            acc += img[dy:dy + h, dx:dx + w]
    half = segmentation.CONTEXT // 2
    return Tensor(np.stack([acc, img[half:half + h, half:half + w] * 0.5]))


def test_embedding_variance_memory_stays_bounded(monkeypatch):
    # at 2048^2 and five rounds a float32 stack of whole fields is 168 MB,
    # and that path peaked at 244.2 MB; tile by tile it measured 72.7 MB: the
    # float64 map (33.5 MB), one noisy copy of the image (16.8 MB), the
    # rounds' gathered bands (10.1 MB) and one tile's fields and variance
    import tracemalloc

    monkeypatch.setattr(segmentation, "forward", _shift_sum_forward)
    config = segmentation.SegmenterConfig()
    params = init_params(ModelConfig(base_fmaps=4), 0)
    image = np.random.default_rng(0).random((1, 2048, 2048), dtype=np.float32)
    tracemalloc.start()
    try:
        var = segmentation.embedding_variance(params, image, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, f"peak {peak / 1e6:.1f} MB"
    assert np.array_equal(var, _variance_oracle(params, image, config, 3))
    assert (var > 0).mean() > 0.5


def test_embedding_variance_memory_does_not_grow_with_width(monkeypatch):
    # at 256x8192 a band-wide buffer of the rounds' fields and its row
    # chunks' float64 temporaries peaked at 122.4 MB; tile by tile it
    # measured 73.7 MB, most of it the float64 map (16.8 MB), one noisy copy
    # of the image (8.4 MB) and the rounds' gathered bands (23.6 MB)
    import tracemalloc

    monkeypatch.setattr(segmentation, "forward", _shift_sum_forward)
    config = segmentation.SegmenterConfig()
    params = init_params(ModelConfig(base_fmaps=4), 0)
    image = np.random.default_rng(1).random((1, 256, 8192), dtype=np.float32)
    tracemalloc.start()
    try:
        var = segmentation.embedding_variance(params, image, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90e6, f"peak {peak / 1e6:.1f} MB"
    assert np.array_equal(var, _variance_oracle(params, image, config, 3))


_YIELD_CASES = [((101, 87), 40), ((101, 87), 64), ((60, 70), 40), ((60, 70), 252),
                ((512, 512), 252)]


@pytest.mark.parametrize("shape, cap", _YIELD_CASES,
                         ids=[f"{h}x{w}-cap{c}" for (h, w), c in _YIELD_CASES])
def test_band_driver_yields_every_pixel_once(monkeypatch, shape, cap):
    # equal fields would hide a pixel yielded twice from the equality tests,
    # so count the yields: overlapping last tiles, odd sides and one tile
    monkeypatch.setattr(segmentation, "forward", _shift_sum_forward)
    monkeypatch.setattr(segmentation, "_TILE", cap)
    params = init_params(ModelConfig(base_fmaps=4), 0)
    image = np.random.default_rng(sum(shape)).random((1,) + shape, dtype=np.float32)
    expected = _single_pass(params, image)
    seen = np.zeros(shape, np.int64)
    for rows, cols, fields in segmentation._bands(params, image, lambda i: image, 3):
        seen[rows, cols] += 1
        assert fields.shape == (3, 2) + seen[rows, cols].shape
        assert all(np.array_equal(f, expected[:, rows, cols]) for f in fields)
    assert (seen == 1).all()


_VARIANCE_CASES = [
    (base, shape, cap)
    for base in (8, 16, 64)
    for shape, cap in [((101, 87), 40), ((101, 87), 64), ((60, 70), 40), ((60, 70), 252)]
    if (base, cap) != (64, 40)
]


@pytest.mark.parametrize("base_fmaps, shape, cap", _VARIANCE_CASES,
                         ids=[f"{b}maps-{h}x{w}-cap{c}" for b, (h, w), c in _VARIANCE_CASES])
def test_embedding_variance_by_band_equals_the_whole_stack(small_params, wide_params,
                                                           monkeypatch, base_fmaps, shape, cap):
    params = small_params if base_fmaps == 8 else wide_params[base_fmaps]
    monkeypatch.setattr(segmentation, "_TILE", cap)
    image = np.random.default_rng(sum(shape)).random((1,) + shape, dtype=np.float32)
    calls = _counting_forward(monkeypatch)
    config = segmentation.SegmenterConfig(noise_fraction=0.05)
    var = segmentation.embedding_variance(params, image, config, seed=7)
    rows = segmentation._axis_plan(shape[0], cap)[2]
    cols = segmentation._axis_plan(shape[1], cap)[2]
    assert len(calls) == config.noise_rounds * len(rows) * len(cols)
    assert (len(rows) > 1) == (cap < 252)  # several bands, or one tile
    assert np.array_equal(var, _variance_oracle(params, image, config, 7))


def test_segment_image_runs_54_forwards_at_512(small_params, monkeypatch):
    # nine tiles of the clean field and, per noise round, three bands of three
    image, _ = synth_generate(SceneSpec(height=512, width=512, n_objects=40, seed=3))
    calls = _counting_forward(monkeypatch)
    segmentation.segment_image(small_params, image, segmentation.SegmenterConfig(bandwidth=12.0))
    assert calls == [(1, 188, 188)] * 54


def test_embedding_variance_rejects_a_round_that_overflows():
    params = init_params(ModelConfig(base_fmaps=4), 0)
    params["dec3.b"].data[...] = 1.0
    params["head.w"].data[...] = np.finfo(np.float32).max
    with pytest.raises(DegenerateError, match="offset field is not finite"):
        segmentation.embedding_variance(params, np.zeros((1, 60, 60), np.float32),
                                        segmentation.SegmenterConfig())


def test_otsu_threshold_splits_a_bimodal_sample():
    rng = np.random.default_rng(0)
    low, high = rng.normal(1.0, 0.1, 500), rng.normal(5.0, 0.2, 300)
    values = rng.permutation(np.concatenate([low, high]))
    threshold = segmentation.otsu_threshold(values)
    assert 1.0 < threshold < 5.0
    assert np.array_equal(np.sort(values[values <= threshold]), np.sort(low))


@pytest.mark.parametrize("values", [
    np.full(10, 3.0), np.zeros(0), [0.5, np.nan, 2.0], [0.5, np.inf], [-np.inf, 0.5],
])
def test_otsu_threshold_rejects_degenerate_input(values):
    with pytest.raises(DegenerateError):
        segmentation.otsu_threshold(values)


@pytest.mark.parametrize("values", [
    [1.0, np.nextafter(1.0, 2.0)], [0.0, 5e-324], [1e6, 1e6 + 1e-8, 1e6],
])
def test_otsu_threshold_rejects_a_range_too_narrow_for_its_bins(values):
    with pytest.raises(DegenerateError, match="map's range .* too narrow"):
        segmentation.otsu_threshold(values)


# ---------------------------------------------------------------------------
# Mean shift

def mean_shift_reference(points, bandwidth: float, max_iter: int = 300, stride=None):
    """Brute-force O(N^2 * iterations) twin of :func:`mean_shift`: seeds,
    climb and supports on every ``stride``-th point, by default
    max(1, floor((bandwidth / _SAMPLE_BALL) ** 2)) capped at N, then the
    dense argmin over every point."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise ShapeError("mean_shift needs at least one point")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if stride is None:
        stride = min(max(1, math.floor((bandwidth / segmentation._SAMPLE_BALL) ** 2)), n)
    everything, pts = pts, pts[::stride]
    keys = np.floor(pts / bandwidth).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(
        np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
    ) + 1
    groups = np.split(order, boundaries)
    seeds = np.array([pts[g].mean(axis=0) for g in groups])

    stop = 1e-3 * bandwidth
    modes = []
    supports = []
    bw_sq = bandwidth * bandwidth
    for seed in seeds:
        pos = seed
        members = None
        for _ in range(max_iter):
            sq = ((pts - pos) ** 2).sum(axis=1)
            idx = np.flatnonzero(sq <= bw_sq)
            if len(idx) == 0:
                break
            new = pts[idx].mean(axis=0)
            shift = np.hypot(*(new - pos))
            pos = new
            members = idx
            if shift < stop:
                break
        if members is None:
            continue
        sq = ((pts - pos) ** 2).sum(axis=1)
        modes.append(pos)
        supports.append(int((sq <= bw_sq).sum()))
    modes = merge_reference(np.asarray(modes), np.asarray(supports), bandwidth)
    d2 = ((everything[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    assignment = np.argmin(d2, axis=1)
    return modes, assignment


def merge_reference(modes, supports, bandwidth: float):
    """The merge as one loop: in rank order, keep a mode unless a kept one
    is closer than the bandwidth."""
    rank = np.lexsort((modes[:, 1], modes[:, 0], -supports))
    kept = np.empty_like(modes)
    n_kept = 0
    for i in rank:
        diff = modes[i] - kept[:n_kept]
        if (np.hypot(diff[:, 0], diff[:, 1]) >= bandwidth).all():
            kept[n_kept] = modes[i]
            n_kept += 1
    return kept[:n_kept]


def _blob_cloud(rng, n_blobs, per_blob, spacing, sigma):
    side = int(np.ceil(np.sqrt(n_blobs)))
    grid = np.argwhere(np.ones((side, side)))[:n_blobs] * spacing
    centers = grid + rng.uniform(-spacing / 4, spacing / 4, size=grid.shape)
    return (np.repeat(centers, per_blob, axis=0)
            + rng.normal(0.0, sigma, size=(n_blobs * per_blob, 2)))


def _assert_same_mean_shift(points, bandwidth):
    modes, assignment = segmentation.mean_shift(points, bandwidth)
    ref_modes, ref_assignment = mean_shift_reference(points, bandwidth, segmentation._MAX_ITER)
    assert modes.dtype == ref_modes.dtype and assignment.dtype == ref_assignment.dtype
    assert np.array_equal(modes, ref_modes)
    assert np.array_equal(assignment, ref_assignment)
    # the premise of the half-bandwidth assignment: kept modes are a bandwidth apart
    gaps = _distances(modes, modes)
    assert (gaps[~np.eye(len(modes), dtype=bool)] >= bandwidth).all()
    return modes, assignment


def _distances(points, modes):
    return np.hypot(*(points[:, None, :] - modes[None, :, :]).transpose(2, 0, 1))


def _lattice(side, step):
    rows, cols = np.mgrid[0:side, 0:side]
    return np.stack([rows.ravel(), cols.ravel()], axis=1).astype(np.float64) * step


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("bandwidth", [2.5, 6.0, 15.0])
def test_mean_shift_matches_reference_on_float_clouds(seed, bandwidth):
    rng = np.random.default_rng(seed)
    blobs = _blob_cloud(rng, 12, 40, 20.0, 2.5)
    scatter = rng.uniform(-10.0, 80.0, size=(60, 2))
    modes, _ = _assert_same_mean_shift(np.concatenate([blobs, scatter]), bandwidth)
    assert len(modes) > 1


@pytest.mark.parametrize("side, step, bandwidth", [(24, 2, 2.5), (25, 3, 5.0), (16, 2, 2.5)])
def test_mean_shift_matches_reference_on_lattice_ties(side, step, bandwidth):
    points = _lattice(side, step)
    modes, assignment = _assert_same_mean_shift(points, bandwidth)
    d2 = ((points[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 2
    assert tied.sum() >= 40  # the case really has exact equidistant points
    assert np.array_equal(assignment, np.argmin(d2, axis=1))


# the sample is every s-th point, s = max(1, floor((bandwidth / 4) ** 2)):
# the modes equal the reference's at that stride and at no neighbouring one
@pytest.mark.parametrize("bandwidth, stride", [(4.0, 1), (6.0, 2), (12.0, 9)])
def test_mean_shift_climbs_a_bandwidth_scaled_sample(bandwidth, stride):
    rng = np.random.default_rng(8)
    points = np.concatenate([_blob_cloud(rng, 12, 60, 30.0, 4.0),
                             rng.uniform(-10.0, 110.0, size=(80, 2))])
    assert segmentation._sample_stride(bandwidth, len(points)) == stride
    modes, assignment = _assert_same_mean_shift(points, bandwidth)
    assert len(modes) > 1
    for other in (stride - 1, stride + 1):
        if other >= 1:
            ref_modes, _ = mean_shift_reference(points, bandwidth, stride=other)
            assert not np.array_equal(ref_modes, modes)


def _merge_clouds():
    rng = np.random.default_rng(9)
    # lattice neighbours exactly one bandwidth of 3 apart, and the centres
    # of its cells, 2.12 from four lattice points
    lattice = np.concatenate([_lattice(6, 3.0), _lattice(5, 3.0) + 1.5])
    yield lattice, np.full(len(lattice), 7), 3.0
    yield lattice, rng.integers(1, 4, len(lattice)), 3.0
    # clumps of near-duplicates, with equal supports among them
    clumps = (np.repeat(rng.uniform(0.0, 60.0, (40, 2)), 6, axis=0)
              + rng.normal(0.0, 1.5, (240, 2)))
    yield clumps, rng.integers(1, 3, len(clumps)), 2.5
    yield clumps, np.ones(len(clumps), np.intp), 5.0
    yield np.zeros((5, 2)), np.full(5, 2), 1.0  # identical modes
    yield np.array([[1.5, -2.0]]), np.array([4]), 1.0


@pytest.mark.parametrize("case", range(6))
def test_merge_keeps_the_modes_of_the_loop(case):
    modes, supports, bandwidth = list(_merge_clouds())[case]
    got = segmentation._merge(modes, supports, bandwidth)
    expected = merge_reference(modes, supports, bandwidth)
    assert np.array_equal(got, expected)
    assert len(expected) < len(modes) or len(modes) == 1


def _shared_mode_cloud():
    # six wide blobs at a small bandwidth: about ten bin seeds climb to each mode
    return _blob_cloud(np.random.default_rng(4), 6, 500, 40.0, 4.0)


# climbs cut off before they converge keep the position they reached
@pytest.mark.parametrize("max_iter", [1, 2, 3, 20, 23])
def test_mean_shift_matches_reference_at_truncated_iterations(monkeypatch, max_iter):
    monkeypatch.setattr(segmentation, "_MAX_ITER", max_iter)
    _assert_same_mean_shift(_shared_mode_cloud(), 3.0)


def _rings(bandwidth):
    # nine rings of 16 points of radius 0.6 * bandwidth: each climbs to its centre
    angles = np.arange(16) * (np.pi / 8)
    ring = 0.6 * bandwidth * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    centers = np.argwhere(np.ones((3, 3))) * 3 * bandwidth + 1.3
    return (centers[:, None] + ring).reshape(-1, 2)


# tight blobs put every point within half a bandwidth of its mode, rings none
@pytest.mark.parametrize("points, bandwidth, near", [
    (_blob_cloud(np.random.default_rng(0), 12, 40, 20.0, 0.5), 6.0, 1.0),
    (_rings(5.0), 5.0, 0.0),
    (_rings(2.5), 2.5, 0.0),
], ids=["tight_blobs", "rings_5", "rings_2.5"])
def test_mean_shift_matches_reference_around_half_bandwidth(points, bandwidth, near):
    modes, _ = _assert_same_mean_shift(points, bandwidth)
    assert len(modes) > 1
    assert (_distances(points, modes).min(axis=1) < bandwidth / 2).mean() == near


def _shared_edges(cells):
    # square cells of side 4, each holding the corners of a unit square about
    # its centre, and one point on the middle of every edge two cells share
    centers = np.argwhere(np.ones((cells, cells))) * 4.0 + 2.0
    corners = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])
    last = cells * 4.0 - 2.0
    right = centers[centers[:, 0] < last] + [2.0, 0.0]
    up = centers[centers[:, 1] < last] + [0.0, 2.0]
    return np.concatenate([(centers[:, None] + corners).reshape(-1, 2), right, up])


def test_mean_shift_gives_half_bandwidth_ties_the_lower_mode():
    # inner cells keep their centres as modes, exactly one bandwidth apart, so
    # the edge midpoints are exactly half a bandwidth from two modes: no ball
    # of radius under half a bandwidth holds them, and the search decides
    points = _shared_edges(8)
    modes, assignment = _assert_same_mean_shift(points, 4.0)
    gaps = _distances(modes, modes)
    assert (gaps == 4.0).sum() // 2 == 36
    d = _distances(points, modes)
    tied = np.flatnonzero((d == 2.0).sum(axis=1) >= 2)
    assert len(tied) == 24
    for i in tied:
        assert assignment[i] == np.flatnonzero(d[i] == 2.0).min()


@pytest.mark.parametrize("offset", [0.0, 4096.0])
@pytest.mark.parametrize("bandwidth", [0.375, 2.5, 12.0])
def test_assign_is_argmin_at_the_half_bandwidth_boundary(offset, bandwidth):
    # a 4x4 grid of modes exactly one bandwidth apart, in shuffled order, and
    # points around them at radii straddling half a bandwidth, toward the
    # neighbouring modes and between them
    rng = np.random.default_rng(1)
    modes = rng.permutation(np.argwhere(np.ones((4, 4)))) * bandwidth + offset
    radii = 0.5 * bandwidth * (1 + np.array([-2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9]))
    angles = np.arange(16) * (np.pi / 8)
    ring = radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = (modes[:, None, None, :] + ring[None]).reshape(-1, 2)
    d2 = ((points[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    got = segmentation._assign(points, modes, bandwidth)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmin(d2, axis=1))
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 2).any()


def _dense_argmin(points, modes):
    return np.concatenate([
        np.argmin(((points[s:s + 512, None, :] - modes[None, :, :]) ** 2).sum(axis=2), axis=1)
        for s in range(0, len(points), 512)])


def _spread_modes(rng, n, bandwidth, extent):
    # uniform candidates thinned by the merge, so pairwise a bandwidth apart
    return segmentation._merge(rng.uniform(0.0, extent, (n, 2)), np.ones(n, np.intp), bandwidth)


def _assign_case(name):
    """(points, modes, bandwidth) of one ``_assign`` case."""
    rng = np.random.default_rng(12)
    if name == "float_cloud":  # blobs around spread modes and a scatter over them
        modes = _spread_modes(rng, 200, 6.0, 120.0)
        blobs = np.repeat(modes, 20, axis=0) + rng.normal(0.0, 2.0, (20 * len(modes), 2))
        return np.concatenate([blobs, rng.uniform(-5.0, 125.0, (2000, 2))]), modes, 6.0
    if name == "lattice_ties":  # modes one bandwidth apart, a finer lattice of points
        return _lattice(41, 0.5) - 0.5, rng.permutation(_lattice(6, 4.0)), 4.0
    if name == "at_r":  # points r from their mode along each axis, and one ulp either side
        r = 0.5 * 3.0 * (1 - 1e-9)
        steps = [np.nextafter(r, 0.0), r, np.nextafter(r, 2.0)]
        offsets = np.array([[0.0, d] for d in steps] + [[-d, 0.0] for d in steps])
        modes = _lattice(4, 7.0)
        return (modes[:, None] + offsets).reshape(-1, 2), modes, 3.0
    if name == "outside":  # points beyond the grid on every side, near and far
        modes = _spread_modes(rng, 60, 5.0, 50.0)
        far = np.array([[-1e6, 25.0], [25.0, 1e6], [1e6, -1e6], [-4.0, -4.0], [54.0, 54.0]])
        return np.concatenate([far, rng.uniform(-30.0, 80.0, (500, 2))]), modes, 5.0
    if name == "capped":  # modes too far apart for cells of r / 2 under the cap
        modes = _spread_modes(rng, 300, 2.0, 1e4)
        near = np.repeat(modes, 10, axis=0) + rng.uniform(-0.7, 0.7, (10 * len(modes), 2))
        return np.concatenate([near, rng.uniform(0.0, 1e4, (2000, 2))]), modes, 2.0
    raise KeyError(name)


@pytest.mark.parametrize("case", ["float_cloud", "lattice_ties", "at_r", "outside", "capped"])
def test_assign_is_the_dense_argmin(case):
    points, modes, bandwidth = _assign_case(case)
    got = segmentation._assign(points, modes, bandwidth)
    assert got.dtype == np.intp
    assert np.array_equal(got, _dense_argmin(points, modes))


@pytest.mark.parametrize("case", ["float_cloud", "lattice_ties", "at_r", "outside", "capped"])
def test_assign_takes_a_proposal_only_as_a_candidate(monkeypatch, case):
    # a grid whose cells name random modes, or none, changes no assignment:
    # only the squared-distance check confirms a proposal
    points, modes, bandwidth = _assign_case(case)
    rng = np.random.default_rng(3)
    mode_grid = segmentation._mode_grid

    def scrambled(*args):
        origin, width, table = mode_grid(*args)
        return origin, width, rng.integers(0, len(modes) + 1, table.shape)

    monkeypatch.setattr(segmentation, "_mode_grid", scrambled)
    assert np.array_equal(segmentation._assign(points, modes, bandwidth),
                          _dense_argmin(points, modes))


def test_assign_cases_reach_what_they_name():
    def grid(case):
        points, modes, bandwidth = _assign_case(case)
        r = 0.5 * bandwidth * (1 - 1e-9)
        return points, modes, r, segmentation._mode_grid(modes, r, max(len(points), 4096))

    points, modes, _, _ = grid("lattice_ties")
    d2 = ((points[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 2).sum() >= 100
    points, modes, r, _ = grid("at_r")
    d2 = ((points[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    assert (d2 == r * r).any() and (d2 < r * r).any() and (d2 > r * r).any()
    points, modes, _, (origin, width, table) = grid("outside")
    end = origin + np.array(table.shape) * width
    assert ((points < origin) | (points >= end)).any(axis=1).sum() >= 5
    points, modes, r, (_, width, table) = grid("capped")
    assert table.size <= len(points) < (1e4 / (0.5 * r)) ** 2
    assert width > 0.5 * r


def test_mode_grid_marks_cells_that_discs_share_as_conflicts():
    # modes one bandwidth apart: the discs of neighbours touch at the midpoint,
    # whose cell both meet; the cell of each mode is met by its disc alone
    bandwidth = 4.0
    r = 0.5 * bandwidth * (1 - 1e-9)
    modes = np.random.default_rng(2).permutation(_lattice(5, bandwidth))
    origin, width, table = segmentation._mode_grid(modes, r, 4096)
    assert width == 0.5 * r

    def entry(p):
        i, j = np.floor((np.asarray(p) - origin) / width).astype(int)
        return table[i, j]

    for k, mode in enumerate(modes):
        assert entry(mode) == k
        if mode[0] < 16.0:
            assert entry(mode + [bandwidth / 2, 0.0]) == len(modes)
    assert set(np.unique(table)) == set(range(len(modes) + 1))


@pytest.mark.parametrize("modes, r, cells", [
    (_lattice(30, 2.0), 0.999, 4096),  # fits at cells of r / 2
    (_lattice(30, 2.0), 0.5, 4096),
    (np.array([[0.0, 0.0], [1e7, 3e6]]), 1.0, 4096),
    (np.stack([np.zeros(50), np.arange(50) * 1e5], axis=1), 1.0, 4096),  # a line
    (np.stack([np.arange(50) * 1e5, np.zeros(50)], axis=1), 1.0, 6000),
    (np.array([[3.0, -4.0]]), 5e199, 4096),
    (np.array([[500.0, 500.0], [200.0, 200.0]]), 5e-17, 4096),
], ids=["fits", "widened", "two_far", "column", "row_6000", "huge_r", "tiny_r"])
def test_mode_grid_covers_the_grown_box_within_the_cell_cap(modes, r, cells):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        origin, width, table = segmentation._mode_grid(modes, r, cells)
    assert table.dtype == np.intp and table.size <= cells
    assert width >= 0.5 * r
    assert (origin <= modes.min(axis=0) - r).all()
    assert (origin + np.array(table.shape) * width >= modes.max(axis=0) + r).all()
    if width > 0.5 * r:  # widened only as far as the cap needs
        assert table.size > cells / 4
    for k, mode in enumerate(modes):  # a mode's own cell proposes it or holds a conflict
        i, j = np.floor((mode - origin) / width).astype(int)
        assert table[i, j] in (k, len(modes))


def test_assign_proposes_every_point_near_a_mode_from_the_grid(monkeypatch):
    # tight blobs put every point within half a bandwidth of its mode, and
    # modes two bandwidths apart leave no cell to two discs, so no point is
    # left for the nearest-mode search
    rng = np.random.default_rng(6)
    modes = _spread_modes(rng, 400, 20.0, 200.0)
    points = np.repeat(modes, 100, axis=0) + rng.uniform(-3.0, 3.0, (100 * len(modes), 2))
    searched = []

    def spy(tree, pts, modes):
        searched.append(len(pts))
        return nearest_mode(tree, pts, modes)

    nearest_mode = segmentation._nearest_mode
    monkeypatch.setattr(segmentation, "_nearest_mode", spy)
    got = segmentation._assign(points, modes, 10.0)
    assert np.array_equal(got, np.repeat(np.arange(len(modes)), 100))
    assert sum(searched) == 0


def test_nearest_mode_recheck_bounds_memory():
    # 5000 points at the centres of an 80 x 80 lattice of modes, each tied
    # four ways: rechecking 4096 rows against all 6400 modes at once peaked
    # at 629.6 MB
    import tracemalloc

    modes = _lattice(80, 4.0)
    points = np.random.default_rng(0).integers(0, 79, size=(5000, 2)) * 4.0 + 2.0
    tree = cKDTree(modes)
    tracemalloc.start()
    try:
        got = segmentation._nearest_mode(tree, points, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _dense_argmin(points, modes))
    assert np.array_equal(got, ((points - 2.0) / 4.0) @ [80, 1])  # the lowest of the four
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


def _seed_count(points, bandwidth):
    return len(np.unique(np.floor(points / bandwidth), axis=0))


@pytest.mark.parametrize("points, bandwidth, seeds", [
    (_lattice(24, 2), 2.5, 361),
    (_shared_mode_cloud(), 3.0, 302),
])
def test_mean_shift_seed_blocks_change_no_mode(monkeypatch, points, bandwidth, seeds):
    assert _seed_count(points, bandwidth) == seeds
    modes, assignment = _assert_same_mean_shift(points, bandwidth)
    for block in (1, seeds + 1):  # one seed per block, and one block for all
        monkeypatch.setattr(segmentation, "_BALL_BLOCK", block)
        got_modes, got_assignment = segmentation.mean_shift(points, bandwidth)
        assert np.array_equal(got_modes, modes)
        assert np.array_equal(got_assignment, assignment)


def test_mean_shift_seed_blocks_bound_memory():
    # 400 tight blobs give over 3000 seeds, and once the seeds reach their
    # blob every ball holds the whole blob: climbing all seeds at once held
    # their ball lists together and peaked at 10.6 MB, blocks of 256 at 5.1 MB
    import tracemalloc

    points = _blob_cloud(np.random.default_rng(7), 400, 60, 12.0, 1.5)
    assert _seed_count(points, 3.0) >= 2000
    tracemalloc.start()
    try:
        modes, _ = segmentation.mean_shift(points, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) >= 400
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_assign_blocks_change_no_assignment(monkeypatch):
    # 40 tight blobs keep 40 modes; the scatter leaves points for the
    # nearest-mode search
    rng = np.random.default_rng(3)
    points = np.concatenate([_blob_cloud(rng, 40, 30, 12.0, 0.5),
                             rng.uniform(-6.0, 80.0, size=(200, 2))])
    for name in ("_BALL_BLOCK", "_POINT_BLOCK"):  # one block for all
        monkeypatch.setattr(segmentation, name, len(points))
    modes, assignment = _assert_same_mean_shift(points, 3.0)
    assert len(modes) >= 40
    for seed_block, point_block in ((1, 1), (7, 13)):
        monkeypatch.setattr(segmentation, "_BALL_BLOCK", seed_block)
        monkeypatch.setattr(segmentation, "_POINT_BLOCK", point_block)
        got_modes, got_assignment = segmentation.mean_shift(points, 3.0)
        assert np.array_equal(got_modes, modes)
        assert np.array_equal(got_assignment, assignment)


def test_mean_shift_mode_blocks_bound_memory():
    # 2000 tight blobs keep 2000 modes: seed blocks bound the climb, and
    # point blocks on a tree over the modes bound the assignment, for a
    # 7.2 MB peak; ball queries of all modes at once on a tree over every
    # point peaked at 10.9 MB
    import tracemalloc

    points = _blob_cloud(np.random.default_rng(7), 2000, 50, 12.0, 0.5)
    tracemalloc.start()
    try:
        modes, _ = segmentation.mean_shift(points, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) >= 2000 > segmentation._BALL_BLOCK
    assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"


def test_mean_shift_builds_no_tree_over_every_point(monkeypatch):
    # at bandwidth 12 the climb runs on every 9th point and the assignment
    # on a tree over the modes, so no tree holds more than the sample
    points = _blob_cloud(np.random.default_rng(7), 300, 60, 30.0, 2.0)
    sizes = []

    def spy(data, *args, **kwargs):
        sizes.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr(segmentation, "cKDTree", spy)
    modes, assignment = segmentation.mean_shift(points, 12.0)
    assert len(assignment) == len(points) == 18_000
    assert len(modes) in sizes
    assert max(sizes) <= math.ceil(len(points) / 9)


# the ids are the names these cases are recorded under
@pytest.mark.parametrize("bandwidth", [float("nan"), 0.0],
                         ids=["nan-300-bandwidth", "0.0-300-bandwidth"])
def test_mean_shift_rejects_bad_arguments(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        segmentation.mean_shift(_lattice(4, 1), bandwidth)


@pytest.mark.parametrize("shape", [(4, 3), (5, 3), (12,), (3, 2, 2), (6, 1)])
def test_mean_shift_rejects_points_that_are_not_n_by_2(shape):
    # (4, 3) once reshaped into six 2-D points, (5, 3) into numpy's reshape error
    with pytest.raises(ShapeError, match=r"\(N, 2\) points"):
        segmentation.mean_shift(np.ones(shape), 4.0)


def test_mean_shift_takes_a_bandwidth_whose_square_overflows():
    # (1e200 / 4) ** 2 raises OverflowError: the stride is capped first
    modes, assignment = segmentation.mean_shift(_lattice(4, 1), 1e200)
    assert len(modes) == 1
    assert np.array_equal(assignment, np.zeros(16, np.intp))


def test_mean_shift_rejects_a_bandwidth_too_small_for_its_points():
    # a coordinate over the bandwidth at 2**63 or more overflows the int64
    # bin keys: every point fell into one bin and no mode was left
    points = _lattice(4, 1) * 100.0 + 200.0  # coordinates up to 500
    assert len(segmentation.mean_shift(points, 1e-16)[0]) == 16
    with pytest.raises(ValueError, match=r"bandwidth 1e-17 .* up to 500\.0"):
        segmentation.mean_shift(points, 1e-17)
    with pytest.raises(ValueError, match="bandwidth 1e-300"):
        segmentation.mean_shift(-points, 1e-300)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mean_shift_rejects_non_finite_points(bad):
    points = _lattice(4, 1)
    points[5, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning before the check
        with pytest.raises(ValueError, match="points"):
            segmentation.mean_shift(points, 2.0)


def test_mean_shift_single_point():
    modes, assignment = _assert_same_mean_shift(np.array([[3.25, -7.5]]), 4.0)
    assert np.array_equal(modes, [[3.25, -7.5]])
    assert np.array_equal(assignment, [0])


def test_nearest_mode_keeps_lowest_index_beyond_candidates():
    # twelve modes at distance exactly 5 from the origin, more than the
    # k-d tree candidates, plus four-way ties at the centres of a mode grid
    ring = np.array([(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, 3),
                     (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)], np.float64)
    grid = np.argwhere(np.ones((4, 4))).astype(np.float64) * 6 + 20
    rng = np.random.default_rng(5)
    points = np.concatenate([
        [[0.0, 0.0]],
        np.argwhere(np.ones((3, 3))) * 6 + 23.0,
        rng.uniform(-8.0, 45.0, size=(200, 2)),
    ])
    for _ in range(10):  # the tree's pick among tied modes follows their order
        modes = rng.permutation(np.concatenate([ring, grid]))
        d2 = ((points[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
        got = segmentation._nearest_mode(cKDTree(modes), points, modes)
        assert np.array_equal(got, np.argmin(d2, axis=1))
        assert got[0] == np.flatnonzero(np.abs(modes).sum(axis=1) <= 7).min()
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 4).sum() >= 10


def test_mean_shift_memory_stays_bounded():
    # 90k points around 300 modes: the dense (N, M, 2) float64 table would
    # need 432 MB on its own
    import tracemalloc

    points = _blob_cloud(np.random.default_rng(7), 300, 300, 30.0, 2.0)
    tracemalloc.start()
    try:
        modes, assignment = segmentation.mean_shift(points, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 250 <= len(modes) <= 350
    assert len(assignment) == 90_000
    assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


# ---------------------------------------------------------------------------
# Instances

def _relabel(labels):
    ids, inverse = np.unique(labels, return_inverse=True)
    return (inverse.reshape(labels.shape) + int(ids[0] > 0)).astype(np.int32)


def _shrink_oracle(labels, distance):
    """One whole-image distance transform per instance, on the ids as given.
    Wrong on an instance that fills the whole image: scipy measures that
    one from a phantom background pixel outside the array."""
    lab = np.asarray(labels)
    out = lab.copy()
    for ident in np.unique(lab[lab > 0]):
        mask = lab == ident
        out[mask & (ndimage.distance_transform_edt(mask) <= distance)] = 0
    return _relabel(out)


def _connectivity_oracle(labels):
    """Each spatially connected part of an id, labelled on the whole image."""
    out = np.zeros_like(labels)
    nxt = 0
    for ident in np.unique(labels[labels > 0]):
        comp, ncomp = ndimage.label(labels == ident, structure=np.ones((3, 3), np.int32))
        out[comp > 0] = comp[comp > 0] + nxt
        nxt += ncomp
    return _relabel(out)


def _same_partition(a, b):
    fg = a > 0
    if not np.array_equal(fg, b > 0):
        return False
    pairs = np.unique(np.stack([a[fg], b[fg]]), axis=1)
    return pairs.shape[1] == len(np.unique(a[fg])) == len(np.unique(b[fg]))


def _shrink_scenes():
    rng = np.random.default_rng(3)
    # a Voronoi partition: every instance touches others, many touch the edge
    seeds = rng.uniform(0, 48, size=(9, 2))
    rows, cols = np.indices((48, 40))
    d2 = (rows[..., None] - seeds[:, 0]) ** 2 + (cols[..., None] - seeds[:, 1]) ** 2
    voronoi = np.argmin(d2, axis=2).astype(np.int32) + 1
    cut = voronoi.copy()
    cut[20:23] = 0
    # edge bands, a corner block, touching blocks and a spatially split id
    mixed = np.zeros((40, 52), np.int32)
    mixed[:4, :] = 1
    mixed[-7:, -9:] = 2
    mixed[10:22, 5:15] = 3
    mixed[10:22, 15:24] = 4
    mixed[12:18, 30:36] = 5
    mixed[28:35, 2:9] = 5
    mixed[6:40, 45:52] = 6
    mixed[30:33, 20:23] = 9  # an id gap
    return {
        "voronoi": voronoi,
        "voronoi_cut": cut,
        "mixed": mixed,
        "whole_image": np.full((9, 11), 4, np.int32),
    }


# Shrink distances: each root below and one ulp either side of it, and 0.5,
# 1, 1.5 and 3.  No integer offset has |o|^2 = 3; the root of 13 is the
# smallest sum of two squares whose float root squares to less than itself,
# so it is the one that catches a disc of offsets chosen by |o|^2 <= d^2.
_ROOTS = [math.sqrt(2.0), 2.0, math.sqrt(3.0), math.sqrt(5.0), math.sqrt(13.0), 6.0]
_SHRINK_DISTANCES = sorted({0.5, 1.0, 1.5, 3.0}.union(
    *({r, np.nextafter(r, 0.0), np.nextafter(r, 7.0)} for r in _ROOTS)) - {np.nextafter(6.0, 7.0)})


@pytest.mark.parametrize("distance", _SHRINK_DISTANCES)
@pytest.mark.parametrize("scene", ["voronoi", "voronoi_cut", "mixed", "whole_image"])
def test_shrink_instances_matches_whole_image_edt(scene, distance):
    labels = _shrink_scenes()[scene]
    got = segmentation.shrink_instances(labels, distance)
    assert got.dtype == np.int32
    if scene == "whole_image":
        # no pixel of another id in the array: the instance keeps every pixel
        assert np.array_equal(got, np.ones(labels.shape, np.int32))
    else:
        assert np.array_equal(got, _shrink_oracle(labels, distance))


@pytest.mark.parametrize("distance", _SHRINK_DISTANCES)
def test_shrink_instances_matches_the_oracle_on_random_dense_ids(distance):
    rng = np.random.default_rng(17)
    for shape in [(23, 31), (40, 9), (2, 50)]:
        # random ids with gaps on 3 x 4 blocks, which merge into larger
        # regions, a little background and one-pixel specks that erode away
        coarse = rng.choice([0, 2, 3, 7, 40, 41, 1000], size=(shape[0] // 3 + 1, shape[1] // 4 + 1))
        labels = coarse.repeat(3, axis=0).repeat(4, axis=1)[:shape[0], :shape[1]]
        labels[rng.random(shape) < 0.05] = 99
        assert len(np.unique(labels)) > 2
        got = segmentation.shrink_instances(labels, distance)
        assert got.dtype == np.int32
        assert np.array_equal(got, _shrink_oracle(labels, distance))


@pytest.mark.parametrize("distance", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("shape", [(32, 32), (1, 1), (1, 7), (7, 1), (0, 5), (5, 0)])
def test_shrink_instances_keeps_an_instance_that_fills_the_image(shape, distance):
    got = segmentation.shrink_instances(np.full(shape, 3, np.int64), distance)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.ones(shape, np.int32))


def test_shrink_instances_memory_does_not_grow_with_the_largest_id():
    import tracemalloc

    labels = np.zeros((8, 8), np.int64)
    labels[1:7, 1:7] = 10**7
    tracemalloc.start()
    try:
        got = segmentation.shrink_instances(labels, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _shrink_oracle(labels, 1.0))
    assert got.sum() == 16
    assert peak < 100_000, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("wide", [2**31, 2**32 + 1, 2**40])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_shrink_instances_keeps_ids_wider_than_int32_apart(wide, dtype):
    labels = np.zeros((12, 14), dtype)
    labels[1:11, 1:7] = 1
    labels[1:11, 7:13] = wide  # touches id 1 along a column
    labels[0, :] = 2**64 - 1 if dtype == np.uint64 else 5  # a row that erodes away
    for distance in (1.0, 2.0):
        got = segmentation.shrink_instances(labels, distance)
        assert np.array_equal(got, _shrink_oracle(labels, distance))
        assert got.max() == 2


@pytest.mark.parametrize("distance", [1.0, 2.0, 3.5])
def test_shrink_instances_numbers_survivors_as_relabel_consecutive(distance):
    # ids with gaps, given out of raster order, and thin or small instances
    # that erode away entirely at some distances
    labels = np.zeros((40, 48), np.int32)
    labels[2:14, 2:14] = 41
    labels[2:4, 20:40] = 3  # two pixels thick: gone from 1.0 on
    labels[18:21, 5:8] = 17  # 3 x 3: gone from 2.0 on
    labels[18:34, 16:30] = 9
    labels[25:39, 34:47] = 2
    labels[36:39, 2:10] = 28
    eroded = labels.copy()
    for ident in np.unique(labels[labels > 0]):
        mask = labels == ident
        eroded[mask & (ndimage.distance_transform_edt(mask) <= distance)] = 0
    assert len(np.unique(eroded)) < len(np.unique(labels))  # something eroded away
    got = segmentation.shrink_instances(labels, distance)
    assert got.dtype == np.int32
    assert np.array_equal(got, relabel_consecutive(eroded)[0])


def _large_scene():
    """A 160 x 200 Voronoi partition of 48 cells, wide enough that many rows
    reach every half width of the largest disc, cut by a background row band
    and column band, with a few one-pixel specks of other ids."""
    rng = np.random.default_rng(29)
    seeds = rng.uniform((0, 0), (160, 200), size=(48, 2))
    rows, cols = np.indices((160, 200))
    d2 = (rows[..., None] - seeds[:, 0]) ** 2 + (cols[..., None] - seeds[:, 1]) ** 2
    labels = np.argmin(d2, axis=2).astype(np.int32) * 3 + 2  # ids with gaps
    labels[70:73] = 0
    labels[:, 131:133] = 0
    specks = rng.random(labels.shape) < 0.002
    labels[specks] = rng.integers(1, 200, specks.sum())
    return labels


@pytest.mark.parametrize("distance", _SHRINK_DISTANCES)
def test_shrink_instances_matches_the_oracle_on_a_large_non_square_scene(distance):
    labels = _large_scene()
    for edge in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
        assert len(np.unique(edge[edge > 0])) >= 4  # instances on all four edges
    got = segmentation.shrink_instances(labels, distance)
    assert got.dtype == np.int32
    assert np.array_equal(got, _shrink_oracle(labels, distance))
    if distance == 6.0:
        assert got.max() >= 24  # the largest disc still leaves cores


def test_shrink_instances_memory_stays_within_a_few_planes():
    # touching 32 x 32 blocks of a 1024^2 int32 image, a third of them
    # background: an int64 copy of the labels (8 MB) or the int32 output and
    # a list of the six level planes would exceed the bound
    import tracemalloc

    rows, cols = np.indices((1024, 1024), dtype=np.int32)
    labels = (rows // 32) * 32 + cols // 32 + 1
    labels[labels % 3 == 0] = 0
    tracemalloc.start()
    try:
        got = segmentation.shrink_instances(labels, 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.max() == 1024 - 1024 // 3  # every block keeps a core
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("distance", [0.0, 0.5])
def test_shrink_instances_rejects_bad_ids(distance):
    with pytest.raises(LabelError, match="non-negative"):
        segmentation.shrink_instances([[-1, 1, 1, 2]], distance)
    with pytest.raises(LabelError, match="integers"):
        segmentation.shrink_instances(np.ones((3, 3), np.float32), distance)


def test_shrink_instances_rejects_labels_that_are_not_2d():
    with pytest.raises(ShapeError, match="2-D"):
        segmentation.shrink_instances(np.ones((2, 3, 4), np.int32), 1.0)


@pytest.mark.parametrize("distance", [-1.0, np.nan, np.inf, np.nextafter(6.0, 7.0)])
def test_shrink_instances_rejects_a_negative_or_nan_distance(distance):
    with pytest.raises(ValueError, match="distance must be non-negative"):
        segmentation.shrink_instances(np.ones((12, 12), np.int32), distance)


def test_segment_connectivity_relabel_matches_whole_image_loop():
    rng = np.random.default_rng(11)
    fg = np.zeros((80, 72), bool)
    fg[4:76, 3:70] = rng.random((72, 67)) < 0.8
    field = rng.uniform(-9.0, 9.0, size=(2,) + fg.shape).astype(np.float32)
    config = segmentation.SegmenterConfig(bandwidth=4.0, min_instance_size=3)
    clusters = segmentation.segment(field, fg, config)
    split = segmentation.segment(field, fg, replace(config, connectivity_relabel=True))
    assert split.max() > 2 * clusters.max()
    assert np.array_equal(split, _connectivity_oracle(clusters))


def _centroid_field(labels):
    """Offsets from every foreground pixel to its instance centroid."""
    rows, cols = np.indices(labels.shape, dtype=np.float64)
    counts = np.maximum(np.bincount(labels.ravel()), 1)
    center_r = np.bincount(labels.ravel(), weights=rows.ravel()) / counts
    center_c = np.bincount(labels.ravel(), weights=cols.ravel()) / counts
    fg = labels > 0
    field = np.zeros((2,) + labels.shape, np.float32)
    field[0][fg] = rows[fg] - center_r[labels[fg]]
    field[1][fg] = cols[fg] - center_c[labels[fg]]
    return field, fg


def _segment_oracle(field, fg, config):
    """``segment`` on the image: one id per mode, sizes counted over the
    label image, then the ids renumbered 1..n."""
    labels = np.zeros(fg.shape, np.int32)
    if fg.any():
        centers = np.argwhere(fg).astype(np.float64) - field[:, fg].T
        _, assignment = segmentation.mean_shift(centers, config.bandwidth)
        labels[fg] = assignment.astype(np.int32) + 1
        if config.min_instance_size > 1:
            counts = np.bincount(labels.ravel())
            labels[counts[labels] < config.min_instance_size] = 0
        if config.connectivity_relabel:
            labels = _connectivity_oracle(labels)
    return relabel_consecutive(labels)[0]


def _noisy_disks():
    """Centroid offsets of 16 disks of four sizes (13 to 149 pixels) with
    noise of sigma 1.5, and stray foreground pixels pointing anywhere."""
    rng = np.random.default_rng(5)
    rows, cols = np.indices((90, 90))
    gt = np.zeros((90, 90), np.int32)
    for i, (r, c) in enumerate([(r, c) for r in (12, 34, 56, 78) for c in (12, 34, 56, 78)]):
        radius = (2.0, 3.0, 4.5, 7.0)[i % 4]
        gt[(rows - r) ** 2 + (cols - c) ** 2 <= radius ** 2] = i + 1
    field, fg = _centroid_field(gt)
    field += rng.normal(0.0, 1.5, field.shape).astype(np.float32)
    stray = (rng.random(fg.shape) < 0.02) & ~fg
    field[:, stray] = rng.uniform(-20.0, 20.0, (2, stray.sum())).astype(np.float32)
    return field, fg | stray


@pytest.mark.parametrize("connectivity", [False, True])
@pytest.mark.parametrize("min_size, instances", [(0, 81), (1, 81), (10, 16), (40, 8)])
def test_segment_numbers_instances_as_the_image_path(min_size, instances, connectivity):
    field, fg = _noisy_disks()
    config = segmentation.SegmenterConfig(bandwidth=5.0, min_instance_size=min_size,
                                          connectivity_relabel=connectivity)
    got = segmentation.segment(field, fg, config)
    expected = _segment_oracle(field, fg, config)
    assert got.dtype == expected.dtype == np.int32
    assert np.array_equal(got, expected)
    if not connectivity:
        assert got.max() == instances


def test_segment_clusters_a_non_square_crop_in_raster_order(monkeypatch):
    field, fg = _noisy_disks()
    field, fg = field[:, :, 10:80], fg[:, 10:80]  # 90 x 70 views, not contiguous
    config = segmentation.SegmenterConfig(bandwidth=5.0, min_instance_size=10)
    calls = []

    def spy(points, bandwidth):
        calls.append(np.array(points))
        return mean_shift(points, bandwidth)

    mean_shift = segmentation.mean_shift
    monkeypatch.setattr(segmentation, "mean_shift", spy)
    got = segmentation.segment(field, fg, config)
    assert np.array_equal(calls[0], np.argwhere(fg) - field[:, fg].T)
    assert np.array_equal(got, _segment_oracle(field, fg, config))
    assert got.max() >= 10


def test_segment_of_empty_foreground_is_background():
    field = np.ones((2, 9, 11), np.float32)
    fg = np.zeros((9, 11), bool)
    config = segmentation.SegmenterConfig(min_instance_size=0)
    got = segmentation.segment(field, fg, config)
    assert got.dtype == np.int32 and not got.any()
    assert np.array_equal(got, _segment_oracle(field, fg, config))


@pytest.mark.parametrize("seed", [3, 4])
def test_oracle_field_segments_back_to_ground_truth(seed):
    spec = SceneSpec(height=252, width=252, n_objects=30, seed=seed)
    _, gt = synth_generate(spec)
    field, fg = _centroid_field(gt)
    labels = segmentation.segment(field, fg, segmentation.SegmenterConfig(bandwidth=8.0))
    assert labels.max() == gt.max() == 30
    assert _same_partition(labels, gt)
    # synthetic cells never touch, so each one shrinks as the foreground does
    shrunk = segmentation.shrink_instances(labels, 3.0)
    assert _same_partition(shrunk, np.where(ndimage.distance_transform_edt(fg) > 3.0, gt, 0))


@pytest.mark.parametrize("size", ["abc", -1, 2.5, True, None])
def test_segmenter_config_rejects_bad_min_instance_size(size):
    with pytest.raises(ValueError, match="min_instance_size"):
        segmentation.SegmenterConfig(min_instance_size=size)


@pytest.mark.parametrize("size", [0, 1, np.int64(25)])
def test_segmenter_config_accepts_min_instance_size(size):
    assert segmentation.SegmenterConfig(min_instance_size=size).min_instance_size == size


@pytest.mark.parametrize("field, value", [
    ("noise_rounds", "abc"), ("noise_rounds", 2.5), ("noise_rounds", True),
    ("noise_rounds", 1), ("noise_rounds", None),
    ("bandwidth", "12"), ("bandwidth", float("nan")), ("bandwidth", float("inf")),
    ("bandwidth", 0.0), ("bandwidth", True),
    ("noise_fraction", float("nan")), ("noise_fraction", "0.01"), ("noise_fraction", 0.5),
    ("shrink_distance", float("nan")), ("shrink_distance", "1"), ("shrink_distance", 7.0),
    ("connectivity_relabel", "false"), ("connectivity_relabel", 1),
])
def test_segmenter_config_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        segmentation.SegmenterConfig(**{field: value})


def test_segmenter_config_accepts_numpy_and_int_fields():
    config = segmentation.SegmenterConfig(noise_rounds=np.int64(3), bandwidth=12,
                                          noise_fraction=np.float32(0.02), shrink_distance=6)
    assert config.noise_rounds == 3 and config.bandwidth == 12


# ---------------------------------------------------------------------------
# Bandwidth search

def _seg_oracle(gt_labels, preds):
    """SEG of a set: the mean over all its objects of the IoU with the
    prediction covering more than half of the object, or 0."""
    total, objects = 0.0, 0
    for gt, pred in zip(gt_labels, preds):
        iou, overlap, gt_ids, _, gt_sizes, _ = iou_matrix(gt, pred)
        objects += len(gt_ids)
        for g in range(len(gt_ids)):
            covering = np.flatnonzero(overlap[g] * 2 > gt_sizes[g])
            if len(covering):
                total += float(iou[g, covering[0]])
    return total / objects


def _sweep_oracle(params, images, gt_labels, bandwidths, metric, seed):
    """The search written out: F1 from TP/FP/FN pooled over images, or SEG
    pooled over all objects, for every bandwidth and shrink 0..6."""
    rows = []
    for bw in bandwidths:
        config = segmentation.SegmenterConfig(bandwidth=bw)
        base = []
        for i, img in enumerate(images):
            field = predict_full(params, img)
            var = segmentation.embedding_variance(params, img, config, seed=seed + i)
            base.append(segmentation.segment(field, segmentation.detect_foreground(var), config))
        for s in range(7):
            preds = [segmentation.shrink_instances(lab, s) for lab in base]
            if metric == "f1":
                tp = fp = fn = 0
                for gt, pred in zip(gt_labels, preds):
                    m = Tally(0.5).add(gt, pred)
                    tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
                score = scores_from_counts(tp, fp, fn)["f1"]
            else:
                score = _seg_oracle(gt_labels, preds)
            rows.append((bw, float(s), score))
    return rows


@pytest.mark.parametrize("metric", ["f1", "seg"])
def test_bandwidth_search_rows_match_oracle(small_params, monkeypatch, metric):
    # the search's bookkeeping, not the climb: every point climbs
    monkeypatch.setattr(segmentation, "_SAMPLE_BALL", math.inf)
    spec = SceneSpec(height=64, width=64, n_objects=4, radius_range=(5.0, 8.0))
    scenes = generate_dataset(spec, 2, seed=1)
    images = [img for img, _ in scenes]
    gts = [lab for _, lab in scenes]
    bandwidths = [8.0, 12.0]
    best_bw, best_s, rows = segmentation.bandwidth_search(
        small_params, zip(images, gts), bandwidths, metric=metric, seed=3,
    )
    expected = _sweep_oracle(small_params, images, gts, bandwidths, metric, 3)
    assert rows == expected
    assert len({score for _, _, score in rows}) > 2  # the scores are not all alike
    top = max(score for _, _, score in rows)
    assert (best_bw, best_s) == next((bw, s) for bw, s, score in rows if score == top)


def test_bandwidth_search_holds_one_image_at_a_time(small_params):
    # four copies of one image peak above one copy by less than one image's
    # field and foreground: no stage, labels or prediction outlives its image
    import tracemalloc

    spec = SceneSpec(height=96, width=96, n_objects=6, radius_range=(6.0, 9.0))
    image, gt = generate_dataset(spec, 1, seed=2)[0]
    stage = 2 * 4 * gt.size + gt.size  # float32 (2, H, W) field and bool foreground

    def peak(copies):
        images, gts = [image.copy() for _ in range(copies)], [gt.copy() for _ in range(copies)]
        tracemalloc.start()
        try:
            segmentation.bandwidth_search(small_params, zip(images, gts), [8.0, 12.0], seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches are not the search's
    one, four = peak(1), peak(4)
    assert four - one < stage, f"grew {(four - one) / 1e3:.1f} kB, one stage is {stage / 1e3:.1f} kB"


@pytest.mark.parametrize("kwargs, message", [
    ({"candidates": []}, "no bandwidth candidates"),
    ({"candidates": [8.0, 0.0]}, "bandwidth"),
    ({"metric": "dice"}, "unknown metric"),
    ({"iou_threshold": 0.0}, "IoU threshold"),
])
def test_bandwidth_search_checks_its_arguments_before_the_first_image(small_params, kwargs,
                                                                     message):
    def samples():
        raise AssertionError("an image was drawn")
        yield

    with pytest.raises(ValueError, match=message):
        segmentation.bandwidth_search(small_params, samples(), **{"candidates": [8.0], **kwargs})


def test_bandwidth_search_rejects_an_empty_set(small_params):
    with pytest.raises(ValueError, match="empty validation set"):
        segmentation.bandwidth_search(small_params, iter(()), [8.0])
