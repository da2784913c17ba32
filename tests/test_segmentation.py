import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from oceseg import (
    DegenerateError,
    LabelError,
    ModelConfig,
    SceneSpec,
    ShapeError,
    generate_dataset,
    init_params,
    iou_matrix,
    match_at_threshold,
    predict_full,
    scores_from_counts,
    synth_generate,
)
from oceseg import segmentation
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


def _check_tiled_equals_single_pass(params, monkeypatch, shape, tile):
    img = np.random.default_rng(sum(shape)).normal(size=(1,) + shape).astype(np.float32)
    calls = _counting_forward(monkeypatch)
    single = predict_full(params, img, tile=2 * max(shape))
    assert len(calls) == 1
    del calls[:]
    tiled = predict_full(params, img, tile=tile)
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


@pytest.mark.parametrize("tile", [16, 18, 51, 253])
def test_predict_full_rejects_bad_tile(small_params, tile):
    img = np.zeros((1, 60, 60), np.float32)
    with pytest.raises(ShapeError, match="tile"):
        predict_full(small_params, img, tile=tile)


def test_predict_full_rejects_a_field_that_overflows():
    # finite weights: on a blank image dec3 outputs its bias, 1, and the head
    # multiplies it by the float32 maximum
    params = init_params(ModelConfig(base_fmaps=4), 0)
    params["dec3.b"].data[...] = 1.0
    params["head.w"].data[...] = np.finfo(np.float32).max
    with pytest.raises(DegenerateError, match="offset field is not finite"):
        predict_full(params, np.zeros((1, 60, 60), np.float32))


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


def test_embedding_variance_memory_stays_bounded(monkeypatch):
    # at 2048^2 and five rounds the float32 stack alone is 168 MB; a list of
    # rounds plus np.stack and whole-stack float64 temporaries peaked at 822 MB
    import tracemalloc

    def stub(params, image):  # a cheap deterministic field that follows the noise
        return np.stack([ndimage.uniform_filter(image[0], 7), image[0] * 0.5])

    monkeypatch.setattr(segmentation, "predict_full", stub)
    config = segmentation.SegmenterConfig()
    image = np.random.default_rng(0).random((1, 2048, 2048), dtype=np.float32)
    tracemalloc.start()
    try:
        var = segmentation.embedding_variance(None, image, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300e6, f"peak {peak / 1e6:.0f} MB"
    stack = np.empty((config.noise_rounds, 2) + image.shape[1:], np.float32)
    for r in range(config.noise_rounds):
        rng = np.random.default_rng([3, r])
        stack[r] = stub(None, segmentation.salt_pepper(image, config.noise_fraction, rng))
    assert np.array_equal(var, np.var(stack, axis=0, ddof=1, dtype=np.float64).sum(axis=0))
    assert (var > 0).mean() > 0.5


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


# ---------------------------------------------------------------------------
# Mean shift

def mean_shift_reference(points, bandwidth: float, max_iter: int = 300):
    """Brute-force O(N^2 * iterations) twin of :func:`mean_shift`."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise ShapeError("mean_shift needs at least one point")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
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
    modes = np.asarray(modes)
    supports = np.asarray(supports)

    rank = np.lexsort((modes[:, 1], modes[:, 0], -supports))
    kept: list[np.ndarray] = []
    for i in rank:
        if all(np.hypot(*(modes[i] - m)) >= bandwidth for m in kept):
            kept.append(modes[i])
    modes = np.asarray(kept)

    d2 = ((pts[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
    assignment = np.argmin(d2, axis=1)
    return modes, assignment


def _blob_cloud(rng, n_blobs, per_blob, spacing, sigma):
    side = int(np.ceil(np.sqrt(n_blobs)))
    grid = np.argwhere(np.ones((side, side)))[:n_blobs] * spacing
    centers = grid + rng.uniform(-spacing / 4, spacing / 4, size=grid.shape)
    return (np.repeat(centers, per_blob, axis=0)
            + rng.normal(0.0, sigma, size=(n_blobs * per_blob, 2)))


def _assert_same_mean_shift(points, bandwidth, max_iter=300):
    modes, assignment = segmentation.mean_shift(points, bandwidth, max_iter)
    ref_modes, ref_assignment = mean_shift_reference(points, bandwidth, max_iter)
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


def _shared_mode_cloud():
    # six wide blobs at a small bandwidth: about ten bin seeds climb to each mode
    return _blob_cloud(np.random.default_rng(4), 6, 500, 40.0, 4.0)


# climbs cut off before they converge keep the position they reached
@pytest.mark.parametrize("max_iter", [1, 2, 3, 20, 23])
def test_mean_shift_matches_reference_at_truncated_iterations(max_iter):
    _assert_same_mean_shift(_shared_mode_cloud(), 3.0, max_iter)


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
    got = segmentation._assign(cKDTree(points), points, modes, bandwidth)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmin(d2, axis=1))
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 2).any()


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
        monkeypatch.setattr(segmentation, "_SEED_BLOCK", block)
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
    for name in ("_MODE_BLOCK", "_REST_BLOCK"):  # one block for all
        monkeypatch.setattr(segmentation, name, len(points))
    modes, assignment = _assert_same_mean_shift(points, 3.0)
    assert len(modes) >= 40
    for mode_block, rest_block in ((1, 1), (7, 13)):
        monkeypatch.setattr(segmentation, "_MODE_BLOCK", mode_block)
        monkeypatch.setattr(segmentation, "_REST_BLOCK", rest_block)
        got_modes, got_assignment = segmentation.mean_shift(points, 3.0)
        assert np.array_equal(got_modes, modes)
        assert np.array_equal(got_assignment, assignment)


def test_mean_shift_mode_blocks_bound_memory():
    # 2000 tight blobs keep 2000 modes, and a half-bandwidth ball holds nearly
    # all of a blob: assigning every mode at once held each point's index,
    # coordinates and distance terms together and peaked at 10.9 MB, blocks
    # of 256 modes (and no bin keys held through the climb) at 7.2 MB
    import tracemalloc

    points = _blob_cloud(np.random.default_rng(7), 2000, 50, 12.0, 0.5)
    tracemalloc.start()
    try:
        modes, _ = segmentation.mean_shift(points, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) >= 2000 > segmentation._MODE_BLOCK
    assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("bandwidth, max_iter, name", [
    (float("nan"), 300, "bandwidth"),
    (0.0, 300, "bandwidth"),
    (2.0, 0, "max_iter"),
    (2.0, -1, "max_iter"),
])
def test_mean_shift_rejects_bad_arguments(bandwidth, max_iter, name):
    with pytest.raises(ValueError, match=name):
        segmentation.mean_shift(_lattice(4, 1), bandwidth, max_iter)


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
        got = segmentation._nearest_mode(points, modes)
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
    ids = np.unique(labels)
    lut = np.zeros(int(labels.max()) + 1, np.int32)
    lut[ids[ids > 0]] = np.arange(1, (ids > 0).sum() + 1)
    return lut[labels]


def _shrink_oracle(labels, distance):
    """One whole-image distance transform per instance."""
    lab = np.asarray(labels).astype(np.int32)
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


@pytest.mark.parametrize("distance", [0.5, 1.0, 1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("scene", ["voronoi", "voronoi_cut", "mixed", "whole_image"])
def test_shrink_instances_matches_whole_image_edt(scene, distance):
    labels = _shrink_scenes()[scene]
    got = segmentation.shrink_instances(labels, distance)
    assert got.dtype == np.int32
    assert np.array_equal(got, _shrink_oracle(labels, distance))


@pytest.mark.parametrize("distance", [0.0, 0.5])
def test_shrink_instances_rejects_bad_ids(distance):
    with pytest.raises(LabelError, match="non-negative"):
        segmentation.shrink_instances([[-1, 1, 1, 2]], distance)
    with pytest.raises(LabelError, match="integers"):
        segmentation.shrink_instances(np.ones((3, 3), np.float32), distance)


@pytest.mark.parametrize("distance", [-1.0, np.nan])
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
    with pytest.raises(ValueError, match=field):
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
                    m = match_at_threshold(gt, pred, 0.5)
                    tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
                score = scores_from_counts(tp, fp, fn)["f1"]
            else:
                score = _seg_oracle(gt_labels, preds)
            rows.append((bw, float(s), score))
    return rows


@pytest.mark.parametrize("metric", ["f1", "seg"])
def test_bandwidth_search_rows_match_oracle(small_params, metric):
    spec = SceneSpec(height=64, width=64, n_objects=4, radius_range=(5.0, 8.0))
    scenes = generate_dataset(spec, 2, seed=1)
    images = [img for img, _ in scenes]
    gts = [lab for _, lab in scenes]
    bandwidths = [8.0, 12.0]
    best_bw, best_s, rows = segmentation.bandwidth_search(
        small_params, images, gts, bandwidths, metric=metric, seed=3,
    )
    expected = _sweep_oracle(small_params, images, gts, bandwidths, metric, 3)
    assert rows == expected
    assert len({score for _, _, score in rows}) > 2  # the scores are not all alike
    top = max(score for _, _, score in rows)
    assert (best_bw, best_s) == next((bw, s) for bw, s, score in rows if score == top)
