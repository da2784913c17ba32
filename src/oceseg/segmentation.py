"""From dense offset fields to instance masks.

Pipeline: tiled full-image inference, noise-variance background detection
with an Otsu split, mean-shift clustering of per-pixel center estimates
c_i = i - r_i, small-instance removal and distance-based shrinkage.

Inference splits each axis into the fewest tiles no larger than the
``_TILE`` cap and balances their sides, so little of a tile's work is
thrown away on the overlap; tiled inference equals one pass bit for bit.
One driver, ``_bands``, predicts the clean field and the noise rounds band
by band, top to bottom, a band being one tile row, and holds n inputs x
one band; the noise rounds reduce each band's new rows in row chunks, so
their float64 temporaries do not grow with the image.
Mean-shift finds its modes on a sample, every s-th center estimate with
s = max(1, floor((bandwidth / 4) ** 2)), so a ball of the sample holds
about as many points as a full-cloud ball of radius 4; the assignment
still covers every point.  It climbs its seeds in lockstep blocks, one
batched ball query per step for a block, so the ball lists held at once
stay bounded, and merges near-duplicate modes through the list of close
pairs.  Kept modes are at least a bandwidth apart, so a point strictly
within half a bandwidth of a mode is nearer to it than to any other.  A
grid over the kept modes proposes each point's mode, a block of points at
a time: a cell names the one mode whose half-bandwidth disc meets it, and
the point's squared distance confirms the proposal.  Only the points it
leaves are searched, through one tree over the kept modes.  No tree is
built over more than the sample, and the grid has at most max(N, 4096)
cells.
The shrink erodes every instance at once by a disc taken as row segments:
each pixel's run of its own id along each axis is measured once, up to the
distance, and a pixel survives when its column run spans the disc and each
disc row's run spans that row's half width; the ids are compared twice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .autodiff import Tensor
from .data import check_labels, relabel_consecutive, rescale_labels
from .errors import ConfigError, DegenerateError, ShapeError, check_bool, check_int, check_real
from .metrics import Tally
from .network import CONTEXT, ModelParams, check_image, forward


MAX_SHRINK = 6  # largest shrink distance, and the last one bandwidth_search tries
_TILE = 252  # cap on the side of an inference tile


@dataclass(frozen=True)
class SegmenterConfig:
    noise_rounds: int = 5          # independent corruptions for the variance map
    noise_fraction: float = 0.01   # pixel fraction hit by salt-and-pepper noise
    bandwidth: float = 10.0        # mean-shift kernel radius, pixels
    shrink_distance: float = 0.0   # erosion depth applied to final instances
    min_instance_size: int = 10
    connectivity_relabel: bool = False

    def __post_init__(self):
        check_int("noise_rounds", self.noise_rounds, 2)
        check_int("min_instance_size", self.min_instance_size, 0)
        for name in ("noise_fraction", "bandwidth", "shrink_distance"):
            check_real(name, getattr(self, name))
        if not 0 < self.noise_fraction < 0.5:
            raise ConfigError(f"noise_fraction must be in (0, 0.5), got {self.noise_fraction!r}")
        if self.bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if not 0 <= self.shrink_distance <= MAX_SHRINK:
            raise ConfigError(
                f"shrink_distance must be in [0, {MAX_SHRINK}], got {self.shrink_distance!r}")
        check_bool("connectivity_relabel", self.connectivity_relabel)


# ---------------------------------------------------------------------------
# Dense inference

def _tile_plan(size: int, cap: int) -> tuple[int, list[int]]:
    """Side and origins of the tiles along one padded axis of even ``size``.

    The fewest tiles of side at most the even ``cap`` that cover the axis,
    n = ceil((size - CONTEXT) / (cap - CONTEXT)), share its valid extent
    evenly: the side is CONTEXT + ceil((size - CONTEXT) / n), rounded up to
    even.  The side and every origin are then even, and a cap of at least
    ``size`` gives one tile of side ``size``.
    """
    n = -(-(size - CONTEXT) // (cap - CONTEXT))
    side = CONTEXT + -(-(size - CONTEXT) // n)
    side += side % 2
    return side, list(range(0, size - side, side - CONTEXT)) + [size - side]


def _axis_plan(n: int, tile: int) -> tuple[np.ndarray, int, list[int]]:
    """Padded grid along one image axis of ``n`` lines: the source line of
    every padded line, the tile side and the tile origins (``_tile_plan``).

    The axis is reflect-padded by half the context margin on each side;
    when that leaves it odd, one more reflected line makes it even, so that
    valid convolutions see even tile sides.  Gathering an image through
    these maps gives the pixels of ``np.pad(..., mode="reflect")``.
    """
    idx = np.pad(np.arange(n), CONTEXT // 2, mode="reflect")
    idx = np.pad(idx, (0, len(idx) % 2), mode="reflect")
    return (idx, *_tile_plan(len(idx), tile))


def _bands(params: ModelParams, image, inputs, n: int):
    """Offset fields of the n images ``inputs(0)`` .. ``inputs(n - 1)``, all
    of ``image``'s (C, H, W) shape, band by band, top to bottom.

    A band is one tile row of the ``_axis_plan`` grid at ``_TILE``.  Each
    input's band is gathered through the padded index maps and its tiles run
    into one float32 (n, 2, band rows, padded W - CONTEXT) buffer that every
    band reuses, so n x one band is held.  Tiles keep their full valid
    interior, so the fields equal one untiled pass bit for bit.  Yields
    (a, b, fields), the (n, 2, b - a, W) view of the image rows a..b that no
    earlier band yielded; the next band overwrites it.  The forwards run
    with numpy's overflow and invalid-value warnings off, and new rows
    holding NaN or inf raise :class:`DegenerateError`, the only report of a
    model that overflows.
    """
    check_image(image, params.config.in_channels)
    _, H, W = image.shape
    rows, Th, row_starts = _axis_plan(H, _TILE)
    cols, Tw, col_starts = _axis_plan(W, _TILE)
    band = np.empty((n, 2, Th - CONTEXT, len(cols) - CONTEXT), np.float32)
    done = 0
    for r0 in row_starts:
        for i in range(n):
            padded = inputs(i)[:, rows[r0:r0 + Th, None], cols]
            with np.errstate(over="ignore", invalid="ignore"):
                for c0 in col_starts:
                    block = Tensor(padded[:, :, c0:c0 + Tw])
                    band[i, :, :, c0:c0 + Tw - CONTEXT] = forward(params, block).data
        stop = min(r0 + Th - CONTEXT, H)
        fields = band[:, :, done - r0:stop - r0, :W]
        if not np.isfinite(fields).all():
            raise DegenerateError("offset field is not finite: it holds NaN or inf values")
        yield done, stop, fields
        done = stop


def predict_full(params: ModelParams, image) -> np.ndarray:
    """Offset field aligned to the input grid: (2, H, W) for a (C, H, W) image.

    The image is reflect-padded by half the context margin (``_axis_plan``)
    and predicted band by band (``_bands``), one band of it and of its field
    held besides the result.  Per axis, the fewest tiles no larger than
    ``_TILE`` that cover the image share it evenly (``_tile_plan``): a
    512x512 image runs nine 188x188 tiles rather than nine of 252x252.
    Every tile side and origin is even, so each tile keeps the max-pool
    phase of the whole image and the result, a C-contiguous array of its
    own, equals one untiled pass bit for bit.
    A field holding NaN or inf raises :class:`DegenerateError`.
    """
    img = np.asarray(image, dtype=np.float32)
    out = np.empty((2,) + img.shape[1:], np.float32)
    for a, b, fields in _bands(params, img, lambda i: img, 1):
        out[:, a:b] = fields[0]
    return out


def salt_pepper(image, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """A copy of the (C, H, W) image with floor(fraction*H*W/2) random pixels
    set to 0.0 and as many to 1.0.

    The two sets are disjoint; a hit pixel is overwritten in all channels.
    """
    img = np.array(image, dtype=np.float32, copy=True)
    _, H, W = img.shape
    m = int(fraction * H * W / 2)
    if m > 0:
        flat = rng.choice(H * W, size=2 * m, replace=False)
        rows, cols = np.divmod(flat, W)
        img[:, rows[:m], cols[:m]] = 0.0
        img[:, rows[m:], cols[m:]] = 1.0
    return img


_VARIANCE_ROWS = 64  # image rows per chunk of embedding_variance's float64 work


def embedding_variance(params: ModelParams, image, config: SegmenterConfig,
                       seed: int = 0) -> np.ndarray:
    """Per-pixel variance of the offset field across noisy re-predictions.

    Runs ``config.noise_rounds`` independent salt-and-pepper corruptions of
    the (C, H, W) image at ``config.noise_fraction``, round r drawn from
    ``default_rng([seed, r])``, predicts each, and sums the per-channel
    unbiased sample variances into one (H, W) map.

    The rounds are predicted by ``_bands``, the driver of ``predict_full``,
    band by band, top to bottom.  For each band every round is corrupted
    afresh (the noise goes in before the pad, so mirrored pixels carry it),
    so the memory held is rounds x one band, not rounds x the image, plus
    one noisy copy of the image at a time.  Each band's new rows go through
    the float64 variance ``_VARIANCE_ROWS`` rows at a time.  Tiles equal
    one pass and each pixel's arithmetic is that of the whole-stack
    formula, so the map is the same bit for bit.
    """
    img = np.asarray(image, dtype=np.float32)

    def noisy(r):  # the noisy copy of the whole image dies once its band is gathered
        return salt_pepper(img, config.noise_fraction, np.random.default_rng([seed, r]))

    var = np.empty(img.shape[1:], np.float64)
    for a, b, fields in _bands(params, img, noisy, config.noise_rounds):
        for c in range(a, b, _VARIANCE_ROWS):
            e = min(c + _VARIANCE_ROWS, b)
            chunk = fields[:, :, c - a:e - a]
            var[c:e] = np.var(chunk, axis=0, ddof=1, dtype=np.float64).sum(axis=0)
    return var


# ---------------------------------------------------------------------------
# Foreground detection

def otsu_threshold(values) -> float:
    """Histogram threshold maximizing between-class variance; ties take the
    lowest boundary.  Returns a bin edge of the 256-bin histogram over
    [min, max]."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise DegenerateError("empty input")
    vmin, vmax = float(flat.min()), float(flat.max())
    if not (np.isfinite(vmin) and np.isfinite(vmax)):  # min and max carry any NaN or inf
        raise DegenerateError("map is not finite: it holds NaN or inf values")
    if vmin == vmax:
        raise DegenerateError("constant input has no threshold")
    if not (np.diff(np.linspace(vmin, vmax, 257)) > 0).all():  # np.histogram's own test
        raise DegenerateError(f"map's range [{vmin!r}, {vmax!r}] is too narrow for 256 bins")
    counts, edges = np.histogram(flat, bins=256, range=(vmin, vmax))
    centers = 0.5 * (edges[:-1] + edges[1:])
    w = counts.astype(np.float64)
    total = w.sum()
    cum_w = np.cumsum(w)
    cum_m = np.cumsum(w * centers)
    w0 = cum_w[:-1]
    w1 = total - w0
    mean_all = cum_m[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = cum_m[:-1] / w0
        mu1 = (mean_all - cum_m[:-1]) / w1
        bcv = w0 * w1 * (mu0 - mu1) ** 2
    bcv = np.where((w0 > 0) & (w1 > 0), bcv, 0.0)
    best = int(np.argmax(bcv))  # first maximum = lowest boundary on ties
    return float(edges[best + 1])


def detect_foreground(variance_map) -> np.ndarray:
    """Stable (low-variance) pixels are structure; high variance is background."""
    var = np.asarray(variance_map)
    return var <= otsu_threshold(var)


# ---------------------------------------------------------------------------
# Mean shift

_BALL_BLOCK = 256  # climbing seeds per query_ball_point call
_POINT_BLOCK = 65536  # points, (mode, cell) pairs or point-mode distances handled at once
_MAX_ITER = 300  # steps a seed climbs at most
_SAMPLE_BALL = 4.0  # radius of the full-cloud ball a sample's bandwidth ball stands for


def _balls(tree, centers, radius: float):
    """(counts, idx): how many points lie within ``radius`` of each center,
    and their sorted indices concatenated in center order.  scipy builds
    the balls as lists of Python ints; they are freed on return."""
    balls = tree.query_ball_point(centers, radius, return_sorted=True)
    counts = np.fromiter(map(len, balls), np.int64, len(balls))
    return counts, np.fromiter(itertools.chain.from_iterable(balls), np.intp, counts.sum())


def _group_means(columns, ids, counts) -> np.ndarray:
    """(K, 2) means per id in 0..K-1 of L points given as the (2, L) rows of
    their coordinates.  ``np.bincount`` adds each id's points in index order,
    so a mean is bit-equal to ``pts[idx].mean(axis=0)``."""
    sums = [np.bincount(ids, weights=c, minlength=len(counts)) for c in columns]
    return np.stack(sums, axis=1) / counts[:, None]


def _climb(tree, columns, seeds, bandwidth: float) -> np.ndarray:
    """End positions of the ``seeds`` that took a step, in seed order: each
    step moves every still-climbing seed to the mean of its ball, one
    batched ball query for all of them."""
    pos = seeds.copy()
    stepped = np.zeros(len(pos), bool)
    active = np.arange(len(pos))
    for _ in range(_MAX_ITER):
        counts, idx = _balls(tree, pos[active], bandwidth)
        active, counts = active[counts > 0], counts[counts > 0]
        if len(active) == 0:
            break
        new = _group_means(columns[:, idx], np.repeat(np.arange(len(active)), counts), counts)
        diff = new - pos[active]
        pos[active] = new
        stepped[active] = True
        active = active[np.hypot(diff[:, 0], diff[:, 1]) >= 1e-3 * bandwidth]
    return pos[stepped]


def _bin_seeds(pts, columns, bandwidth: float) -> np.ndarray:
    """Means of the points in each bandwidth-sized grid bin, in lexicographic
    bin order; the per-point bin keys die on return, before the climb."""
    keys = np.floor(pts / bandwidth).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    new_bin = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    bins = np.empty(len(pts), np.intp)
    bins[order] = np.concatenate([[0], np.cumsum(new_bin)])
    return _group_means(columns, bins, np.bincount(bins))


def _sample_stride(bandwidth: float, n: int) -> int:
    """s = max(1, floor((bandwidth / _SAMPLE_BALL) ** 2)), capped at n.

    A ball of the bandwidth over every s-th point then holds about as many
    points as a ball of radius ``_SAMPLE_BALL`` over all of them.  The
    square is only taken below n, where it cannot overflow."""
    ratio = bandwidth / _SAMPLE_BALL
    return n if ratio >= n else max(1, min(n, int(ratio * ratio)))


def _merge(modes, supports, bandwidth: float) -> np.ndarray:
    """The modes kept when, in order of larger support (then lower
    coordinates), each mode is kept unless a kept mode lies closer than the
    bandwidth by ``np.hypot``; kept modes come in that order.

    A tree over the modes lists the pairs within bandwidth * (1 + 1e-6),
    which holds every pair ``np.hypot`` finds closer than the bandwidth;
    each pair is confirmed by ``np.hypot``.  A mode then needs only the
    modes ranked before it among its confirmed partners."""
    rank = np.lexsort((modes[:, 1], modes[:, 0], -supports))
    place = np.empty(len(rank), np.intp)
    place[rank] = np.arange(len(rank))
    pairs = cKDTree(modes).query_pairs(bandwidth * (1 + 1e-6), output_type="ndarray")
    diff = modes[pairs[:, 0]] - modes[pairs[:, 1]]
    pairs = np.sort(place[pairs[np.hypot(diff[:, 0], diff[:, 1]) < bandwidth]], axis=1)
    earlier, later = pairs[np.argsort(pairs[:, 1])].T
    heads, starts = np.unique(later, return_index=True)
    kept = np.ones(len(rank), bool)
    for head, a, b in zip(heads, starts, np.r_[starts[1:], len(later)]):
        # heads rise in rank, so every partner ranked before a head is settled
        kept[head] = not kept[earlier[a:b]].any()
    return modes[rank[kept]]


def mean_shift(points, bandwidth: float):
    """Flat-kernel mean-shift over (N, 2) points.

    The modes come from a sample, every s-th point in input order, with
    s = max(1, floor((bandwidth / 4) ** 2)) capped at N (``_sample_stride``,
    the 4 being ``_SAMPLE_BALL``): a bandwidth ball of the sample then holds
    about as many points as a full-cloud ball of radius 4.  Seeds are the
    per-bin means of the sample on a bandwidth-sized grid.  Each seed climbs
    to the mean of the sample points within the bandwidth until the shift
    drops below 1e-3 * bandwidth, its ball is empty or it has taken
    ``_MAX_ITER`` steps; a seed whose first ball is empty gives no mode.
    Seeds climb in lockstep blocks of ``_BALL_BLOCK``, which bounds the ball
    lists held at once and changes no mode.  Modes closer than the bandwidth
    merge, keeping the mode with larger support in the sample (``_merge``).
    Every point, sampled or not, goes to its nearest mode by the squared
    distance ``((p - m) ** 2).sum()``, and a point equally near several
    modes goes to the one with the lowest index, as ``np.argmin`` over all
    modes would choose.

    The merge leaves the kept modes pairwise at least a bandwidth apart, so
    a point strictly within half a bandwidth of a mode is nearest to that
    mode alone.  The assignment (``_assign``) proposes that mode from a grid
    of the modes' half-bandwidth discs (``_mode_grid``), one lookup per
    point, and confirms it by the squared distance.  Only the points it
    leaves go through the nearest-mode search (``_nearest_mode``) on one
    tree over the kept modes.

    The seed bins are keyed by floor(p / bandwidth) in int64, so a bandwidth
    that puts the largest |coordinate| at 2**63 bins or more raises
    ``ValueError`` naming both.

    Returns (modes (M, 2), assignment (N,)).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"mean_shift needs (N, 2) points, got shape {pts.shape}")
    if len(pts) < 1:
        raise ShapeError("mean_shift needs at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite, got NaN or inf coordinates")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    extent = float(np.abs(pts).max())
    if extent / float(bandwidth) >= 2.0 ** 63:  # the bin keys would overflow int64
        raise ValueError(f"bandwidth {bandwidth!r} is too small for coordinates up to {extent!r}")
    stride = _sample_stride(bandwidth, len(pts))
    sample = pts[::stride]
    columns = np.ascontiguousarray(sample.T)
    seeds = _bin_seeds(sample, columns, bandwidth)

    tree = cKDTree(sample)
    modes = np.concatenate([
        _climb(tree, columns, seeds[s:s + _BALL_BLOCK], bandwidth)
        for s in range(0, len(seeds), _BALL_BLOCK)
    ])
    supports = tree.query_ball_point(modes, bandwidth, return_length=True)
    modes = _merge(modes, supports, bandwidth)
    return modes, _assign(pts, modes, bandwidth)


def _mode_grid(modes, r: float, cells: int):
    """(origin, width, table): a grid of square cells of side ``width`` from
    ``origin`` over the modes' bounding box grown by ``r``, and the (rows,
    cols) ``table`` of each cell's proposal: the index of the one mode whose
    r-disc meets the cell, or M when no disc or more than one does.

    Cells are r / 2 wide, widened by the least factor f >= 1 that keeps the
    grid within ``cells`` cells: with the box's sides a and b counted in
    cells of r / 2, f is the root of (a / f + 1) * (b / f + 1) = cells,
    taken through ``math.hypot`` so that no side is squared.  A disc meets a
    cell when its centre lies within r * (1 + 1e-6) of the cell, measured in
    cell units; the margin covers the rounding of those units.  A cell
    marked in excess only adds a conflict or a proposal that the check of
    ``_assign`` rejects, so no rounding here can change an assignment.
    Modes are marked in blocks of at most ``_POINT_BLOCK`` (mode, cell)
    pairs, which bounds the memory held at once.
    """
    m = len(modes)
    origin = modes.min(axis=0) - r
    extent = modes.max(axis=0) + r - origin
    a, b = map(float, extent / (0.5 * r))
    root = math.hypot(a + b, 2 * math.sqrt(a) * math.sqrt(b) * math.sqrt(cells - 1))
    width = 0.5 * r * max(1.0, (a + b + root) / (2 * (cells - 1)))
    shape = np.floor(extent / width).astype(np.intp) + 1
    rho = r / width * (1 + 1e-6)  # the disc's radius in cells, with the margin
    span = int(2 * rho) + 2  # cells a disc can meet along one axis
    centres = (modes - origin) / width
    first = np.floor(centres - rho).astype(np.intp)
    counts = np.zeros(shape[0] * shape[1], np.intp)
    table = np.empty(len(counts), np.intp)
    per_block = max(1, _POINT_BLOCK // (span * span))
    for start in range(0, m, per_block):
        u = centres[start:start + per_block, :, None]
        idx = first[start:start + per_block, :, None] + np.arange(span)  # (B, 2, span)
        gap = np.maximum(np.maximum(idx - u, u - (idx + 1)), 0.0)  # centre to cell, per axis
        inside = (idx >= 0) & (idx < shape[:, None])
        hit = np.hypot(gap[:, 0, :, None], gap[:, 1, None, :]) <= rho
        hit &= inside[:, 0, :, None] & inside[:, 1, None, :]
        cell = (idx[:, 0, :, None] * shape[1] + idx[:, 1, None, :])[hit]
        counts += np.bincount(cell, minlength=len(counts))
        table[cell] = np.nonzero(hit)[0] + start
    table[counts != 1] = m
    return origin, width, table.reshape(shape)


def _sq_dist(pts, modes) -> np.ndarray:
    """``((pts - modes) ** 2).sum(axis=-1)`` bit for bit, for (..., 2)
    arrays that broadcast, from the coordinate columns: the same two
    squares, added once, without the (..., 2) difference array."""
    dr = pts[..., 0] - modes[..., 0]
    dc = pts[..., 1] - modes[..., 1]
    return dr * dr + dc * dc


def _assign(pts, modes, bandwidth: float) -> np.ndarray:
    """Nearest mode of every point, as ``_nearest_mode`` gives it, for
    ``modes`` pairwise at least ``bandwidth`` apart by ``np.hypot``.

    The grid of ``_mode_grid`` at r = 0.5 * bandwidth * (1 - 1e-9), with at
    most max(N, 4096) cells, proposes for each point the entry of its cell
    (a point outside the grid looks up the nearest edge cell), either a
    mode or none (index M); the squared distance ``((p - m) ** 2).sum() <=
    r * r`` confirms it.  Every other mode is at least 2r / (1 - 1e-9) from
    a confirmed point's mode, so at least r * (1 + 2e-9) from the point, and
    at most one mode lies within r of any point.  The rounding of the
    squared distances, of the merge's ``np.hypot`` and of r is a few units
    in 2**-53 of the values, at image coordinates as at any scale, far
    inside that margin, so a confirmed mode is the unique argmin.  The
    grid's cell coordinates may round at the scale of the whole cloud; they
    only decide which points get a proposal.  A point left unconfirmed gets
    the exact argmin from ``_nearest_mode`` on a tree over the modes.
    Points go through in blocks of ``_POINT_BLOCK``, which bounds the memory
    held at once; each search is per point, so blocks change nothing.
    """
    r = 0.5 * bandwidth * (1 - 1e-9)
    m = len(modes)
    origin, width, table = _mode_grid(modes, r, max(len(pts), 4096))
    last = np.array(table.shape) - 1
    tree = cKDTree(modes)
    assignment = np.empty(len(pts), np.intp)
    for start in range(0, len(pts), _POINT_BLOCK):
        block = pts[start:start + _POINT_BLOCK]
        # clipped while still float, so no cell index overflows its cast
        cell = np.clip((block - origin) / width, 0, last).astype(np.intp)
        near = table[cell[:, 0], cell[:, 1]]
        d2 = _sq_dist(block, modes[np.minimum(near, m - 1)])
        rest = np.flatnonzero((near == m) | (d2 > r * r))
        near[rest] = _nearest_mode(tree, block[rest], modes)
        assignment[start:start + len(block)] = near
    return assignment


def _nearest_mode(tree, pts, modes) -> np.ndarray:
    """argmin over modes of ``((p - m) ** 2).sum()`` for every point, lowest
    index on exact ties, without the dense (N, M) table.

    ``tree``, the KD-tree over the modes, gives three candidates per point,
    which are rechecked with the dense formula.  Every other mode is at
    least the third tree distance away; a point whose best candidate does
    not clear that bound by a margin far above rounding is rechecked
    against all modes, max(1, ``_POINT_BLOCK`` // M) points at a time, so
    the dense block holds at most about ``_POINT_BLOCK`` distances.
    """
    n, m = len(pts), len(modes)
    k = min(3, m)
    dist, cand = tree.query(pts, k=k)
    dist = dist.reshape(n, k)
    cand = cand.reshape(n, k)
    d2 = _sq_dist(pts[:, None, :], modes[cand])
    best = d2.min(axis=1)
    assignment = np.where(d2 == best[:, None], cand, m).min(axis=1)
    if k < m:
        unsure = np.flatnonzero(best >= dist[:, -1] ** 2 * (1 - 1e-9))
        rows_per_block = max(1, _POINT_BLOCK // m)
        for start in range(0, len(unsure), rows_per_block):
            rows = unsure[start:start + rows_per_block]
            dense = _sq_dist(pts[rows, None, :], modes)
            assignment[rows] = np.argmin(dense, axis=1)
    return assignment


# ---------------------------------------------------------------------------
# Instances

def segment(field, foreground, config: SegmenterConfig) -> np.ndarray:
    """Cluster center estimates i - r_i of the foreground pixels into instances.

    Empty foreground yields an all-zero labeling.  A cluster's size is the
    number of foreground points ``mean_shift`` assigns to it; clusters
    smaller than ``min_instance_size`` (or empty) are dropped and the kept
    ones are numbered 1..n in mode order.  With ``connectivity_relabel``
    each spatially connected component becomes its own instance.
    """
    r = np.asarray(field, dtype=np.float32)
    fg = np.asarray(foreground, dtype=bool)
    if r.ndim != 3 or r.shape[0] != 2 or r.shape[1:] != fg.shape:
        raise ShapeError("field (2,H,W) and foreground (H,W) must agree")
    labels = np.zeros(fg.shape, np.int32)
    idx = np.flatnonzero(fg)
    if len(idx) == 0:
        return labels
    # raster order, as np.argwhere gives it; the float32 offsets widen exactly
    centers = np.empty((len(idx), 2))
    for coord, offsets, column in zip(divmod(idx, fg.shape[1]), r.reshape(2, -1), centers.T):
        np.subtract(coord, offsets.take(idx), out=column)
    modes, assignment = mean_shift(centers, config.bandwidth)
    kept = np.bincount(assignment, minlength=len(modes)) >= max(config.min_instance_size, 1)
    labels.reshape(-1)[idx] = (np.cumsum(kept, dtype=np.int32) * kept)[assignment]
    if config.connectivity_relabel:
        # components are numbered per id in raster order of their first
        # pixel, and raster order inside a bounding box is raster order in
        # the image, so labelling each id on its box changes no number
        out = np.zeros_like(labels)
        nxt = 0
        structure = np.ones((3, 3), np.int32)
        for ident, box in enumerate(ndimage.find_objects(labels), start=1):
            comp, ncomp = ndimage.label(labels[box] == ident, structure=structure)
            inside = comp > 0
            out[box][inside] = comp[inside] + nxt
            nxt += ncomp
        labels = out
    return labels


def _run_reach(lab, cap: int) -> np.ndarray:
    """Each pixel's run reach along axis 0, as a uint8 plane: the largest
    t <= ``cap`` such that its in-array neighbours at +-1..+-t along the
    axis all hold its id.  Neighbours outside the array count as equal.

    The reach is the number of levels a pixel passes.  Level 1 holds the
    pixels equal to both in-array neighbours, the one label comparison;
    level t holds the pixels that pass level t - 1 along with both in-array
    neighbours, so a pixel passes level t exactly when the ids at +-1..+-t
    equal its own.  Each level is two ANDs with the pairs of the last.
    """
    level = np.ones_like(lab, bool)
    reach = np.zeros_like(lab, np.uint8)
    pair = lab[:-1] == lab[1:]
    for t in range(cap):
        if t:
            np.logical_and(level[:-1], level[1:], out=pair)
        level[1:] &= pair
        level[:-1] &= pair
        reach += level
    return reach


def _survivors(lab, distance: float) -> np.ndarray:
    """The pixels ``shrink_instances`` keeps, as a bool plane; the reach
    planes are freed on return, before the survivors are numbered."""
    cap = int(distance)
    keep = lab != 0
    if cap:
        keep &= _run_reach(lab, cap) == cap
        across = _run_reach(lab.T, cap).T
        keep &= across == cap  # w(0) = cap
        for dy in range(1, cap + 1):  # a shift past the array is an empty slice
            half = max(dx for dx in range(cap + 1) if math.sqrt(dy * dy + dx * dx) <= distance)
            if half:
                wide = across >= half
                keep[:-dy] &= wide[dy:]
                keep[dy:] &= wide[:-dy]
    return keep


def shrink_instances(labels, distance: float) -> np.ndarray:
    """Erode every instance by ``distance`` in [0, ``MAX_SHRINK``]: drop a
    nonzero pixel p when some pixel q of the array holds another id (0
    included) with ``sqrt(float(|p - q|**2)) <= distance``, the comparison a
    Euclidean distance transform's depth meets.

    Let R = floor(distance) and w(dy) the largest dx with
    ``math.sqrt(dy * dy + dx * dx) <= distance``; w(dy) >= 0 for |dy| <= R,
    and as the root is monotone, row dy of the disc is dx in [-w(dy), w(dy)]
    (Serra's erosion by a disc taken as row segments).  So p = (r, c)
    survives exactly when, for every |dy| <= R with row r + dy in the array,
    that row holds p's id over [c - w(dy), c + w(dy)] within the array.
    With the run reaches of ``_run_reach``, that is: p's column reach is R
    (its column holds its id at every in-array row r+-1..r+-R), and every
    such row r + dy has a row reach of at least w(dy) at column c, which
    says the row holds one id over the segment, the id at (r + dy, c),
    which the column reach made p's.  Both reaches are capped at R = w(0),
    so ``keep`` is the column test, ANDed with each row's ``reach >= w(dy)``
    plane shifted by -dy and by +dy.  The ids are compared once per axis,
    in their own dtype; all else is bool and uint8 planes.  Out-of-array
    neighbours count as equal, so the image edge is not background and an
    instance alone in the array keeps every pixel.
    ``relabel_consecutive`` numbers the survivors 1..n in ascending order
    of id, so distance 0 only renumbers, which leaves every label image the
    package makes as it is.  Negative ids and non-integer dtypes raise
    :class:`LabelError`.
    """
    if not 0 <= distance <= MAX_SHRINK:
        raise ValueError(
            f"distance must be non-negative and at most {MAX_SHRINK}, got {distance!r}")
    lab = check_labels(labels)
    if lab.ndim != 2:
        raise ShapeError(f"labels must be 2-D, got shape {lab.shape}")
    keep = _survivors(lab, distance)
    compact = relabel_consecutive(lab[keep])[0]
    out = np.zeros(lab.shape, np.int32)
    out[keep] = compact
    return out


def _field_and_foreground(params: ModelParams, image, config: SegmenterConfig, seed: int):
    """Offset field and noise-variance foreground of one image.

    The variance map is reduced to the foreground before the clean field is
    predicted, so the field never sits beside the noise bands or the map.
    """
    foreground = detect_foreground(embedding_variance(params, image, config, seed))
    return predict_full(params, image), foreground


def segment_image(params: ModelParams, image, config: SegmenterConfig,
                  seed: int = 0) -> np.ndarray:
    """Full pipeline for one image: predict, detect foreground, cluster, shrink."""
    labels = segment(*_field_and_foreground(params, image, config, seed), config)
    return shrink_instances(labels, config.shrink_distance)


# ---------------------------------------------------------------------------
# Bandwidth / shrink search

def bandwidth_search(
    params: ModelParams,
    samples,
    candidates,
    config: SegmenterConfig = SegmenterConfig(),
    metric: str = "f1",
    iou_threshold: float = 0.5,
    seed: int = 0,
):
    """Grid search over bandwidth candidates and the shrink distances
    0..``MAX_SHRINK`` on ``samples``, an iterable of (image, ground truth
    labels) pairs; image i is segmented with seed ``seed + i``.

    Scores each combination on the validation set with the chosen metric
    (F1 at ``iou_threshold`` by default, or SEG), both pooled over all the
    set's objects as ``oceseg eval`` and ``eval --seg`` print them, and
    returns (best_bandwidth, best_shrink, rows) where rows are
    (bandwidth, shrink, score): ties resolve toward smaller bandwidth, then
    smaller shrink.

    Every combination pools into its own :class:`~oceseg.metrics.Tally`,
    all built before the first image is drawn, so a bad candidate, metric or
    threshold raises first.  The set is then scored image by image: one
    image's field and foreground, its labels at one bandwidth and one shrunk
    prediction are held at a time, and all die before the next image.
    """
    if len(candidates) == 0:
        raise ValueError("no bandwidth candidates")
    if metric not in ("f1", "seg"):
        raise ValueError(f"unknown metric {metric!r}")
    configs = [replace(config, bandwidth=float(bw), shrink_distance=0.0)
               for bw in sorted(candidates)]
    tallies = [[Tally(iou_threshold) for _ in range(MAX_SHRINK + 1)] for _ in configs]
    i = -1
    for i, (img, gt) in enumerate(samples):
        _tally_image(params, img, gt, configs, tallies, config, seed + i)
    if i < 0:
        raise ValueError("empty validation set")
    rows = [(cfg.bandwidth, float(s), tally.scores()["f1"] if metric == "f1" else tally.seg())
            for cfg, row in zip(configs, tallies) for s, tally in enumerate(row)]
    best = max(rows, key=lambda row: row[2])  # the first maximum
    return best[0], best[1], rows


def _tally_image(params, image, gt, configs, tallies, config, seed) -> None:
    """Pool one validation image into ``tallies[bandwidth][shrink]``; what it
    computes dies on return."""
    field, foreground = _field_and_foreground(params, image, config, seed)
    for cfg, row in zip(configs, tallies):
        labels = segment(field, foreground, cfg)
        for s, tally in enumerate(row):
            # labels found at the working scale are scored on the ground truth's grid
            tally.add(gt, rescale_labels(shrink_instances(labels, s), gt.shape))
