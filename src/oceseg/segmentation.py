"""From dense offset fields to instance masks.

Pipeline: tiled full-image inference, noise-variance background detection
with an Otsu split, mean-shift clustering of per-pixel center estimates
c_i = i - r_i, small-instance removal and distance-based shrinkage.

Inference splits each axis into the fewest tiles no larger than the
``tile`` cap and balances their sides, so little of a tile's work is thrown
away on the overlap; tiled inference equals one pass bit for bit.  The
noise-variance map keeps one float32 stack of the predictions and reduces
it in row chunks, so its float64 temporaries do not grow with the image.
Mean-shift climbs its seeds in lockstep blocks, one batched ball query
per step for a block, so the ball lists held at once stay bounded.  Kept
modes are at least a bandwidth apart, so a point strictly within half a
bandwidth of a mode is nearer to it than to any other: those points take
that mode from one ball query per mode, and only the rest are searched;
both run in blocks, of modes and of points, so their memory stays bounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .autodiff import Tensor
from .data import check_labels, relabel_consecutive, rescale_labels
from .errors import DegenerateError, ShapeError, check_bool, check_int, check_real
from .metrics import seg_score_dataset, threshold_sweep
from .network import CONTEXT, MIN_INPUT, ModelParams, check_image, forward


MAX_SHRINK = 6  # largest shrink distance, and the last one bandwidth_search tries


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
            raise ValueError("noise_fraction must be in (0, 0.5)")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 <= self.shrink_distance <= MAX_SHRINK:
            raise ValueError(f"shrink_distance must be in [0, {MAX_SHRINK}]")
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


def predict_full(params: ModelParams, image, tile: int = 252) -> np.ndarray:
    """Offset field aligned to the input grid: (2, H, W) for a (C, H, W) image.

    The image is reflect-padded by half the context margin, then processed
    in overlapping tiles; each tile contributes its full valid interior.
    ``tile`` caps the tile side.  Per axis, the fewest tiles under the cap
    that cover the image share it evenly (``_tile_plan``): a 512x512 image
    at the default cap of 252 runs nine 188x188 tiles rather than nine of
    252x252.  ``tile`` must be even and at least ``MIN_INPUT``: every tile
    side and origin is then even, so each tile keeps the max-pool phase of
    the whole image and the result equals one untiled pass bit for bit.
    A field holding NaN or inf raises :class:`DegenerateError`.
    """
    if tile < MIN_INPUT or tile % 2:
        raise ShapeError(f"tile {tile} must be even and at least {MIN_INPUT}")
    img = np.asarray(image, dtype=np.float32)
    check_image(img, params.config.in_channels)
    _, H, W = img.shape
    half = CONTEXT // 2
    padded = np.pad(img, ((0, 0), (half, half), (half, half)), mode="reflect")
    # valid convolutions need even tile sides; pad one extra reflected line
    extra_h = padded.shape[1] % 2
    extra_w = padded.shape[2] % 2
    if extra_h or extra_w:
        padded = np.pad(padded, ((0, 0), (0, extra_h), (0, extra_w)), mode="reflect")
    Sh, Sw = padded.shape[1], padded.shape[2]
    Th, row_starts = _tile_plan(Sh, tile)
    Tw, col_starts = _tile_plan(Sw, tile)
    out = np.empty((2, Sh - CONTEXT, Sw - CONTEXT), np.float32)
    # a model that overflows is reported by the finiteness check below, not
    # by numpy warnings from inside the forward
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in row_starts:
            for c0 in col_starts:
                block = np.ascontiguousarray(padded[:, r0:r0 + Th, c0:c0 + Tw])
                field = forward(params, Tensor(block)).data
                out[:, r0:r0 + Th - CONTEXT, c0:c0 + Tw - CONTEXT] = field
    if not np.isfinite(out[:, :H, :W]).all():
        raise DegenerateError("offset field is not finite: it holds NaN or inf values")
    return out[:, :H, :W]


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
    the (C, H, W) image at ``config.noise_fraction``, predicts each, and sums
    the per-channel unbiased sample variances into one (H, W) map.

    The predictions fill one float32 (rounds, 2, H, W) stack, and the
    float64 variance runs over ``_VARIANCE_ROWS`` rows at a time.  Each
    pixel's arithmetic is that of the whole-stack formula, so the map is
    the same bit for bit.
    """
    _, H, W = np.shape(image)
    stack = np.empty((config.noise_rounds, 2, H, W), np.float32)
    for r in range(config.noise_rounds):
        rng = np.random.default_rng([seed, r])
        stack[r] = predict_full(params, salt_pepper(image, config.noise_fraction, rng))
    var = np.empty((H, W), np.float64)
    for r0 in range(0, H, _VARIANCE_ROWS):
        rows = slice(r0, r0 + _VARIANCE_ROWS)
        var[rows] = np.var(stack[:, :, rows], axis=0, ddof=1, dtype=np.float64).sum(axis=0)
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

_SEED_BLOCK = 256  # seeds climbing together; bounds the ball lists held at once
_MODE_BLOCK = 256  # modes whose half-bandwidth balls _assign queries together
_REST_BLOCK = 65536  # points _assign hands to _nearest_mode at once


def _balls(tree, centers, radius: float, sort: bool):
    """(counts, idx): how many points lie within ``radius`` of each center,
    and their indices concatenated in center order.  scipy builds the balls
    as lists of Python ints; they are freed on return."""
    balls = tree.query_ball_point(centers, radius, return_sorted=sort)
    counts = np.fromiter(map(len, balls), np.int64, len(balls))
    return counts, np.fromiter(itertools.chain.from_iterable(balls), np.intp, counts.sum())


def _group_means(columns, ids, counts) -> np.ndarray:
    """(K, 2) means per id in 0..K-1 of L points given as the (2, L) rows of
    their coordinates.  ``np.bincount`` adds each id's points in index order,
    so a mean is bit-equal to ``pts[idx].mean(axis=0)``."""
    sums = [np.bincount(ids, weights=c, minlength=len(counts)) for c in columns]
    return np.stack(sums, axis=1) / counts[:, None]


def _climb(tree, columns, seeds, bandwidth: float, max_iter: int) -> np.ndarray:
    """End positions of the ``seeds`` that took a step, in seed order: each
    step moves every still-climbing seed to the mean of its ball, one
    batched ball query for all of them."""
    pos = seeds.copy()
    stepped = np.zeros(len(pos), bool)
    active = np.arange(len(pos))
    for _ in range(max_iter):
        counts, idx = _balls(tree, pos[active], bandwidth, True)
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


def mean_shift(points, bandwidth: float, max_iter: int = 300):
    """Flat-kernel mean-shift over (N, 2) points.

    Seeds are the per-bin means of a bandwidth-sized grid.  Each seed climbs
    to the mean of the points within the bandwidth until the shift drops
    below 1e-3 * bandwidth, its ball is empty or it has taken ``max_iter``
    steps; a seed whose first ball is empty gives no mode.  Seeds climb in
    lockstep blocks of ``_SEED_BLOCK``, which bounds the ball lists held at
    once and changes no mode.  Modes closer than the bandwidth merge,
    keeping the mode with larger support; points go to their nearest mode
    by the squared distance ``((p - m) ** 2).sum()``, and a point equally
    near several modes goes to the one with the lowest index, as
    ``np.argmin`` over all modes would choose.

    The assignment takes two steps (``_assign``).  The merge leaves the
    kept modes pairwise at least a bandwidth apart, so a point strictly
    within half a bandwidth of a mode is nearest to that mode alone: it
    takes that mode from one ball query per mode.  Only the points no ball
    holds go through the nearest-mode search (``_nearest_mode``).

    Returns (modes (M, 2), assignment (N,)).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 1:
        raise ShapeError("mean_shift needs at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite, got NaN or inf coordinates")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    columns = np.ascontiguousarray(pts.T)
    seeds = _bin_seeds(pts, columns, bandwidth)

    tree = cKDTree(pts)
    modes = np.concatenate([
        _climb(tree, columns, seeds[s:s + _SEED_BLOCK], bandwidth, max_iter)
        for s in range(0, len(seeds), _SEED_BLOCK)
    ])
    supports = tree.query_ball_point(modes, bandwidth, return_length=True)

    # merge near-duplicate modes, larger support first
    rank = np.lexsort((modes[:, 1], modes[:, 0], -supports))
    kept = np.empty_like(modes)
    n_kept = 0
    for i in rank:
        diff = modes[i] - kept[:n_kept]
        if (np.hypot(diff[:, 0], diff[:, 1]) >= bandwidth).all():
            kept[n_kept] = modes[i]
            n_kept += 1
    modes = kept[:n_kept]
    return modes, _assign(tree, pts, modes, bandwidth)


def _assign(tree, pts, modes, bandwidth: float) -> np.ndarray:
    """Nearest mode of every point, as ``_nearest_mode`` gives it, for
    ``modes`` pairwise at least ``bandwidth`` apart by ``np.hypot``.

    The tree over the points proposes the points within r = 0.5 * bandwidth
    * (1 - 1e-9) of each mode; the squared distance ``((p - m) ** 2).sum()``
    confirms each.  Every other mode is at least 2r / (1 - 1e-9) from a
    confirmed point's mode, so at least r * (1 + 2e-9) from the point, and
    no point is confirmed for two modes.  The rounding of the squared
    distances, of the merge's ``np.hypot`` and of r is a few units in
    2**-53 of the values, at image coordinates as at any scale, far inside
    that margin, so a confirmed point's mode is the unique argmin.  The
    tree's own distances may round at the scale of the whole cloud; they
    only pick the points to check.  The rest go to ``_nearest_mode``.  The
    modes are queried in blocks of ``_MODE_BLOCK`` and the rest searched in
    blocks of ``_REST_BLOCK``, which bounds the memory held at once; no point
    is confirmed twice and each search is per point, so blocks change nothing.
    """
    r = 0.5 * bandwidth * (1 - 1e-9)
    assignment = np.full(len(pts), -1, np.intp)
    for start in range(0, len(modes), _MODE_BLOCK):
        counts, idx = _balls(tree, modes[start:start + _MODE_BLOCK], r, False)
        owner = np.repeat(np.arange(start, start + len(counts)), counts)
        inside = ((pts[idx] - modes[owner]) ** 2).sum(axis=1) <= r * r
        assignment[idx[inside]] = owner[inside]
    rest = np.flatnonzero(assignment < 0)
    for start in range(0, len(rest), _REST_BLOCK):
        block = rest[start:start + _REST_BLOCK]
        assignment[block] = _nearest_mode(pts[block], modes)
    return assignment


def _nearest_mode(pts, modes) -> np.ndarray:
    """argmin over modes of ``((p - m) ** 2).sum()`` for every point, lowest
    index on exact ties, without the dense (N, M) table.

    A KD-tree over the modes gives three candidates per point, which are
    rechecked with the dense formula.  Every other mode is at least the
    third tree distance away; a point whose best candidate does not clear
    that bound by a margin far above rounding is rechecked against all
    modes, 4096 points at a time.
    """
    n, m = len(pts), len(modes)
    k = min(3, m)
    dist, cand = cKDTree(modes).query(pts, k=k)
    dist = dist.reshape(n, k)
    cand = cand.reshape(n, k)
    d2 = ((pts[:, None, :] - modes[cand]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    assignment = np.where(d2 == best[:, None], cand, m).min(axis=1)
    if k < m:
        unsure = np.flatnonzero(best >= dist[:, -1] ** 2 * (1 - 1e-9))
        for start in range(0, len(unsure), 4096):
            rows = unsure[start:start + 4096]
            dense = ((pts[rows, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
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
    coords = np.argwhere(fg)
    if len(coords) == 0:
        return labels
    centers = coords.astype(np.float64) - r[:, fg].T
    modes, assignment = mean_shift(centers, config.bandwidth)
    kept = np.bincount(assignment, minlength=len(modes)) >= max(config.min_instance_size, 1)
    labels[fg] = (np.cumsum(kept, dtype=np.int32) * kept)[assignment]
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


def shrink_instances(labels, distance: float) -> np.ndarray:
    """Erode every instance by ``distance``: keep pixels strictly farther than
    ``distance`` from the instance's complement.  Zero distance is the
    identity; fully eroded instances disappear.

    The image edge is not background: scipy's distance transform measures
    only to complement pixels inside the array, so an instance touching the
    edge is not eroded from that side.  Each instance's transform runs on
    its bounding box grown by one pixel and clipped to the image, which
    gives the same distances as a whole-image transform: a complement pixel
    outside the grown box, clamped into it, lands on the one-pixel ring
    around the bounding box, which is complement too and no farther away.
    Clipping (not padding) keeps the edge rule.  No instance's erosion
    touches another instance's pixels, so the order of instances does not
    matter.  Negative ids and non-integer dtypes raise :class:`LabelError`.
    """
    if not distance >= 0:
        raise ValueError(f"distance must be non-negative, got {distance!r}")
    lab = check_labels(labels).astype(np.int32, copy=True)
    if distance == 0:
        return lab
    for ident, box in enumerate(ndimage.find_objects(lab), start=1):
        if box is None:
            continue
        grown = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, n))
                      for s, n in zip(box, lab.shape))
        sub = lab[grown]
        mask = sub == ident
        sub[mask & (ndimage.distance_transform_edt(mask) <= distance)] = 0
    return relabel_consecutive(lab)[0]


def _field_and_foreground(params: ModelParams, image, config: SegmenterConfig, seed: int):
    """Offset field and noise-variance foreground of one image."""
    field = predict_full(params, image)
    return field, detect_foreground(embedding_variance(params, image, config, seed))


def segment_image(params: ModelParams, image, config: SegmenterConfig,
                  seed: int = 0) -> np.ndarray:
    """Full pipeline for one image: predict, detect foreground, cluster, shrink."""
    labels = segment(*_field_and_foreground(params, image, config, seed), config)
    return shrink_instances(labels, config.shrink_distance)


# ---------------------------------------------------------------------------
# Bandwidth / shrink search

def bandwidth_search(
    params: ModelParams,
    images,
    gt_labels,
    candidates,
    config: SegmenterConfig = SegmenterConfig(),
    metric: str = "f1",
    iou_threshold: float = 0.5,
    seed: int = 0,
):
    """Grid search over bandwidth candidates and the shrink distances
    0..``MAX_SHRINK``.

    Scores each combination on the validation set with the chosen metric
    (F1 at ``iou_threshold`` by default, or SEG), both pooled over all the
    set's objects as ``oceseg eval`` and ``eval --seg`` print them, and
    returns (best_bandwidth, best_shrink, rows) where rows are
    (bandwidth, shrink, score): ties resolve toward smaller bandwidth, then
    smaller shrink.
    """
    if len(images) == 0:
        raise ValueError("empty validation set")
    if len(candidates) == 0:
        raise ValueError("no bandwidth candidates")
    if gt_labels is None or len(gt_labels) != len(images):
        raise ValueError("ground truth required for every validation image")
    if metric not in ("f1", "seg"):
        raise ValueError(f"unknown metric {metric!r}")
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_threshold!r}")
    configs = [replace(config, bandwidth=float(bw), shrink_distance=0.0)
               for bw in sorted(candidates)]

    stages = [_field_and_foreground(params, img, config, seed + i)
              for i, img in enumerate(images)]
    rows = []
    best = None
    for cfg in configs:
        bw = cfg.bandwidth
        base_labels = [segment(field, fg, cfg) for field, fg in stages]
        for s in range(MAX_SHRINK + 1):
            # labels found at the working scale are scored on the ground truth's grid
            preds = [rescale_labels(shrink_instances(lab, s), gt.shape)
                     for lab, gt in zip(base_labels, gt_labels)]
            if metric == "f1":
                # threshold_sweep's first row is the pooled F1
                score = threshold_sweep(gt_labels, preds, [iou_threshold])[0][2]
            else:
                score = seg_score_dataset(gt_labels, preds)
            rows.append((bw, float(s), score))
            if best is None or score > best[2]:
                best = (bw, float(s), score)
    return best[0], best[1], rows
