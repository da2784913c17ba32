"""Monte-Carlo checks of the expected-offset argument.

Scenes hold identical copies of one template at random non-overlapping
positions.  For two fixed patch contents a and b, the average offset over
all occurrence pairs decomposes into a same-object part (exactly the
intra-object offset) and a cross-object part.  On a periodic canvas the
cross part has mean zero under random placement, so the overall mean is
the intra-object offset scaled by the share of same-object pairs.  On a
bounded canvas it does not vanish: each ordered pair of objects occurs in
both orders, their origin differences cancel, and every scene's cross sum
is exactly its cross-pair count times the intra-object offset.  All pair
sums are accumulated in int64, so the decomposition identity
``total = same + cross`` holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, PlacementError, check_int
from .synth import MAX_PLACEMENT_ATTEMPTS


@dataclass
class SceneSample:
    scene: np.ndarray           # (H, W) float32
    origins: np.ndarray         # (n, 2) template top-left corners
    template_shape: tuple
    periodic: bool


def _wrap_centered(delta: np.ndarray, length: int) -> np.ndarray:
    """Map integer offsets into (-length/2, length/2] modulo length.

    For odd lengths the range is symmetric; for even lengths the value
    +length/2 exists while -length/2 does not, which adds a +0.5 bias to
    otherwise-uniform offsets.  Statistical zero-mean checks should use an
    odd canvas for that reason.
    """
    half = (length - 1) // 2
    return (delta + half) % length - half


def place_scene(template, n: int, canvas, rng: np.random.Generator,
                boundary: str = "periodic") -> SceneSample:
    """Place n identical copies of template at random non-overlapping spots.

    Non-overlap is enforced by requiring center distances above the template
    bounding-box diagonal.  Periodic mode wraps content around the canvas and
    measures distances on the torus, which keeps the placement distribution
    free of border effects.
    """
    if boundary not in ("periodic", "bounded"):
        raise ValueError("boundary must be 'periodic' or 'bounded'")
    check_int("n", n, 0)
    periodic = boundary == "periodic"
    tmpl = np.asarray(template, dtype=np.float32)
    th, tw = tmpl.shape
    H, W = canvas
    if th > H or tw > W:
        raise PlacementError("template larger than canvas")
    diag_sq = float(th * th + tw * tw)
    lengths = np.array([H, W])
    origins = np.zeros((n, 2), np.int64)
    placed = attempts = 0
    while placed < n:
        attempts += 1
        if attempts > MAX_PLACEMENT_ATTEMPTS:
            raise PlacementError(
                f"placed {placed}/{n} objects in {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
        if periodic:
            r0 = int(rng.integers(0, H))
            c0 = int(rng.integers(0, W))
        else:
            r0 = int(rng.integers(0, H - th + 1))
            c0 = int(rng.integers(0, W - tw + 1))
        d = np.array([r0, c0]) - origins[:placed]
        if periodic:
            d = _wrap_centered(d, lengths)
        if np.all((d * d).sum(axis=1) > diag_sq):
            origins[placed] = r0, c0
            placed += 1
    # boxes of centers farther apart than their diagonal are disjoint; a
    # bounded box never reaches past the canvas, so the wrap is a no-op there
    rows = (origins[:, :1] + np.arange(th)) % H
    cols = (origins[:, 1:] + np.arange(tw)) % W
    scene = np.zeros((H, W), np.float32)
    scene[rows[:, :, None], cols[:, None, :]] = tmpl
    return SceneSample(scene, origins, (th, tw), periodic)


def occurrences(sample: SceneSample, patch) -> np.ndarray:
    """Sorted (row, col) origins of every window of the scene that equals
    ``patch`` exactly; on a periodic scene windows wrap around."""
    patch = np.asarray(patch, dtype=np.float32)
    ph, pw = patch.shape
    scene = sample.scene
    H, W = scene.shape
    anchor = np.unravel_index(int(np.abs(patch).argmax()), patch.shape)
    starts = np.argwhere(scene == patch[anchor]) - anchor
    if sample.periodic:
        starts %= (H, W)
    else:
        starts = starts[((starts >= 0) & (starts <= (H - ph, W - pw))).all(axis=1)]
    rows = (starts[:, :1, None] + np.arange(ph)[:, None]) % H
    cols = (starts[:, None, 1:] + np.arange(pw)) % W
    found = starts[(scene[rows, cols] == patch).all(axis=(1, 2))]
    return np.unique(found, axis=0).reshape(-1, 2)


def _pair_offsets(la: np.ndarray, lb: np.ndarray, sample: SceneSample) -> np.ndarray:
    d = (lb[None, :, :] - la[:, None, :]).reshape(-1, 2)
    if sample.periodic:
        d = _wrap_centered(d, np.array(sample.scene.shape))
    return d


@dataclass
class OffsetDecomposition:
    mean: np.ndarray         # (2,) over all pairs
    count: int
    total: np.ndarray        # (2,) int64, summed over all pairs
    same_mean: np.ndarray
    cross_mean: np.ndarray
    cross_se: np.ndarray
    n_same: int
    n_cross: int
    same_total: np.ndarray   # int64
    cross_total: np.ndarray  # int64


def _membership(locs: np.ndarray, sample: SceneSample, patch_shape) -> np.ndarray:
    """Object index for each occurrence, from the generator's placements."""
    ph, pw = patch_shape
    th, tw = sample.template_shape
    d = locs[:, None, :] - sample.origins[None, :, :]
    if sample.periodic:
        d %= sample.scene.shape
    inside = ((d >= 0) & (d <= (th - ph, tw - pw))).all(axis=2)
    if not inside.any(axis=1).all():
        raise DegenerateError("occurrence outside any placed object")
    return inside.argmax(axis=1)


def _standard_error(means: np.ndarray) -> np.ndarray:
    if len(means) > 1:
        return means.std(axis=0, ddof=1) / np.sqrt(len(means))
    return np.full(2, np.nan)


def decompose_offsets(patch_a, patch_b, samples) -> OffsetDecomposition:
    """Mean offset over all occurrence pairs of the two patches, split into
    same-object and cross-object parts; the cross part's standard error is
    estimated from per-scene means.  A part with no pairs (the cross part
    of one-object scenes) has a NaN mean."""
    if len(samples) == 0:
        raise DegenerateError("no scenes to average over")
    pa = np.asarray(patch_a, np.float32)
    pb = np.asarray(patch_b, np.float32)
    total = np.zeros(2, np.int64)
    same_total = np.zeros(2, np.int64)
    cross_total = np.zeros(2, np.int64)
    count = n_same = n_cross = 0
    cross_means = []
    for sample in samples:
        la = occurrences(sample, pa)
        lb = occurrences(sample, pb)
        if len(la) == 0 or len(lb) == 0:
            raise DegenerateError("patch does not occur in every scene")
        oa = _membership(la, sample, pa.shape)
        ob = _membership(lb, sample, pb.shape)
        d = _pair_offsets(la, lb, sample)
        total += d.sum(axis=0)
        count += len(d)
        d = d.reshape(len(la), len(lb), 2)
        same_mask = oa[:, None] == ob[None, :]
        ds = d[same_mask]
        dc = d[~same_mask]
        same_total += ds.sum(axis=0)
        cross_total += dc.sum(axis=0)
        n_same += len(ds)
        n_cross += len(dc)
        if len(dc):
            cross_means.append(dc.mean(axis=0))
    return OffsetDecomposition(
        mean=total / count,
        count=count,
        total=total,
        same_mean=same_total / n_same if n_same else np.full(2, np.nan),
        cross_mean=cross_total / n_cross if n_cross else np.full(2, np.nan),
        cross_se=_standard_error(np.asarray(cross_means)),
        n_same=n_same,
        n_cross=n_cross,
        same_total=same_total,
        cross_total=cross_total,
    )


# ---------------------------------------------------------------------------
# Canned experiment

def make_scenes(n_scenes: int, n_objects: int, canvas: int, template,
                seed: int = 0, boundary: str = "periodic"):
    samples = []
    for i in range(n_scenes):
        rng = np.random.default_rng([seed, i])
        samples.append(place_scene(template, n_objects, (canvas, canvas), rng, boundary))
    return samples


def offset_report(label: str, patch_a, patch_b, samples) -> str:
    """Tab-separated report: a header and one row for the patch pair with both
    decomposition terms, the cross-term standard errors and the pair counts."""
    dec = decompose_offsets(patch_a, patch_b, samples)
    return (
        "pair\tsame_dr\tsame_dc\tcross_dr\tcross_dc\tcross_se_dr\tcross_se_dc\tn_same\tn_cross\n"
        f"{label}\t{dec.same_mean[0]:.6f}\t{dec.same_mean[1]:.6f}"
        f"\t{dec.cross_mean[0]:.6f}\t{dec.cross_mean[1]:.6f}"
        f"\t{dec.cross_se[0]:.6f}\t{dec.cross_se[1]:.6f}"
        f"\t{dec.n_same}\t{dec.n_cross}\n"
    )
