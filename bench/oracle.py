"""Exact references for the post-processing workload.

For a ground-truth label image the oracle offset field points every
foreground pixel at its instance centroid, so clustering its center
estimates must give back the ground truth.  Synthetic instances never
touch, so eroding each instance on its own equals masking the ground truth
with one whole-image distance transform of the foreground.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def oracle_field(labels: np.ndarray):
    """(field (2, H, W) float32, foreground (H, W) bool) for a label image.

    The field is pixel coordinate minus instance centroid on the foreground
    and zero elsewhere.
    """
    lab = np.asarray(labels)
    flat = lab.ravel()
    rows, cols = np.indices(lab.shape, dtype=np.float64)
    counts = np.bincount(flat)
    safe = np.maximum(counts, 1)
    center_r = np.bincount(flat, weights=rows.ravel()) / safe
    center_c = np.bincount(flat, weights=cols.ravel()) / safe
    fg = lab > 0
    field = np.zeros((2,) + lab.shape, np.float32)
    field[0][fg] = rows[fg] - center_r[lab[fg]]
    field[1][fg] = cols[fg] - center_c[lab[fg]]
    return field, fg


def shrink_reference(labels: np.ndarray, distance: float) -> np.ndarray:
    """Ground truth with every pixel within ``distance`` of background removed."""
    lab = np.asarray(labels)
    keep = ndimage.distance_transform_edt(lab > 0) > distance
    return np.where(keep, lab, 0)


def same_partition(a, b) -> bool:
    """True when both label images split the same foreground into the same
    instances, whatever ids they use."""
    a = np.asarray(a).astype(np.int64)
    b = np.asarray(b).astype(np.int64)
    if a.shape != b.shape:
        return False
    fg = a != 0
    if not np.array_equal(fg, b != 0):
        return False
    pa, pb = a[fg], b[fg]
    if pa.size == 0:
        return True
    pairs = np.unique(pa * (int(pb.max()) + 1) + pb)
    return len(pairs) == len(np.unique(pa)) == len(np.unique(pb))
