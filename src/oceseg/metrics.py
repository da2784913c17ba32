"""Instance segmentation scores: IoU matching, detection rates and SEG.

Detection metrics use one-to-one greedy matching by descending IoU at a
threshold.  Above 0.5 an instance has at most one partner with that much
overlap, so the greedy matching is the unique optimal one.  At exactly 0.5
it can have two (a 1x4 object split into two 1x2 predictions has IoU 0.5
with both), and the lower gt id, then the lower prediction id, breaks the
tie.  SEG follows the cell-tracking convention: a ground truth
object matches the prediction covering strictly more than half of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import relabel_consecutive
from .errors import DegenerateError, ShapeError


@dataclass
class MatchResult:
    tp: int
    fp: int
    fn: int


def iou_matrix(gt, pred):
    """Pairwise IoU and overlap counts between positive instances.

    Returns (iou (G,P), overlap (G,P), gt_ids, pred_ids, gt_sizes, pred_sizes);
    background (label 0) is excluded on both sides.
    """
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    if gt.shape != pred.shape:
        raise ShapeError(f"mask shapes differ: {gt.shape} vs {pred.shape}")
    cg, gt_ids = relabel_consecutive(gt)
    cp, pred_ids = relabel_consecutive(pred)
    G, P = len(gt_ids), len(pred_ids)
    joint = np.bincount(
        cg.ravel().astype(np.int64) * (P + 1) + cp.ravel(), minlength=(G + 1) * (P + 1)
    ).reshape(G + 1, P + 1)
    overlap = joint[1:, 1:]
    gt_sizes = joint[1:].sum(axis=1)
    pred_sizes = joint[:, 1:].sum(axis=0)
    union = gt_sizes[:, None] + pred_sizes[None, :] - overlap
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, overlap / union, 0.0)
    return iou, overlap, gt_ids, pred_ids, gt_sizes, pred_sizes


def match_at_threshold(gt, pred, threshold: float) -> MatchResult:
    """Greedy one-to-one matching of instances with IoU >= threshold."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    iou = iou_matrix(gt, pred)[0]
    G, P = iou.shape
    gs, ps = np.nonzero(iou >= threshold)
    # highest IoU first, ties by row then column: ids ascend with rows and columns
    order = np.lexsort((ps, gs, -iou[gs, ps]))
    used_g = np.zeros(G, bool)
    used_p = np.zeros(P, bool)
    tp = 0
    for g, p in zip(gs[order].tolist(), ps[order].tolist()):
        if used_g[g] or used_p[p]:
            continue
        used_g[g] = used_p[p] = True
        tp += 1
    return MatchResult(tp, P - tp, G - tp)


def scores_from_counts(tp: int, fp: int, fn: int) -> dict:
    """Recall, precision, F1 and detection accuracy; empty denominators give 0."""
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return {"f1": f1, "recall": recall, "precision": precision, "accuracy": accuracy}


def seg_score_dataset(gt_masks, pred_masks) -> float:
    """Mean IoU over the ground truth objects of all images, each matched to
    the prediction covering strictly more than half of it, else scoring 0."""
    if len(gt_masks) != len(pred_masks):
        raise ShapeError("gt and prediction counts differ")
    total = 0.0
    objects = 0
    for gt, pred in zip(gt_masks, pred_masks):
        iou, overlap, gt_ids, _, gt_sizes, _ = iou_matrix(gt, pred)
        objects += len(gt_ids)
        for g in range(len(gt_ids)):
            covering = np.flatnonzero(overlap[g] * 2 > gt_sizes[g])
            if len(covering):
                total += float(iou[g, covering[0]])  # at most one can qualify
    if objects == 0:
        raise DegenerateError("no ground truth objects")
    return total / objects


def threshold_sweep(gt_masks, pred_masks, thresholds, per_image: bool = False):
    """Detection scores per IoU threshold over a dataset.

    By default TP/FP/FN counts are pooled over all images before scoring;
    with ``per_image`` the scores are averaged over images instead.  Returns
    rows of (metric, threshold, value).
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("empty threshold list")
    if len(gt_masks) != len(pred_masks):
        raise ShapeError("gt and prediction counts differ")
    if len(gt_masks) == 0:
        raise DegenerateError("no images to score")
    rows = []
    for t in thresholds:
        matches = [match_at_threshold(gt, pred, t) for gt, pred in zip(gt_masks, pred_masks)]
        if per_image:
            scores = [scores_from_counts(m.tp, m.fp, m.fn) for m in matches]
        else:
            counts = (sum(m.tp for m in matches), sum(m.fp for m in matches),
                      sum(m.fn for m in matches))
            scores = [scores_from_counts(*counts)]
        for key in ("f1", "recall", "precision", "accuracy"):
            rows.append((key, float(t), float(np.mean([s[key] for s in scores]))))
    return rows


def format_score_table(rows) -> str:
    """UTF-8 tab-separated table with the fixed (metric, threshold, value) header."""
    lines = ["metric\tthreshold\tvalue"]
    for metric, threshold, value in rows:
        lines.append(f"{metric}\t{threshold:g}\t{value:.6f}")
    return "\n".join(lines) + "\n"
