"""Instance segmentation scores: IoU matching, detection rates and SEG.

Detection metrics use one-to-one greedy matching by descending IoU at a
threshold.  Above 0.5 an instance has at most one partner with that much
overlap, so the greedy matching is the unique optimal one.  At exactly 0.5
it can have two (a 1x4 object split into two 1x2 predictions has IoU 0.5
with both), and the lower gt id, then the lower prediction id, breaks the
tie.  SEG follows the cell-tracking convention: a ground truth
object matches the prediction covering strictly more than half of it.

Scores over a dataset are pooled image by image in one accumulator,
:class:`Tally`: each image's IoU table is built once, and only its
TP/FP/FN counts, SEG sum and object count are kept.  ``match_at_threshold``,
``threshold_sweep`` and ``seg_score_dataset`` are thin wrappers over it, and
``bandwidth_search`` holds one per (bandwidth, shrink).
"""

from __future__ import annotations

import numpy as np

from .data import relabel_consecutive
from .errors import DegenerateError, ShapeError


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


class Tally:
    """Scores pooled over the images ``add`` is given, in that order.

    Keeps the TP/FP/FN counts of the greedy matching at ``threshold``, the
    running SEG sum and the number of ground truth objects; no image is kept.
    """

    def __init__(self, threshold: float):
        if not 0 < threshold <= 1:
            raise ValueError(f"IoU threshold must be in (0, 1], got {threshold!r}")
        self.threshold = threshold
        self.tp = self.fp = self.fn = self.objects = 0
        self.seg_sum = 0.0

    def add(self, gt, pred) -> Tally:
        """Pool one image's (H, W) ground truth and prediction; returns self."""
        iou, overlap, _, _, gt_sizes, _ = iou_matrix(gt, pred)
        G, P = iou.shape
        gs, ps = np.nonzero(iou >= self.threshold)
        # highest IoU first, ties by row then column: ids ascend with rows and columns
        order = np.lexsort((ps, gs, -iou[gs, ps]))
        used_g, used_p = np.zeros(G, bool), np.zeros(P, bool)
        tp = 0
        for g, p in zip(gs[order].tolist(), ps[order].tolist()):
            if used_g[g] or used_p[p]:
                continue
            used_g[g] = used_p[p] = True
            tp += 1
        self.tp, self.fp, self.fn = self.tp + tp, self.fp + P - tp, self.fn + G - tp
        # at most one prediction covers more than half of an object; each
        # covered IoU joins one running sum in image, then object order
        for value in iou[overlap * 2 > gt_sizes[:, None]].tolist():
            self.seg_sum += value
        self.objects += G
        return self

    def scores(self) -> dict:
        """``scores_from_counts`` of the pooled counts."""
        return scores_from_counts(self.tp, self.fp, self.fn)

    def seg(self) -> float:
        """Mean IoU over all ground truth objects, an unmatched one scoring 0."""
        if self.objects == 0:
            raise DegenerateError("no ground truth objects")
        return self.seg_sum / self.objects


def match_at_threshold(gt, pred, threshold: float) -> Tally:
    """One image's tally: ``.tp/.fp/.fn`` of the greedy one-to-one matching
    of instances with IoU >= threshold."""
    return Tally(threshold).add(gt, pred)


def scores_from_counts(tp: int, fp: int, fn: int) -> dict:
    """Recall, precision, F1 and detection accuracy; empty denominators give 0."""
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return {"f1": f1, "recall": recall, "precision": precision, "accuracy": accuracy}


def _pairs(gt_masks, pred_masks) -> list:
    """The (gt, prediction) pairs of a dataset, in image order."""
    if len(gt_masks) != len(pred_masks):
        raise ShapeError("gt and prediction counts differ")
    return list(zip(gt_masks, pred_masks))


def _pooled(pairs, threshold: float) -> Tally:
    """One tally over ``pairs``, added in order."""
    tally = Tally(threshold)
    for gt, pred in pairs:
        tally.add(gt, pred)
    return tally


def seg_score_dataset(gt_masks, pred_masks) -> float:
    """Mean IoU over the ground truth objects of all images, each matched to
    the prediction covering strictly more than half of it, else scoring 0."""
    return _pooled(_pairs(gt_masks, pred_masks), 0.5).seg()


def threshold_sweep(gt_masks, pred_masks, thresholds, per_image: bool = False):
    """Detection scores per IoU threshold over a dataset.

    By default TP/FP/FN counts are pooled over all images before scoring;
    with ``per_image`` the scores are averaged over images instead.  Returns
    rows of (metric, threshold, value).
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("empty threshold list")
    pairs = _pairs(gt_masks, pred_masks)
    if not pairs:
        raise DegenerateError("no images to score")
    rows = []
    for t in thresholds:
        if per_image:
            scores = [match_at_threshold(gt, pred, t).scores() for gt, pred in pairs]
        else:
            scores = [_pooled(pairs, t).scores()]
        for key in ("f1", "recall", "precision", "accuracy"):
            rows.append((key, float(t), float(np.mean([s[key] for s in scores]))))
    return rows


def format_score_table(rows) -> str:
    """UTF-8 tab-separated table with the fixed (metric, threshold, value) header."""
    lines = ["metric\tthreshold\tvalue"]
    for metric, threshold, value in rows:
        lines.append(f"{metric}\t{threshold:g}\t{value:.6f}")
    return "\n".join(lines) + "\n"
