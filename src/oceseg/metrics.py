"""Instance segmentation scores: IoU matching, detection rates and SEG.

Detection metrics use one-to-one greedy matching by descending IoU at a
threshold.  Above 0.5 an instance has at most one partner with that much
overlap, so the greedy matching is the unique optimal one.  At exactly 0.5
it can have two (a 1x4 object split into two 1x2 predictions has IoU 0.5
with both), and the lower gt id, then the lower prediction id, breaks the
tie.  SEG follows the cell-tracking convention: a ground truth
object matches the prediction covering strictly more than half of it.

Scores over a dataset are pooled image by image in one accumulator,
:class:`Tally`, which keeps only the TP/FP/FN counts, SEG sum and object
count.  ``threshold_sweep`` and ``seg_score_dataset`` each take one iterable
of (gt, prediction) pairs and draw it once, one pair at a time;
``threshold_sweep`` builds each pair's IoU table once and adds it to every
threshold's tally (``Tally.add_table``).  ``bandwidth_search`` holds one tally per (bandwidth,
shrink).
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
    """Scores pooled over the images ``add`` or ``add_table`` is given, in that order.

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
        return self.add_table(iou_matrix(gt, pred))

    def add_table(self, table) -> Tally:
        """Pool one image's ``iou_matrix(gt, pred)`` table; returns self.  One
        table can be added to the tallies of several thresholds."""
        iou, overlap, _, _, gt_sizes, _ = table
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


def scores_from_counts(tp: int, fp: int, fn: int) -> dict:
    """Recall, precision, F1 and detection accuracy; empty denominators give 0."""
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return {"f1": f1, "recall": recall, "precision": precision, "accuracy": accuracy}


def seg_score_dataset(pairs) -> float:
    """Mean IoU over the ground truth objects of all (gt, prediction)
    ``pairs``, each matched to the prediction covering strictly more than
    half of it, else scoring 0.  The pairs are drawn once, one at a time."""
    tally = Tally(0.5)
    for gt, pred in pairs:
        tally.add(gt, pred)
    return tally.seg()


def threshold_sweep(pairs, thresholds, per_image: bool = False):
    """Detection scores per IoU threshold over the (gt, prediction) ``pairs``.

    By default TP/FP/FN counts are pooled over all images before scoring;
    with ``per_image`` the scores are averaged over images instead.  Every
    threshold is checked before the first pair is drawn; the pairs are then
    drawn once, one at a time, and each pair's IoU table is built once for
    all thresholds.  Returns rows of (metric, threshold, value).
    """
    tallies = [Tally(t) for t in thresholds]
    if not tallies:
        raise ValueError("empty threshold list")
    images = []  # with per_image, each image's scores at every threshold
    n = 0
    for gt, pred in pairs:
        n += 1
        table = iou_matrix(gt, pred)
        if per_image:
            images.append([Tally(t.threshold).add_table(table).scores() for t in tallies])
        else:
            for tally in tallies:
                tally.add_table(table)
        del table  # so the next pair's table is built without this one
    if not n:
        raise DegenerateError("no images to score")
    by_threshold = zip(*images) if per_image else [[t.scores()] for t in tallies]
    return [(key, float(tally.threshold), float(np.mean([s[key] for s in scores])))
            for tally, scores in zip(tallies, by_threshold)
            for key in ("f1", "recall", "precision", "accuracy")]


def format_score_table(rows) -> str:
    """UTF-8 tab-separated table with the fixed (metric, threshold, value) header."""
    lines = ["metric\tthreshold\tvalue"]
    for metric, threshold, value in rows:
        lines.append(f"{metric}\t{threshold:g}\t{value:.6f}")
    return "\n".join(lines) + "\n"
