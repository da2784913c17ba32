import itertools

import numpy as np
import pytest

from oceseg import (
    DegenerateError,
    ShapeError,
    Tally,
    format_score_table,
    iou_matrix,
    metrics,
    scores_from_counts,
    seg_score_dataset,
    threshold_sweep,
)


def random_mask(rng, shape=(12, 12), n_blobs=3):
    mask = np.zeros(shape, np.int32)
    for ident in range(1, n_blobs + 1):
        r = rng.integers(0, shape[0] - 3)
        c = rng.integers(0, shape[1] - 3)
        h = rng.integers(2, 4)
        w = rng.integers(2, 4)
        mask[r:r + h, c:c + w] = ident
    return mask


def brute_force_optimal_matches(gt, pred, t):
    """Most matches over all one-to-one assignments of pairs with IoU >= t."""
    iou, _, gt_ids, pred_ids, _, _ = iou_matrix(gt, pred)
    G, P = iou.shape
    admissible = [(g, p) for g in range(G) for p in range(P) if iou[g, p] >= t]
    best = 0
    best_sets = []
    for r in range(len(admissible), -1, -1):
        for combo in itertools.combinations(admissible, r):
            gs = [g for g, _ in combo]
            ps = [p for _, p in combo]
            if len(set(gs)) == len(gs) and len(set(ps)) == len(ps):
                best = r
                best_sets.append(combo)
        if best_sets:
            break
    return best, best_sets


# ---------------------------------------------------------------------------

def test_iou_identical_and_disjoint():
    a = np.zeros((6, 6), int)
    a[1:3, 1:3] = 1
    assert iou_matrix(a, a)[0][0, 0] == 1.0
    b = np.zeros((6, 6), int)
    b[4:6, 4:6] = 1
    assert iou_matrix(a, b)[0][0, 0] == 0.0


def test_iou_partial_overlap_third():
    gt = np.zeros((4, 4), int)
    gt[0, 0] = gt[0, 1] = 1
    pr = np.zeros((4, 4), int)
    pr[0, 1] = pr[1, 1] = 1
    assert abs(iou_matrix(gt, pr)[0][0, 0] - 1 / 3) < 1e-12


def test_iou_shape_mismatch():
    with pytest.raises(ShapeError):
        iou_matrix(np.zeros((3, 3), int), np.zeros((4, 4), int))


def test_match_perfect_and_empty():
    rng = np.random.default_rng(0)
    gt = random_mask(rng)
    m = Tally(0.5).add(gt, gt)
    n = len(np.unique(gt)) - 1
    assert m.tp == n and m.fp == 0 and m.fn == 0
    m = Tally(0.5).add(gt, np.zeros_like(gt))
    assert m.tp == 0 and m.fn == n and m.fp == 0


def test_match_counts_mixed():
    gt = np.zeros((10, 10), int)
    gt[0:4, 0:4] = 1
    gt[6:9, 6:9] = 2
    pred = np.zeros((10, 10), int)
    pred[0:4, 0:4] = 5  # IoU 1.0 with gt 1
    pred[5:6, 0:2] = 7  # matches nothing
    m = Tally(0.5).add(gt, pred)
    assert m.tp == 1 and m.fp == 1 and m.fn == 1


def test_match_tie_at_half_is_one_pair():
    # a 1x4 object split into two 1x2 predictions has IoU 0.5 with both
    gt, pred = np.array([[1, 1, 1, 1]]), np.array([[3, 3, 2, 2]])
    assert np.array_equal(iou_matrix(gt, pred)[0], [[0.5, 0.5]])
    m = Tally(0.5).add(gt, pred)
    assert (m.tp, m.fp, m.fn) == (1, 1, 0)
    assert Tally(0.51).add(gt, pred).tp == 0


def test_detection_scores_formulas():
    s = scores_from_counts(1, 1, 1)
    assert s["f1"] == 0.5 and s["recall"] == 0.5 and abs(s["accuracy"] - 1 / 3) < 1e-12
    assert scores_from_counts(0, 0, 0) == {
        "f1": 0.0, "recall": 0.0, "precision": 0.0, "accuracy": 0.0,
    }
    s = scores_from_counts(4, 0, 0)
    assert s["f1"] == s["recall"] == s["precision"] == s["accuracy"] == 1.0


def test_seg_score_hand_cases():
    gt = np.zeros((4, 4), int)
    gt[:2, :2] = 1  # 4 px
    pred = np.zeros((4, 4), int)
    pred[0, 0] = pred[0, 1] = pred[1, 0] = 1
    pred[2, 2] = 1  # extra px of same instance
    assert abs(seg_score_dataset([(gt, pred)]) - 0.6) < 1e-12  # overlap 3 > 2, IoU 3/5
    # exactly half is NOT matched
    pred2 = np.zeros((4, 4), int)
    pred2[0, 0] = pred2[0, 1] = 1
    assert seg_score_dataset([(gt, pred2)]) == 0.0
    # perfect
    assert seg_score_dataset([(gt, gt)]) == 1.0
    with pytest.raises(DegenerateError):
        seg_score_dataset([(np.zeros((4, 4), int), pred)])


def test_scores_invariant_under_id_permutation():
    rng = np.random.default_rng(4)
    gt = random_mask(rng)
    pred = random_mask(rng)
    perm = {0: 0, 1: 7, 2: 5, 3: 9}
    gt_p = np.vectorize(perm.get)(gt)
    base = Tally(0.5).add(gt, pred)
    permuted = Tally(0.5).add(gt_p, pred)
    assert (base.tp, base.fp, base.fn) == (permuted.tp, permuted.fp, permuted.fn)
    if len(np.unique(gt)) > 1:
        assert abs(seg_score_dataset([(gt, pred)]) - seg_score_dataset([(gt_p, pred)])) < 1e-12


def test_greedy_equals_exhaustive_at_half():
    rng = np.random.default_rng(12)
    for trial in range(100):
        gt = random_mask(rng, n_blobs=int(rng.integers(1, 4)))
        pred = random_mask(rng, n_blobs=int(rng.integers(1, 4)))
        m = Tally(0.5).add(gt, pred)
        best, _ = brute_force_optimal_matches(gt, pred, 0.5)
        assert m.tp == best, trial


def test_threshold_sweep_single_image_and_monotone():
    rng = np.random.default_rng(9)
    gt = random_mask(rng)
    pred = random_mask(rng)
    thresholds = [0.3, 0.5, 0.75, 0.9]
    rows = threshold_sweep([(gt, pred)], thresholds)
    by_metric = {}
    for metric, t, v in rows:
        by_metric.setdefault(metric, []).append(v)
        assert 0.0 <= v <= 1.0
        m = Tally(t).add(gt, pred)
        single = scores_from_counts(m.tp, m.fp, m.fn)
        assert abs(single[metric] - v) < 1e-12
    for metric, vals in by_metric.items():
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), metric


def test_threshold_sweep_three_image_hand_table():
    # image 1: perfect single object; image 2: one hit one miss; image 3: empty pred
    gt1 = np.zeros((6, 6), int); gt1[1:4, 1:4] = 1
    pr1 = gt1.copy()
    gt2 = np.zeros((6, 6), int); gt2[0:3, 0:3] = 1; gt2[4:6, 4:6] = 2
    pr2 = np.zeros((6, 6), int); pr2[0:3, 0:3] = 3
    gt3 = np.zeros((6, 6), int); gt3[2:5, 2:5] = 1
    pr3 = np.zeros((6, 6), int)
    rows = threshold_sweep(zip([gt1, gt2, gt3], [pr1, pr2, pr3]), [0.5])
    vals = {m: v for m, _, v in rows}
    # pooled: TP=2, FP=0, FN=2
    assert vals["recall"] == 0.5 and vals["precision"] == 1.0
    assert abs(vals["f1"] - 2 / 3) < 1e-12 and vals["accuracy"] == 0.5
    # per-image mode averages per-image scores
    rows_pi = threshold_sweep(zip([gt1, gt2, gt3], [pr1, pr2, pr3]), [0.5],
                              per_image=True)
    vals_pi = {m: v for m, _, v in rows_pi}
    assert abs(vals_pi["recall"] - np.mean([1.0, 0.5, 0.0])) < 1e-12


@pytest.mark.parametrize("per_image", [False, True])
def test_threshold_sweep_rejects_an_empty_dataset(per_image):
    # pooled mode once scored nothing as 0.0, per-image mode as NaN
    with pytest.raises(DegenerateError, match="no images"):
        threshold_sweep([], [0.5], per_image=per_image)


@pytest.mark.parametrize("per_image", [False, True])
@pytest.mark.parametrize("count", [1, 4])
def test_threshold_sweep_draws_each_pair_once_and_builds_one_table(monkeypatch, per_image,
                                                                   count):
    rng = np.random.default_rng(5)
    masks = [(random_mask(rng), random_mask(rng)) for _ in range(3)]
    thresholds = [0.3, 0.5, 0.75, 0.9][:count]
    expected = threshold_sweep(masks, thresholds, per_image=per_image)
    tables, drawn = [], []

    def spy(gt, pred):
        tables.append(len(drawn))
        return iou_matrix(gt, pred)

    def pairs():
        for pair in masks:
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(metrics, "iou_matrix", spy)
    assert threshold_sweep(pairs(), thresholds, per_image=per_image) == expected
    # one table per pair, built while that pair is the last one drawn
    assert tables == [1, 2, 3] and len(drawn) == 3


@pytest.mark.parametrize("thresholds", [[0.5, 0.0], [1.5]])
def test_threshold_sweep_checks_thresholds_before_drawing_a_pair(thresholds):
    def pairs():
        raise AssertionError("a pair was drawn")
        yield

    with pytest.raises(ValueError, match="IoU threshold"):
        threshold_sweep(pairs(), thresholds)


def test_tally_add_table_pools_as_add_does():
    rng = np.random.default_rng(6)
    gt, pred = random_mask(rng), random_mask(rng)
    table = iou_matrix(gt, pred)
    by_table = [Tally(t).add_table(table) for t in (0.3, 0.7)]
    by_masks = [Tally(t).add(gt, pred) for t in (0.3, 0.7)]
    for a, b in zip(by_table, by_masks):
        assert vars(a) == vars(b)


def test_seg_dataset_pools_objects():
    gt1 = np.zeros((6, 6), int); gt1[1:4, 1:4] = 1
    gt2 = np.zeros((6, 6), int); gt2[0:3, 0:3] = 1; gt2[4:6, 4:6] = 2
    v = seg_score_dataset([(gt1, gt1), (gt2, np.zeros_like(gt2))])
    assert abs(v - 1 / 3) < 1e-12  # one perfect of three objects


def test_tally_pools_images_in_order():
    rng = np.random.default_rng(3)
    gts = [random_mask(rng, n_blobs=int(rng.integers(1, 5))) for _ in range(5)]
    preds = [random_mask(rng, n_blobs=int(rng.integers(0, 5))) for _ in range(5)]
    tally = Tally(0.5)
    counts = np.zeros(3, int)
    total, objects = 0.0, 0
    for gt, pred in zip(gts, preds):
        assert tally.add(gt, pred) is tally
        m = Tally(0.5).add(gt, pred)
        counts += (m.tp, m.fp, m.fn)
        iou, overlap, gt_ids, _, gt_sizes, _ = iou_matrix(gt, pred)
        objects += len(gt_ids)
        for g in range(len(gt_ids)):  # SEG written out object by object
            covering = np.flatnonzero(overlap[g] * 2 > gt_sizes[g])
            if len(covering):
                total += float(iou[g, covering[0]])
    assert (tally.tp, tally.fp, tally.fn) == tuple(counts.tolist())
    assert tally.scores() == scores_from_counts(*counts.tolist())
    assert (tally.objects, tally.seg()) == (objects, total / objects)
    with pytest.raises(DegenerateError, match="no ground truth"):
        Tally(0.5).seg()


@pytest.mark.parametrize("threshold", [0.0, 1.5, float("nan")])
def test_tally_rejects_a_threshold_outside_zero_one(threshold):
    with pytest.raises(ValueError, match="IoU threshold"):
        Tally(threshold)


def test_format_score_table_header():
    table = format_score_table([("f1", 0.5, 1.0)])
    lines = table.strip().split("\n")
    assert lines[0] == "metric\tthreshold\tvalue"
    assert lines[1].startswith("f1\t0.5\t1.000000")
