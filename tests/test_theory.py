import numpy as np
import pytest

from oceseg import DegenerateError, PlacementError
from oceseg.synth import object_template
from oceseg.theory import (
    decompose_offsets,
    make_scenes,
    occurrences,
    offset_report,
    place_scene,
)
from oceseg.theory import _membership, _wrap_centered

TEMPLATE, _ = object_template(7.0)
PATCH_A = TEMPLATE[3:8, 3:8]
PATCH_B = TEMPLATE[7:12, 7:12]
INTRA = np.array([4, 4])


def test_wrap_centered_convention():
    # even length: range (-L/2, L/2]
    L = 8
    vals = _wrap_centered(np.arange(-12, 13), L)
    assert vals.min() == -3 and vals.max() == 4
    assert _wrap_centered(np.array([4]), L)[0] == 4
    assert _wrap_centered(np.array([-4]), L)[0] == 4
    # odd length: symmetric
    vals = _wrap_centered(np.arange(-12, 13), 7)
    assert vals.min() == -3 and vals.max() == 3


def test_place_single_object():
    rng = np.random.default_rng(0)
    sample = place_scene(TEMPLATE, 1, (64, 64), rng, "bounded")
    assert len(sample.origins) == 1
    r0, c0 = sample.origins[0]
    assert np.array_equal(
        sample.scene[r0:r0 + TEMPLATE.shape[0], c0:c0 + TEMPLATE.shape[1]], TEMPLATE
    )


def test_place_scene_center_distances_exceed_diameter():
    rng = np.random.default_rng(1)
    sample = place_scene(TEMPLATE, 30, (512, 512), rng, "periodic")
    th, tw = sample.template_shape
    H, W = sample.scene.shape
    for i in range(30):
        for j in range(i + 1, 30):
            d = sample.origins[i] - sample.origins[j]
            dr = int(_wrap_centered(np.array([d[0]]), H)[0])
            dc = int(_wrap_centered(np.array([d[1]]), W)[0])
            assert np.hypot(dr, dc) > max(th, tw)


def test_place_scene_failure():
    rng = np.random.default_rng(2)
    with pytest.raises(PlacementError):
        place_scene(TEMPLATE, 40, (64, 64), rng, "bounded")


def test_place_scene_rejects_a_negative_count():
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
        place_scene(TEMPLATE, -1, (64, 64), np.random.default_rng(0))


def test_occurrences_reproduce_content_and_count():
    rng = np.random.default_rng(3)
    for boundary, canvas in (("bounded", 128), ("periodic", 127)):
        sample = place_scene(TEMPLATE, 5, (canvas, canvas), rng, boundary)
        locs = occurrences(sample, PATCH_A)
        assert len(locs) == 5
        H, W = sample.scene.shape
        for (r, c) in locs:
            rows = (r + np.arange(5)) % H
            cols = (c + np.arange(5)) % W
            assert np.array_equal(sample.scene[np.ix_(rows, cols)], PATCH_A)


def _occurrences_reference(sample, patch):
    """occurrences written as a loop over the candidate hits of the anchor value."""
    patch = np.asarray(patch, dtype=np.float32)
    ph, pw = patch.shape
    scene = sample.scene
    H, W = scene.shape
    anchor = np.unravel_index(int(np.abs(patch).argmax()), patch.shape)
    found = []
    for (hr, hc) in np.argwhere(scene == patch[anchor]):
        r0, c0 = int(hr - anchor[0]), int(hc - anchor[1])
        if sample.periodic:
            r0 %= H
            c0 %= W
            window = scene[np.ix_((r0 + np.arange(ph)) % H, (c0 + np.arange(pw)) % W)]
        else:
            if not (0 <= r0 <= H - ph and 0 <= c0 <= W - pw):
                continue
            window = scene[r0:r0 + ph, c0:c0 + pw]
        if np.array_equal(window, patch):
            found.append((r0, c0))
    return np.asarray(sorted(set(found)), np.int64).reshape(-1, 2)


def _membership_reference(locs, sample, patch_shape):
    """_membership written as a search of every origin for every occurrence."""
    (ph, pw), (th, tw) = patch_shape, sample.template_shape
    H, W = sample.scene.shape
    owners = np.full(len(locs), -1, np.int64)
    for i, (r, c) in enumerate(locs):
        for k, (orr, occ) in enumerate(sample.origins):
            dr, dc = r - orr, c - occ
            if sample.periodic:
                dr, dc = dr % H, dc % W
            if 0 <= dr <= th - ph and 0 <= dc <= tw - pw:
                owners[i] = k
                break
    return owners


@pytest.mark.parametrize("boundary, canvas", [("periodic", 71), ("bounded", 72)])
def test_occurrences_match_the_loop_reference(boundary, canvas):
    # a crowded small canvas puts periodic copies across both edges
    patches = [PATCH_A, PATCH_B, TEMPLATE[0:5, 0:5], TEMPLATE[:, 10:], TEMPLATE[7:8, 7:8],
               np.full((3, 3), 123.0, np.float32)]
    for sample in make_scenes(6, 5, canvas, TEMPLATE, seed=13, boundary=boundary):
        for patch in patches:
            got = occurrences(sample, patch)
            assert got.dtype == np.int64
            assert np.array_equal(got, _occurrences_reference(sample, patch))
            if len(got):
                owners = _membership(got, sample, np.shape(patch))
                assert np.array_equal(owners, _membership_reference(got, sample, np.shape(patch)))


def test_missing_patch_errors():
    rng = np.random.default_rng(4)
    samples = [place_scene(TEMPLATE, 2, (96, 96), rng, "bounded")]
    alien = np.full((5, 5), 123.0, np.float32)
    with pytest.raises(DegenerateError):
        decompose_offsets(alien, PATCH_B, samples)


def test_decompose_needs_a_scene():
    with pytest.raises(DegenerateError, match="no scenes"):
        decompose_offsets(PATCH_A, PATCH_B, [])


def test_single_object_mean_is_intra_offset():
    samples = make_scenes(4, 1, 96, TEMPLATE, seed=5, boundary="bounded")
    dec = decompose_offsets(PATCH_A, PATCH_B, samples)
    assert np.allclose(dec.mean, INTRA)
    assert dec.count == 4
    assert dec.n_cross == 0 and np.isnan(dec.cross_mean).all()


def test_same_patch_mean_is_zero_by_symmetry():
    samples = make_scenes(6, 8, 255, TEMPLATE, seed=6, boundary="periodic")
    dec = decompose_offsets(PATCH_A, PATCH_A, samples)
    assert np.array_equal(dec.total, np.zeros(2, np.int64))  # i<->j symmetry, exact


def test_decomposition_counts_and_identity():
    samples = make_scenes(25, 12, 255, TEMPLATE, seed=7, boundary="periodic")
    dec = decompose_offsets(PATCH_A, PATCH_B, samples)
    assert dec.n_same == 12 * 25
    assert dec.n_cross == 12 * 11 * 25
    assert dec.count == dec.n_same + dec.n_cross
    # bookkeeping identity is exact in integer arithmetic
    assert np.array_equal(dec.total, dec.same_total + dec.cross_total)
    # same-object offsets are exactly the intra-object offset, every scene
    assert np.allclose(dec.same_mean, INTRA)
    assert np.array_equal(dec.same_total, INTRA * dec.n_same)


def test_periodic_cross_term_within_three_se():
    samples = make_scenes(120, 12, 255, TEMPLATE, seed=8, boundary="periodic")
    dec = decompose_offsets(PATCH_A, PATCH_B, samples)
    z = dec.cross_mean / dec.cross_se
    assert np.all(np.abs(z) < 3), z


@pytest.mark.parametrize("canvas", [200, 511])
def test_bounded_cross_sum_is_exactly_intra_offset(canvas):
    """Without wrapping, each ordered pair of objects occurs in both orders,
    so origin differences cancel and every scene's cross sum is n_cross *
    INTRA: the cross term does not vanish on a bounded canvas."""
    for sample in make_scenes(8, 12, canvas, TEMPLATE, seed=12, boundary="bounded"):
        dec = decompose_offsets(PATCH_A, PATCH_B, [sample])
        assert dec.n_cross == 12 * 11
        assert np.array_equal(dec.cross_total, INTRA * dec.n_cross)


def test_proportionality_overall_mean():
    samples = make_scenes(120, 12, 255, TEMPLATE, seed=9, boundary="periodic")
    dec = decompose_offsets(PATCH_A, PATCH_B, samples)
    target = dec.n_same / dec.count * INTRA
    band = 3 * dec.n_cross / dec.count * dec.cross_se
    assert np.all(np.abs(dec.mean - target) <= band)


def test_cross_distribution_negation_symmetric():
    # pooled skew statistic stays within ~5 standard errors of zero
    samples = make_scenes(80, 10, 255, TEMPLATE, seed=10, boundary="periodic")
    offsets = []
    from oceseg.theory import _pair_offsets

    for sample in samples:
        la = occurrences(sample, PATCH_A)
        lb = occurrences(sample, PATCH_B)
        oa = _membership(la, sample, PATCH_A.shape)
        ob = _membership(lb, sample, PATCH_B.shape)
        d = _pair_offsets(la, lb, sample).reshape(len(la), len(lb), 2)
        offsets.append(d[oa[:, None] != ob[None, :]])
    pooled = np.concatenate(offsets).astype(np.float64)
    n = len(pooled)
    for comp in range(2):
        x = pooled[:, comp]
        skew = np.mean(((x - x.mean()) / x.std()) ** 3)
        assert abs(skew) < 5 * np.sqrt(6.0 / n)


def test_offset_report_format():
    samples = make_scenes(3, 4, 127, TEMPLATE, seed=11, boundary="periodic")
    table = offset_report("ab", PATCH_A, PATCH_B, samples)
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == [
        "pair", "same_dr", "same_dc", "cross_dr", "cross_dc",
        "cross_se_dr", "cross_se_dc", "n_same", "n_cross",
    ]
    assert lines[1].startswith("ab\t4.000000\t4.000000")
