import hashlib

import numpy as np
import pytest
from scipy import ndimage

from oceseg import ConfigError, PlacementError
from oceseg.synth import (
    SceneSpec,
    generate_dataset,
    object_template,
    synth_generate,
)


def test_deterministic_in_seed():
    a_img, a_lab = synth_generate(SceneSpec(seed=9))
    b_img, b_lab = synth_generate(SceneSpec(seed=9))
    assert np.array_equal(a_img, b_img) and np.array_equal(a_lab, b_lab)


def test_zero_objects_pure_noise():
    img, lab = synth_generate(SceneSpec(n_objects=0, seed=2))
    assert lab.max() == 0
    assert abs(float(img.mean()) - 0.1) < 0.01


def test_instances_disjoint_inside_canvas_consecutive():
    img, lab = synth_generate(SceneSpec(seed=4))
    ids = np.unique(lab)
    assert np.array_equal(ids, np.arange(0, lab.max() + 1))
    assert lab.max() == 20
    # nothing touches the border
    assert lab[0].max() == 0 and lab[-1].max() == 0
    assert lab[:, 0].max() == 0 and lab[:, -1].max() == 0
    # instances pairwise non-adjacent (placement keeps a gap)
    for ident in range(1, lab.max() + 1):
        m = lab == ident
        grown = ndimage.binary_dilation(m, structure=np.ones((3, 3)))
        assert not np.any(grown & (lab > 0) & ~m)


def test_objects_share_template_pattern():
    img, lab = synth_generate(SceneSpec(seed=5))
    ref = None
    for ident in (1, 2, 3):
        ys, xs = np.where(lab == ident)
        vals = img[0][ys, xs]
        if ref is None:
            ref = vals
        else:
            assert np.array_equal(ref, vals)


def test_labeled_pixels_brighter_than_background():
    img, lab = synth_generate(SceneSpec(seed=6))
    bg_mean = img[0][lab == 0].mean()
    assert img[0][lab > 0].min() > bg_mean


def test_placement_failure_raises():
    with pytest.raises(PlacementError):
        synth_generate(SceneSpec(height=64, width=64, n_objects=50, seed=0))


@pytest.mark.parametrize("field, value", [
    ("height", 0), ("width", 64.0), ("n_objects", -1), ("n_objects", True), ("seed", "1"),
    ("radius_range", (8.0, float("inf"))), ("radius_range", (0.0, 5.0)),
    ("radius_range", (9.0, 8.0)), ("eccentricity_range", (0.9, 1.2)),
    ("eccentricity_range", (1.0, float("nan"))), ("noise_std", float("nan")),
    ("noise_std", -0.01), ("noise_std", "0.02"),
])
def test_scene_spec_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        SceneSpec(**{field: value})


def test_scene_spec_needs_the_largest_template_to_fit():
    side = object_template(14.0, 1.4)[1].shape[0]
    assert side == 41
    _, labels = synth_generate(SceneSpec(height=side, width=side + 9, n_objects=1,
                                         radius_range=(14.0, 14.0),
                                         eccentricity_range=(1.4, 1.4)))
    assert labels.max() == 1
    with pytest.raises(ConfigError, match="does not fit the 40x52 canvas"):
        SceneSpec(height=side - 1, width=side + 11)


@pytest.mark.parametrize("count", [0, -2])
def test_generate_dataset_needs_a_scene(count):
    with pytest.raises(ConfigError, match="count"):
        generate_dataset(SceneSpec(), count)


def test_generate_dataset_distinct_scenes():
    scenes = generate_dataset(SceneSpec(height=96, width=96, n_objects=3,
                                        radius_range=(5, 7)), 3, seed=1)
    assert len(scenes) == 3
    assert not np.array_equal(scenes[0][0], scenes[1][0])


def test_template_support_and_texture():
    values, support = object_template(6.0, 1.2, 0.3)
    assert values.shape == support.shape
    assert np.all(values[~support] == 0)
    assert values[support].min() > 0.3
    # texture varies within the object (position identifiable)
    assert len(np.unique(values[support])) > 0.9 * support.sum()


@pytest.mark.parametrize("spec, count, seed, digest", [
    (SceneSpec(height=64, width=64, n_objects=3, radius_range=(8.0, 8.0)), 2, 0,
     "b08a61c17dc6de5f6e527f01d2dd824085b63938b35091163dd9a86e7a828bde"),
    (SceneSpec(height=64, width=80, n_objects=4, radius_range=(4.0, 7.0)), 3, 1,
     "d43276edb3643fb31c75a0e5ef55bffb443d59ae5280a28148d88afb69f3dacf"),
    (SceneSpec(height=96, width=96, n_objects=20, radius_range=(5.0, 6.0), noise_std=0.05), 2, 7,
     "135e95b9657805de286796970e21bea5c5ab8df4b074178a8a4c9877068a6c02"),
    (SceneSpec(height=40, width=40, n_objects=2, radius_range=(8.0, 10.0),
               eccentricity_range=(1.0, 1.0)), 3, 3,
     "ff8d92c74cf8ab104e5918394ab9904493a401f5f06a60aa458c14d7ee631643"),
], ids=["sparse", "wide", "dense", "border"])
def test_generate_dataset_bytes_are_pinned(spec, count, seed, digest):
    # sha256 over every image's and label mask's bytes in scene order; the
    # benchmark's quality floors hold only for these exact scenes, so any
    # change to the generator calls or to placement shows here
    h = hashlib.sha256()
    for img, lab in generate_dataset(spec, count, seed=seed):
        h.update(img.tobytes())
        h.update(lab.tobytes())
    assert h.hexdigest() == digest
