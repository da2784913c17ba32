import json
import os
import shutil
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oceseg import (
    AdamState,
    LossConfig,
    ModelConfig,
    SceneSpec,
    SegmenterConfig,
    TrainConfig,
    cli,
    errors,
    generate_dataset,
    init_params,
    load_checkpoint,
    network,
    save_checkpoint,
    seg_score_dataset,
    segment_image,
    segmentation,
    train,
)
from oceseg.data import (
    load_dataset,
    normalize_percentile,
    rescale_image,
    rescale_labels,
    save_dataset,
    tensor_read,
    tensor_to_bytes,
    tensor_write,
)

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "bench" / "fixture"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A 64^2 labelled dataset and an untrained 4-map checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--images", "2", "--size", "64",
                     "--objects", "3", "--radius-max", "8", "--seed", "1"]) == 0
    params = init_params(ModelConfig(base_fmaps=4), seed=0)
    save_checkpoint(root / "model.ocec", params, AdamState.fresh(params))
    return root


def _run(run_dir, command, out, sections, model="model.ocec", data="data"):
    """``oceseg segment``, ``predict`` or ``train`` on a dataset of the
    fixture (by default its clean one) with ``sections`` as its config file."""
    config = run_dir / f"{out}.json"
    config.write_text(json.dumps(sections))
    model = [] if command == "train" else ["--model", str(run_dir / model)]
    return cli.main([command, *model, "--data", str(run_dir / data),
                     "--out", str(run_dir / out), "--config", str(config)])


def _segment(run_dir, out, segment_config):
    return _run(run_dir, "segment", out, {"segment": segment_config})


def test_eval_reads_segment_output_root(run_dir, capsys):
    assert _segment(run_dir, "seg", {"min_instance_size": 0}) == 0
    capsys.readouterr()
    gt = str(run_dir / "data")
    assert cli.main(["eval", "--gt", gt, "--pred", str(run_dir / "seg")]) == 0
    from_root = capsys.readouterr().out
    assert cli.main(["eval", "--gt", gt, "--pred", str(run_dir / "seg" / "labels")]) == 0
    assert from_root == capsys.readouterr().out
    assert from_root.splitlines()[0].split("\t")[0] == "metric"


@pytest.mark.parametrize("rescale", [1.5, 0.75])
def test_segment_maps_rescaled_labels_to_the_original_shape(run_dir, rescale):
    out = f"rescale_{rescale}"
    sections = {"data": {"rescale": rescale}, "segment": {"min_instance_size": 0}}
    assert _run(run_dir, "segment", out, sections) == 0
    params, _, _ = load_checkpoint(run_dir / "model.ocec")
    config = SegmenterConfig(min_instance_size=0)
    for i, stem in enumerate(["im0000", "im0001"]):
        raw = tensor_read(run_dir / "data" / "images" / f"{stem}.ocet")
        img = rescale_image(normalize_percentile(raw), rescale)
        working = segment_image(params, img, config, seed=i)
        assert working.shape != raw.shape[1:] and working.max() > 0
        expected = rescale_labels(working, raw.shape[1:])
        written = tensor_read(run_dir / out / "labels" / f"{stem}.ocet")
        assert written.shape == raw.shape[1:]
        assert np.array_equal(written, expected)


def test_eval_still_rejects_a_directory_without_labels(run_dir, capsys):
    empty = run_dir / "empty"
    empty.mkdir()
    assert cli.main(["eval", "--gt", str(run_dir / "data"), "--pred", str(empty)]) == 2
    assert "no .ocet files" in capsys.readouterr().err


@pytest.mark.parametrize("only_in", ["ground truth", "prediction"])
def test_eval_names_a_stem_found_on_one_side_only(run_dir, tmp_path, capsys, only_in):
    full, part = run_dir / "data" / "labels", tmp_path / "part"
    part.mkdir()
    shutil.copy(full / "im0000.ocet", part / "im0000.ocet")
    gt, pred = (full, part) if only_in == "ground truth" else (part, full)
    assert cli.main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert f"error: stem im0001 is in the {only_in} only" in err and "Traceback" not in err


@pytest.mark.parametrize("size", ["abc", -3, 1.5])
def test_segment_rejects_bad_min_instance_size(run_dir, capsys, size):
    assert _segment(run_dir, "bad", {"min_instance_size": size}) == 2
    assert "min_instance_size" in capsys.readouterr().err
    assert not (run_dir / "bad").exists()


@pytest.mark.parametrize("bad", ["float32", "negative"])
def test_eval_rejects_bad_label_ids(run_dir, capsys, bad):
    gt = run_dir / "data" / "labels"
    pred = run_dir / f"pred_{bad}"
    pred.mkdir()
    for f in sorted(gt.iterdir()):
        labels = tensor_read(f)
        if bad == "float32":
            labels = labels.astype(np.float32)
        else:
            labels[labels == 1] = -1
        tensor_write(pred / f.name, labels)
    assert cli.main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert "error: label ids must be" in err and "Traceback" not in err


def _train(run_dir, out, train_config):
    return _run(run_dir, "train", out, {"train": train_config})


@pytest.mark.parametrize("train_config", [
    {"batch_size": 0}, {"crop_size": 251}, {"epochs": 0}, {"base_lr": -1.0}, {"epochs": "2"},
])
def test_train_rejects_bad_config(run_dir, capsys, train_config):
    (field, value), = train_config.items()
    out = f"bad_train_{field}_{value}"
    assert _train(run_dir, out, train_config) == 2
    assert field in capsys.readouterr().err
    assert not (run_dir / out).exists()


@pytest.mark.parametrize("segment_config", [
    {"noise_rounds": "abc"}, {"noise_rounds": 2.5}, {"bandwidth": "12"}, {"shrink_distance": -1},
])
def test_segment_rejects_bad_config(run_dir, capsys, segment_config):
    (field, value), = segment_config.items()
    out = f"bad_segment_{field}_{value}"
    assert _segment(run_dir, out, segment_config) == 2
    assert field in capsys.readouterr().err
    assert not (run_dir / out).exists()


def test_segment_rejects_a_bandwidth_too_small_for_its_points(run_dir, capsys):
    # 1e-300 is a valid config value, but mean-shift's int64 bin keys of the
    # center estimates would overflow: it once died in the assignment
    assert _segment(run_dir, "tiny_bandwidth", {"bandwidth": 1e-300}) == 2
    err = capsys.readouterr().err
    assert "error: bandwidth 1e-300 is too small for coordinates up to" in err
    assert "Traceback" not in err and not (run_dir / "tiny_bandwidth").exists()


@pytest.mark.parametrize("command", ["segment", "train"])
@pytest.mark.parametrize("sections", [
    {"data": {"rescale": "2"}}, {"data": {"rescale": 0}}, {"data": {"normalize": "yes"}},
    {"model": {"base_fmaps": "8"}}, {"loss": {"pair_radius": "10"}},
])
def test_bad_config_section_exits_before_writing(run_dir, capsys, command, sections):
    (section, fields), = sections.items()
    (field, value), = fields.items()
    out = f"bad_{command}_{section}_{field}_{value}"
    assert _run(run_dir, command, out, sections) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (run_dir / out).exists()


@pytest.mark.parametrize("sections, message", [
    ({"train": {"crop_size": 96}}, "crop 96 larger than image 64x64"),
    ({"model": {"in_channels": 2}}, "model expects (2,H,W)"),
    ({"model": {"out_channels": 3}}, "out_channels must be 2"),
    ({"train": {"crop_size": 24}}, "crop_size 24 gives a 8x8 field, not larger than twice the "
                                   "pair radius 10.0"),
])
def test_train_checks_model_and_images_before_writing(run_dir, capsys, sections, message):
    (fields,) = sections.values()
    ((field, value),) = fields.items()
    out = f"unfit_train_{field}_{value}"
    assert _run(run_dir, "train", out, sections) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (run_dir / out).exists()


@pytest.mark.parametrize("command", ["segment", "predict"])
@pytest.mark.parametrize("case, message", [
    ("in_channels", "model expects (2,H,W)"),
    ("rescale", "image 16x16 smaller than 20x20"),
], ids=["in_channels", "rescale"])
def test_inference_checks_images_before_writing(run_dir, capsys, command, case, message):
    model, sections = "model.ocec", {}
    if case == "in_channels":
        params = init_params(ModelConfig(in_channels=2, base_fmaps=4), seed=0)
        model = "model_2ch.ocec"
        save_checkpoint(run_dir / model, params, AdamState.fresh(params))
    else:
        sections = {"data": {"rescale": 0.25}}
    out = f"unfit_{command}_{case}"
    assert _run(run_dir, command, out, sections, model=model) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (run_dir / out).exists()


NON_FINITE_FIELD = "error: offset field is not finite: it holds NaN or inf values\n"


def _overflow_model(run_dir):
    """A checkpoint of finite weights whose head overflows float32, so every
    prediction is inf (and a variance map of them NaN)."""
    params = init_params(ModelConfig(base_fmaps=4), seed=0)
    params["dec3.b"].data[...] = 1.0
    params["head.w"].data[...] = np.finfo(np.float32).max
    save_checkpoint(run_dir / "model_overflow.ocec", params, AdamState.fresh(params))
    return "model_overflow.ocec"


def test_segment_rejects_a_non_finite_variance_map(run_dir, capsys):
    assert _run(run_dir, "segment", "overflow_head", {}, model=_overflow_model(run_dir)) == 2
    # no numpy warning from the overflow inside the forward: the suite runs
    # with RuntimeWarning as an error, and stderr holds the error line only
    assert capsys.readouterr().err == NON_FINITE_FIELD
    assert not (run_dir / "overflow_head").exists()


def test_predict_rejects_a_non_finite_field_before_writing(run_dir, capsys):
    out = "overflow_head_predict"
    assert _run(run_dir, "predict", out, {}, model=_overflow_model(run_dir)) == 2
    assert capsys.readouterr().err == NON_FINITE_FIELD
    assert not (run_dir / out).exists()


@pytest.mark.parametrize("command", ["segment", "predict"])
def test_inference_rejects_a_non_finite_checkpoint_before_writing(run_dir, capsys, command):
    params = init_params(ModelConfig(base_fmaps=4), seed=0)
    params["head.w"].data[...] = np.nan
    save_checkpoint(run_dir / "model_nan.ocec", params, AdamState.fresh(params))
    out = f"nan_head_{command}"
    assert _run(run_dir, command, out, {}, model="model_nan.ocec") == 2
    err = capsys.readouterr().err
    assert "error: checkpoint tensor param.head.w holds NaN or inf values" in err
    assert "Traceback" not in err and not (run_dir / out).exists()


@pytest.fixture(scope="module")
def nan_data(run_dir):
    """The fixture dataset with one NaN pixel in its second image."""
    stems, images, labels = load_dataset(run_dir / "data")
    images = [np.array(img) for img in images]
    images[1][0, 10, 20] = np.nan
    save_dataset(run_dir / "data_nan", images, labels, stems)
    return "data_nan"


@pytest.mark.parametrize("command", ["train", "predict", "segment"])
@pytest.mark.parametrize("normalize", [True, False])
def test_commands_reject_a_non_finite_image_before_writing(run_dir, nan_data, capsys, command,
                                                            normalize):
    out = f"nan_image_{command}_{normalize}"
    sections = {"data": {"normalize": normalize}, "train": {"crop_size": 48}}
    assert _run(run_dir, command, out, sections, data=nan_data) == 2
    err = capsys.readouterr().err
    assert "error: image is not finite: it holds NaN or inf values" in err
    assert "Traceback" not in err and not (run_dir / out).exists()


@pytest.mark.parametrize("command", ["train", "predict", "segment", "sweep"])
def test_commands_reject_an_image_without_pixels_before_writing(run_dir, capsys, command):
    save_dataset(run_dir / "data_empty", [np.zeros((1, 0, 40), np.float32)],
                 [np.zeros((0, 40), np.int32)])
    out = f"empty_image_{command}"
    assert _run(run_dir, command, out, {}, data="data_empty") == 2
    err = capsys.readouterr().err
    assert "expects (C, H, W) with pixels, got shape (1, 0, 40)" in err
    assert "Traceback" not in err and not (run_dir / out).exists()


def _data_with_label(run_dir, label):
    """The fixture dataset with its second label replaced by ``label``, or
    removed for None; returns the dataset's name under ``run_dir``."""
    stems, images, labels = load_dataset(run_dir / "data")
    name = "data_no_label" if label is None else f"data_label_{label.ndim}d"
    if label is not None:
        labels[1] = label
    save_dataset(run_dir / name, images, labels, stems)
    if label is None:
        (run_dir / name / "labels" / "im0001.ocet").unlink()
    return name


@pytest.mark.parametrize("command, shape", [("sweep", (48, 40)), ("sweep", (1, 64, 64))],
                         ids=["sweep-48x40", "sweep-1x64x64"])
def test_commands_reject_a_label_off_its_image_grid_before_writing(run_dir, capsys, command,
                                                                   shape):
    # sweep would score such a label, which eval of segment's output rejects;
    # it alone reads labels
    data = _data_with_label(run_dir, np.zeros(shape, np.int32))
    out = f"off_grid_{command}_{len(shape)}d"
    assert _run(run_dir, command, out, {}, data=data) == 2
    err = capsys.readouterr().err
    assert f"error: label im0001 has shape {shape}, not its image's grid (64, 64)" in err
    assert "Traceback" not in err and not (run_dir / out).exists()


def test_sweep_rejects_an_image_without_a_label_before_writing(run_dir, capsys):
    data = _data_with_label(run_dir, None)
    assert _run(run_dir, "sweep", "no_label_sweep", {}, data=data) == 2
    err = capsys.readouterr().err
    assert "error: image im0001 has no label" in err
    assert "Traceback" not in err and not (run_dir / "no_label_sweep").exists()


# only sweep scores, so only sweep reads labels: a dataset with few
# annotated images, or a label off its image's grid, is no error elsewhere
@pytest.mark.parametrize("command", ["train", "predict", "segment"])
@pytest.mark.parametrize("label", ["missing", "off_grid"])
def test_commands_that_score_nothing_ignore_the_labels(run_dir, command, label):
    data = _data_with_label(run_dir, None if label == "missing" else np.zeros((48, 40), np.int32))
    out = f"{label}_label_{command}"
    sections = {"model": {"base_fmaps": 4}, "train": {"epochs": 1, "batch_size": 2, "crop_size": 48}}
    assert _run(run_dir, command, out, sections, data=data) == 0
    assert (run_dir / out).is_dir()


@pytest.fixture(scope="module")
def fixture_scenes(tmp_path_factory):
    """Two labelled 160^2 scenes sized for the committed 16-map checkpoint."""
    data = tmp_path_factory.mktemp("scenes") / "data"
    assert cli.main(["synth", "--out", str(data), "--images", "2", "--size", "160",
                     "--objects", "12", "--radius-min", "9", "--radius-max", "11",
                     "--seed", "9"]) == 0
    return data


@pytest.mark.parametrize("rescale", [1.5, 1.0])
def test_sweep_scores_what_segment_writes(tmp_path, fixture_scenes, rescale):
    # sweep scores on the ground truth's grid, as segment writes its labels
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"rescale": rescale},
                                  "segment": {"bandwidth": 12.0, "shrink_distance": 6.0}}))
    common = ["--model", str(FIXTURE_DIR / "checkpoint.ocec"), "--data", str(fixture_scenes),
              "--config", str(config)]
    assert cli.main(["sweep", *common, "--bandwidths", "12", "--out", str(tmp_path / "sweep")]) == 0
    assert cli.main(["segment", *common, "--out", str(tmp_path / "seg")]) == 0
    assert cli.main(["eval", "--gt", str(fixture_scenes), "--pred", str(tmp_path / "seg"),
                     "--out", str(tmp_path / "eval")]) == 0
    sweep = (tmp_path / "sweep" / "sweep.tsv").read_text().splitlines()
    scores = (tmp_path / "eval" / "scores.tsv").read_text().splitlines()
    assert sweep[-1].split("\t")[:2] == ["12", "6"]
    assert scores[1].split("\t")[:2] == ["f1", "0.5"]
    assert sweep[-1].split("\t")[2] == scores[1].split("\t")[2]


def _scenes_of(path, counts, size, seed):
    """A labelled dataset of one ``size``^2 scene per entry of ``counts``,
    holding that many cells of radius 9 to 11."""
    scenes = [generate_dataset(SceneSpec(height=size, width=size, n_objects=n,
                                         radius_range=(9.0, 11.0)), 1, seed=seed + i)[0]
              for i, n in enumerate(counts)]
    save_dataset(path, [img for img, _ in scenes], [lab for _, lab in scenes])
    return path


def test_sweep_seg_is_the_pooled_seg_eval_prints(tmp_path):
    # with 10 and 8 cells the mean of per-image SEGs is not the pooled SEG
    data = _scenes_of(tmp_path / "data", [10, 8], 128, seed=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"segment": {"bandwidth": 12.0, "shrink_distance": 6.0}}))
    common = ["--model", str(FIXTURE_DIR / "checkpoint.ocec"), "--data", str(data),
              "--config", str(config)]
    assert cli.main(["sweep", *common, "--metric", "seg", "--bandwidths", "12",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert cli.main(["segment", *common, "--out", str(tmp_path / "seg")]) == 0
    assert cli.main(["eval", "--seg", "--gt", str(data), "--pred", str(tmp_path / "seg"),
                     "--out", str(tmp_path / "eval")]) == 0
    sweep = (tmp_path / "sweep" / "sweep.tsv").read_text().splitlines()
    scores = (tmp_path / "eval" / "scores.tsv").read_text().splitlines()
    assert sweep[-1].split("\t")[:2] == ["12", "6"]
    assert scores[-1].split("\t")[:2] == ["seg", "0.5"]
    assert sweep[-1].split("\t")[2] == scores[-1].split("\t")[2]
    per_image = [seg_score_dataset([(tensor_read(data / "labels" / f"{s}.ocet"),
                                     tensor_read(tmp_path / "seg" / "labels" / f"{s}.ocet"))])
                 for s in ("im0000", "im0001")]
    assert f"{np.mean(per_image):.6f}" != scores[-1].split("\t")[2]


def test_sweep_seg_scores_a_set_with_a_cell_free_image(run_dir, tmp_path):
    data = _scenes_of(tmp_path / "data", [3, 0], 64, seed=1)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--model", str(run_dir / "model.ocec"), "--data", str(data),
                     "--metric", "seg", "--bandwidths", "8", "--out", str(out)]) == 0
    rows = (out / "sweep.tsv").read_text().splitlines()[1:]
    assert [r.split("\t")[:2] for r in rows] == [["8", str(s)] for s in range(7)]


@pytest.mark.parametrize("option", [["--bandwidths", "8,0"], ["--threshold", "0"]])
def test_sweep_checks_candidates_and_threshold_before_inference(run_dir, capsys, monkeypatch,
                                                                option):
    def no_inference(*args, **kwargs):
        raise AssertionError("inference called")

    # the noise rounds run their tiles without predict_full
    monkeypatch.setattr(segmentation, "predict_full", no_inference)
    monkeypatch.setattr(segmentation, "forward", no_inference)
    out = run_dir / "sweep_unchecked"
    assert cli.main(["sweep", "--model", str(run_dir / "model.ocec"), "--data",
                     str(run_dir / "data"), "--out", str(out), *option]) == 2
    err = capsys.readouterr().err
    assert ("bandwidth" if option[0] == "--bandwidths" else "threshold") in err
    assert "Traceback" not in err and not out.exists()


def test_sweep_rejects_a_dataset_without_labels_before_writing(run_dir, tmp_path, capsys):
    stems, images, _ = load_dataset(run_dir / "data", with_labels=False)
    data = tmp_path / "unlabelled"
    save_dataset(data, images, stems=stems)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--model", str(run_dir / "model.ocec"), "--data", str(data),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: no labels/ directory under {data}" in err
    assert "Traceback" not in err and not out.exists()


def test_a_checkpoint_with_a_repeated_entry_exits_before_writing(run_dir, tmp_path, capsys):
    buf = (run_dir / "model.ocec").read_bytes()
    (count,) = struct.unpack_from("<I", buf, 5)
    again = struct.pack("<H", 9) + b"meta.step" + tensor_to_bytes(np.zeros(1, np.float32))
    model = tmp_path / "twice.ocec"
    model.write_bytes(buf[:5] + struct.pack("<I", count + 1) + buf[9:] + again)
    out = tmp_path / "seg"
    assert cli.main(["segment", "--model", str(model), "--data", str(run_dir / "data"),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: repeated entry name 'meta.step'" in err
    assert "Traceback" not in err and not out.exists()


def test_segment_holds_one_image_at_a_time(tmp_path):
    # four copies of one image peak above two copies by less than one
    # prepared image: no image, raw or prepared, outlives its turn
    spec = SceneSpec(height=128, width=128, n_objects=6, radius_range=(9.0, 11.0))
    image = generate_dataset(spec, 1, seed=4)[0][0]
    prepared = image.astype(np.float32).nbytes  # (1, H, W) float32 at rescale 1

    def peak(copies):
        data = tmp_path / f"data{copies}"
        save_dataset(data, [image] * copies)
        tracemalloc.start()
        try:
            assert cli.main(["segment", "--model", str(FIXTURE_DIR / "checkpoint.ocec"),
                             "--data", str(data), "--out", str(tmp_path / f"seg{copies}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches are not the command's
    two, four = peak(2), peak(4)
    assert four - two < prepared, (
        f"grew {(four - two) / 1e3:.1f} kB, one prepared image is {prepared / 1e3:.1f} kB")


def _label_pairs(root, count, side=256):
    """Write ``count`` distinct ground-truth and predicted label masks under
    ``root/gt`` and ``root/pred``: a grid of 16-pixel cells, and that grid
    shifted by the image's index plus one.  Returns one mask's bytes."""
    cells = np.arange(side, dtype=np.int32) // 16
    ids = cells[:, None] * (side // 16) + cells[None] + 1
    for i in range(count):
        tensor_write(root / "gt" / f"im{i:04d}.ocet", ids)
        tensor_write(root / "pred" / f"im{i:04d}.ocet", np.roll(ids, i + 1, axis=1))
    return ids.nbytes


def test_eval_holds_one_label_pair_at_a_time(tmp_path, capsys):
    # four pairs peak above two by less than one mask: eval scores pair by
    # pair, where holding both label sets grew by two masks per pair
    def peak(count):
        root = tmp_path / f"set{count}"
        mask = _label_pairs(root, count)
        tracemalloc.start()
        try:
            assert cli.main(["eval", "--seg", "--thresholds", "0.3,0.5,0.75",
                             "--gt", str(root / "gt"), "--pred", str(root / "pred")]) == 0
            return tracemalloc.get_traced_memory()[1], mask
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches are not the command's
    (two, mask), (four, _) = peak(2), peak(4)
    capsys.readouterr()
    assert four - two < mask, (
        f"grew {(four - two) / 1e3:.1f} kB, one label mask is {mask / 1e3:.1f} kB")


def test_eval_with_a_corrupt_mask_after_the_first_stem_writes_nothing(tmp_path, capsys):
    _label_pairs(tmp_path, 3, side=32)
    (tmp_path / "pred" / "im0001.ocet").write_bytes(b"OCET\x01")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--seg", "--gt", str(tmp_path / "gt"),
                     "--pred", str(tmp_path / "pred"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: truncated header" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_train_holds_one_copy_of_its_dataset(tmp_path):
    # four copies of one image peak above two copies by less than three
    # prepared images: the raw images are not kept beside the prepared ones
    spec = SceneSpec(height=256, width=256, n_objects=20, radius_range=(9.0, 11.0))
    image = generate_dataset(spec, 1, seed=2)[0][0]
    prepared = image.astype(np.float32).nbytes  # (1, H, W) float32 at rescale 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"base_fmaps": 4}, "train": {
        "epochs": 1, "batch_size": 2, "crop_size": 48}}))

    def peak(copies):
        data = tmp_path / f"data{copies}"
        save_dataset(data, [image] * copies)
        tracemalloc.start()
        try:
            assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / f"t{copies}"),
                             "--config", str(config)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # lazy imports and caches are not the command's
    two, four = peak(2), peak(4)
    assert four - two < 3 * prepared, (
        f"grew {(four - two) / 1e3:.1f} kB, one prepared image is {prepared / 1e3:.1f} kB")


@pytest.mark.parametrize("option, value", [
    ("images", "2"), ("images", 2.0), ("images", True), ("noise_std", "0.02"),
    ("noise_std", False), ("out", 3), ("seed", "3"), ("seed", 1.0),
    ("options", 3), ("options", ["out"]),
])
def test_stored_options_are_type_checked(tmp_path, capsys, option, value):
    out = tmp_path / "data"
    options = {"out": str(out), "images": 1, "size": 32, "objects": 1, "radius_min": 4.0,
               "radius_max": 5.0, "noise_std": 0.02}
    payload = {"command": "synth", "seed": 0, "options": options, "config": {}}
    (payload if option in ("seed", "options") else options)[option] = value
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(payload))
    assert cli.main(["synth", "--config", str(echo)]) == 2
    err = capsys.readouterr().err
    assert repr(option) in err and "Traceback" not in err
    assert not out.exists()


def test_stored_options_of_the_right_type_load(tmp_path):
    out = tmp_path / "data"
    echo = tmp_path / "echo.json"
    # a float option may be stored as an int, and is read as a float
    echo.write_text(json.dumps({"command": "synth", "seed": 2, "options": {
        "out": str(out), "images": 1, "size": 32, "objects": 1, "radius_min": 4,
        "radius_max": 5.0, "noise_std": 0.02}, "config": {}}))
    assert cli.main(["synth", "--config", str(echo)]) == 0
    options = json.loads((out / "config.json").read_text())["options"]
    assert options["radius_min"] == 4.0 and isinstance(options["radius_min"], float)
    assert options["images"] == 1 and (out / "images" / "im0000.ocet").exists()


def test_default_config_sections():
    assert cli.DEFAULT_CONFIG == {
        "model": {"in_channels": 1, "base_fmaps": 64, "fmap_factor": 3, "depth": 1,
                  "out_channels": 2},
        "loss": {"pair_radius": 10.0, "temperature": 10.0, "reg_weight": 1e-5,
                 "anchor_density": 0.10},
        "train": {"epochs": 50, "batch_size": 8, "crop_size": 252, "base_lr": 4e-5},
        "segment": {"noise_rounds": 5, "noise_fraction": 0.01, "bandwidth": 10.0,
                    "shrink_distance": 0.0, "min_instance_size": 10,
                    "connectivity_relabel": False},
        "data": {"normalize": True, "rescale": 1.0},
    }


@pytest.mark.parametrize("name", ["config.json", "segment.json"])
def test_benchmark_fixture_configs_load(run_dir, name):
    # config.json is an old train echo; segment.json a bare sections file
    out = run_dir / f"fixture_{name}"
    gt = str(run_dir / "data")
    assert cli.main(["eval", "--gt", gt, "--pred", gt, "--out", str(out),
                     "--config", str(FIXTURE_DIR / name)]) == 0
    payload = json.loads((FIXTURE_DIR / name).read_text())
    expected = {k: dict(v) for k, v in cli.DEFAULT_CONFIG.items()}
    for section, fields in payload.get("config", payload).items():
        expected[section].update(fields)
    assert json.loads((out / "config.json").read_text())["config"] == expected


def test_synth_train_segment_eval_and_reproduce(tmp_path, monkeypatch, capsys):
    data, out = tmp_path / "data", tmp_path / "train"
    assert cli.main(["synth", "--out", str(data), "--images", "2", "--size", "64",
                     "--objects", "3", "--radius-max", "8", "--seed", "4"]) == 0
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"model": {"base_fmaps": 4},
                                  "train": {"epochs": 2, "batch_size": 2, "crop_size": 48}}))
    saved = []
    save = cli.save_checkpoint

    def recording_save(path, params, adam, next_epoch):
        saved.append(next_epoch)
        save(path, params, adam, next_epoch)

    monkeypatch.setattr(cli, "save_checkpoint", recording_save)
    assert cli.main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(config), "--seed", "3"]) == 0
    assert saved == [1, 2]  # a checkpoint after every epoch
    rows = (out / "loss_trace.tsv").read_text().splitlines()
    assert rows[0] == "epoch\tmean_loss" and [r.split("\t")[0] for r in rows[1:]] == ["0", "1"]
    ckpt = out / "checkpoint.ocec"
    first = ckpt.read_bytes()
    assert load_checkpoint(ckpt)[2] == 2

    # the echo alone reproduces the run bit for bit
    echo = (out / "config.json").read_bytes()
    assert cli.main(["train", "--config", str(out / "config.json")]) == 0
    assert ckpt.read_bytes() == first
    # its options and seed replay only into train: segment misses its --out
    assert cli.main(["segment", "--model", str(ckpt), "--data", str(data),
                     "--config", str(out / "config.json")]) == 1
    assert "missing required option --out" in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == echo and not (out / "labels").exists()
    # a resume with no epoch left still writes its checkpoint
    done = tmp_path / "done"
    assert cli.main(["train", "--data", str(data), "--out", str(done), "--config", str(config),
                     "--resume", str(ckpt)]) == 0
    assert (done / "checkpoint.ocec").read_bytes() == first
    assert saved[-1] == 2 and len(saved) == 5

    seg = tmp_path / "seg"
    assert cli.main(["segment", "--model", str(ckpt), "--data", str(data),
                     "--out", str(seg), "--seed", "3"]) == 0
    assert cli.main(["eval", "--gt", str(data), "--pred", str(seg), "--seg"]) == 0


def test_resume_into_the_run_directory_keeps_the_loss_trace(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--images", "2", "--size", "64",
                     "--objects", "3", "--radius-max", "8", "--seed", "4"]) == 0

    def train(out, epochs, resume=()):
        config = tmp_path / f"epochs{epochs}.json"
        config.write_text(json.dumps({"model": {"base_fmaps": 4}, "train": {
            "epochs": epochs, "batch_size": 2, "crop_size": 48}}))
        assert cli.main(["train", "--data", str(data), "--out", str(out), "--config",
                         str(config), "--seed", "3", *resume]) == 0
        return (out / "loss_trace.tsv").read_text(), (out / "checkpoint.ocec").read_bytes()

    whole = train(tmp_path / "whole", 3)
    run = tmp_path / "run"
    train(run, 2)
    assert train(run, 3, ["--resume", str(run / "checkpoint.ocec")]) == whole
    assert len(whole[0].splitlines()) == 4  # the header and epochs 0, 1 and 2


def _failing_loss(*_):
    raise errors.DegenerateError("loss failed")


def _small_train(run_dir, out, epochs, resume=()):
    config = run_dir / f"train_epochs{epochs}.json"
    config.write_text(json.dumps({"model": {"base_fmaps": 4}, "train": {
        "epochs": epochs, "batch_size": 2, "crop_size": 48}}))
    return cli.main(["train", "--data", str(run_dir / "data"), "--out", str(out),
                     "--config", str(config), *resume])


def test_train_that_fails_its_first_step_leaves_no_out(run_dir, capsys, monkeypatch):
    monkeypatch.setattr(network, "oce_loss", _failing_loss)
    out = run_dir / "train_fails"
    assert _small_train(run_dir, out, 1) == 2
    assert "error: loss failed" in capsys.readouterr().err
    assert not out.exists()


def test_failed_resume_into_the_run_directory_keeps_trace_and_checkpoint(run_dir, tmp_path,
                                                                         monkeypatch):
    run = tmp_path / "run"
    assert _small_train(run_dir, run, 1) == 0
    old = tmp_path / "epoch1.ocec"
    old.write_bytes((run / "checkpoint.ocec").read_bytes())
    assert _small_train(run_dir, run, 2, ["--resume", str(old)]) == 0
    before = {name: (run / name).read_bytes() for name in ("loss_trace.tsv", "checkpoint.ocec")}
    assert len(before["loss_trace.tsv"].splitlines()) == 3  # the header and epochs 0 and 1
    monkeypatch.setattr(network, "oce_loss", _failing_loss)
    assert _small_train(run_dir, run, 3, ["--resume", str(old)]) == 2
    assert {name: (run / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("field", ["meta.step", "meta.epoch", "adam.v.enc0.w"])
def test_train_rejects_a_resume_checkpoint_with_a_negative_count_or_moment(run_dir, tmp_path,
                                                                            capsys, field):
    # a negative step or second moment used to resume, exit 0 and write a
    # NaN checkpoint; a negative epoch failed inside numpy's seeding
    params = init_params(ModelConfig(base_fmaps=4), seed=0)
    adam = AdamState.fresh(params)
    next_epoch = -1 if field == "meta.epoch" else 0
    if field == "meta.step":
        adam.step = -1
    elif field == "adam.v.enc0.w":
        adam.v["enc0.w"][0, 0, 0, 0] = -1.0
    ckpt = tmp_path / "bad.ocec"
    save_checkpoint(ckpt, params, adam, next_epoch)
    out = tmp_path / "resumed"
    assert _small_train(run_dir, out, 1, ["--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"error: checkpoint tensor {field} " in err and "Traceback" not in err
    assert not out.exists()


_SEED_ARGS = {"synth": ["--images", "1", "--size", "32", "--objects", "1"], "theory": []}


@pytest.mark.parametrize("where", ["argv", "echo"])
@pytest.mark.parametrize("command", ["synth", "theory"])
def test_a_negative_seed_is_named_before_the_command_runs(tmp_path, capsys, command, where):
    out = tmp_path / "out"
    argv = [command, *_SEED_ARGS[command], "--out", str(out)]
    if where == "argv":
        argv += ["--seed", "-1"]
    else:
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps({"command": command, "seed": -1, "options": {},
                                    "config": {}}))
        argv += ["--config", str(echo)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not out.exists()


_REQUIRED = [(command, opt) for command, (_fn, spec) in cli._COMMANDS.items()
             for opt, (_typ, default, _help) in spec.items() if default is None]


@pytest.mark.parametrize("where", ["argv", "echo"])
@pytest.mark.parametrize("command, option", _REQUIRED,
                         ids=[f"{command}-{opt}" for command, opt in _REQUIRED])
def test_an_empty_required_option_is_missing(tmp_path, monkeypatch, capsys, command, option,
                                             where):
    # `synth --out ""` used to write images/ and labels/ into the working
    # directory, and no run record
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for opt, (_typ, default, _help) in cli._COMMANDS[command][1].items():
        if default is None and opt != option:
            argv += ["--" + opt.replace("_", "-"), "given"]
    if where == "argv":
        argv += ["--" + option.replace("_", "-"), ""]
    else:
        echo = {"command": command, "seed": 0, "options": {option: ""}, "config": {}}
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        argv += ["--config", "echo.json"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    flag = "--" + option.replace("_", "-")
    assert captured.err == f"oceseg {command}: missing required option {flag}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ([] if where == "argv" else ["echo.json"])


@pytest.mark.parametrize("argv", [
    ["synth", "--images", "-2"], ["synth", "--images", "0"],
    ["theory", "--scenes", "0", "--objects", "2", "--canvas", "63"],
])
def test_fewer_than_one_scene_exits_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--patch", "100"], "--patch must be in 1..8 at --radius 7, got 100"),
    (["--patch", "16"], "--patch must be in 1..8 at --radius 7, got 16"),
    (["--patch", "9"], "--patch must be in 1..8 at --radius 7, got 9"),
    (["--patch", "0"], "--patch must be in 1..8 at --radius 7, got 0"),
    (["--patch", "-3"], "--patch must be in 1..8 at --radius 7, got -3"),
    (["--radius", "3", "--patch", "5"], "--patch must be in 1..4 at --radius 3, got 5"),
    (["--radius", "0"], "--radius must be a finite number > 0, got 0"),
    (["--radius", "-2"], "--radius must be a finite number > 0, got -2"),
    (["--radius", "nan"], "--radius must be a finite number > 0, got nan"),
    (["--objects", "0"], "--objects must be at least 1, got 0"),
    (["--objects", "-1"], "--objects must be at least 1, got -1"),
    (["--canvas", "5"], "--canvas must be at least the template side 15 at --radius 7, got 5"),
    (["--radius", "3", "--patch", "3", "--canvas", "6"],
     "--canvas must be at least the template side 7 at --radius 3, got 6"),
])
def test_theory_rejects_unusable_patch_or_radius(tmp_path, capsys, argv, message):
    # patch a ends at the template center and patch b starts there, so a side
    # past ceil(radius) + 1 used to be clipped silently by the slicing
    out = tmp_path / "out"
    assert cli.main(["theory", "--scenes", "2", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_theory_marks_an_empty_cross_term_nan(capsys):
    # one object per scene gives no cross pairs, so the cross term has no mean
    assert cli.main(["theory", "--scenes", "2", "--objects", "1", "--canvas", "15"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split("\t"), row.split("\t")))
    assert fields["n_cross"] == "0" and fields["n_same"] == "2"
    assert [fields[k] for k in ("cross_dr", "cross_dc", "cross_se_dr", "cross_se_dc")] == ["nan"] * 4
    assert fields["same_dr"] == fields["same_dc"] == "4.000000"


@pytest.mark.parametrize("argv, field", [
    (["--radius-max", "inf"], "radius_range"),
    (["--radius-max", "1e6"], "radius_range"),
    (["--noise-std", "nan"], "noise_std"),
    (["--noise-std", "inf"], "noise_std"),
    (["--noise-std", "-0.1"], "noise_std"),
    (["--size", "40"], "40x40 canvas"),
])
def test_synth_rejects_bad_scene_before_writing(tmp_path, capsys, argv, field):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--images", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err
    assert not out.exists()


def test_commands_echo_the_checkpoint_model(run_dir):
    # the fixture checkpoint has 4 maps; no config section names the model,
    # so the defaults (64 maps) are what a stale echo would show
    def echoed_model(out):
        return json.loads((run_dir / out / "config.json").read_text())["config"]["model"]

    train = {"train": {"epochs": 1, "batch_size": 2, "crop_size": 48}}
    config = run_dir / "resume.json"
    config.write_text(json.dumps(train))
    assert cli.main(["train", "--data", str(run_dir / "data"), "--out", str(run_dir / "resumed"),
                     "--config", str(config), "--resume", str(run_dir / "model.ocec")]) == 0
    resumed = run_dir / "resumed" / "checkpoint.ocec"
    assert load_checkpoint(resumed)[0].config.base_fmaps == 4
    assert echoed_model("resumed") == {**cli.DEFAULT_CONFIG["model"], "base_fmaps": 4}
    for command, extra in (("segment", []), ("predict", []), ("sweep", ["--bandwidths", "8"])):
        out = f"echo_{command}"
        assert cli.main([command, "--model", str(resumed), "--data", str(run_dir / "data"),
                         "--out", str(run_dir / out), *extra]) == 0
        assert echoed_model(out)["base_fmaps"] == 4


@pytest.mark.parametrize("error", [
    c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__
], ids=lambda c: c.__name__)
def test_every_package_error_exits_2(monkeypatch, capsys, error):
    def failing(*_):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "theory", (failing, cli._COMMANDS["theory"][1]))
    assert cli.main(["theory"]) == 2
    assert capsys.readouterr().err == "error: boom\n"


def _echo_case(run_dir, command):
    """The argv of a small ``command`` run on the fixture, and the options and
    model of the echo it writes."""
    data, model = str(run_dir / "data"), str(run_dir / "model.ocec")
    small = run_dir / "echo_small.json"
    small.write_text(json.dumps({"model": {"base_fmaps": 4},
                                 "train": {"epochs": 1, "batch_size": 2, "crop_size": 48}}))
    return {
        "synth": (["--images", "1", "--size", "32", "--objects", "1", "--radius-min", "4",
                   "--radius-max", "5"],
                  {"images": 1, "size": 32, "objects": 1, "radius_min": 4.0, "radius_max": 5.0,
                   "noise_std": 0.02}, 64),
        "train": (["--data", data, "--config", str(small)],
                  {"data": data, "resume": ""}, 4),
        "predict": (["--model", model, "--data", data], {"model": model, "data": data}, 4),
        "segment": (["--model", model, "--data", data],
                    {"model": model, "data": data, "pgm": False}, 4),
        "eval": (["--gt", data, "--pred", data],
                 {"gt": data, "pred": data, "thresholds": "0.5", "per_image": False,
                  "seg": False}, 64),
        "sweep": (["--model", model, "--data", data, "--bandwidths", "8"],
                  {"model": model, "data": data, "bandwidths": "8", "metric": "f1",
                   "threshold": 0.5}, 4),
        "theory": (["--scenes", "2", "--objects", "2", "--canvas", "63"],
                   {"scenes": 2, "objects": 2, "canvas": 63, "radius": 7.0, "patch": 5,
                    "boundary": "periodic"}, 64),
    }[command]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_writes_one_echo_with_out_and_none_without(run_dir, tmp_path, monkeypatch,
                                                               capsys, command):
    argv, options, base_fmaps = _echo_case(run_dir, command)
    out = tmp_path / "out"
    writes = []
    write_json = cli.dataio.write_json

    def recording_write_json(path, payload):
        writes.append(os.path.basename(path))
        write_json(path, payload)

    monkeypatch.setattr(cli.dataio, "write_json", recording_write_json)
    assert cli.main([command, *argv, "--out", str(out), "--seed", "5"]) == 0
    assert writes == ["config.json"] and list(out.rglob("config.json")) == [out / "config.json"]
    expected = {k: dict(v) for k, v in cli.DEFAULT_CONFIG.items()}
    expected["model"]["base_fmaps"] = base_fmaps
    if command == "train":
        expected["train"].update(epochs=1, batch_size=2, crop_size=48)
    assert json.loads((out / "config.json").read_text()) == {
        "command": command, "seed": 5, "options": {**options, "out": str(out)},
        "config": expected}
    assert not list(out.rglob("*.tmp"))
    if command in ("eval", "sweep", "theory"):  # --out is optional: without it, no file
        # the file holds the whole printed table; sweep then prints its best candidate
        (tsv,) = out.glob("*.tsv")
        assert tsv.read_text(encoding="utf-8") == capsys.readouterr().out.split("best band")[0]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*")), sorted(run_dir.rglob("*"))
        assert cli.main([command, *argv]) == 0
        assert (sorted(tmp_path.rglob("*")), sorted(run_dir.rglob("*"))) == before


# ---------------------------------------------------------------------------
# the allocator setting main makes

def _spy_libc(monkeypatch):
    """Replace the C library loader with one whose ``mallopt`` records its
    calls; returns the list of calls."""
    calls = []
    monkeypatch.setattr(cli, "_libc", lambda: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    return calls


def test_main_fixes_the_mmap_threshold_once_per_call(run_dir, monkeypatch, capsys):
    calls = _spy_libc(monkeypatch)
    data = str(run_dir / "data")
    once = [(-3, cli.MMAP_THRESHOLD), (-1, cli.TRIM_THRESHOLD)]  # M_MMAP_, M_TRIM_THRESHOLD
    assert cli.main(["eval", "--gt", data, "--pred", data]) == 0
    assert calls == once
    assert cli.main(["eval", "--gt", data, "--pred", str(run_dir / "model.ocec")]) == 2
    assert calls == once * 2
    assert "error:" in capsys.readouterr().err


def test_libc_loader_gives_none_when_the_library_fails_to_load(monkeypatch):
    def unloadable(name):
        raise OSError(f"cannot load {name}")

    monkeypatch.setattr(cli.ctypes, "CDLL", unloadable)
    assert cli._libc() is None


def _cli_outcomes(run_dir, where, monkeypatch, capsys):
    """Exit code, stdout and stderr of a command that writes files, one that
    prints a table and one that exits 2, run from ``where``, and the bytes
    of every file they wrote there."""
    where.mkdir()
    monkeypatch.chdir(where)
    data = str(run_dir / "data")
    runs = [
        ["synth", "--out", "synth", "--images", "1", "--size", "64", "--objects", "2",
         "--radius-max", "8", "--seed", "1"],
        ["eval", "--gt", data, "--pred", data],
        ["eval", "--gt", data, "--pred", str(run_dir / "model.ocec")],
    ]
    outcomes = []
    for argv in runs:
        code = cli.main(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes, {p.relative_to(where): p.read_bytes() for p in sorted(where.rglob("*"))
                      if p.is_file()}


@pytest.mark.parametrize("libc", [None, SimpleNamespace()], ids=["unloadable", "no-mallopt"])
def test_a_libc_without_mallopt_changes_no_outcome(run_dir, tmp_path, monkeypatch, capsys, libc):
    expected = _cli_outcomes(run_dir, tmp_path / "real", monkeypatch, capsys)
    assert [code for code, _, _ in expected[0]] == [0, 0, 2]
    assert Path("synth", "config.json") in expected[1]
    monkeypatch.setattr(cli, "_libc", lambda: libc)
    assert _cli_outcomes(run_dir, tmp_path / "stub", monkeypatch, capsys) == expected


def test_library_calls_keep_the_default_allocator(run_dir, monkeypatch):
    calls = _spy_libc(monkeypatch)
    loads = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda *a, **k: loads.append(a))
    params, _, _ = load_checkpoint(run_dir / "model.ocec")
    image = normalize_percentile(tensor_read(run_dir / "data" / "images" / "im0000.ocet"))
    segment_image(params, image, SegmenterConfig(min_instance_size=0), seed=0)
    train([image], ModelConfig(base_fmaps=4), LossConfig(),
          TrainConfig(epochs=1, batch_size=1, crop_size=48), seed=0)
    assert calls == [] and loads == []
