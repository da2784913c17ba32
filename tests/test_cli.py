import json

import numpy as np
import pytest

from oceseg import AdamState, ModelConfig, cli, init_params, save_checkpoint
from oceseg.data import tensor_read, tensor_write


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


def _segment(run_dir, out, segment_config):
    config = run_dir / f"{out}.json"
    config.write_text(json.dumps({"segment": segment_config}))
    return cli.main(["segment", "--model", str(run_dir / "model.ocec"),
                     "--data", str(run_dir / "data"), "--out", str(run_dir / out),
                     "--config", str(config)])


def test_eval_reads_segment_output_root(run_dir, capsys):
    assert _segment(run_dir, "seg", {"min_instance_size": 0}) == 0
    capsys.readouterr()
    gt = str(run_dir / "data")
    assert cli.main(["eval", "--gt", gt, "--pred", str(run_dir / "seg")]) == 0
    from_root = capsys.readouterr().out
    assert cli.main(["eval", "--gt", gt, "--pred", str(run_dir / "seg" / "labels")]) == 0
    assert from_root == capsys.readouterr().out
    assert from_root.splitlines()[0].split("\t")[0] == "metric"


def test_eval_still_rejects_a_directory_without_labels(run_dir, capsys):
    empty = run_dir / "empty"
    empty.mkdir()
    assert cli.main(["eval", "--gt", str(run_dir / "data"), "--pred", str(empty)]) == 2
    assert "no .ocet files" in capsys.readouterr().err


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
    config = run_dir / f"{out}.json"
    config.write_text(json.dumps({"train": train_config}))
    return cli.main(["train", "--data", str(run_dir / "data"), "--out", str(run_dir / out),
                     "--config", str(config)])


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
