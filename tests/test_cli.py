import json

import pytest

from oceseg import AdamState, ModelConfig, cli, init_params, save_checkpoint


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
