"""Self-tests of the benchmark's own pieces: FLOP formula, conv call-order
mapping, oracle fields and the shrink reference.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from oceseg import autodiff, network, segmentation, synth  # noqa: E402
from oceseg.loss import LossConfig, oce_loss, sample_pairs  # noqa: E402

from oracle import oracle_field, same_partition, shrink_reference  # noqa: E402
from spans import Tracer, conv_flops  # noqa: E402


def test_conv_flops_counts_two_ops_per_multiply_add():
    # every output pixel of every filter sums cin * k * k products
    assert conv_flops(1, 64, 3, 252, 252) == 2 * (64 * 250 * 250) * (1 * 3 * 3)
    assert conv_flops(256, 64, 3, 10, 12) == 2 * (64 * 8 * 10) * (256 * 9)
    assert conv_flops(64, 2, 1, 5, 7) == 2 * (2 * 5 * 7) * 64


def test_tracer_maps_conv_calls_onto_layer_plan():
    config = network.ModelConfig(base_fmaps=4, fmap_factor=2)
    plan = network._layer_plan(config)
    assert len(plan) == 13
    params = network.init_params(config, seed=0)
    image = np.random.default_rng(0).random((1, 56, 56)).astype(np.float32)
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        with autodiff.Tape() as tape:
            out = network.forward(params, autodiff.Tensor(image))
            pairs = sample_pairs(out.shape[1:], LossConfig(), np.random.default_rng(1))
            tape.backward(oce_loss(out, pairs, LossConfig()))
    finally:
        tracer.uninstall()
    assert network.conv2d_valid is autodiff.conv2d_valid
    assert segmentation.forward is network.forward

    convs = [row for row in tracer.spans if row[0].startswith("autodiff.conv.")]
    fwd = [row for row in convs if row[0].endswith(".fwd")]
    bwd = [row for row in convs if row[0].endswith(".bwd")]
    assert [row[0] for row in fwd] == [f"autodiff.conv.{name}.fwd" for name, *_ in plan]
    # the tape replays newest first
    assert [row[0] for row in bwd] == [f"autodiff.conv.{name}.bwd" for name, *_ in plan][::-1]
    size = 56
    for row, (name, cin, cout, k) in zip(fwd, plan):
        if name == "bot0":
            size //= 2  # max-pool between the encoder and the bottleneck
        elif name == "dec0":
            size = 2 * size  # upsampled and cropped to the skip's size
        assert row[4]["flops"] == conv_flops(cin, cout, k, size, size)
        size -= k - 1
    for row in bwd:
        name = row[0].replace(".bwd", ".fwd")
        assert row[4]["flops"] == 2 * next(r[4]["flops"] for r in fwd if r[0] == name)
    summary = tracer.summary()
    assert summary["network.forward"]["calls"] == 1
    assert summary["autodiff.tape_backward"]["calls"] == 1
    own = tracer.self_times()
    assert all(t >= 0 for t in own)


def test_oracle_field_clusters_back_to_ground_truth():
    spec = synth.SceneSpec(height=160, width=160, n_objects=12, seed=3)
    _, gt = synth.synth_generate(spec)
    field, fg = oracle_field(gt)
    assert np.array_equal(fg, gt > 0)
    rows, cols = np.indices(gt.shape)
    for ident in range(1, int(gt.max()) + 1):
        mask = gt == ident
        centers_r = rows[mask] - field[0][mask]
        centers_c = cols[mask] - field[1][mask]
        assert np.ptp(centers_r) < 1e-3 and np.ptp(centers_c) < 1e-3
        assert abs(field[0][mask].mean()) < 1e-3 and abs(field[1][mask].mean()) < 1e-3
    labels = segmentation.segment(field, fg, segmentation.SegmenterConfig(bandwidth=10.0))
    assert same_partition(labels, gt)


@pytest.mark.parametrize("distance", [1.0, 2.0, 3.0, 6.0])
def test_edt_shrink_reference_matches_shrink_instances(distance):
    spec = synth.SceneSpec(height=200, width=200, n_objects=15, seed=11)
    _, gt = synth.synth_generate(spec)
    expected = shrink_reference(gt, distance)
    assert same_partition(segmentation.shrink_instances(gt, distance), expected)
    assert 0 < (expected > 0).sum() < (gt > 0).sum()


def test_same_partition_ignores_ids_only():
    a = np.array([[0, 1, 1], [2, 2, 0]])
    assert same_partition(a, np.array([[0, 5, 5], [3, 3, 0]]))
    assert not same_partition(a, np.array([[0, 5, 5], [5, 5, 0]]))  # merged
    assert not same_partition(a, np.array([[0, 1, 2], [3, 3, 0]]))  # split
    assert not same_partition(a, np.array([[1, 1, 1], [2, 2, 0]]))  # foreground differs
