import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oceseg import (
    AdamState,
    ConfigError,
    DegenerateError,
    FormatError,
    LossConfig,
    ModelConfig,
    ModelParams,
    ShapeError,
    Tape,
    Tensor,
    TrainConfig,
    adam_step,
    forward,
    init_params,
    load_checkpoint,
    lr_schedule,
    oce_loss,
    predict_full,
    sample_pairs,
    save_checkpoint,
    train,
)
from oceseg import network
from oceseg.data import normalize_percentile
from oceseg.synth import SceneSpec, generate_dataset


def small_images(n=6, size=96, seed=11):
    scenes = generate_dataset(
        SceneSpec(height=size, width=size, n_objects=4, radius_range=(6, 9)), n, seed=seed
    )
    return [normalize_percentile(img) for img, _ in scenes]


# ---------------------------------------------------------------------------
# config and init

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(in_channels=3)
    with pytest.raises(ValueError):
        ModelConfig(depth=2)
    with pytest.raises(ConfigError, match="out_channels"):
        ModelConfig(out_channels=3)


def test_init_deterministic_and_shaped():
    a = init_params(ModelConfig(), 7)
    b = init_params(ModelConfig(), 7)
    for k in a.tensors:
        assert np.array_equal(a[k].data, b[k].data)
    assert a["enc0.w"].shape == (64, 1, 3, 3)
    assert a["bot0.w"].shape == (192, 64, 3, 3)
    assert a["dec0.w"].shape == (64, 256, 3, 3)
    assert a["head.w"].shape == (2, 64, 1, 1)
    assert not np.array_equal(a["enc0.w"].data, init_params(ModelConfig(), 8)["enc0.w"].data)


def test_init_he_variance():
    p = init_params(ModelConfig(in_channels=2), 3)
    v = p["enc0.w"].data.var()
    target = 2.0 / (2 * 9)
    assert abs(v - target) / target < 0.2
    big = p["dec0.w"].data.var()
    target = 2.0 / (256 * 9)
    assert abs(big - target) / target < 0.2


def test_parameter_count_closed_form():
    p = init_params(ModelConfig(), 0)
    total = sum(t.data.size for _, t in p.items())
    base, mid = 64, 192
    expected = 0
    for cin, cout, k in [
        (1, base, 3), (base, base, 1), (base, base, 1), (base, base, 3),
        (base, mid, 3), (mid, mid, 1), (mid, mid, 1), (mid, mid, 3),
        (base + mid, base, 3), (base, base, 1), (base, base, 1), (base, base, 3),
        (base, 2, 1),
    ]:
        expected += cout * cin * k * k + cout
    assert total == expected


@pytest.mark.parametrize("config, rows", [
    (ModelConfig(), [
        ("enc0", 1, 64, 3), ("enc1", 64, 64, 1), ("enc2", 64, 64, 1), ("enc3", 64, 64, 3),
        ("bot0", 64, 192, 3), ("bot1", 192, 192, 1), ("bot2", 192, 192, 1),
        ("bot3", 192, 192, 3),
        ("dec0", 256, 64, 3), ("dec1", 64, 64, 1), ("dec2", 64, 64, 1), ("dec3", 64, 64, 3),
        ("head", 64, 2, 1),
    ]),
    (ModelConfig(base_fmaps=16), [  # the benchmark fixture's model
        ("enc0", 1, 16, 3), ("enc1", 16, 16, 1), ("enc2", 16, 16, 1), ("enc3", 16, 16, 3),
        ("bot0", 16, 48, 3), ("bot1", 48, 48, 1), ("bot2", 48, 48, 1), ("bot3", 48, 48, 3),
        ("dec0", 64, 16, 3), ("dec1", 16, 16, 1), ("dec2", 16, 16, 1), ("dec3", 16, 16, 3),
        ("head", 16, 2, 1),
    ]),
], ids=["default", "fixture"])
def test_layer_plan_rows(config, rows):
    # (name, cin, cout, k) per conv in forward order; the benchmark keys its
    # per-layer metrics on these names
    assert network._layer_plan(config) == rows


# ---------------------------------------------------------------------------
# forward

def test_forward_shape_chain_252_to_236():
    p = init_params(ModelConfig(), 1)
    img = np.random.default_rng(0).normal(size=(1, 252, 252)).astype(np.float32)
    out = forward(p, img)
    assert out.shape == (2, 236, 236)


def test_forward_small_input_rejected():
    p = init_params(ModelConfig(), 1)
    with pytest.raises(ShapeError):
        forward(p, np.zeros((1, 16, 16), np.float32))
    with pytest.raises(ShapeError):
        forward(p, np.zeros((1, 21, 22), np.float32))  # odd side


def test_forward_zero_params_zero_output():
    p = init_params(ModelConfig(), 1)
    for _, t in p.items():
        t.data[:] = 0
    img = np.random.default_rng(0).normal(size=(1, 40, 40)).astype(np.float32)
    assert np.all(forward(p, img).data == 0)


def test_forward_translation_equivariance_even_shift():
    rng = np.random.default_rng(9)
    p = init_params(ModelConfig(), 4)
    base = rng.normal(size=(1, 72, 72)).astype(np.float32)
    shift = 2
    out_a = forward(p, base[:, : 64, : 64]).data
    out_b = forward(p, base[:, shift:64 + shift, shift:64 + shift]).data
    # field of the shifted window equals the shifted field, exactly
    assert np.array_equal(out_a[:, shift:, shift:], out_b[:, : 48 - shift, : 48 - shift])


def _reached_by(i):
    """Output rows (lo, hi) whose receptive field holds input row i.

    The shape margin is 16, but the receptive field is 18 rows wide and its
    phase follows the output row's parity: the 2x2 max-pool and the nearest
    upsample make even r see input rows r..r+17 and odd r see r-1..r+16.
    Inverted, an even i reaches rows i-16..i+1 and an odd i rows i-17..i.
    """
    return (i - 16, i + 1) if i % 2 == 0 else (i - 17, i)


def test_forward_context_window_is_16():
    rng = np.random.default_rng(10)
    p = init_params(ModelConfig(), 5)
    img = rng.normal(size=(1, 48, 48)).astype(np.float32)
    out_a = forward(p, img).data
    assert out_a.shape == (2, 48 - 16, 48 - 16)
    for pr, pc in ((30, 30), (29, 29)):
        bumped = img.copy()
        bumped[0, pr, pc] += 10.0
        out_b = forward(p, bumped).data
        changed = np.argwhere(np.any(out_a != out_b, axis=0))
        assert len(changed) > 0
        # the changed rows and columns fill the 18-wide window, end to end
        for axis, i in ((0, pr), (1, pc)):
            lo, hi = _reached_by(i)
            assert changed[:, axis].min() == lo and changed[:, axis].max() == hi


def test_forward_channel_mismatch():
    p = init_params(ModelConfig(in_channels=2), 1)
    with pytest.raises(ShapeError):
        forward(p, np.zeros((1, 40, 40), np.float32))


@pytest.mark.parametrize("in_channels, shape, message", [
    (1, (40, 40), r"shape \(40, 40\), model expects \(1,H,W\)"),
    (2, (1, 40, 40), r"shape \(1, 40, 40\), model expects \(2,H,W\)"),
    (1, (1, 18, 40), "image 18x40 smaller than 20x20"),
], ids=["2-D", "channels", "18-pixel-side"])
def test_forward_and_predict_full_reject_an_image_alike(in_channels, shape, message):
    p = init_params(ModelConfig(in_channels=in_channels, base_fmaps=4), 1)
    img = np.zeros(shape, np.float32)
    with pytest.raises(ShapeError, match=message) as direct:
        forward(p, img)
    with pytest.raises(ShapeError) as tiled:
        predict_full(p, img)
    assert str(tiled.value) == str(direct.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_forward_and_predict_full_reject_a_non_finite_image(value):
    p = init_params(ModelConfig(base_fmaps=4), 1)
    img = np.zeros((1, 40, 40), np.float32)
    img[0, 7, 30] = value
    for run in (forward, predict_full):
        with pytest.raises(DegenerateError, match="image is not finite: it holds NaN or inf"):
            run(p, img)


def test_only_forward_rejects_an_odd_side():
    p = init_params(ModelConfig(base_fmaps=4), 1)
    img = np.zeros((1, 21, 22), np.float32)
    with pytest.raises(ShapeError, match="odd"):
        forward(p, img)
    assert predict_full(p, img).shape == (2, 21, 22)


# ---------------------------------------------------------------------------
# backward replay and memory

def crop_step(params, image, seed, replay_by_hand=False):
    """Forward, pair loss and backward of one crop; returns the tape and loss."""
    rng = np.random.default_rng(seed)
    with Tape() as tape:
        out = forward(params, Tensor(image))
        loss = oce_loss(out, sample_pairs(out.shape[1:], LossConfig(), rng), LossConfig())
    if replay_by_hand:
        loss.grad = np.ones_like(loss.data)
        for node in reversed(tape.nodes):
            node.backward()
    else:
        tape.backward(loss)
    return tape, loss


def test_backward_replays_once():
    params = init_params(ModelConfig(base_fmaps=4), 3)
    image = np.random.default_rng(3).normal(size=(1, 44, 44)).astype(np.float32)
    tape, loss = crop_step(params, image, 3)
    grads = {name: t.grad.copy() for name, t in params.items()}
    # a second replay would add every gradient again
    with pytest.raises(RuntimeError):
        tape.backward(loss)
    for name, t in params.items():
        assert np.array_equal(t.grad, grads[name]), name


def test_backward_frees_activations_and_matches_replay_by_hand(monkeypatch):
    bottleneck = []

    def crop_concat_spy(skip, h):
        bottleneck.append(weakref.ref(h.data))
        return crop_concat(skip, h)

    crop_concat = network.crop_concat
    monkeypatch.setattr(network, "crop_concat", crop_concat_spy)
    image = np.random.default_rng(4).normal(size=(1, 44, 44)).astype(np.float32)
    params = init_params(ModelConfig(base_fmaps=4), 4)
    tape, _ = crop_step(params, image, 4)
    assert len(bottleneck) == 1 and bottleneck[0]() is None
    assert tape.nodes == []

    twin = init_params(ModelConfig(base_fmaps=4), 4)
    crop_step(twin, image, 4, replay_by_hand=True)
    for name, t in params.items():
        assert np.array_equal(t.grad, twin[name].grad), name


@pytest.mark.parametrize("crop, bound_mb", [(124, 69), (252, 265)], ids=["124", "252"])
def test_default_model_crop_memory_peak(crop, bound_mb):
    """Forward and backward of the default model on one crop allocate under
    ``bound_mb`` at peak: 65.6 MB at 124^2 and 256.6 MB at 252^2, the
    training crop.  Nodes that held their dead output, their output's
    gradient beside its shifted copy and a fresh ReLU mask product took 72.2
    and 286.4 MB; holding every activation and its gradient until the tape
    dies, with a fresh buffer per ReLU, took 210 MB at 124^2; an upsampled
    bottleneck on the tape beside its gradient took 339 MB at 252^2."""
    params = init_params(ModelConfig(), 5)
    image = np.random.default_rng(5).normal(size=(1, crop, crop)).astype(np.float32)
    crop_step(params, image, 5)  # warm-up: one-off first-call allocations stay out of the trace
    params.zero_grads()
    tracemalloc.start()
    try:
        crop_step(params, image, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak / 1e6


@pytest.mark.parametrize("side, bound_mb", [(188, 15.5), (252, 28.5)], ids=["188", "252"])
def test_fixture_model_forward_memory_peak(side, bound_mb):
    """One forward of the 16-map model without a tape allocates under
    ``bound_mb`` at peak: 15.0 MB on a 188^2 tile, the benchmark's, and
    27.0 MB at 252^2.  Copying dec0's input at all nine taps took 16.6 MB
    at 188^2; holding the encoder's output through the decoder took 18.8
    and 30.8 MB."""
    params = init_params(ModelConfig(base_fmaps=16), 5)
    image = np.random.default_rng(5).normal(size=(1, side, side)).astype(np.float32)
    forward(params, image)  # warm-up: one-off first-call allocations stay out of the trace
    tracemalloc.start()
    try:
        forward(params, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak / 1e6


# ---------------------------------------------------------------------------
# Adam and schedule

def scalar_params(value=1.0):
    cfg = ModelConfig()
    t = Tensor(np.array([value], np.float32))
    return ModelParams(cfg, {"x": t}), t


def test_adam_zero_grad_no_move():
    params, t = scalar_params()
    st = AdamState.fresh(params)
    t.grad = np.zeros(1, np.float32)
    adam_step(st, params, 1e-3)
    assert t.data[0] == 1.0
    assert st.step == 1


def test_adam_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 40.0):
        params, t = scalar_params()
        st = AdamState.fresh(params)
        t.grad = np.array([g], np.float32)
        adam_step(st, params, 1e-3)
        assert abs(abs(1.0 - t.data[0]) - 1e-3) < 1e-6
        assert np.sign(1.0 - t.data[0]) == np.sign(g)


def test_adam_missing_gradient():
    params, t = scalar_params()
    st = AdamState.fresh(params)
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step(st, params, 1e-3)


def test_adam_step_counter():
    params, t = scalar_params()
    st = AdamState.fresh(params)
    for i in range(3):
        t.grad = np.array([1.0], np.float32)
        adam_step(st, params, 1e-4)
        assert st.step == i + 1


def test_lr_schedule_breakpoints():
    base = TrainConfig().base_lr
    assert base == 4e-5
    assert math.isclose(lr_schedule(0, base), 4e-5)
    assert math.isclose(lr_schedule(19, base), 4e-5)
    assert math.isclose(lr_schedule(20, base), 4e-6)
    assert math.isclose(lr_schedule(29, base), 4e-6)
    assert math.isclose(lr_schedule(30, base), 4e-7)
    assert math.isclose(lr_schedule(45, base), 4e-7)
    with pytest.raises(ValueError):
        lr_schedule(-1, base)


# ---------------------------------------------------------------------------
# training loop

def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        train([], ModelConfig(), LossConfig(), TrainConfig(epochs=1), seed=0)
    imgs = [np.zeros((1, 64, 64), np.float32)]
    with pytest.raises(ShapeError, match="crop"):
        train(imgs, ModelConfig(), LossConfig(),
              TrainConfig(epochs=1, crop_size=96), seed=0)


@pytest.mark.parametrize("model, crop, error, message", [
    (ModelConfig(), 96, ShapeError, "crop 96 larger than image 64x64"),
    (ModelConfig(in_channels=2), 48, ShapeError, "model expects (2,H,W)"),
    (ModelConfig(), 24, ConfigError,
     "crop_size 24 gives a 8x8 field, not larger than twice the pair radius 10.0"),
], ids=["crop", "in_channels", "pair_radius"])
def test_train_checks_model_and_images_before_training(model, crop, error, message):
    # the unfit cases oceseg train exits 2 on raise the same message from the
    # library call, before any epoch is logged
    logged = []
    with pytest.raises(error) as info:
        train(small_images(n=2, size=64), model, LossConfig(),
              TrainConfig(epochs=1, crop_size=crop), seed=0, log=logged.append)
    assert message in str(info.value)
    assert logged == []


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", "5"), ("epochs", 2.0),
    ("batch_size", 0), ("batch_size", True),
    ("crop_size", 251), ("crop_size", 18), ("crop_size", "252"),
    ("base_lr", 0.0), ("base_lr", -1e-3), ("base_lr", float("nan")), ("base_lr", "4e-5"),
])
def test_train_config_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_valid_fields():
    tc = TrainConfig(epochs=1, batch_size=np.int64(1), crop_size=20, base_lr=1)
    assert tc.crop_size == 20 and tc.batch_size == 1


def test_train_deterministic_and_loss_decreases():
    images = small_images(n=16)  # 8 steps of 2 per epoch
    tc = TrainConfig(epochs=6, batch_size=2, crop_size=64, base_lr=2e-3)
    a = train(images, ModelConfig(), LossConfig(), tc, seed=3)
    b = train(images, ModelConfig(), LossConfig(), tc, seed=3)
    assert a.epoch_losses == b.epoch_losses
    for k in a.params.tensors:
        assert np.array_equal(a.params[k].data, b.params[k].data)
    assert a.epoch_losses[5] < a.epoch_losses[0]


def test_train_resume_matches_uninterrupted(tmp_path):
    images = small_images(n=8)  # 4 steps of 2 per epoch
    tc4 = TrainConfig(epochs=4, batch_size=2, crop_size=64, base_lr=1e-3)
    tc2 = TrainConfig(epochs=2, batch_size=2, crop_size=64, base_lr=1e-3)
    full = train(images, ModelConfig(), LossConfig(), tc4, seed=9)
    half = train(images, ModelConfig(), LossConfig(), tc2, seed=9)
    ckpt = tmp_path / "mid.ocec"
    save_checkpoint(ckpt, half.params, half.adam, half.next_epoch)
    params, adam, next_epoch = load_checkpoint(ckpt)
    from oceseg.network import TrainResult

    resumed = train(
        images, ModelConfig(), LossConfig(), tc4, seed=9,
        resume=TrainResult(params, adam, [], next_epoch),
    )
    for k in full.params.tensors:
        assert np.array_equal(full.params[k].data, resumed.params[k].data), k
    assert full.adam.step == resumed.adam.step


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bitwise(tmp_path):
    p = init_params(ModelConfig(in_channels=2), 13)
    adam = AdamState.fresh(p)
    adam.step = 17
    adam.m["enc0.w"] += 0.25
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, adam, next_epoch=4)
    p2, adam2, next_epoch = load_checkpoint(path)
    assert next_epoch == 4 and adam2.step == 17
    assert p2.config == p.config
    for k in p.tensors:
        assert np.array_equal(p[k].data, p2[k].data)
        assert np.array_equal(adam.m[k], adam2.m[k])
        assert np.array_equal(adam.v[k], adam2.v[k])


def test_checkpoint_truncated(tmp_path):
    p = init_params(ModelConfig(), 1)
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, AdamState.fresh(p), 0)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_version_byte(tmp_path):
    p = init_params(ModelConfig(), 1)
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, AdamState.fresh(p), 0)
    raw = bytearray(path.read_bytes())
    raw[4] = 42
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="expected 1, found 42"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    from oceseg.data import archive_read, archive_write

    p = init_params(ModelConfig(), 1)
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, AdamState.fresh(p), 0)
    tensors = archive_read(path)
    del tensors["param.enc0.w"]
    archive_write(path, tensors)
    with pytest.raises(FormatError, match="missing tensor"):
        load_checkpoint(path)


@pytest.mark.parametrize("count", [4, 6])
def test_checkpoint_rejects_a_meta_config_of_other_than_five_values(tmp_path, count):
    from oceseg.data import archive_read, archive_write

    p = init_params(ModelConfig(base_fmaps=4), 1)
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, AdamState.fresh(p), 0)
    tensors = archive_read(path)
    tensors["meta.config"] = np.resize(tensors["meta.config"], count)
    archive_write(path, tensors)
    with pytest.raises(FormatError, match="invalid checkpoint metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("group", ["param.", "adam.m.", "adam.v."])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_a_non_finite_tensor(tmp_path, group, value):
    from oceseg.data import archive_read, archive_write

    p = init_params(ModelConfig(base_fmaps=4), 1)
    path = tmp_path / "c.ocec"
    save_checkpoint(path, p, AdamState.fresh(p), 0)
    tensors = archive_read(path)
    tensors[group + "dec1.b"] = tensors[group + "dec1.b"].copy()
    tensors[group + "dec1.b"][2] = value
    archive_write(path, tensors)
    with pytest.raises(FormatError, match=f"tensor {group}dec1.b holds NaN or inf values"):
        load_checkpoint(path)
