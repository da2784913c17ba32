"""The small valid-convolution U-Net, its optimizer and the training loop.

Architecture: one encoder block, a 2x2 max-pool, one bottleneck block, the
decoder entry ``crop_concat`` (the center crop of the encoder's output over
the bottleneck's upsampled 2x by nearest neighbour, one tape op), one decoder
block and a 1x1 linear head to 2 output channels.  Each block is the ``BLOCK_KERNELS``
sequence [3,1,1,3] of valid convolutions with ReLU.  The chain consumes a 16-pixel shape
margin (8 per side), so a (C, H, W) input yields a (2, H-16, W-16) field.

The receptive field is wider than that margin: 18 pixels per axis, with a
phase that follows the output pixel's parity.  Output row r sees concat rows
r..r+4; the skip half of those covers input rows r+4..r+12, and the upsampled
half copies bottleneck row floor(t/2) for concat row t, which covers input
rows 2*floor(t/2)..2*floor(t/2)+13.  So an even r sees input rows r..r+17 and
an odd r sees r-1..r+16 (columns alike).  Tiles cut at even origins keep the
pooling phase of the whole image, and ``conv2d_valid`` runs every GEMM at one
fixed shape, so a pixel's value does not depend on the width of the image it
sits in; together they make tiled inference equal a single pass bit for bit at
every model width.

Training memory: each block's ReLU runs in place over the fresh output of the
conv before it, so a block keeps one buffer per layer.  ``Tape.backward``
frees each activation and its gradient once their last reader has run: a
node drops both before its backward allocates, and a ReLU masks its gradient
in place.  The decoder entry records no upsampled tensor, and its backward
sums each 2x2 block of its gradient straight into the bottleneck's.  The
forward and backward of one default-model crop of 252 peak at 256.6 MB of
allocations (tracemalloc), during dec0's backward: its weight gradient reads
the 256-channel 240x240 concat (59 MB) while it writes the concat's gradient
of the same size, so the two must coexist until dec0 stops reading a concat
(ROADMAP direction 2).  Under ``oceseg``, whose ``main`` fixes
glibc's mmap threshold, a process's peak RSS is about its baseline plus that
allocation peak.  Library callers of ``train`` keep glibc's default, whose
threshold rises as large blocks are freed, so freed heap may stay resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import data as dataio
from .autodiff import Tape, Tensor, conv2d_valid, crop_concat, maxpool2, relu
# unused: the benchmark tracer wraps network.upsample_nearest2 by name (ROADMAP direction 1)
from .autodiff import upsample_nearest2  # noqa: F401
from .errors import ConfigError, DegenerateError, FormatError, ShapeError, check_int, check_real
from .loss import LossConfig, oce_loss, sample_pairs

# input-minus-output shape margin of the chain (8 per side); the receptive
# field is 18 wide: even output row r sees input rows r..r+17, odd r r-1..r+16
CONTEXT = 16
MIN_INPUT = 20  # smallest spatial extent the chain supports
BLOCK_KERNELS = (3, 1, 1, 3)  # kernel sizes of each block's convolutions
# the ModelConfig fields in the order a checkpoint's meta.config stores them
_META_FIELDS = ("in_channels", "base_fmaps", "fmap_factor", "depth", "out_channels")


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 1
    base_fmaps: int = 64
    fmap_factor: int = 3
    depth: int = 1
    out_channels: int = 2

    def __post_init__(self):
        for name in _META_FIELDS:
            check_int(name, getattr(self, name), 1)
        if self.in_channels > 2:
            raise ConfigError(f"in_channels must be 1 or 2, got {self.in_channels}")
        if self.depth != 1:
            raise ConfigError(f"only depth 1 is supported, got {self.depth}")
        if self.out_channels != 2:
            raise ConfigError(f"out_channels must be 2 (a 2-D offset), got {self.out_channels}")


def _layer_plan(config: ModelConfig):
    """(name, cin, cout, k) of every convolution, in forward order."""
    base = config.base_fmaps
    mid = base * config.fmap_factor
    plan = []
    for prefix, cin, width in (("enc", config.in_channels, base), ("bot", base, mid),
                               ("dec", base + mid, base)):
        for i, k in enumerate(BLOCK_KERNELS):
            plan.append((f"{prefix}{i}", cin, width, k))
            cin = width
    plan.append(("head", base, config.out_channels, 1))
    return plan


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Shape of every parameter by name, each layer's weight then bias, in forward order."""
    shapes = {}
    for name, cin, cout, k in _layer_plan(config):
        shapes[name + ".w"] = (cout, cin, k, k)
        shapes[name + ".b"] = (cout,)
    return shapes


class ModelParams:
    """Ordered named weight/bias tensors for one model instance."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """He-style fan-in scaled normal weights with zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _tensor_shapes(config).items():
        if name.endswith(".w"):  # (cout, cin, k, k): the fan-in is cin * k * k
            arr = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)
        else:
            arr = np.zeros(shape)
        tensors[name] = Tensor(arr.astype(np.float32))
    return ModelParams(config, tensors)


def _block(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    for i in range(len(BLOCK_KERNELS)):
        conv = conv2d_valid(x, params[f"{prefix}{i}.w"], params[f"{prefix}{i}.b"])
        # the conv's backward never reads its output, so ReLU may overwrite it
        x = relu(conv, inplace=True)
    return x


def check_image(image, in_channels: int) -> None:
    """Raise unless the model takes the image: (in_channels, H, W) with both
    sides at least ``MIN_INPUT`` and every pixel finite."""
    if image.ndim != 3 or image.shape[0] != in_channels:
        raise ShapeError(f"image has shape {image.shape}, model expects ({in_channels},H,W)")
    _, H, W = image.shape
    if H < MIN_INPUT or W < MIN_INPUT:
        raise ShapeError(f"image {H}x{W} smaller than {MIN_INPUT}x{MIN_INPUT}")
    if not np.isfinite(image).all():
        raise DegenerateError("image is not finite: it holds NaN or inf values")


def forward(params: ModelParams, image) -> Tensor:
    """Dense offset field for a (C, H, W) image of even sides; output is
    (2, H-16, W-16)."""
    x = image if isinstance(image, Tensor) else Tensor(image)
    check_image(x.data, params.config.in_channels)
    _, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"input {H}x{W} leads to odd intermediate dims")
    h = _block(x, params, "enc")
    skip = h
    h = maxpool2(h)
    h = _block(h, params, "bot")
    h = crop_concat(skip, h)
    del skip  # with no tape holding it, freed before the decoder runs
    h = _block(h, params, "dec")
    return conv2d_valid(h, params["head.w"], params["head.b"])


# ---------------------------------------------------------------------------
# Optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


def adam_step(state: AdamState, params: ModelParams, lr: float) -> None:
    """One in-place Adam update with bias correction."""
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"missing gradient for {name}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, t in params.items():
        g = t.grad
        m, v = state.m[name], state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        t.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def lr_schedule(epoch: int, base: float) -> float:
    """Base rate for the first 20 epochs, then /10, then /100 from epoch 30."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if epoch < 20:
        return base
    if epoch < 30:
        return base / 10.0
    return base / 100.0


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    crop_size: int = 252
    base_lr: float = 4e-5

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("crop_size", self.crop_size, MIN_INPUT)
        if self.crop_size % 2:
            raise ConfigError(f"crop_size must be even, got {self.crop_size}")
        check_real("base_lr", self.base_lr)
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr!r}")


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    epoch_losses: list = field(default_factory=list)
    next_epoch: int = 0


def train(
    images,
    model_config: ModelConfig,
    loss_config: LossConfig,
    train_config: TrainConfig,
    seed: int,
    resume: Optional[TrainResult] = None,
    log=None,
) -> TrainResult:
    """Run the self-supervised loop; fully deterministic in (inputs, seed).

    An epoch is ``max(1, len(images) // batch_size)`` steps.  Each step draws
    ``batch_size`` random crops, accumulates loss gradients over them and
    applies one Adam update at the scheduled rate.  After each epoch ``log``,
    if given, receives the state, whose ``next_epoch`` and last
    ``epoch_losses`` entry describe the epoch just run.  Randomness
    is drawn from a per-epoch generator seeded by (seed, epoch), so training
    resumed from a checkpoint at an epoch boundary replays the exact stream
    of the uninterrupted run.  Before its first step it raises unless the
    crop's field is wider than twice the pair radius, there are images, and
    the model takes each image with the crop fitting inside.
    """
    if resume is not None:
        state = TrainResult(
            resume.params, resume.adam, list(resume.epoch_losses), resume.next_epoch
        )
    else:
        params = init_params(model_config, seed)
        state = TrainResult(params, AdamState.fresh(params))
    crop = train_config.crop_size
    if crop - CONTEXT <= 2 * loss_config.pair_radius:
        raise ConfigError(f"crop_size {crop} gives a {crop - CONTEXT}x{crop - CONTEXT} field, "
                          f"not larger than twice the pair radius {loss_config.pair_radius}")
    if not images:
        raise ValueError("empty dataset")
    for img in images:
        check_image(img, state.params.config.in_channels)
        if img.shape[1] < crop or img.shape[2] < crop:
            raise ShapeError(f"crop {crop} larger than image {img.shape[1]}x{img.shape[2]}")

    n = len(images)
    steps = max(1, n // train_config.batch_size)
    for epoch in range(state.next_epoch, train_config.epochs):
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(n)
        lr = lr_schedule(epoch, train_config.base_lr)
        step_losses = []
        for s in range(steps):
            state.params.zero_grads()
            total = 0.0
            for j in range(train_config.batch_size):
                img = images[order[(s * train_config.batch_size + j) % n]]
                r0 = int(rng.integers(0, img.shape[1] - crop + 1))
                c0 = int(rng.integers(0, img.shape[2] - crop + 1))
                patch = Tensor(img[:, r0:r0 + crop, c0:c0 + crop])
                with Tape() as tape:
                    out = forward(state.params, patch)
                    pairs = sample_pairs(out.shape[1:], loss_config, rng)
                    loss = oce_loss(out, pairs, loss_config)
                    tape.backward(loss)
                total += loss.item()
            adam_step(state.adam, state.params, lr)
            step_losses.append(total)
        state.epoch_losses.append(float(np.mean(step_losses)))
        state.next_epoch = epoch + 1
        if log is not None:
            log(state)
    return state


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(path, params: ModelParams, adam: AdamState, next_epoch: int = 0) -> None:
    cfg = params.config
    tensors = {
        "meta.config": np.array([getattr(cfg, f) for f in _META_FIELDS], np.int32),
        "meta.step": np.array([adam.step], np.int32),
        "meta.epoch": np.array([next_epoch], np.int32),
    }
    for name, t in params.items():
        tensors["param." + name] = t.data
    for name in params.tensors:
        tensors["adam.m." + name] = adam.m[name]
        tensors["adam.v." + name] = adam.v[name]
    dataio.archive_write(path, tensors)


def load_checkpoint(path):
    """Returns (params, adam_state, next_epoch); validates every tensor's
    shape and rejects NaN or inf values, a negative step or epoch and a
    negative Adam second moment."""
    tensors = dataio.archive_read(path)
    try:
        meta = tensors["meta.config"]
        if meta.shape != (len(_META_FIELDS),):
            raise ValueError(f"meta.config has shape {meta.shape}, "
                             f"expected ({len(_META_FIELDS)},)")
        config = ModelConfig(**{f: int(v) for f, v in zip(_META_FIELDS, meta)})
        step = int(tensors["meta.step"][0])
        next_epoch = int(tensors["meta.epoch"][0])
    except (KeyError, IndexError, ValueError) as exc:
        raise FormatError(f"invalid checkpoint metadata: {exc}") from exc
    for name, count in (("meta.step", step), ("meta.epoch", next_epoch)):
        if count < 0:
            raise FormatError(f"checkpoint tensor {name} is {count}, expected a count >= 0")
    params_t: dict[str, Tensor] = {}
    adam = AdamState(m={}, v={}, step=step)
    for key, shape in _tensor_shapes(config).items():
        for group, store in (("param.", None), ("adam.m.", adam.m), ("adam.v.", adam.v)):
            full = group + key
            if full not in tensors:
                raise FormatError(f"checkpoint missing tensor {full}")
            arr = tensors[full]
            if arr.shape != shape or arr.dtype != np.float32:
                raise FormatError(
                    f"checkpoint tensor {full} has shape {arr.shape}, expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise FormatError(f"checkpoint tensor {full} holds NaN or inf values")
            if store is adam.v and (arr < 0).any():
                raise FormatError(f"checkpoint tensor {full} holds negative values")
            if store is None:
                params_t[key] = Tensor(arr)
            else:
                store[key] = arr.copy()
    return ModelParams(config, params_t), adam, next_epoch
