"""Pair sampling and the pairwise offset loss.

The loss drives the network output r so that, for sampled pixel pairs
(i, j), the predicted embedding difference r_i - r_j matches the spatial
offset i - j.  Residuals pass through a sigmoid of their squared norm,
which damps gradient contributions from large (typically cross-object)
residuals; anchors additionally carry a small L2 pull toward zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, _op, gather_coords
from .errors import ConfigError, ShapeError, check_real


@dataclass(frozen=True)
class LossConfig:
    pair_radius: float = 10.0
    temperature: float = 10.0
    reg_weight: float = 1e-5
    anchor_density: float = 0.10

    def __post_init__(self):
        for name in ("pair_radius", "temperature", "reg_weight", "anchor_density"):
            check_real(name, getattr(self, name))
        if self.pair_radius <= 0:
            raise ConfigError("pair_radius must be positive")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.reg_weight < 0:
            raise ConfigError("reg_weight must be non-negative")
        if not 0 < self.anchor_density <= 1:
            raise ConfigError("anchor_density must be in (0, 1]")


@dataclass
class PairSet:
    """Anchor coordinates and one partner per anchor, on the output grid."""

    anchors: np.ndarray   # (N, 2) int64 (row, col)
    partners: np.ndarray  # (N, 2) int64

    def __len__(self):
        return len(self.anchors)


@lru_cache(maxsize=8)
def _disc_offsets(radius: float) -> np.ndarray:
    r = int(np.floor(radius))
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    keep = (dy * dy + dx * dx <= radius * radius) & ((dy != 0) | (dx != 0))
    return np.stack([dy[keep], dx[keep]], axis=1).astype(np.int64)


def sample_pairs(field_shape, config: LossConfig, rng: np.random.Generator) -> PairSet:
    """Draw floor(density*H*W) distinct anchors and one in-disc partner each.

    Partners are uniform over the in-bounds pixels within ``pair_radius`` of
    their anchor (rejection sampling over the full disc; the anchor itself
    is excluded).
    """
    H, W = field_shape
    if H <= 2 * config.pair_radius or W <= 2 * config.pair_radius:
        raise ShapeError(
            f"field {H}x{W} not larger than twice the pair radius {config.pair_radius}"
        )
    n = int(config.anchor_density * H * W)
    flat = rng.choice(H * W, size=n, replace=False)
    anchors = np.stack(np.divmod(flat, W), axis=1).astype(np.int64)
    offsets = _disc_offsets(config.pair_radius)
    partners = np.empty_like(anchors)
    pending = np.arange(n)
    while pending.size:
        pick = rng.integers(0, len(offsets), size=pending.size)
        cand = anchors[pending] + offsets[pick]
        ok = (
            (cand[:, 0] >= 0) & (cand[:, 0] < H)
            & (cand[:, 1] >= 0) & (cand[:, 1] < W)
        )
        partners[pending[ok]] = cand[ok]
        pending = pending[~ok]
    return PairSet(anchors, partners)


def _loss_pieces(a: np.ndarray, p: np.ndarray, pairs: PairSet, config: LossConfig):
    """Residuals, sigmoids and anchor norms from the (N, 2) anchor and partner values."""
    dt = a.dtype
    d = (pairs.anchors - pairs.partners).astype(dt)
    resid = d - (a - p)
    sq = (resid * resid).sum(axis=1)
    sig = 1.0 / (1.0 + np.exp(-sq / dt.type(config.temperature)))
    anorm = np.sqrt((a * a).sum(axis=1))
    return resid, sig, anorm


def oce_loss(field: Tensor, pairs: PairSet, config: LossConfig) -> Tensor:
    """Total loss over the pair set: sum of damped residual distances plus
    ``reg_weight`` times the L2 norm of the field at each anchor.

    Returns a scalar tensor; the gradient flows back through the coordinate
    gathers into the field.
    """
    if field.data.ndim != 3 or field.shape[0] != 2:
        raise ShapeError("oce_loss expects a (2,H,W) field")
    a = gather_coords(field, pairs.anchors)
    p = gather_coords(field, pairs.partners)
    dt = field.dtype
    resid, sig, anorm = _loss_pieces(a.data, p.data, pairs, config)
    total = sig.sum() + dt.type(config.reg_weight) * anorm.sum()

    def grads(g):
        gs = dt.type(g.item())
        dsig = sig * (1.0 - sig) * dt.type(2.0 / config.temperature)
        dresid = (gs * dsig)[:, None] * resid
        da = -dresid
        if config.reg_weight > 0:
            safe = np.where(anorm > 0, anorm, 1).astype(dt)
            da = da + (gs * dt.type(config.reg_weight)) * (a.data / safe[:, None]) * (
                anorm > 0
            )[:, None]
        return da.astype(dt, copy=False), dresid

    return _op("pair_offset_loss", (a, p), np.asarray(total, dtype=dt), grads)
