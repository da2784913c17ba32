"""Procedural scenes with exact instance labels.

Every scene carries one elliptical object template whose texture is a
radial intensity ramp multiplied into a fixed-orientation linear gradient,
so any patch inside an object uniquely encodes its position.  Copies of
the template are placed uniformly at random without overlap on a noisy
low-intensity background.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import ConfigError, PlacementError, check_int, check_real

MAX_PLACEMENT_ATTEMPTS = 10_000
BACKGROUND_LEVEL = 0.1
MIN_GAP = 2  # empty pixels kept between object bounding boxes


@dataclass(frozen=True)
class SceneSpec:
    height: int = 252
    width: int = 252
    n_objects: int = 20
    radius_range: tuple = (8.0, 14.0)
    eccentricity_range: tuple = (1.0, 1.4)
    noise_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        check_int("height", self.height, 1)
        check_int("width", self.width, 1)
        check_int("n_objects", self.n_objects, 0)
        check_int("seed", self.seed, 0)
        check_real("noise_std", self.noise_std)
        for name in ("radius_range", "eccentricity_range"):
            for value in getattr(self, name):
                check_real(name, value)
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ConfigError(f"radius_range must be 0 < min <= max, got {self.radius_range!r}")
        lo, hi = self.eccentricity_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"eccentricity_range must be 1 <= min <= max, "
                              f"got {self.eccentricity_range!r}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std!r}")
        # object_template's side at the largest radius and eccentricity
        side = 2 * int(np.ceil(self.radius_range[1] * self.eccentricity_range[1])) + 1
        if side > min(self.height, self.width):
            raise ConfigError(
                f"the largest template ({side}x{side} at radius_range {self.radius_range!r} "
                f"and eccentricity_range {self.eccentricity_range!r}) does not fit the "
                f"{self.height}x{self.width} canvas")


def object_template(radius: float, eccentricity: float = 1.0, angle: float = 0.0):
    """Elliptical template (values, support mask).

    Texture: a radial ramp brightest at the center plus a linear gradient
    along the image x axis; both terms together make every interior patch
    position-identifiable.
    """
    a = radius * eccentricity  # semi-axis along `angle`
    b = radius
    half = int(np.ceil(max(a, b)))
    ys, xs = np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64)
    ca, sa = np.cos(angle), np.sin(angle)
    u = ca * xs + sa * ys
    v = -sa * xs + ca * ys
    rho_sq = (u / a) ** 2 + (v / b) ** 2
    support = rho_sq <= 1.0
    values = 0.5 + 0.3 * (1.0 - rho_sq) + 0.15 * (xs / max(a, b))
    values = np.where(support, values, 0.0).astype(np.float32)
    return values, support


def _place_origins(spec: SceneSpec, support: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    th, tw = support.shape
    H, W = spec.height, spec.width
    gap = MIN_GAP
    dilated = ndimage.binary_dilation(np.pad(support, gap), iterations=gap)
    occupied = np.zeros((H + 2 * gap, W + 2 * gap), bool)  # padded by gap on every side
    origins = []
    attempts = 0
    while len(origins) < spec.n_objects:
        attempts += 1
        if attempts > MAX_PLACEMENT_ATTEMPTS:
            raise PlacementError(
                f"placed {len(origins)}/{spec.n_objects} objects in "
                f"{MAX_PLACEMENT_ATTEMPTS} attempts"
            )
        r0 = int(rng.integers(0, H - th + 1))
        c0 = int(rng.integers(0, W - tw + 1))
        if np.any(occupied[r0 + gap:r0 + gap + th, c0 + gap:c0 + gap + tw] & support):
            continue
        # reserve the support plus a clearance band so instances never touch
        occupied[r0:r0 + th + 2 * gap, c0:c0 + tw + 2 * gap] |= dilated
        origins.append((r0, c0))
    return np.asarray(origins, dtype=np.int64).reshape(-1, 2)


def synth_generate(spec: SceneSpec):
    """One scene: returns (image (1,H,W) float32, labels (H,W) int32).

    All objects in a scene are integer translations of a single template,
    so their pixel patterns agree exactly.  The background is Gaussian
    noise around ``BACKGROUND_LEVEL``; object pixels carry template values.
    """
    rng = np.random.default_rng(spec.seed)
    image = rng.normal(
        BACKGROUND_LEVEL, spec.noise_std, size=(spec.height, spec.width)
    ).astype(np.float32)
    labels = np.zeros((spec.height, spec.width), np.int32)
    if spec.n_objects == 0:
        return image[None], labels
    radius = float(rng.uniform(*spec.radius_range))
    ecc = float(rng.uniform(*spec.eccentricity_range))
    angle = float(rng.uniform(0.0, np.pi))
    values, support = object_template(radius, ecc, angle)
    origins = _place_origins(spec, support, rng)
    th, tw = support.shape
    for ident, (r0, c0) in enumerate(origins, start=1):
        window = (slice(r0, r0 + th), slice(c0, c0 + tw))
        image[window][support] = values[support]
        labels[window][support] = ident
    return image[None], labels


def generate_dataset(spec: SceneSpec, count: int, seed: int = 0):
    """A list of ``count`` (image, labels) scenes, at least one, with
    per-scene seeds derived from seed."""
    check_int("count", count, 1)
    scenes = []
    for i in range(count):
        sub = int(np.random.default_rng([seed, i]).integers(0, 2**31 - 1))
        scenes.append(synth_generate(replace(spec, seed=sub)))
    return scenes

