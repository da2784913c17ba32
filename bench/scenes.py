"""Synthetic scene settings shared by the workloads and the fixture build."""

from __future__ import annotations

FIXTURE_SEED = 7

# One radius band for training and held-out images: a wide band would let
# the per-scene radius draw dominate the seed-to-seed spread of the quality
# metrics (shrinking erodes a fixed depth, so small cells lose more area).
SCENE_OPTIONS = {"radius_min": 9.0, "radius_max": 11.0, "noise_std": 0.02}
