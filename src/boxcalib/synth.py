"""Synthetic scene pairs and the noise-robustness sweep.

A scene pair is a set of boxes laid out in the ego frame plus a coop view
of a subset of them, re-expressed in the coop frame through the inverse of
the ground-truth transform. Noise is injected per view with independent
seeds, mirroring two detectors that err independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive

from .association import ODistParams
from .geometry import DetectionBox, RigidTransform, Scene, invert, transform_box
from .metrics import MetricSummary, TrialError, summarize
from .pipeline import DEFAULT_TOP_K, trial_error


class PlacementFailure(RuntimeError):
    """Could not place boxes subject to the separation/genericity rules."""


@dataclass(frozen=True)
class SynthConfig:
    """Scene-pair generator settings.

    dims_range gives (min, max) per box axis. The genericity guard rejects
    layouts in which two boxes see the same multiset of distances to the
    other boxes (all sorted entries within guard_tolerance); such layouts
    make distinct anchors nearly indistinguishable. The default tolerance
    matches the affinity mean-distance gate.
    """

    n_boxes: int = 15
    x_range: tuple[float, float] = (-30.0, 30.0)
    y_range: tuple[float, float] = (-30.0, 30.0)
    z_range: tuple[float, float] = (-1.0, 1.0)
    dims_range: tuple[tuple[float, float], ...] = ((2.0, 6.0), (1.2, 2.8), (1.0, 2.5))
    min_separation: float = 5.0
    visibility: float = 1.0
    coop_transform: RigidTransform | None = None
    seed: int = 0
    generic_guard: bool = True
    guard_tolerance: float = 1.5

    def __post_init__(self):
        if self.n_boxes < 1:
            raise ValueError("n_boxes must be >= 1")
        if not (0.0 < self.visibility <= 1.0):
            raise ValueError("visibility must be in (0, 1]")
        if self.min_separation <= 0:
            raise ValueError("min_separation must be positive")
        if len(self.dims_range) != 3 or any(lo <= 0 or hi < lo for lo, hi in self.dims_range):
            raise ValueError("dims_range must be three positive (min, max) pairs")


@dataclass(frozen=True)
class NoiseConfig:
    """Per-view detection noise: Gaussian on each center coordinate and
    von Mises on yaw. yaw_std_deg is the circular standard deviation of
    the injected yaw error."""

    sigma_pos: float = 0.0
    yaw_std_deg: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_pos < 0:
            raise ValueError("sigma_pos must be nonnegative")
        if not (0.0 <= self.yaw_std_deg <= 180.0):
            raise ValueError("yaw_std_deg must be in [0, 180]")


def kappa_for_circular_std(std_rad: float) -> float:
    """Von Mises concentration whose circular standard deviation equals std_rad.

    Inverts sqrt(-2 ln(I1(k)/I0(k))) numerically. The common shortcut
    k = 1/std^2 overshoots the dispersion by ~6% already at 25 deg, which
    is outside the tolerance the noise model is tested to.
    """
    if std_rad <= 0:
        raise ValueError("std_rad must be positive")
    if std_rad < 1e-4:
        # Asymptotic: std^2 ~ 1/k - 1/(2k^2); the correction is negligible here.
        return 1.0 / std_rad**2 + 0.5

    def gap(k: float) -> float:
        rbar = ive(1, k) / ive(0, k)
        return math.sqrt(-2.0 * math.log(rbar)) - std_rad

    return float(brentq(gap, 1e-12, 1e9, xtol=1e-12, rtol=1e-14))


def inject_noise(scene: Scene, noise: NoiseConfig) -> Scene:
    """Perturb box centers and yaws; dims and confidences are untouched.

    Zero noise on an axis skips drawing for that axis, so a (0, 0) config
    returns a bit-identical scene.
    """
    if noise.sigma_pos == 0.0 and noise.yaw_std_deg == 0.0:
        return scene
    rng = np.random.default_rng(noise.seed)
    kappa = (
        kappa_for_circular_std(math.radians(noise.yaw_std_deg))
        if noise.yaw_std_deg > 0
        else None
    )
    boxes = []
    for b in scene.boxes:
        center = b.center + rng.normal(0.0, noise.sigma_pos, 3) if noise.sigma_pos > 0 else b.center
        yaw = b.yaw + float(rng.vonmises(0.0, kappa)) if kappa is not None else b.yaw
        boxes.append(DetectionBox(center, b.dims, yaw, b.confidence, b.label))
    return Scene(tuple(boxes), scene.agent_id, scene.frame_id)


def _distance_multisets_generic(centers: np.ndarray, tolerance: float) -> bool:
    n = centers.shape[0]
    if n < 3:
        return True
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    profiles = np.sort(
        np.array([np.delete(d[i], i) for i in range(n)]), axis=1
    )
    for i in range(n):
        for k in range(i + 1, n):
            if np.max(np.abs(profiles[i] - profiles[k])) < tolerance:
                return False
    return True


def generate_scene_pair(cfg: SynthConfig) -> tuple[Scene, Scene, RigidTransform]:
    """Build (ego scene, coop scene, true coop-to-ego transform).

    Deterministic in cfg.seed. The coop scene holds a random subset of
    round(visibility * n_boxes) boxes in shuffled order. Exact ground-truth
    recovery downstream requires a yaw-only coop_transform, since the box
    parameterization cannot express roll or pitch.
    """
    rng = np.random.default_rng(cfg.seed)
    lows = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    highs = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    budget = 10 * cfg.n_boxes * 100

    centers: list[np.ndarray] = []
    while len(centers) < cfg.n_boxes:
        if budget <= 0:
            raise PlacementFailure(
                f"could not place {cfg.n_boxes} boxes with separation "
                f"{cfg.min_separation} in the allotted attempts"
            )
        budget -= 1
        c = rng.uniform(lows, highs)
        if all(np.linalg.norm(c - p) >= cfg.min_separation for p in centers):
            centers.append(c)
            if len(centers) == cfg.n_boxes and cfg.generic_guard:
                if not _distance_multisets_generic(np.array(centers), cfg.guard_tolerance):
                    centers = []

    dims_lo = np.array([r[0] for r in cfg.dims_range])
    dims_hi = np.array([r[1] for r in cfg.dims_range])
    boxes = tuple(
        DetectionBox(c, rng.uniform(dims_lo, dims_hi), rng.uniform(0.0, 2.0 * math.pi))
        for c in centers
    )
    ego = Scene(boxes, agent_id="ego", frame_id=0)

    n_coop = max(1, int(round(cfg.visibility * cfg.n_boxes)))
    subset = rng.permutation(cfg.n_boxes)[:n_coop]
    transform = cfg.coop_transform if cfg.coop_transform is not None else RigidTransform.identity()
    to_coop = invert(transform)
    coop = Scene(
        tuple(transform_box(to_coop, boxes[i]) for i in subset),
        agent_id="coop",
        frame_id=0,
    )
    return ego, coop, transform


def random_yaw_transform(
    rng: np.random.Generator,
    max_translation_xy: float = 29.0,
    z_range: tuple[float, float] = (-2.0, 2.0),
) -> RigidTransform:
    """Random yaw rotation (full turn) with translation up to ~30 m."""
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = max_translation_xy * math.sqrt(rng.uniform())
    t = np.array([radius * math.cos(angle), radius * math.sin(angle), rng.uniform(*z_range)])
    return RigidTransform.from_yaw(yaw, t)


@dataclass(frozen=True)
class SweepCell:
    sigma_pos: float
    yaw_std_deg: float
    trials: tuple[TrialError, ...]
    summary: MetricSummary


def run_trial(
    base_cfg: SynthConfig,
    sigma_pos: float,
    yaw_std_deg: float,
    trial_seed: np.random.SeedSequence,
    params: ODistParams = ODistParams(),
    top_k: int | float | None = DEFAULT_TOP_K,
) -> TrialError:
    """One sweep trial: fresh scene pair, independent per-view noise, calibrate."""
    s_scene, s_transform, s_ego, s_coop = (int(s) for s in trial_seed.generate_state(4, np.uint64))
    transform = random_yaw_transform(np.random.default_rng(s_transform))
    cfg = replace(base_cfg, seed=s_scene, coop_transform=transform)
    ego, coop, t_true = generate_scene_pair(cfg)
    ego = inject_noise(ego, NoiseConfig(sigma_pos, yaw_std_deg, seed=s_ego))
    coop = inject_noise(coop, NoiseConfig(sigma_pos, yaw_std_deg, seed=s_coop))
    return trial_error(ego, coop, t_true, params, top_k)


def grid_product(
    sigma_grid: tuple[float, ...], yaw_grid_deg: tuple[float, ...]
) -> list[NoiseConfig]:
    """Cartesian noise grid, sigma-major, as taken by noise_sweep."""
    return [
        NoiseConfig(sigma, yaw_std)
        for sigma in sigma_grid
        for yaw_std in yaw_grid_deg
    ]


def noise_sweep(
    grid: list[NoiseConfig],
    base_cfg: SynthConfig,
    n_trials: int = 100,
    threshold_m: float = 1.0,
    seed: int = 0,
    params: ODistParams = ODistParams(),
    top_k: int | float | None = DEFAULT_TOP_K,
) -> list[SweepCell]:
    """Run every noise cell in the grid and summarize each one.

    Deterministic in seed: trial t of cell c draws from a stream keyed by
    (seed, c, t), so trials may run in any order or in parallel without
    changing the table. The seed field on grid entries is ignored here.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    cells = []
    for cell_index, noise in enumerate(grid):
        trials = tuple(
            run_trial(
                base_cfg,
                noise.sigma_pos,
                noise.yaw_std_deg,
                np.random.SeedSequence([seed, cell_index, trial]),
                params,
                top_k,
            )
            for trial in range(n_trials)
        )
        cells.append(
            SweepCell(
                noise.sigma_pos,
                noise.yaw_std_deg,
                trials,
                summarize(trials, threshold_m),
            )
        )
    return cells
