"""Synthetic scene pairs and the noise-robustness sweep.

A scene pair is a set of boxes laid out in the ego frame plus a coop view
of a subset of them, re-expressed in the coop frame through the inverse of
the ground-truth transform. Noise is injected per view with independent
seeds, mirroring two detectors that err independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .association import ODistParams
from .geometry import TWO_PI, RigidTransform, Scene, _transformed_boxes, invert
from .metrics import MetricSummary, TrialError, summarize
from .pipeline import DEFAULT_TOP_K, trial_error


class PlacementFailure(RuntimeError):
    """Could not place boxes subject to the separation/genericity rules."""


@dataclass(frozen=True)
class SynthConfig:
    """Scene-pair generator settings.

    x_range, y_range and z_range bound the box centers and dims_range the
    box dimensions, each as (min, max). The genericity guard rejects
    layouts in which two boxes see the same multiset of distances to the
    other boxes (all sorted entries within guard_tolerance); such layouts
    make distinct anchors nearly indistinguishable. A guard_tolerance of
    0 turns the guard off.
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
    guard_tolerance: float = 1.5

    def __post_init__(self):
        if self.n_boxes < 1:
            raise ValueError("n_boxes must be >= 1")
        if not (0.0 < self.visibility <= 1.0):
            raise ValueError("visibility must be in (0, 1]")
        if not (0.0 < self.min_separation < math.inf):
            raise ValueError("min_separation must be finite and positive")
        if not (0.0 <= self.guard_tolerance < math.inf):
            raise ValueError("guard_tolerance must be finite and nonnegative")
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            if not (-math.inf < lo <= hi < math.inf):
                raise ValueError(f"{name} must be a finite (min, max) pair with min <= max")
            if not math.isfinite(hi - lo):  # the centers are drawn as min + (max - min) * u
                raise ValueError(f"{name} must span a finite max - min, got ({lo}, {hi})")
        if len(self.dims_range) != 3 or any(not 0 < lo <= hi < math.inf for lo, hi in self.dims_range):
            raise ValueError("dims_range must be three finite positive (min, max) pairs")


@dataclass(frozen=True)
class NoiseConfig:
    """Per-view detection noise: Gaussian on each center coordinate and
    von Mises on yaw. yaw_std_deg is the circular standard deviation of
    the injected yaw error."""

    sigma_pos: float = 0.0
    yaw_std_deg: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.sigma_pos < math.inf):
            raise ValueError("sigma_pos must be finite and nonnegative")
        if not (0.0 <= self.yaw_std_deg <= 180.0):
            raise ValueError("yaw_std_deg must be in [0, 180]")


@lru_cache(maxsize=256)
def kappa_for_circular_std(std_rad: float) -> float:
    """Von Mises concentration whose circular standard deviation equals std_rad.

    Inverts sqrt(-2 ln(I1(k)/I0(k))) numerically. The common shortcut
    k = 1/std^2 overshoots the dispersion by ~6% already at 25 deg, which
    is outside the tolerance the noise model is tested to. Solved once per
    std: a sweep asks for the same few stds in every trial. scipy is
    imported on the first solve, so only yaw noise loads it.
    """
    if std_rad <= 0:
        raise ValueError("std_rad must be positive")
    if std_rad < 1e-4:
        # Asymptotic: std^2 ~ 1/k - 1/(2k^2); the correction is negligible here.
        return 1.0 / std_rad**2 + 0.5
    from scipy.optimize import brentq
    from scipy.special import ive

    def gap(k: float) -> float:
        rbar = ive(1, k) / ive(0, k)
        return math.sqrt(-2.0 * math.log(rbar)) - std_rad

    return float(brentq(gap, 1e-12, 1e9, xtol=1e-12, rtol=1e-14))


def inject_noise(scene: Scene, noise: NoiseConfig) -> Scene:
    """Perturb box centers and yaws; dims, confidences and labels are untouched.

    A (0, 0) config returns the scene itself. Otherwise the draws go box by
    box: three normals for the center when sigma_pos > 0, then one von
    Mises for the yaw when yaw_std_deg > 0. An axis that is off draws
    nothing, and its values are kept as they are.
    """
    if noise.sigma_pos == 0.0 and noise.yaw_std_deg == 0.0:
        return scene
    rng = np.random.default_rng(noise.seed)
    kappa = kappa_for_circular_std(math.radians(noise.yaw_std_deg)) if noise.yaw_std_deg > 0.0 else None
    shifts, turns = [], []
    for _ in range(len(scene)):
        if noise.sigma_pos > 0.0:
            shifts.append(rng.normal(0.0, noise.sigma_pos, 3))
        if kappa is not None:
            turns.append(rng.vonmises(0.0, kappa))
    centers, yaws = scene._arrays.centers, scene._arrays.yaws
    return scene._moved(centers + shifts if shifts else centers, yaws + turns if turns else yaws)


def _distance_multisets_generic(centers: np.ndarray, tolerance: float) -> bool:
    n = centers.shape[0]
    if n < 3:
        return True
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    profiles = np.sort(d, axis=1)[:, 1:]  # each row without its leading self-distance 0.0
    # a block of rows against every row after the block's first, about
    # _GUARD_CELLS profile entries per step; a pair counts if its second row
    # comes after its first (np.triu)
    start = 0
    while start < n - 1:
        rows = max(1, _GUARD_CELLS // ((n - 1 - start) * (n - 1)))
        later = profiles[start + 1 :]
        gaps = np.max(np.abs(later[None, :, :] - profiles[start : start + rows, None, :]), axis=2)
        if np.any(np.triu(gaps < tolerance)):
            return False
        start += rows
    return True


# profile entries compared in one step of the genericity guard: a layout of
# up to 26 boxes takes one step, and the temporaries of larger ones stay small
_GUARD_CELLS = 1 << 14

# a candidate this close to min_separation, relatively, is decided by the
# per-pair norm; every other is decided by far more than rounding
_SEPARATION_MARGIN = 1e-9


def _separated(candidate: np.ndarray, placed: np.ndarray, separation: float) -> bool:
    """Whether candidate is at least separation from every placed center,
    decided exactly as np.linalg.norm(candidate - p) >= separation for each
    placed p would. That norm's rounding (a BLAS dot) differs from a
    vectorized sum of squares in the last bit, so only the pairs that are
    within _SEPARATION_MARGIN of the limit take it."""
    if not len(placed):
        return True
    d = placed - candidate
    squares = np.einsum("ij,ij->i", d, d)
    closest, clear = squares.min(), (separation * (1.0 + _SEPARATION_MARGIN)) ** 2
    if closest >= clear:
        return True
    if closest < (separation * (1.0 - _SEPARATION_MARGIN)) ** 2:
        return False
    return all(np.linalg.norm(candidate - p) >= separation for p in placed[squares < clear])


def generate_scene_pair(cfg: SynthConfig) -> tuple[Scene, Scene, RigidTransform]:
    """Build (ego scene, coop scene, true coop-to-ego transform).

    Deterministic in cfg.seed. The coop scene holds a random subset of
    round(visibility * n_boxes) boxes in shuffled order. Exact ground-truth
    recovery downstream requires a yaw-only coop_transform, since the box
    parameterization cannot express roll or pitch.
    """
    rng = np.random.default_rng(cfg.seed)
    lows = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    spans = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]]) - lows
    budget = 10 * cfg.n_boxes * 100

    centers, placed = np.empty((cfg.n_boxes, 3)), 0
    while placed < cfg.n_boxes:
        if budget <= 0:
            raise PlacementFailure(
                f"could not place {cfg.n_boxes} boxes with separation "
                f"{cfg.min_separation} in the allotted attempts"
            )
        budget -= 1
        c = lows + spans * rng.random(3)  # rng.uniform(lows, highs), one draw per coordinate
        if _separated(c, centers[:placed], cfg.min_separation):
            centers[placed] = c
            placed += 1
            if placed == cfg.n_boxes and not _distance_multisets_generic(centers, cfg.guard_tolerance):
                placed = 0

    # per box: three dims, then the yaw, each as rng.uniform draws it (low + span * u)
    dims_lo = np.array([r[0] for r in cfg.dims_range])
    dims_hi = np.array([r[1] for r in cfg.dims_range])
    u = rng.random((cfg.n_boxes, 4))
    dims = dims_lo + (dims_hi - dims_lo) * u[:, :3]
    ego = Scene.from_arrays(centers, dims, TWO_PI * u[:, 3], agent_id="ego", frame_id=0)

    n_coop = max(1, int(round(cfg.visibility * cfg.n_boxes)))
    subset = rng.permutation(cfg.n_boxes)[:n_coop]
    transform = cfg.coop_transform if cfg.coop_transform is not None else RigidTransform.identity()
    arrays = ego._arrays
    coop = Scene.from_arrays(
        *_transformed_boxes(invert(transform), arrays.centers[subset], arrays.dims[subset], arrays.yaws[subset]),
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


def noisy_pair(
    base_cfg: SynthConfig, noise: NoiseConfig, seed_seq: np.random.SeedSequence
) -> tuple[Scene, Scene, RigidTransform]:
    """(noisy ego, noisy coop, true transform) from four seeds of seed_seq, in
    order: scene, transform (drawn unless base_cfg sets coop_transform), ego
    noise, coop noise. The seed fields of base_cfg and noise are ignored."""
    s_scene, s_transform, s_ego, s_coop = (int(s) for s in seed_seq.generate_state(4, np.uint64))
    transform = base_cfg.coop_transform
    if transform is None:
        transform = random_yaw_transform(np.random.default_rng(s_transform))
    cfg = replace(base_cfg, seed=s_scene, coop_transform=transform)
    ego, coop, t_true = generate_scene_pair(cfg)
    ego = inject_noise(ego, replace(noise, seed=s_ego))
    coop = inject_noise(coop, replace(noise, seed=s_coop))
    return ego, coop, t_true


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
    top_k: int | None = DEFAULT_TOP_K,
) -> TrialError:
    """One sweep trial: fresh scene pair, independent per-view noise, calibrate."""
    ego, coop, t_true = noisy_pair(base_cfg, NoiseConfig(sigma_pos, yaw_std_deg), trial_seed)
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
    top_k: int | None = DEFAULT_TOP_K,
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
