"""Cross-agent LiDAR extrinsic calibration from 3D detection boxes.

Estimates the rigid transform between two agents' sensor frames using
nothing but each agent's detected boxes: candidate anchors are scored by
whole-scene alignment consistency, the best five anchors of the
resulting affinity matrix are refined by least-squares fits of their
valid sets' box corners, computed in closed form, and the best refined
valid set gives the object matches and its fit the transform and its
health. The paper's optimal one-to-one assignment of the affinity matrix
is solve_assignment, off the calibration path. Includes error metrics, a
synthetic noise-robustness harness, and a runtime health/recalibration
monitor.

Importing the package loads no scipy module: scipy serves only
solve_assignment and the yaw-noise model, which import it on first use.
"""

from .geometry import (
    DegenerateGeometry,
    DetectionBox,
    RigidTransform,
    Scene,
    apply_transform,
    compose,
    corners_of,
    invert,
    rot_z,
    transform_box,
    transform_scene,
    with_flipped_yaw,
)
from .registration import (
    EmptyMatchSet,
    RegistrationResult,
    WeightedCorrespondences,
    build_feature_clouds,
    weighted_kabsch,
)
from .association import (
    AffinityMatrix,
    Match,
    MatchSet,
    NoCoVisibleObjects,
    ODistParams,
    PairScore,
    alignment_score,
    associate,
    box_distance,
    build_affinity,
    odist,
    solve_assignment,
    top_k_by_volume,
)
from .metrics import EmptyTrialSet, MetricSummary, TrialError, rre, rte, summarize
from .pipeline import DEFAULT_TOP_K, CalibrationReport, CalibrationTrace, calibrate_scenes
from .synth import (
    NoiseConfig,
    PlacementFailure,
    SweepCell,
    SynthConfig,
    generate_scene_pair,
    grid_product,
    inject_noise,
    kappa_for_circular_std,
    noise_sweep,
    noisy_pair,
    random_yaw_transform,
    run_trial,
)
from .monitor import (
    EventKind,
    MonitorConfig,
    MonitorEvent,
    MonitorState,
    MonitorStatus,
    health_check,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "DetectionBox", "RigidTransform", "Scene", "apply_transform", "compose",
    "corners_of", "invert", "rot_z", "transform_box", "transform_scene",
    "with_flipped_yaw", "DegenerateGeometry",
    "EmptyMatchSet", "RegistrationResult", "WeightedCorrespondences",
    "build_feature_clouds", "weighted_kabsch",
    "AffinityMatrix", "Match", "MatchSet", "NoCoVisibleObjects", "ODistParams",
    "PairScore", "alignment_score", "associate", "box_distance",
    "build_affinity", "odist", "solve_assignment", "top_k_by_volume",
    "EmptyTrialSet", "MetricSummary", "TrialError", "rre", "rte", "summarize",
    "DEFAULT_TOP_K", "CalibrationReport", "CalibrationTrace", "calibrate_scenes",
    "NoiseConfig", "PlacementFailure", "SweepCell", "SynthConfig",
    "generate_scene_pair", "grid_product", "inject_noise",
    "kappa_for_circular_std", "noise_sweep", "noisy_pair", "random_yaw_transform",
    "run_trial",
    "EventKind", "MonitorConfig", "MonitorEvent", "MonitorState", "MonitorStatus",
    "health_check", "step",
    "__version__",
]
