"""Rotation/translation error metrics and trial summaries."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalib import EmptyTrialSet, MetricSummary, TrialError, rre, rte, summarize


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_rotation(rng):
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---- rre ----


def test_identical_rotations_have_zero_error():
    r = rot_z(0.83) @ rot_x(-0.4)
    assert rre(r, r) == pytest.approx(0.0, abs=1e-12)


def test_rre_recovers_a_known_yaw_offset():
    r = rot_x(0.31)
    assert rre(r, r @ rot_z(math.radians(10))) == pytest.approx(10.0, abs=1e-9)


def test_rre_of_an_antipodal_rotation_is_180():
    r = rot_z(1.2)
    assert rre(r, r @ rot_z(math.pi)) == pytest.approx(180.0, abs=1e-9)


def test_rre_resolves_angles_below_the_arccos_floor():
    # a plain arccos of the trace cannot see angles this small
    tiny = math.radians(1e-8)
    assert rre(np.eye(3), rot_z(tiny)) == pytest.approx(1e-8, rel=1e-6)


def test_rre_is_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b = random_rotation(rng), random_rotation(rng)
        assert rre(a, b) == pytest.approx(rre(b, a), abs=1e-12)


def test_rre_is_bi_invariant():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a, b, g = (random_rotation(rng) for _ in range(3))
        assert rre(g @ a, g @ b) == pytest.approx(rre(a, b), abs=1e-9)


def test_rre_range_is_0_to_180():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rre(random_rotation(rng), random_rotation(rng))
        assert 0.0 <= v <= 180.0


# ---- rte ----


def test_rte_examples():
    assert rte((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0
    assert rte((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)) == pytest.approx(5.0, abs=1e-12)
    assert rte((1.0, 1.0, 1.0), (1.0, 1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)


# ---- TrialError ----


def test_succeeded_trials_must_carry_finite_nonnegative_errors():
    TrialError(0.5, 0.1)
    TrialError(math.inf, math.inf, solver_succeeded=False)
    with pytest.raises(ValueError):
        TrialError(math.inf, 0.1)
    with pytest.raises(ValueError):
        TrialError(0.5, math.nan)
    with pytest.raises(ValueError):
        TrialError(-0.5, 0.1)
    with pytest.raises(ValueError):
        TrialError(0.5, -0.1)


# ---- summarize ----


def test_hand_countable_summary():
    trials = [TrialError(1.0, 0.5), TrialError(2.0, 1.5), TrialError(3.0, 2.5)]
    s = summarize(trials, 2.0)
    assert s.success_rate == pytest.approx(2 / 3)
    assert s.mrte_m == pytest.approx(1.0)
    assert s.mrre_deg == pytest.approx(1.5)
    assert s.n_total == 3
    assert s.n_valid == 2
    assert s.threshold_m == 2.0


def test_all_solver_failures_leave_means_absent():
    trials = [TrialError(math.inf, math.inf, solver_succeeded=False)] * 4
    s = summarize(trials, 2.0)
    assert s.success_rate == 0.0
    assert s.mrre_deg is None
    assert s.mrte_m is None
    assert s.n_valid == 0
    assert s.n_total == 4


def test_rte_exactly_at_the_threshold_is_excluded():
    s = summarize([TrialError(1.0, 2.0)], 2.0)
    assert s.n_valid == 0
    assert s.success_rate == 0.0


def test_solver_failures_count_in_the_denominator_only():
    trials = [TrialError(1.0, 0.5), TrialError(0.0, 0.0, solver_succeeded=False)]
    s = summarize(trials, 2.0)
    assert s.success_rate == pytest.approx(0.5)
    assert s.mrte_m == pytest.approx(0.5)
    assert s.mrre_deg == pytest.approx(1.0)


def test_empty_trial_set_raises():
    with pytest.raises(EmptyTrialSet):
        summarize([], 1.0)


def test_nonpositive_threshold_rejected():
    with pytest.raises(ValueError):
        summarize([TrialError(1.0, 0.5)], 0.0)
    with pytest.raises(ValueError):
        summarize([TrialError(1.0, 0.5)], -1.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_non_finite_threshold_rejected(threshold):
    # a NaN threshold made every trial fail, an infinite one passed every
    # trial that produced a transform
    with pytest.raises(ValueError, match="positive and finite"):
        summarize([TrialError(1.0, 0.5)], threshold)


def test_summarize_accepts_any_iterable():
    s = summarize(iter([TrialError(1.0, 0.5)]), 2.0)
    assert isinstance(s, MetricSummary)
    assert s.n_total == 1


@settings(max_examples=100, deadline=None)
@given(
    rtes=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=30),
    lam_a=st.floats(0.01, 12.0, allow_nan=False),
    lam_b=st.floats(0.01, 12.0, allow_nan=False),
)
def test_success_rate_is_monotone_in_the_threshold(rtes, lam_a, lam_b):
    trials = [TrialError(0.0, r) for r in rtes]
    lo, hi = sorted((lam_a, lam_b))
    assert summarize(trials, lo).success_rate <= summarize(trials, hi).success_rate


@settings(max_examples=100, deadline=None)
@given(
    rtes=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=30),
    lam=st.floats(0.01, 12.0, allow_nan=False),
)
def test_mean_rte_is_below_the_threshold_when_defined(rtes, lam):
    trials = [TrialError(0.0, r) for r in rtes]
    s = summarize(trials, lam)
    if s.mrte_m is not None:
        assert s.mrte_m < lam
