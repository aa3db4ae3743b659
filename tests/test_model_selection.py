"""Counting, penalties, slope calibration, and the penalized argmin."""

import math

import numpy as np
import pytest

from kcpd import (
    PenaltySpec,
    count_segmentations,
    log_count_segmentations,
    penalty,
    select,
    slope_heuristic,
)
from kcpd import model_selection

from conftest import enumerate_start_tuples


def test_published_counts():
    assert count_segmentations(100, 10, 1) == 1_731_030_945_644
    assert count_segmentations(100, 10, 10) == 1
    assert count_segmentations(5, 2, 2) == 2


def test_count_matches_enumeration():
    for n in range(1, 16):
        for ell in range(1, 6):
            for d in range(1, n + 1):
                want = sum(1 for _ in enumerate_start_tuples(n, d, ell))
                assert count_segmentations(n, d, ell) == want, (n, d, ell)


def test_count_infeasible_zero():
    assert count_segmentations(9, 2, 5) == 0
    with pytest.raises(ValueError):
        count_segmentations(0, 1, 1)


def test_log_count_matches_exact():
    for n, d, ell in ((100, 10, 1), (50, 3, 4), (1000, 17, 30)):
        want = math.log(count_segmentations(n, d, ell))
        assert log_count_segmentations(n, d, ell) == pytest.approx(want, rel=1e-12)
    assert log_count_segmentations(9, 2, 5) == -math.inf
    # no overflow at extreme n
    assert math.isfinite(log_count_segmentations(10**9, 100, 30))


def test_penalty_basics():
    spec = PenaltySpec(c1=2.0, c2=3.0, n=100, dmax=10, ell=1)
    assert penalty(1, spec) == pytest.approx(2.0)
    spec10 = PenaltySpec(c1=1.5, c2=1.0, n=100, dmax=10, ell=10)
    assert penalty(10, spec10) == pytest.approx(15.0)  # single candidate: log 1 = 0
    assert penalty(11, spec10) == math.inf


def test_penalty_constants_must_be_finite_and_nonnegative():
    for c1, c2 in ((-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PenaltySpec(c1, c2, 100, 10)
    PenaltySpec(0.0, 0.0, 100, 10)


def test_penalty_ell_one_equals_unconstrained_form():
    spec = PenaltySpec(c1=0.7, c2=1.3, n=500, dmax=40, ell=1)
    for d in range(1, 41):
        direct = 0.7 * d + 1.3 * (
            math.lgamma(500) - math.lgamma(d) - math.lgamma(500 - d + 1) + math.lgamma(1)
        )
        # lgamma(n-1+1) - lgamma(d-1+1) - lgamma(n-d+1): same expression
        assert penalty(d, spec) == pytest.approx(direct, rel=1e-12)


def test_penalty_monotone_in_constants():
    base = PenaltySpec(c1=1.0, c2=1.0, n=200, dmax=20, ell=1)
    up1 = PenaltySpec(c1=2.0, c2=1.0, n=200, dmax=20, ell=1)
    up2 = PenaltySpec(c1=1.0, c2=2.0, n=200, dmax=20, ell=1)
    for d in range(2, 21):
        assert penalty(d, up1) > penalty(d, base)
        assert penalty(d, up2) > penalty(d, base)


def test_slope_heuristic_recovers_affine_plant():
    n, dmax, ell = 400, 24, 1
    a, b = 3.5, 0.8
    ds = np.arange(1, dmax + 1)
    logc = np.array([log_count_segmentations(n, int(d), ell) for d in ds])
    losses = 1000.0 - a * ds - b * logc
    fit = slope_heuristic(losses, n, ell)
    assert not fit.combined_fallback
    assert fit.c1 == pytest.approx(2 * a, rel=1e-9, abs=1e-9)
    assert fit.c2 == pytest.approx(2 * b, rel=1e-9, abs=1e-9)
    assert fit.window == (12, 24)
    assert np.abs(fit.residuals).max() <= 1e-6


def test_slope_heuristic_combined_fallback(monkeypatch):
    # every design is ill-conditioned at a zero limit: one slope for D + log N(D)
    monkeypatch.setattr(model_selection, "COND_LIMIT", 0.0)
    n, dmax, ell = 400, 24, 1
    a = 1.7
    ds = np.arange(1, dmax + 1)
    logc = np.array([log_count_segmentations(n, int(d), ell) for d in ds])
    losses = 1000.0 - a * (ds + logc)
    fit = slope_heuristic(losses, n, ell)
    assert fit.combined_fallback
    assert fit.c1 == fit.c2
    assert fit.c1 == pytest.approx(2 * a, rel=1e-9)
    assert np.abs(fit.residuals).max() <= 1e-6


def test_slope_heuristic_clamps_positive_slopes():
    n, dmax = 200, 12
    ds = np.arange(1, dmax + 1)
    logc = np.array([log_count_segmentations(n, int(d), 1) for d in ds])
    losses = 5.0 + 2.0 * ds + 3.0 * logc  # increasing in both regressors
    fit = slope_heuristic(losses, n, 1)
    assert fit.c1 == 0.0 and fit.c2 == 0.0


def test_slope_heuristic_needs_enough_points():
    with pytest.raises(ValueError):
        slope_heuristic(np.zeros(9), 100, 1)


def test_slope_scaling_covariance():
    rng = np.random.default_rng(3)
    n, dmax = 300, 20
    ds = np.arange(1, dmax + 1)
    logc = np.array([log_count_segmentations(n, int(d), 1) for d in ds])
    losses = 900.0 - 2.2 * ds - 0.4 * logc + rng.normal(0, 1e-3, dmax)
    f1 = slope_heuristic(losses, n, 1)
    f9 = slope_heuristic(9.0 * losses, n, 1)
    assert f9.c1 == pytest.approx(9 * f1.c1, rel=1e-9)
    assert f9.c2 == pytest.approx(9 * f1.c2, rel=1e-9)

    s1 = select(losses, PenaltySpec(f1.c1, f1.c2, n, dmax, 1))
    s9 = select(9.0 * losses, PenaltySpec(f9.c1, f9.c2, n, dmax, 1))
    assert s1.d_hat == s9.d_hat


def test_select_zero_penalty_takes_raw_argmin():
    n, dmax = 60, 6
    losses = np.array([50.0, 30.0, 20.0, 15.0, 12.0, 12.0])  # tie at the end
    spec = PenaltySpec(0.0, 0.0, n, dmax, 1)
    res = select(losses, spec)
    assert res.d_hat == 5  # smaller of the tied pair
    strictly = np.array([50.0, 30.0, 20.0, 15.0, 12.0, 11.0])
    assert select(strictly, spec).d_hat == 6


def test_select_huge_penalty_picks_one_segment():
    losses = np.array([100.0, 50.0, 25.0, 12.0])
    res = select(losses, PenaltySpec(1e12, 0.0, 50, 4, 1))
    assert res.d_hat == 1


def test_select_marginal_tradeoff_plant():
    # loss drops by 100 per extra segment until D=10, then by 1; a penalty
    # of 50 per segment should stop exactly at the elbow
    dmax, n = 15, 200
    losses = np.array([max(0, 10 - d) * 100.0 + d for d in range(1, dmax + 1)])
    spec = PenaltySpec(50.0, 0.0, n, dmax, 1)
    res = select(losses, spec)
    crit = losses + 50.0 * np.arange(1, dmax + 1)
    assert res.d_hat == int(np.argmin(crit)) + 1 == 10


def test_select_shift_invariance():
    n, dmax = 80, 8
    rngl = np.random.default_rng(5)
    losses = np.sort(rngl.uniform(0, 100, dmax))[::-1].copy()
    spec = PenaltySpec(3.0, 1.0, n, dmax, 1)
    a = select(losses, spec)
    b = select(losses + 123.4, spec)
    assert a.d_hat == b.d_hat


def test_penalty_spec_enforces_feasibility():
    with pytest.raises(ValueError):
        PenaltySpec(1.0, 1.0, n=10, dmax=5, ell=3)
    with pytest.raises(ValueError):
        PenaltySpec(-1.0, 1.0, n=10, dmax=2, ell=3)


def test_select_rejects_all_infinite_losses():
    spec = PenaltySpec(1.0, 1.0, n=9, dmax=3, ell=3)
    res = select(np.array([10.0, 5.0, math.inf]), spec)
    assert res.d_hat == 2
    with pytest.raises(ValueError):
        select(np.full(3, math.inf), spec)


def test_constrained_pipeline_identical_at_ell_one():
    n, dmax = 120, 15
    rngl = np.random.default_rng(11)
    losses = np.sort(rngl.uniform(0, 50, dmax))[::-1].copy()
    for d in range(1, dmax + 1):
        assert count_segmentations(n, d, 1) == math.comb(n - 1, d - 1)
        assert log_count_segmentations(n, d, 1) == log_count_segmentations(n, d, ell=1)
    f1 = slope_heuristic(losses, n, 1)
    s1 = select(losses, PenaltySpec(f1.c1, f1.c2, n, dmax, 1))
    f2 = slope_heuristic(losses, n, ell=1)
    s2 = select(losses, PenaltySpec(f2.c1, f2.c2, n, dmax, ell=1))
    assert (f1.c1, f1.c2) == (f2.c1, f2.c2)
    assert s1.d_hat == s2.d_hat
    np.testing.assert_array_equal(s1.criterion, s2.criterion)
