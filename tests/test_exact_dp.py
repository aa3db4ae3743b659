"""Exact segmenter: cost oracles, the column recurrence, and the DP table."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpd import (
    CostColumnState,
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    LaplaceKernel,
    LinearKernel,
    Segmentation,
    Signal,
    SumKernel,
    advance_column,
    backtrack,
    kernseg_exact,
    naive_dp,
    segment_cost_direct,
)
from kcpd import _dp_core

from conftest import best_by_enumeration, direct_cost_matrix, random_signal

KERNELS = [
    LinearKernel(),
    GaussianKernel(1.0),
    LaplaceKernel(1.0),
    EnergyKernel(1.0),
]


# ---------------------------------------------------------------------------
# direct segment cost


def test_direct_cost_single_point_is_zero(rng):
    sig = Signal(rng.normal(size=(10, 2)))
    for spec in KERNELS:
        for s in range(10):
            assert segment_cost_direct(sig, spec, s, s + 1) == 0.0


def test_direct_cost_linear_is_sum_of_squared_deviations():
    sig = Signal([0.0, 2.0])
    assert segment_cost_direct(sig, LinearKernel(), 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_direct_cost_gaussian_two_points():
    sig = Signal([0.0, 1.0])
    want = 1.0 - math.exp(-1.0)
    assert segment_cost_direct(sig, GaussianKernel(1.0), 0, 2) == pytest.approx(want, rel=1e-12)


def test_direct_cost_linear_equals_variance_identity(rng):
    x = rng.normal(size=17)
    sig = Signal(x)
    want = ((x - x.mean()) ** 2).sum()
    assert segment_cost_direct(sig, LinearKernel(), 0, 17) == pytest.approx(want, rel=1e-10)


def test_direct_cost_bounds():
    sig = Signal([1.0, 2.0])
    with pytest.raises(IndexError):
        segment_cost_direct(sig, LinearKernel(), 0, 3)
    with pytest.raises(IndexError):
        segment_cost_direct(sig, LinearKernel(), 1, 1)


# ---------------------------------------------------------------------------
# column recurrence


def _rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-9)
    return np.abs(a - b) / scale


def test_column_state_matches_direct_costs(rng):
    for spec in KERNELS:
        n = int(rng.integers(20, 60))
        sig = Signal(random_signal(rng, n, q=2))
        C = direct_cost_matrix(sig, spec)
        state = CostColumnState.initial(sig, spec)
        for e in range(1, n + 1):
            if e > 1:
                advance_column(state)
            col = state.cost_column()
            assert col.shape == (e,)
            assert _rel_err(col, C[:e, e]).max() <= 1e-8
            # the state and the sweep share one recurrence, bit for bit
            assert col[0] == kernseg_exact(Signal(sig.data[:e]), spec, 1).loss(1)


def test_column_state_constant_signal_zero_costs():
    sig = Signal(np.full(25, 3.25))
    state = CostColumnState.initial(sig, LinearKernel())
    for e in range(1, 26):
        if e > 1:
            advance_column(state)
        np.testing.assert_allclose(state.cost_column(), 0.0, atol=1e-10)


def test_column_state_two_points_identity(rng):
    for spec in KERNELS:
        x = rng.normal(size=(2, 1))
        sig = Signal(x)
        k11 = spec.pair(x[0], x[0])
        k22 = spec.pair(x[1], x[1])
        k12 = spec.pair(x[0], x[1])
        state = CostColumnState.initial(sig, spec)
        advance_column(state)
        want = k11 + k22 - 0.5 * (k11 + k22 + 2 * k12)
        assert state.cost(0) == pytest.approx(want, abs=1e-12)


def test_column_state_single_point_cost_is_exactly_zero(rng):
    sig = Signal(rng.normal(size=40))
    state = CostColumnState.initial(sig, GaussianKernel(1.0))
    for e in range(1, 41):
        if e > 1:
            advance_column(state)
        assert state.cost_column()[e - 1] == 0.0


def test_advance_past_end_rejected():
    state = CostColumnState.initial(Signal([1.0, 2.0]), LinearKernel())
    advance_column(state)
    with pytest.raises(IndexError):
        advance_column(state)


# ---------------------------------------------------------------------------
# exact dynamic programming


def test_perfect_two_segment_fit():
    res = kernseg_exact(Signal([0, 0, 0, 5, 5, 5]), LinearKernel(), dmax=2)
    assert res.loss(2) == pytest.approx(0.0, abs=1e-12)
    assert res.backtrack(2).starts == (1, 4)


def test_enumeration_oracle_small(rng):
    for spec in KERNELS:
        n = int(rng.integers(6, 13))
        sig = Signal(random_signal(rng, n))
        for ell in (1, 2):
            dmax = min(4, n // ell)
            res = kernseg_exact(sig, spec, dmax, ell)
            for d in range(1, dmax + 1):
                want, want_starts = best_by_enumeration(sig, spec, d, ell)
                got = res.loss(d)
                assert _rel_err(np.array(got), np.array(want)) <= 1e-9
                got_starts = tuple(s - 1 for s in res.backtrack(d).starts)
                assert got_starts == want_starts


def test_min_length_constraint_honored(rng):
    sig = Signal(random_signal(rng, 30))
    for ell in (2, 3, 5):
        res = kernseg_exact(sig, GaussianKernel(1.0), dmax=30 // ell, ell=ell)
        for d in range(1, 30 // ell + 1):
            seg = res.backtrack(d)
            assert seg.d == d
            assert min(seg.lengths()) >= ell


def test_unconstrained_equals_ell_one(rng):
    sig = Signal(random_signal(rng, 40))
    a = kernseg_exact(sig, GaussianKernel(1.0), dmax=6)
    b = kernseg_exact(sig, GaussianKernel(1.0), dmax=6, ell=1)
    np.testing.assert_array_equal(a.losses(), b.losses())
    for d in range(1, 7):
        assert a.backtrack(d) == b.backtrack(d)


def test_losses_non_increasing(rng):
    for spec in KERNELS:
        sig = Signal(random_signal(rng, 50))
        res = kernseg_exact(sig, spec, dmax=10)
        losses = res.losses()
        assert np.all(np.diff(losses) <= 1e-9 * np.maximum(np.abs(losses[:-1]), 1.0))


def test_backtracked_loss_matches_table(rng):
    for spec in KERNELS:
        sig = Signal(random_signal(rng, 35, q=2))
        res = kernseg_exact(sig, spec, dmax=7)
        for d in range(1, 8):
            seg = res.backtrack(d)
            recomputed = sum(segment_cost_direct(sig, spec, s, e) for s, e in seg.bounds())
            assert _rel_err(np.array(recomputed), np.array(res.loss(d))) <= 1e-9


def test_backtrack_single_segment(rng):
    sig = Signal(random_signal(rng, 15))
    res = kernseg_exact(sig, GaussianKernel(1.0), dmax=3)
    assert backtrack(res, 1).starts == (1,)


def test_infeasible_arguments():
    sig = Signal(np.arange(10.0))
    with pytest.raises(ValueError):
        kernseg_exact(sig, LinearKernel(), dmax=0)
    with pytest.raises(ValueError):
        kernseg_exact(sig, LinearKernel(), dmax=3, ell=4)
    with pytest.raises(ValueError):
        kernseg_exact(sig, LinearKernel(), dmax=2, ell=0)
    res = kernseg_exact(sig, LinearKernel(), dmax=2, ell=5)
    with pytest.raises(ValueError):
        res.loss(3)


def _least_squares_dp(x, dmax):
    # independent mean-shift segmenter: prefix-sum costs, plain DP
    n = len(x)
    s1 = np.concatenate([[0.0], np.cumsum(x)])
    s2 = np.concatenate([[0.0], np.cumsum(x * x)])

    def sse(a, b):
        m = b - a
        return s2[b] - s2[a] - (s1[b] - s1[a]) ** 2 / m

    L = np.full((dmax + 1, n + 1), np.inf)
    for e in range(1, n + 1):
        L[1, e] = sse(0, e)
    for d in range(2, dmax + 1):
        for e in range(d, n + 1):
            L[d, e] = min(L[d - 1, s] + sse(s, e) for s in range(d - 1, e))
    return L[1:, n]


def test_linear_kernel_reduces_to_least_squares(rng):
    # mean-shift segmentation with the linear kernel is ordinary
    # least-squares segmentation of the raw signal
    x = random_signal(rng, 40)[:, 0]
    res = kernseg_exact(Signal(x), LinearKernel(), dmax=6)
    want = _least_squares_dp(x, 6)
    np.testing.assert_allclose(res.losses(), want, rtol=1e-9, atol=1e-9)


def test_sum_kernel_segmentation_matches_manual(rng):
    # joint two-track signal: sum kernel must equal kernel on each track added
    n = 14
    X = random_signal(rng, n, q=2)
    spec = SumKernel.per_coordinate([GaussianKernel(1.0), GaussianKernel(1.0)])
    res = kernseg_exact(Signal(X), spec, dmax=3)
    want, _ = best_by_enumeration(Signal(X), spec, 3)
    assert res.loss(3) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# baseline (precomputed cost table) segmenter


def test_naive_single_point():
    res = naive_dp(Signal([4.2]), GaussianKernel(1.0), dmax=1)
    assert res.loss(1) == pytest.approx(0.0, abs=1e-12)


def test_naive_matches_kernseg(rng):
    for spec in KERNELS:
        n = int(rng.integers(10, 80))
        sig = Signal(random_signal(rng, n))
        dmax = min(8, n)
        a = naive_dp(sig, spec, dmax)
        b = kernseg_exact(sig, spec, dmax)
        assert _rel_err(a.losses(), b.losses()).max() <= 1e-9


def test_naive_cap():
    with pytest.raises(ValueError):
        naive_dp(Signal(np.zeros(51)), LinearKernel(), dmax=2, max_n=50)


def test_naive_monotone(rng):
    sig = Signal(random_signal(rng, 40))
    res = naive_dp(sig, GaussianKernel(1.0), dmax=12)
    losses = res.losses()
    assert np.all(np.diff(losses) <= 1e-9 * np.maximum(np.abs(losses[:-1]), 1.0))


# ---------------------------------------------------------------------------
# table memory accounting


def test_table_allocation_within_budget(rng):
    # the last case prunes, so its candidate lists count at their cap
    for dmax, n in ((1, 30), (2, 40), (3, 25), (10, 120), (20, 400)):
        sig = Signal(random_signal(rng, n))
        res = kernseg_exact(sig, GaussianKernel(1.0), dmax=dmax)
        assert res.table_numbers <= 2 * dmax * (n + 1) + 3 * (n + 1)


def test_result_arrays_read_only(rng):
    res = kernseg_exact(Signal(random_signal(rng, 20)), GaussianKernel(1.0), dmax=4)
    with pytest.raises(ValueError):
        res._L[0, 0] = 1.0


# ---------------------------------------------------------------------------
# pruning of the minimisation: bitwise the dense tables


def _dense_twin(spec):
    """The same kernel with pruning off: a subclass that is not marked PSD."""
    return type("Dense" + type(spec).__name__, (type(spec),), {"psd": False})(
        **{f: getattr(spec, f) for f in spec.__dataclass_fields__}
    )


def _full_cells(n, dmax, ell):
    """(row, start) candidates of the dense minimisation over the sweep."""
    total = 0
    for e in range(ell, n + 1):
        d_hi = min(e // ell, dmax)
        width = e - 2 * ell + 1
        if d_hi >= 2 and width > 0:
            total += (d_hi - 1) * width
    return total


def _assert_same_tables(a, b):
    assert np.array_equal(a._L, b._L)
    assert a._back is None and b._back is None or np.array_equal(a._back, b._back)


# Forced switches between the dense slab and the candidate lists: probe and
# compact every few columns and switch to the lists at any survivor count;
# "eager" then never falls back, "thrash" falls back at every compaction.
SWITCHES = {
    "builtin": {"_PERIOD": _dp_core._PERIOD, "_ENTER": _dp_core._ENTER, "_LEAVE": _dp_core._LEAVE},
    "eager": {"_PERIOD": 3, "_ENTER": 1, "_LEAVE": 1},
    "thrash": {"_PERIOD": 3, "_ENTER": 1, "_LEAVE": 10**9},
}


PSD_FAMILIES = [
    LinearKernel(),
    GaussianKernel(1.0),
    LaplaceKernel(0.5),
    EnergyKernel(1.0),
    EnergyKernel(1.5, (0.3,)),
    SumKernel.per_coordinate([GaussianKernel(2.0)]),
]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    family=st.sampled_from(PSD_FAMILIES),
    ell=st.integers(1, 3),
    dmax_frac=st.floats(0.0, 1.0),
    scale_exp=st.integers(-3, 3),
    jumps=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-8.0, 8.0)), max_size=5),
    rounded=st.booleans(),
    switch=st.sampled_from(sorted(SWITCHES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_tables_equal_dense_bitwise(
    n, family, ell, dmax_frac, scale_exp, jumps, rounded, switch, seed
):
    """Pruned and dense sweeps give the same L and back, bit for bit.

    At n <= 60 the built-in switch rarely leaves the dense slab, so the
    sweep also runs with forced switches (SWITCHES). Rounded data makes
    exact ties, which the smallest start must win.
    """
    if n < ell:
        return
    dmax = 1 + int(dmax_frac * (n // ell - 1))
    x = np.random.default_rng(seed).normal(size=n)
    for where, size in jumps:
        x[int(where * (n - 1)) :] += size
    if rounded:
        x = np.round(x)
    sig = Signal(x * 10.0**scale_exp)
    dense = kernseg_exact(sig, _dense_twin(family), dmax, ell)
    with mock.patch.multiple(_dp_core, **SWITCHES[switch]):
        pruned = kernseg_exact(sig, family, dmax, ell)
    _assert_same_tables(pruned, dense)
    assert dense.cells_scanned == _full_cells(n, dmax, ell)
    assert pruned.cells_scanned <= dense.cells_scanned


@pytest.mark.parametrize("switch", ["eager", "thrash"])
def test_forced_switches_keep_tables_bitwise(switch):
    # longer floors than the property test: a start pruned at a probe or a
    # check may still win for ell - 1 columns
    rng = np.random.default_rng(31)
    families = [GaussianKernel(1.0), LaplaceKernel(1.0), LinearKernel(), EnergyKernel(1.0)]
    for trial in range(100):
        spec = families[trial % 4]
        n = int(rng.integers(60, 160))
        ell = int(rng.integers(2, 7))
        dmax = min(int(rng.integers(3, 16)), n // ell)
        x = rng.normal(size=n)
        for _ in range(int(rng.integers(1, 8))):
            x[int(rng.integers(1, n)) :] += rng.normal(0, 3)
        if trial % 5 == 0:
            x = np.round(x)
        dense = kernseg_exact(Signal(x), _dense_twin(spec), dmax, ell)
        with mock.patch.multiple(_dp_core, **SWITCHES[switch]):
            pruned = kernseg_exact(Signal(x), spec, dmax, ell)
        _assert_same_tables(pruned, dense)


@pytest.mark.parametrize("ell", [1, 5])
def test_pruning_engages_on_mean_shifts(ell):
    n, dmax = 2000, 50
    rng = np.random.default_rng(2000 + ell)
    x = rng.normal(size=n) + np.repeat(rng.uniform(-4, 4, 8), n // 8)
    spec = GaussianKernel(1.0)
    pruned = kernseg_exact(Signal(x), spec, dmax, ell)
    dense = kernseg_exact(Signal(x), _dense_twin(spec), dmax, ell)
    _assert_same_tables(pruned, dense)
    assert pruned.cells_scanned <= 0.25 * _full_cells(n, dmax, ell)


@pytest.mark.parametrize(
    "spec, scale, offset",
    [(GaussianKernel(1.0), 1e-7, 0.0), (LaplaceKernel(1.0), 1e-6, 0.0), (LinearKernel(), 1.0, 1e4)],
)
def test_pruning_is_exact_under_cancellation(spec, scale, offset):
    # costs far below the sums they are computed from: the pruning margin
    # must cover the rounding of those sums, not only a fraction of the loss
    rng = np.random.default_rng(11)
    x = rng.normal(size=300) + np.repeat(rng.normal(0, 3, 6), 50)
    sig = Signal(x * scale + offset)
    dense = kernseg_exact(sig, _dense_twin(spec), 30)
    with mock.patch.multiple(_dp_core, **SWITCHES["eager"]):
        pruned = kernseg_exact(sig, spec, 30)
    _assert_same_tables(pruned, dense)
    assert pruned.cells_scanned < dense.cells_scanned


@pytest.mark.parametrize(
    "spec",
    [ExponentialKernel(4.0), SumKernel.per_coordinate([GaussianKernel(1.0), ExponentialKernel(4.0)])],
)
def test_non_psd_kernels_scan_every_cell(spec):
    assert not spec.psd
    n, dmax = 400, 20
    rng = np.random.default_rng(7)
    x = np.repeat(rng.uniform(-2, 2, (8, 2)), n // 8, axis=0) + 0.1 * rng.normal(size=(n, 2))
    res = kernseg_exact(Signal(x), spec, dmax)
    assert res.cells_scanned == _full_cells(n, dmax, 1)


def test_overflowing_kernel_raises():
    x = np.tile([30.0, -30.0], 50)
    with pytest.raises(ValueError, match=r"ExponentialKernel\(delta=1\.0\).*column 2\b"):
        kernseg_exact(Signal(x), ExponentialKernel(1.0), dmax=5)
