"""Exact segmenter: cost oracles, the column recurrence, and the DP table."""

import cProfile
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpd import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    LaplaceKernel,
    LinearKernel,
    Segmentation,
    Signal,
    SumKernel,
    cost_columns,
    kernseg_exact,
    nystrom_embed,
    segment_cost_direct,
)
from kcpd import _dp_core
from kcpd.exact_dp import kernseg_table_bytes

from conftest import (
    _direct_cost_table,
    best_by_enumeration,
    direct_cost_matrix,
    loss_table,
    naive_dp,
    quiet_collector,
    random_signal,
)

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


def _columns(sig, spec, ell=1):
    # the diagonal as kernseg_exact passes it, a view for unit diagonals
    return cost_columns(sig, spec, spec.diag(sig.data), ell)


def test_column_state_matches_direct_costs(rng):
    for spec in KERNELS:
        n = int(rng.integers(20, 60))
        sig = Signal(random_signal(rng, n, q=2))
        C = direct_cost_matrix(sig, spec)
        for e, col in _columns(sig, spec):
            assert col.shape == (e,)
            assert _rel_err(col, C[:e, e]).max() <= 1e-8
            # the generator and the sweep share one recurrence, bit for bit
            assert col[0] == kernseg_exact(Signal(sig.data[:e]), spec, 1).loss(1)
        assert e == n


def test_column_state_constant_signal_zero_costs():
    sig = Signal(np.full(25, 3.25))
    for _, col in _columns(sig, LinearKernel()):
        np.testing.assert_allclose(col, 0.0, atol=1e-10)


def test_column_state_two_points_identity(rng):
    for spec in KERNELS:
        x = rng.normal(size=(2, 1))
        k11 = spec.pair(x[0], x[0])
        k22 = spec.pair(x[1], x[1])
        k12 = spec.pair(x[0], x[1])
        (_, col), = _columns(Signal(x), spec, 2)
        want = k11 + k22 - 0.5 * (k11 + k22 + 2 * k12)
        assert col[0] == pytest.approx(want, abs=1e-12)


def test_column_state_single_point_cost_is_exactly_zero(rng):
    sig = Signal(rng.normal(size=40))
    for e, col in _columns(sig, GaussianKernel(1.0)):
        assert col[e - 1] == 0.0


def test_cost_columns_are_views_of_one_scratch(rng):
    # the columns view n + 1 floats from a 64-byte boundary on, in a buffer
    # of n + 8; A and comp swap names each step and stay the same two
    # arrays of n floats, each from a 64-byte boundary on too
    n = 40
    sig = Signal(random_signal(rng, n, q=2))
    for spec in KERNELS:
        for ell in (1, 3):
            scratch, pairs = None, set()
            columns = _columns(sig, spec, ell)
            for e, col in columns:
                if scratch is None:
                    scratch, start = col.base, col.ctypes.data
                assert col.base is scratch
                assert col.ctypes.data == start and col.shape == (e - ell + 1,)
                work = [columns.gi_frame.f_locals[name] for name in ("A", "comp")]
                pairs.add(frozenset(map(id, work)))
                assert all(a.shape == (n,) and a.ctypes.data % 64 == 0 for a in work)
            assert scratch.shape == (n + 8,) and scratch.dtype == np.float64
            assert start % 64 == 0 and 0 <= start - scratch.ctypes.data <= 56
            assert len(pairs) == 1 and len(next(iter(pairs))) == 2


def _reference_advance(A, comp, diag, kcol, e, compensate=True):
    # the update in its plain form, with temporaries; compensated unless
    # the Kahan step's effect is under test
    if compensate:
        y = 2.0 * kcol[:e] - comp[:e]
        t = A[:e] + y
        comp[:e] = (t - A[:e]) - y
        A[:e] = t
    else:
        A[:e] += 2.0 * kcol[:e]
    A[e], comp[e] = diag[e], 0.0


def _reference_cost_column(A, diag, e, ell):
    hi = e - ell + 1
    acc_a = np.cumsum(A[e - 1 :: -1])
    acc_d = np.cumsum(diag[e - 1 :: -1])
    lens = np.arange(e, e - hi, -1, dtype=np.float64)
    return acc_d[e - hi : e][::-1] - acc_a[e - hi : e][::-1] / lens


def _reference_columns(X, spec, ell, compensate=True):
    n = len(X)
    diag = spec.diag(X)
    A, comp = np.zeros(n), np.zeros(n)
    A[0] = diag[0]
    fn, kcol = spec.prefix_column_fn(X), np.empty(n)
    for e in range(1, n + 1):
        if e > 1:
            fn(e - 1, kcol)
            _reference_advance(A, comp, diag, kcol, e - 1, compensate)
        if e >= ell:
            yield e, _reference_cost_column(A, diag, e, ell)


@pytest.mark.parametrize("spec, unit", [
    (GaussianKernel(1.0), True),
    (LaplaceKernel(0.7), True),
    (SumKernel((((0, 1), GaussianKernel(2.0)),)), True),
    (EnergyKernel(1.0), False),
    (EnergyKernel(0.5, (0.3, -0.2)), False),
    (LinearKernel(), False),
    (ExponentialKernel(4.0), False),
    (SumKernel((((0,), GaussianKernel(1.0)), ((1,), LaplaceKernel(1.0)))), False),
])
def test_column_state_is_bitwise_the_reference_formulas(rng, spec, unit):
    X = random_signal(rng, 50, q=2)
    # both branches of the unit-diagonal shortcut are covered
    assert bool((spec.diag(X) == 1.0).all()) is unit
    for ell in range(1, 6):
        want = _reference_columns(X, spec, ell)
        for (e, got), (e_ref, ref) in zip(_columns(Signal(X), spec, ell), want, strict=True):
            assert e == e_ref
            assert got.tobytes() == ref.tobytes()


def test_kahan_compensation_is_pinned():
    # on this input an uncompensated A += 2 k rounds differently from
    # column 4 on; the generator yields the compensated columns
    X = np.arange(8.0).reshape(-1, 1) / 4
    spec = GaussianKernel(1.0)
    got = [col.tobytes() for _, col in _columns(Signal(X), spec)]
    assert got == [c.tobytes() for _, c in _reference_columns(X, spec, 1)]
    assert got != [c.tobytes() for _, c in _reference_columns(X, spec, 1, compensate=False)]


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
    assert res.backtrack(1).starts == (1,)


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


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    q=st.sampled_from([1, 2, 9]),
    family=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_equals_naive_and_enumeration(n, q, family, seed):
    # an oracle independent of the column recurrence: explicit Gram blocks
    spec = [
        LinearKernel(),
        GaussianKernel(1.0),
        LaplaceKernel(1.0),
        ExponentialKernel(4.0),
        EnergyKernel(1.0),
        SumKernel.per_coordinate(([LaplaceKernel(1.0), EnergyKernel(0.5)] * q)[:q]),
    ][family]
    sig = Signal(random_signal(np.random.default_rng(seed), n, q=q))
    dmax = min(n, 6)
    got = kernseg_exact(sig, spec, dmax).losses()
    assert _rel_err(got, naive_dp(sig, spec, dmax).losses()).max() <= 1e-9
    want = [best_by_enumeration(sig, spec, d)[0] for d in range(1, dmax + 1)]
    assert _rel_err(got, np.array(want)).max() <= 1e-9


def test_naive_monotone(rng):
    sig = Signal(random_signal(rng, 40))
    res = naive_dp(sig, GaussianKernel(1.0), dmax=12)
    losses = res.losses()
    assert np.all(np.diff(losses) <= 1e-9 * np.maximum(np.abs(losses[:-1]), 1.0))


# ---------------------------------------------------------------------------
# table memory accounting


def test_table_allocation_within_budget(rng):
    # the last case prunes, so its candidate lists count at their cap; the
    # column work's three aligned arrays count 7 spare floats each
    for dmax, n in ((1, 30), (2, 40), (3, 25), (10, 120), (20, 400)):
        sig = Signal(random_signal(rng, n))
        res = kernseg_exact(sig, GaussianKernel(1.0), dmax=dmax)
        assert res.table_numbers <= 2 * dmax * (n + 1) + 3 * (n + 1) + 3 * 7


def _sweep_case(case):
    """(signal, kernel, dmax, ell) of the sweeps whose memory is checked."""
    if case == "pruned-mean":
        rng = np.random.default_rng(4000)
        x = rng.normal(size=4000) + np.repeat(rng.uniform(-4, 4, 8), 500)
        return Signal(x), GaussianKernel(1.0), 100, 1
    if case == "dense-exponential":
        rng = np.random.default_rng(7)
        x = np.repeat(rng.uniform(-2, 2, 8), 500) + 0.3 * rng.normal(size=4000)
        return Signal(x), ExponentialKernel(4.0), 100, 1
    if case == "lists-compact":
        # list mode throughout, its lists compacted every 35 columns
        rng = np.random.default_rng(7)
        x = rng.normal(size=3000) + np.repeat(rng.uniform(-4, 4, 6), 500)
        return Signal(x), GaussianKernel(1.0), 60, 20
    if case == "lists-fallback":
        # rounded noise whose costs sit below the pruning margin prunes
        # nothing: the lists reach their cap and the sweep ends dense
        rng = np.random.default_rng(5)
        return Signal(np.round(rng.normal(size=3000)) * 1e-7), GaussianKernel(1.0), 100, 10
    # lists up to column 900, then dense (as in PINNED_CELLS)
    rng = np.random.default_rng(3000)
    x = rng.normal(size=(3000, 2)) * np.repeat(rng.uniform(0.5, 3.0, (10, 2)), 300, axis=0)
    return Signal(x), LaplaceKernel(1.0), 12, 30


def _traced_sweep(case, column=None):
    """Run a _sweep_case under tracemalloc; returns (its peak, its Snip,
    its result).

    ``column(snip, run)`` stands in for each Snip.minimize call when given,
    with ``run()`` making the call."""
    sig, spec, dmax, ell = _sweep_case(case)
    snips, minimize = [], _dp_core.Snip.minimize

    class Traced(_dp_core.Snip):
        def __init__(self, *args):
            super().__init__(*args)
            snips.append(self)

        def minimize(self, *args):
            run = lambda: minimize(self, *args)  # noqa: E731
            return run() if column is None else column(self, run)

    tracemalloc.start()
    try:
        with mock.patch.object(_dp_core, "Snip", Traced):
            res = kernseg_exact(sig, spec, dmax, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, snips[0], res


def _allowance(res):
    # the tables the sweep counts plus four columns of temporaries (row 1's
    # candidates, the cost column's lengths and suffix sums, a kernel
    # column's work, or list mode's block and chunk temporaries)
    return res.table_numbers * 8 + 4 * 8 * (res.n + 1)


@pytest.mark.parametrize("spec, q", [(GaussianKernel(1.0), 1), (LaplaceKernel(0.7), 2)],
                         ids=["gaussian", "laplace-2d"])
def test_unit_diagonal_sweep_holds_no_diagonal(rng, spec, q):
    # the unit diagonal is a read-only view of one float with today's values
    n, dmax = 8000, 4
    sig = Signal(rng.normal(size=(n, q)) + np.repeat(rng.uniform(-2, 2, (4, q)), n // 4, axis=0))
    d = spec.diag(sig.data)
    assert d.dtype == np.float64 and not d.flags.writeable
    assert d.tobytes() == np.ones(n).tobytes() and float(d.sum()) == float(n)
    # the same kernel with its diagonal held as n floats: that array lives
    # through the whole sweep, so it lifts the peak by n floats, and
    # nothing else changes
    held = type("Held" + type(spec).__name__, (type(spec),),
                {"diag": lambda self, X: np.ones(X.shape[0])})(spec.delta)
    runs = []
    for s in (spec, held):
        taus = []

        class Recorded(_dp_core.Snip):
            def __init__(self, *args):
                super().__init__(*args)
                taus.append(self.tau)

        with mock.patch.object(_dp_core, "Snip", Recorded), quiet_collector():
            kernseg_exact(sig, s, dmax)  # first-call allocations stay out
            tracemalloc.start()
            try:
                res = kernseg_exact(sig, s, dmax)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        runs.append((peak, taus[-1], res))
    (peak, tau, res), (held_peak, held_tau, held_res) = runs
    assert held_peak - peak >= 6 * n
    assert tau == held_tau
    _assert_same_tables(res, held_res, sig, spec)
    assert (res.cells_scanned, res.table_numbers) == (held_res.cells_scanned, held_res.table_numbers)


@pytest.mark.parametrize(
    "case", ["pruned-mean", "dense-exponential", "laplace-2d", "lists-compact", "lists-fallback"])
def test_sweep_peak_within_counted_tables(case):
    # the traced peak of a whole sweep, within the tables it counts. A sweep
    # that keeps its lists holds and counts row 0 and a window of the other
    # rows of the loss table, so its peak stays below the whole loss table
    # alone; the others hold and count the whole table.
    sig, spec, dmax, ell = _sweep_case(case)
    n = sig.n
    peak, snip, res = _traced_sweep(case)
    assert peak <= _allowance(res)
    whole = kernseg_table_bytes(n, dmax, spec.psd)
    if case in ("pruned-mean", "lists-compact"):
        assert snip.lists and snip.windowed()
        width = _dp_core.Snip.window_width(n, dmax, ell, True)
        assert snip.L.shape == (dmax, width) and snip.L0.shape == (n + 1,)
        assert res.table_numbers * 8 == whole - 8 * dmax * (n + 1) + 8 * (n + 1 + dmax * width) < whole
        assert peak < 8 * dmax * (n + 1)
    else:
        assert not snip.lists and not snip.windowed()
        assert res.table_numbers * 8 == whole


@pytest.mark.parametrize("case", ["lists-compact", "lists-fallback"])
def test_list_columns_peak_within_counted_tables(case):
    # each list-mode column's traced peak, compactions included; the
    # record is three numbers updated in place, so it adds nothing that
    # grows with the sweep
    worst = {"peak": 0, "compactions": 0, "share": 0.0}

    def column(snip, run):
        if not snip.lists:
            return run()
        tail, share = snip.tail, snip.cs.size / snip.cap
        tracemalloc.reset_peak()
        run()
        worst["peak"] = max(worst["peak"], tracemalloc.get_traced_memory()[1])
        worst["compactions"] += not snip.lists or snip.tail != tail
        worst["share"] = max(worst["share"], share)

    res = _traced_sweep(case, column)[2]
    assert worst["compactions"] > 10
    # the second case holds its lists near their cap
    assert worst["share"] > (0.9 if case == "lists-fallback" else 0.05)
    assert worst["peak"] <= _allowance(res)


@pytest.mark.parametrize("case", ["lists-compact", "lists-fallback"])
def test_list_layout_after_each_compaction(case):
    # row-ordered lists: each row's starts strictly increase and lie in
    # [ell, tail), the rows' counts and offsets tile the lists, no start is
    # flagged yet, and the lists stay within their cap
    ell = _sweep_case(case)[3]
    tails = []

    def column(snip, run):
        tail = snip.tail
        run()
        if not snip.lists or snip.tail == tail:
            return
        cs, st, cnt = snip.cs, snip.st, snip.cnt
        assert cnt.min() >= 1 and cnt.sum() == cs.size <= snip.cap
        assert np.array_equal(st, np.cumsum(cnt) - cnt)
        assert not snip.gone.any() and snip.gone.size == cs.size
        assert cs.min() >= ell and cs.max() < snip.tail
        step = np.diff(cs)
        step[st[1:] - 1] = 1  # a row's first start follows the previous row's last
        assert step.min() >= 1
        tails.append(snip.tail)

    _traced_sweep(case, column)
    assert len(tails) > 10


@pytest.mark.parametrize("case", ["dense-exponential", "laplace-2d"])
def test_dense_sweep_makes_its_row_buffer_once(case):
    # one buffer of n + 1 floats, from a 64-byte boundary on, serves every
    # dense column; a PSD sweep has none while it holds its lists (the second
    # case leaves them mid-sweep)
    n = _sweep_case(case)[0].n
    bufs, list_columns = [], 0

    def column(snip, run):
        nonlocal list_columns
        run()
        if snip.lists:
            assert snip.row is None
            list_columns += 1
        else:
            bufs.append(snip.row)

    _traced_sweep(case, column)
    assert len(bufs) > 1000 and (list_columns > 0) == (case == "laplace-2d")
    assert bufs[0].dtype == np.float64 and bufs[0].shape == (n + 1,)
    assert bufs[0].ctypes.data % 64 == 0
    assert all(buf is bufs[0] for buf in bufs)


def test_sweep_runs_under_a_profiler():
    # a profiler's references to the minimiser's arrays must not stop a
    # sweep, nor change its tables
    rng = np.random.default_rng(3)
    sig = Signal(rng.normal(size=300) + np.repeat(rng.uniform(-3, 3, 6), 50))
    profiled = cProfile.Profile().runcall(kernseg_exact, sig, GaussianKernel(1.0), 10)
    _assert_same_tables(profiled, kernseg_exact(sig, GaussianKernel(1.0), 10), sig, GaussianKernel(1.0))


def test_back_pointer_dtype_fits_n():
    # back-pointers hold starts 0..n: 16 bits up to n = 65535, 32 above
    for n, dtype in ((65535, np.uint16), (65536, np.int32)):
        assert _dp_core.back_dtype(n) == dtype
        for dmax, psd in ((2, False), (3, True), (100, True), (100, False)):
            # the column work's three arrays each with 7 spare floats
            rest = 8 * dmax * (n + 1) + 8 * (4 * n + 1 + 21) + _dp_core.Snip.table_bytes(n, dmax, psd)
            back = kernseg_table_bytes(n, dmax, psd) - rest
            # no row for D = 1, which has no start to hold
            assert back == np.dtype(dtype).itemsize * (dmax - 1) * (n + 1)


def test_minimiser_counts_its_row_and_lists():
    # the dense rows' buffer, n + 1 floats when dmax > 2; a PSD sweep counts
    # the larger of it and the lists' cap of 30 bytes for each of a tenth of
    # the cells of rows 2..
    sizes = [(n, dmax) for n in range(1, 400) for dmax in range(1, min(n, 59) + 1)]
    sizes += [(n, dmax) for n in (1000, 8000, 12000, 65535, 65536, 100000) for dmax in range(1, 200)]
    for n, dmax in sizes:
        row = 8 * (n + 1) if dmax > 2 else 0
        assert _dp_core.Snip.table_bytes(n, dmax, False) == row
        lists = 30 * (max(dmax - 2, 0) * (n + 1) // 10)
        assert _dp_core.Snip.table_bytes(n, dmax, True) == max(row, lists)
        # list mode holds rows 1.. of the loss table as a window where that
        # and row 0 take fewer losses than the whole table; no lists, no window
        for ell in (1, 7, 30):
            period = 15 + ell
            width = max(period + ell, -(-3 * ell // period) * period - ell + 1)
            held = width if dmax > 2 and n + 1 + dmax * width < dmax * (n + 1) else n + 1
            assert _dp_core.Snip.window_width(n, dmax, ell, dmax > 2) == held
            assert _dp_core.Snip.window_width(n, dmax, ell, False) == n + 1
    # the benchmark's shapes: 17 columns at ell = 1, 75 at ell = 30
    assert _dp_core.Snip.window_width(8000, 100, 1, True) == 17
    assert _dp_core.Snip.window_width(12000, 12, 30, True) == 75


def test_small_sweep_backtracks_like_naive(rng):
    sig = Signal(random_signal(rng, 60))
    for spec in KERNELS:
        res = kernseg_exact(sig, spec, dmax=12)
        ref = naive_dp(sig, spec, dmax=12)
        assert res._back.dtype == np.uint16 and ref._back.dtype == np.uint16
        for d in range(1, 13):
            assert res.backtrack(d) == ref.backtrack(d)


def test_result_arrays_read_only(rng):
    sig = Signal(random_signal(rng, 20))
    res = kernseg_exact(sig, GaussianKernel(1.0), dmax=4)
    # the result keeps the table's last column, read-only like back
    assert loss_table(res, _columns(sig, GaussianKernel(1.0)))[:, 20].tobytes() == res.losses().tobytes()
    with pytest.raises(ValueError):
        res._losses[0] = 1.0
    with pytest.raises(ValueError):
        res._back[0, 20] = 0


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


def _assert_same_tables(a, b, sig, spec, ell=1):
    # the same back-pointers, and the whole loss table they rebuild from the
    # cost columns has both sweeps' kept losses as its last column
    assert np.array_equal(a._back, b._back)
    table = loss_table(a, _columns(sig, spec, ell))
    assert table[:, sig.n].tobytes() == a.losses().tobytes() == b.losses().tobytes()


# Forced switches from the candidate lists to the dense scan: compact every
# few columns with a cap of every cell ("eager", which never falls back) or
# of none ("thrash", which falls back at its first compaction).
SWITCHES = {
    "builtin": {"_PERIOD": _dp_core._PERIOD, "_LEAVE": _dp_core._LEAVE},
    "eager": {"_PERIOD": 3, "_LEAVE": 1},
    "thrash": {"_PERIOD": 3, "_LEAVE": 10**9},
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

    At n <= 60 the built-in period rarely compacts the lists, so the sweep
    also runs with forced switches (SWITCHES). Rounded data makes exact
    ties, which the smallest start must win.
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
    _assert_same_tables(pruned, dense, sig, family, ell)
    assert dense.cells_scanned == _full_cells(n, dmax, ell)
    assert pruned.cells_scanned <= dense.cells_scanned


@pytest.mark.parametrize("switch", ["builtin", "eager", "thrash"])
def test_forced_switches_keep_tables_bitwise(switch):
    # longer signals and floors than the property test: a start flagged at a
    # check may still win for ell - 1 columns
    rng = np.random.default_rng(31)
    families = [GaussianKernel(1.0), LaplaceKernel(1.0), LinearKernel(), EnergyKernel(1.0)]
    for trial in range(100):
        spec = families[trial % 4]
        n = int(rng.integers(60, 160))
        ell = int(rng.integers(1, 7))
        dmax = min(int(rng.integers(3, 16)), n // ell)
        x = rng.normal(size=n)
        for _ in range(int(rng.integers(1, 8))):
            x[int(rng.integers(1, n)) :] += rng.normal(0, 3)
        if trial % 5 == 0:
            x = np.round(x)
        dense = kernseg_exact(Signal(x), _dense_twin(spec), dmax, ell)
        with mock.patch.multiple(_dp_core, **SWITCHES[switch]):
            pruned = kernseg_exact(Signal(x), spec, dmax, ell)
        _assert_same_tables(pruned, dense, Signal(x), spec, ell)


SEAM_FAMILIES = [LinearKernel(), GaussianKernel(1.0), LaplaceKernel(1.0), ExponentialKernel(4.0),
                 EnergyKernel(1.0)]


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("family", range(len(SEAM_FAMILIES)),
                         ids=[type(spec).__name__ for spec in SEAM_FAMILIES])
def test_column_step_on_direct_costs_is_naive_dp(family, q):
    # the minimiser alone, fed the explicit Gram table's cost columns: dense,
    # and for PSD kernels pruned with the built-in and the eager switch
    # (at n <= 90 the built-in one leaves the lists at its first
    # compaction). Where kernseg_exact and naive_dp differ, the difference
    # lies in the costs.
    spec = SEAM_FAMILIES[family]
    runs = [(False, "builtin")] + ([(True, "builtin"), (True, "eager")] if spec.psd else [])
    rng = np.random.default_rng([family, q])
    pruned = 0
    for _ in range(30):
        n = int(rng.integers(5, 91))
        sig = Signal(random_signal(rng, n, q=q))
        dmax = int(rng.integers(2, min(n, 12) + 1))
        want = naive_dp(sig, spec, dmax)
        C = _direct_cost_table(sig, spec)
        # naive_dp's whole table, rebuilt from its back-pointers
        table = loss_table(want, ((e, C[:e, e]) for e in range(1, n + 1)))
        assert table[:, n].tobytes() == want.losses().tobytes()
        for prune, switch in runs:
            back = np.zeros((dmax - 1, n + 1), dtype=_dp_core.back_dtype(n))
            with mock.patch.multiple(_dp_core, **SWITCHES[switch]):
                snip = _dp_core.Snip(n, dmax, 1, float(spec.diag(sig.data).sum()), prune)
                for e in range(1, n + 1):
                    _dp_core.column_step(back, C[:e, e].copy(), e, 1, dmax, snip)
            assert back.tobytes() == want._back.tobytes()
            assert snip.column(n).tobytes() == table[:, n].tobytes()
            if not prune:
                dense = snip.scanned
            pruned += snip.scanned < dense
    assert pruned > 0 or not spec.psd


# candidates scanned over the sweep: dp_cells_scanned is part of the CLI's JSON
PINNED_CELLS = {1: 10023847, 5: 15630313, "2d-variance": 45230252}


@pytest.mark.parametrize("case", [1, 5, "2d-variance"])
def test_pruning_engages_on_mean_shifts(case):
    if case == "2d-variance":
        # lists up to column 900, then dense once they would pass their cap
        n, dmax, ell, share = 3000, 12, 30, 1.0
        rng = np.random.default_rng(3000)
        x = rng.normal(size=(n, 2)) * np.repeat(rng.uniform(0.5, 3.0, (10, 2)), n // 10, axis=0)
        spec = LaplaceKernel(1.0)
    else:
        n, dmax, ell, share = 2000, 50, case, 0.25
        rng = np.random.default_rng(2000 + ell)
        x = rng.normal(size=n) + np.repeat(rng.uniform(-4, 4, 8), n // 8)
        spec = GaussianKernel(1.0)
    pruned = kernseg_exact(Signal(x), spec, dmax, ell)
    dense = kernseg_exact(Signal(x), _dense_twin(spec), dmax, ell)
    _assert_same_tables(pruned, dense, Signal(x), spec, ell)
    assert pruned.cells_scanned <= share * _full_cells(n, dmax, ell)
    assert pruned.cells_scanned == PINNED_CELLS[case]


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
    _assert_same_tables(pruned, dense, sig, spec)
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


@pytest.mark.parametrize("engine, what",
                         [(kernseg_exact, "segment cost"), (nystrom_embed, "landmark Gram")],
                         ids=["kernseg_exact", "nystrom_embed"])
def test_both_engines_reject_an_overflowing_linear_kernel(engine, what):
    # k(x, x) = 1e400 overflows; no NaN loss and no numpy warning escapes
    sig = Signal([1e200, -1e200, 3e200, 2e200])
    with pytest.raises(ValueError, match=rf"LinearKernel\(\) gives a non-finite {what}"):
        engine(sig, LinearKernel(), 2)


@pytest.mark.parametrize("k", [420, 500])
@pytest.mark.parametrize("ell", [1, 4])
def test_huge_finite_losses_keep_the_whole_sweep(k, ell):
    # scaling by 2^k scales every cost by 2^(2k) exactly, so the sweep must
    # make the same choices; at 2^500 the losses pass 1e300 on their own
    x = np.concatenate([np.random.default_rng(1).normal(0.0, 1.0, 60),
                        np.random.default_rng(2).normal(5.0, 1.0, 60)])
    unit = kernseg_exact(Signal(x), LinearKernel(), 8, ell)
    big = kernseg_exact(Signal(x * 2.0**k), LinearKernel(), 8, ell)
    assert np.array_equal(big.losses(), unit.losses() * 2.0**(2 * k))
    assert [big.backtrack(d) for d in range(1, 9)] == [unit.backtrack(d) for d in range(1, 9)]
    assert big.cells_scanned == unit.cells_scanned
