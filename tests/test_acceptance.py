"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The scaling criterion exercises n = 100000 and dominates
the runtime of the suite.
"""

import math
import time

import numpy as np
import pytest

from kcpd import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    LaplaceKernel,
    LinearKernel,
    PenaltySpec,
    Segmentation,
    Signal,
    SumKernel,
    count_segmentations,
    cost_columns,
    best_split,
    binary_segmentation,
    empirical_mmd_sq,
    energy_distance,
    equally_spaced_changes,
    frobenius_distance,
    generate,
    kernseg_exact,
    mad_scale,
    mean_shift_specs,
    membership_norm_sq,
    nystrom_embed,
    NormalPiece,
    select,
    slope_heuristic,
)
from kcpd.cli import run_bench

from conftest import (
    best_by_enumeration,
    dense_membership,
    direct_cost_matrix,
    full_width_features,
    loss_table,
    naive_dp,
    random_signal,
)

FAMILIES = [
    LinearKernel(),
    GaussianKernel(1.0),
    LaplaceKernel(1.0),
    ExponentialKernel(4.0),
    EnergyKernel(1.0),
    SumKernel.per_coordinate([GaussianKernel(1.0), LinearKernel()]),
]


@pytest.fixture
def report(capsys):
    """Print one pass line per criterion past pytest's output capture."""

    def _report(label, detail=""):
        with capsys.disabled():
            print(f"PASS {label} {detail}".rstrip(), flush=True)

    return _report


def _rel(a, b, floor=1e-9):
    return abs(a - b) / max(abs(a), abs(b), floor)


def test_criterion_01_exact_segmentation_counts(report):
    """Counting: pinned values, exact integers, under a millisecond."""
    t0 = time.perf_counter()
    unconstrained = count_segmentations(100, 10, 1)
    constrained = count_segmentations(100, 10, 10)
    elapsed = time.perf_counter() - t0
    assert unconstrained == 1_731_030_945_644
    assert constrained == 1
    assert isinstance(unconstrained, int)
    assert elapsed < 1e-3
    report("criterion 1: segmentation counts", f"({elapsed * 1e6:.0f} us)")


def test_criterion_02_bruteforce_oracle_suite(report):
    """Exhaustive enumeration agreement for n <= 12, every family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for seed in range(200):
        n = int(rng.integers(4, 13))
        sig = Signal(random_signal(rng, n, q=2))
        for spec in FAMILIES:
            for ell in (1, 2):
                dmax = min(4, n // ell)
                if dmax < 1:
                    continue
                res = kernseg_exact(sig, spec, dmax, ell)
                for d in range(1, dmax + 1):
                    want, want_starts = best_by_enumeration(sig, spec, d, ell)
                    assert _rel(res.loss(d), want) <= 1e-9, (seed, d, ell)
                    got = tuple(s - 1 for s in res.backtrack(d).starts)
                    assert got == want_starts, (seed, d, ell)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("criterion 2: brute-force oracle suite", f"({checked} comparisons, {elapsed:.1f}s)")


def test_criterion_03_column_recurrence_correctness(report):
    """Iterative cost columns agree with direct double summation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        spec = [GaussianKernel(1.0), LinearKernel(), LaplaceKernel(1.0), EnergyKernel(1.0)][trial % 4]
        n = int(rng.integers(20, 301))
        sig = Signal(random_signal(rng, n))
        C = direct_cost_matrix(sig, spec)
        diag = np.ascontiguousarray(spec.diag(sig.data), dtype=np.float64)
        for e, col in cost_columns(sig, spec, diag, 1):
            scale = np.maximum(np.maximum(np.abs(col), np.abs(C[:e, e])), 1e-9)
            worst = max(worst, float((np.abs(col - C[:e, e]) / scale).max()))
        assert worst <= 1e-8, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 3: column recurrence", f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_naive_vs_improved_equivalence(report):
    """Precomputed-table baseline and one-sweep segmenter agree."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        spec = FAMILIES[trial % len(FAMILIES)]
        n = int(rng.integers(10, 301))
        sig = Signal(random_signal(rng, n, q=2))
        dmax = min(10, n)
        a = naive_dp(sig, spec, dmax)
        b = kernseg_exact(sig, spec, dmax)
        la, lb = a.losses(), b.losses()
        scale = np.maximum(np.maximum(np.abs(la), np.abs(lb)), 1e-9)
        assert (np.abs(la - lb) / scale).max() <= 1e-9, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("criterion 4: baseline equivalence", f"({elapsed:.1f}s)")


def test_criterion_05_nystrom_exactness(report):
    """Full-landmark embedding reproduces exact costs; greedy never beats exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    spec = GaussianKernel(1.0)
    for n in (40, 120, 200):
        x = random_signal(rng, n)
        sig = Signal(x)
        emb = nystrom_embed(sig, spec, p=n, rule="stride")
        C = direct_cost_matrix(sig, spec)
        worst = 0.0
        for s in range(n):
            for e in range(s + 1, n + 1):
                got = emb.prefix_sqnorm[e] - emb.prefix_sqnorm[s]
                dm = emb.prefix_sum[e] - emb.prefix_sum[s]
                got -= (dm @ dm) / (e - s)
                worst = max(worst, abs(got - C[s, e]) / max(abs(C[s, e]), 1e-6))
        assert worst <= 1e-6, n

    for trial in range(5):
        n = int(rng.integers(40, 201))
        x = random_signal(rng, n)
        emb = nystrom_embed(Signal(x), spec, p=min(16, n), rule="grid")
        res = binary_segmentation(emb, dmax=6)
        exact = kernseg_exact(Signal(full_width_features(emb, x)[0].T), LinearKernel(), dmax=6)
        for d in range(1, 7):
            lb = exact.loss(d)
            assert res.losses[d - 1] >= lb - 1e-8 * max(1.0, abs(lb)), (trial, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 5: low-rank exactness and greedy bound", f"({elapsed:.1f}s)")


def test_criterion_06_energy_mmd_identity(report):
    """Twice the squared mean distance equals the energy distance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for trial in range(100):
        alpha = (0.5, 1.0, 1.5)[trial % 3]
        q = int(rng.integers(1, 4))
        a = rng.normal(size=(int(rng.integers(2, 40)), q))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=(int(rng.integers(2, 40)), q))
        x0 = tuple(rng.normal(size=q))
        lhs = 2.0 * empirical_mmd_sq(EnergyKernel(alpha, x0), a, b)
        rhs = energy_distance(a, b, alpha)
        assert _rel(lhs, rhs, floor=1e-12) <= 1e-9, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 6: energy identity", f"({elapsed:.1f}s)")


def test_criterion_07_frobenius_metric(report):
    """Overlap formula vs dense matrices; pinned point value; norm = D."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    assert abs(frobenius_distance(Segmentation((1, 3), 4), Segmentation((1,), 4)) - 1.0) <= 1e-12

    def rand_seg(n):
        d = int(rng.integers(1, min(n, 8) + 1))
        extra = sorted(rng.choice(np.arange(2, n + 1), size=d - 1, replace=False))
        return Segmentation((1,) + tuple(int(v) for v in extra), n)

    for _ in range(100):
        n = int(rng.integers(2, 51))
        a, b = rand_seg(n), rand_seg(n)
        dense = float(np.linalg.norm(dense_membership(a) - dense_membership(b)))
        assert abs(frobenius_distance(a, b) - dense) <= 1e-12
        assert abs(membership_norm_sq(a) - a.d) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 7: segmentation distance", f"({elapsed:.1f}s)")


def test_criterion_10_constrained_pipeline_identity(report):
    """With no length floor the constrained code path changes nothing."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for trial in range(50):
        n = int(rng.integers(15, 80))
        sig = Signal(random_signal(rng, n))
        spec = FAMILIES[trial % len(FAMILIES)]
        if isinstance(spec, SumKernel):
            spec = GaussianKernel(1.0)
        dmax = min(6, n)
        a = kernseg_exact(sig, spec, dmax)
        b = kernseg_exact(sig, spec, dmax, ell=1)
        assert np.array_equal(a._back, b._back)
        # the same back-pointers rebuild one whole table, whose last column
        # both runs kept
        table = loss_table(a, cost_columns(sig, spec, spec.diag(sig.data), 1))
        assert table[:, n].tobytes() == a.losses().tobytes() == b.losses().tobytes()
        for d in range(1, dmax + 1):
            assert a.backtrack(d) == b.backtrack(d)
            assert count_segmentations(n, d, 1) == math.comb(n - 1, d - 1)
        la = a.losses()
        f = slope_heuristic(la, n, 1) if dmax >= 10 else None
        p1 = PenaltySpec(1.3, 0.7, n, dmax, ell=1)
        s1 = select(la, p1)
        s2 = select(la, PenaltySpec(1.3, 0.7, n, dmax))
        assert s1.d_hat == s2.d_hat
        np.testing.assert_array_equal(s1.criterion, s2.criterion)
    elapsed = time.perf_counter() - t0
    report("criterion 10: length-floor pipeline identity", f"({elapsed:.1f}s)")


def test_criterion_09_statistical_sanity(report):
    """Distribution-change detection and automatic selection rates."""
    t0 = time.perf_counter()

    # variance-only change: characteristic kernel finds it, linear does not
    hits = {"gaussian": 0, "linear": 0}
    runs = 100
    for seed in range(runs):
        out = generate(
            1000, [1, 501], [[NormalPiece(0.0, 1.0)], [NormalPiece(0.0, 3.0)]], seed=seed
        )
        scaled, _ = mad_scale(out.signal)
        for spec, tag in ((GaussianKernel(1.0), "gaussian"), (LinearKernel(), "linear")):
            res = kernseg_exact(scaled, spec, dmax=2)
            if abs(res.backtrack(2).starts[1] - 501) <= 10:
                hits[tag] += 1
    assert hits["gaussian"] >= 80, hits
    assert hits["linear"] <= 20, hits

    # ten strong jumps: the slope-calibrated choice lands on 11 segments
    ok11 = 0
    dmax = 40
    changes = equally_spaced_changes(5000, 10)
    levels = [[5.0 * (k % 2)] for k in range(11)]
    for seed in range(runs):
        out = generate(5000, changes, mean_shift_specs(levels, sd=1.0), seed=1000 + seed)
        scaled, _ = mad_scale(out.signal)
        res = kernseg_exact(scaled, LinearKernel(), dmax=dmax)
        losses = res.losses()
        fit = slope_heuristic(losses, 5000, 1)
        sel = select(losses, PenaltySpec(fit.c1, fit.c2, 5000, dmax, 1))
        ok11 += sel.d_hat == 11
    assert ok11 >= 90, ok11

    # pure noise: one segment survives the penalty
    ok1 = 0
    for seed in range(runs):
        out = generate(1000, [1], [[NormalPiece(0.0, 1.0)]], seed=2000 + seed)
        scaled, _ = mad_scale(out.signal)
        res = kernseg_exact(scaled, LinearKernel(), dmax=20)
        losses = res.losses()
        fit = slope_heuristic(losses, 1000, 1)
        sel = select(losses, PenaltySpec(fit.c1, fit.c2, 1000, 20, 1))
        ok1 += sel.d_hat == 1
    assert ok1 >= 90, ok1

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "criterion 9: statistical sanity",
        f"(variance {hits['gaussian']}/100 vs {hits['linear']}/100, "
        f"jumps {ok11}/100, null {ok1}/100, {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_08_scaling_reproduction(report):
    """Quadratic exact path, linear low-rank path, and the n = 1e5 run."""
    grid = [4000, 8000, 16000]

    # minimum over repetitions is the standard noise-robust estimate of the
    # deterministic per-cell runtime on a shared machine
    exact_reps = [run_bench(grid, ["exact"], dmax=100, seed=8) for _ in range(2)]
    te = {n: min(rep[i]["seconds"] for rep in exact_reps) for i, n in enumerate(grid)}
    for a, b in zip(grid, grid[1:]):
        ratio = te[b] / te[a]
        assert 3.0 <= ratio <= 5.5, (a, b, ratio, te)

    low_ratios = {}
    reps = [run_bench(grid, ["lowrank-binseg"], p=100, dmax=100, seed=8) for _ in range(5)]
    tl = {n: min(rep[i]["seconds"] for rep in reps) for i, n in enumerate(grid)}
    for a, b in zip(grid, grid[1:]):
        ratio = tl[b] / tl[a]
        low_ratios[(a, b)] = ratio
        assert 1.6 <= ratio <= 2.6, (a, b, ratio, tl)

    # the large run: feasible time and bounded tables
    n = 100_000
    dmax = 100
    rng = np.random.default_rng(88)
    x = random_signal(rng, n)
    t0 = time.perf_counter()
    res = kernseg_exact(Signal(x), GaussianKernel(1.0), dmax=dmax)
    big_elapsed = time.perf_counter() - t0
    assert big_elapsed < 900.0
    assert res.table_numbers <= 2 * dmax * (n + 1) + 3 * (n + 1)
    seg = res.backtrack(dmax)
    assert seg.d == dmax

    report(
        "criterion 8: runtime scaling",
        f"(exact ratios {te[8000]/te[4000]:.2f},{te[16000]/te[8000]:.2f}; "
        f"lowrank {low_ratios[(4000, 8000)]:.2f},{low_ratios[(8000, 16000)]:.2f}; "
        f"n=1e5 in {big_elapsed:.0f}s)",
    )
