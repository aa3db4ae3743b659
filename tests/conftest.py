"""Shared oracles for the test suite.

These deliberately take the slow, literal route (explicit double sums,
exhaustive enumeration, dense matrices, a precomputed cost table) so they
stay independent of the recurrences and overlap formulas they are used to
check.
"""

from __future__ import annotations

import contextlib
import gc
from itertools import combinations

import numpy as np
import pytest

from kcpd import DPResult, Segmentation, as_signal
from kcpd._dp_core import back_dtype
from kcpd.exact_dp import check_feasible, overflow_error


def direct_cost_matrix(signal, spec) -> np.ndarray:
    """C[s, e] = cost of [s, e) by summing the explicit Gram block."""
    sig = as_signal(signal)
    n = sig.n
    K = spec.gram(sig.data)
    C = np.full((n + 1, n + 1), np.nan)
    for s in range(n):
        for e in range(s + 1, n + 1):
            block = K[s:e, s:e]
            C[s, e] = np.trace(block) - block.sum() / (e - s)
    return C


def _direct_cost_table(sig, spec) -> np.ndarray:
    """Dense table C[s, e] = cost of [s, e), from the explicit Gram matrix.

    Quadratic memory; row s is accumulated left to right so each entry is
    formed from sums commensurate with its own segment.
    """
    n = sig.n
    K = spec.gram(sig.data)
    kdiag = np.diagonal(K).copy()
    # CS[r, c] = sum_{i < r} K[i, c]
    CS = np.vstack([np.zeros((1, n)), np.cumsum(K, axis=0)])
    del K
    col_below = np.diagonal(CS).copy()  # sum_{i < t} K[i, t]
    C = np.zeros((n + 1, n + 1))
    for s in range(n):
        lens = np.arange(1.0, n - s + 1.0)
        # inner(t) = sum_{i in [s, t)} K[i, t]; the block sum of K[s:e, s:e]
        # grows by 2*inner(e-1) + diag(e-1) as e advances
        inner = col_below[s:n] - CS[s, s:n]
        block = np.cumsum(2.0 * inner + kdiag[s:n])
        dsum = np.cumsum(kdiag[s:n])
        C[s, s + 1 :] = dsum - block / lens
    return C


def naive_dp(signal, spec, dmax: int) -> DPResult:
    """Segmenter with a precomputed cost table, the differential-testing oracle.

    Output contract matches ``kernseg_exact`` with ell = 1. Quadratic
    memory in the signal length, so it is for small inputs.
    """
    sig = as_signal(signal)
    n = sig.n
    check_feasible(n, dmax, 1)
    spec.check_dim(sig.q)

    # as in kernseg_exact, an overflowing kernel ends in its error, not in
    # numpy warnings or NaN losses
    with np.errstate(over="ignore", invalid="ignore"):
        C = _direct_cost_table(sig, spec)
    if not np.isfinite(C).all():
        raise overflow_error(spec, "segment cost table")
    L = np.full((dmax, n + 1), np.inf)
    back = np.zeros((dmax - 1, n + 1), dtype=back_dtype(n))
    L[0, 1:] = C[0, 1:]
    cells = 0
    for r in range(1, dmax):
        for e in range(r + 1, n + 1):
            cand = L[r - 1, r:e] + C[r:e, e]
            i = int(np.argmin(cand))
            L[r, e] = cand[i]
            back[r - 1, e] = i + r
            cells += cand.size
    table_numbers = (L.nbytes + back.nbytes + C.nbytes) / 8.0
    return DPResult(L[:, n].copy(), back, n, dmax, table_numbers, cells)


def loss_table(res: DPResult, columns) -> np.ndarray:
    """A sweep's whole loss table, rebuilt from its back-pointers.

    ``columns`` yields ``(e, column)`` with ``column[s]`` = C(s, e) for
    s = 0..e-ell, as ``cost_columns`` does, from e = ell. Then L[0, e] =
    C(0, e) and L[r, e] = L[r-1, s] + C(s, e) with s = back[r-1, e], the float
    sum every engine forms, at each cell a segmentation reaches (e >= (r +
    1) ell); the others hold inf. Where the engines agree on back, they
    agree on these tables bit for bit.
    """
    L = np.full((res.dmax, res.n + 1), np.inf)
    for e, col in columns:
        ell = e + 1 - col.size
        L[0, e] = col[0]
        for r in range(1, min(e // ell, res.dmax)):
            s = int(res._back[r - 1, e])
            L[r, e] = L[r - 1, s] + col[s]
    return L


@contextlib.contextmanager
def quiet_collector():
    """A full garbage collection, then none inside the block, for steady
    tracemalloc peaks. A full collection empties the interpreter's free
    lists, and the tuples that refill them count in a traced run's peak: up
    to 12 KB more on about one exact sweep in three at n = 8000, by where
    the collector's cycle falls."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def full_width_features(emb, X):
    """An embedding's features of the signal X as one product proj @ K(J, X)
    per kernel block over all n points, and the magnitude |proj| @ |K| that
    bounds each product's rounding."""
    prods, mags = [], []
    for m in emb.maps:
        K = m.spec.gram(m.landmarks, X if m.cols is None else X[:, m.cols])
        prods.append(m.proj @ K)
        mags.append(np.abs(m.proj) @ np.abs(K))
    return np.vstack(prods), np.vstack(mags)


def enumerate_start_tuples(n: int, d: int, ell: int = 1):
    """All 0-based internal start tuples of d segments with lengths >= ell."""
    if d * ell > n:
        return
    if d == 1:
        yield (0,)
        return
    # choose d-1 interior boundaries; gaps of at least ell on both sides
    for cuts in combinations(range(1, n), d - 1):
        prev = 0
        ok = True
        for c in cuts:
            if c - prev < ell:
                ok = False
                break
            prev = c
        if ok and n - prev >= ell:
            yield (0,) + cuts


def best_by_enumeration(signal, spec, d: int, ell: int = 1):
    """(loss, starts) of the optimal d-segmentation by exhaustive search.

    Exact loss ties resolve to the segmentation whose boundaries are
    smallest from the right, matching backtracking that picks the smallest
    boundary at each step.
    """
    sig = as_signal(signal)
    n = sig.n
    C = direct_cost_matrix(sig, spec)
    best = None
    best_key = None
    for starts in enumerate_start_tuples(n, d, ell):
        bounds = list(zip(starts, starts[1:] + (n,)))
        loss = sum(C[s, e] for s, e in bounds)
        key = (loss, tuple(reversed(starts)))
        if best is None or key < best_key:
            best = (loss, starts)
            best_key = key
    return best


def dense_membership(seg: Segmentation) -> np.ndarray:
    """The n-by-n block matrix of a segmentation, materialized."""
    M = np.zeros((seg.n, seg.n))
    for s, e in seg.bounds():
        M[s:e, s:e] = 1.0 / (e - s)
    return M


def random_signal(rng: np.random.Generator, n: int, q: int = 1, jumps: bool = True):
    """Noise plus a few mean shifts, the generic test input."""
    x = rng.normal(0.0, 1.0, (n, q))
    if jumps and n >= 6:
        k = rng.integers(1, 4)
        for _ in range(k):
            pos = int(rng.integers(1, n))
            x[pos:] += rng.normal(0.0, 2.0, q)
    return x


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
