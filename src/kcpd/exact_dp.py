"""Exact kernel segmentation by dynamic programming.

Segment costs are RKHS within-segment scatters evaluated through the kernel
trick. The segmenter runs a single left-to-right sweep, rebuilding one cost
column per step from an O(n) recurrence, so peak memory is O(Dmax * n) and
no n-by-n structure is ever materialized.

Index conventions: Python-facing segment arguments are 0-based half-open
pairs (start, end); reported change points in :class:`Segmentation` are
1-based segment starts, so a boundary at internal index s is reported as
s + 1 and a full signal of length n is the segment [0, n) == {1, .., n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import _dp_core
from ._dp_core import BIG, BIG_CUTOFF, back_dtype
from .kernels import KernelSpec, Signal, as_signal

__all__ = [
    "Segmentation",
    "CostColumnState",
    "DPResult",
    "segment_cost_direct",
    "advance_column",
    "kernseg_exact",
    "naive_dp",
    "backtrack",
]

NAIVE_DEFAULT_CAP = 4000


@dataclass(frozen=True)
class Segmentation:
    """Contiguous segmentation of {1, .., n}, encoded by 1-based starts.

    ``starts`` is strictly increasing with starts[0] == 1; segment d covers
    {starts[d], .., starts[d+1] - 1} with the convention that one past the
    last start is n + 1.
    """

    starts: tuple[int, ...]
    n: int

    def __post_init__(self):
        s = tuple(int(v) for v in self.starts)
        if len(s) == 0 or s[0] != 1:
            raise ValueError("a segmentation starts with tau_1 = 1")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("starts must be strictly increasing")
        if self.n < 1 or s[-1] > self.n:
            raise ValueError("starts must lie in {1, .., n}")
        object.__setattr__(self, "starts", s)

    @property
    def d(self) -> int:
        """Number of segments."""
        return len(self.starts)

    def bounds(self) -> list[tuple[int, int]]:
        """0-based half-open (start, end) pairs, one per segment."""
        ext = [v - 1 for v in self.starts] + [self.n]
        return list(zip(ext[:-1], ext[1:]))

    def lengths(self) -> list[int]:
        return [e - s for s, e in self.bounds()]

    @classmethod
    def from_bounds(cls, starts0: Iterable[int], n: int) -> "Segmentation":
        """Build from 0-based internal segment starts."""
        return cls(tuple(int(s) + 1 for s in starts0), n)

    @classmethod
    def _trusted(cls, starts: tuple[int, ...], n: int) -> "Segmentation":
        # internal fast path: starts already 1-based, sorted and in range
        obj = object.__new__(cls)
        object.__setattr__(obj, "starts", starts)
        object.__setattr__(obj, "n", n)
        return obj


def _validate_range(n: int, start: int, end: int) -> None:
    if not (0 <= start < end <= n):
        raise IndexError(f"segment [{start}, {end}) out of range for n={n}")


def segment_cost_direct(signal, spec: KernelSpec, start: int, end: int) -> float:
    """Segment cost by explicit double summation; the test oracle.

    cost = sum_i k(X_i, X_i) - (1/len) sum_i sum_j k(X_i, X_j) over
    i, j in [start, end). Costs O(len^2) kernel evaluations.
    """
    sig = as_signal(signal)
    _validate_range(sig.n, start, end)
    X = sig.data[start:end]
    spec.check_dim(sig.q)
    block = spec.gram(X)
    return float(np.trace(block) - block.sum() / (end - start))


@dataclass
class CostColumnState:
    """Iterative state giving every segment cost with right boundary ``end``.

    For i < end the state holds

        A[i] = -k(X_i, X_i) + 2 * sum_{j=i}^{end-1} k(X_i, X_j),

    updated with a Kahan compensation array ``comp`` carried alongside, and
    ``diag[i]`` = k(X_i, X_i), so that the cost of a segment [s, end) is

        cost(s, end) = sum_{i=s}^{end-1} diag[i] - (sum_{i=s}^{end-1} A[i]) / (end - s),

    and suffix sums of both arrays give every cost in one right-to-left
    sweep. :func:`kernseg_exact` runs on this state.
    """

    signal: Signal
    spec: KernelSpec
    end: int
    A: np.ndarray
    comp: np.ndarray
    diag: np.ndarray
    _column_fn: object = field(repr=False, default=None)
    # scratch of n + 1 floats, as kernseg_table_bytes counts it: the kernel
    # column in ``advance``, then the cost column when the sweep passes it
    # as ``out``
    _buf: np.ndarray = field(repr=False, default=None)
    # diag is 1.0 everywhere (Gaussian, Laplace): its suffix sums are the
    # segment lengths, exact integers, so cost_column need not form them
    _unit_diag: bool = field(repr=False, default=False)

    @classmethod
    def initial(cls, signal, spec: KernelSpec) -> "CostColumnState":
        """State for end = 1 (the single segment [0, 1))."""
        sig = as_signal(signal)
        spec.check_dim(sig.q)
        n = sig.n
        A = np.zeros(n)
        diag = np.ascontiguousarray(spec.diag(sig.data), dtype=np.float64)
        A[0] = diag[0]
        return cls(
            signal=sig,
            spec=spec,
            end=1,
            A=A,
            comp=np.zeros(n),
            diag=diag,
            _column_fn=spec.prefix_column_fn(sig.data),
            _buf=np.empty(n + 1),
            _unit_diag=bool((diag == 1.0).all()),
        )

    def advance(self) -> "CostColumnState":
        """Advance to end + 1 in place, returning self.

        Adds 2 k(X_i, X_end) to A[i] for all i < end, compensated, and
        starts the new entry at its self-similarity value. O(end) kernel
        evaluations.
        """
        e = self.end
        if e >= self.signal.n:
            raise IndexError(f"state already at the last column (end={e})")
        A, comp = self.A, self.comp
        # Kahan step y = 2 k - comp, t = A + y, comp' = (t - A) - y, A' = t,
        # in place: y in the kernel column's scratch, t in comp and comp' in
        # A, then the two arrays swap names
        self._column_fn(e, self._buf)
        y = self._buf[:e]
        y *= 2.0
        y -= comp[:e]
        t = np.add(A[:e], y, out=comp[:e])
        c = np.subtract(t, A[:e], out=A[:e])
        c -= y
        self.A, self.comp = comp, A
        self.A[e] = self.diag[e]
        self.comp[e] = 0.0
        self.end = e + 1
        return self

    def cost_column(self, ell: int = 1, out: np.ndarray | None = None) -> np.ndarray:
        """Costs of [s, end) for s = 0..end-ell, as a vector.

        When given, ``out`` must hold at least ``end`` floats: it receives
        the suffix sums of A first, and the result is a view of it.
        """
        e = self.end
        if out is None:
            out = np.empty(e)
        elif out.shape[0] < e:
            raise ValueError(f"cost column buffer holds {out.shape[0]} floats, needs end={e}")
        hi = e - ell + 1
        if hi <= 0:
            return np.empty(0)
        # suffix sums are accumulated right to left so short segments never
        # difference large running totals
        np.cumsum(self.A[e - 1 :: -1], out=out[e - 1 :: -1])
        lens = np.arange(e, e - hi, -1, dtype=np.float64)
        col = out[:hi]
        col /= lens
        if self._unit_diag:
            return np.subtract(lens, col, out=col)
        acc_d = np.cumsum(self.diag[e - 1 :: -1])
        return np.subtract(acc_d[e - hi : e][::-1], col, out=col)

    def cost(self, start: int) -> float:
        """Cost of the single segment [start, end)."""
        _validate_range(self.signal.n, start, self.end)
        return float(self.cost_column()[start])


def advance_column(state: CostColumnState) -> CostColumnState:
    """Advance a cost-column state by one position (in place)."""
    return state.advance()


class DPResult:
    """Loss table and backpointers from a segment-neighborhood solve.

    ``loss(D)`` is the optimal total cost of splitting the whole signal
    into D segments (inf when infeasible under the minimum length), and
    ``backtrack(D)`` reconstructs an attaining segmentation, smallest
    boundary indices on ties.
    """

    def __init__(self, L, back, n, dmax, ell, table_numbers, cells_scanned):
        self._L = L
        self._back = back
        self.n = n
        self.dmax = dmax
        self.ell = ell
        # persistent table allocation, in float64-equivalents (bytes / 8)
        self.table_numbers = table_numbers
        # (row, start) candidates the minimisation evaluated
        self.cells_scanned = cells_scanned
        self._L.setflags(write=False)
        if self._back is not None:
            self._back.setflags(write=False)

    def loss(self, d: int) -> float:
        if not (1 <= d <= self.dmax):
            raise ValueError(f"D must lie in 1..{self.dmax}, got {d}")
        v = self._L[d - 1, self.n]
        return math.inf if v >= BIG_CUTOFF else float(v)

    def losses(self) -> np.ndarray:
        """Losses for D = 1..Dmax; infeasible entries are inf."""
        out = self._L[:, self.n].astype(np.float64)
        out[out >= BIG_CUTOFF] = np.inf
        return out

    def backtrack(self, d: int) -> Segmentation:
        if not (1 <= d <= self.dmax):
            raise ValueError(f"D must lie in 1..{self.dmax}, got {d}")
        if not math.isfinite(self.loss(d)):
            raise ValueError(f"no segmentation with {d} segments of length >= {self.ell}")
        starts = [0] * d
        e = self.n
        for r in range(d - 1, 0, -1):
            e = int(self._back[r, e])
            starts[r] = e
        return Segmentation.from_bounds(starts, self.n)


def backtrack(result: DPResult, d: int) -> Segmentation:
    """Segmentation attaining result.loss(d)."""
    return result.backtrack(d)


def check_feasible(n: int, dmax: int, ell: int) -> None:
    """Raise ValueError unless dmax segments of at least ell points fit in n."""
    if dmax < 1:
        raise ValueError(f"Dmax must be at least 1, got {dmax}")
    if ell < 1:
        raise ValueError(f"minimum segment length must be at least 1, got {ell}")
    if dmax * ell > n:
        raise ValueError(
            f"infeasible: {dmax} segments of length >= {ell} need {dmax * ell} points, signal has {n}"
        )


def overflow_error(spec: KernelSpec, what: str) -> ValueError:
    """The error for a kernel that overflows on the data; ``what`` is non-finite."""
    return ValueError(f"{spec!r} gives a non-finite {what}: the kernel overflows on this "
                      "signal; rescale the data or choose another kernel")


def kernseg_exact(signal, spec: KernelSpec, dmax: int, ell: int = 1) -> DPResult:
    """Optimal segmentations for every D = 1..dmax under a length floor.

    Runs the column recurrence of :class:`CostColumnState` and the
    dynamic-programming update in one sweep: O(dmax * n^2) time, most of
    it in the minimisation over candidate starts rather than in kernel
    evaluations, and O(dmax * n) memory. ``ell`` is the minimum
    number of points per segment. For a kernel with ``psd`` set, the
    minimiser drops candidate starts that provably cannot win (SNIP
    pruning); the tables are bitwise those of the dense minimisation
    either way.

    Raises ValueError if the kernel yields non-finite segment costs.
    """
    sig = as_signal(signal)
    spec.check_dim(sig.q)
    n = sig.n
    check_feasible(n, dmax, ell)

    L = np.full((dmax, n + 1), BIG)
    back = np.zeros((dmax, n + 1), dtype=back_dtype(n)) if dmax > 1 else None

    # an overflowing kernel trips numpy warnings on its way to the
    # non-finite cost that the guard below reports
    with np.errstate(over="ignore", invalid="ignore"):
        state = CostColumnState.initial(sig, spec)
        snip = _dp_core.Snip(n, dmax, float(state.diag.sum()), spec.psd)
        for e in range(1, n + 1):
            if e >= 2:
                state.advance()
            if e < ell:
                continue
            # cost(0, e) sums every A[:e] and diag[:e], so a non-finite
            # value anywhere shows in it
            cbuf = state.cost_column(ell, state._buf)
            if not math.isfinite(cbuf[0]):
                raise overflow_error(spec, f"segment cost at column {e}")
            _dp_core.column_step(L, back, cbuf, e, ell, dmax, snip)

    table_numbers = kernseg_table_bytes(n, dmax, spec.psd) / 8.0
    return DPResult(L, back, n, dmax, ell, table_numbers, snip.scanned)


def kernseg_table_bytes(n: int, dmax: int, psd: bool) -> int:
    """Bytes :func:`kernseg_exact` allocates for its persistent tables.

    L and back, the column state A, comp and diag, the scratch column, and
    the minimiser's dense row buffer of n + 1 floats (when dmax > 2) or, for
    a PSD kernel, the larger of that row and the pruning lists at their cap,
    as a sweep never holds both. A list entry counts 30 bytes: the 13 it
    holds and the 17 of temporaries a scan or compaction holds beside it."""
    back = dmax * (n + 1) * back_dtype(n).itemsize if dmax > 1 else 0
    minimiser = _dp_core.Snip.table_bytes(n, dmax, psd)
    return dmax * (n + 1) * 8 + back + 3 * n * 8 + (n + 1) * 8 + minimiser


def _direct_cost_table(sig: Signal, spec: KernelSpec) -> np.ndarray:
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


def naive_dp(signal, spec: KernelSpec, dmax: int, max_n: int = NAIVE_DEFAULT_CAP) -> DPResult:
    """Baseline segmenter with a precomputed cost table.

    Output contract matches :func:`kernseg_exact` with ell = 1. Quadratic
    memory, so inputs above ``max_n`` are refused; retained as a
    differential-testing oracle and benchmark baseline.
    """
    sig = as_signal(signal)
    n = sig.n
    if n > max_n:
        raise ValueError(f"signal of length {n} exceeds the cap {max_n} for the quadratic-memory baseline")
    check_feasible(n, dmax, 1)
    spec.check_dim(sig.q)

    C = _direct_cost_table(sig, spec)
    L = np.full((dmax, n + 1), BIG)
    back = np.zeros((dmax, n + 1), dtype=back_dtype(n)) if dmax > 1 else None
    L[0, 1:] = C[0, 1:]
    cells = 0
    for r in range(1, dmax):
        for e in range(r + 1, n + 1):
            cand = L[r - 1, r:e] + C[r:e, e]
            i = int(np.argmin(cand))
            L[r, e] = cand[i]
            back[r, e] = i + r
            cells += cand.size
    table_numbers = (L.nbytes + (0 if back is None else back.nbytes) + C.nbytes) / 8.0
    return DPResult(L, back, n, dmax, 1, table_numbers, cells)
