"""Exact kernel segmentation by dynamic programming.

Segment costs are RKHS within-segment scatters evaluated through the kernel
trick. The segmenter runs a single left-to-right sweep: one generator,
:func:`cost_columns`, rebuilds one cost column per step from an O(n)
recurrence, and the minimiser consumes each column as it comes, so peak
memory is O(Dmax * n) and no n-by-n structure is ever materialized.

Index conventions: Python-facing segment arguments are 0-based half-open
pairs (start, end); reported change points in :class:`Segmentation` are
1-based segment starts, so a boundary at internal index s is reported as
s + 1 and a full signal of length n is the segment [0, n) == {1, .., n}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _dp_core
from ._dp_core import _aligned_empty, back_dtype
from .kernels import KernelSpec, Signal, as_signal

__all__ = [
    "Segmentation",
    "DPResult",
    "segment_cost_direct",
    "cost_columns",
    "kernseg_exact",
]


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


def cost_columns(signal: Signal, spec: KernelSpec, diag: np.ndarray,
                 ell: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(e, column)`` for e = ell..n, ``column[s]`` = C(s, e) for s = 0..e-ell.

    ``diag`` is k(X_i, X_i) as float64, an array or a read-only view. For
    i < e the recurrence holds

        A[i] = -k(X_i, X_i) + 2 * sum_{j=i}^{e-1} k(X_i, X_j),

    updated with a Kahan compensation array carried alongside, so that

        C(s, e) = sum_{i=s}^{e-1} diag[i] - (sum_{i=s}^{e-1} A[i]) / (e - s),

    and suffix sums of both arrays give a whole column in one right-to-left
    sweep: O(e) kernel evaluations a column and O(n) memory in all. Every
    column is a view of one scratch of n + 1 floats that the next step
    overwrites. Raises ValueError if a column is not finite.
    """
    n = signal.n
    # every column stores into A, comp and the scratch, so all three start
    # on 64-byte boundaries, as the minimiser's row buffer does; each step
    # writes every entry it later reads but A[0] and comp[0]
    A, comp = _aligned_empty(n), _aligned_empty(n)
    A[0], comp[0] = diag[0], 0.0
    column_fn = spec.prefix_column_fn(signal.data)
    # the kernel column of each step, then the cost column it yields
    buf = _aligned_empty(n + 1)
    # diag is 1.0 everywhere (Gaussian, Laplace): its suffix sums are the
    # segment lengths, exact integers, and need not be formed
    unit_diag = bool((diag == 1.0).all())
    for e in range(1, n + 1):
        if e >= 2:
            # Kahan step y = 2 k - comp, t = A + y, comp' = (t - A) - y,
            # A' = t, in place: y in the scratch, t in comp and comp' in A,
            # then the two arrays swap names
            j = e - 1
            column_fn(j, buf)
            y = buf[:j]
            y *= 2.0
            y -= comp[:j]
            t = np.add(A[:j], y, out=comp[:j])
            c = np.subtract(t, A[:j], out=A[:j])
            c -= y
            A, comp = comp, A
            A[j] = diag[j]
            comp[j] = 0.0
        if e < ell:
            continue
        # suffix sums are accumulated right to left so short segments never
        # difference large running totals
        hi = e - ell + 1
        np.cumsum(A[e - 1 :: -1], out=buf[e - 1 :: -1])
        lens = np.arange(e, e - hi, -1, dtype=np.float64)
        col = buf[:hi]
        col /= lens
        if unit_diag:
            np.subtract(lens, col, out=col)
        else:
            np.subtract(np.cumsum(diag[e - 1 :: -1])[e - hi : e][::-1], col, out=col)
        # the minimiser runs while this frame waits at the yield, so the
        # column's temporary goes first
        del lens
        # C(0, e) sums every A[:e] and diag[:e], so a non-finite value
        # anywhere shows in it
        if not math.isfinite(col[0]):
            raise overflow_error(spec, f"segment cost at column {e}")
        yield e, col


class DPResult:
    """Losses and backpointers from a segment-neighborhood solve.

    ``loss(D)`` is the optimal total cost of splitting the whole signal
    into D segments, and ``backtrack(D)`` reconstructs an attaining
    segmentation, smallest boundary indices on ties. Every D <= dmax fits
    under the minimum length: the solver checks that before it runs.
    """

    def __init__(self, losses, back, n, dmax, table_numbers, cells_scanned):
        # the loss table's last column, D = 1..dmax
        self._losses = losses
        self._back = back
        self.n = n
        self.dmax = dmax
        # persistent table allocation, in float64-equivalents (bytes / 8)
        self.table_numbers = table_numbers
        # (row, start) candidates the minimisation evaluated
        self.cells_scanned = cells_scanned
        self._losses.setflags(write=False)
        self._back.setflags(write=False)

    def loss(self, d: int) -> float:
        d = _size(d, "D")
        if not (1 <= d <= self.dmax):
            raise ValueError(f"D must lie in 1..{self.dmax}, got {d}")
        return float(self._losses[d - 1])

    def losses(self) -> np.ndarray:
        """Losses for D = 1..Dmax."""
        return self._losses.copy()

    def backtrack(self, d: int) -> Segmentation:
        self.loss(d)  # checks the range of d
        starts, e = [1] * d, self.n
        for r in range(d - 1, 0, -1):
            e = int(self._back[r - 1, e])
            starts[r] = e + 1  # the internal start e, reported 1-based
        return Segmentation(tuple(starts), self.n)


def _size(value, name: str) -> int:
    """``value`` as an int (numpy integers included); a ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None


def check_feasible(n: int, dmax: int, ell: int) -> None:
    """Raise ValueError unless dmax segments of at least ell points fit in n."""
    n, dmax = _size(n, "signal length"), _size(dmax, "Dmax")
    if dmax < 1:
        raise ValueError(f"Dmax must be at least 1, got {dmax}")
    check_length_floor(ell)
    if dmax * ell > n:
        raise ValueError(f"infeasible: {dmax} segments of length >= {ell} need {dmax * ell} points, "
                         f"signal has {n}")


def check_length_floor(ell: int) -> None:
    """Raise ValueError unless the minimum segment length ``ell`` is an integer of at least 1."""
    if _size(ell, "minimum segment length") < 1:
        raise ValueError(f"minimum segment length must be at least 1, got {ell}")


def overflow_error(spec: KernelSpec, what: str) -> ValueError:
    """The error for a kernel that overflows on the data; ``what`` is non-finite."""
    return ValueError(f"{spec!r} gives a non-finite {what}: the kernel overflows on this "
                      "signal; rescale the data or choose another kernel")


def kernseg_exact(signal, spec: KernelSpec, dmax: int, ell: int = 1) -> DPResult:
    """Optimal segmentations for every D = 1..dmax under a length floor.

    Feeds each column of :func:`cost_columns` to the dynamic-programming
    update in one sweep: O(dmax * n^2) time, most of it in the minimisation
    over candidate starts rather than in kernel evaluations, and
    O(dmax * n) memory. ``ell`` is the minimum number of points per
    segment. For a kernel with ``psd`` set, the minimiser drops candidate
    starts that provably cannot win (SNIP pruning); the tables are bitwise
    those of the dense minimisation either way.

    Raises ValueError if the kernel yields non-finite segment costs.
    """
    sig = as_signal(signal)
    spec.check_dim(sig.q)
    n = sig.n
    check_feasible(n, dmax, ell)

    # an overflowing kernel trips numpy warnings on its way to the
    # non-finite cost that cost_columns reports
    with np.errstate(over="ignore", invalid="ignore"):
        # a unit diagonal stays the kernel's read-only view: no n floats
        diag = spec.diag(sig.data)
        snip = _dp_core.Snip(n, dmax, ell, float(diag.sum()), spec.psd)
        for e, col in cost_columns(sig, spec, diag, ell):
            _dp_core.column_step(col, e, ell, dmax, snip)

    # the loss table as the sweep held it, in place of the whole one counted
    held = snip.L0.nbytes + snip.L.nbytes
    table_bytes = kernseg_table_bytes(n, dmax, spec.psd) - 8 * dmax * (n + 1) + held
    return DPResult(snip.column(n), snip.back, n, dmax, table_bytes / 8.0, snip.scanned)


def kernseg_table_bytes(n: int, dmax: int, psd: bool) -> int:
    """Bytes :func:`kernseg_exact` may allocate for its persistent tables.

    The whole loss table L, Dmax(n + 1) floats, and back, whose Dmax - 1
    rows hold the starts for D >= 2 (D = 1 has none to hold); the diagonal,
    and :func:`cost_columns`' A and comp, of n floats each (a unit diagonal
    is a view that holds none, so for Gaussian and Laplace kernels the
    count is a bound); its scratch column of n + 1, the three with the 7
    spare floats each that align them; and the minimiser's dense row
    buffer of n + 1 floats (when dmax > 2) or, for a PSD kernel, the larger
    of that row and the pruning lists at their cap, as a sweep never holds
    both. A list entry counts 30 bytes: the 13 it holds and the 17 of
    temporaries a scan or compaction holds beside it.

    This is the bound a run is checked against before it starts. A sweep
    holds row D = 1 of L whole and the rows D >= 2 over at most the
    columns from ell on (:meth:`_dp_core.Snip.window_width`), and its
    result counts what it holds in place of the whole L."""
    back = (dmax - 1) * (n + 1) * back_dtype(n).itemsize
    minimiser = _dp_core.Snip.table_bytes(n, dmax, psd)
    return dmax * (n + 1) * 8 + back + 3 * n * 8 + (n + 1) * 8 + 3 * 7 * 8 + minimiser
