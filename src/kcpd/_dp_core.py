"""Column recurrence and table minimisation of the exact segmenter.

The exact segmenter sweeps a right boundary e = 1..n, maintaining

    A[i] = -k(X_i, X_i) + 2 * sum_{j=i}^{e-1} k(X_i, X_j)   for i < e,

so that the cost of a segment [s, e) is

    cost(s, e) = sum_{i=s}^{e-1} diag[i] - (sum_{i=s}^{e-1} A[i]) / (e - s).

The table minimisation prunes candidate starts for PSD kernels (SNIP, see
the ``Snip`` class) and scans only the survivors. It forms the same float
sums as the dense scan and keeps the first minimum, so L and back are
bitwise those of the dense minimisation.

Infeasible dynamic-programming cells hold the finite sentinel BIG rather
than inf, so the slab sums L[r-1, s] + cost(s, e) and the ``Snip``
pruning thresholds derived from L stay finite: a comparison against an
infeasible cell is an ordinary float comparison, and no inf - inf turns
into a NaN.
"""

from __future__ import annotations

import math

import numpy as np

BIG = 1e300
BIG_CUTOFF = 1e250


def kahan_update(A, comp, kcol, m):
    """A[:m] += 2 * kcol[:m] with Kahan compensation carried in comp."""
    if m <= 0:
        return
    y = 2.0 * kcol[:m] - comp[:m]
    t = A[:m] + y
    comp[:m] = (t - A[:m]) - y
    A[:m] = t


def extend_column(A, comp, diag, kcol, e):
    """Move the column state to right boundary e (e >= 1).

    ``kcol[:e-1]`` holds k(X_i, X_{e-1}); it is added twice to A[:e-1],
    compensated, and the new entry A[e-1] starts at diag[e-1]."""
    kahan_update(A, comp, kcol, e - 1)
    A[e - 1] = diag[e - 1]
    comp[e - 1] = 0.0


def cost_column(A, diag, cbuf, e, ell):
    """Fill cbuf[s] = cost(s, e) for all s in [0, e - ell]."""
    # suffix sums are accumulated right to left so short segments never
    # difference large running totals
    hi = e - ell + 1
    if hi <= 0:
        return
    acc_a = np.cumsum(A[e - 1 :: -1])
    acc_d = np.cumsum(diag[e - 1 :: -1])
    lens = np.arange(e, e - hi, -1, dtype=np.float64)
    cbuf[:hi] = acc_d[e - hi : e][::-1] - acc_a[e - hi : e][::-1] / lens


def dp_minimize(L, back, cbuf, e, ell, d_hi):
    """Dense table update at column e for segment counts 2..d_hi.

    L[D-1, e] = min over s in [ell, e - ell] of L[D-2, s] + cbuf[s]; the
    first (smallest) s wins ties. Returns the slab of candidate values, or
    None when there is nothing to minimise."""
    hi = e - ell + 1
    lo = ell
    if d_hi < 2 or hi <= lo:
        return None
    slab = L[0 : d_hi - 1, lo:hi] + cbuf[lo:hi]
    idx = np.argmin(slab, axis=1)
    L[1:d_hi, e] = slab[np.arange(d_hi - 1), idx]
    back[1:d_hi, e] = idx + lo
    return slab


def column_step(L, back, A, comp, diag, buf, e, ell, dmax, snip):
    """One full sweep step: extend the column state to e, then update the
    loss table at column e.

    ``buf[:e-1]`` must hold the kernel column k(X_i, X_{e-1}) on entry for
    e >= 2; on return it holds the cost column for [s, e). ``snip`` is the
    sweep's :class:`Snip`."""
    extend_column(A, comp, diag, buf, e)
    if e < ell:
        return
    cost_column(A, diag, buf, e, ell)
    L[0, e] = buf[0]
    # cost(0, e) sums every A[:e] and diag[:e], so a non-finite value
    # anywhere shows here; the caller reports it
    if not math.isfinite(buf[0]):
        return
    d_hi = min(e // ell, dmax)
    if d_hi >= 2:
        snip.minimize(L, back, buf, e, ell, d_hi)


# ---------------------------------------------------------------------------
# SNIP pruning of the table minimisation
#
# Row r of the table (D = r + 1 segments) takes, at column e, the minimum
# over starts s of L[r-1, s] + C(s, e). For a positive semi-definite kernel
# the within-segment scatter is superadditive, C(s, e') >= C(s, e) + C(e, e')
# for s < e < e', so once L[r-1, s] + C(s, e) > L[r-1, e] the start e beats
# s at every column e' >= e + ell, where e itself becomes a candidate; s can
# never again be the (first) argmin of row r and is dropped from then on
# (Maidstone, Hocking, Rigaill & Fearnhead, Stat. Comput. 2017). Every value
# still compared is the same float sum the dense slab forms, so L and back
# are bitwise those of the dense minimisation.
#
# Row 1 (D = 2) never prunes: C(0, s) + C(s, e) <= C(0, e) = L[0, e]. It is
# scanned as one contiguous slice. Rows 2.. keep flat, row-ordered lists of
# surviving starts with L[r-1, s] cached beside them; starts newer than the
# last compaction (the "tail") are scanned as a small dense block.

# Every period of _PERIOD + ell - 1 columns the lists are compacted (dense
# mode probes instead); prunes decided in the first _PERIOD columns of a
# period take effect by its end, so only those columns test for them.
_PERIOD = 16
# a dense-mode probe switches to the lists when at most 1/_ENTER of the
# cells of rows 2.. survive; a compaction falls back to the dense slab when
# more than 1/_LEAVE would be kept (the lists' cap, counted in the tables)
_ENTER = 8
_LEAVE = 4
# prune only when L[r-1, s] + C(s, e) exceeds L[r-1, e] by this relative
# margin plus a roundoff allowance for the costs (see Snip.__init__)
_REL_MARGIN = 2e-9


class Snip:
    """Minimiser state for one exact sweep.

    Dense until a probe finds few survivors, then sparse until the lists
    grow past their cap; with ``prune`` False (kernels not known to be
    PSD) it stays dense. ``scanned`` counts the (row, s) candidates
    evaluated.
    """

    def __init__(self, n: int, diag_sum: float, prune: bool):
        self.prune = prune
        self.scanned = 0
        # Costs come from suffix sums of A and diag; for a PSD kernel every
        # partial sum is bounded by (length) * sum(diag), so the rounding
        # error of any computed cost is below about 2 u n sum(diag). The
        # allowance covers the three costs in the pruning argument.
        self.tau = 8.0 * 2.0**-53 * (n + 4) * diag_sum
        self.sparse = False
        self.pending = None  # (lists, column after which they take over)
        self._drop_lists()

    @staticmethod
    def table_bytes(n: int, dmax: int) -> int:
        """Bytes of the candidate lists at their cap, the most entries they
        hold between compactions: an int32 start, a float64 cached loss and
        a pruned flag per entry."""
        return 13 * (max(dmax - 2, 0) * (n + 1) // _LEAVE)

    def _drop_lists(self):
        self.cs = self.lc = self.gone = self.counts = self.starts = None
        self.m = 0  # rows held in the lists: rows 2..m+1
        self.tail = 0  # first start not yet in the lists

    def _cut(self, L, e, rows):
        # per-row pruning threshold for rows 2..rows+1
        thr = L[1 : rows + 1, e]
        return thr + (_REL_MARGIN * np.abs(thr) + self.tau)

    def minimize(self, L, back, cbuf, e, ell, d_hi):
        """Table update at column e for D = 2..d_hi (requires d_hi >= 2)."""
        lo, hi = ell, e - ell + 1
        if hi <= lo:
            return
        period = _PERIOD + ell - 1
        if not self.sparse:
            slab = dp_minimize(L, back, cbuf, e, ell, d_hi)
            self.scanned += slab.size
            if self.pending is None and self.prune and d_hi >= 3 and e % period == 0:
                self._probe(L, slab[1:], e, ell, lo, hi)
            if self.pending is not None and e >= self.pending[1]:
                self.sparse = True
                self._set_lists(*self.pending[0])
                self.pending = None
            return
        v1 = L[0, lo:hi] + cbuf[lo:hi]
        i1 = int(v1.argmin())
        L[1, e] = v1[i1]
        back[1, e] = i1 + lo
        # sparse mode holds lists for at least row 2, so d_hi >= 3
        t0 = self.tail
        tv = L[1 : d_hi - 1, t0:hi] + cbuf[t0:hi]
        best_s = tv.argmin(axis=1)
        best = tv.ravel().take(best_s + np.arange(0, tv.size, tv.shape[1]))
        best_s += t0
        m = self.m
        v = cbuf.take(self.cs)
        v += self.lc
        self.scanned += (hi - lo) + tv.size + v.size
        mins = np.minimum.reduceat(v, self.starts)
        hit = (v == mins.repeat(self.counts)).nonzero()[0]
        first = hit[hit.searchsorted(self.starts)]
        # list starts precede the tail, so they win ties
        win = mins <= best[:m]
        first = first[win]
        best[:m][win] = v[first]
        best_s[:m][win] = self.cs[first]
        L[2:d_hi, e] = best
        back[2:d_hi, e] = best_s
        # a start dominated at e may still win until e + ell - 1; the
        # compaction at the end of this period drops it
        if (-e) % period >= ell - 1:
            self.gone |= v > self._cut(L, e, m).repeat(self.counts)
        if e % period == 0:
            self._compact(L, lo, hi, d_hi - 2)

    def _probe(self, L, slab, e, ell, lo, hi):
        # slab holds rows 2..d_hi-1 at column e; a dominated start may
        # still win until e + ell - 1, so lists built from its survivors
        # take over only after that column
        keep = slab <= self._cut(L, e, slab.shape[0])[:, None]
        keep[:, -1] = True  # no row starts empty
        if np.count_nonzero(keep) * _ENTER > keep.size:
            return
        flat = np.flatnonzero(keep)
        rows = flat // keep.shape[1]
        cs = (flat - rows * keep.shape[1] + lo).astype(np.int32)
        lc = L[rows + 1, cs]
        counts = np.count_nonzero(keep, axis=1)
        self.pending = ((cs, lc, counts, hi), e + ell - 1)

    def _set_lists(self, cs, lc, counts, tail):
        self.cs, self.lc, self.counts = cs, lc, counts
        self.gone = np.zeros(cs.size, dtype=bool)
        self.starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.m = counts.size
        self.tail = tail

    def _compact(self, L, lo, hi, nr):
        # drop the pruned starts and append the tail to rows 2..nr+1
        keep = ~self.gone
        kept = np.add.reduceat(keep, self.starts, dtype=np.int64)
        kt = hi - self.tail
        if (int(kept.sum()) + nr * kt) * _LEAVE > nr * (hi - lo):
            self.sparse = False
            self._drop_lists()
            return
        counts = np.zeros(nr, dtype=np.int64)
        counts[: self.m] = kept
        at = np.repeat(np.cumsum(counts), kt)
        new = np.arange(self.tail, hi, dtype=np.int32)
        cs = np.insert(self.cs[keep], at, np.tile(new, nr))
        lc = np.insert(self.lc[keep], at, L[1 : nr + 1, self.tail : hi].ravel())
        self._set_lists(cs, lc, counts + kt, hi)
