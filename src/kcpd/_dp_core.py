"""Table minimisation of the exact segmenter.

At each right boundary e of the sweep, :func:`column_step` takes the cost
column C(s, e) from the sweep's :class:`~kcpd.exact_dp.CostColumnState`
and updates the loss table: row r (D = r + 1 segments) takes the minimum
over starts s in [ell, e - ell] of L[r-1, s] + C(s, e). For PSD kernels
the ``Snip`` class scans only the starts that SNIP pruning has not ruled
out. It forms the same float sums as a full scan and keeps the first
minimum, so L and back are bitwise those of the unpruned minimisation.

Infeasible dynamic-programming cells hold the finite sentinel BIG rather
than inf, so the candidate sums L[r-1, s] + cost(s, e) and the ``Snip``
pruning thresholds derived from L stay finite: a comparison against an
infeasible cell is an ordinary float comparison, and no inf - inf turns
into a NaN.
"""

from __future__ import annotations

import math

import numpy as np

BIG = 1e300
BIG_CUTOFF = 1e250


def back_dtype(n: int) -> np.dtype:
    """Back-pointer dtype for a signal of n points: the narrowest that holds
    every start 0..n, 16-bit below 65536 points and 32-bit above."""
    return np.dtype(np.uint16 if n <= np.iinfo(np.uint16).max else np.int32)


def column_step(L, back, state, e, ell, dmax, snip):
    """Update the loss table at column e, the right boundary ``state.end``.

    The cost column is written into the state's scratch vector, which held
    the kernel column of the last advance. ``snip`` is the sweep's
    :class:`Snip`."""
    if e < ell:
        return
    cbuf = state.cost_column(ell, state._buf)
    L[0, e] = cbuf[0]
    # cost(0, e) sums every A[:e] and diag[:e], so a non-finite value
    # anywhere shows here; the caller reports it
    if not math.isfinite(cbuf[0]):
        return
    d_hi = min(e // ell, dmax)
    if d_hi >= 2:
        snip.minimize(L, back, cbuf, e, ell, d_hi)


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
# still compared is the same float sum a full scan forms, so L and back
# are bitwise those of the unpruned minimisation.
#
# Row 1 (D = 2) never prunes: C(0, s) + C(s, e) <= C(0, e) = L[0, e]. It is
# scanned as one contiguous slice. Rows 2.. are scanned in one of two modes.
# - Lists, for a PSD kernel from its first column: flat, row-ordered lists
#   of the live starts below the "tail", with L[r-1, s] cached beside them,
#   and every start from the tail on scanned as one block. The lists start
#   empty with the tail at ell, so at first every start is live. Each
#   period the lists drop their pruned starts and take in the block's. A
#   column scans the lists whole and a compaction copies them, each with at
#   most 17 bytes an entry of temporaries beside the lists' 13. The block
#   is added in chunks of rows of at most n + 1 entries.
# - Dense, for other kernels and for the rest of a PSD sweep once a
#   compaction would keep more than the lists' cap: every start, in chunks
#   of whole rows inside one scratch buffer of at most scratch_floats(n,
#   dmax) floats, one row add at a time (numpy buffers a 2-D add of short
#   rows outside the scratch).
# Rows are scanned in order and a row's lists precede its tail, so each
# first minimum is that of one scan over all the row's starts.

# Every period of _PERIOD + ell - 1 columns the lists are compacted; prunes
# decided in the first _PERIOD columns of a period take effect by its end,
# so only those columns test for them.
_PERIOD = 16
# the lists' cap, counted in the tables, is 1/_LEAVE of the cells of rows
# 2..; a compaction that would keep more ends list mode
_LEAVE = 10
# prune only when L[r-1, s] + C(s, e) exceeds L[r-1, e] by this relative
# margin plus a roundoff allowance for the costs (see Snip.__init__)
_REL_MARGIN = 2e-9


def scratch_floats(n: int, dmax: int) -> int:
    """Floats of the dense scan's scratch: whole rows of n + 1, as many as
    fit in the candidate lists' count (30 bytes for each of up to 1/_LEAVE
    of the cells of rows 2..), at least one and at most the dmax - 2 rows
    of the block. Below 65536 points that is within the room the 16-bit
    back-pointers free."""
    rows = 30 * (max(dmax - 2, 0) * (n + 1) // _LEAVE) // (8 * (n + 1))
    return min(max(dmax - 2, 0), max(1, rows)) * (n + 1)


class Snip:
    """Minimiser state for one exact sweep.

    With ``prune`` (kernels known to be PSD) the sweep starts in list mode
    and stays there until a compaction would keep more than the lists' cap,
    then scans densely to its end; without it every column is dense.
    ``scanned`` counts the (row, s) candidates evaluated.
    """

    def __init__(self, n: int, dmax: int, diag_sum: float, prune: bool):
        self.lists = prune
        self.scanned = 0
        self.scratch = scratch_floats(n, dmax)
        self.cap = max(dmax - 2, 0) * (n + 1) // _LEAVE
        # Costs come from suffix sums of A and diag; for a PSD kernel every
        # partial sum is bounded by (length) * sum(diag), so the rounding
        # error of any computed cost is below about 2 u n sum(diag). The
        # allowance covers the three costs in the pruning argument.
        self.tau = 8.0 * 2.0**-53 * (n + 4) * diag_sum
        # the lists of rows 2..: starts, cached losses and pruned flags, and
        # each row's offset in them and entry count
        self.cs, self.lc, self.gone = np.empty(0, np.int32), np.empty(0), np.empty(0, bool)
        self.st, self.cnt = np.empty(0, np.intp), np.empty(0, np.intp)
        self.tail = 0  # first start not in the lists (scanned from ell on)

    @staticmethod
    def table_bytes(n: int, dmax: int, prune: bool) -> int:
        """Bytes of the minimiser's tables: the dense scan's scratch and,
        when it prunes, the candidate lists at their cap, 30 bytes an entry
        (an int32 start, a float64 cached loss and a pruned flag, and the
        17 bytes a scan or compaction holds beside each). The lists are gone
        before the scratch is first made, so the larger of the two counts."""
        scratch = 8 * scratch_floats(n, dmax)
        return max(scratch, 30 * (max(dmax - 2, 0) * (n + 1) // _LEAVE)) if prune else scratch

    def minimize(self, L, back, cbuf, e, ell, d_hi):
        """Table update at column e for D = 2..d_hi (requires d_hi >= 2)."""
        lo, hi = ell, e - ell + 1
        if hi <= lo:
            return
        v1 = L[0, lo:hi] + cbuf[lo:hi]
        i1 = int(v1.argmin())
        L[1, e] = v1[i1]
        back[1, e] = i1 + lo
        del v1
        self.scanned += hi - lo
        if d_hi == 2:
            return
        # row 1's loss, then those of rows 2.. and their starts as they
        # finish; L and back get them in one strided write at the end
        best = np.empty(d_hi - 1)
        best[0] = L[1, e]
        best_s = np.empty(d_hi - 2, dtype=np.intp)
        t0 = max(self.tail, lo) if self.lists else lo
        self._block(L, cbuf, t0, hi, best, best_s)
        if self.lists:
            # the lists precede the tail, so they win ties. A start dominated
            # at e may still win until e + ell - 1, so it is only flagged, and
            # the compaction ending the period drops it.
            self._scan(cbuf, (-e) % (_PERIOD + ell - 1) >= ell - 1, best, best_s)
        L[2:d_hi, e] = best[1:]
        back[2:d_hi, e] = best_s
        if self.lists and e % (_PERIOD + ell - 1) == 0:
            self._compact(L, t0, hi, d_hi - 2)

    def _block(self, L, cbuf, t0, hi, best, best_s):
        # rows 2.. over the starts t0..hi-1, in chunks of whole rows: dense,
        # in the scratch and one row add at a time; in list mode, at most
        # n + 1 entries a chunk and one 2-D add each, whose buffers numpy
        # holds at up to twice the chunk
        nr, w = best_s.size, hi - t0
        self.scanned += nr * w
        c = cbuf[t0:hi]
        buf = None if self.lists else np.empty(min(nr * w, self.scratch))
        rows = max(1, L.shape[1] // w) if buf is None else buf.size // w
        for a in range(0, nr, rows):
            b = min(a + rows, nr)
            if buf is None:
                v = L[1 + a : 1 + b, t0:hi] + c
            else:
                v = buf[: (b - a) * w].reshape(b - a, w)
                for i in range(b - a):
                    np.add(L[1 + a + i, t0:hi], c, out=v[i])
            s = v.argmin(axis=1, out=best_s[a:b])
            best[1 + a : 1 + b] = v.ravel().take(s + np.arange(0, v.size, w))
        best_s += t0

    def _scan(self, cbuf, check, best, best_s):
        # every list row in one pass; its temporaries (values, a repeated
        # row minimum or threshold, a mask) go at return
        cs, st, cnt = self.cs, self.st, self.cnt
        nr = st.size
        v = cbuf.take(cs)
        v += self.lc
        self.scanned += v.size
        mins = np.minimum.reduceat(v, st)
        hit = (v == mins.repeat(cnt)).nonzero()[0]
        first = hit[hit.searchsorted(st)]
        del hit
        rows = best[1 : 1 + nr]
        win = mins <= rows
        first = first[win]
        rows[win] = v[first]
        best_s[:nr][win] = cs[first]
        if check:
            # against the previous rows' losses at e, now final
            thr = best[:nr]
            self.gone |= v > (thr + (_REL_MARGIN * np.abs(thr) + self.tau)).repeat(cnt)

    def _compact(self, L, t0, hi, nr):
        # drop the pruned starts, then insert t0..hi-1 at the end of each of
        # rows 2..nr+1; each old list goes as its copy is made
        kt, keep = hi - t0, ~self.gone
        counts = np.zeros(nr, dtype=np.intp)
        counts[: self.st.size] = np.add.reduceat(keep, self.st)
        self.gone = None
        if counts.sum() + nr * kt > self.cap:
            self.lists, self.cs, self.lc = False, None, None
            return
        self.cs = self.cs[keep]
        self.lc = self.lc[keep]
        ends = np.repeat(np.cumsum(counts), kt)
        self.cs = np.insert(self.cs, ends, np.tile(np.arange(t0, hi, dtype=np.int32), nr))
        self.lc = np.insert(self.lc, ends, L[1 : 1 + nr, t0:hi].ravel())
        self.gone = np.zeros(self.cs.size, dtype=bool)
        self.cnt = counts + kt
        self.st = np.cumsum(self.cnt) - self.cnt
        self.tail = hi
