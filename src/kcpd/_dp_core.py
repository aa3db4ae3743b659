"""Table minimisation of the exact segmenter.

At each right boundary e of the sweep, :func:`column_step` updates the loss
table from the cost column C(s, e) it is given: the row for D segments
takes the minimum over starts s in [ell, e - ell] of the row for D - 1 at s
plus C(s, e). For PSD kernels the ``Snip`` class scans only the starts that
SNIP pruning has not ruled out. It forms the same float sums as a full scan
and keeps the first minimum, so the losses and back are bitwise those of
the unpruned minimisation.

The ``Snip`` holds the loss table and back. Row D = 1 is its own n + 1
floats. The rows D >= 2 are read only from column ell on, so they are held
from there, one row for each row of back. While a PSD sweep keeps its
candidate lists, it holds those rows only over the columns since the last
compaction: the lists cache every older loss it still reads. So such a
sweep holds about n + Dmax(_PERIOD + 2 ell) losses in place of
Dmax(n + 1), and the sweep's result keeps only the last column.

Infeasible dynamic-programming cells hold inf. The minimisation only adds
finite costs to entries of L and compares the sums, so an infeasible
candidate loses to every feasible one at any magnitude. Code here must
never subtract two entries of L: inf - inf is NaN, and a NaN in the table
would win or lose comparisons at random.
"""

from __future__ import annotations

import numpy as np


def back_dtype(n: int) -> np.dtype:
    """Back-pointer dtype for a signal of n points: the narrowest that holds
    every start 0..n, 16-bit below 65536 points and 32-bit above."""
    return np.dtype(np.uint16 if n <= np.iinfo(np.uint16).max else np.int32)


def _aligned_empty(size: int) -> np.ndarray:
    """``size`` uninitialised floats from a 64-byte boundary on. numpy adds
    in whole SIMD vectors, 64 bytes with AVX-512, and stores that straddle
    two cache lines made an add and argmin over 12000 floats take 8.6 µs
    against 5.2 µs aligned (AVX-512 Xeon, numpy 2.4)."""
    buf = np.empty(size + 7)
    a = (-buf.ctypes.data % 64) // 8
    return buf[a : a + size]


def column_step(cbuf, e, ell, dmax, snip):
    """Update the loss table at column e >= ell from its cost column.

    ``cbuf[s]`` is C(s, e) for s = 0..e-ell, finite; ``snip`` is the
    sweep's :class:`Snip`, which holds the table and back."""
    snip.L0[e] = cbuf[0]
    d_hi = min(e // ell, dmax)
    if d_hi >= 2:
        snip.minimize(cbuf, e, d_hi)


# ---------------------------------------------------------------------------
# SNIP pruning of the table minimisation
#
# Write L(D, e) for the loss of D segments over the first e points. At
# column e, L(D, e) is the minimum over starts s of L(D-1, s) + C(s, e). For
# a positive semi-definite kernel the within-segment scatter is
# superadditive, C(s, e') >= C(s, e) + C(e, e') for s < e < e', so once
# L(D-1, s) + C(s, e) > L(D-1, e) the start e beats s at every column
# e' >= e + ell, where e itself becomes a candidate; s can never again be
# the (first) argmin for D and is dropped from then on (Maidstone, Hocking,
# Rigaill & Fearnhead, Stat. Comput. 2017). Every value still compared is
# the same float sum a full scan forms, so L and back are bitwise those of
# the unpruned minimisation.
#
# D = 2 never prunes: C(0, s) + C(s, e) <= C(0, e) = L(1, e). It is scanned
# as one contiguous slice. D >= 3 is scanned in one of two modes.
# - Lists, for a PSD kernel from its first column: flat, row-ordered lists
#   of the live starts below the "tail", with L(D-1, s) cached beside them,
#   and every start from the tail on scanned as one block. The lists start
#   empty with the tail at ell, so at first every start is live. Each
#   period the lists drop their pruned starts and take in the block's. A
#   column scans the lists whole and a compaction copies them, each with at
#   most 17 bytes an entry of temporaries beside the lists' 13. The block
#   is added in chunks of rows of at most n + 1 entries. The rows D >= 2
#   are read only from the tail on, so they are held over the columns from
#   the tail to the next compaction, which moves them to its new tail.
# - Dense, for other kernels and for the rest of a PSD sweep once a
#   compaction would keep more than the lists' cap: every start, one row at
#   a time, like D = 2, in one buffer of n + 1 floats made once per sweep
#   and aligned to 64 bytes. The rows D >= 2 hold every column from ell on.
#   A sweep that leaves its lists fills them from the lists' cached losses
#   and the columns held; its pruned starts read inf, and as they can never
#   win or tie, the minima stay those of the lists.
# Rows are scanned in order and a row's lists precede its tail, so each
# first minimum is that of one scan over all the row's starts.

# Every period of _PERIOD + ell - 1 columns the lists are compacted; prunes
# decided in the first _PERIOD columns of a period take effect by its end,
# so only those columns test for them.
_PERIOD = 16
# the lists' cap, counted in the tables, is 1/_LEAVE of the cells of rows
# D >= 3; a compaction that would keep more ends list mode
_LEAVE = 10
# prune only when L(D-1, s) + C(s, e) exceeds L(D-1, e) by this relative
# margin plus a roundoff allowance for the costs (see Snip.__init__)
_REL_MARGIN = 2e-9


class Snip:
    """Minimiser of one exact sweep, and holder of its loss table and back.

    With ``prune`` (kernels known to be PSD) the sweep starts in list mode
    and stays there until a compaction would keep more than the lists' cap,
    then scans densely to its end; without it every column is dense.
    ``L0[e]`` is L(1, e). ``L[i, e - off]`` is L(i + 2, e) and ``back[i, e]``
    the start of its last segment; ``L`` holds ``window_width`` columns
    from ``off`` on, and ``off`` starts at ell. ``scanned`` counts the
    (row, s) candidates evaluated.
    """

    def __init__(self, n: int, dmax: int, ell: int, diag_sum: float, prune: bool):
        self.lists = prune and dmax > 2
        self.ell = ell
        self.scanned = 0
        self.cap = max(dmax - 2, 0) * (n + 1) // _LEAVE
        # Costs come from suffix sums of A and diag; for a PSD kernel every
        # partial sum is bounded by (length) * sum(diag), so the rounding
        # error of any computed cost is below about 2 u n sum(diag). The
        # allowance covers the three costs in the pruning argument.
        self.tau = 8.0 * 2.0**-53 * (n + 4) * diag_sum
        # the lists of rows D >= 3: starts, cached losses and pruned flags,
        # and each row's offset in them and entry count
        self.cs, self.lc, self.gone = np.empty(0, np.int32), np.empty(0), np.empty(0, bool)
        self.st, self.cnt = np.empty(0, np.intp), np.empty(0, np.intp)
        self.tail = 0  # first start not in the lists (scanned from ell on)
        # the dense rows' buffer, aligned for the adds into it; a PSD sweep
        # makes it when it drops its lists
        self.row = None if self.lists or dmax <= 2 else _aligned_empty(n + 1)
        self.L0 = np.full(n + 1, np.inf)
        self.L = np.full((dmax - 1, self.window_width(n, ell, self.lists)), np.inf)
        self.off = ell
        # D = 1 has no start to hold
        self.back = np.zeros((dmax - 1, n + 1), dtype=back_dtype(n))

    @staticmethod
    def window_width(n: int, ell: int, lists: bool) -> int:
        """Columns a sweep holds of the rows D >= 2: every column from ell
        on, n + 1 - ell, or in list mode at most those from the tail to the
        next compaction: _PERIOD + 2 ell - 1, and before the first
        compaction (at the first multiple of the period from 3 ell on) the
        columns from ell to it."""
        period = _PERIOD + ell - 1
        width = max(period + ell, -(-3 * ell // period) * period - ell + 1)
        return min(width, n + 1 - ell) if lists else n + 1 - ell

    @staticmethod
    def table_bytes(n: int, dmax: int, prune: bool) -> int:
        """Bytes of the minimiser's scan tables: the dense rows' buffer of
        n + 1 floats when dmax > 2 and, when it prunes, the candidate lists
        at their cap, 30 bytes an entry (an int32 start, a float64 cached
        loss and a pruned flag, and the 17 bytes a scan or compaction holds
        beside each). The lists are gone before the buffer is made, so the
        larger of the two counts."""
        row = 8 * (n + 1) if dmax > 2 else 0
        return max(row, 30 * (max(dmax - 2, 0) * (n + 1) // _LEAVE)) if prune else row

    def column(self, e: int) -> np.ndarray:
        """The table's column e, L(1..Dmax, e); e must lie in the columns held."""
        return np.concatenate(([self.L0[e]], self.L[:, e - self.off]))

    def minimize(self, cbuf, e, d_hi):
        """Table update at column e for D = 2..d_hi (requires d_hi >= 2)."""
        lo, hi = self.ell, e - self.ell + 1
        self._rows(cbuf, e, lo, hi, 2 if self.lists else d_hi)
        if not self.lists or d_hi == 2:
            return
        t0 = max(self.tail, lo)
        self._block(cbuf, e, t0, hi, d_hi - 2)
        # the lists precede the tail, so they win ties. A start dominated at
        # e may still win until e + ell - 1, so it is only flagged, and the
        # compaction ending the period drops it.
        self._scan(cbuf, e, (-e) % (_PERIOD + self.ell - 1) >= self.ell - 1)
        if e % (_PERIOD + self.ell - 1) == 0:
            self._compact(t0, hi, d_hi - 2)

    def _rows(self, cbuf, e, lo, hi, d_end):
        # D = 2..d_end over every start lo..hi-1, one row at a time, in the
        # dense rows' buffer or, in list mode or at dmax <= 2, a temporary.
        # The rows D >= 2 are read here only by dense scans, which hold
        # them from column lo = ell on.
        c = cbuf[lo:hi]
        out = None if self.row is None else self.row[: hi - lo]
        self.scanned += (d_end - 1) * (hi - lo)
        L, back, k, prev = self.L, self.back, e - self.off, self.L0[lo:hi]
        for i in range(d_end - 1):
            v = np.add(prev, c, out=out)
            j = int(v.argmin())
            L[i, k] = v[j]
            back[i, e] = j + lo
            prev = L[i, : hi - lo]

    def _block(self, cbuf, e, t0, hi, nr):
        # list mode's D = 3..nr+2 over the starts t0..hi-1, in chunks of
        # whole rows of at most n + 1 entries and one 2-D add each, whose
        # buffers numpy holds at up to twice the chunk
        w = hi - t0
        self.scanned += nr * w
        c = cbuf[t0:hi]
        L, a0, k = self.L, t0 - self.off, e - self.off
        rows = max(1, self.L0.size // w)
        for a in range(0, nr, rows):
            b = min(a + rows, nr)
            v = L[a:b, a0 : a0 + w] + c
            s = v.argmin(axis=1)
            L[1 + a : 1 + b, k] = v.ravel().take(s + np.arange(0, v.size, w))
            self.back[1 + a : 1 + b, e] = s + t0

    def _scan(self, cbuf, e, check):
        # every list row in one pass; its temporaries (values, a repeated
        # row minimum or threshold, a mask) go at return
        cs, st, cnt = self.cs, self.st, self.cnt
        L, nr, k = self.L, st.size, e - self.off
        v = cbuf.take(cs)
        v += self.lc
        self.scanned += v.size
        mins = np.minimum.reduceat(v, st)
        hit = (v == mins.repeat(cnt)).nonzero()[0]
        first = hit[hit.searchsorted(st)]
        del hit
        win = mins <= L[1 : 1 + nr, k]
        first = first[win]
        L[1 : 1 + nr, k][win] = v[first]
        self.back[1 : 1 + nr, e][win] = cs[first]
        if check:
            # against the previous rows' losses at e, now final
            thr = L[:nr, k]
            self.gone |= v > (thr + (_REL_MARGIN * np.abs(thr) + self.tau)).repeat(cnt)

    def _compact(self, t0, hi, nr):
        # drop the pruned starts and put t0..hi-1 at the end of the lists
        # of D = 3..nr+2: each row's kept entries go through a mask into
        # their new place, then its kt new starts after them; each old list
        # goes as its successor is made
        kt, keep = hi - t0, ~self.gone
        counts = np.zeros(nr, dtype=np.intp)
        counts[: self.st.size] = np.add.reduceat(keep, self.st)
        self.gone = None
        size = int(counts.sum()) + nr * kt
        if size > self.cap:
            self._widen(keep)
            self.lists, self.cs, self.lc = False, None, None
            self.row = _aligned_empty(self.L0.size)
            return
        self.cnt = counts + kt
        self.st = np.cumsum(self.cnt) - self.cnt
        new = (self.st + counts).repeat(kt) + np.tile(np.arange(kt), nr)
        kept_at = np.ones(size, dtype=bool)
        kept_at[new] = False
        L, a0 = self.L, t0 - self.off
        lc = np.empty(size)
        lc[kept_at] = self.lc[keep]
        lc[new] = L[:nr, a0 : a0 + kt].ravel()
        self.lc = lc
        cs = np.empty(size, dtype=np.int32)
        cs[kept_at] = self.cs[keep]
        cs[new] = np.tile(np.arange(t0, hi, dtype=np.int32), nr)
        self.cs = cs
        self.gone = np.zeros(size, dtype=bool)
        self.tail = hi
        # the columns held move to start at the new tail; those they take
        # in have not been reached, so they hold inf
        k = hi - self.off
        L[:, : L.shape[1] - k] = L[:, k:]
        L[:, L.shape[1] - k :] = np.inf
        self.off = hi

    def _widen(self, keep):
        # the rows D >= 2 from column ell on for the dense scan: inf, then
        # each list row's cached losses (the list of D caches D - 1) at its
        # live starts, then the columns held
        ell, n1 = self.ell, self.L0.size
        full = np.full((self.L.shape[0], n1 - ell), np.inf)
        for i, (a, m) in enumerate(zip(self.st, self.cnt)):
            live = keep[a : a + m]
            full[i, self.cs[a : a + m][live] - ell] = self.lc[a : a + m][live]
        w = min(self.L.shape[1], n1 - self.off)
        full[:, self.off - ell : self.off - ell + w] = self.L[:, :w]
        self.L, self.off = full, ell
