"""Table minimisation of the exact segmenter.

At each right boundary e of the sweep, :func:`column_step` updates the loss
table from the cost column C(s, e) it is given: row r (D = r + 1 segments)
takes the minimum over starts s in [ell, e - ell] of L[r-1, s] + C(s, e).
For PSD kernels the ``Snip`` class scans only the starts that SNIP pruning
has not ruled out. It forms the same float sums as a full scan and keeps
the first minimum, so L and back are bitwise those of the unpruned
minimisation.

The ``Snip`` holds the loss table. While a PSD sweep keeps its candidate
lists, it holds row 0 whole and rows 1.. only over the columns since the
last compaction: the lists cache every older loss it still reads. So such
a sweep holds about n + Dmax(_PERIOD + 2 ell) losses in place of
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


def column_step(back, cbuf, e, ell, dmax, snip):
    """Update the loss table at column e >= ell from its cost column.

    ``cbuf[s]`` is C(s, e) for s = 0..e-ell, finite; ``snip`` is the
    sweep's :class:`Snip`, which holds the table. ``back[r - 1, e]`` takes
    the start of the last segment of row r's minimum, for r >= 1."""
    snip.L0[e] = cbuf[0]
    d_hi = min(e // ell, dmax)
    if d_hi >= 2:
        snip.minimize(back, cbuf, e, ell, d_hi)


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
#   is added in chunks of rows of at most n + 1 entries. Rows 1.. of the
#   table are read only from the tail on, so they are held as a window over
#   the columns from the tail to the next compaction, which moves the
#   window to its new tail.
# - Dense, for other kernels and for the rest of a PSD sweep once a
#   compaction would keep more than the lists' cap: every start, one row at
#   a time, like row 1, in one buffer of n + 1 floats made once per sweep
#   and aligned to 64 bytes.
#   The table is whole. A sweep that leaves its lists fills it from row 0,
#   the lists' cached losses and the window; its pruned starts read inf,
#   and as they can never win or tie, the minima stay those of the lists.
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


class Snip:
    """Minimiser of one exact sweep, and holder of its loss table.

    With ``prune`` (kernels known to be PSD) the sweep starts in list mode
    and stays there until a compaction would keep more than the lists' cap,
    then scans densely to its end; without it every column is dense.
    ``L0`` is row 0 of the table and ``L`` its rows, column e at
    ``e - off``: a window in list mode (its row 0 unused), the whole table
    with ``L0`` its row 0 otherwise. ``scanned`` counts the (row, s)
    candidates evaluated.
    """

    def __init__(self, n: int, dmax: int, ell: int, diag_sum: float, prune: bool):
        self.lists = prune and dmax > 2
        self.scanned = 0
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
        # the dense rows' buffer, aligned for the adds into it; a PSD sweep
        # makes it when it drops its lists
        self.row = None if self.lists or dmax <= 2 else _aligned_empty(n + 1)
        width = self.window_width(n, dmax, ell, self.lists)
        if width <= n:
            # the window starts at the first start a block reads
            self.L0, self.L, self.off = np.full(n + 1, np.inf), np.full((dmax, width), np.inf), ell
        else:
            self.L, self.off = np.full((dmax, n + 1), np.inf), 0
            self.L0 = self.L[0]

    @staticmethod
    def window_width(n: int, dmax: int, ell: int, lists: bool) -> int:
        """Columns of the window a sweep in list mode holds of rows 1..,
        or n + 1 where it holds the whole table: without lists, or where a
        window and row 0 would hold no fewer losses.

        The window spans the columns from the tail to the next compaction:
        _PERIOD + 2 ell - 1, and before the first compaction (at the first
        multiple of the period from 3 ell on) the columns from ell to it."""
        period = _PERIOD + ell - 1
        width = max(period + ell, -(-3 * ell // period) * period - ell + 1)
        return width if lists and dmax * width < (dmax - 1) * (n + 1) else n + 1

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

    def windowed(self) -> bool:
        """Whether rows 1.. of the table are held as a window."""
        return self.L.shape[1] < self.L0.size

    def loss_bytes(self) -> int:
        """Bytes of the loss table as held: row 0 and the window, or the whole table."""
        return self.L.nbytes + (self.L0.nbytes if self.windowed() else 0)

    def column(self, e: int) -> np.ndarray:
        """A copy of the table's column e, which must lie in the window."""
        col = self.L[:, e - self.off].copy()
        col[0] = self.L0[e]
        return col

    def minimize(self, back, cbuf, e, ell, d_hi):
        """Table update at column e for D = 2..d_hi (requires d_hi >= 2)."""
        lo, hi = ell, e - ell + 1
        self._rows(back, cbuf, e, lo, hi, 2 if self.lists else d_hi)
        if not self.lists or d_hi == 2:
            return
        t0 = max(self.tail, lo)
        self._block(back, cbuf, e, t0, hi, d_hi - 2)
        # the lists precede the tail, so they win ties. A start dominated at
        # e may still win until e + ell - 1, so it is only flagged, and the
        # compaction ending the period drops it.
        self._scan(back, cbuf, e, (-e) % (_PERIOD + ell - 1) >= ell - 1)
        if e % (_PERIOD + ell - 1) == 0:
            self._compact(t0, hi, d_hi - 2)

    def _rows(self, back, cbuf, e, lo, hi, r_end):
        # rows 1..r_end-1 over every start lo..hi-1, one row at a time, in the
        # dense rows' buffer or, in list mode or at dmax <= 2, a temporary.
        # Rows 1.. are read here only by dense scans, whose table is whole.
        c = cbuf[lo:hi]
        out = None if self.row is None else self.row[: hi - lo]
        self.scanned += (r_end - 1) * (hi - lo)
        L, k, prev = self.L, e - self.off, self.L0[lo:hi]
        for r in range(1, r_end):
            v = np.add(prev, c, out=out)
            i = int(v.argmin())
            L[r, k] = v[i]
            back[r - 1, e] = i + lo
            prev = L[r, lo:hi]

    def _block(self, back, cbuf, e, t0, hi, nr):
        # list mode's rows 2..nr+1 over the starts t0..hi-1, in chunks of
        # whole rows of at most n + 1 entries and one 2-D add each, whose
        # buffers numpy holds at up to twice the chunk
        w = hi - t0
        self.scanned += nr * w
        c = cbuf[t0:hi]
        L, a0, k = self.L, t0 - self.off, e - self.off
        rows = max(1, self.L0.size // w)
        for a in range(0, nr, rows):
            b = min(a + rows, nr)
            v = L[1 + a : 1 + b, a0 : a0 + w] + c
            s = v.argmin(axis=1)
            L[2 + a : 2 + b, k] = v.ravel().take(s + np.arange(0, v.size, w))
            back[1 + a : 1 + b, e] = s + t0

    def _scan(self, back, cbuf, e, check):
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
        win = mins <= L[2 : 2 + nr, k]
        first = first[win]
        L[2 : 2 + nr, k][win] = v[first]
        back[1 : 1 + nr, e][win] = cs[first]
        if check:
            # against the previous rows' losses at e, now final
            thr = L[1 : 1 + nr, k]
            self.gone |= v > (thr + (_REL_MARGIN * np.abs(thr) + self.tau)).repeat(cnt)

    def _compact(self, t0, hi, nr):
        # drop the pruned starts and put t0..hi-1 at the end of each of rows
        # 2..nr+1: each row's kept entries go through a mask into its new
        # place, then its kt new starts after them; each old list goes as
        # its successor is made
        kt, keep = hi - t0, ~self.gone
        counts = np.zeros(nr, dtype=np.intp)
        counts[: self.st.size] = np.add.reduceat(keep, self.st)
        self.gone = None
        size = int(counts.sum()) + nr * kt
        if size > self.cap:
            if self.windowed():
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
        lc[new] = L[1 : 1 + nr, a0 : a0 + kt].ravel()
        self.lc = lc
        cs = np.empty(size, dtype=np.int32)
        cs[kept_at] = self.cs[keep]
        cs[new] = np.tile(np.arange(t0, hi, dtype=np.int32), nr)
        self.cs = cs
        self.gone = np.zeros(size, dtype=bool)
        self.tail = hi
        if self.windowed():
            # the window moves to start at the new tail; the columns it
            # takes in have not been reached, so they hold inf
            k = hi - self.off
            L[:, : L.shape[1] - k] = L[:, k:]
            L[:, L.shape[1] - k :] = np.inf
            self.off = hi

    def _widen(self, keep):
        # the whole table for the dense scan: inf, then row 0, then each list
        # row's cached losses (list row r caches table row r - 1) at its live
        # starts, then the window's columns. The old row 0 goes once copied.
        n1 = self.L0.size
        full = np.full((self.L.shape[0], n1), np.inf)
        full[0] = self.L0
        self.L0 = full[0]
        for i, (a, m) in enumerate(zip(self.st, self.cnt)):
            live = keep[a : a + m]
            full[1 + i, self.cs[a : a + m][live]] = self.lc[a : a + m][live]
        w = min(self.L.shape[1], n1 - self.off)
        full[1:, self.off : self.off + w] = self.L[1:, :w]
        self.L, self.off = full, 0
