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
# scanned as one contiguous slice. Rows 2.. may keep flat, row-ordered lists
# of surviving starts with L[r-1, s] cached beside them; every start not in
# the lists (from the "tail" on) is scanned as one block. With no lists the
# tail is ell, so the block covers every start: that is the dense mode.
# In dense mode the block is formed in chunks of whole rows inside one
# scratch buffer of at most scratch_floats(n, dmax) floats, rows in order,
# so each row's sums and first minimum are those of a scan of the whole
# block; with lists the block is at most _PERIOD + 2 ell columns wide.

# Every period of _PERIOD + ell - 1 columns the lists are compacted (dense
# mode probes instead); prunes decided in the first _PERIOD columns of a
# period take effect by its end, so only those columns test for them.
_PERIOD = 16
# a dense-mode probe builds lists when at most 1/_ENTER of the cells of
# rows 2.. survive; a compaction drops the lists when more than 1/_LEAVE
# would be kept (the lists' cap, counted in the tables)
_ENTER = 8
_LEAVE = 4
# prune only when L[r-1, s] + C(s, e) exceeds L[r-1, e] by this relative
# margin plus a roundoff allowance for the costs (see Snip.__init__)
_REL_MARGIN = 2e-9


def scratch_floats(n: int, dmax: int) -> int:
    """Floats of the block scratch: whole rows of n + 1, as many as fit
    beside a probe's survivors (12 bytes for each of up to 1/_ENTER of the
    block's cells) within the candidate lists' cap (13 bytes for each of up
    to 1/_LEAVE of them); at least one and at most the dmax - 2 rows of the
    block. Below 65536 points that is within the room the 16-bit
    back-pointers free."""
    cells = max(dmax - 2, 0) * (n + 1)
    rows = (13 * (cells // _LEAVE) - 12 * (cells // _ENTER)) // (8 * (n + 1))
    return min(max(dmax - 2, 0), max(1, rows)) * (n + 1)


class Snip:
    """Minimiser state for one exact sweep.

    Starts with no lists (dense: every start scanned), builds lists when a
    probe finds few survivors and drops them when they grow past their
    cap; with ``prune`` False (kernels not known to be PSD) it never builds
    any. ``scanned`` counts the (row, s) candidates evaluated.
    """

    def __init__(self, n: int, dmax: int, diag_sum: float, prune: bool):
        self.prune = prune
        self.scanned = 0
        self.scratch = scratch_floats(n, dmax)
        # Costs come from suffix sums of A and diag; for a PSD kernel every
        # partial sum is bounded by (length) * sum(diag), so the rounding
        # error of any computed cost is below about 2 u n sum(diag). The
        # allowance covers the three costs in the pruning argument.
        self.tau = 8.0 * 2.0**-53 * (n + 4) * diag_sum
        self.pending = None  # (lists, column after which they take over)
        self._drop_lists()

    @staticmethod
    def table_bytes(n: int, dmax: int, prune: bool) -> int:
        """Bytes of the minimiser's tables: the block scratch and, when it
        prunes, the candidate lists at their cap, the most entries they
        hold between compactions (an int32 start, a float64 cached loss and
        a pruned flag per entry). The scratch fills only in dense mode,
        where the lists are empty but for a probe's survivors (at most
        1/_ENTER of the block's cells, 12 bytes each), so the lists' cap
        and the scratch with those survivors share one allowance."""
        if not prune:
            return 8 * scratch_floats(n, dmax)
        cells = max(dmax - 2, 0) * (n + 1)
        return max(13 * (cells // _LEAVE), 8 * scratch_floats(n, dmax) + 12 * (cells // _ENTER))

    def _drop_lists(self):
        self.cs = self.lc = self.gone = self.counts = self.starts = None
        self.m = 0  # rows held in the lists: rows 2..m+1
        self.tail = 0  # first start not in the lists (scanned from ell on)

    def _cut(self, thr):
        # pruning thresholds of the rows after those whose losses are thr
        return thr + (_REL_MARGIN * np.abs(thr) + self.tau)

    def minimize(self, L, back, cbuf, e, ell, d_hi):
        """Table update at column e for D = 2..d_hi (requires d_hi >= 2)."""
        lo, hi = ell, e - ell + 1
        if hi <= lo:
            return
        v1 = L[0, lo:hi] + cbuf[lo:hi]
        i1 = int(v1.argmin())
        L[1, e] = v1[i1]
        back[1, e] = i1 + lo
        m = self.m
        if not m:
            self._dense(L, back, cbuf, e, ell, d_hi)
            return
        # the block from the tail on is at most _PERIOD + 2 ell columns wide
        t0 = max(self.tail, lo)
        tv = L[1 : d_hi - 1, t0:hi] + cbuf[t0:hi]
        best_s = tv.argmin(axis=1)
        best = tv.ravel().take(best_s + np.arange(0, tv.size, tv.shape[1]))
        best_s += t0
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
        period = _PERIOD + ell - 1
        if (-e) % period >= ell - 1:
            self.gone |= v > self._cut(L[1 : m + 1, e]).repeat(self.counts)
        if e % period == 0:
            del v  # before the compaction copies the lists
            self._compact(L, lo, hi, d_hi - 2)

    def _dense(self, L, back, cbuf, e, ell, d_hi):
        # rows 2.. over every start, in chunks of whole rows in the scratch,
        # one row add at a time (numpy buffers a 2-D add of short rows
        # outside the scratch); a probe reads them chunk by chunk
        lo, hi = ell, e - ell + 1
        nr, w = d_hi - 2, hi - lo
        self.scanned += w + nr * w
        probe = self.pending is None and self.prune and e % (_PERIOD + ell - 1) == 0
        found, room = ([], nr * w // _ENTER) if probe else (None, 0)
        # row 1's loss, then each row's minimum and its start as the chunks
        # finish; L and back get them in one strided write at the end
        best = np.empty(nr + 1)
        best[0] = L[1, e]
        best_s = np.empty(nr, dtype=np.intp)
        if nr:
            c = cbuf[lo:hi]
            buf = np.empty(min(nr * w, self.scratch))
            rows = buf.size // w
            for a in range(0, nr, rows):
                b = min(a + rows, nr)
                v = buf[: (b - a) * w].reshape(b - a, w)
                for i in range(b - a):
                    np.add(L[1 + a + i, lo:hi], c, out=v[i])
                s = v.argmin(axis=1, out=best_s[a:b])
                best[1 + a : 1 + b] = v.ravel().take(s + np.arange(0, v.size, w))
                if found is not None:
                    room = self._survivors(L, v, best[a:b], a, lo, room, found)
                    if room is None:
                        found = None
            del buf, v
            best_s += lo
        L[2:d_hi, e] = best[1:]
        back[2:d_hi, e] = best_s
        if found:
            # a dominated start may still win until e + ell - 1, so lists
            # built from the survivors take over only after that column
            counts = np.array([p[0].size for p in found])
            cs, lc = (np.concatenate(p) for p in zip(*found))
            del found
            self.pending = ((cs, lc, counts, hi), e + ell - 1)
        if self.pending is not None and e >= self.pending[1]:
            self._set_lists(*self.pending[0])
            self.pending = None

    def _survivors(self, L, v, prev, a, lo, room, found):
        # rows 2+a.. of the dense block, whose previous rows' losses at this
        # column are prev: appends each row's surviving starts and their
        # cached losses to found, row by row, and returns the room left, or
        # None when more than room of them survive; v becomes the mask
        np.less_equal(v, self._cut(prev)[:, None], out=v)
        v[:, -1] = 1.0  # no row starts empty
        room -= np.count_nonzero(v)
        if room < 0:
            return None
        for i in range(v.shape[0]):
            s = v[i].nonzero()[0]
            s += lo
            found.append((s.astype(np.int32), L[a + i + 1, s]))
        return room

    def _set_lists(self, cs, lc, counts, tail):
        self.cs, self.lc, self.counts = cs, lc, counts
        self.gone = np.zeros(cs.size, dtype=bool)
        self.starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.m = counts.size
        self.tail = tail

    def _compact(self, L, lo, hi, nr):
        # drop the pruned starts and append the tail to rows 2..nr+1
        keep = np.logical_not(self.gone, out=self.gone)
        kept = np.add.reduceat(keep, self.starts, dtype=np.int64)
        kt = hi - self.tail
        if (int(kept.sum()) + nr * kt) * _LEAVE > nr * (hi - lo):
            self._drop_lists()
            return
        counts = np.zeros(nr, dtype=np.int64)
        counts[: self.m] = kept
        at = np.repeat(np.cumsum(counts), kt)
        new = np.arange(self.tail, hi, dtype=np.int32)
        # one list at a time, so each old one goes as its new one is made
        self.cs = np.insert(self.cs[keep], at, np.tile(new, nr))
        self.lc = np.insert(self.lc[keep], at, L[1 : nr + 1, self.tail : hi].ravel())
        self._set_lists(self.cs, self.lc, counts + kt, hi)
