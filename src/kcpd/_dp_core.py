"""Low-level column recurrence and table-minimization kernels.

The exact segmenter sweeps a right boundary e = 1..n, maintaining

    A[i] = -k(X_i, X_i) + 2 * sum_{j=i}^{e-1} k(X_i, X_j)   for i < e,

so that the cost of a segment [s, e) is

    cost(s, e) = sum_{i=s}^{e-1} diag[i] - (sum_{i=s}^{e-1} A[i]) / (e - s).

Each function here exists twice: a numba-compiled version and a pure numpy
version with identical sequential semantics (same operation order, same
first-index tie-breaking), so results are bit-identical across both paths.
Set KCPD_DISABLE_JIT=1 to force the fallback.

The table minimisation differs in what it scans, not in what it computes.
The numpy path prunes candidate starts for PSD kernels (SNIP, see the
``Snip`` class) and scans only the survivors; the compiled path always
scans every candidate. Both form the same float sums and keep the first
minimum, so L and back are bitwise identical either way.

Infeasible dynamic-programming cells hold the finite sentinel BIG rather
than inf, and minimization accumulators start from a finite ceiling, so
the compiled kernels never consume non-finite values and can be compiled
with value-safe fastmath flags (no reassociation on the compensated
sums).
"""

from __future__ import annotations

import math
import os

import numpy as np

BIG = 1e300
BIG_CUTOFF = 1e250
_CHUNK = 256

_DISABLED = bool(os.environ.get("KCPD_DISABLE_JIT"))

try:
    if _DISABLED:
        raise ImportError("jit disabled by KCPD_DISABLE_JIT")
    import numba

    HAVE_JIT = True
except ImportError:  # pragma: no cover - environment dependent
    numba = None
    HAVE_JIT = False


# ---------------------------------------------------------------------------
# numpy reference implementations


def _kahan_update_np(A, comp, kcol, m):
    # A[:m] += 2 * kcol[:m], compensated
    if m <= 0:
        return
    y = 2.0 * kcol[:m] - comp[:m]
    t = A[:m] + y
    comp[:m] = (t - A[:m]) - y
    A[:m] = t


def _cost_column_np(A, diag, cbuf, e, ell):
    # writes cost(s, e) into cbuf[s] for s in [0, e - ell]; suffix sums are
    # accumulated right to left so short segments never difference large
    # running totals
    hi = e - ell + 1
    if hi <= 0:
        return
    acc_a = np.cumsum(A[e - 1 :: -1])
    acc_d = np.cumsum(diag[e - 1 :: -1])
    lens = np.arange(e, e - hi, -1, dtype=np.float64)
    cbuf[:hi] = acc_d[e - hi : e][::-1] - acc_a[e - hi : e][::-1] / lens


def _dp_minimize_np(L, back, cbuf, e, ell, d_hi):
    # for D = 2..d_hi: L[D-1, e] = min over s of L[D-2, s] + cbuf[s],
    # s in [ell, e - ell]; first (smallest) s wins ties. Returns the slab of
    # candidate values, or None when there is nothing to minimise.
    hi = e - ell + 1
    lo = ell
    if d_hi < 2 or hi <= lo:
        return None
    slab = L[0 : d_hi - 1, lo:hi] + cbuf[lo:hi]
    idx = np.argmin(slab, axis=1)
    L[1:d_hi, e] = slab[np.arange(d_hi - 1), idx]
    back[1:d_hi, e] = idx + lo
    return slab


def _column_step_np(L, back, A, comp, diag, buf, e, ell, dmax, snip):
    # buf[:e-1] holds k(X_i, X_{e-1}) on entry (e >= 2); it is consumed by
    # the compensated update and then reused for the cost column
    if e >= 2:
        _kahan_update_np(A, comp, buf, e - 1)
        A[e - 1] = diag[e - 1]
        comp[e - 1] = 0.0
    else:
        A[0] = diag[0]
    if e < ell:
        return
    _cost_column_np(A, diag, buf, e, ell)
    L[0, e] = buf[0]
    # cost(0, e) sums every A[:e] and diag[:e], so a non-finite value
    # anywhere shows here; the caller reports it
    if not math.isfinite(buf[0]):
        return
    d_hi = min(e // ell, dmax)
    if d_hi >= 2:
        snip.minimize(L, back, buf, e, ell, d_hi)


# ---------------------------------------------------------------------------
# SNIP pruning of the numpy minimisation
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
    """Minimiser state for one exact sweep on the numpy path.

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
            slab = _dp_minimize_np(L, back, cbuf, e, ell, d_hi)
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


# ---------------------------------------------------------------------------
# numba fast path

if HAVE_JIT:
    _VALUE_SAFE = {"nnan", "nsz", "reassoc"}

    @numba.njit(cache=True, fastmath=False)
    def _kahan_update_jit(A, comp, kcol, m):  # pragma: no cover - jit
        for i in range(m):
            y = 2.0 * kcol[i] - comp[i]
            t = A[i] + y
            comp[i] = (t - A[i]) - y
            A[i] = t

    @numba.njit(cache=True, fastmath=False)
    def _cost_column_jit(A, diag, cbuf, e, ell):  # pragma: no cover - jit
        hi = e - ell + 1
        if hi <= 0:
            return
        acc_a = 0.0
        acc_d = 0.0
        for i in range(e - 1, -1, -1):
            acc_a += A[i]
            acc_d += diag[i]
            if i < hi:
                cbuf[i] = acc_d - acc_a / (e - i)

    @numba.njit(cache=True, fastmath=_VALUE_SAFE)
    def _dp_minimize_jit(L, back, cbuf, e, ell, d_hi, cmins):  # pragma: no cover - jit
        hi = e - ell + 1
        lo = ell
        if d_hi < 2 or hi <= lo:
            return
        nch = (hi - lo + _CHUNK - 1) // _CHUNK
        r = 1
        # rows processed four at a time for memory-level parallelism; chunk
        # minima keep the argmin re-scan to a single short chunk per row
        while r + 4 <= d_hi:
            p0 = L[r - 1]
            p1 = L[r]
            p2 = L[r + 1]
            p3 = L[r + 2]
            for ci in range(nch):
                s0 = lo + ci * _CHUNK
                s1 = min(s0 + _CHUNK, hi)
                b0 = BIG
                b1 = BIG
                b2 = BIG
                b3 = BIG
                for s in range(s0, s1):
                    v = cbuf[s]
                    b0 = min(b0, p0[s] + v)
                    b1 = min(b1, p1[s] + v)
                    b2 = min(b2, p2[s] + v)
                    b3 = min(b3, p3[s] + v)
                cmins[0, ci] = b0
                cmins[1, ci] = b1
                cmins[2, ci] = b2
                cmins[3, ci] = b3
            for j in range(4):
                prev = L[r - 1 + j]
                best = BIG
                for ci in range(nch):
                    if cmins[j, ci] < best:
                        best = cmins[j, ci]
                bi = lo
                for ci in range(nch):
                    if cmins[j, ci] == best:
                        s0 = lo + ci * _CHUNK
                        s1 = min(s0 + _CHUNK, hi)
                        for s in range(s0, s1):
                            if prev[s] + cbuf[s] == best:
                                bi = s
                                break
                        break
                L[r + j, e] = best
                back[r + j, e] = bi
            r += 4
        while r < d_hi:
            prev = L[r - 1]
            best = BIG
            bi = lo
            for s in range(lo, hi):
                v = prev[s] + cbuf[s]
                if v < best:
                    best = v
                    bi = s
            L[r, e] = best
            back[r, e] = bi
            r += 1

    @numba.njit(cache=True, fastmath=False)
    def _column_step_jit(L, back, A, comp, diag, buf, cmins, e, ell, dmax):  # pragma: no cover - jit
        if e >= 2:
            _kahan_update_jit(A, comp, buf, e - 1)
            A[e - 1] = diag[e - 1]
            comp[e - 1] = 0.0
        else:
            A[0] = diag[0]
        if e < ell:
            return
        _cost_column_jit(A, diag, buf, e, ell)
        L[0, e] = buf[0]
        d_hi = min(e // ell, dmax)
        if d_hi >= 2:
            _dp_minimize_jit(L, back, buf, e, ell, d_hi, cmins)


def kahan_update(A, comp, kcol, m):
    """A[:m] += 2 * kcol[:m] with Kahan compensation carried in comp."""
    if HAVE_JIT:
        _kahan_update_jit(A, comp, kcol, m)
    else:
        _kahan_update_np(A, comp, kcol, m)


def cost_column(A, diag, cbuf, e, ell):
    """Fill cbuf[s] = cost(s, e) for all s in [0, e - ell]."""
    if HAVE_JIT:
        _cost_column_jit(A, diag, cbuf, e, ell)
    else:
        _cost_column_np(A, diag, cbuf, e, ell)


def dp_minimize(L, back, cbuf, e, ell, d_hi, cmins):
    """Table update at column e for segment counts 2..d_hi."""
    if HAVE_JIT:
        _dp_minimize_jit(L, back, cbuf, e, ell, d_hi, cmins)
    else:
        _dp_minimize_np(L, back, cbuf, e, ell, d_hi)


def column_step(L, back, A, comp, diag, buf, cmins, e, ell, dmax, snip):
    """One full sweep step: extend the column state to e, then update the
    loss table at column e.

    ``buf[:e-1]`` must hold the kernel column k(X_i, X_{e-1}) on entry for
    e >= 2; on return it holds the cost column for [s, e). ``snip`` is the
    sweep's :class:`Snip`; the compiled step ignores it apart from counting
    the cells it scans, since it always minimises densely."""
    if HAVE_JIT:
        _column_step_jit(L, back, A, comp, diag, buf, cmins, e, ell, dmax)
        d_hi = min(e // ell, dmax)
        if e >= ell and d_hi >= 2:
            snip.scanned += (d_hi - 1) * max(e - 2 * ell + 1, 0)
    else:
        _column_step_np(L, back, A, comp, diag, buf, e, ell, dmax, snip)


def chunk_minima_buffer(n: int) -> np.ndarray:
    """Scratch buffer for dp_minimize, shaped (4, number of chunks)."""
    return np.empty((4, max(1, (n + _CHUNK - 1) // _CHUNK)))


# ---------------------------------------------------------------------------
# split scan for the low-rank path


def _split_scan_np(S, q, p2, start, end, lo, hi):
    ts = np.arange(lo, hi)
    cross = S[lo:hi] @ np.column_stack([S[start], S[end]])
    p2v = p2[lo:hi]
    qv = q[lo:hi]
    left = qv - q[start] - (p2v - 2.0 * cross[:, 0] + p2[start]) / (ts - start)
    right = q[end] - qv - (p2[end] - 2.0 * cross[:, 1] + p2v) / (end - ts)
    total = left + right
    i = int(np.argmin(total))
    return lo + i, float(total[i])


if HAVE_JIT:

    @numba.njit(cache=True, fastmath=False)
    def _split_scan_jit(S, q, p2, start, end, lo, hi):  # pragma: no cover - jit
        p = S.shape[1]
        rs = S[start]
        re = S[end]
        qs = q[start]
        qe = q[end]
        ps = p2[start]
        pe = p2[end]
        best = BIG
        bi = lo
        for t in range(lo, hi):
            row = S[t]
            cs = 0.0
            ce = 0.0
            for j in range(p):
                v = row[j]
                cs += v * rs[j]
                ce += v * re[j]
            left = q[t] - qs - (p2[t] - 2.0 * cs + ps) / (t - start)
            right = qe - q[t] - (pe - 2.0 * ce + p2[t]) / (end - t)
            tot = left + right
            if tot < best:
                best = tot
                bi = t
        return bi, best


def split_scan(S, q, p2, start, end, lo, hi):
    """Best split point and its two-piece cost over t in [lo, hi).

    Costs expand ||S_t - S_a||^2 through prefix norms and one dot product
    per side; the smallest t wins ties.
    """
    if HAVE_JIT:
        return _split_scan_jit(S, q, p2, start, end, lo, hi)
    return _split_scan_np(S, q, p2, start, end, lo, hi)
