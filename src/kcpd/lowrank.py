"""Low-rank Gram approximation and heap-driven binary segmentation.

A set of p landmark points defines the approximation
K~ = K(X, J) pinv(K(J, J)) K(J, X), factored through an eigendecomposition
as K~ = Z' Z with Z of shape (p', n), p' = p minus the eigenvalues dropped
by the pseudo-inverse cutoff. Columns of Z act as finite-dimensional
stand-ins for the observations, so segment costs become O(p') prefix-sum
queries and the greedy splitter runs in O(p' n log Dmax) overall. Z is
never held whole, not even a block of it: the embedding writes each
block of features straight into the prefix-sum array and sums it there,
so it holds only the prefix sums, (p' + 2)(n + 1) floats, plus one
p x 4096 landmark Gram block while it runs.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .exact_dp import Segmentation, _size, _validate_range, check_feasible, check_length_floor, overflow_error
from .kernels import KernelSpec, SumKernel, as_signal

__all__ = [
    "Embedding",
    "SplitCandidate",
    "BinSegResult",
    "nystrom_embed",
    "embedded_segment_cost",
    "best_split",
    "binary_segmentation",
]

# relative eigenvalue cutoff for the landmark pseudo-inverse
EIG_DROP = 1e-10
# landmark count when none is given
LANDMARKS = 100


# columns per chunk of a best_split scan, which holds a few vectors of this
# length. The chunk grid is part of the definition: in 120 random ranges,
# chunked (2 x rank) products differed from one full-width product in 38,
# and in 6 with the last chunk absorbing the remainder. At 4096 columns
# lowrank-500k's segment took 1.19-1.58 s against 1.03-1.23 s (three
# alternated runs, 2-core x86-64) to save 0.6 MB of its 217 MB peak.
_SPLIT_COLS = 16384

# columns per landmark Gram block, the embedding's one temporary (p x this).
# A remainder below half a block joins the last half-block, so all blocks
# but the last are multiples of 2048 wide and BLAS rounds each column as in
# one full-width product, except that OpenBLAS's small-matrix kernel
# (AVX-512, at most 1e6 multiply-adds) can round a narrow last block's last
# columns differently at rank * p below about 490. At n = 5e5, p = 100 the
# traced peak above the kept arrays was 9.2 MB at 16384 columns and 0.04 MB
# from 4096 down, for 0.31 s against 0.32-0.34 s (2-core x86-64).
_GRAM_COLS = 4096


@dataclass(frozen=True)
class _BlockMap:
    """Feature map of one kernel block: x -> proj @ k(landmarks, x[cols])."""

    spec: KernelSpec
    cols: list[int] | None  # the block's coordinates; None for all of them
    landmarks: np.ndarray
    proj: np.ndarray


def _gram_blocks(n: int):
    """Column ranges (a, b) of the Gram blocks."""
    edges = [*range(0, n, _GRAM_COLS), n]
    if len(edges) > 2 and n - edges[-2] < _GRAM_COLS // 2:
        edges[-2] -= _GRAM_COLS // 2
    return zip(edges, edges[1:])


def _features(maps: tuple[_BlockMap, ...], X: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
    """Write feature columns a..b-1 into ``out``, the blocks' rows stacked in order."""
    r = 0
    for m in maps:
        G = m.spec.gram(m.landmarks, X[a:b] if m.cols is None else X[a:b, m.cols])
        np.matmul(m.proj, G, out=out[r : r + len(m.proj)])
        del G  # before the next map's
        r += len(m.proj)


@dataclass(frozen=True)
class Embedding:
    """Prefix sums of the landmark features, for O(p') segment costs.

    ``prefix_sum[t]`` is the sum of the first t feature columns and
    ``prefix_sqnorm[t]`` the sum of their squared norms, so the cost of
    [s, e) is (prefix_sqnorm[e] - prefix_sqnorm[s])
    - ||prefix_sum[e] - prefix_sum[s]||^2 / (e - s). The sums are stored
    feature-major: ``prefix_sum`` is the (n + 1, rank) view ``.T`` of a
    C-contiguous (rank, n + 1) array, so a split scan reads each feature's
    sums contiguously.
    """

    # landmark rule used, "grid" or "stride"; None for explicit points
    rule: str | None
    dropped: int
    prefix_sum: np.ndarray
    prefix_sqnorm: np.ndarray
    # ||prefix_sum[t]||^2, kept so a split scan reads the prefix sums only in its product
    prefix_norm_sq: np.ndarray
    # one feature map per kernel block
    maps: tuple[_BlockMap, ...] = field(repr=False)

    @property
    def n(self) -> int:
        return self.prefix_sum.shape[0] - 1

    @property
    def rank(self) -> int:
        return self.prefix_sum.shape[1]


def embedding_table_bytes(n: int, rank: int) -> int:
    """Bytes of an embedding's prefix_sum, prefix_sqnorm and prefix_norm_sq."""
    return 8 * (rank + 2) * (n + 1)


def _grid_points(X: np.ndarray, p: int) -> np.ndarray:
    if X.shape[1] != 1:
        raise ValueError("grid landmarks need one coordinate per kernel block")
    return np.linspace(float(X.min()), float(X.max()), p)[:, None]


def _stride_indices(n: int, p: int) -> np.ndarray:
    step = -(-n // p)  # ceil(n / p)
    return np.arange(0, n, step)


def _block_map(spec: KernelSpec, cols: list[int] | None, landmarks: np.ndarray,
               whole: KernelSpec) -> tuple[_BlockMap, int]:
    """Feature map for one kernel block; an overflow error names the whole kernel."""
    kjj = spec.gram(landmarks)
    if not np.isfinite(kjj).all():
        raise overflow_error(whole, "landmark Gram matrix")
    w, v = np.linalg.eigh(kjj)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise ValueError("degenerate landmark matrix: no positive eigenvalues")
    keep = w > wmax * EIG_DROP
    dropped = int(len(w) - keep.sum())
    scaled = v[:, keep] / np.sqrt(w[keep])
    return _BlockMap(spec, cols, landmarks, scaled.T), dropped


def nystrom_embed(signal, spec: KernelSpec, p: int = LANDMARKS, rule: str | None = None,
                  points: np.ndarray | None = None) -> Embedding:
    """Landmark embedding of a signal under a kernel.

    rule = "grid" places p equally spaced values between the smallest and
    largest observed value (univariate data, or per coordinate block of a
    sum kernel); rule = "stride" takes every ceil(n/p)-th observation and
    works for any kernel; rule = None picks grid for univariate data or a
    sum kernel, else stride. Explicit landmark ``points`` override the rule
    (recorded as None). Sum kernels embed each coordinate block
    independently and stack the features, since inner products add.

    The features are the columns of one full-width product proj @ K(J, X),
    except possibly a narrow last block's last columns where OpenBLAS takes
    its small-matrix kernel (see _GRAM_COLS). They are made in blocks of at
    most _GRAM_COLS points written straight into the prefix sums and summed
    there, so memory beyond the (rank + 2)(n + 1) floats kept is one
    p x _GRAM_COLS Gram block.
    """
    sig = as_signal(signal)
    spec.check_dim(sig.q)
    X, n = sig.data, sig.n
    if points is not None:
        rule = None
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 0 or points.size == 0 or not np.isfinite(points).all():
            raise ValueError("landmark points must be a non-empty array of finite values")
        points = points.reshape(len(points), -1)
        if points.shape[1] != sig.q:
            raise ValueError(f"landmark dimension {points.shape[1]} does not match q={sig.q}")
        blocks = [(spec, None)]
    else:
        p = _size(p, "landmark count")
        if not (1 <= p <= n):
            raise ValueError(f"landmark count must lie in 1..{n}, got {p}")
        if rule is None:
            rule = "grid" if (sig.q == 1 or isinstance(spec, SumKernel)) else "stride"
        if rule == "stride":
            idx = _stride_indices(n, p)
        elif rule != "grid":
            raise ValueError(f"unknown landmark rule {rule!r}")
        blocks = ([(child, list(idxs)) for idxs, child in spec.children]
                  if isinstance(spec, SumKernel) else [(spec, None)])

    maps, dropped = [], 0
    # an overflowing kernel warns on its way to the values the guards report
    with np.errstate(over="ignore", invalid="ignore"):
        for block_spec, cols in blocks:
            if points is not None:
                lm = points
            elif rule == "grid":
                lm = _grid_points(X if cols is None else X[:, cols], p)
            else:
                lm = X[idx] if cols is None else X[np.ix_(idx, cols)]
            m, d = _block_map(block_spec, cols, lm, spec)
            maps.append(m)
            dropped += d
        maps = tuple(maps)
        prefix = np.zeros((sum(len(m.proj) for m in maps), n + 1))
        sqnorm = np.zeros(n + 1)
        for a, b in _gram_blocks(n):
            # features go straight into their prefix columns and are summed
            # there. numpy's axis cumsum is sequential, so adding the sum so
            # far to the first column makes the blocks one cumsum's bits
            z = prefix[:, a + 1 : b + 1]
            _features(maps, X, a, b, z)
            np.einsum("ij,ij->j", z, z, out=sqnorm[a + 1 : b + 1])
            if a:
                z[:, 0] += prefix[:, a]
            np.cumsum(z, axis=1, out=z)
        np.cumsum(sqnorm[1:], out=sqnorm[1:])
        if not math.isfinite(sqnorm[-1]):
            raise overflow_error(spec, "embedding")
        norm_sq = np.einsum("ij,ij->j", prefix, prefix)
        # the segment costs difference these sums: |S_e - S_s|^2 <= 4 max |S_t|^2
        if not math.isfinite(4.0 * norm_sq.max()):
            raise overflow_error(spec, "embedding")
    return Embedding(rule=rule, dropped=dropped, prefix_sum=prefix.T, prefix_sqnorm=sqnorm,
                     prefix_norm_sq=norm_sq, maps=maps)


def embedded_segment_cost(emb: Embedding, start: int, end: int) -> float:
    """Cost of [start, end) in the embedded space, O(rank) time."""
    _validate_range(emb.n, start, end)
    mean_part = emb.prefix_sum[end] - emb.prefix_sum[start]
    return float(
        emb.prefix_sqnorm[end] - emb.prefix_sqnorm[start]
        - (mean_part @ mean_part) / (end - start)
    )


@dataclass(frozen=True)
class SplitCandidate:
    """Best split of the segment [start, end); indices are 0-based.

    ``gain`` is the cost reduction achieved by splitting at ``split``
    (clamped at zero against roundoff) and is the max-heap key.
    """

    start: int
    end: int
    split: int
    gain: float


def best_split(emb: Embedding, start: int, end: int, ell: int = 1) -> SplitCandidate | None:
    """Best feasible split point of [start, end), or None.

    Scans split points leaving at least ``ell`` points on each side;
    smallest split index wins ties. O(rank * (end - start)) time.
    """
    _validate_range(emb.n, start, end)
    check_length_floor(ell)
    lo = start + ell
    hi = end - ell + 1
    if hi <= lo:
        return None
    # two-piece cost of each split t in [lo, hi), in chunks of _SPLIT_COLS
    # splits from lo. BLAS may round a product differently for other column
    # ranges or operand layouts, so the chunk grid and the C-ordered
    # (2, rank) operand are part of the definition. Each side is then
    # (q_t - q_a) - (p2_t - 2 S_t.S_a + p2_a) / |t - a| in that order;
    # scaling by -2 is exact and the in-place steps only reuse buffers. A
    # later chunk wins only if strictly lower, so the smallest split wins ties
    ST, q, p2 = emb.prefix_sum.T, emb.prefix_sqnorm, emb.prefix_norm_sq
    W = ST[:, (start, end)].T.copy()
    best, split = math.inf, lo
    for a in range(lo, hi, _SPLIT_COLS):
        b = min(a + _SPLIT_COLS, hi)
        prod = W @ ST[:, a:b]
        prod *= -2.0
        p2v = p2[a:b]
        qv = q[a:b]
        lnum = p2v + prod[0]
        lnum += p2[start]
        lnum /= np.arange(a - start, b - start, dtype=np.float64)
        rnum = prod[1] + p2[end]
        rnum += p2v
        rnum /= np.arange(end - a, end - b, -1, dtype=np.float64)
        total = qv - q[start]
        total -= lnum
        right = q[end] - qv
        right -= rnum
        total += right
        i = int(np.argmin(total))
        if total[i] < best:
            best, split = float(total[i]), a + i
    gain = embedded_segment_cost(emb, start, end) - best
    return SplitCandidate(start=start, end=end, split=split, gain=max(gain, 0.0))


@dataclass(frozen=True)
class BinSegResult:
    """Nested greedy segmentations for D = 1..dmax.

    ``segmentations[d-1]`` has d segments unless the heap emptied first,
    in which case the last achieved one is repeated and ``exhausted`` is
    set. ``losses`` accumulate the committed gains, so losses[d-1] is the
    embedded-space cost of segmentations[d-1] up to roundoff and the gain
    clamp.
    """

    segmentations: tuple[Segmentation, ...]
    losses: np.ndarray
    exhausted: bool


def binary_segmentation(emb: Embedding, dmax: int, ell: int = 1) -> BinSegResult:
    """Greedy nested segmentation, largest cost reduction first.

    Candidate splits live on a binary heap keyed by gain (ties broken by
    smaller segment start); each committed split but the last pushes the
    best splits of its two children, as no later pop reads the last one's.
    Every segment enters the heap at most once, so no stale-candidate
    handling is needed.
    """
    n = emb.n
    check_feasible(n, dmax, ell)

    heap: list[tuple[float, int, SplitCandidate]] = []

    def push(s, e):
        cand = best_split(emb, s, e, ell)
        if cand is not None:
            heapq.heappush(heap, (-cand.gain, cand.start, cand))

    starts = [1]
    segs = [Segmentation._trusted((1,), n)]
    losses = [embedded_segment_cost(emb, 0, n)]
    if dmax > 1:
        push(0, n)
    exhausted = False
    for d in range(2, dmax + 1):
        if not heap:
            exhausted = True
            segs.append(segs[-1])
            losses.append(losses[-1])
            continue
        _, _, cand = heapq.heappop(heap)
        insort(starts, cand.split + 1)
        segs.append(Segmentation._trusted(tuple(starts), n))
        losses.append(losses[-1] - cand.gain)
        if d < dmax:
            push(cand.start, cand.split)
            push(cand.split, cand.end)
    return BinSegResult(segmentations=tuple(segs), losses=np.asarray(losses), exhausted=exhausted)
