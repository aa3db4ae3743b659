"""Low-rank Gram approximation and heap-driven binary segmentation.

A set of p landmark points defines the approximation
K~ = K(X, J) pinv(K(J, J)) K(J, X), factored through an eigendecomposition
as K~ = Z' Z with Z of shape (p', n), p' = p minus the eigenvalues dropped
by the pseudo-inverse cutoff. Columns of Z act as finite-dimensional
stand-ins for the observations, so segment costs become O(p') prefix-sum
queries and the greedy splitter runs in O(p' n log Dmax) overall.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .exact_dp import Segmentation, _validate_range, check_feasible, overflow_error
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


@dataclass(frozen=True)
class Embedding:
    """Feature matrix Z with prefix sums for O(p') segment costs.

    ``prefix_sum[t]`` is the sum of the first t feature columns and
    ``prefix_sqnorm[t]`` the sum of their squared norms, so the cost of
    [s, e) is (prefix_sqnorm[e] - prefix_sqnorm[s])
    - ||prefix_sum[e] - prefix_sum[s]||^2 / (e - s).
    """

    Z: np.ndarray
    # landmark rule used, "grid" or "stride"; None for explicit points
    rule: str | None
    dropped: int
    prefix_sum: np.ndarray
    prefix_sqnorm: np.ndarray
    # ||prefix_sum[t]||^2, kept so split scans touch each prefix row once
    prefix_norm_sq: np.ndarray

    @property
    def n(self) -> int:
        return self.Z.shape[1]

    @property
    def rank(self) -> int:
        return self.Z.shape[0]

    def approx_gram(self, idx=None) -> np.ndarray:
        """Entries of K~ = Z' Z, on all points or on a subset of indices."""
        cols = self.Z if idx is None else self.Z[:, idx]
        return cols.T @ cols


def embedding_table_bytes(n: int, rank: int) -> int:
    """Bytes of an embedding's Z, prefix_sum and prefix_sqnorm arrays."""
    return 8 * (rank * n + (n + 1) * rank + (n + 1))


def _grid_points(X: np.ndarray, p: int) -> np.ndarray:
    if X.shape[1] != 1:
        raise ValueError("grid landmarks need one coordinate per kernel block")
    return np.linspace(float(X.min()), float(X.max()), p)[:, None]


def _stride_indices(n: int, p: int) -> np.ndarray:
    if p > n:
        raise ValueError(f"cannot take {p} stride landmarks from {n} points")
    step = -(-n // p)  # ceil(n / p)
    return np.arange(0, n, step)


def _embed_block(spec: KernelSpec, X: np.ndarray, landmarks: np.ndarray,
                 whole: KernelSpec) -> tuple[np.ndarray, int]:
    """Z block for one kernel; an overflow error names the whole kernel."""
    kjj = spec.gram(landmarks)
    if not np.isfinite(kjj).all():
        raise overflow_error(whole, "landmark Gram matrix")
    kjx = spec.gram(landmarks, X)
    w, v = np.linalg.eigh(kjj)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise ValueError("degenerate landmark matrix: no positive eigenvalues")
    keep = w > wmax * EIG_DROP
    dropped = int(len(w) - keep.sum())
    scaled = v[:, keep] / np.sqrt(w[keep])
    return scaled.T @ kjx, dropped


def nystrom_embed(signal, spec: KernelSpec, p: int = 100, rule: str | None = None,
                  points: np.ndarray | None = None) -> Embedding:
    """Landmark embedding of a signal under a kernel.

    rule = "grid" places p equally spaced values between the smallest and
    largest observed value (univariate data, or per coordinate block of a
    sum kernel); rule = "stride" takes every ceil(n/p)-th observation and
    works for any kernel; rule = None picks grid for univariate data or a
    sum kernel, else stride. Explicit landmark ``points`` override the rule
    (recorded as None). Sum kernels embed each coordinate block
    independently and stack the features, since inner products add.
    """
    sig = as_signal(signal)
    spec.check_dim(sig.q)
    X = sig.data
    n = sig.n
    if points is not None:
        rule = None
        points = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
        if points.shape[1] != sig.q:
            raise ValueError(f"landmark dimension {points.shape[1]} does not match q={sig.q}")
        blocks = [(spec, X)]
    else:
        if not (1 <= p <= n):
            raise ValueError(f"landmark count must lie in 1..{n}, got {p}")
        if rule is None:
            rule = "grid" if (sig.q == 1 or isinstance(spec, SumKernel)) else "stride"
        if rule == "stride":
            idx = _stride_indices(n, p)
        elif rule != "grid":
            raise ValueError(f"unknown landmark rule {rule!r}")
        blocks = ([(child, np.ascontiguousarray(X[:, list(idxs)])) for idxs, child in spec.children]
                  if isinstance(spec, SumKernel) else [(spec, X)])

    parts = []
    dropped = 0
    # an overflowing kernel warns on its way to the values the guards report
    with np.errstate(over="ignore", invalid="ignore"):
        for block_spec, xb in blocks:
            if points is not None:
                lm = points
            elif rule == "grid":
                lm = _grid_points(xb, p)
            else:
                lm = xb[idx]
            z, d = _embed_block(block_spec, xb, lm, spec)
            parts.append(z)
            dropped += d
        Z = parts[0] if len(parts) == 1 else np.vstack(parts)
        prefix = np.zeros((n + 1, Z.shape[0]))
        np.cumsum(Z.T, axis=0, out=prefix[1:])
        sqnorm = np.zeros(n + 1)
        np.cumsum(np.einsum("ij,ij->j", Z, Z), out=sqnorm[1:])
        if not math.isfinite(sqnorm[-1]):
            raise overflow_error(spec, "embedding")
        norm_sq = np.einsum("ij,ij->i", prefix, prefix)
    return Embedding(Z=Z, rule=rule, dropped=dropped,
                     prefix_sum=prefix, prefix_sqnorm=sqnorm, prefix_norm_sq=norm_sq)


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
    lo = start + ell
    hi = end - ell + 1
    if hi <= lo:
        return None
    # two-piece cost of each split t in [lo, hi). BLAS may round the product
    # differently for other row ranges or operand layouts, so it always spans
    # exactly [lo, hi) with a C-ordered (rank, 2) operand. Each side is then
    # (q_t - q_a) - (p2_t - 2 S_t.S_a + p2_a) / |t - a| in that order;
    # scaling by -2 is exact and the in-place steps only reuse buffers
    S, q, p2 = emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq
    cross = S[lo:hi] @ S.take((start, end), axis=0).T.copy()
    cross *= -2.0
    p2v = p2[lo:hi]
    qv = q[lo:hi]
    lnum = p2v + cross[:, 0]
    lnum += p2[start]
    lnum /= np.arange(lo - start, hi - start, dtype=np.float64)
    rnum = cross[:, 1] + p2[end]
    rnum += p2v
    rnum /= np.arange(end - lo, end - hi, -1, dtype=np.float64)
    total = qv - q[start]
    total -= lnum
    right = q[end] - qv
    right -= rnum
    total += right
    i = int(np.argmin(total))
    gain = embedded_segment_cost(emb, start, end) - float(total[i])
    return SplitCandidate(start=start, end=end, split=lo + i, gain=max(gain, 0.0))


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
    smaller segment start); each committed split pushes the best splits of
    its two children. Every segment enters the heap exactly once, so no
    stale-candidate handling is needed.
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
    push(0, n)
    exhausted = False
    for _ in range(2, dmax + 1):
        if not heap:
            exhausted = True
            segs.append(segs[-1])
            losses.append(losses[-1])
            continue
        _, _, cand = heapq.heappop(heap)
        insort(starts, cand.split + 1)
        segs.append(Segmentation._trusted(tuple(starts), n))
        losses.append(losses[-1] - cand.gain)
        push(cand.start, cand.split)
        push(cand.split, cand.end)
    return BinSegResult(segmentations=tuple(segs), losses=np.asarray(losses), exhausted=exhausted)
