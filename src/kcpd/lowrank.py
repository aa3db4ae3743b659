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
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .exact_dp import Segmentation
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
    landmarks: np.ndarray
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


def _grid_points(values: np.ndarray, p: int) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    return np.linspace(lo, hi, p)[:, None]


def _stride_indices(n: int, p: int) -> np.ndarray:
    if p > n:
        raise ValueError(f"cannot take {p} stride landmarks from {n} points")
    step = -(-n // p)  # ceil(n / p)
    return np.arange(0, n, step)


def _embed_block(spec: KernelSpec, X: np.ndarray, landmarks: np.ndarray) -> tuple[np.ndarray, int]:
    """Z block for one kernel: rows are scaled eigenvector projections."""
    kjj = spec.gram(landmarks)
    kjx = spec.gram(landmarks, X)
    w, v = np.linalg.eigh(kjj)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise ValueError("degenerate landmark matrix: no positive eigenvalues")
    keep = w > wmax * EIG_DROP
    dropped = int(len(w) - keep.sum())
    scaled = v[:, keep] / np.sqrt(w[keep])
    return scaled.T @ kjx, dropped


def nystrom_embed(signal, spec: KernelSpec, p: int = 100, rule: str = "grid",
                  points: np.ndarray | None = None) -> Embedding:
    """Landmark embedding of a signal under a kernel.

    rule = "grid" places p equally spaced values between the smallest and
    largest observed value (univariate data, or per coordinate block of a
    sum kernel); rule = "stride" takes every ceil(n/p)-th observation and
    works for any kernel. Explicit landmark ``points`` override the rule.
    Sum kernels embed each coordinate block independently and stack the
    features, since inner products add.
    """
    sig = as_signal(signal)
    spec.check_dim(sig.q)
    X = sig.data
    n = sig.n
    if points is None and not (1 <= p <= n):
        raise ValueError(f"landmark count must lie in 1..{n}, got {p}")

    if isinstance(spec, SumKernel) and points is None:
        if rule == "stride":
            idx = _stride_indices(n, p)
        elif rule != "grid":
            raise ValueError(f"unknown landmark rule {rule!r}")
        blocks = []
        marks = []
        dropped = 0
        for idxs, child in spec.children:
            xc = np.ascontiguousarray(X[:, list(idxs)])
            if rule == "grid":
                if xc.shape[1] != 1:
                    raise ValueError("grid landmarks need one coordinate per child block")
                lm = _grid_points(xc[:, 0], p)
            else:
                lm = xc[idx]
            z, d = _embed_block(child, xc, lm)
            blocks.append(z)
            marks.append(lm)
            dropped += d
        Z = np.vstack(blocks)
        # diagnostics only: one landmark column per child block under the
        # grid rule, the selected observations under the stride rule
        landmarks = X[idx] if rule == "stride" else np.hstack(marks)
    else:
        if points is not None:
            landmarks = np.asarray(points, dtype=np.float64)
            if landmarks.ndim == 1:
                landmarks = landmarks[:, None]
            if landmarks.shape[1] != sig.q:
                raise ValueError(
                    f"landmark dimension {landmarks.shape[1]} does not match q={sig.q}"
                )
        elif rule == "grid":
            if sig.q != 1:
                raise ValueError("grid landmarks need a univariate signal or a sum kernel")
            landmarks = _grid_points(X[:, 0], p)
        elif rule == "stride":
            landmarks = X[_stride_indices(n, p)]
        else:
            raise ValueError(f"unknown landmark rule {rule!r}")
        Z, dropped = _embed_block(spec, X, landmarks)

    prefix = np.zeros((n + 1, Z.shape[0]))
    np.cumsum(Z.T, axis=0, out=prefix[1:])
    sqnorm = np.zeros(n + 1)
    np.cumsum(np.einsum("ij,ij->j", Z, Z), out=sqnorm[1:])
    norm_sq = np.einsum("ij,ij->i", prefix, prefix)
    return Embedding(Z=Z, landmarks=landmarks, dropped=dropped,
                     prefix_sum=prefix, prefix_sqnorm=sqnorm, prefix_norm_sq=norm_sq)


def embedded_segment_cost(emb: Embedding, start: int, end: int) -> float:
    """Cost of [start, end) in the embedded space, O(rank) time."""
    if not (0 <= start < end <= emb.n):
        raise IndexError(f"segment [{start}, {end}) out of range for n={emb.n}")
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


def _split_scan(S, q, p2, start, end, lo, hi):
    # best split t in [lo, hi) and its two-piece cost; ||S_t - S_a||^2 is
    # expanded through the prefix norms p2 and one dot product per side,
    # and the smallest t wins ties
    ts = np.arange(lo, hi)
    cross = S[lo:hi] @ np.column_stack([S[start], S[end]])
    p2v = p2[lo:hi]
    qv = q[lo:hi]
    left = qv - q[start] - (p2v - 2.0 * cross[:, 0] + p2[start]) / (ts - start)
    right = q[end] - qv - (p2[end] - 2.0 * cross[:, 1] + p2v) / (end - ts)
    total = left + right
    i = int(np.argmin(total))
    return lo + i, float(total[i])


def best_split(emb: Embedding, start: int, end: int, ell: int = 1) -> SplitCandidate | None:
    """Best feasible split point of [start, end), or None.

    Scans split points leaving at least ``ell`` points on each side;
    smallest split index wins ties. O(rank * (end - start)) time.
    """
    if not (0 <= start < end <= emb.n):
        raise IndexError(f"segment [{start}, {end}) out of range for n={emb.n}")
    lo = start + ell
    hi = end - ell + 1
    if hi <= lo:
        return None
    split, best = _split_scan(
        emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq, start, end, lo, hi
    )
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
    smaller segment start); each committed split pushes the best splits of
    its two children. Every segment enters the heap exactly once, so no
    stale-candidate handling is needed.
    """
    if dmax < 1:
        raise ValueError(f"Dmax must be at least 1, got {dmax}")
    if ell < 1:
        raise ValueError(f"minimum segment length must be at least 1, got {ell}")
    n = emb.n
    if dmax * ell > n:
        raise ValueError(
            f"infeasible: {dmax} segments of length >= {ell} need {dmax * ell} points, signal has {n}"
        )

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
