"""Synthetic piecewise-distribution signals with recorded ground truth.

Generators cover the change types the segmenters are meant to find: mean
shifts, variance shifts, and a folded two-mode track built as
|N(center, spread) - 0.5|, the shape of a symmetrized allelic-ratio
profile. The noise level is each piece's own sd or spread. Randomness
comes from a counter-based Philox bit generator, so a seed pins the output
bit-exactly across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact_dp import Segmentation
from .kernels import Signal

__all__ = [
    "NormalPiece",
    "FoldedPiece",
    "SyntheticSignal",
    "generate",
    "mean_shift_specs",
    "equally_spaced_changes",
]


@dataclass(frozen=True)
class NormalPiece:
    """One coordinate on one segment: N(mean, sd^2)."""

    mean: float
    sd: float

    def __post_init__(self):
        if self.sd < 0 or not math.isfinite(self.sd) or not math.isfinite(self.mean):
            raise ValueError("mean must be finite and sd nonnegative")

    def regression_mean(self) -> float:
        return self.mean

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size)


@dataclass(frozen=True)
class FoldedPiece:
    """One coordinate on one segment: |N(center, spread^2) - 0.5|."""

    center: float
    spread: float

    def __post_init__(self):
        if self.spread < 0 or not math.isfinite(self.spread) or not math.isfinite(self.center):
            raise ValueError("center must be finite and spread nonnegative")

    def regression_mean(self) -> float:
        # mean of |W| for W ~ N(center - 0.5, s^2)
        w = self.center - 0.5
        s = self.spread
        if s == 0.0:
            return abs(w)
        phi = 0.5 * (1.0 + math.erf(-w / (s * math.sqrt(2.0))))
        return s * math.sqrt(2.0 / math.pi) * math.exp(-(w * w) / (2.0 * s * s)) + w * (1.0 - 2.0 * phi)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(rng.normal(self.center, self.spread, size) - 0.5)


@dataclass(frozen=True)
class SyntheticSignal:
    """Generated signal plus the truth that produced it."""

    signal: Signal
    truth: Segmentation
    means: np.ndarray  # (n, q) per-point regression means
    seed: int


def generate(
    n: int,
    change_points: Sequence[int],
    segment_specs: Sequence[Sequence],
    seed: int,
) -> SyntheticSignal:
    """Draw a piecewise-distribution signal with known change points.

    ``change_points`` are 1-based segment starts (the leading 1 may be
    omitted). ``segment_specs[d]`` lists one piece per coordinate for
    segment d; each piece's sd or spread is its noise level.
    """
    starts = [int(v) for v in change_points]
    if not starts or starts[0] != 1:
        starts = [1] + starts
    truth = Segmentation(tuple(starts), n)
    if len(segment_specs) != truth.d:
        raise ValueError(f"{truth.d} segments but {len(segment_specs)} segment specs")
    q = len(segment_specs[0])
    if q < 1 or any(len(row) != q for row in segment_specs):
        raise ValueError("every segment needs the same positive number of coordinate specs")

    rng = np.random.Generator(np.random.Philox(seed))
    data = np.empty((n, q))
    means = np.empty((n, q))
    for (s, e), row in zip(truth.bounds(), segment_specs):
        for c, piece in enumerate(row):
            data[s:e, c] = piece.draw(rng, e - s)
            means[s:e, c] = piece.regression_mean()
    return SyntheticSignal(signal=Signal(data), truth=truth, means=means, seed=int(seed))


def equally_spaced_changes(n: int, num_changes: int) -> list[int]:
    """1-based starts of num_changes+1 roughly equal segments."""
    if num_changes < 0 or num_changes >= n:
        raise ValueError("need 0 <= num_changes < n")
    step = n / (num_changes + 1)
    starts = [1] + [int(round(k * step)) + 1 for k in range(1, num_changes + 1)]
    if len(set(starts)) != len(starts):
        raise ValueError("too many changes for this signal length")
    return starts


def mean_shift_specs(level_rows: Sequence[Sequence[float]], sd: float = 1.0) -> list[list[NormalPiece]]:
    """Normal pieces with the given per-segment, per-coordinate means."""
    return [[NormalPiece(float(m), sd) for m in row] for row in level_rows]
