"""Penalized selection of the number of segments.

The penalized criterion is loss(D) + c1 * D + c2 * log N(D), where N(D)
counts the candidate segmentations with D segments under the minimum
length floor. The constants are either supplied or calibrated from the
loss curve by a slope fit over the upper half of the D range, where the
curve is dominated by noise fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact_dp import _size, check_feasible

__all__ = [
    "PenaltySpec",
    "SlopeFit",
    "SelectionResult",
    "count_segmentations",
    "log_count_segmentations",
    "penalty",
    "slope_heuristic",
    "select",
]

# condition-number guard for the bivariate slope regression
COND_LIMIT = 1e8
MIN_DMAX_FOR_SLOPE = 10


def _positive_sizes(n: int, d: int, ell: int) -> tuple[int, int, int]:
    """(n, d, ell) as ints; a ValueError unless each is an integer of at least 1."""
    n, d = _size(n, "signal length"), _size(d, "D")
    ell = _size(ell, "minimum segment length")
    if n < 1 or d < 1 or ell < 1:
        raise ValueError("n, d and ell must be positive")
    return n, d, ell


def count_segmentations(n: int, d: int, ell: int = 1) -> int:
    """Exact number of segmentations of n points into d segments, each of
    length at least ell. Zero when infeasible."""
    n, d, ell = _positive_sizes(n, d, ell)
    if n < d * ell:
        return 0
    return math.comb(n - d * (ell - 1) - 1, d - 1)


def log_count_segmentations(n: int, d: int, ell: int = 1) -> float:
    """log of count_segmentations via log-gamma; -inf when infeasible.

    Stable for n up to 1e9 and beyond, where the exact integer count
    would be astronomically large.
    """
    n, d, ell = _positive_sizes(n, d, ell)
    if n < d * ell:
        return -math.inf
    a = n - d * (ell - 1) - 1
    b = d - 1
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty constants and the segmentation class they apply to."""

    c1: float
    c2: float
    n: int
    dmax: int
    ell: int = 1

    def __post_init__(self):
        if not (0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf):
            raise ValueError("penalty constants must be finite and nonnegative")
        check_feasible(self.n, self.dmax, self.ell)


def penalty(d: int, spec: PenaltySpec) -> float:
    """c1 * d + c2 * log(count of candidate segmentations); inf if infeasible."""
    d = _size(d, "D")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    lc = log_count_segmentations(spec.n, d, spec.ell)
    if lc == -math.inf:
        return math.inf
    return spec.c1 * d + spec.c2 * lc


@dataclass(frozen=True)
class SlopeFit:
    """Calibrated penalty constants with regression diagnostics."""

    c1: float
    c2: float
    window: tuple[int, int]
    condition_number: float
    residuals: np.ndarray
    combined_fallback: bool


def check_slope_dmax(dmax: int) -> None:
    """Raise ValueError unless a loss curve of dmax values can be slope-fitted."""
    if dmax < MIN_DMAX_FOR_SLOPE:
        raise ValueError(
            f"slope calibration needs Dmax >= {MIN_DMAX_FOR_SLOPE} loss values, got {dmax}; "
            "supply (c1, c2) explicitly instead"
        )


def slope_heuristic(losses: Sequence[float], n: int, ell: int = 1) -> SlopeFit:
    """Calibrate (c1, c2) from the loss curve.

    ``losses[d-1]`` is the optimal loss with d segments, d = 1..Dmax.
    An ordinary least-squares fit of the losses against (D, log N(D)) over
    D in [ceil(Dmax/2), Dmax] yields slopes (s1, s2); the constants are
    (-2 s1, -2 s2), clamped at zero. If the two regressors are nearly
    collinear (condition number above 1e8) a single fit against their sum
    is used and c1 = c2.
    """
    losses = np.asarray(losses, dtype=np.float64)
    dmax = losses.shape[0]
    check_slope_dmax(dmax)
    lo = math.ceil(dmax / 2)
    ds = np.arange(lo, dmax + 1)
    if not np.isfinite(losses[lo - 1 :]).all():
        raise ValueError("losses in the calibration window must be finite")
    logc = np.array([log_count_segmentations(n, int(d), ell) for d in ds])
    y = losses[lo - 1 :]

    design = np.column_stack([np.ones_like(logc), ds.astype(np.float64), logc])
    cond = float(np.linalg.cond(design))
    combined = cond > COND_LIMIT
    if combined:
        design = np.column_stack([np.ones_like(logc), ds.astype(np.float64) + logc])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return SlopeFit(
        c1=max(0.0, -2.0 * float(beta[1])),
        c2=max(0.0, -2.0 * float(beta[-1])),
        window=(lo, dmax),
        condition_number=cond,
        residuals=y - design @ beta,
        combined_fallback=combined,
    )


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the penalized search over D."""

    d_hat: int
    losses: np.ndarray
    penalties: np.ndarray
    criterion: np.ndarray
    c1: float
    c2: float


def select(losses: Sequence[float], spec: PenaltySpec) -> SelectionResult:
    """Pick D minimizing loss + penalty; smaller D wins ties.

    ``losses[d-1]`` must cover d = 1..spec.dmax (inf marks infeasible d).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[0] != spec.dmax:
        raise ValueError(f"expected {spec.dmax} losses, got {losses.shape[0]}")
    pens = np.array([penalty(d, spec) for d in range(1, spec.dmax + 1)])
    crit = losses + pens
    if not np.isfinite(crit).any():
        raise ValueError("no feasible number of segments")
    crit_for_argmin = np.where(np.isnan(crit), math.inf, crit)
    d_hat = int(np.argmin(crit_for_argmin)) + 1
    return SelectionResult(
        d_hat=d_hat,
        losses=losses,
        penalties=pens,
        criterion=crit,
        c1=spec.c1,
        c2=spec.c2,
    )
