"""Kernel multiple change-point detection.

Exact segmentation for every segment count up to Dmax via a quadratic-time,
linear-space dynamic program over kernel segment costs, a linear-time
approximate path built on a landmark low-rank embedding plus greedy binary
segmentation, and penalized selection of the number of segments.
"""

__version__ = "0.1.0"

from .exact_dp import (
    DPResult,
    Segmentation,
    cost_columns,
    kernseg_exact,
    naive_dp,
    segment_cost_direct,
)
from .kernels import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    KernelSpec,
    LaplaceKernel,
    LinearKernel,
    Signal,
    SumKernel,
    as_signal,
    empirical_mmd_sq,
    energy_distance,
    mad_scale,
)
from .lowrank import (
    BinSegResult,
    Embedding,
    SplitCandidate,
    best_split,
    binary_segmentation,
    embedded_segment_cost,
    nystrom_embed,
)
from .metrics import empirical_risk, frobenius_distance, membership_norm_sq, piecewise_mean_fit
from .model_selection import (
    PenaltySpec,
    SelectionResult,
    SlopeFit,
    count_segmentations,
    log_count_segmentations,
    penalty,
    select,
    slope_heuristic,
)
from .simulate import (
    FoldedPiece,
    NormalPiece,
    SyntheticSignal,
    equally_spaced_changes,
    generate,
    mean_shift_specs,
)

__all__ = [
    "__version__",
    "Signal",
    "as_signal",
    "KernelSpec",
    "LinearKernel",
    "GaussianKernel",
    "LaplaceKernel",
    "ExponentialKernel",
    "EnergyKernel",
    "SumKernel",
    "mad_scale",
    "empirical_mmd_sq",
    "energy_distance",
    "Segmentation",
    "DPResult",
    "segment_cost_direct",
    "cost_columns",
    "kernseg_exact",
    "naive_dp",
    "Embedding",
    "SplitCandidate",
    "BinSegResult",
    "nystrom_embed",
    "embedded_segment_cost",
    "best_split",
    "binary_segmentation",
    "PenaltySpec",
    "SlopeFit",
    "SelectionResult",
    "count_segmentations",
    "log_count_segmentations",
    "penalty",
    "slope_heuristic",
    "select",
    "frobenius_distance",
    "membership_norm_sq",
    "piecewise_mean_fit",
    "empirical_risk",
    "NormalPiece",
    "FoldedPiece",
    "SyntheticSignal",
    "generate",
    "equally_spaced_changes",
    "mean_shift_specs",
]
