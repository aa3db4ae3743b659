"""Kernel multiple change-point detection.

Exact segmentation for every segment count up to Dmax via a quadratic-time,
linear-space dynamic program over kernel segment costs, a linear-time
approximate path built on a landmark low-rank embedding plus greedy binary
segmentation, and penalized selection of the number of segments.
"""

__version__ = "0.1.0"

from . import exact_dp, kernels, lowrank, metrics, model_selection, simulate
from .exact_dp import *  # noqa: F403
from .kernels import *  # noqa: F403
from .lowrank import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model_selection import *  # noqa: F403
from .simulate import *  # noqa: F403

# each submodule's __all__ is the one list of its public names
__all__ = ["__version__", *exact_dp.__all__, *kernels.__all__, *lowrank.__all__, *metrics.__all__,
           *model_selection.__all__, *simulate.__all__]
