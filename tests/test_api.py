"""The package surface: what ``kcpd`` exports, and how sizes are checked."""

import importlib

import numpy as np
import pytest

import kcpd
from kcpd import (
    GaussianKernel,
    PenaltySpec,
    Signal,
    best_split,
    binary_segmentation,
    count_segmentations,
    kernseg_exact,
    log_count_segmentations,
    nystrom_embed,
    penalty,
)
from kcpd.cli import run_segment

SUBMODULES = ["exact_dp", "kernels", "lowrank", "metrics", "model_selection", "simulate"]


def test_package_exports_the_submodules_names():
    names = {"__version__"}
    for mod in SUBMODULES:
        names.update(importlib.import_module(f"kcpd.{mod}").__all__)
    assert len(kcpd.__all__) == len(set(kcpd.__all__))
    assert set(kcpd.__all__) == names
    for name in kcpd.__all__:
        assert getattr(kcpd, name) is not None


_X = Signal(np.repeat([0.0, 3.0], 50) + np.linspace(0.0, 0.5, 100))
_SPEC = GaussianKernel(1.0)


def _emb():
    return nystrom_embed(_X, _SPEC, p=20)


def _res():
    return kernseg_exact(_X, _SPEC, dmax=3)


# each call passes one size as a float; it must end in kcpd's ValueError
# naming the parameter, not in a TypeError or IndexError from numpy
NON_INTEGER_SIZES = {
    "kernseg_exact-dmax": (lambda: kernseg_exact(_X, _SPEC, dmax=2.0), "Dmax"),
    "kernseg_exact-ell": (lambda: kernseg_exact(_X, _SPEC, dmax=2, ell=1.5), "minimum segment length"),
    "DPResult.loss-d": (lambda: _res().loss(2.0), "D"),
    "DPResult.backtrack-d": (lambda: _res().backtrack(2.0), "D"),
    "best_split-ell": (lambda: best_split(_emb(), 0, 100, ell=1.5), "minimum segment length"),
    "binary_segmentation-dmax": (lambda: binary_segmentation(_emb(), 3.0), "Dmax"),
    "binary_segmentation-ell": (lambda: binary_segmentation(_emb(), 3, 1.5), "minimum segment length"),
    "nystrom_embed-stride": (lambda: nystrom_embed(_X, _SPEC, p=50.0, rule="stride"), "landmark count"),
    "nystrom_embed-grid": (lambda: nystrom_embed(_X, _SPEC, p=50.0, rule="grid"), "landmark count"),
    "PenaltySpec-n": (lambda: PenaltySpec(1.0, 1.0, 100.0, 10), "signal length"),
    "PenaltySpec-dmax": (lambda: PenaltySpec(1.0, 1.0, 100, 10.0), "Dmax"),
    "PenaltySpec-ell": (lambda: PenaltySpec(1.0, 1.0, 100, 10, 1.5), "minimum segment length"),
    "run_segment-dmax": (lambda: run_segment(_X, _SPEC, dmax=10.0, c1=1.0, c2=1.0), "Dmax"),
    "count_segmentations-n": (lambda: count_segmentations(100.0, 3), "signal length"),
    "count_segmentations-d": (lambda: count_segmentations(100, 3.0), "D"),
    "log_count_segmentations-n": (lambda: log_count_segmentations(100.5, 3), "signal length"),
    "log_count_segmentations-ell": (lambda: log_count_segmentations(100, 3, 1.5), "minimum segment length"),
    "penalty-d": (lambda: penalty(2.0, PenaltySpec(1.0, 1.0, 100, 10)), "D"),
}


@pytest.mark.parametrize("call, name", NON_INTEGER_SIZES.values(), ids=list(NON_INTEGER_SIZES))
def test_non_integer_sizes_are_value_errors(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got [0-9.]+$"):
        call()


def test_numpy_integer_sizes_are_accepted():
    two, three, twenty = np.int64(2), np.int32(3), np.int64(20)
    res = kernseg_exact(_X, _SPEC, dmax=three, ell=two)
    assert res.losses().tobytes() == kernseg_exact(_X, _SPEC, dmax=3, ell=2).losses().tobytes()
    assert res.loss(two) == res.loss(2) and res.backtrack(three) == res.backtrack(3)
    for rule in ("grid", "stride"):
        emb = nystrom_embed(_X, _SPEC, p=twenty, rule=rule)
        assert emb.prefix_sum.tobytes() == nystrom_embed(_X, _SPEC, p=20, rule=rule).prefix_sum.tobytes()
    emb = _emb()
    assert best_split(emb, 0, 100, ell=two) == best_split(emb, 0, 100, ell=2)
    assert binary_segmentation(emb, three, two).segmentations == binary_segmentation(emb, 3, 2).segmentations
    assert PenaltySpec(1.0, 1.0, np.int64(100), three, two) == PenaltySpec(1.0, 1.0, 100, 3, 2)
    hundred = np.int64(100)
    assert count_segmentations(hundred, three, two) == count_segmentations(100, 3, 2)
    assert log_count_segmentations(hundred, three, two) == log_count_segmentations(100, 3, 2)
    spec = PenaltySpec(1.0, 1.0, 100, 10)
    assert penalty(three, spec) == penalty(3, spec)
