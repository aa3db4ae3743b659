"""The package surface: what ``kcpd`` exports, and how sizes and inputs are checked."""

import importlib
import re

import numpy as np
import pytest

import kcpd
from kcpd import (
    EnergyKernel,
    FoldedPiece,
    GaussianKernel,
    KernelSpec,
    LinearKernel,
    NormalPiece,
    PenaltySpec,
    Segmentation,
    Signal,
    SumKernel,
    best_split,
    binary_segmentation,
    count_segmentations,
    energy_distance,
    generate,
    kernseg_exact,
    log_count_segmentations,
    nystrom_embed,
    penalty,
    piecewise_mean_fit,
    select,
    slope_heuristic,
)
from kcpd.cli import _kernel_doc, run_segment

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


# input checks no other test reaches: (call, exception type, message)
INPUT_CHECKS = {
    "Signal-3d": (lambda: Signal(np.zeros((2, 2, 2))), ValueError,
                  "signal data must be 1- or 2-dimensional"),
    "pair-2d": (lambda: _SPEC.pair(np.zeros((2, 2)), np.zeros((2, 2))), ValueError, "expected a q-vector"),
    "KernelSpec.diag": (lambda: KernelSpec().diag(_X.data), NotImplementedError, ""),
    "KernelSpec._gram": (lambda: KernelSpec()._gram(_X.data, _X.data, None), NotImplementedError, ""),
    "kernseg_exact-anchor": (lambda: kernseg_exact(_X, EnergyKernel(1.0, (0.0, 0.0)), dmax=2), ValueError,
                             "anchor has dimension 2, data has 1"),
    "SumKernel-empty": (lambda: SumKernel((((), _SPEC),)), ValueError, "child coordinate set is empty"),
    "SumKernel-negative": (lambda: SumKernel((((-1,), _SPEC),)), ValueError,
                           "coordinate indices must be nonnegative"),
    "SumKernel-child": (lambda: SumKernel((((0,), "gaussian"),)), TypeError, "child is not a kernel"),
    "energy_distance-alpha": (lambda: energy_distance(_X, _X, alpha=2.0), ValueError,
                              "alpha must be in (0, 2) for the energy distance, got 2.0"),
    "energy_distance-dim": (lambda: energy_distance(np.zeros(3), np.zeros((3, 2))), ValueError,
                            "dimension mismatch: 1 vs 2"),
    "nystrom_embed-points": (lambda: nystrom_embed(np.zeros((10, 2)), _SPEC, points=np.zeros((3, 3))),
                             ValueError, "landmark dimension 3 does not match q=2"),
    "nystrom_embed-rule": (lambda: nystrom_embed(_X, _SPEC, p=20, rule="random"), ValueError,
                           "unknown landmark rule 'random'"),
    "piecewise_mean_fit-q": (lambda: piecewise_mean_fit(np.zeros((4, 2)), Segmentation((1,), 4)), ValueError,
                             "piecewise mean fit expects a single coordinate"),
    "piecewise_mean_fit-n": (lambda: piecewise_mean_fit(np.zeros(5), Segmentation((1,), 4)), ValueError,
                             "signal length 5 does not match segmentation over 4"),
    "penalty-0": (lambda: penalty(0, PenaltySpec(1.0, 1.0, 100, 10)), ValueError, "d must be positive, got 0"),
    "slope_heuristic-inf": (lambda: slope_heuristic([10.0] * 9 + [np.inf], 100), ValueError,
                            "losses in the calibration window must be finite"),
    "select-count": (lambda: select(np.ones(5), PenaltySpec(1.0, 1.0, 100, 10)), ValueError,
                     "expected 10 losses, got 5"),
    "FoldedPiece-nan": (lambda: FoldedPiece(np.nan, 1.0), ValueError,
                        "center must be finite and spread nonnegative"),
}


@pytest.mark.parametrize("call, kind, message", INPUT_CHECKS.values(), ids=list(INPUT_CHECKS))
def test_input_checks(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_sum_kernel_gram_writes_into_out():
    spec = SumKernel.per_coordinate([_SPEC, LinearKernel()])
    X = np.random.default_rng(3).normal(size=(5, 2))
    out = np.empty((5, 5))
    assert spec._gram(X, X, out) is out
    assert out.tobytes() == spec.gram(X).tobytes()


def test_generate_adds_the_leading_start():
    specs = [[NormalPiece(0.0, 1.0)], [NormalPiece(3.0, 1.0)]]
    a, b = generate(100, [51], specs, seed=4), generate(100, [1, 51], specs, seed=4)
    assert a.truth == b.truth
    assert a.signal.data.tobytes() == b.signal.data.tobytes()
    assert a.means.tobytes() == b.means.tobytes()


def test_kernel_doc_names_an_unlisted_kernel():
    class Plain(KernelSpec):
        pass

    assert _kernel_doc(Plain()) == {"family": "Plain"}
