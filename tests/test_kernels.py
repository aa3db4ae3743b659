"""Kernel families: pointwise values, symmetry, PSD checks, scaling, MMD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpd import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    KernelSpec,
    LaplaceKernel,
    LinearKernel,
    Signal,
    SumKernel,
    binary_segmentation,
    empirical_mmd_sq,
    energy_distance,
    kernseg_exact,
    mad_scale,
    nystrom_embed,
)
from kcpd.kernels import _median_rows, _sq_dists

from conftest import naive_dp

ALL_FAMILIES = [
    LinearKernel(),
    GaussianKernel(1.0),
    LaplaceKernel(0.7),
    ExponentialKernel(2.0),
    EnergyKernel(1.0),
    EnergyKernel(0.5, (0.3, -0.2, 1.0)),
    SumKernel.per_coordinate([GaussianKernel(1.0), LinearKernel(), LaplaceKernel(1.0)]),
]

PSD_FAMILIES = [
    LinearKernel(),
    GaussianKernel(1.0),
    LaplaceKernel(0.7),
    EnergyKernel(1.0),
    EnergyKernel(1.5),
    SumKernel.per_coordinate([GaussianKernel(1.0), EnergyKernel(0.5), LinearKernel()]),
]


def test_pointwise_values():
    assert EnergyKernel(1.0).pair(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert EnergyKernel(1.0).pair(3.0, 3.0) == pytest.approx(3.0, abs=1e-15)
    assert GaussianKernel(1.0).pair(0.0, 0.0) == 1.0
    assert LinearKernel().pair((1.0, 2.0), (3.0, 4.0)) == 11.0
    assert LaplaceKernel(2.0).pair(0.0, 2.0) == pytest.approx(math.exp(-1.0))
    assert ExponentialKernel(2.0).pair((1.0, 1.0), (1.0, 1.0)) == pytest.approx(math.exp(-1.0))


def test_energy_self_similarity_is_anchor_distance(rng):
    spec = EnergyKernel(1.3, (0.5, -1.0))
    for _ in range(20):
        x = rng.normal(size=2)
        expect = np.linalg.norm(x - np.array([0.5, -1.0])) ** 1.3
        assert spec.pair(x, x) == pytest.approx(expect, rel=1e-12)


def test_symmetry_all_families(rng):
    for spec in ALL_FAMILIES:
        for _ in range(1000 // len(ALL_FAMILIES) + 1):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            assert abs(spec.pair(x, y) - spec.pair(y, x)) <= 1e-12


def test_gram_matches_pointwise(rng):
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=3)
    for spec in ALL_FAMILIES:
        col = spec.gram(y, X.copy())
        G = spec.gram(X)
        d = spec.diag(X)
        # a one-point signal given as a q-vector: its Gram row is a 1-vector
        assert spec.gram(y).shape == (1,)
        assert spec.gram(y).tobytes() == spec.gram(y, y[None, :]).tobytes()
        for i in range(12):
            assert col[i] == pytest.approx(spec.pair(X[i], y), rel=1e-12, abs=1e-12)
            assert d[i] == pytest.approx(spec.pair(X[i], X[i]), rel=1e-12, abs=1e-12)
            for j in range(12):
                assert G[i, j] == pytest.approx(spec.pair(X[i], X[j]), rel=1e-10, abs=1e-10)


def test_prefix_column_matches_gram(rng):
    # q < 8 and q >= 8 take the two branches of the squared-distance routine
    for q in (1, 2, 3, 7, 8, 9):
        _check_prefix_columns(rng.normal(size=(30, q)))


def _check_prefix_columns(X):
    q = X.shape[1]
    for spec in ALL_FAMILIES:
        if isinstance(spec, SumKernel):
            spec = SumKernel.per_coordinate(([GaussianKernel(1.0), LinearKernel()] * q)[:q])
        elif isinstance(spec, EnergyKernel) and spec.x0 is not None:
            spec = EnergyKernel(spec.alpha, tuple(np.linspace(-0.2, 0.3, q)))
        fn = spec.prefix_column_fn(X)
        buf = np.empty(30)
        for j in (1, 7, 29):
            got = fn(j, buf)
            want = spec.gram(X[j], X[:j].copy())
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    # a block of Gram rows holds the prefix columns bitwise; gemm and gemv
    # round inner products differently, so linear and exponential at q = 1 only
    block_specs = [GaussianKernel(1.3), LaplaceKernel(0.7), EnergyKernel(1.0),
                   EnergyKernel(0.5, tuple(np.linspace(-0.2, 0.3, q))),
                   SumKernel.per_coordinate(([EnergyKernel(1.0), EnergyKernel(0.5), EnergyKernel(1.5)] * q)[:q])]
    if q == 1:
        block_specs += [LinearKernel(), ExponentialKernel(2.0)]
    for spec in block_specs:
        fn = spec.prefix_column_fn(X)
        buf = np.empty(30)
        for j, B in ((1, 5), (10, 8), (22, 8)):
            block = spec.gram(X[j : j + B], X)
            for k in range(B):
                np.testing.assert_array_equal(block[k, : j + k], fn(j + k, buf))


class _Cauchy(KernelSpec):
    """k(x, y) = 1 / (1 + ||x - y||^2), from the three methods a custom kernel defines."""

    def _pair(self, x, y):
        return 1.0 / (1.0 + (x - y) @ (x - y))

    def diag(self, X):
        return np.ones(X.shape[0])

    def _gram(self, X, Y, out):
        d = ((X[..., None, :] - Y) ** 2).sum(axis=-1)
        return np.divide(1.0, 1.0 + d, out=out)


def test_custom_kernel_from_three_methods(rng):
    spec = _Cauchy()
    X = rng.normal(size=(40, 2))
    X[20:] += 3.0
    # pair, gram and the sweep's columns come from the three methods alone
    fn = spec.prefix_column_fn(X)
    buf = np.empty(40)
    for j in (1, 13, 39):
        want = spec.gram(X[j], X[:j])
        np.testing.assert_allclose(want, [spec.pair(x, X[j]) for x in X[:j]], rtol=1e-14)
        assert fn(j, buf).tobytes() == want.tobytes()
        assert spec.gram(X[:j], X[j : j + 1])[:, 0].tobytes() == want.tobytes()
    # both engines run on it
    exact, naive = kernseg_exact(X, spec, dmax=6), naive_dp(X, spec, dmax=6)
    rel = np.abs(exact.losses() - naive.losses()) / np.maximum(np.abs(naive.losses()), 1e-9)
    assert rel.max() <= 1e-9
    assert exact.backtrack(2).starts == (1, 21)
    fast = binary_segmentation(nystrom_embed(X, spec, p=10), dmax=4)
    assert fast.segmentations[1].starts == (1, 21)


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from([0, 1, 2, 5, 31, 200]),
    k=st.sampled_from([0, 1, 2, 5, 31, 200]),
    q=st.integers(1, 12),
    scale_exp=st.sampled_from([-8, -3, 0, 3, 40, 150]),
    rounded=st.booleans(),
    shared=st.booleans(),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sq_dists_block_is_bitwise_the_axis_sum(m, k, q, scale_exp, rounded, shared, strided, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(m, q)), rng.normal(size=(k, q))
    if rounded:
        # ties and exact zeros
        X, Y = np.round(2 * X) / 2, np.round(2 * Y) / 2
    if shared and m and k:
        Y[k // 2] = X[m // 2]
    X, Y = X * 10.0**scale_exp, Y * 10.0**scale_exp
    for A, B in ((X, Y), (Y, X), (X, X)):
        want = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        # a transposed buffer is strided along each row of the block
        out = np.empty((B.shape[0], A.shape[0])).T if strided else None
        got = _sq_dists(A, B, out)
        assert got.tobytes() == want.tobytes()
        if strided:
            assert out.tobytes() == want.tobytes()
        if A.shape[0]:
            # one point against a block, written into a 1-D buffer
            i = A.shape[0] // 2
            buf = np.empty(B.shape[0] + 3)
            _sq_dists(A[i], B, buf[: B.shape[0]])
            assert buf[: B.shape[0]].tobytes() == want[i].tobytes()
    assert _sq_dists(X).tobytes() == _sq_dists(X, X).tobytes()


def test_psd_spot_check(rng):
    for spec in PSD_FAMILIES:
        for _ in range(5):
            m = int(rng.integers(2, 21))
            X = rng.normal(size=(m, 3))
            G = spec.gram(X)
            w = np.linalg.eigvalsh(G)
            assert w[0] >= -1e-8 * max(w[-1], 1e-30)


def test_exponential_family_is_indefinite():
    # symmetric but not PSD: two distinct points already give det < 0
    X = np.array([[0.3], [1.1]])
    w = np.linalg.eigvalsh(ExponentialKernel(1.0).gram(X))
    assert w[0] < -1e-3


def test_translation_invariance(rng):
    for spec in (GaussianKernel(0.8), LaplaceKernel(1.3)):
        for _ in range(50):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            c = rng.normal(size=2)
            assert abs(spec.pair(x + c, y + c) - spec.pair(x, y)) <= 1e-12


def test_sum_kernel_equals_sum_of_children(rng):
    # construction takes a sequence of (indices, child) pairs
    spec = SumKernel((((0,), GaussianKernel(1.0)), ((2,), LinearKernel())))
    for _ in range(50):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        expect = GaussianKernel(1.0).pair(x[0], y[0]) + LinearKernel().pair(x[2], y[2])
        assert spec.pair(x, y) == expect


def test_sum_kernel_validation():
    with pytest.raises(ValueError):
        SumKernel((((0,), GaussianKernel(1.0)), ((0,), LinearKernel())))
    with pytest.raises(ValueError):
        SumKernel(())
    spec = SumKernel.per_coordinate([GaussianKernel(1.0), LinearKernel()])
    with pytest.raises(ValueError):
        spec.pair((1.0,), (2.0,))  # q too small for the children


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)
    with pytest.raises(ValueError):
        LaplaceKernel(-1.0)
    with pytest.raises(ValueError):
        EnergyKernel(2.0)
    with pytest.raises(ValueError):
        EnergyKernel(0.0)
    with pytest.raises(ValueError):
        LinearKernel().pair((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        GaussianKernel(1.0).pair(float("nan"), 1.0)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Signal(np.empty((0, 2)))
    s = Signal([1.0, 2.0, 3.0])
    assert (s.n, s.q) == (3, 1)


# ---------------------------------------------------------------------------
# robust scaling


def test_mad_scale_consistent_under_gaussian_noise():
    rng = np.random.default_rng(7)
    sigma = 2.5
    x = rng.normal(0.0, sigma, 10_000)
    _, est = mad_scale(Signal(x))
    assert abs(est[0] / sigma - 1.0) < 0.05


def test_mad_scale_constant_coordinate_flagged():
    x = np.full(50, 5.0)
    scaled, est = mad_scale(Signal(x))
    assert est[0] == 0.0
    np.testing.assert_array_equal(scaled.data[:, 0], x)


def test_mad_scale_equivariance(rng):
    x = rng.normal(1.0, 3.0, 401)  # odd length: trailing point dropped from pairs
    s1, e1 = mad_scale(Signal(x))
    s3, e3 = mad_scale(Signal(3.0 * x))
    assert e3[0] == pytest.approx(3.0 * e1[0], rel=1e-12)
    np.testing.assert_allclose(s3.data, s1.data, rtol=1e-12)


def test_mad_scale_robust_to_jumps(rng):
    # level shifts should barely move the estimate
    x = rng.normal(0.0, 1.0, 2000)
    x[1000:] += 50.0
    _, est = mad_scale(Signal(x))
    assert abs(est[0] - 1.0) < 0.1


def test_mad_scale_short_signal_rejected():
    with pytest.raises(ValueError):
        mad_scale(Signal([1.0, 2.0, 3.0]))


def test_mad_scale_overflow_is_one_error():
    # differences beyond the float range; a subnormal scale under a large value
    big = [1.7e308, -1.7e308] * 4
    tiny = [v for d in (1e-310, 2e-310, 4e-310, 1e300, 5e-310) for v in (0.0, d)]
    for x in (big, tiny):
        with pytest.raises(ValueError, match="robust scaling overflows"):
            mad_scale(Signal(x))


# ties, both zeros, and magnitudes from 1e-300 to 1e300
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 299)),
)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    q=st.integers(1, 3),
    data=st.data(),
)
def test_median_rows_is_numpys_median_bitwise(m, q, data):
    a = np.array(data.draw(st.lists(_MEDIAN_VALUES, min_size=m * q, max_size=m * q))).reshape(m, q)
    assert _median_rows(a).tobytes() == np.median(a, axis=0).tobytes()


# ---------------------------------------------------------------------------
# mean-distance estimates


def test_mmd_identical_samples_is_zero(rng):
    x = rng.normal(size=(40, 2))
    for spec in (GaussianKernel(1.0), EnergyKernel(1.0)):
        assert abs(empirical_mmd_sq(spec, x, x)) <= 1e-12


def test_mmd_singletons(rng):
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    for spec in ALL_FAMILIES:
        if isinstance(spec, (SumKernel,)):
            continue
        if isinstance(spec, EnergyKernel) and spec.x0 is not None:
            continue
        want = spec.pair(x, x) + spec.pair(y, y) - 2 * spec.pair(x, y)
        got = empirical_mmd_sq(spec, x[None, :], y[None, :])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_energy_identity(rng, alpha):
    # twice the squared mean distance under the energy kernel equals the
    # energy distance, for any anchor
    for _ in range(10):
        na, nb = int(rng.integers(3, 25)), int(rng.integers(3, 25))
        q = int(rng.integers(1, 4))
        a = rng.normal(size=(na, q))
        b = rng.normal(1.0, 2.0, size=(nb, q))
        x0 = tuple(rng.normal(size=q))
        lhs = 2.0 * empirical_mmd_sq(EnergyKernel(alpha, x0), a, b)
        rhs = energy_distance(a, b, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_mmd_dimension_mismatch():
    with pytest.raises(ValueError):
        empirical_mmd_sq(GaussianKernel(1.0), np.zeros((3, 1)), np.zeros((3, 2)))
