"""Landmark embedding and greedy splitting against exact references."""

import numpy as np
import pytest

from kcpd import (
    ExponentialKernel,
    GaussianKernel,
    LinearKernel,
    Signal,
    SumKernel,
    best_split,
    binary_segmentation,
    embedded_segment_cost,
    kernseg_exact,
    nystrom_embed,
    segment_cost_direct,
)
from kcpd.lowrank import embedding_table_bytes

from conftest import direct_cost_matrix, random_signal


def _rel(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def test_full_landmarks_reproduce_gram(rng):
    x = rng.normal(size=(50, 1))
    x[25:] += 2.0
    spec = GaussianKernel(1.0)
    emb = nystrom_embed(Signal(x), spec, p=50, rule="stride")
    K = spec.gram(x)
    kt = emb.approx_gram()
    assert np.abs(kt - K).max() <= 1e-6 * np.abs(K).max()


def test_rank_one_embedding_formula(rng):
    x = rng.normal(size=(12, 1))
    spec = GaussianKernel(0.5)
    u = x[5]
    emb = nystrom_embed(Signal(x), spec, p=1, points=u[None, :])
    kt = emb.approx_gram()
    col = spec.cross(x.copy(), u)
    want = np.outer(col, col) / spec.pair(u, u)
    np.testing.assert_allclose(kt, want, rtol=1e-10, atol=1e-12)


def test_linear_kernel_basis_landmarks_exact(rng):
    # the linear kernel has finite rank q; basis-vector landmarks recover it
    X = rng.normal(size=(40, 3))
    emb = nystrom_embed(Signal(X), LinearKernel(), points=np.eye(3))
    C = direct_cost_matrix(Signal(X), LinearKernel())
    for s, e in ((0, 40), (3, 17), (20, 21), (11, 39)):
        assert _rel(embedded_segment_cost(emb, s, e), C[s, e]) <= 1e-9 or abs(C[s, e]) < 1e-9


def test_embedded_cost_matches_double_sum_on_approx_gram(rng):
    x = random_signal(rng, 30)
    emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=7, rule="grid")
    kt = emb.approx_gram()
    for _ in range(40):
        s = int(rng.integers(0, 29))
        e = int(rng.integers(s + 1, 31))
        block = kt[s:e, s:e]
        want = np.trace(block) - block.sum() / (e - s)
        got = embedded_segment_cost(emb, s, e)
        assert abs(got - want) <= 1e-9 * max(abs(got), abs(want)) + 1e-12


def test_embedded_single_point_cost_zero(rng):
    emb = nystrom_embed(Signal(random_signal(rng, 20)), GaussianKernel(1.0), p=5, rule="grid")
    for s in range(20):
        assert embedded_segment_cost(emb, s, s + 1) == pytest.approx(0.0, abs=1e-12)


def test_full_landmark_costs_match_exact(rng):
    x = random_signal(rng, 60)
    sig = Signal(x)
    spec = GaussianKernel(1.0)
    emb = nystrom_embed(sig, spec, p=60, rule="stride")
    C = direct_cost_matrix(sig, spec)
    worst = 0.0
    for s in range(0, 60, 7):
        for e in range(s + 1, 61, 5):
            got = embedded_segment_cost(emb, s, e)
            worst = max(worst, abs(got - C[s, e]) / max(abs(C[s, e]), 1e-6))
    assert worst <= 1e-6


def test_sum_kernel_blocks_concatenate(rng):
    X = random_signal(rng, 35, q=2)
    spec = SumKernel.per_coordinate([GaussianKernel(1.0), GaussianKernel(2.0)])
    emb = nystrom_embed(Signal(X), spec, p=35, rule="stride")
    K = spec.gram(X)
    assert np.abs(emb.approx_gram() - K).max() <= 1e-6 * np.abs(K).max()
    # grid landmarks per coordinate block also work
    emb2 = nystrom_embed(Signal(X), spec, p=10, rule="grid")
    assert emb2.Z.shape[0] <= 20


def test_embedding_table_bytes_counts_every_array(rng):
    X = random_signal(rng, 40, q=2)
    for spec in (GaussianKernel(1.0),
                 SumKernel.per_coordinate([GaussianKernel(1.0), GaussianKernel(2.0)])):
        emb = nystrom_embed(Signal(X), spec, p=8, rule="stride")
        arrays = (emb.Z, emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq)
        assert embedding_table_bytes(emb.n, emb.rank) == sum(a.nbytes for a in arrays)


def test_default_rule_is_stride_for_multivariate_signals(rng):
    sig = Signal(random_signal(rng, 40, q=2))
    emb = nystrom_embed(sig, GaussianKernel(1.0), p=10)
    assert emb.rule == "stride"
    np.testing.assert_array_equal(emb.Z, nystrom_embed(sig, GaussianKernel(1.0), p=10, rule="stride").Z)
    assert nystrom_embed(Signal(random_signal(rng, 40)), GaussianKernel(1.0), p=10).rule == "grid"


def test_grid_rule_needs_univariate():
    with pytest.raises(ValueError):
        nystrom_embed(Signal(np.zeros((10, 2)) + np.arange(10)[:, None]), GaussianKernel(1.0),
                      p=4, rule="grid")


def test_degenerate_landmarks_rejected():
    # all-identical landmarks under the linear kernel at the origin
    sig = Signal(np.zeros(10))
    with pytest.raises(ValueError):
        nystrom_embed(sig, LinearKernel(), p=3, rule="stride")


def test_overflowing_kernel_rejected():
    sig = Signal(np.tile([800.0, -800.0], 10))
    with pytest.raises(ValueError, match=r"ExponentialKernel\(delta=1\.0\) gives a non-finite landmark"):
        nystrom_embed(sig, ExponentialKernel(1.0), p=4, rule="grid")
    # finite landmark Gram, overflowing K(J, X)
    with pytest.raises(ValueError, match="non-finite embedding.*rescale"):
        nystrom_embed(sig, ExponentialKernel(1.0), points=[1.0])
    # an overflowing child of a sum kernel is reported under the whole kernel
    spec = SumKernel.per_coordinate([GaussianKernel(1.0), ExponentialKernel(1.0)])
    with pytest.raises(ValueError) as err:
        nystrom_embed(Signal(np.repeat(sig.data, 2, axis=1)), spec, p=4)
    assert str(err.value).startswith(f"{spec!r} gives a non-finite landmark Gram matrix")


def test_landmark_count_validation(rng):
    sig = Signal(random_signal(rng, 10))
    with pytest.raises(ValueError):
        nystrom_embed(sig, GaussianKernel(1.0), p=11, rule="stride")
    with pytest.raises(ValueError):
        nystrom_embed(sig, GaussianKernel(1.0), p=0, rule="grid")


# ---------------------------------------------------------------------------
# splitting


def test_best_split_two_level_segment():
    emb = nystrom_embed(Signal([0.0, 0.0, 5.0, 5.0]), LinearKernel(), points=np.array([[1.0]]))
    cand = best_split(emb, 0, 4)
    assert cand.split == 2
    assert cand.gain == pytest.approx(25.0, rel=1e-9)
    # reported as a 1-based start, the right child begins at 3
    assert cand.split + 1 == 3


def test_best_split_constant_segment_smallest_tie(rng):
    emb = nystrom_embed(Signal(np.full(9, 2.0)), LinearKernel(), points=np.array([[1.0]]))
    cand = best_split(emb, 0, 9)
    assert cand.gain == pytest.approx(0.0, abs=1e-12)
    assert cand.split == 1


def test_best_split_infeasible_none(rng):
    emb = nystrom_embed(Signal(random_signal(rng, 6)), GaussianKernel(1.0), p=3, rule="grid")
    assert best_split(emb, 0, 3, ell=2) is None
    assert best_split(emb, 0, 4, ell=2) is not None


def test_binseg_nesting_and_lengths(rng):
    x = random_signal(rng, 80)
    emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=20, rule="grid")
    for ell in (1, 3):
        res = binary_segmentation(emb, dmax=8, ell=ell)
        prev = set()
        for d, seg in enumerate(res.segmentations, start=1):
            if not res.exhausted:
                assert seg.d == d
            assert prev.issubset(set(seg.starts))
            prev = set(seg.starts)
            assert min(seg.lengths()) >= ell


def test_binseg_single_segment(rng):
    emb = nystrom_embed(Signal(random_signal(rng, 12)), GaussianKernel(1.0), p=4, rule="grid")
    res = binary_segmentation(emb, dmax=1)
    assert res.segmentations[0].starts == (1,)


def test_binseg_exhaustion_flag():
    # 4 points, min length 2: at most 2 segments
    emb = nystrom_embed(Signal([0.0, 0.0, 5.0, 5.0]), LinearKernel(), points=np.array([[1.0]]))
    res = binary_segmentation(emb, dmax=2, ell=2)
    assert res.segmentations[1].d == 2
    with pytest.raises(ValueError):
        binary_segmentation(emb, dmax=3, ell=2)
    res3 = binary_segmentation(emb, dmax=4, ell=1)
    assert not res3.exhausted or res3.segmentations[-1].d <= 4


def test_binseg_loss_lower_bounded_by_exact(rng):
    for _ in range(5):
        n = int(rng.integers(30, 120))
        x = random_signal(rng, n)
        emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=12, rule="grid")
        res = binary_segmentation(emb, dmax=6)
        exact = kernseg_exact(Signal(emb.Z.T), LinearKernel(), dmax=6)
        for d in range(1, 7):
            lb = exact.loss(d)
            assert res.losses[d - 1] >= lb - 1e-8 * max(1.0, abs(lb))


def test_binseg_gains_nonnegative_and_losses_decreasing(rng):
    x = random_signal(rng, 100)
    emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=15, rule="grid")
    res = binary_segmentation(emb, dmax=10)
    assert np.all(np.diff(res.losses) <= 1e-9)


def test_heap_order_matches_rescan_reference(rng):
    # greedy committed splits must match a heap-free implementation that
    # rescans every live segment at each step
    for trial in range(4):
        n = int(rng.integers(24, 60))
        x = random_signal(rng, n)
        emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=10, rule="grid")
        dmax = 6
        res = binary_segmentation(emb, dmax=dmax)

        starts = [0]
        for _ in range(dmax - 1):
            live = list(zip(starts, starts[1:] + [n]))
            cands = [best_split(emb, s, e) for s, e in live]
            cands = [c for c in cands if c is not None]
            if not cands:
                break
            best = max(cands, key=lambda c: (c.gain, -c.start))
            starts.append(best.split)
            starts.sort()
        assert tuple(s + 1 for s in starts) == res.segmentations[dmax - 1].starts


def test_approx_gram_psd(rng):
    x = random_signal(rng, 40)
    emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=9, rule="grid")
    idx = rng.choice(40, size=15, replace=False)
    w = np.linalg.eigvalsh(emb.approx_gram(idx))
    assert w[0] >= -1e-8 * max(w[-1], 1e-30)
