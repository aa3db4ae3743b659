"""Landmark embedding and greedy splitting against exact references."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpd import (
    EnergyKernel,
    ExponentialKernel,
    GaussianKernel,
    LaplaceKernel,
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
from kcpd import lowrank
from kcpd.lowrank import embedding_table_bytes

from conftest import direct_cost_matrix, full_width_features, random_signal


def _rel(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _approx_gram(emb, X):
    """K~ = F' F, F the features of the signal X."""
    F = full_width_features(emb, X)[0]
    return F.T @ F


def test_full_landmarks_reproduce_gram(rng):
    x = rng.normal(size=(50, 1))
    x[25:] += 2.0
    spec = GaussianKernel(1.0)
    emb = nystrom_embed(Signal(x), spec, p=50, rule="stride")
    K = spec.gram(x)
    kt = _approx_gram(emb, x)
    assert np.abs(kt - K).max() <= 1e-6 * np.abs(K).max()


def test_rank_one_embedding_formula(rng):
    x = rng.normal(size=(12, 1))
    spec = GaussianKernel(0.5)
    u = x[5]
    emb = nystrom_embed(Signal(x), spec, p=1, points=u[None, :])
    kt = _approx_gram(emb, x)
    col = spec.gram(u, x.copy())
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
    kt = _approx_gram(emb, x)
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
    assert np.abs(_approx_gram(emb, X) - K).max() <= 1e-6 * np.abs(K).max()
    # grid landmarks per coordinate block also work
    emb2 = nystrom_embed(Signal(X), spec, p=10, rule="grid")
    assert emb2.rank <= 20


def test_embedding_table_bytes_counts_every_array(rng):
    X = random_signal(rng, 40, q=2)
    for spec in (GaussianKernel(1.0),
                 SumKernel.per_coordinate([GaussianKernel(1.0), GaussianKernel(2.0)])):
        emb = nystrom_embed(Signal(X), spec, p=8, rule="stride")
        arrays = (emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq)
        assert embedding_table_bytes(emb.n, emb.rank) == sum(a.nbytes for a in arrays)
        # besides those it holds only the small landmark maps
        held = [getattr(emb, f.name) for f in dataclasses.fields(emb)]
        kept = sum(a.nbytes for a in held if isinstance(a, np.ndarray))
        assert kept == embedding_table_bytes(emb.n, emb.rank)


# a Gram block and split chunk width small enough that test inputs span several
_W = 1024


def _streamed_features(emb, X):
    """The features of the signal X as the embedding makes them, Gram block
    by Gram block."""
    Z = np.empty((emb.rank, emb.n))
    for a, b in lowrank._gram_blocks(emb.n):
        lowrank._features(emb.maps, X, a, b, Z[:, a:b])
    return Z


def _one_cumsum(Z):
    """prefix_sum, prefix_sqnorm and prefix_norm_sq as one cumsum over the
    feature columns Z, with a zero first row."""
    n = Z.shape[1]
    prefix, sqnorm = np.zeros((len(Z), n + 1)), np.zeros(n + 1)
    np.cumsum(Z, axis=1, out=prefix[:, 1:])
    np.cumsum(np.einsum("ij,ij->j", Z, Z), out=sqnorm[1:])
    return prefix.T, sqnorm, np.einsum("ij,ij->j", prefix, prefix)


_SPECS = (GaussianKernel(1.0), SumKernel.per_coordinate([GaussianKernel(1.0), LaplaceKernel(2.0)]))


@pytest.mark.parametrize("n", [3 * _W + 1, 3 * _W + 288])
@pytest.mark.parametrize("spec", _SPECS, ids=["gaussian", "sum"])
def test_streamed_prefix_sums_are_one_cumsum(monkeypatch, rng, n, spec):
    # the prefix arrays are filled Gram block by Gram block, the last
    # W / 2 + (n - 3 W) wide; they must be bitwise one cumsum over the
    # features. The features are bitwise the full-width product at the real
    # block width (test_embedding_is_one_full_width_product). At this width
    # the sum kernel's Gaussian block (rank about 15) can go to OpenBLAS's
    # small-matrix kernel, which may round a narrow last block's last columns
    # differently, so the features are held to the rounding bound of a
    # p-term dot product, about p u |proj| @ |K|, 6e-15 of it at p = 50
    monkeypatch.setattr(lowrank, "_GRAM_COLS", _W)
    X = rng.normal(size=(n, 2))
    X[n // 3 :] += 1.0
    emb = nystrom_embed(Signal(X), spec, p=50, rule="stride")
    Z = _streamed_features(emb, X)
    assert Z.shape == (emb.rank, n)
    for got, want in zip((emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq), _one_cumsum(Z),
                         strict=True):
        np.testing.assert_array_equal(got, want, strict=True)
    # stored feature-major: prefix_sum is the (n + 1, rank) view of a
    # C-contiguous (rank, n + 1) array
    ST = emb.prefix_sum.T
    assert ST.flags.c_contiguous
    assert emb.prefix_sum.base.shape == ST.shape and emb.prefix_sum.base.flags.c_contiguous
    full, mag = full_width_features(emb, X)
    assert (np.abs(Z - full) <= 1e-13 * mag).all()


@pytest.mark.parametrize("n", [40, _W])
@pytest.mark.parametrize("spec", _SPECS, ids=["gaussian", "sum"])
def test_one_pass_embedding_is_the_full_width_product(rng, n, spec):
    # one Gram block
    X = rng.normal(size=(n, 2))
    emb = nystrom_embed(Signal(X), spec, p=20, rule="stride")
    full = full_width_features(emb, X)[0]
    np.testing.assert_array_equal(_streamed_features(emb, X), full, strict=True)
    np.testing.assert_array_equal(emb.prefix_sum, _one_cumsum(full)[0], strict=True)


def test_embedding_memory_is_the_prefix_sums_plus_one_pass(monkeypatch, rng):
    # n = 4 W + 3 spans five Gram blocks of at most W columns; a whole
    # K(J, X) alone would be 4 blocks of p x W floats, on top of the kept
    # prefix arrays
    monkeypatch.setattr(lowrank, "_GRAM_COLS", _W)
    n, p = 4 * _W + 3, 100
    sig = Signal(rng.normal(size=n))
    spec = GaussianKernel(1.0)
    nystrom_embed(sig, spec, p=p, rule="stride")  # first-call allocations stay out
    tracemalloc.start()
    try:
        emb = nystrom_embed(sig, spec, p=p, rule="stride")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= embedding_table_bytes(n, emb.rank) + 2 * 8 * p * _W


@pytest.mark.parametrize("n", [2047, 2048, 4097, 6143, 8193, 12345, 16383, 16385, 20001, 32769,
                               32820, 33333, 50001])
def test_embedding_is_one_full_width_product(rng, n):
    # the Gram blocks start every 4096 columns, a remainder below 2048
    # joining the last half-block; the features are bitwise the one product
    # proj @ K(J, X) over all n points, and the prefix arrays one cumsum of it
    assert lowrank._GRAM_COLS == 4096
    x = rng.normal(size=(n, 2))
    x[n // 3 :] += 1.5
    one, two = Signal(x[:, :1]), Signal(x)
    cases = [
        (one, GaussianKernel(1.0), "grid"),
        (two, LaplaceKernel(1.0), "stride"),
        (one, EnergyKernel(), None),
        (two, SumKernel.per_coordinate([GaussianKernel(1.0), LaplaceKernel(2.0)]), None),
    ]
    for sig, spec, rule in cases:
        emb = nystrom_embed(sig, spec, p=60, rule=rule)
        full = full_width_features(emb, sig.data)[0]
        np.testing.assert_array_equal(_streamed_features(emb, sig.data), full, strict=True)
        got = (emb.prefix_sum, emb.prefix_sqnorm, emb.prefix_norm_sq)
        for a, b in zip(got, _one_cumsum(full), strict=True):
            np.testing.assert_array_equal(a, b, strict=True)


def test_embedding_holds_one_gram_block_and_no_features(rng):
    # the embedding holds one p x 4096 Gram block and writes the features
    # into the prefix sums, also when the last blocks are 4096 + 2047 wide
    # (n = 24575) and when a remainder joins the last half-block (n = 50000)
    p, spec = 100, GaussianKernel(1.0)
    for n in (24575, 50000):
        sig = Signal(rng.normal(size=n))
        nystrom_embed(sig, spec, p=p, rule="grid")  # first-call allocations stay out
        tracemalloc.start()
        try:
            emb = nystrom_embed(sig, spec, p=p, rule="grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= embedding_table_bytes(n, emb.rank) + 8 * p * lowrank._GRAM_COLS + 4 * 8 * 4096


def test_default_rule_is_stride_for_multivariate_signals(rng):
    sig = Signal(random_signal(rng, 40, q=2))
    emb = nystrom_embed(sig, GaussianKernel(1.0), p=10)
    assert emb.rule == "stride"
    stride = nystrom_embed(sig, GaussianKernel(1.0), p=10, rule="stride")
    np.testing.assert_array_equal(emb.prefix_sum, stride.prefix_sum)
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


@pytest.mark.parametrize("points", [np.zeros((0, 1)), [[np.nan]], [[np.inf]], 1.0],
                         ids=["empty", "nan", "inf", "scalar"])
def test_landmark_points_must_be_nonempty_and_finite(rng, points):
    # refused up front, not as a reshape, len() or kernel overflow error
    with pytest.raises(ValueError, match="landmark points must be a non-empty array of finite values"):
        nystrom_embed(Signal(random_signal(rng, 20)), GaussianKernel(1.0), points=points)


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


@pytest.mark.parametrize("ell", [0, -1])
def test_best_split_refuses_a_length_floor_below_one(rng, ell):
    emb = nystrom_embed(Signal(random_signal(rng, 50)), GaussianKernel(1.0), p=5, rule="grid")
    with pytest.raises(ValueError, match=f"minimum segment length must be at least 1, got {ell}"):
        best_split(emb, 0, 50, ell=ell)


def test_best_split_infeasible_none(rng):
    emb = nystrom_embed(Signal(random_signal(rng, 6)), GaussianKernel(1.0), p=3, rule="grid")
    assert best_split(emb, 0, 3, ell=2) is None
    assert best_split(emb, 0, 4, ell=2) is not None


def test_chunked_split_scan_is_its_chunk_by_chunk_reference(monkeypatch, rng):
    # a scan over more than one chunk: one product per chunk of _W splits
    # from lo, then the elementwise formula, then the first minimum
    monkeypatch.setattr(lowrank, "_SPLIT_COLS", _W)
    n = 3 * _W + 5
    x = rng.normal(size=n)
    x[2000:] += 2.0
    emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=30, rule="grid")
    start, end, ell = 7, n - 2, 3
    cand = best_split(emb, start, end, ell)
    ST, q, p2 = emb.prefix_sum.T, emb.prefix_sqnorm, emb.prefix_norm_sq
    W = ST[:, (start, end)].T.copy()
    lo, hi = start + ell, end - ell + 1
    totals = []
    for a in range(lo, hi, _W):
        t = np.arange(a, min(a + _W, hi))
        prod = -2.0 * (W @ ST[:, a : t[-1] + 1])
        left = (q[t] - q[start]) - (p2[t] + prod[0] + p2[start]) / (t - start)
        right = (q[end] - q[t]) - (prod[1] + p2[end] + p2[t]) / (end - t)
        totals.append(left + right)
    total = np.concatenate(totals)
    i = int(np.argmin(total))
    assert (cand.split, cand.gain) == (lo + i, embedded_segment_cost(emb, start, end) - total[i])
    direct = [embedded_segment_cost(emb, start, t) + embedded_segment_cost(emb, t, end)
              for t in range(lo, hi)]
    assert cand.split == lo + int(np.argmin(direct)) == 2000


def test_split_ties_across_chunk_edges_go_to_the_smallest_index(monkeypatch):
    # every split of a constant signal costs exactly 0, in every chunk
    monkeypatch.setattr(lowrank, "_SPLIT_COLS", _W)
    emb = nystrom_embed(Signal(np.full(2 * _W + 50, 2.0)), LinearKernel(), points=np.array([[1.0]]))
    for start, end, ell in ((0, emb.n, 1), (5, emb.n - 3, 4)):
        cand = best_split(emb, start, end, ell)
        assert (cand.split, cand.gain) == (start + ell, 0.0)


def test_split_scans_hold_one_chunk_of_temporaries(monkeypatch, rng):
    # n = 4 W + 3: the root scan as n-length vectors would hold about seven
    # of them, 28 W floats; chunked, each scan holds about 9 W
    monkeypatch.setattr(lowrank, "_SPLIT_COLS", _W)
    n = 4 * _W + 3
    emb = nystrom_embed(Signal(rng.normal(size=n)), GaussianKernel(1.0), p=20, rule="grid")
    binary_segmentation(emb, dmax=4)  # first-call allocations stay out
    tracemalloc.start()
    try:
        binary_segmentation(emb, dmax=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * _W


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(12, 120),
    q=st.sampled_from([1, 2]),
    ell=st.integers(1, 3),
    dmax=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_binseg_loss_lower_bounded_by_exact(n, q, ell, dmax, seed):
    # each greedy D-segmentation is one the exact sweep on the embedded
    # signal weighs, so its loss is never below the optimum (criterion 5's
    # tolerance); the linear kernel is PSD, so that sweep runs in list mode
    dmax = min(dmax, n // ell)
    x = random_signal(np.random.default_rng(seed), n, q)
    if q == 1:
        emb = nystrom_embed(Signal(x), GaussianKernel(1.0), p=12, rule="grid")
    else:
        spec = SumKernel.per_coordinate([GaussianKernel(1.0), LaplaceKernel(2.0)])
        emb = nystrom_embed(Signal(x), spec, p=12, rule="stride")
    res = binary_segmentation(emb, dmax, ell)
    exact = kernseg_exact(Signal(full_width_features(emb, x)[0].T), LinearKernel(), dmax, ell)
    for d, seg in enumerate(res.segmentations, start=1):
        if seg.d == d:  # once exhausted, binseg repeats its last one
            lb = exact.loss(d)
            assert res.losses[d - 1] >= lb - 1e-8 * max(1.0, abs(lb)), d


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
    F = full_width_features(emb, x)[0][:, idx]
    w = np.linalg.eigvalsh(F.T @ F)
    assert w[0] >= -1e-8 * max(w[-1], 1e-30)
