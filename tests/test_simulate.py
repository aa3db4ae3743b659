"""Synthetic generator: determinism, truth bookkeeping, folded track."""

import numpy as np
import pytest

from kcpd import (
    FoldedPiece,
    NormalPiece,
    Segmentation,
    empirical_risk,
    equally_spaced_changes,
    generate,
    mean_shift_specs,
    piecewise_mean_fit,
)


def test_zero_noise_equals_means():
    specs = mean_shift_specs([[0.0], [5.0], [-2.0]], sd=0.0)
    out = generate(30, [1, 11, 21], specs, seed=1)
    np.testing.assert_array_equal(out.signal.data, out.means)
    assert out.truth == Segmentation((1, 11, 21), 30)


def test_same_seed_bit_identical():
    specs = [[NormalPiece(0.0, 1.0), FoldedPiece(0.6, 0.1)], [NormalPiece(3.0, 2.0), FoldedPiece(0.5, 0.2)]]
    a = generate(100, [1, 51], specs, seed=42)
    b = generate(100, [1, 51], specs, seed=42)
    assert a.signal.data.tobytes() == b.signal.data.tobytes()
    c = generate(100, [1, 51], specs, seed=43)
    assert a.signal.data.tobytes() != c.signal.data.tobytes()


def test_philox_stream_pinned():
    # the first draw from seed 0 is part of the output contract
    out = generate(3, [1], [[NormalPiece(0.0, 1.0)]], seed=0)
    rng = np.random.Generator(np.random.Philox(0))
    np.testing.assert_array_equal(out.signal.data[:, 0], rng.normal(0.0, 1.0, 3))


def test_noiseless_truth_has_zero_risk():
    specs = mean_shift_specs([[1.0], [4.0], [2.0], [7.0]], sd=0.0)
    out = generate(60, [1, 16, 31, 46], specs, seed=9)
    fit = piecewise_mean_fit(out.signal.data[:, 0], out.truth)
    assert empirical_risk(fit, out.means[:, 0]) == 0.0


def test_folded_piece_mean_matches_monte_carlo():
    piece = FoldedPiece(0.62, 0.15)
    rng = np.random.Generator(np.random.Philox(7))
    draws = piece.draw(rng, 400_000)
    assert draws.mean() == pytest.approx(piece.regression_mean(), abs=2e-3)
    assert FoldedPiece(0.62, 0.0).regression_mean() == pytest.approx(0.12, abs=1e-12)


def test_variance_piece_keeps_mean():
    out = generate(
        2000,
        [1, 1001],
        [[NormalPiece(0.0, 1.0)], [NormalPiece(0.0, 3.0)]],
        seed=5,
    )
    assert out.means[:, 0].max() == 0.0
    first = out.signal.data[:1000, 0]
    second = out.signal.data[1000:, 0]
    assert second.std() > 2.0 * first.std()


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        generate(10, [1, 6], [[NormalPiece(0, 1)]], seed=0)
    with pytest.raises(ValueError):
        generate(10, [1, 6], [[NormalPiece(0, 1)], [NormalPiece(0, 1), NormalPiece(0, 1)]], seed=0)
    with pytest.raises(ValueError):
        NormalPiece(0.0, -1.0)


def test_equally_spaced_changes():
    starts = equally_spaced_changes(5000, 10)
    assert len(starts) == 11
    assert starts[0] == 1
    lengths = np.diff(starts + [5001])
    assert lengths.min() >= 400
    with pytest.raises(ValueError):
        equally_spaced_changes(5, 10)
