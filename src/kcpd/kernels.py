"""Kernel families, signal containers, and robust scaling utilities.

Every kernel evaluates pointwise on q-dimensional observations and also
exposes vectorized forms (a column against a prefix of the data, full Gram
blocks) that the segmentation algorithms rely on. All arrays are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Signal",
    "as_signal",
    "KernelSpec",
    "LinearKernel",
    "GaussianKernel",
    "LaplaceKernel",
    "ExponentialKernel",
    "EnergyKernel",
    "SumKernel",
    "evaluate",
    "mad_scale",
    "empirical_mmd_sq",
    "energy_distance",
]

# Gaussian-consistency factor for the median absolute deviation.
MAD_CONSISTENCY = 1.4826


@dataclass(frozen=True)
class Signal:
    """Time-ordered observations, one row per time point.

    ``data`` is coerced to a C-contiguous float64 matrix of shape (n, q);
    one-dimensional input becomes a single column. All entries must be
    finite and n must be at least 1.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("signal data must be 1- or 2-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("signal needs at least one time point and one coordinate")
        if not np.isfinite(arr).all():
            raise ValueError("signal contains non-finite entries")
        object.__setattr__(self, "data", np.ascontiguousarray(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def q(self) -> int:
        return self.data.shape[1]


def as_signal(x) -> Signal:
    """Coerce an array-like (or pass through a Signal) to a Signal."""
    return x if isinstance(x, Signal) else Signal(x)


def _point(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError("expected a q-vector")
    if not np.isfinite(v).all():
        raise ValueError("non-finite kernel argument")
    return v


_BLOCK_ELEMS = 8_000_000


def _sq_dists(X: np.ndarray, Y: np.ndarray | None) -> np.ndarray:
    # pairwise squared Euclidean distances by direct differencing, blocked
    # over rows to bound the temporary; unlike the norm-expansion trick this
    # has no cancellation, so coincident points give exactly zero and sqrt
    # does not amplify any residue
    Y = X if Y is None else Y
    n, q = X.shape
    m = Y.shape[0]
    out = np.empty((n, m))
    rows = max(1, _BLOCK_ELEMS // max(1, m * q))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        diff = X[s:e, None, :] - Y[None, :, :]
        np.multiply(diff, diff, out=diff)
        out[s:e] = diff.sum(axis=2)
    return out


class KernelSpec:
    """A symmetric kernel k(x, y) on R^q, evaluable pointwise and in blocks.

    ``psd`` is True only for kernels known to be positive semi-definite;
    the exact segmenter prunes candidate change points only for those.
    """

    psd = False

    def pair(self, x, y) -> float:
        x = _point(x)
        y = _point(y)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
        self.check_dim(x.size)
        return float(self._pair(x, y))

    def check_dim(self, q: int) -> None:
        """Raise ValueError if the kernel cannot act on q-vectors."""

    def cross(self, X: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vector of k(X[i], y) over the rows of X."""
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Vector of k(X[i], X[i])."""
        raise NotImplementedError

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Gram block k(X[i], Y[j]); symmetric k(X, X) when Y is None."""
        raise NotImplementedError

    def prefix_column_fn(self, X: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """Return f(j, out) writing k(X[:j], X[j]) into out[:j].

        The returned closure may precompute per-signal quantities; it is the
        workhorse of the exact segmenter and must not allocate per call
        beyond small temporaries.
        """
        def f(j: int, out: np.ndarray) -> np.ndarray:
            return self.cross(X[:j], X[j], out=out[:j])

        return f


@dataclass(frozen=True)
class LinearKernel(KernelSpec):
    """k(x, y) = <x, y>."""

    psd = True

    def _pair(self, x, y):
        return x @ y

    def cross(self, X, y, out=None):
        return np.matmul(X, y, out=out)

    def diag(self, X):
        return np.einsum("ij,ij->i", X, X)

    def gram(self, X, Y=None):
        Y = X if Y is None else Y
        return X @ Y.T


def _check_delta(delta: float) -> None:
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"bandwidth must be a positive real, got {delta!r}")


@dataclass(frozen=True)
class GaussianKernel(KernelSpec):
    """k(x, y) = exp(-||x - y||^2 / delta)."""

    psd = True
    delta: float = 1.0

    def __post_init__(self):
        _check_delta(self.delta)

    def _pair(self, x, y):
        d = x - y
        return math.exp(-(d @ d) / self.delta)

    def cross(self, X, y, out=None):
        d = X - y
        np.multiply(d, d, out=d)
        s = d.sum(axis=1, out=out)
        np.divide(s, -self.delta, out=s)
        return np.exp(s, out=s)

    def diag(self, X):
        return np.ones(X.shape[0])

    def gram(self, X, Y=None):
        d2 = _sq_dists(X, Y)
        np.divide(d2, -self.delta, out=d2)
        return np.exp(d2, out=d2)


@dataclass(frozen=True)
class LaplaceKernel(KernelSpec):
    """k(x, y) = exp(-||x - y|| / delta)."""

    psd = True
    delta: float = 1.0

    def __post_init__(self):
        _check_delta(self.delta)

    def _pair(self, x, y):
        d = x - y
        return math.exp(-math.sqrt(d @ d) / self.delta)

    def cross(self, X, y, out=None):
        d = X - y
        np.multiply(d, d, out=d)
        s = d.sum(axis=1, out=out)
        np.sqrt(s, out=s)
        np.divide(s, -self.delta, out=s)
        return np.exp(s, out=s)

    def diag(self, X):
        return np.ones(X.shape[0])

    def gram(self, X, Y=None):
        d2 = _sq_dists(X, Y)
        np.sqrt(d2, out=d2)
        np.divide(d2, -self.delta, out=d2)
        return np.exp(d2, out=d2)


@dataclass(frozen=True)
class ExponentialKernel(KernelSpec):
    """k(x, y) = exp(-<x, y> / delta).

    Note: this family is symmetric but not positive semi-definite; a Gram
    matrix on two distinct points already has a negative eigenvalue. It is
    shipped for completeness of the family list and is exercised by the
    segmenters like any other kernel, without pruning.
    """

    psd = False
    delta: float = 1.0

    def __post_init__(self):
        _check_delta(self.delta)

    def _pair(self, x, y):
        return math.exp(-(x @ y) / self.delta)

    def cross(self, X, y, out=None):
        s = np.matmul(X, y, out=out)
        np.divide(s, -self.delta, out=s)
        return np.exp(s, out=s)

    def diag(self, X):
        s = np.einsum("ij,ij->i", X, X)
        return np.exp(s / -self.delta)

    def gram(self, X, Y=None):
        Y = X if Y is None else Y
        s = X @ Y.T
        np.divide(s, -self.delta, out=s)
        return np.exp(s, out=s)


@dataclass(frozen=True)
class EnergyKernel(KernelSpec):
    """k(x, y) = (||x - x0||^a + ||y - x0||^a - ||x - y||^a) / 2, 0 < a < 2.

    ``x0`` is the anchor point; None means the zero vector of matching
    dimension. The defaults a = 1, x0 = 0 give the kernel whose RKHS
    distance reproduces the classical energy distance between samples.
    """

    psd = True

    alpha: float = 1.0
    x0: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"exponent must lie in (0, 2), got {self.alpha!r}")
        if self.x0 is not None:
            anchor = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x0, dtype=np.float64)))
            if not all(math.isfinite(v) for v in anchor):
                raise ValueError("anchor point must be finite")
            object.__setattr__(self, "x0", anchor)

    def check_dim(self, q: int) -> None:
        if self.x0 is not None and len(self.x0) != q:
            raise ValueError(f"anchor has dimension {len(self.x0)}, data has {q}")

    def _anchor(self, q: int) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(q)
        return np.asarray(self.x0, dtype=np.float64)

    def _pair(self, x, y):
        x0 = self._anchor(x.size)
        a = self.alpha
        dx = x - x0
        dy = y - x0
        dxy = x - y
        return 0.5 * ((dx @ dx) ** (a / 2) + (dy @ dy) ** (a / 2) - (dxy @ dxy) ** (a / 2))

    def _anchor_norms(self, X):
        d = X - self._anchor(X.shape[1])
        return np.einsum("ij,ij->i", d, d) ** (self.alpha / 2)

    def cross(self, X, y, out=None):
        ax = self._anchor_norms(X)
        ay = self._anchor_norms(y[None, :])[0]
        d = X - y
        np.multiply(d, d, out=d)
        s = d.sum(axis=1, out=out)
        np.power(s, self.alpha / 2, out=s)
        np.subtract(ax, s, out=s)
        s += ay
        s *= 0.5
        return s

    def diag(self, X):
        return self._anchor_norms(X)

    def gram(self, X, Y=None):
        ax = self._anchor_norms(X)
        ay = ax if Y is None else self._anchor_norms(Y)
        d = _sq_dists(X, Y) ** (self.alpha / 2)
        return 0.5 * (ax[:, None] + ay[None, :] - d)

    def prefix_column_fn(self, X):
        anchor = self._anchor_norms(X)
        a = self.alpha

        def f(j: int, out: np.ndarray) -> np.ndarray:
            d = X[:j] - X[j]
            np.multiply(d, d, out=d)
            s = d.sum(axis=1, out=out[:j])
            np.power(s, a / 2, out=s)
            np.subtract(anchor[:j], s, out=s)
            s += anchor[j]
            s *= 0.5
            return s

        return f


@dataclass(frozen=True)
class SumKernel(KernelSpec):
    """Sum of child kernels acting on disjoint coordinate slices.

    ``children`` is a sequence of (coordinate-indices, kernel) pairs. The
    index sets must be pairwise disjoint; together they may cover any
    subset of {0, .., q-1}.
    """

    children: tuple[tuple[tuple[int, ...], KernelSpec], ...] = field(default=())

    def __post_init__(self):
        norm = []
        seen: set[int] = set()
        for idxs, spec in self.children:
            t = tuple(int(i) for i in idxs)
            if len(t) == 0:
                raise ValueError("child coordinate set is empty")
            if any(i < 0 for i in t):
                raise ValueError("coordinate indices must be nonnegative")
            if seen.intersection(t):
                raise ValueError("child coordinate sets overlap")
            seen.update(t)
            if not isinstance(spec, KernelSpec):
                raise TypeError("child is not a kernel")
            norm.append((t, spec))
        if not norm:
            raise ValueError("a sum kernel needs at least one child")
        object.__setattr__(self, "children", tuple(norm))

    @classmethod
    def per_coordinate(cls, specs: Sequence[KernelSpec]) -> "SumKernel":
        """One child per coordinate, in order."""
        return cls(tuple(((c,), s) for c, s in enumerate(specs)))

    @property
    def psd(self) -> bool:
        return all(spec.psd for _, spec in self.children)

    def check_dim(self, q: int) -> None:
        top = max(i for idxs, _ in self.children for i in idxs)
        if top >= q:
            raise ValueError(f"child coordinate {top} out of range for q={q}")
        for idxs, spec in self.children:
            spec.check_dim(len(idxs))

    def _pair(self, x, y):
        return sum(spec._pair(x[list(idxs)], y[list(idxs)]) for idxs, spec in self.children)

    def cross(self, X, y, out=None):
        self.check_dim(X.shape[1])
        acc = None
        for idxs, spec in self.children:
            cols = list(idxs)
            part = spec.cross(np.ascontiguousarray(X[:, cols]), y[cols])
            acc = part if acc is None else acc + part
        if out is not None:
            out[: acc.shape[0]] = acc
            return out[: acc.shape[0]]
        return acc

    def diag(self, X):
        self.check_dim(X.shape[1])
        acc = None
        for idxs, spec in self.children:
            part = spec.diag(np.ascontiguousarray(X[:, list(idxs)]))
            acc = part if acc is None else acc + part
        return acc

    def gram(self, X, Y=None):
        self.check_dim(X.shape[1])
        acc = None
        for idxs, spec in self.children:
            cols = list(idxs)
            xs = np.ascontiguousarray(X[:, cols])
            ys = None if Y is None else np.ascontiguousarray(Y[:, cols])
            part = spec.gram(xs, ys)
            acc = part if acc is None else acc + part
        return acc

    def prefix_column_fn(self, X):
        self.check_dim(X.shape[1])
        parts = []
        for idxs, spec in self.children:
            xc = np.ascontiguousarray(X[:, list(idxs)])
            parts.append((spec.prefix_column_fn(xc), np.empty(X.shape[0])))

        def f(j: int, out: np.ndarray) -> np.ndarray:
            target = out[:j]
            first = True
            for child_fn, buf in parts:
                vals = child_fn(j, buf)
                if first:
                    target[:] = vals
                    first = False
                else:
                    target += vals
            return target

        return f


def evaluate(spec: KernelSpec, x, y) -> float:
    """Pointwise kernel evaluation k(x, y)."""
    return spec.pair(x, y)


def mad_scale(signal) -> tuple[Signal, np.ndarray]:
    """Scale each coordinate by a robust noise estimate.

    The estimate uses disjoint successive differences d_i = X[2i] - X[2i-1]
    (1-based pairs; a trailing odd point is dropped): sigma_c is the median
    absolute deviation of d around its median, times 1.4826 for consistency
    under Gaussian noise, divided by sqrt(2) because differencing doubles
    the variance.

    Returns (scaled, sigma). A coordinate with sigma == 0 is left unscaled;
    the zero in ``sigma`` is the flag.
    """
    sig = as_signal(signal)
    if sig.n < 4:
        raise ValueError(f"need at least 4 time points to estimate scale, got {sig.n}")
    X = sig.data
    half = sig.n // 2
    d = X[1 : 2 * half : 2] - X[0 : 2 * half : 2]
    med = np.median(d, axis=0)
    mad = np.median(np.abs(d - med), axis=0)
    sigma = mad * (MAD_CONSISTENCY / math.sqrt(2.0))
    scaled = X.copy()
    nz = sigma > 0
    scaled[:, nz] /= sigma[nz]
    return Signal(scaled), sigma


def empirical_mmd_sq(spec: KernelSpec, sample_a, sample_b) -> float:
    """Plug-in estimate of the squared RKHS distance between mean elements.

    Uses the V-statistic convention (diagonals included):
    mean(K_aa) + mean(K_bb) - 2 mean(K_ab).
    """
    a = as_signal(sample_a)
    b = as_signal(sample_b)
    if a.q != b.q:
        raise ValueError(f"dimension mismatch: {a.q} vs {b.q}")
    spec.check_dim(a.q)
    kaa = spec.gram(a.data)
    kbb = spec.gram(b.data)
    kab = spec.gram(a.data, b.data)
    return float(kaa.mean() + kbb.mean() - 2.0 * kab.mean())


def energy_distance(sample_a, sample_b, alpha: float = 1.0) -> float:
    """Empirical energy distance 2 E|X-Y|^a - E|X-X'|^a - E|Y-Y'|^a.

    V-statistic convention, matching :func:`empirical_mmd_sq`, so that the
    identity energy == 2 * mmd^2 under the energy kernel holds at finite n.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"exponent must lie in (0, 2), got {alpha!r}")
    a = as_signal(sample_a)
    b = as_signal(sample_b)
    if a.q != b.q:
        raise ValueError(f"dimension mismatch: {a.q} vs {b.q}")
    p = alpha / 2.0
    dab = _sq_dists(a.data, b.data) ** p
    daa = _sq_dists(a.data, None) ** p
    dbb = _sq_dists(b.data, None) ** p
    return float(2.0 * dab.mean() - daa.mean() - dbb.mean())
