"""Kernel families, signal containers, and robust scaling utilities.

Every kernel evaluates pointwise on q-dimensional observations and has one
vectorised form, ``_gram`` (a Gram block, or one point against a block), on
which ``KernelSpec`` defines ``gram`` and the exact sweep's prefix columns,
so Gram rows hold the sweep's column values. All arrays are float64.
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


_CHUNK = 1 << 16  # scratch floats per row chunk of a block with q >= 2


def _sq_dists(X: np.ndarray, Y: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances ||X[i] - Y[l]||^2 as a (len X, len Y) block, or as
    a vector over Y's rows when X is one point; Y = None means Y = X. Direct
    differencing gives coincident points exactly zero, in either order.
    """
    Y = X if Y is None else Y
    k, q = Y.shape
    out = np.empty(X.shape[:-1] + (k,)) if out is None else out
    if X.ndim == 1:
        # scalar coordinates keep the sweep's kernel column on 1-D loops
        blocks = ((X, out),)
    else:
        rows = max(1, X.shape[0] if q == 1 else _CHUNK // max(k * q, 1))
        blocks = [(X[r : r + rows, None, :], out[r : r + rows]) for r in range(0, X.shape[0], rows)]
    for x, o in blocks:
        if q >= 8:
            d = np.subtract(x, Y, out=np.empty(o.shape + (q,)))
            np.multiply(d, d, out=d).sum(axis=-1, out=o)
            continue
        # numpy's pairwise sum adds fewer than 8 terms left to right, so
        # adding the squared coordinates in order gives the same bits
        np.subtract(x[..., 0], Y[:, 0], out=o)
        np.multiply(o, o, out=o)
        if q > 1:
            t = np.empty(o.shape)
            for c in range(1, q):
                np.subtract(x[..., c], Y[:, c], out=t)
                np.multiply(t, t, out=t)
                o += t
    return out


class KernelSpec:
    """A symmetric kernel k(x, y) on R^q, evaluable pointwise and in blocks.

    A family defines ``_pair``, ``diag`` and ``_gram``; the public forms
    ``pair``, ``gram`` and ``prefix_column_fn`` are defined here, once, on
    them. ``psd`` is True only for positive semi-definite kernels; the
    exact segmenter prunes candidate change points only for those.
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

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Vector of k(X[i], X[i]), float64; it may be a read-only view."""
        raise NotImplementedError

    def _gram(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Block k(X[i], Y[l]) of shape (len X, len Y), or the vector k(X, Y[l])
        when X is one point (a q-vector); written into ``out`` when it is not
        None, and returned."""
        raise NotImplementedError

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Gram block k(X[i], Y[l]); symmetric k(X, X) when Y is None. A
        one-point X (a q-vector) gives the vector k(X, Y[l]), of length 1
        when Y is None."""
        return self._gram(X, np.atleast_2d(X) if Y is None else Y, None)

    def prefix_column_fn(self, X: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """Return f(j, out) writing k(X[j], X[:j]) into out[:j].

        The closure is the workhorse of the exact segmenter: each step of
        :func:`kcpd.exact_dp.cost_columns` calls it once, writing into the
        generator's scratch column, so it must not allocate per call
        beyond small temporaries. An override may precompute per-signal
        terms, and must give ``_gram``'s values.
        """
        gram = self._gram

        def f(j: int, out: np.ndarray) -> np.ndarray:
            return gram(X[j], X[:j], out[:j])

        return f


@dataclass(frozen=True)
class LinearKernel(KernelSpec):
    """k(x, y) = <x, y>."""

    psd = True

    def _pair(self, x, y):
        return x @ y

    def diag(self, X):
        return np.einsum("ij,ij->i", X, X)

    def _gram(self, X, Y, out):
        return np.matmul(X, Y.T, out=out)


@dataclass(frozen=True)
class _Bandwidth(KernelSpec):
    """Base of the families exp(-r(x, y) / delta) with bandwidth delta > 0."""

    delta: float = 1.0
    _root = False

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be a finite positive number, got {self.delta!r}")

    def _exp(self, r: np.ndarray) -> np.ndarray:
        # exp(-r / delta) in place; with _root, r is first replaced by sqrt(r)
        np.divide(np.sqrt(r, out=r) if self._root else r, -self.delta, out=r)
        return np.exp(r, out=r)


@dataclass(frozen=True)
class _Radial(_Bandwidth):
    """Base of exp(-||x - y||^p / delta) with p = 2, or p = 1 when ``_root``."""

    psd = True

    def _pair(self, x, y):
        r = (x - y) @ (x - y)
        return math.exp(-(math.sqrt(r) if self._root else r) / self.delta)

    def diag(self, X):
        # every k(x, x) is 1: a read-only view of one float, not n of them
        return np.broadcast_to(1.0, X.shape[:1])

    def _gram(self, X, Y, out):
        return self._exp(_sq_dists(X, Y, out))


@dataclass(frozen=True)
class GaussianKernel(_Radial):
    """k(x, y) = exp(-||x - y||^2 / delta)."""


@dataclass(frozen=True)
class LaplaceKernel(_Radial):
    """k(x, y) = exp(-||x - y|| / delta)."""

    _root = True


@dataclass(frozen=True)
class ExponentialKernel(_Bandwidth):
    """k(x, y) = exp(-<x, y> / delta).

    Note: this family is symmetric but not positive semi-definite; a Gram
    matrix on two distinct points already has a negative eigenvalue. It is
    shipped for completeness of the family list and is exercised by the
    segmenters like any other kernel, without pruning.
    """

    psd = False

    def _pair(self, x, y):
        return math.exp(-(x @ y) / self.delta)

    def diag(self, X):
        return self._exp(np.einsum("ij,ij->i", X, X))

    def _gram(self, X, Y, out):
        return self._exp(np.matmul(X, Y.T, out=out))


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
            raise ValueError(f"alpha must be in (0, 2) for the energy kernel, got {self.alpha!r}")
        if self.x0 is not None:
            anchor = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x0, dtype=np.float64)))
            if not all(math.isfinite(v) for v in anchor):
                raise ValueError(f"x0 must be finite numbers for the energy kernel, got {self.x0!r}")
            object.__setattr__(self, "x0", anchor)

    def check_dim(self, q: int) -> None:
        if self.x0 is not None and len(self.x0) != q:
            raise ValueError(f"anchor has dimension {len(self.x0)}, data has {q}")

    def _anchor(self, q: int) -> np.ndarray:
        return np.zeros(q) if self.x0 is None else np.asarray(self.x0, dtype=np.float64)

    def _pair(self, x, y):
        x0 = self._anchor(x.size)
        a = self.alpha
        dx = x - x0
        dy = y - x0
        dxy = x - y
        return 0.5 * ((dx @ dx) ** (a / 2) + (dy @ dy) ** (a / 2) - (dxy @ dxy) ** (a / 2))

    def diag(self, X):
        # the anchor norms ||X[i] - x0||^a; one point gives a 1-vector
        d = np.atleast_2d(X) - self._anchor(X.shape[-1])
        return np.einsum("ij,ij->i", d, d) ** (self.alpha / 2)

    def _from_dists(self, s, a_row, a_col):
        # ((a_col - s^(a/2)) + a_row) / 2 in place, one order for every form
        np.power(s, self.alpha / 2, out=s)
        np.subtract(a_col, s, out=s)
        s += a_row
        s *= 0.5
        return s

    def _gram(self, X, Y, out):
        a_row = self.diag(X).reshape(X.shape[:-1] + (1,))
        return self._from_dists(_sq_dists(X, Y, out), a_row, self.diag(Y))

    def prefix_column_fn(self, X):
        # the anchor norms of the whole signal, computed once
        norms, from_dists = self.diag(X), self._from_dists

        def f(j: int, out: np.ndarray) -> np.ndarray:
            return from_dists(_sq_dists(X[j], X[:j], out[:j]), norms[j], norms[:j])

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

    def _sum_over_children(self, X, part):
        # sum over children of part(child, its columns, X restricted to them)
        self.check_dim(X.shape[-1])
        acc = None
        for idxs, spec in self.children:
            cols = list(idxs)
            val = part(spec, cols, np.ascontiguousarray(X[..., cols]))
            acc = val if acc is None else acc + val
        return acc

    def diag(self, X):
        return self._sum_over_children(X, lambda spec, cols, xc: spec.diag(xc))

    def _gram(self, X, Y, out):
        acc = self._sum_over_children(
            X, lambda spec, cols, xc: spec._gram(xc, np.ascontiguousarray(Y[:, cols]), None))
        if out is None:
            return acc
        out[...] = acc
        return out

    def prefix_column_fn(self, X):
        # each child's column function on its own contiguous slice of X
        self.check_dim(X.shape[1])
        first_fn, *rest = [spec.prefix_column_fn(np.ascontiguousarray(X[:, list(idxs)]))
                           for idxs, spec in self.children]
        buf = np.empty(X.shape[0])

        def f(j: int, out: np.ndarray) -> np.ndarray:
            target = first_fn(j, out)
            for child_fn in rest:
                target += child_fn(j, buf)
            return target

        return f


def _median_rows(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0) of finite data, bit for bit, by numpy's recipe.

    The same partition (kth with -1, as numpy's NaN check needs) and the
    same mean of the middle rows, without the NaN check itself, whose
    masked-array test imports numpy.ma: a Signal holds no NaN.
    """
    h = a.shape[0] // 2
    if a.shape[0] % 2:
        return np.mean(np.partition(a, [h, -1], axis=0)[h : h + 1], axis=0)
    return np.mean(np.partition(a, [h - 1, h, -1], axis=0)[h - 1 : h + 1], axis=0)


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
    # differences of values near the float range, or a subnormal scale,
    # overflow: reported below as one error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        d = X[1 : 2 * half : 2] - X[0 : 2 * half : 2]
        med = _median_rows(d)
        mad = _median_rows(np.abs(d - med))
        sigma = mad * (MAD_CONSISTENCY / math.sqrt(2.0))
        scaled = X.copy()
        nz = sigma > 0
        scaled[:, nz] /= sigma[nz]
    if not (np.isfinite(sigma).all() and np.isfinite(scaled).all()):
        raise ValueError("robust scaling overflows: the signal's spread is beyond the float range")
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
        raise ValueError(f"alpha must be in (0, 2) for the energy distance, got {alpha!r}")
    a, b = as_signal(sample_a), as_signal(sample_b)
    if a.q != b.q:
        raise ValueError(f"dimension mismatch: {a.q} vs {b.q}")
    p = alpha / 2.0
    dab = _sq_dists(a.data, b.data) ** p
    daa = _sq_dists(a.data, None) ** p
    dbb = _sq_dists(b.data, None) ** p
    return float(2.0 * dab.mean() - daa.mean() - dbb.mean())
