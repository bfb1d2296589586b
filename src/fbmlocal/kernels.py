"""Closed-form FBM covariance kernels and increment Gram matrices.

The covariance of fractional Brownian motion with Hurst index H is

    R_H(u, v) = 0.5 * (|u|^{2H} + |v|^{2H} - |u - v|^{2H}),

which also defines the isotropic Levy FBM on R^d with Euclidean norms.
Everything else in this module is bilinear bookkeeping on top of R_H:
covariances of increments X_t - X_s and the (cross-)Gram matrices of
finite families of increments, all through one second difference of
|.|^p between the increments' endpoints. Uniform lattices add one
cancellation-free lattice series (increment_autocov and the lemma-2.2
hat Gram row) and one guarded Toeplitz solve (both dual Grams): Levinson
recursion from scipy.linalg, its residual checked with numpy's FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import binom

__all__ = [
    "HURST_GUARD",
    "check_hurst",
    "check_finite",
    "TimeGrid",
    "IncrementBasis",
    "fbm_cov",
    "disjoint_kernel",
    "gram",
    "increment_autocov",
    "cross_gram",
]

# Keep H strictly inside (0,1); the endpoint processes are degenerate.
HURST_GUARD = 1e-9


def check_hurst(h: float) -> float:
    """Validate a Hurst index, returning it as a float.

    Raises ValueError unless HURST_GUARD < h < 1 - HURST_GUARD.
    """
    h = float(h)
    if not (HURST_GUARD < h < 1.0 - HURST_GUARD):
        raise ValueError(f"Hurst index must lie in ({HURST_GUARD}, {1 - HURST_GUARD}), got {h}")
    return h


def check_finite(name: str, value):
    """Return value unchanged, or raise a ValueError naming the argument
    when any entry is nan or infinite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n points on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got n={self.n}")

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True)
class IncrementBasis:
    """Ordered family of increments X_{t_i} - X_{s_i}.

    The endpoints are times, shape (m,), or points of R^d, shape (m, d),
    for the isotropic Levy field. The canonical construction takes
    consecutive pairs of a TimeGrid, so a grid of n points yields n - 1
    increments.
    """

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.s, dtype=float))
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if s.shape != t.shape or s.ndim > 2:
            raise ValueError("s and t must be arrays of equal shape (m,) or (m, d)")
        if s.size == 0:
            raise ValueError("increment basis must be nonempty")
        if np.any((s == t).reshape(len(s), -1).all(axis=1)):
            raise ValueError("degenerate increment: s_i == t_i")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @classmethod
    def from_grid(cls, grid: TimeGrid) -> "IncrementBasis":
        pts = grid.points()
        return cls(s=pts[:-1], t=pts[1:])

    @classmethod
    def from_points(cls, pts) -> "IncrementBasis":
        """Consecutive increments of an arbitrary strictly monotone point list."""
        pts = np.asarray(pts, dtype=float)
        return cls(s=pts[:-1], t=pts[1:])

    def __len__(self) -> int:
        return len(self.s)


def _norm(x: np.ndarray, point_ndim: int) -> np.ndarray:
    # |x| for times, the Euclidean norm over the last axis for points
    return np.abs(x) if point_ndim == 0 else np.linalg.norm(x, axis=-1)


def fbm_cov(u, v, h: float) -> float:
    """E[X_u X_v] for FBM at times u, v, or for Levy FBM at points of R^d:
    0.5 * (|u|^{2H} + |v|^{2H} - |u-v|^{2H})."""
    h = check_hurst(h)
    u = np.asarray(check_finite("u", u), dtype=float)
    v = np.asarray(check_finite("v", v), dtype=float)
    if u.shape != v.shape or u.ndim > 1:
        raise ValueError(f"need two times or two points of equal dimension, got {u.shape} and {v.shape}")
    two_h = 2.0 * h
    return 0.5 * float(_norm(u, u.ndim) ** two_h + _norm(v, u.ndim) ** two_h - _norm(u - v, u.ndim) ** two_h)


def disjoint_kernel(u: float, v: float, h: float) -> float:
    """Cross-covariance density H(2H-1)|u-v|^{2H-2} for u != v.

    Integrating this kernel over [p0,p1] x [q0,q1] for disjoint intervals
    reproduces the increment covariance; it vanishes identically at
    H = 1/2 and is negative for H < 1/2.
    """
    h = check_hurst(h)
    if u == v:
        raise ValueError("disjoint_kernel is singular at u == v")
    return h * (2.0 * h - 1.0) * float(np.abs(u - v) ** (2.0 * h - 2.0))


def _second_difference(sa, ta, sb, tb, power: float) -> np.ndarray:
    """0.5 * (|ta-sb|^p + |sa-tb|^p - |ta-tb|^p - |sa-sb|^p), rows indexing
    the (sa, ta) pairs and columns the (sb, tb) pairs.

    At p = 2H this is E[(X_ta - X_sa)(X_tb - X_sb)]: the bilinear expansion
    of R_H, whose single-endpoint terms cancel. Endpoints are times (m,)
    or points (m, d); the distance is then the Euclidean norm.
    """
    point_ndim = np.ndim(sa) - 1

    def dist(x, y):
        return _norm(x[:, None] - y[None, :], point_ndim) ** power

    return 0.5 * (dist(ta, sb) + dist(sa, tb) - dist(ta, tb) - dist(sa, sb))


def gram(basis: IncrementBasis, h: float) -> np.ndarray:
    """Symmetric PSD Gram matrix of an increment basis."""
    h = check_hurst(h)
    g = _second_difference(basis.s, basis.t, basis.s, basis.t, 2.0 * h)
    return 0.5 * (g + g.T)


# even binomial terms C(p, 2), C(p, 4), ... of the lattice series; at the
# stencil's first series lag the dropped tail is below 1e-19 of the sum for
# the second difference and 1.3e-14 for the fourth; the terms share one sign
_SERIES_TERMS = 30


def _even_difference(k: np.ndarray, p: float, weights: tuple) -> np.ndarray:
    """0.5 sum_i w_i |k + i|^p at lags k >= 0 for the zero-sum symmetric
    stencil w_{-i} = w_i = weights[i], i = 0..r.

    Past the stencil's reach (k >= r + 1) this is the series

        k^p sum_{m even >= 2} C(p, m) M_m k^-m,  M_m = sum_{i >= 1} w_i i^m,

    summed by Horner in k^-2: no O(k^p) terms cancel, so every lag keeps
    full relative precision. Nearer lags take the direct form.
    """
    out = np.empty_like(k)
    near = k < len(weights)
    kn, kf = k[near], k[~near]
    pairs = list(enumerate(weights[1:], 1))
    out[near] = 0.5 * sum((w * ((kn + i) ** p + np.abs(kn - i) ** p) for i, w in pairs), weights[0] * kn**p)
    y = 1.0 / (kf * kf)
    m = 2.0 * np.arange(1, _SERIES_TERMS + 1)
    # binom has poles at negative integer p, where C(p, m) = C(m - p - 1, m) for even m
    c = binom(m - p - 1.0, m) if p < 0.0 and float(p).is_integer() else binom(p, m)
    coef = c * sum(w * float(i) ** m for i, w in pairs)
    out[~near] = kf**p * y * np.polyval(coef[::-1], y)
    return out


def increment_autocov(k, h: float, dt: float = 1.0) -> np.ndarray:
    """Autocovariance gamma(k) of unit-lag increments at spacing dt.

    gamma(k) = 0.5 dt^p ((k+1)^p + |k-1|^p - 2|k|^p), p = 2H, is the second
    difference (unit moments) of _even_difference: |k| >= 2 sums the series
    and keeps a few ulps against 40-digit arithmetic, where the four-term
    form loses about k^2 ulps (2e-7 at lag 32767). On a uniform grid the
    increment Gram is Toeplitz with first column increment_autocov(arange(n), h, dt).
    """
    p = 2.0 * check_hurst(h)
    check_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k = np.abs(np.asarray(check_finite("k", k), dtype=float))
    return dt**p * _even_difference(k, p, (-2.0, 1.0))


# Levinson does not test definiteness; a breakdown shows in the residual
_TOEPLITZ_RESIDUAL = 1e-8


def _toeplitz_matvec(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric Toeplitz T with first column col, by numpy's FFT:
    the first n entries of the size-2n circulant with column
    [col, 0, col[:0:-1]] applied to x padded with n zeros."""
    n = len(col)
    circ = np.concatenate((col, [0.0], col[:0:-1]))
    return np.fft.irfft(np.fft.rfft(circ) * np.fft.rfft(x, 2 * n), 2 * n)[:n]


def _toeplitz_quadratic_form(col: np.ndarray, w: np.ndarray, where: str) -> float:
    """w' T^-1 w for the symmetric Toeplitz T with first column col, by
    Levinson recursion (O(n^2) time, O(n) memory); LinAlgError naming where
    unless ||T x - w|| / ||w|| <= 1e-8 and w'x > 0, with T x an FFT
    product on numpy's FFT (_toeplitz_matvec)."""
    x = scipy.linalg.solve_toeplitz(col, w)
    resid = float(np.linalg.norm(_toeplitz_matvec(col, x) - w) / np.linalg.norm(w))
    form = float(w @ x)
    if not (resid <= _TOEPLITZ_RESIDUAL and form > 0.0):
        raise np.linalg.LinAlgError(f"dual-Gram Toeplitz solve rejected at {where}: "
                                    f"relative residual {resid:.3g}, w'x {form:.3g}")
    return form


def cross_gram(basis_a: IncrementBasis, basis_b: IncrementBasis, h: float) -> np.ndarray:
    """Cross-Gram matrix between two increment bases of the same dimension."""
    h = check_hurst(h)
    if basis_a.s.shape[1:] != basis_b.s.shape[1:]:
        raise ValueError(f"dimension mismatch: {basis_a.s.shape[1:]} vs {basis_b.s.shape[1:]}")
    return _second_difference(basis_a.s, basis_a.t, basis_b.s, basis_b.t, 2.0 * h)
