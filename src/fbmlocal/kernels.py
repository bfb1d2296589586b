"""Closed-form FBM covariance kernels and increment Gram matrices.

The covariance of fractional Brownian motion with Hurst index H is

    R_H(u, v) = 0.5 * (|u|^{2H} + |v|^{2H} - |u - v|^{2H}),

which also defines the isotropic Levy FBM on R^d with Euclidean norms.
Everything else in this module is bilinear bookkeeping on top of R_H:
covariances of increments X_t - X_s and the (cross-)Gram matrices of
finite families of increments, all through one second difference of
|.|^p between the increments' endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HURST_GUARD",
    "check_hurst",
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
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
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


def increment_autocov(k, h: float, dt: float = 1.0) -> np.ndarray:
    """Autocovariance gamma(k) of unit-lag increments at spacing dt.

    On a uniform grid the increment Gram is Toeplitz, and
    increment_autocov(arange(n), h, dt) is its first column.
    """
    check_hurst(h)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k = np.abs(np.asarray(k, dtype=float))
    tw = 2.0 * h
    return 0.5 * dt**tw * ((k + 1.0) ** tw + np.abs(k - 1.0) ** tw - 2.0 * k**tw)


def cross_gram(basis_a: IncrementBasis, basis_b: IncrementBasis, h: float) -> np.ndarray:
    """Cross-Gram matrix between two increment bases of the same dimension."""
    h = check_hurst(h)
    if basis_a.s.shape[1:] != basis_b.s.shape[1:]:
        raise ValueError(f"dimension mismatch: {basis_a.s.shape[1:]} vs {basis_b.s.shape[1:]}")
    return _second_difference(basis_a.s, basis_a.t, basis_b.s, basis_b.t, 2.0 * h)
