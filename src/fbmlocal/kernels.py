"""Closed-form FBM covariance kernels and increment Gram matrices.

The covariance of fractional Brownian motion with Hurst index H is

    R_H(u, v) = 0.5 * (|u|^{2H} + |v|^{2H} - |u - v|^{2H}),

which also defines the isotropic Levy FBM on R^n with Euclidean norms.
Everything else in this module is bilinear bookkeeping on top of R_H:
covariances of increments X_t - X_s and the (cross-)Gram matrices of
finite families of increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HURST_GUARD",
    "check_hurst",
    "TimeGrid",
    "IncrementBasis",
    "fbm_cov",
    "increment_cov",
    "disjoint_kernel",
    "gram",
    "increment_autocov",
    "cross_gram",
    "levy_fbm_cov",
    "levy_increment_gram",
    "levy_increment_cross_gram",
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


def _abs_pow(x, exponent):
    # |x|**p with |0|**p == 0 exactly (p > 0 throughout this module).
    return np.abs(x) ** exponent


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

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True)
class IncrementBasis:
    """Ordered family of increments X_{t_i} - X_{s_i}.

    The canonical construction takes consecutive pairs of a TimeGrid,
    so a grid of n points yields n - 1 increments.
    """

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.s, dtype=float))
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if s.shape != t.shape or s.ndim != 1:
            raise ValueError("s and t must be 1-d arrays of equal length")
        if s.size == 0:
            raise ValueError("increment basis must be nonempty")
        if np.any(s == t):
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
        return self.s.size

    def shifted(self, c: float) -> "IncrementBasis":
        return IncrementBasis(self.s + c, self.t + c)

    def scaled(self, a: float) -> "IncrementBasis":
        if a <= 0:
            raise ValueError("scale factor must be positive")
        return IncrementBasis(self.s * a, self.t * a)


def fbm_cov(u: float, v: float, h: float) -> float:
    """E[X_u X_v] for 1-d FBM: 0.5 * (|u|^{2H} + |v|^{2H} - |u-v|^{2H})."""
    h = check_hurst(h)
    two_h = 2.0 * h
    return 0.5 * float(_abs_pow(u, two_h) + _abs_pow(v, two_h) - _abs_pow(u - v, two_h))


def increment_cov(p, q, h: float) -> float:
    """E[(X_{p1} - X_{p0}) (X_{q1} - X_{q0})] for time pairs p, q.

    Expanding the FBM covariance bilinearly, the |.|^{2H} terms at the
    origin cancel and only four cross terms survive:

        0.5 * (|p1-q0|^{2H} + |q1-p0|^{2H} - |p1-q1|^{2H} - |p0-q0|^{2H}).
    """
    h = check_hurst(h)
    p0, p1 = float(p[0]), float(p[1])
    q0, q1 = float(q[0]), float(q[1])
    two_h = 2.0 * h
    return 0.5 * float(
        _abs_pow(p1 - q0, two_h)
        + _abs_pow(q1 - p0, two_h)
        - _abs_pow(p1 - q1, two_h)
        - _abs_pow(p0 - q0, two_h)
    )


def disjoint_kernel(u: float, v: float, h: float) -> float:
    """Cross-covariance density H(2H-1)|u-v|^{2H-2} for u != v.

    Integrating this kernel over [p0,p1] x [q0,q1] for disjoint intervals
    reproduces increment_cov; it vanishes identically at H = 1/2 and is
    negative for H < 1/2.
    """
    h = check_hurst(h)
    if u == v:
        raise ValueError("disjoint_kernel is singular at u == v")
    return h * (2.0 * h - 1.0) * float(_abs_pow(u - v, 2.0 * h - 2.0))


def _pair_cov_matrix(sa, ta, sb, tb, h: float) -> np.ndarray:
    # Vectorized four-term increment covariance; rows index (sa, ta) pairs,
    # columns index (sb, tb) pairs.
    two_h = 2.0 * h
    sa = sa[:, None]
    ta = ta[:, None]
    sb = sb[None, :]
    tb = tb[None, :]
    return 0.5 * (
        _abs_pow(ta - sb, two_h)
        + _abs_pow(tb - sa, two_h)
        - _abs_pow(ta - tb, two_h)
        - _abs_pow(sa - sb, two_h)
    )


def gram(basis: IncrementBasis, h: float) -> np.ndarray:
    """Symmetric PSD Gram matrix of an increment basis."""
    h = check_hurst(h)
    g = _pair_cov_matrix(basis.s, basis.t, basis.s, basis.t, h)
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
    """Cross-Gram matrix between two increment bases."""
    h = check_hurst(h)
    return _pair_cov_matrix(basis_a.s, basis_a.t, basis_b.s, basis_b.t, h)


def levy_fbm_cov(u, v, h: float) -> float:
    """E[X_u X_v] for Levy FBM on R^n, u and v coordinate vectors."""
    h = check_hurst(h)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    two_h = 2.0 * h
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    nd = np.linalg.norm(u - v)
    return 0.5 * float(nu**two_h + nv**two_h - nd**two_h)


def _levy_pair_cov(left_a, right_a, left_b, right_b, h: float) -> np.ndarray:
    # E[(X_ra - X_la)(X_rb - X_lb)] for point arrays of shape (m, dim).
    two_h = 2.0 * h

    def dist(x, y):
        return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)

    return 0.5 * (
        dist(right_a, left_b) ** two_h
        + dist(left_a, right_b) ** two_h
        - dist(right_a, right_b) ** two_h
        - dist(left_a, left_b) ** two_h
    )


def levy_increment_gram(left: np.ndarray, right: np.ndarray, h: float) -> np.ndarray:
    """Gram matrix of Levy FBM increments X_{right_i} - X_{left_i}.

    left and right are (m, dim) arrays of points.
    """
    h = check_hurst(h)
    left = np.atleast_2d(np.asarray(left, dtype=float))
    right = np.atleast_2d(np.asarray(right, dtype=float))
    if left.shape != right.shape:
        raise ValueError("left/right point arrays must have matching shape")
    g = _levy_pair_cov(left, right, left, right, h)
    return 0.5 * (g + g.T)


def levy_increment_cross_gram(
    left_a: np.ndarray,
    right_a: np.ndarray,
    left_b: np.ndarray,
    right_b: np.ndarray,
    h: float,
) -> np.ndarray:
    """Cross-Gram between two families of Levy FBM increments."""
    h = check_hurst(h)
    left_a = np.atleast_2d(np.asarray(left_a, dtype=float))
    right_a = np.atleast_2d(np.asarray(right_a, dtype=float))
    left_b = np.atleast_2d(np.asarray(left_b, dtype=float))
    right_b = np.atleast_2d(np.asarray(right_b, dtype=float))
    if left_a.shape[1] != left_b.shape[1]:
        raise ValueError("dimension mismatch between the two families")
    return _levy_pair_cov(left_a, right_a, left_b, right_b, h)
