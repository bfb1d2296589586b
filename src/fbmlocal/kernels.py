"""Closed-form FBM covariance kernels and increment Gram matrices.

The covariance of fractional Brownian motion with Hurst index H is

    R_H(u, v) = 0.5 * (|u|^{2H} + |v|^{2H} - |u - v|^{2H}),

which also defines the isotropic Levy FBM on R^d with Euclidean norms.
Everything else in this module is bilinear bookkeeping on top of R_H:
covariances of increments X_t - X_s and the (cross-)Gram matrices of
finite families of increments, all through one second difference of
|.|^p between the increments' endpoints. Uniform lattices add one
cancellation-free lattice series (increment_autocov and the lemma-2.2
hat Gram row, its binomial coefficients by a product recurrence), one
guarded Toeplitz solve for both dual Grams (conjugate gradients with
T. Chan's optimal circulant preconditioner, every product on numpy's FFT,
its residual checked by one more product) and one guarded Durbin-Levinson
recursion for the adjacent-interval MI.  Nothing beyond numpy is
imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HURST_GUARD",
    "check_hurst",
    "check_finite",
    "TimeGrid",
    "IncrementBasis",
    "fbm_cov",
    "gram",
    "increment_autocov",
    "uniform_gram",
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
    with np.errstate(over="ignore", invalid="ignore"):
        c = 0.5 * float(_norm(u, u.ndim) ** two_h + _norm(v, u.ndim) ** two_h - _norm(u - v, u.ndim) ** two_h)
    if not np.isfinite(c):
        raise ValueError(f"covariance overflows float64: |u|, |v| or |u-v| to the power 2H = {two_h:g}")
    return c


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
    """Symmetric PSD Gram matrix of an increment basis, exactly symmetric as
    built: transposing the second difference swaps its two cross terms."""
    h = check_hurst(h)
    return _second_difference(basis.s, basis.t, basis.s, basis.t, 2.0 * h)


# even binomial terms C(p, 2), C(p, 4), ... of the lattice series; at the
# stencil's first series lag the dropped tail is below 1e-19 of the sum for
# the second difference and 1.3e-14 for the fourth; the terms share one sign
_SERIES_TERMS = 30

# past this lag k^-2 nears the end of the normal float range (2^-1022) and
# k^p overflows soon after, so the series' lead k^p k^-2 is taken as k^(p-2)
# = (k^(p/2) / k)^2: p - 2 would round the exponent, an error that k^(p-2)
# multiplies by ln k
_FAR_LAG = 2.0**500


def _even_difference(k: np.ndarray, p: float, weights: tuple) -> np.ndarray:
    """0.5 sum_i w_i |k + i|^p at lags k >= 0 for the zero-sum symmetric
    stencil w_{-i} = w_i = weights[i], i = 0..r.

    Past the stencil's reach (k >= r + 1) this is the series

        k^p sum_{m even >= 2} C(p, m) M_m k^-m,  M_m = sum_{i >= 1} w_i i^m,

    summed by Horner in k^-2: no O(k^p) terms cancel, so every lag keeps
    full relative precision. Nearer lags take the direct form; past
    _FAR_LAG the lead k^p k^-2 is formed as k^(p-2), which stays finite
    where k^p overflows and k^-2 underflows.
    """
    out = np.empty_like(k)
    near = k < len(weights)
    kn, kf = k[near], k[~near]
    pairs = list(enumerate(weights[1:], 1))
    out[near] = 0.5 * sum((w * ((kn + i) ** p + np.abs(kn - i) ** p) for i, w in pairs), weights[0] * kn**p)
    y = 1.0 / (kf * kf)
    m = 2.0 * np.arange(1, _SERIES_TERMS + 1)
    # C(p, m) = C(p, m - 2) (p - m + 2)(p - m + 1) / (m (m - 1)), finite at every p
    c = np.cumprod((p - m + 2.0) * (p - m + 1.0) / (m * (m - 1.0)))
    coef = c * sum(w * float(i) ** m for i, w in pairs)
    lead = kf**p * y
    far = kf > _FAR_LAG
    lead[far] = (kf[far] ** (0.5 * p) / kf[far]) ** 2
    out[~near] = lead * np.polyval(coef[::-1], y)
    return out


def increment_autocov(k, h: float, dt: float = 1.0) -> np.ndarray:
    """Autocovariance gamma(k) of unit-lag increments at spacing dt.

    gamma(k) = 0.5 dt^p ((k+1)^p + |k-1|^p - 2|k|^p), p = 2H, is the second
    difference (unit moments) of _even_difference: |k| >= 2 sums the series
    and keeps a few ulps against 40-digit arithmetic, where the four-term
    form loses about k^2 ulps (2e-7 at lag 32767). On a uniform grid the
    increment Gram is the Toeplitz matrix of this column (uniform_gram).
    """
    p = 2.0 * check_hurst(h)
    check_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    k = np.abs(np.asarray(check_finite("k", k), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.float64(dt) ** p * _even_difference(k, p, (-2.0, 1.0))
    if not np.all(np.isfinite(col)):
        raise ValueError(f"increment autocovariance overflows float64: dt = {dt:g} or a lag k to the power 2H = {p:g}")
    return col


def uniform_gram(n: int, h: float, dt: float = 1.0) -> np.ndarray:
    """Gram of n consecutive increments at spacing dt: the symmetric
    Toeplitz matrix gamma(|i - j|) of increment_autocov(arange(n), h, dt)."""
    lag = np.arange(n)
    return increment_autocov(lag, h, dt)[np.abs(lag[:, None] - lag)]


# the solve stops at this relative residual; the guard below accepts 1e-8
_CG_RESIDUAL = 1e-13
_TOEPLITZ_RESIDUAL = 1e-8


def _toeplitz_operator(col: np.ndarray):
    """x -> T x for the symmetric Toeplitz T with first column col, by numpy's
    FFT: the first n entries of the size-2n circulant with column
    [col, 0, col[:0:-1]] applied to x padded with n zeros."""
    n = len(col)
    spectrum = np.fft.rfft(np.concatenate((col, [0.0], col[:0:-1])))
    return lambda x: np.fft.irfft(spectrum * np.fft.rfft(x, 2 * n), 2 * n)[:n]


def _toeplitz_solve(col: np.ndarray, w: np.ndarray) -> tuple:
    """Approximate T^-1 w and the number of iterations spent, for the
    symmetric Toeplitz T with first column col.

    Conjugate gradients preconditioned by T. Chan's optimal circulant
    (SIAM J. Sci. Stat. Comput. 9 (1988) 766-771), whose column
    ((n - k) t_k + k t_(n-k)) / n makes it positive definite whenever T
    is, so each iteration costs a few FFTs.  Stops once the recursive
    residual is at most 1e-13 of |w|, on breakdown (p'Tp <= 0, as for an
    indefinite T) or after n iterations; the caller judges the result.
    """
    n = len(col)
    matvec = _toeplitz_operator(col)
    k = np.arange(n)
    chan = np.fft.rfft((n - k) * col + k * np.concatenate(([0.0], col[:0:-1]))).real / n

    def precondition(r):
        return np.fft.irfft(np.fft.rfft(r) / chan, n)

    x = np.zeros(n)
    r = np.array(w, dtype=float)
    z = precondition(r)
    p, rz = z, float(r @ z)
    stop = (_CG_RESIDUAL * float(np.linalg.norm(w))) ** 2
    for it in range(1, n + 1):
        q = matvec(p)
        pq = float(p @ q)
        if not pq > 0.0:
            return x, it
        a = rz / pq
        x += a * p
        r -= a * q
        if float(r @ r) <= stop:
            return x, it
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x, n


def _partial_autocorrelations(col: np.ndarray, where: str) -> np.ndarray:
    """phi_kk, k = 1 .. n - 1, of the stationary sequence whose
    autocovariance is col (length n), by the Durbin-Levinson recursion
    (Durbin, Rev. Int. Stat. Inst. 28 (1960) 233-244): O(n^2) work and
    O(n) memory, no matrix.  The k x k Toeplitz Gram T_k of col has
    log det T_k = k log col[0] + sum_{j < k} (k - j) log(1 - phi_jj^2).
    LinAlgError naming where once some |phi_kk| >= 1 or an innovation
    variance the recursion divides by is not positive or is nan: T is
    then not positive definite to working precision."""
    col = np.asarray(col, dtype=float)
    n = len(col)
    phi = np.empty(n - 1)
    a = np.empty(n - 1)  # a[:k] holds phi_k1 .. phi_kk after step k
    v = float(col[0])
    for k in range(1, n):
        if not v > 0.0:
            raise np.linalg.LinAlgError(f"Durbin-Levinson recursion rejected at {where}: "
                                        f"innovation variance {v:.3g} at lag {k - 1}")
        kk = float(col[k] - a[: k - 1] @ col[k - 1 : 0 : -1]) / v
        if not abs(kk) < 1.0:
            raise np.linalg.LinAlgError(f"Durbin-Levinson recursion rejected at {where}: "
                                        f"partial autocorrelation {kk:.3g} at lag {k}")
        a[: k - 1] -= kk * a[: k - 1][::-1]
        a[k - 1] = phi[k - 1] = kk
        v *= (1.0 - kk) * (1.0 + kk)
    return phi


def _toeplitz_quadratic_form(col: np.ndarray, w: np.ndarray, where: str) -> float:
    """w' T^-1 w for the symmetric Toeplitz T with first column col, by
    _toeplitz_solve (O(n log n) per iteration, O(n) memory); LinAlgError
    naming where unless ||T x - w|| / ||w|| <= 1e-8 and w'x > 0, with T x
    one more FFT product (_toeplitz_operator)."""
    x, _ = _toeplitz_solve(col, w)
    resid = float(np.linalg.norm(_toeplitz_operator(col)(x) - w) / np.linalg.norm(w))
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
