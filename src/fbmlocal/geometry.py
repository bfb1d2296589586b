"""Canonical correlations, principal angle, and Gaussian mutual information.

Two finite families of centered Gaussian variables with Gram matrices GA,
GB and cross-Gram C span two subspaces of the Gaussian Hilbert space.
Their canonical correlations sigma_k are the singular values of the
whitened cross-Gram; sigma_1 is the cosine of the principal angle, and
the mutual information is

    I = -0.5 * sum_k log(1 - sigma_k^2),

finite exactly when sigma_1 < 1.  A determinant route through the joint
covariance is kept as an independent oracle for nondegenerate inputs.

numpy and scipy each bundle their own OpenBLAS, and each build keeps its
own pool of spin-waiting threads.  The whitening (pivoted Cholesky, both
triangular solves and the SVD) therefore runs entirely on scipy's LAPACK:
alternating the two builds within one row hands every small matrix
between two pools that contend for the same cores.  On 2 vCPUs that
contention was most of the whitening's time: on the benchmark's
rate-reports pass, canonical_correlations took 1.6 ms per call with the
SVD on numpy and 0.78 ms with it on scipy.  The determinant oracle
stays on numpy's LAPACK on purpose, so that it checks the whitening
against a second, independent build.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, svd
from scipy.linalg.lapack import dpstrf

__all__ = [
    "DegenerateCovarianceError",
    "IllConditionedWarning",
    "CanonicalSpectrum",
    "MiResult",
    "canonical_correlations",
    "cos_angle",
    "mutual_information_gy",
    "mutual_information_det",
    "mi_bounds_hs",
]

COND_LIMIT = 1e12
SIGMA_ONE_TOL = 1e-12
CLAMP_TOL = 1e-8


class DegenerateCovarianceError(ValueError):
    """A Gram or joint covariance matrix has no usable positive part."""


class IllConditionedWarning(UserWarning):
    """Whitening hit conditioning limits; results may be inaccurate."""


@dataclass(frozen=True)
class CanonicalSpectrum:
    """Canonical correlations between two increment subspaces.

    sigmas are sorted descending and clamped to [0, 1]; rank_a/rank_b are
    the effective ranks after pivoted-Cholesky truncation, and cond is a
    diagonal-based condition estimate of the larger of the two retained
    Gram factors.
    """

    sigmas: np.ndarray
    rank_a: int
    rank_b: int
    cond: float
    ill_conditioned: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=float))


@dataclass(frozen=True)
class MiResult:
    """Mutual information in nats with Hilbert-Schmidt bounds.

    value is None when the information is infinite (some sigma_k at 1);
    upper is None when the upper bound diverges.  When finite,
    lower <= value <= upper.
    """

    value: float | None
    lower: float
    upper: float | None

    @property
    def infinite(self) -> bool:
        return self.value is None


def _pivoted_factor(g: np.ndarray, rtol: float):
    """Rank-revealing pivoted Cholesky of a PSD matrix.

    Returns (kept pivot indices, lower-triangular factor of the pivoted
    leading submatrix, condition estimate).  Truncates where the residual
    diagonal falls below rtol * max(diag).
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    max_diag = float(np.max(np.diag(g), initial=0.0))
    if max_diag <= 0.0:
        raise DegenerateCovarianceError("Gram matrix has effective rank 0")
    c, piv, rank, info = dpstrf(g, tol=rtol * max_diag, lower=1)
    if info < 0:
        raise ValueError(f"pivoted Cholesky failed (LAPACK info={info})")
    if rank == 0:
        raise DegenerateCovarianceError("Gram matrix has effective rank 0")
    keep = piv[:rank] - 1  # LAPACK pivots are 1-based
    factor = np.tril(c[:rank, :rank])
    d = np.diag(factor)
    cond = float((d[0] / d[-1]) ** 2)
    return keep, factor, cond


def canonical_correlations(
    ga: np.ndarray,
    gb: np.ndarray,
    c: np.ndarray,
    rtol: float = 1e-10,
) -> CanonicalSpectrum:
    """Canonical correlations from Gram matrices GA, GB and cross-Gram C.

    GA and GB are factored by pivoted Cholesky with rank truncation at
    relative tolerance rtol; the singular values of the whitened
    cross-Gram are clamped to [0, 1].  Raises DegenerateCovarianceError
    if either Gram has effective rank 0, and emits IllConditionedWarning
    when the condition estimate exceeds 1e12 or a singular value lands
    above 1 + 1e-8 before clamping.
    """
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    ga = np.asarray(ga, dtype=float)
    gb = np.asarray(gb, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (ga.shape[0], gb.shape[0]):
        raise ValueError(f"cross-Gram shape {c.shape} incompatible with Grams")

    keep_a, la, cond_a = _pivoted_factor(ga, rtol)
    keep_b, lb, cond_b = _pivoted_factor(gb, rtol)
    cond = max(cond_a, cond_b)

    # Whitened cross-Gram on the retained pivot sub-bases:
    # M = La^{-1} C[keep_a, keep_b] Lb^{-T}.
    m = solve_triangular(la, c[np.ix_(keep_a, keep_b)], lower=True)
    m = solve_triangular(lb, m.T, lower=True).T
    sigmas = svd(m, compute_uv=False)

    overshoot = float(np.max(sigmas, initial=0.0)) - 1.0
    ill = cond > COND_LIMIT or overshoot > CLAMP_TOL
    if ill:
        warnings.warn(
            f"whitening is ill-conditioned (cond={cond:.3e}, max sigma overshoot={overshoot:.3e})",
            IllConditionedWarning,
            stacklevel=2,
        )
    sigmas = np.clip(sigmas, 0.0, 1.0)
    return CanonicalSpectrum(
        sigmas=np.sort(sigmas)[::-1],
        rank_a=len(keep_a),
        rank_b=len(keep_b),
        cond=cond,
        ill_conditioned=ill,
    )


def cos_angle(spec: CanonicalSpectrum) -> float:
    """Cosine of the principal angle: the largest canonical correlation."""
    if spec.sigmas.size == 0:
        return 0.0
    return float(spec.sigmas[0])


def mi_bounds_hs(spec: CanonicalSpectrum):
    """Hilbert-Schmidt sandwich for the mutual information.

    With h = sum sigma_k^2 and m = sigma_1:

        h/2  <=  I  <=  (h/2) * (1 + m / (2 * (1 - m))),

    the upper bound being None (infinite) once sigma_1 reaches 1.
    """
    h = float(np.sum(spec.sigmas**2))
    lower = 0.5 * h
    m = cos_angle(spec)
    if m >= 1.0 - SIGMA_ONE_TOL:
        return lower, None
    upper = lower * (1.0 + m / (2.0 * (1.0 - m)))
    return lower, upper


def mutual_information_gy(spec: CanonicalSpectrum) -> MiResult:
    """Mutual information from the canonical spectrum (eigenvalue route)."""
    lower, upper = mi_bounds_hs(spec)
    if spec.sigmas.size and float(spec.sigmas[0]) >= 1.0 - SIGMA_ONE_TOL:
        return MiResult(value=None, lower=lower, upper=upper)
    value = -0.5 * float(np.sum(np.log1p(-spec.sigmas**2)))
    return MiResult(value=value, lower=lower, upper=upper)


def mutual_information_det(ga: np.ndarray, gb: np.ndarray, c: np.ndarray) -> float:
    """Mutual information via the joint-covariance determinant formula.

    Requires the joint block matrix [[GA, C], [C^T, GB]] to be strictly
    positive definite; raises DegenerateCovarianceError otherwise.  Used
    as an independent oracle against the eigenvalue route.
    """
    ga = np.asarray(ga, dtype=float)
    gb = np.asarray(gb, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    joint = np.block([[ga, c], [c.T, gb]])
    try:
        np.linalg.cholesky(joint)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError("joint covariance is not positive definite") from exc
    sign_a, logdet_a = np.linalg.slogdet(ga)
    sign_b, logdet_b = np.linalg.slogdet(gb)
    sign_j, logdet_j = np.linalg.slogdet(joint)
    if sign_a <= 0 or sign_b <= 0 or sign_j <= 0:
        raise DegenerateCovarianceError("covariance blocks are not positive definite")
    return 0.5 * (logdet_a + logdet_b - logdet_j)
