"""Canonical correlations, principal angle, and Gaussian mutual information.

Two finite families of centered Gaussian variables with Gram matrices GA,
GB and cross-Gram C span two subspaces of the Gaussian Hilbert space.
Their canonical correlations sigma_k are the singular values of the
whitened cross-Gram; sigma_1 is the cosine of the principal angle, and
the mutual information is

    I = -0.5 * sum_k log(1 - sigma_k^2),

finite exactly when sigma_1 < 1.  A determinant route through the joint
covariance is kept as an independent oracle for nondegenerate inputs.

Whitening is factor once, then products.  A factor step (_pivoted_factor:
a pivoted Cholesky that builds the inverse factor as it goes) is made
once per side, so a scan that keeps one side fixed, or whose windows
share a Gram up to scale, factors it once for all its rows.  Each row is
then M = La^-1 C[keep_a, keep_b] Lb^-T by two matrix products and one
SVD.  Everything runs on numpy alone.  The determinant oracle is an
independent algorithm on the same build: unpivoted Cholesky factors of
the joint covariance and of GB, no whitening at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegenerateCovarianceError",
    "IllConditionedWarning",
    "CanonicalSpectrum",
    "MiResult",
    "canonical_correlations",
    "cos_angle",
    "mutual_information_gy",
    "mutual_information_det",
]

# pivoted-Cholesky rank truncation: a pivot is kept while its residual
# diagonal exceeds RANK_RTOL * max(diag), so every kept factor has
# cond = (d_0 / d_last)^2 < 1 / RANK_RTOL
RANK_RTOL = 1e-10
SIGMA_ONE_TOL = 1e-12
CLAMP_TOL = 1e-8


class DegenerateCovarianceError(ValueError):
    """A Gram or joint covariance matrix has no usable positive part."""


class IllConditionedWarning(UserWarning):
    """A canonical correlation came out above 1 + 1e-8 before clamping, so
    the whitening lost accuracy."""


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
    """Mutual information in nats with Hilbert-Schmidt bounds,
    lower <= value <= upper.  value and upper are inf once sigma_1
    reaches 1, where the information is infinite.
    """

    value: float
    lower: float
    upper: float


@dataclass(frozen=True)
class _Factor:
    """Whitening factor of one side's Gram G with kept pivots P = keep:
    scale * inv is the inverse of the lower Cholesky factor of G[P, P].
    The factor of s^-2 G is this one scaled by s, with the same rank and
    cond."""

    keep: np.ndarray
    inv: np.ndarray
    cond: float
    scale: float = 1.0

    def scaled(self, s: float) -> "_Factor":
        return replace(self, scale=self.scale * s)


def _pivoted_factor(g: np.ndarray) -> _Factor:
    """Rank-revealing pivoted Cholesky of a PSD matrix (its lower
    triangle), with the inverse of its factor.

    LAPACK dpstf2's rule: pivot on the largest residual diagonal, the
    original diagonal less the accumulated squares of the factor's
    entries, and stop once it is at most RANK_RTOL * max(diag).  Step j makes
    column j of L (rows in original order) and row j of L^-1, by forward
    substitution, with one vector-matrix product over both:
    [L[p, :j] L[:, :j]^T, L[p, :j] (L^-1)[:j, :j]].  cond is the
    diagonal-based estimate (d_0 / d_last)^2 of the kept factor.  keep
    and inv are read-only, so a cached factor can be shared.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    stop = RANK_RTOL * float(np.max(np.diag(g), initial=0.0))
    # row j of rows: [column j of L in original order | row j of L^-1];
    # rhs[i] is row i of G padded to the same width
    rows = np.zeros((n, 2 * n))
    rhs = np.zeros((n, 2 * n))
    rhs[:, :n] = np.tril(g) + np.tril(g, -1).T
    diag = g.diagonal().copy()
    squares = np.zeros(n)
    residual = diag.copy()
    keep, d = [], []
    for j in range(n):
        p = int(residual.argmax())
        ajj = float(residual[p])
        if not ajj > stop:  # also stops on nan, as dpstf2 does
            break
        ljj = math.sqrt(ajj)
        row = rows[j, : n + j + 1]
        np.subtract(rhs[p, : n + j + 1], rows[:j, p] @ rows[:j, : n + j + 1], out=row)
        row *= 1.0 / ljj
        row[n + j] = 1.0 / ljj
        squares += row[:n] ** 2
        diag[p] = -math.inf
        np.subtract(diag, squares, out=residual)
        keep.append(p)
        d.append(ljj)
    rank = len(keep)
    if rank == 0:
        raise DegenerateCovarianceError("Gram matrix has effective rank 0")
    keep, inv = np.array(keep), rows[:rank, n : n + rank].copy()
    keep.flags.writeable = inv.flags.writeable = False
    return _Factor(keep=keep, inv=inv, cond=(d[0] / d[-1]) ** 2)


def _whitened_cross_gram(fa: _Factor, fb: _Factor, c: np.ndarray) -> np.ndarray:
    """M = La^-1 C[keep_a, keep_b] Lb^-T from the full cross-Gram C."""
    m = fa.inv @ c[np.ix_(fa.keep, fb.keep)]
    m *= fa.scale * fb.scale
    return m @ fb.inv.T


def _whitened_spectrum(fa: _Factor, fb: _Factor, c: np.ndarray) -> CanonicalSpectrum:
    """Canonical correlations from two side factors and the full cross-Gram
    C: the singular values of the whitened cross-Gram, clamped to [0, 1],
    in the descending order LAPACK returns them.
    ill_conditioned is set when a singular value lands above 1 + 1e-8
    before clamping.
    """
    sigmas = np.linalg.svd(_whitened_cross_gram(fa, fb, c), compute_uv=False)
    return CanonicalSpectrum(
        sigmas=np.clip(sigmas, 0.0, 1.0),
        rank_a=len(fa.keep),
        rank_b=len(fb.keep),
        cond=max(fa.cond, fb.cond),
        ill_conditioned=float(np.max(sigmas, initial=0.0)) - 1.0 > CLAMP_TOL,
    )


def canonical_correlations(
    ga: np.ndarray,
    gb: np.ndarray,
    c: np.ndarray,
) -> CanonicalSpectrum:
    """Canonical correlations from Gram matrices GA, GB and cross-Gram C.

    GA and GB are factored by pivoted Cholesky with rank truncation at
    relative tolerance RANK_RTOL; the singular values of the whitened
    cross-Gram are clamped to [0, 1].  Raises DegenerateCovarianceError
    if either Gram has effective rank 0, and emits IllConditionedWarning
    when a singular value lands above 1 + 1e-8 before clamping.
    """
    ga = np.asarray(ga, dtype=float)
    gb = np.asarray(gb, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (ga.shape[0], gb.shape[0]):
        raise ValueError(f"cross-Gram shape {c.shape} incompatible with Grams")
    spec = _whitened_spectrum(_pivoted_factor(ga), _pivoted_factor(gb), c)
    if spec.ill_conditioned:
        warnings.warn(
            f"whitening is ill-conditioned (cond={spec.cond:.3e}, max sigma overshoot > {CLAMP_TOL:g})",
            IllConditionedWarning,
            stacklevel=2,
        )
    return spec


def cos_angle(spec: CanonicalSpectrum) -> float:
    """Cosine of the principal angle: the largest canonical correlation."""
    if spec.sigmas.size == 0:
        return 0.0
    return float(spec.sigmas[0])


def mutual_information_gy(spec: CanonicalSpectrum) -> MiResult:
    """Mutual information from the canonical spectrum (eigenvalue route),
    with its Hilbert-Schmidt sandwich.  With h = sum sigma_k^2 and
    m = sigma_1:

        h/2  <=  I  <=  (h/2) * (1 + m / (2 * (1 - m))),

    value and upper being inf once sigma_1 reaches 1.
    """
    lower = 0.5 * float(np.sum(spec.sigmas**2))
    m = cos_angle(spec)
    if m >= 1.0 - SIGMA_ONE_TOL:
        return MiResult(value=math.inf, lower=lower, upper=math.inf)
    value = -0.5 * float(np.sum(np.log1p(-spec.sigmas**2)))
    return MiResult(value=value, lower=lower, upper=lower * (1.0 + m / (2.0 * (1.0 - m))))


def mutual_information_det(ga: np.ndarray, gb: np.ndarray, c: np.ndarray) -> float:
    """Mutual information via the joint-covariance determinant formula,
    0.5 log det GB - 0.5 log det S with S = GB - C^T GA^-1 C, whose
    Cholesky factor is the trailing block of the joint matrix's.

    Requires the joint block matrix [[GA, C], [C^T, GB]] to be strictly
    positive definite; raises DegenerateCovarianceError otherwise.  Used
    as an independent oracle against the eigenvalue route.
    """
    ga = np.asarray(ga, dtype=float)
    gb = np.asarray(gb, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    joint = np.block([[ga, c], [c.T, gb]])
    try:
        lj = np.linalg.cholesky(joint)
        lb = np.linalg.cholesky(gb)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError("joint covariance is not positive definite") from exc
    return float(np.sum(np.log(lb.diagonal())) - np.sum(np.log(lj.diagonal()[ga.shape[0] :])))
