"""Canonical correlations, angle, MI routes and bounds."""

import math
import warnings

import numpy as np
import pytest

from fbmlocal.geometry import (
    CanonicalSpectrum,
    DegenerateCovarianceError,
    IllConditionedWarning,
    canonical_correlations,
    cos_angle,
    mi_bounds_hs,
    mutual_information_det,
    mutual_information_gy,
)
from fbmlocal.kernels import IncrementBasis, TimeGrid, cross_gram, gram

SQRT2 = math.sqrt(2.0)


def _spec(sigmas):
    sig = np.asarray(sigmas, dtype=float)
    k = sig.size
    return CanonicalSpectrum(sigmas=sig, rank_a=max(k, 1), rank_b=max(k, 1), cond=1.0, ill_conditioned=False)


def test_identical_subspaces():
    spec = canonical_correlations(np.eye(1), np.eye(1), np.eye(1))
    assert spec.sigmas.shape == (1,)
    assert spec.sigmas[0] == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_subspaces():
    spec = canonical_correlations(np.eye(3), np.eye(3), np.zeros((3, 3)))
    assert np.allclose(spec.sigmas, 0.0, atol=1e-14)
    assert cos_angle(spec) == 0.0


def test_adjacent_unit_increments_1d():
    rho = SQRT2 - 1.0
    spec = canonical_correlations(np.eye(1), np.eye(1), np.array([[rho]]))
    assert spec.sigmas[0] == pytest.approx(rho, abs=1e-14)
    assert cos_angle(spec) == pytest.approx(rho, abs=1e-14)


def test_cos_angle_cases():
    assert cos_angle(_spec([1.0, 0.3])) == 1.0
    assert cos_angle(_spec([])) == 0.0
    assert cos_angle(_spec([0.4142])) == pytest.approx(0.4142)


def test_mi_gy_values():
    assert mutual_information_gy(_spec([0.0])).value == 0.0
    for rho in (0.1, 0.5, 0.9):
        mi = mutual_information_gy(_spec([rho]))
        assert mi.value == pytest.approx(-0.5 * math.log(1.0 - rho**2), rel=1e-14)
        assert mi.lower <= mi.value <= mi.upper
    inf = mutual_information_gy(_spec([1.0]))
    assert inf.infinite
    assert inf.value is None
    assert inf.upper is None


def test_mi_det_values():
    assert mutual_information_det(np.eye(2), np.eye(3), np.zeros((2, 3))) == pytest.approx(0.0, abs=1e-14)
    rho = 0.6
    got = mutual_information_det(np.eye(1), np.eye(1), np.array([[rho]]))
    assert got == pytest.approx(-0.5 * math.log(1.0 - rho**2), rel=1e-12)


def test_mi_det_rejects_degenerate_joint():
    with pytest.raises(DegenerateCovarianceError):
        mutual_information_det(np.eye(1), np.eye(1), np.array([[1.0]]))


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateCovarianceError):
        canonical_correlations(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))


def test_route_equivalence_random():
    rng = np.random.default_rng(314159)
    for _ in range(40):
        na, nb = rng.integers(1, 11, size=2)
        d = na + nb
        f = rng.standard_normal((d, d + 4))
        j = f @ f.T / (d + 4) + 1e-3 * np.eye(d)
        ga, gb, c = j[:na, :na], j[na:, na:], j[:na, na:]
        gy = mutual_information_gy(canonical_correlations(ga, gb, c)).value
        det = mutual_information_det(ga, gb, c)
        assert gy == pytest.approx(det, rel=1e-8, abs=1e-12)


def test_mi_bounds_values():
    lo, hi = mi_bounds_hs(_spec([0.0]))
    assert lo == 0.0 and hi == 0.0
    lo, hi = mi_bounds_hs(_spec([0.1]))
    assert lo == pytest.approx(0.005, abs=1e-15)
    assert hi == pytest.approx(0.005 * (1.0 + 0.1 / 1.8), rel=1e-12)
    mi = -0.5 * math.log(1.0 - 0.01)
    assert lo <= mi <= hi
    lo, hi = mi_bounds_hs(_spec([1.0 - 1e-13]))
    assert hi is None


def test_mi_bounds_sandwich_random():
    rng = np.random.default_rng(271)
    for _ in range(300):
        k = int(rng.integers(1, 25))
        sig = np.sort(rng.uniform(0.0, 0.9, size=k))[::-1]
        spec = _spec(sig)
        mi = -0.5 * float(np.sum(np.log1p(-(sig**2))))
        lo, hi = mi_bounds_hs(spec)
        assert lo <= mi <= hi + 1e-15


def test_swap_symmetry():
    rng = np.random.default_rng(99)
    a = IncrementBasis.from_points(np.sort(rng.uniform(0.0, 1.0, size=6)))
    b = IncrementBasis.from_points(np.sort(rng.uniform(2.0, 3.0, size=6)))
    h = 0.7
    ga, gb, c = gram(a, h), gram(b, h), cross_gram(a, b, h)
    s1 = canonical_correlations(ga, gb, c)
    s2 = canonical_correlations(gb, ga, c.T)
    assert np.allclose(s1.sigmas, s2.sigmas, atol=1e-10)
    m1 = mutual_information_gy(s1).value
    m2 = mutual_information_gy(s2).value
    assert m1 == pytest.approx(m2, abs=1e-10)


def test_dilation_scale_invariance():
    # scaling time by a multiplies every Gram entry by a^{2H}; sigmas are
    # invariant, the finite form of self-similarity
    a = IncrementBasis.from_grid(TimeGrid(0.0, 0.25, 6))
    b = IncrementBasis.from_grid(TimeGrid(1.0, 1.25, 6))
    h = 0.8
    ga, gb, c = gram(a, h), gram(b, h), cross_gram(a, b, h)
    scale = 3.7 ** (2 * h)
    s1 = canonical_correlations(ga, gb, c)
    s2 = canonical_correlations(scale * ga, scale * gb, scale * c)
    assert np.allclose(s1.sigmas, s2.sigmas, atol=1e-10)


def test_refinement_monotonicity():
    # nested bases: refining both grids can only add information
    h = 0.75
    prev = -1.0
    for n in (3, 5, 9, 17):
        a = IncrementBasis.from_grid(TimeGrid(0.0, 0.5, n))
        b = IncrementBasis.from_grid(TimeGrid(1.0, 1.5, n))
        mi = mutual_information_gy(
            canonical_correlations(gram(a, h), gram(b, h), cross_gram(a, b, h))
        ).value
        assert mi >= prev - 1e-9
        prev = mi


def test_brownian_disjoint_exact_zero():
    for n in (3, 9, 33):
        a = IncrementBasis.from_grid(TimeGrid(0.0, 1.0, n))
        b = IncrementBasis.from_grid(TimeGrid(2.0, 3.0, n))
        spec = canonical_correlations(gram(a, 0.5), gram(b, 0.5), cross_gram(a, b, 0.5))
        assert cos_angle(spec) <= 1e-10
        assert mutual_information_gy(spec).value <= 1e-10


def test_ill_conditioned_warning():
    # near-parallel directions: condition estimate blows past 1e12
    eps = 1e-13
    ga = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = canonical_correlations(ga, ga, ga, rtol=1e-16)
    assert spec.ill_conditioned or any(
        issubclass(w.category, IllConditionedWarning) for w in caught
    )


def test_sigma_clamped_to_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        f = rng.standard_normal((2 * n, 2 * n + 3))
        j = f @ f.T / (2 * n + 3) + 1e-6 * np.eye(2 * n)
        spec = canonical_correlations(j[:n, :n], j[n:, n:], j[:n, n:])
        assert np.all(spec.sigmas >= 0.0)
        assert np.all(spec.sigmas <= 1.0)
        assert np.all(np.diff(spec.sigmas) <= 1e-15)


_NUMPY_LAPACK = ("svd", "eigh", "eigvalsh", "cholesky", "qr", "solve", "lstsq", "inv", "slogdet")


def test_whitening_never_calls_numpy_lapack(monkeypatch):
    # numpy and scipy bundle separate OpenBLAS builds; every row must whiten
    # on scipy's alone, so the scan families still run with numpy's blocked
    from fbmlocal.experiments import adjacency_mi_table, local_independence_scan, past_future_angle

    def blocked(*args, **kwargs):
        raise AssertionError("numpy.linalg LAPACK called on the whitening path")

    for name in _NUMPY_LAPACK:
        monkeypatch.setattr(np.linalg, name, blocked)
    rows = local_independence_scan(0.25).rows
    assert all(0.0 < r.cos < 1.0 for r in rows)
    assert 0.0 < past_future_angle(0.2, n=32) < 1.0
    assert all(mi > 0.0 for mi in adjacency_mi_table(0.8, n_schedule=(4, 8, 16, 32)))


def test_scipy_sigmas_match_numpy_svd_on_gate_row():
    # gate row H = 0.25, eps = 2^-8, grid_n = 64: sigma_2 sits five decades
    # below sigma_1, yet both builds' SVDs of the whitened cross-Gram agree
    from scipy.linalg import solve_triangular

    from fbmlocal.geometry import _pivoted_factor

    eps, h = 2.0**-8, 0.25
    a = IncrementBasis.from_grid(TimeGrid(-eps, eps, 64))
    b = IncrementBasis.from_grid(TimeGrid(1.0 - eps, 1.0 + eps, 64))
    ga, gb, c = gram(a, h), gram(b, h), cross_gram(a, b, h)
    keep_a, la, _ = _pivoted_factor(ga, 1e-10)
    keep_b, lb, _ = _pivoted_factor(gb, 1e-10)
    m = solve_triangular(la, c[np.ix_(keep_a, keep_b)], lower=True)
    m = solve_triangular(lb, m.T, lower=True).T
    want = np.linalg.svd(m, compute_uv=False)[:2]
    got = canonical_correlations(ga, gb, c).sigmas[:2]
    assert want[1] < 1e-4 * want[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
