"""Canonical correlations, angle, MI routes and bounds."""

import math

import numpy as np
import pytest

from fbmlocal import acceptance, experiments, geometry
from fbmlocal.geometry import (
    RANK_RTOL,
    CanonicalSpectrum,
    DegenerateCovarianceError,
    IllConditionedWarning,
    canonical_correlations,
    cos_angle,
    mutual_information_det,
    mutual_information_gy,
)
from fbmlocal.kernels import IncrementBasis, TimeGrid, cross_gram, gram, uniform_gram

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
    assert inf.value == math.inf
    assert inf.upper == math.inf


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


def _bounds(spec):
    mi = mutual_information_gy(spec)
    return mi.lower, mi.upper


def test_mi_bounds_values():
    lo, hi = _bounds(_spec([0.0]))
    assert lo == 0.0 and hi == 0.0
    lo, hi = _bounds(_spec([0.1]))
    assert lo == pytest.approx(0.005, abs=1e-15)
    assert hi == pytest.approx(0.005 * (1.0 + 0.1 / 1.8), rel=1e-12)
    mi = -0.5 * math.log(1.0 - 0.01)
    assert lo <= mi <= hi
    lo, hi = _bounds(_spec([1.0 - 1e-13]))
    assert hi == math.inf


def test_mi_bounds_sandwich_random():
    rng = np.random.default_rng(271)
    for _ in range(300):
        k = int(rng.integers(1, 25))
        sig = np.sort(rng.uniform(0.0, 0.9, size=k))[::-1]
        spec = _spec(sig)
        mi = -0.5 * float(np.sum(np.log1p(-(sig**2))))
        lo, hi = _bounds(spec)
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
    # near-parallel directions whose second pivot survives the rank
    # tolerance (residual 4e-10): the span against itself whitens to a
    # sigma above 1 + 1e-8, which is flagged and clamped
    eps = 2e-10
    ga = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    with pytest.warns(IllConditionedWarning, match="overshoot"):
        spec = canonical_correlations(ga, ga, ga)
    assert spec.ill_conditioned
    assert (spec.rank_a, spec.rank_b) == (2, 2)
    assert spec.cond < 1.0 / RANK_RTOL
    assert np.all(spec.sigmas <= 1.0)


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


def test_scipy_sigmas_match_numpy_svd_on_gate_row():
    # gate row H = 0.25, eps = 2^-8, grid_n = 64: sigma_2 sits five decades
    # below sigma_1, yet numpy's SVD of the whitened cross-Gram agrees with
    # scipy's, an outside oracle on another LAPACK build
    from scipy.linalg import svd

    from fbmlocal.geometry import _pivoted_factor, _whitened_cross_gram

    eps, h = 2.0**-8, 0.25
    a = IncrementBasis.from_grid(TimeGrid(-eps, eps, 64))
    b = IncrementBasis.from_grid(TimeGrid(1.0 - eps, 1.0 + eps, 64))
    ga, gb, c = gram(a, h), gram(b, h), cross_gram(a, b, h)
    m = _whitened_cross_gram(_pivoted_factor(ga), _pivoted_factor(gb), c)
    want = svd(m, compute_uv=False)[:2]
    got = canonical_correlations(ga, gb, c).sigmas[:2]
    assert want[1] < 1e-4 * want[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _solve_route(ga, gb, c):
    """The reference whitening: pivoted Cholesky, two triangular solves
    M = La^-1 C[keep_a, keep_b] Lb^-T, SVD.  An explicit inverse factor has
    a weaker worst-case error bound than a triangular solve, so the product
    route is pinned against this one."""
    from scipy.linalg import solve_triangular
    from scipy.linalg.lapack import dpstrf

    def factor(g):
        f, piv, rank, _ = dpstrf(g, tol=RANK_RTOL * g.diagonal().max(), lower=1)
        f = np.tril(f[:rank, :rank])
        return piv[:rank] - 1, f, float((f[0, 0] / f[-1, -1]) ** 2)

    (keep_a, la, cond_a), (keep_b, lb, cond_b) = factor(ga), factor(gb)
    m = solve_triangular(la, c[np.ix_(keep_a, keep_b)], lower=True)
    m = solve_triangular(lb, m.T, lower=True).T
    sigmas = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
    ill = sigmas[0] > 1.0 + 1e-8
    return CanonicalSpectrum(np.clip(sigmas, 0.0, 1.0), len(keep_a), len(keep_b), max(cond_a, cond_b), ill)


def _row_spectra(monkeypatch, run):
    """[a, b, h, spectrum] for every row run() builds: the bases of the
    sides _make_row received and the spectrum its whitening step returned."""
    rows = []
    make_row, whiten = experiments._make_row, experiments._whitened_spectrum

    def recording_make_row(eps, side_a, side_b, h, *args):
        rows.append([side_a[0], side_b[0], h])
        return make_row(eps, side_a, side_b, h, *args)

    def recording_whiten(fa, fb, c):
        spec = whiten(fa, fb, c)
        rows[-1].append(spec)
        return spec

    monkeypatch.setattr(experiments, "_make_row", recording_make_row)
    monkeypatch.setattr(experiments, "_whitened_spectrum", recording_whiten)
    run()
    return rows


_ROUTE_CASES = {f"scan-H{h}": lambda h=h: experiments.local_independence_scan(h) for h in (0.2, 0.25, 0.7, 0.75, 0.8)}
for _h in (0.05, 0.95):
    _ROUTE_CASES[f"scan-H{_h}-eps2^-8"] = lambda h=_h: experiments.local_independence_scan(h, eps=(2.0**-8,))
for _h in (0.25, 0.75):
    _ROUTE_CASES[f"past-window-H{_h}"] = lambda h=_h: experiments.past_window_scan(h, 1.0)
    _ROUTE_CASES[f"complement-H{_h}"] = lambda h=_h: experiments.complement_window_scan(h)
for _h in (0.2, 0.8):
    for _n in (128, 256):
        _ROUTE_CASES[f"past-future-H{_h}-n{_n}"] = lambda h=_h, n=_n: experiments.past_future_angle(h, n=n)


@pytest.mark.parametrize("case", list(_ROUTE_CASES))
def test_product_route_matches_triangular_solves(case, monkeypatch):
    # every row of the gate's scan families and of the hard regime: the
    # scan's factors (one per side, the uniform windows' rescaled) and the
    # product whitening against per-row Grams and triangular solves
    rows = _row_spectra(monkeypatch, _ROUTE_CASES[case])
    assert rows
    for a, b, h, got in rows:
        want = _solve_route(gram(a, h), gram(b, h), cross_gram(a, b, h))
        assert (got.rank_a, got.rank_b, got.ill_conditioned) == (want.rank_a, want.rank_b, want.ill_conditioned)
        k = min(2, want.sigmas.size)
        np.testing.assert_allclose(got.sigmas[:k], want.sigmas[:k], rtol=1e-10, atol=0.0)
        mi_got, mi_want = mutual_information_gy(got).value, mutual_information_gy(want).value
        assert mi_got == pytest.approx(mi_want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("h", [0.2, 0.8])
def test_adjacency_table_matches_dense_route(h):
    # the Durbin-Levinson table against the dense route it replaced: the
    # two adjacent uniform windows whitened and their canonical spectrum's MI
    ns = (4, 8, 16, 32, 64, 128, 256)

    def dense(n):
        return experiments._make_row(
            1.0, experiments._window(-0.5, 0.5, h, n + 1), experiments._window(0.5, 0.5, h, n + 1), h
        ).mi

    got = experiments.adjacency_mi_table(h, 1.0, ns)
    np.testing.assert_allclose(got, [dense(n) for n in ns], rtol=1e-10, atol=0.0)


def _mp_cross_gram(mpmath, a, b, h):
    # increment covariances from the FBM covariance, every operation at the
    # working precision on the exact values of the float endpoints
    p = 2 * mpmath.mpf(h)

    def cov(s1, t1, s2, t2):
        s1, t1, s2, t2 = (mpmath.mpf(float(x)) for x in (s1, t1, s2, t2))
        return (abs(t1 - s2) ** p + abs(s1 - t2) ** p - abs(t1 - t2) ** p - abs(s1 - s2) ** p) / 2

    return mpmath.matrix([[cov(s1, t1, s2, t2) for s2, t2 in zip(b.s, b.t)] for s1, t1 in zip(a.s, a.t)])


@pytest.mark.parametrize("grid_n", [9, 17])
@pytest.mark.parametrize("h", [0.05, 0.95])
def test_whitening_matches_50_digit_oracle(h, grid_n):
    # the hard regime at eps = 2^-8: Grams built at 50 digits and rounded
    # once, so both float routes see the same entries and only the
    # whitening is judged
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0**-8
    a = IncrementBasis.from_grid(TimeGrid(-eps, eps, grid_n))
    b = IncrementBasis.from_grid(TimeGrid(1.0 - eps, 1.0 + eps, grid_n))
    with mpmath.workdps(50):
        ga, gb, c = _mp_cross_gram(mpmath, a, a, h), _mp_cross_gram(mpmath, b, b, h), _mp_cross_gram(mpmath, a, b, h)
        m = mpmath.inverse(mpmath.cholesky(ga)) * c * mpmath.inverse(mpmath.cholesky(gb)).T
        oracle = float(max(mpmath.svd_r(m, compute_uv=False)))
        ga, gb, c = (np.array(x.tolist(), dtype=float) for x in (ga, gb, c))
    assert canonical_correlations(ga, gb, c).sigmas[0] == pytest.approx(oracle, rel=1e-10, abs=0.0)
    assert _solve_route(ga, gb, c).sigmas[0] == pytest.approx(oracle, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("family, factors", [
    ("scan", 1),  # both windows share one factor per (H, grid_n)
    ("past-window", 2),  # the past once, the window once
    ("complement", 3),  # each table its complement, one uniform window factor for both
    ("adjacency", 0),  # partial autocorrelations, no Gram
    ("levy2d", 6),  # one per row, shared by both balls
    ("past-future", 1),  # the past once; the future is its mirror image
    ("past-future-report", 2),  # one per n; the 2T rerun reuses the T factor
])
def test_each_scan_side_is_factored_once(family, factors, monkeypatch):
    experiments._uniform_factor.cache_clear()
    experiments._graded_past_factor.cache_clear()
    calls = []
    factor = experiments._pivoted_factor

    def counted(g):
        calls.append(g.shape)
        return factor(g)

    monkeypatch.setattr(experiments, "_pivoted_factor", counted)
    run = {
        "scan": lambda: experiments.local_independence_scan(0.75),
        "past-window": lambda: experiments.past_window_scan(0.75, 1.0),
        "complement": lambda: experiments.complement_window_scan(0.75),
        "adjacency": lambda: experiments.adjacency_mi_table(0.8, n_schedule=(4, 8, 16)),
        "levy2d": lambda: experiments.levy2d_scan(0.75),
        "past-future": lambda: experiments.past_future_angle(0.2, n=32),
        "past-future-report": lambda: experiments.past_future_report(0.2, n=32),
    }[family]
    run()
    assert len(calls) == factors


def _lapack_factor(g):
    # the reference: LAPACK's pivoted Cholesky and triangular inverse
    from scipy.linalg.lapack import dpstrf, dtrtri

    f, piv, rank, _ = dpstrf(g, tol=RANK_RTOL * g.diagonal().max(), lower=1)
    f = np.tril(f[:rank, :rank])
    inv, info = dtrtri(f, lower=1)
    assert info == 0
    return piv[:rank] - 1, inv, float((f[0, 0] / f[-1, -1]) ** 2)


def _graded_gram(h, regions):
    # the Gram of a truncated scan's fixed side at grid_n = 64
    return gram(experiments._graded_basis(h, regions, 63)[0], h)


def _rank_deficient_gram(h):
    # 16 unit increments and the 8 sums of consecutive pairs: rank 16 of 24
    s = np.concatenate([np.arange(16.0), np.arange(0.0, 16.0, 2.0)])
    t = np.concatenate([np.arange(1.0, 17.0), np.arange(2.0, 17.0, 2.0)])
    return gram(IncrementBasis(s=s, t=t), h)


_FACTOR_FAMILIES = {
    "uniform-63": lambda h: uniform_gram(63, h),
    "graded-past-63": lambda h: _graded_gram(h, ((-64.0, 0.0, "b"),)),
    "complement-126": lambda h: _graded_gram(h, ((-64.0, 0.0, "b"), (1.0, 65.0, "a"))),
    "adjacency-256": lambda h: uniform_gram(256, h),
    "levy2d-48": lambda h: gram(experiments._ball_basis(np.zeros(2), 0.125, 9), h),
    "rank-deficient-24": _rank_deficient_gram,
}


@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95])
@pytest.mark.parametrize("family", list(_FACTOR_FAMILIES))
def test_pivoted_factor_matches_lapack(family, h):
    # the numpy factor against dpstrf + dtrtri on the gate's Gram families:
    # the same rank and cond, and the same inverse factor as far as the two
    # pick the same pivots (ties between equal diagonals may break apart);
    # the leading k x k block of L^-1 depends on the first k pivots alone
    from fbmlocal.geometry import _pivoted_factor

    g = _FACTOR_FAMILIES[family](h)
    keep, inv, cond = _lapack_factor(g)
    got = _pivoted_factor(g)
    assert len(got.keep) == len(keep)
    if family == "rank-deficient-24":
        assert len(keep) == 16
    assert got.cond == pytest.approx(cond, rel=1e-12, abs=0.0)
    k = int(np.argmin(np.append(got.keep == keep, False)))
    assert k >= 2
    assert np.max(np.abs(got.inv[:k, :k] - inv[:k, :k])) <= 1e-13 * np.max(np.abs(inv[:k, :k]))


# a kept pivot's residual exceeds RANK_RTOL * max(diag) = RANK_RTOL * d_0^2,
# so cond = (d_0 / d_last)^2 stays below 1 / RANK_RTOL up to rounding
_COND_BOUND = (1.0 + 1e-12) / RANK_RTOL


@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95])
@pytest.mark.parametrize("family", list(_FACTOR_FAMILIES))
def test_factor_cond_stays_below_inverse_rank_rtol(family, h):
    from fbmlocal.geometry import _pivoted_factor

    assert _pivoted_factor(_FACTOR_FAMILIES[family](h)).cond < _COND_BOUND


@pytest.fixture(scope="module")
def gate_run():
    """One run of the 14 checks, with no report reused from an earlier
    test: their results, the cond of every spectrum they whiten (scan rows
    and direct canonical_correlations calls alike) and every
    mutual_information_gy result they compute."""
    conds, mis = [], []
    whiten, gy = geometry._whitened_spectrum, geometry.mutual_information_gy

    def recording_whiten(fa, fb, c):
        spec = whiten(fa, fb, c)
        conds.append(spec.cond)
        return spec

    def recording_gy(spec):
        mi = gy(spec)
        mis.append(mi)
        return mi

    with pytest.MonkeyPatch.context() as mp:
        for module in (geometry, experiments):
            mp.setattr(module, "_whitened_spectrum", recording_whiten)
        for module in (experiments, acceptance):
            mp.setattr(module, "mutual_information_gy", recording_gy)
        acceptance._thm21_report.cache_clear()
        results = acceptance.run_checks()
    return results, conds, mis


def test_gate_rows_cond_stays_below_inverse_rank_rtol(gate_run):
    results, conds, _ = gate_run
    assert all(r.passed for r in results)
    assert conds and max(conds) < _COND_BOUND


def test_gate_mi_lies_in_its_hs_sandwich(gate_run):
    # scan rows, past-future, brownian pairs, route instances and the
    # sandwich's spectra: HS lower <= MI <= HS upper with no tolerance
    _, _, mis = gate_run
    outside = [mi for mi in mis if not mi.lower <= mi.value <= mi.upper]
    assert mis and outside == []
