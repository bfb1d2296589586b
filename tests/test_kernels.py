"""Covariance kernels: closed-form values, symmetries, Gram assembly."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from fbmlocal.kernels import (
    IncrementBasis,
    TimeGrid,
    _partial_autocorrelations,
    _toeplitz_operator,
    _toeplitz_quadratic_form,
    _toeplitz_solve,
    check_hurst,
    cross_gram,
    fbm_cov,
    gram,
    increment_autocov,
)

SQRT2 = math.sqrt(2.0)


def test_hurst_guard():
    for bad in (0.0, 1.0, -0.1, 1.1, 1e-10, 1.0 - 1e-10):
        with pytest.raises(ValueError):
            check_hurst(bad)
    assert check_hurst(0.5) == 0.5


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    pts = TimeGrid(0.0, 1.0, 5).points()
    assert np.allclose(pts, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_increment_basis_validation():
    with pytest.raises(ValueError):
        IncrementBasis(s=np.array([0.0]), t=np.array([0.0]))
    with pytest.raises(ValueError):
        IncrementBasis(s=np.array([]), t=np.array([]))
    b = IncrementBasis.from_grid(TimeGrid(0.0, 1.0, 3))
    assert len(b) == 2


def test_fbm_cov_unit_variance():
    for h in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert fbm_cov(1.0, 1.0, h) == pytest.approx(1.0, abs=1e-14)


def test_fbm_cov_brownian_is_min():
    assert fbm_cov(2.0, 3.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert fbm_cov(5.0, 1.5, 0.5) == pytest.approx(1.5, abs=1e-14)


def test_fbm_cov_opposite_signs_hand_value():
    # 0.5 * (1 + 1 - 2^{3/2}) = 1 - sqrt(2)
    assert fbm_cov(1.0, -1.0, 0.75) == pytest.approx(1.0 - SQRT2, abs=1e-14)


def test_fbm_cov_symmetry_and_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u, v = rng.uniform(-5.0, 5.0, size=2)
        h = rng.uniform(0.05, 0.95)
        assert fbm_cov(u, v, h) == fbm_cov(v, u, h)
        assert fbm_cov(u, u, h) == pytest.approx(abs(u) ** (2 * h), rel=1e-14)
    assert fbm_cov(0.0, 3.0, 0.3) == 0.0


def test_fbm_cov_self_similarity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        u, v = rng.uniform(-4.0, 4.0, size=2)
        a = rng.uniform(0.1, 10.0)
        h = rng.uniform(0.05, 0.95)
        left = fbm_cov(a * u, a * v, h)
        right = a ** (2 * h) * fbm_cov(u, v, h)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def _cross_1x1(p, q, h):
    # E[(X_{p1} - X_{p0}) (X_{q1} - X_{q0})] as a 1x1 cross-Gram
    g = cross_gram(IncrementBasis(s=[p[0]], t=[p[1]]), IncrementBasis(s=[q[0]], t=[q[1]]), h)
    assert g.shape == (1, 1)
    return float(g[0, 0])


def test_increment_cov_unit_increment():
    for h in (0.2, 0.5, 0.8):
        assert _cross_1x1((0.0, 1.0), (0.0, 1.0), h) == pytest.approx(1.0, abs=1e-14)


def test_increment_cov_brownian_adjacent_zero():
    assert _cross_1x1((0.0, 1.0), (1.0, 2.0), 0.5) == pytest.approx(0.0, abs=1e-14)


def test_increment_cov_adjacent_hand_value():
    # 0.5 * (2^{3/2} + 0 - 1 - 1) = sqrt(2) - 1
    assert _cross_1x1((0.0, 1.0), (1.0, 2.0), 0.75) == pytest.approx(SQRT2 - 1.0, abs=1e-14)


def test_increment_cov_swap_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = tuple(rng.uniform(-3.0, 3.0, size=2))
        q = tuple(rng.uniform(-3.0, 3.0, size=2))
        if p[0] == p[1] or q[0] == q[1]:
            continue
        h = rng.uniform(0.05, 0.95)
        assert _cross_1x1(p, q, h) == pytest.approx(_cross_1x1(q, p, h), rel=1e-13, abs=1e-13)


def test_increment_cov_translation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = tuple(rng.uniform(-3.0, 3.0, size=2))
        q = tuple(rng.uniform(-3.0, 3.0, size=2))
        if p[0] == p[1] or q[0] == q[1]:
            continue
        c = rng.uniform(-50.0, 50.0)
        h = rng.uniform(0.05, 0.95)
        base = _cross_1x1(p, q, h)
        moved = _cross_1x1((p[0] + c, p[1] + c), (q[0] + c, q[1] + c), h)
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95, 0.9995])
def test_increment_autocov_matches_40_digit_oracle(h):
    # the lattice series keeps full relative precision at every lag >= 2,
    # integer or not; the four-term difference erred by up to 2e-7 here
    mpmath = pytest.importorskip("mpmath")
    lags = [2, 3, 5, 17, 100, 1000, 32767, 2.5, 3.7, 41.3, 999.9, 12345.678]
    got = increment_autocov(np.array(lags, dtype=float), h, 0.5)
    with mpmath.workdps(40):
        p = 2 * mpmath.mpf(h)
        for k, g in zip(lags, got):
            k = mpmath.mpf(k)
            want = mpmath.mpf(0.5) ** p * ((k + 1) ** p + (k - 1) ** p - 2 * k**p) / 2
            assert abs(float((g - want) / want)) <= 1e-13, (k, h)


# increment_autocov(arange(65537), h) as recorded from its own series
# (30 terms, Horner in k^-2): sha256 of the little-endian bytes, and twelve
# lags exactly
_AUTOCOV_LAGS = [0, 1, 2, 3, 4, 5, 17, 255, 1023, 4097, 32767, 65536]
_AUTOCOV_RECORDED = {
    0.25: ("3b87d26f5cddb953ca60b01caaf67016eb8137632d516a3672cadc13ea0b13b9", [
        "0x1.0000000000000p+0", "-0x1.2bec333018866p-2", "-0x1.8ac1e4a62aeecp-5", "-0x1.98aed462bb109p-6",
        "-0x1.052bc0ef940c1p-6", "-0x1.7309193641082p-7", "-0x1.d40040369a3f7p-10", "-0x1.0182334d1e2c6p-15",
        "-0x1.0060230d25181p-18", "-0x1.ffd0045f970a3p-22", "-0x1.6a0e249206f06p-26", "-0x1.0000000050000p-27",
    ]),
    0.7: ("5e20fbe5c20bef7babe827207cca6002542d768b32f004ac3c6ef690bd043ffc", [
        "0x1.0000000000000p+0", "0x1.472d14ee54db0p-2", "0x1.8290b0fb94791p-3", "0x1.2b5cfb4ebb0b2p-3",
        "0x1.f5c132bdbedccp-4", "0x1.b6114cf1056eap-4", "0x1.a32daf6720066p-5", "0x1.4a2129d006dbfp-7",
        "0x1.1ee35e039e3c2p-8", "0x1.f322a9ee1b14cp-10", "0x1.1eb9a9fe69b28p-11", "0x1.7a544d8a87f19p-12",
    ]),
    0.9995: ("37621b15ff61a5278778f08974ca99b22eef7b52a4d5ff604e1f157a87182c89", [
        "0x1.0000000000000p+0", "0x1.ff4a5bcc38240p-1", "0x1.fee3a6977e0b4p-1", "0x1.feacfeafb7286p-1",
        "0x1.fe86d767d31f5p-1", "0x1.fe696e38a4bc8p-1", "0x1.fdc938cf9821fp-1", "0x1.fc683f765c06dp-1",
        "0x1.fbb38fcc75ac2p-1", "0x1.faff596515246p-1", "0x1.f9f1c58bd080cp-1", "0x1.f998056b79075p-1",
    ]),
}


@pytest.mark.parametrize("n", [16, 63, 2048])
def test_toeplitz_matvec_matches_scipy(n):
    # the dual-Gram residual guard's product, against scipy's Toeplitz product
    from scipy.linalg import matmul_toeplitz

    col = increment_autocov(np.arange(n), 0.7, 0.5)
    x = np.random.default_rng(n).standard_normal(n)
    want = matmul_toeplitz(col, x)
    assert np.linalg.norm(_toeplitz_operator(col)(x) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2, 64, 2048])
@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95])
def test_toeplitz_form_matches_levinson(h, n):
    # r_h_dual_gram's system against scipy's Levinson solve; at n = 2048
    # the preconditioner holds conjugate gradients to 8-16 iterations
    from scipy.linalg import solve_toeplitz

    col = increment_autocov(np.arange(n), h, 1.0 / n)
    w = np.full(n, 1.0 / n)
    want = float(w @ solve_toeplitz(col, w))
    assert _toeplitz_quadratic_form(col, w, "test") == pytest.approx(want, rel=1e-12, abs=0.0)
    if n == 2048:
        assert _toeplitz_solve(col, w)[1] <= 30


@pytest.mark.parametrize("k", [2.0, 32.0])
@pytest.mark.parametrize("alpha, s, t, n", [(2.0, 0.25, 128.0, 256), (2.0, 0.25, 512.0, 1024), (1.5, -0.25, 64.0, 512)])
def test_lemma22_toeplitz_form_matches_levinson(alpha, s, t, n, k):
    # the lemma-2.2 decay protocols: the sobolev-scaling gate's first at its
    # former and its present (T, n), and its second
    from scipy.linalg import solve_toeplitz

    from fbmlocal.sobolev import _hat_gram_row, _hat_pairings

    pts = np.linspace(-t, 0.0, n + 2)
    col, w = _hat_gram_row(pts, s), _hat_pairings(alpha, k, pts)
    want = float(w @ solve_toeplitz(col, w))
    assert _toeplitz_quadratic_form(col, w, "test") == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 16, 257])
@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95])
def test_partial_autocorrelations_give_toeplitz_log_determinants(h, n):
    # log det T_m = m log col[0] + sum_{j < m} (m - j) log(1 - phi_jj^2) for
    # leading m x m blocks, against LAPACK's LU determinant and, for the
    # last phi, against scipy's Levinson solve of the Yule-Walker system
    from scipy.linalg import solve_toeplitz

    col = increment_autocov(np.arange(n), h, 0.5)
    phi = _partial_autocorrelations(col, "test")
    assert phi.shape == (n - 1,)
    assert np.all(np.abs(phi) < 1.0)
    terms = np.log1p(-phi * phi)
    for m in {1, 2, n // 2, n}:
        want = np.linalg.slogdet(col[np.abs(np.arange(m)[:, None] - np.arange(m))])
        got = m * math.log(col[0]) + float((m - np.arange(1, m)) @ terms[: m - 1])
        assert want[0] == 1.0 and got == pytest.approx(want[1], rel=1e-12, abs=1e-12)
    if n > 2:
        assert phi[-1] == pytest.approx(solve_toeplitz(col[:-1], col[1:])[-1], rel=1e-10, abs=1e-15)


def test_partial_autocorrelations_of_ar1_and_white_noise():
    # an AR(1) autocovariance rho^k has phi_11 = rho and no later partial
    # autocorrelation; white noise has none at all
    rho = -0.6
    phi = _partial_autocorrelations(rho ** np.arange(12.0), "test")
    assert phi[0] == pytest.approx(rho, rel=1e-15)
    assert np.max(np.abs(phi[1:])) <= 1e-15
    assert not np.any(_partial_autocorrelations(np.r_[2.0, np.zeros(9)], "test"))


@pytest.mark.parametrize("col, message", [
    # 1, 0.9, 0.9, 0.1: positive definite through 3 x 3, not 4 x 4
    ([1.0, 0.9, 0.9, 0.1], r"partial autocorrelation -[0-9.e+]+ at lag 3$"),
    ([1.0, 1.0, 0.5], r"partial autocorrelation 1 at lag 1$"),
    ([1.0, -1.5, 0.5], r"partial autocorrelation -1\.5 at lag 1$"),
    ([0.0, 0.0, 0.0], r"innovation variance 0 at lag 0$"),
    ([-1.0, 0.0], r"innovation variance -1 at lag 0$"),
    ([math.nan, 0.0], r"innovation variance nan at lag 0$"),
    ([1.0, math.nan, 0.0], r"partial autocorrelation nan at lag 1$"),
])
def test_partial_autocorrelations_reject_non_positive_definite_columns(col, message):
    with pytest.raises(np.linalg.LinAlgError, match=r"^Durbin-Levinson recursion rejected at H=0\.7, n=4: " + message):
        _partial_autocorrelations(np.array(col), "H=0.7, n=4")


@pytest.mark.parametrize("h", sorted(_AUTOCOV_RECORDED))
def test_increment_autocov_is_bit_identical_to_recorded_column(h):
    # the sampler's column and r_h_dual_gram depend on these exact bits:
    # the second-difference case of the shared series has unit moments
    digest, values = _AUTOCOV_RECORDED[h]
    got = increment_autocov(np.arange(65537), h)
    assert np.array_equal(got[_AUTOCOV_LAGS], [float.fromhex(v) for v in values])
    assert hashlib.sha256(got.astype("<f8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("call, name", [
    (lambda: fbm_cov(math.nan, 1.0, 0.75), "u"),
    (lambda: fbm_cov([0.0, 1.0], [1.0, math.inf], 0.75), "v"),
    (lambda: increment_autocov(3, 0.7, dt=math.nan), "dt"),
    (lambda: increment_autocov([1.0, math.inf], 0.7), "k"),
])
def test_kernels_reject_non_finite_inputs(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        call()


@pytest.mark.parametrize("k, h, dt, message", [
    (np.arange(4), 0.7, 1e300, "overflows float64"),
    (np.arange(4), 0.99, 1e160, "overflows float64"),
    (np.arange(3), 0.9, 1e-200, r"underflows float64: dt = 1e-200 to the power 2H = 1\.8$"),
], ids=["dt-1e300", "dt-1e160", "dt-1e-200"])
def test_increment_autocov_refuses_overflow(k, h, dt, message):
    # dt^2H raised OverflowError, and an underflowed dt^2H gave all zeros
    with pytest.raises(ValueError, match=f"^increment autocovariance {message}"):
        increment_autocov(k, h, dt)


@pytest.mark.parametrize("h", [0.1, 0.3, 0.75, 0.9, 0.99])
def test_increment_autocov_is_finite_at_far_lags(h):
    # past lag ~1.3e154 k^-2 underflowed and gave 0, and past 1e308^(1/2H)
    # k^2H overflowed (lag 1e200 raised at H = 0.9; it is 7.2e-41); the
    # lead term H(2H-1) k^(2H-2), every further term below 1e-300 of it,
    # holds to a few ulps wherever it is normal
    mpmath = pytest.importorskip("mpmath")
    k = np.array([1e100, 2.0**500 * 1.01, 1e155, 1e160, 1e200, 1e300, 1.7e308])
    with mpmath.workdps(40):
        want = np.array([float(h * (2 * mpmath.mpf(h) - 1) * mpmath.mpf(x) ** (2 * mpmath.mpf(h) - 2)) for x in k])
    got = increment_autocov(k, h)
    assert np.allclose(got, want, rtol=2e-15, atol=1e-300)
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("u, v, h", [(1e300, 2e300, 0.9), (1e160, 1e160, 0.99)])
def test_fbm_cov_refuses_overflow(u, v, h):
    # once nan (inf - inf) and once inf; either would pass for a value
    with pytest.raises(ValueError, match="^covariance overflows float64"):
        fbm_cov(u, v, h)



@pytest.mark.parametrize("make", [
    lambda: gram(IncrementBasis.from_points([0.0, 1e300]), 0.75),
    lambda: cross_gram(IncrementBasis.from_points([0.0, 1.0]), IncrementBasis.from_points([1e300, 2e300]), 0.75),
], ids=["gram", "cross_gram"])
def test_an_overflowing_distance_is_a_named_error(make):
    # |x|^2H overflowed: the entries became inf - inf = nan, with a
    # RuntimeWarning, and LAPACK failed on them downstream
    with pytest.raises(ValueError, match=r"^covariance overflows float64: a distance between endpoints to the power 1\.5$"):
        make()


def _disjoint_kernel(u, v, h):
    # cross-covariance density H(2H-1)|u-v|^{2H-2} of increments on disjoint cells
    return h * (2.0 * h - 1.0) * abs(u - v) ** (2.0 * h - 2.0)


def test_increment_cov_matches_kernel_double_integral():
    # disjoint supports: E dX dY = integral of the smooth kernel
    for h in (0.3, 0.75):
        p, q = (0.0, 1.0), (2.0, 3.5)
        val, err = dblquad(lambda v, u: _disjoint_kernel(u, v, h), p[0], p[1], q[0], q[1])
        assert _cross_1x1(p, q, h) == pytest.approx(val, rel=1e-6)


def test_gram_brownian_half_grid():
    b = IncrementBasis.from_grid(TimeGrid(0.0, 1.0, 3))
    g = gram(b, 0.5)
    assert np.allclose(g, 0.5 * np.eye(2), atol=1e-14)


def test_gram_single_pair():
    g = gram(IncrementBasis(s=np.array([0.0]), t=np.array([1.0])), 0.8)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_gram_hand_values_h075():
    b = IncrementBasis.from_grid(TimeGrid(0.0, 1.0, 3))
    g = gram(b, 0.75)
    diag = 2.0 ** -1.5
    off = 0.5 * (1.0 - 2.0 * diag)
    assert np.allclose(np.diag(g), diag, atol=1e-14)
    assert g[0, 1] == pytest.approx(off, abs=1e-14)
    assert g[1, 0] == pytest.approx(off, abs=1e-14)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_gram_is_exactly_symmetric(dim):
    # times (dim 0) or points of R^dim at arbitrary, off-lattice positions
    rng = np.random.default_rng(dim)
    for _ in range(75):
        m = int(rng.integers(1, 40))
        shape = (m,) if dim == 0 else (m, dim)
        s = rng.uniform(-5.0, 5.0, shape)
        g = gram(IncrementBasis(s=s, t=s + rng.uniform(0.01, 3.0, shape)), rng.uniform(0.01, 0.99))
        assert np.array_equal(g, g.T)


def test_gram_psd_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a, width = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 4.0)
        h = rng.uniform(0.05, 0.95)
        g = gram(IncrementBasis.from_grid(TimeGrid(a, a + width, n)), h)
        w = np.linalg.eigvalsh(g)
        assert w.min() >= -1e-10 * w.max()


def test_cross_gram_cases():
    a = IncrementBasis.from_grid(TimeGrid(0.0, 1.0, 4))
    b = IncrementBasis.from_grid(TimeGrid(2.0, 3.0, 4))
    assert np.allclose(cross_gram(a, b, 0.5), 0.0, atol=1e-14)
    assert np.allclose(cross_gram(a, a, 0.7), gram(a, 0.7), atol=1e-14)
    one = cross_gram(
        IncrementBasis(s=np.array([0.0]), t=np.array([1.0])),
        IncrementBasis(s=np.array([1.0]), t=np.array([2.0])),
        0.75,
    )
    assert one[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-14)


def test_levy_cov_values():
    assert fbm_cov((1.0, 0.0), (1.0, 0.0), 0.3) == pytest.approx(1.0, abs=1e-14)
    assert fbm_cov((1.0, 0.0), (0.0, 1.0), 0.5) == pytest.approx(0.5 * (2.0 - SQRT2), abs=1e-14)
    assert fbm_cov((0.0, 0.0), (0.7, -0.2), 0.8) == 0.0


def test_levy_cov_dimension_mismatch():
    with pytest.raises(ValueError):
        fbm_cov((1.0, 0.0), (1.0, 0.0, 0.0), 0.5)


def test_levy_cov_reduces_to_1d():
    rng = np.random.default_rng(12)
    for _ in range(50):
        u, v = rng.uniform(-3.0, 3.0, size=2)
        h = rng.uniform(0.05, 0.95)
        assert fbm_cov((u,), (v,), h) == pytest.approx(fbm_cov(u, v, h), rel=1e-14, abs=1e-14)


def test_levy_increment_grams_match_bilinear_expansion():
    # increments X(p_i) - X(c) for a few planar points
    rng = np.random.default_rng(13)
    center = np.array([0.3, -0.2])
    pts = rng.uniform(-1.0, 1.0, size=(5, 2)) + center
    center2 = np.array([2.0, 1.0])
    pts2 = rng.uniform(-1.0, 1.0, size=(4, 2)) + center2
    h = 0.65
    a = IncrementBasis(s=np.tile(center, (len(pts), 1)), t=pts)
    b = IncrementBasis(s=np.tile(center2, (len(pts2), 1)), t=pts2)
    g = gram(a, h)
    c = cross_gram(a, b, h)
    for i in range(len(pts)):
        for j in range(len(pts)):
            expect = (
                fbm_cov(pts[i], pts[j], h)
                - fbm_cov(pts[i], center, h)
                - fbm_cov(center, pts[j], h)
                + fbm_cov(center, center, h)
            )
            assert g[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    for i in range(len(pts)):
        for j in range(len(pts2)):
            expect = (
                fbm_cov(pts[i], pts2[j], h)
                - fbm_cov(pts[i], center2, h)
                - fbm_cov(center, pts2[j], h)
                + fbm_cov(center, center2, h)
            )
            assert c[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# properties of the one second-difference kernel behind gram and cross_gram

_HURST = st.floats(0.05, 0.95)


@st.composite
def _bases(draw, dim):
    """An IncrementBasis of 1..6 increments: times (dim 0) or planar points
    (dim 2) in [-4, 4]^dim, each increment of length in [0.1, 2].

    Endpoints lie on the 1/64 lattice, so two of them coincide or sit at
    least 1/64 apart: |x|^{2H} is ill-conditioned near 0 at small H, and
    for nearer distinct endpoints the rounding of a shift would dominate.
    """
    m = draw(st.integers(1, 6))
    coord = st.integers(-256, 256)
    step = st.integers(-128, 128)
    if dim == 0:
        s = np.array(draw(st.lists(coord, min_size=m, max_size=m)), dtype=float)
        d = np.array(draw(st.lists(step.filter(lambda k: abs(k) >= 7), min_size=m, max_size=m)), dtype=float)
    else:
        s = np.array(draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m)), dtype=float)
        d = np.array(
            draw(st.lists(st.tuples(step, step).filter(lambda v: 7**2 <= v[0] ** 2 + v[1] ** 2 <= 128**2),
                          min_size=m, max_size=m)),
            dtype=float,
        )
    return IncrementBasis(s=s / 64.0, t=(s + d) / 64.0)


def _moved(basis, shift, scale):
    return IncrementBasis(s=scale * (basis.s + shift), t=scale * (basis.t + shift))


def _term_scale(a, b, h, scale):
    # a bound on the largest |.|^{2H} in the four-term sums once the bases
    # are scaled; the second difference cancels those terms, so its
    # rounding error is a few ulps of this bound, not of the entry
    span = np.ptp(np.concatenate([a.s, a.t, b.s, b.t]), axis=0).sum() * max(scale, 1.0)
    return max(span, 1.0) ** (2.0 * h)


# two bases of one dimension: both of times or both of planar points
_PAIRS = st.sampled_from((0, 2)).flatmap(lambda dim: st.tuples(_bases(dim), _bases(dim)))
_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@_PROPERTY
@given(_bases(0), _bases(0), _HURST)
def test_times_and_one_dimensional_points_agree(a, b, h):
    a1, b1 = (IncrementBasis(s=x.s[:, None], t=x.t[:, None]) for x in (a, b))
    for times, points in ((gram(a, h), gram(a1, h)), (cross_gram(a, b, h), cross_gram(a1, b1, h))):
        assert np.max(np.abs(times - points)) <= 1e-15 * np.max(np.abs(times))


@_PROPERTY
@given(_PAIRS, _HURST)
def test_cross_gram_swap_is_transpose(bases, h):
    a, b = bases
    assert np.array_equal(cross_gram(a, b, h), cross_gram(b, a, h).T)


@_PROPERTY
@given(_PAIRS, _HURST, st.floats(-10.0, 10.0), st.floats(0.1, 10.0))
def test_gram_shift_invariance_and_self_similarity(bases, h, shift, scale):
    a, b = bases
    tol = 1e-12 * _term_scale(a, b, h, scale)
    for build, args in ((gram, (a,)), (cross_gram, (a, b))):
        base = build(*args, h)
        shifted = build(*(_moved(x, shift, 1.0) for x in args), h)
        scaled = build(*(_moved(x, shift, scale) for x in args), h)
        assert np.max(np.abs(shifted - base)) <= tol
        assert np.max(np.abs(scaled - scale ** (2.0 * h) * base)) <= tol


def test_planar_basis_validation():
    with pytest.raises(ValueError):
        IncrementBasis(s=np.array([[0.0, 1.0], [2.0, 0.5]]), t=np.array([[0.0, 2.0], [2.0, 0.5]]))
    with pytest.raises(ValueError):
        IncrementBasis(s=np.zeros((2, 2)), t=np.ones((2, 3)))
    planar = IncrementBasis(s=np.zeros((3, 2)), t=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert len(planar) == 3
    times = IncrementBasis.from_grid(TimeGrid(2.0, 3.0, 4))
    spatial = IncrementBasis(s=np.zeros((3, 3)), t=np.eye(3))
    for other in (times, spatial):
        with pytest.raises(ValueError):
            cross_gram(planar, other, 0.7)
        with pytest.raises(ValueError):
            cross_gram(other, planar, 0.7)
