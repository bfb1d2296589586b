"""Sobolev inner products, explicit constants, pairing identity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fbmlocal import acceptance, sobolev
from fbmlocal.experiments import ExponentFit
from fbmlocal.sobolev import (
    HeadNotConvergedError,
    TailNotConvergedError,
    TestFunction,
    _cross_spectrum,
    _head,
    _hat_gram_row,
    _hat_pairings,
    _tail,
    a_h_constant,
    check_smoothness,
    fbm_pairing_spectral,
    fbm_pairing_time,
    indicator_sq_norm,
    lemma22_dual_norm,
    pairing_identity_check,
    r_h_constant,
    r_h_spectral,
    sobolev_inner,
    sobolev_norm,
)


def test_gamma_routine_sanity():
    # the constants lean on the library gamma; pin its accuracy here
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    for n in range(1, 8):
        assert math.gamma(n + 1) == pytest.approx(math.factorial(n), rel=1e-13)


def test_smoothness_guard():
    for bad in (0.5, -0.5, 0.7, 0.5 - 1e-10):
        with pytest.raises(ValueError):
            check_smoothness(bad)
    assert check_smoothness(0.25) == 0.25


def test_testfunction_shape():
    phi = TestFunction.hat(0.0, 1.0)
    assert phi(0.0) == pytest.approx(1.0)
    assert phi(0.5) == pytest.approx(0.5)
    assert phi(1.0) == 0.0
    assert phi(2.0) == 0.0
    assert phi(-3.0) == 0.0
    lo, hi = phi.support()
    assert (lo, hi) == (-1.0, 1.0)


def test_testfunction_validation():
    with pytest.raises(ValueError):
        TestFunction.from_samples([0.0, 1.0], [])  # fewer than 3 nodes
    with pytest.raises(ValueError):
        TestFunction.from_samples([0.0, 1.0, 0.5], [1.0])  # not increasing
    with pytest.raises(ValueError):
        TestFunction.hat(0.0, -1.0)


def test_shift_dilate_bookkeeping():
    phi = TestFunction.from_samples([-1.0, 0.0, 2.0], [1.5])
    sh = phi.shifted(3.0)
    assert sh.support() == (2.0, 5.0)
    assert sh(3.0) == pytest.approx(phi(0.0))
    di = phi.dilated(2.0)
    assert di.support() == (-0.5, 1.0)
    assert di(0.25) == pytest.approx(phi(0.5))


def test_fourier_at_zero_is_mass():
    phi = TestFunction.from_samples([-1.0, -0.2, 0.5, 1.3], [0.7, -0.4])
    # (2 pi)^{-1/2} integral of phi
    xs = np.linspace(-1.0, 1.3, 20001)
    mass = np.trapezoid([phi(x) for x in xs], xs)
    assert phi.fourier(0.0)[0].real == pytest.approx(mass / math.sqrt(2 * math.pi), abs=1e-6)


def test_s_zero_is_l2():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n1, n2 = rng.integers(3, 7, size=2)
        phi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, n1)), rng.uniform(-1, 1, n1 - 2))
        psi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, n2)), rng.uniform(-1, 1, n2 - 2))
        # the product is piecewise quadratic, so Gauss-Kronrod between the
        # breakpoints is exact
        lo, hi = max(phi.nodes[0], psi.nodes[0]), min(phi.nodes[-1], psi.nodes[-1])
        knots = [x for x in np.concatenate([phi.nodes, psi.nodes]) if lo < x < hi]
        l2 = quad(lambda x: phi(x) * psi(x), lo, hi, points=knots)[0] if lo < hi else 0.0
        assert sobolev_inner(phi, psi, 0.0) == pytest.approx(l2, rel=1e-8, abs=1e-10)


def test_symmetry_and_bilinearity():
    rng = np.random.default_rng(22)
    phi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, 5)), rng.uniform(-1, 1, 3))
    psi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, 4)), rng.uniform(-1, 1, 2))
    for s in (-0.3, 0.0, 0.3):
        a = sobolev_inner(phi, psi, s)
        b = sobolev_inner(psi, phi, s)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)
        # scaling one argument scales the pairing
        phi2 = TestFunction(nodes=phi.nodes, values=2.5 * phi.values)
        assert sobolev_inner(phi2, psi, s) == pytest.approx(2.5 * a, rel=1e-9, abs=1e-12)


def test_norm_positivity_and_cauchy_schwarz():
    rng = np.random.default_rng(23)
    for _ in range(5):
        phi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, 5)), rng.uniform(-1, 1, 3))
        psi = TestFunction.from_samples(np.sort(rng.uniform(-2, 2, 5)), rng.uniform(-1, 1, 3))
        for s in (-0.25, 0.25):
            np_, ns = sobolev_norm(phi, s), sobolev_norm(psi, s)
            assert np_ >= 0.0
            assert abs(sobolev_inner(phi, psi, s)) <= np_ * ns * (1 + 1e-9)


def test_dilation_law_quick():
    phi = TestFunction.hat(0.2, 0.8)
    for s in (-0.25, 0.25):
        base = sobolev_norm(phi, s) ** 2
        got = sobolev_norm(phi.dilated(4.0), s) ** 2
        assert got == pytest.approx(4.0 ** (2 * s - 1.0) * base, rel=1e-6)


def _head_reference(phi, psi, s):
    # tight adaptive quadrature; xi = eta^(1/(1+2s)) soaks up the xi^(2s) singularity
    beta = 1.0 / (1.0 + 2.0 * s)

    def integrand(eta):
        xi = eta**beta
        return float(np.real(phi.fourier(xi) * np.conj(psi.fourier(xi)))[0]) / (1.0 + 2.0 * s)

    return quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]


def _panel_head(phi, psi, s):
    # the head exactly as sobolev_inner computes it; raises if the guard trips
    return _head(phi, psi, s)


@pytest.mark.parametrize("span", [2.0, 20.0, 100.0])
@pytest.mark.parametrize("s", [-0.49, -0.45, -0.25, 0.0, 0.25, 0.45])
def test_head_rule_matches_tight_quadrature(s, span):
    phi = TestFunction.from_samples([0.0, 0.3, 0.7, 1.0], [1.0, -0.4])
    psi = TestFunction.hat(span - 0.5, 0.5)  # joint support [0, span]
    assert _panel_head(phi, psi, s) == pytest.approx(_head_reference(phi, psi, s), rel=1e-8, abs=0.0)


def test_head_rule_on_pairing_suite():
    # the 40 heads behind the pairing-identity gate
    for phi, psi in acceptance._pairing_suite():
        for h in (0.25, 0.4, 0.6, 0.75):
            s = 0.5 - h
            assert _panel_head(phi, psi, s) == pytest.approx(_head_reference(phi, psi, s), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("s", [-0.45, 0.0, 0.45])
def test_head_guard_rejects_unresolved_rule(s):
    # 3 nodes cannot resolve phases up to 20: the 3- and 6-node rules disagree
    phi = TestFunction.from_samples([0.0, 0.3, 0.7, 1.0], [1.0, -0.4])
    psi = TestFunction.hat(19.5, 0.5)
    with pytest.raises(HeadNotConvergedError, match="3- and 6-node head rules differ"):
        _head(phi, psi, s, 3)


def _mp_cross_spectrum(phi, psi, mpmath):
    # (delta, W) pairs of the cosine-sum form, exact from the float nodes and
    # values: the float phases and weights break sum W = sum W delta^2 = 0 by
    # round-off, which the finite-part sums below would amplify
    def jumps(f):
        x = [mpmath.mpf(v) for v in f.nodes]
        y = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in f.values] + [mpmath.mpf(0)]
        slope = [(y[i + 1] - y[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
        return x, [slope[0]] + [slope[i] - slope[i - 1] for i in range(1, len(slope))] + [-slope[-1]]

    (x1, w1), (x2, w2) = jumps(phi), jumps(psi)
    return [(abs(a - b), u * v) for a, u in zip(x1, w1) for b, v in zip(x2, w2)]


def _mp_finite_part_head(delta, s, mpmath):
    # finite part of the integral over [0, 1] of xi^(2s-4) cos(delta xi): the
    # 1F2 series of x^mu cos(delta x), continued to mu = 2s - 4
    mu = 2 * mpmath.mpf(s) - 4
    return mpmath.hyp1f2((mu + 1) / 2, mpmath.mpf(1) / 2, (mu + 3) / 2, -(delta**2) / 4) / (mu + 1)


@pytest.mark.parametrize("span", [400.0, 600.0, 1000.0])
def test_head_at_large_span_matches_50_digit_oracle(span):
    # s = -0.49 at these spans once tripped the head guard by round-off alone
    # (one Gauss-Jacobi rule of 32 + span nodes); the finite parts sum to the
    # head because sum W = sum W delta^2 = 0
    mpmath = pytest.importorskip("mpmath")
    s = -0.49
    phi = TestFunction.from_samples([0.0, 0.3, 0.7, 1.0], [1.0, -0.4])
    psi = TestFunction.hat(span - 0.5, 0.5)
    with mpmath.workdps(50):
        want = sum(w * _mp_finite_part_head(d, s, mpmath) for d, w in _mp_cross_spectrum(phi, psi, mpmath))
        want = float(want / (2 * mpmath.pi))
    assert _panel_head(phi, psi, s) == pytest.approx(want, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("s", [-0.49, -0.25, 0.25, 0.49])
@pytest.mark.parametrize("delta", [1e-3, 0.7, 30.0, 1000.0])
def test_tail_rule_matches_50_digit_oracle(s, delta):
    # the rotated-contour rule for one phase group against the full-line
    # integral minus the head's finite part; the rule may drop 1e-8 of scale
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mu, d = 2 * mpmath.mpf(s) - 4, mpmath.mpf(delta)
        full = mpmath.gamma(mu + 1) * mpmath.cos(mpmath.pi * (mu + 1) / 2) * d ** (-mu - 1)
        want = float((full - _mp_finite_part_head(d, s, mpmath)) / (2 * mpmath.pi))
    got = _tail(np.array([delta]), np.array([1.0]), s, abs(want))
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("s", [-0.45, 0.0, 0.45])
def test_tail_guard_rejects_unresolved_rule(s):
    # 2 nodes per panel cannot follow e^(-delta t) on the first panels
    phi = TestFunction.from_samples([0.0, 0.3, 0.7, 1.0], [1.0, -0.4])
    delta, weight = _cross_spectrum(phi, TestFunction.hat(19.5, 0.5))
    live = delta > 0.0
    with pytest.raises(TailNotConvergedError, match="2- and 4-node tail rules differ"):
        _tail(delta[live], weight[live], s, 1e-3, 2)


@pytest.mark.parametrize("span", [20.0, 200.0])
@pytest.mark.parametrize("s", [-0.25, 0.25])
def test_sobolev_inner_on_separated_pairs(s, span):
    # the time-domain pairing in 50 digits, 0.5 sum W |delta|^p / ((p-1) p a_H)
    # with p = 3 - 2s; a cutoff in xi once returned +2.866e-4 here for
    # -7.439e-6 (span 200, s = 0.25).  The float fbm_pairing_time is no
    # oracle at this accuracy: its four-term differences of |x|^p cancel,
    # by 2.2e-8 of the norm product at span 200, s = -0.25
    mpmath = pytest.importorskip("mpmath")
    phi = TestFunction.from_samples([0.0, 0.3, 0.7, 1.0], [1.0, -0.4])
    psi = TestFunction.hat(span - 0.5, 0.5)

    def exact(f, g):
        with mpmath.workdps(50):
            hh = mpmath.mpf(0.5) - mpmath.mpf(s)
            p = 2 * hh + 2
            a_h = mpmath.sin(mpmath.pi * hh) * mpmath.gamma(1 + 2 * hh)
            return float(sum(w * d**p for d, w in _mp_cross_spectrum(f, g, mpmath)) / (2 * (p - 1) * p * a_h))

    norms = math.sqrt(exact(phi, phi) * exact(psi, psi))
    assert abs(sobolev_inner(phi, psi, s) - exact(phi, psi)) <= 1e-9 * norms


@pytest.mark.parametrize("s", [-0.49, 0.0, 0.49])
def test_sobolev_inner_of_pair_orthogonal_by_symmetry(s):
    # an even and an odd function: the integrand cancels to round-off, which
    # the doubling checks must not read as an unresolved rule
    phi = TestFunction.hat(0.0, 1.0)
    psi = TestFunction.from_samples([-1.0, -0.3, 0.0, 0.3, 1.0], [-1.0, 0.0, 1.0])
    assert abs(sobolev_inner(phi, psi, s)) <= 1e-12 * sobolev_norm(phi, s) * sobolev_norm(psi, s)


def test_sobolev_inner_of_zero_function():
    zero = TestFunction.from_samples([0.0, 1.0, 2.0], [0.0])
    assert sobolev_inner(zero, TestFunction.hat(0.5, 1.0), 0.25) == 0.0


def test_pairing_identity_on_pairing_suite():
    # the 40 products behind the pairing-identity gate, to the time-domain route
    for phi, psi in acceptance._pairing_suite():
        for h in (0.25, 0.4, 0.6, 0.75):
            assert pairing_identity_check(phi, psi, h) <= 1e-11


def test_commands_import_no_quadrature_optimizer_or_scipy_fft():
    # in a fresh interpreter (this module imports quad itself): the dual
    # Grams, sobolev_inner and a thm21 command load neither scipy.integrate
    # nor the scipy.optimize it drags in, nor scipy.fft
    src = str(Path(sobolev.__file__).resolve().parents[1])
    code = """
import contextlib, io, sys
import fbmlocal
from fbmlocal import acceptance, cli
fbmlocal.r_h_dual_gram(0.7, n=64)
fbmlocal.lemma22_dual_norm(2.0, 0.25, 2.0, 16.0, 64)
phi, psi = acceptance._pairing_suite()[-1]
fbmlocal.sobolev_inner(phi, psi, 0.25)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["thm21", "--H", "0.75"]) == 0
print(sorted(m for m in ("scipy.integrate", "scipy.optimize", "scipy.fft") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_a_h_values():
    assert a_h_constant(0.5) == 1.0
    assert a_h_constant(3 / 4) == pytest.approx(math.sin(0.75 * math.pi) * math.gamma(2.5), rel=1e-14)
    assert a_h_constant(3 / 4) == pytest.approx(0.93998, abs=1e-5)
    assert a_h_constant(1e-6) < 1e-4
    assert a_h_constant(1.0 - 1e-6) < 1e-4
    for h in np.linspace(0.01, 0.99, 25):
        assert a_h_constant(h) > 0.0


def test_constants_and_pairing_use_the_kernels_hurst_guard():
    # 1e-10 and 1 - 1e-10 lie in (0, 1) but outside kernels.check_hurst
    hat = TestFunction.hat(0.0, 1.0)
    calls = (a_h_constant, r_h_constant, r_h_spectral, lambda h: fbm_pairing_time(hat, hat, h))
    for call in calls:
        for bad in (0.0, 1.0, 1e-10, 1.0 - 1e-10):
            with pytest.raises(ValueError, match="Hurst index"):
                call(bad)


def test_indicator_norm_against_quadrature():
    # |chi_hat|^2 = (1 - cos xi) / (pi xi^2), integrated against |xi|^{2s};
    # beyond the cutoff the non-oscillatory 1/(pi xi^{2-2s}) piece still
    # carries mass and is added in closed form, the cosine piece is
    # O(cutoff^{2s-2}) and ignored
    cutoff = 400.0
    for s in (-0.2, 0.15):
        head = 2.0 * quad(
            lambda x: (1.0 - math.cos(x)) / (math.pi * x * x) * x ** (2 * s),
            0.0,
            cutoff,
            limit=800,
        )[0]
        tail = 2.0 * cutoff ** (2 * s - 1.0) / (math.pi * (1.0 - 2.0 * s))
        assert indicator_sq_norm(s) == pytest.approx(head + tail, rel=1e-4)
    assert indicator_sq_norm(0.0) == pytest.approx(1.0, rel=1e-10)


def _mp_indicator_sq_norm(s, mpmath):
    # (2/pi) integral over (0, inf) of (1 - cos x) x^(2s-2): on [0, 1] with
    # x = u^(1/(1+2s)), which makes the integrand bounded; beyond 1 the
    # x^(2s-2) part in closed form less the oscillatory cosine part
    s = mpmath.mpf(s)
    beta = 1 / (1 + 2 * s)
    head = mpmath.quad(lambda u: 2 * mpmath.sin(u**beta / 2) ** 2 * u ** (-2 * beta) * beta, [0, 1])
    osc = mpmath.quadosc(lambda x: mpmath.cos(x) * x ** (2 * s - 2), [1, mpmath.inf], omega=1)
    return 2 / mpmath.pi * (head + 1 / (1 - 2 * s) - osc)


@pytest.mark.parametrize("s", [-0.49, -0.25, -1e-6, 0.0, 1e-6, 0.25, 0.49])
def test_indicator_norm_closed_form_against_30_digit_quadrature(s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = float(_mp_indicator_sq_norm(s, mpmath))
    assert indicator_sq_norm(s) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_r_h_spectral_values():
    assert r_h_spectral(0.5) == 0.0
    assert r_h_spectral(0.75) == pytest.approx(0.5984134206021491, rel=0.0, abs=1e-14)
    assert r_h_constant(0.5) == 0.0
    for h in (0.1, 0.3, 0.7, 0.9):
        assert r_h_spectral(h) > 0.0


def test_pairing_brownian_disjoint():
    phi = TestFunction.hat(0.0, 0.5)
    psi = TestFunction.hat(3.0, 0.5)
    assert abs(fbm_pairing_time(phi, psi, 0.5)) < 1e-12
    assert abs(fbm_pairing_spectral(phi, psi, 0.5)) < 1e-8


def test_pairing_identity_examples():
    phi = TestFunction.hat(0.5, 0.5)  # support [0, 1]
    psi = TestFunction.hat(2.5, 0.5)  # support [2, 3]
    assert pairing_identity_check(phi, psi, 0.75) <= 1e-3
    assert pairing_identity_check(phi, phi, 0.3) <= 1e-3


def test_lemma22_dual_norm_decreasing_in_k():
    vals = [lemma22_dual_norm(2.0, 0.25, k, truncation_t=16.0, n=64) for k in (2.0, 4.0, 8.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def _hats(pts):
    return [TestFunction.hat(center=p, halfwidth=pts[1] - pts[0]) for p in pts[1:-1]]


@pytest.mark.parametrize("s", [-0.25, 0.25])
def test_lemma22_gram_row_matches_spectral_quadrature(s):
    # the exact time-domain row against the independent spectral oracle
    pts = np.linspace(-8.0, 0.0, 18)
    hats = _hats(pts)
    want = [sobolev_inner(hats[0], hat, s) for hat in hats]
    np.testing.assert_allclose(_hat_gram_row(pts, s), want, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("h", [0.05, 0.25, 0.75, 0.95])
def test_lemma22_gram_row_matches_50_digit_oracle(h):
    # the hat row is 0.5 Delta^4 |j|^p dx^p / (dx^2 (p-1) p a_H), p = 2H + 2;
    # far entries need the lattice series: summed rectangle by rectangle
    # they lose up to 1.6e-4 relative to cancellation
    mpmath = pytest.importorskip("mpmath")
    lags = [0, 1, 2, 3, 4, 17, 255, 1023]
    pts = np.linspace(-64.0, 0.0, 1026)
    got = _hat_gram_row(pts, 0.5 - h)
    with mpmath.workdps(50):
        hh = mpmath.mpf(0.5) - mpmath.mpf(0.5 - h)
        p = 2 * hh + 2
        dx = mpmath.mpf(pts[1]) - mpmath.mpf(pts[0])
        a_h = mpmath.sin(mpmath.pi * hh) * mpmath.gamma(1 + 2 * hh)
        stencil = {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1}
        for j in lags:
            delta4 = sum(w * abs(mpmath.mpf(j + i)) ** p for i, w in stencil.items()) / 2
            want = delta4 * dx**p / (dx**2 * (p - 1) * p * a_h)
            assert abs(float((got[j] - want) / want)) <= 1e-13, (j, h)


@pytest.mark.parametrize("alpha, s, k", [(2.0, 0.25, 2.0), (1.5, -0.25, 8.0), (3.0, 0.45, 4.0), (1.2, -0.45, 2.0)])
def test_lemma22_dual_norm_matches_dense_cholesky(alpha, s, k):
    # oracle: the dense Toeplitz Gram of the same row, Cholesky-solved
    from scipy.linalg import cho_factor, cho_solve, toeplitz

    pts = np.linspace(-16.0, 0.0, 66)
    w = _hat_pairings(alpha, k, pts)
    dense = math.sqrt(w @ cho_solve(cho_factor(toeplitz(_hat_gram_row(pts, s)), lower=True), w))
    assert lemma22_dual_norm(alpha, s, k, 16.0, 64) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_lemma22_pairing_vector_matches_quadrature(alpha):
    k = 3.0
    pts = np.linspace(-8.0, 0.0, 18)
    want = [
        quad(lambda x: hat(x) * (k - x) ** (-alpha), *hat.support(), epsabs=0.0, epsrel=1e-13)[0]
        for hat in _hats(pts)
    ]
    np.testing.assert_allclose(_hat_pairings(alpha, k, pts), want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("alpha, t, n", [(2.0, 128.0, 256), (1.5, 64.0, 512), (1.5, 128.0, 1024)])
def test_lemma22_pairing_vector_matches_50_digit_oracle(alpha, t, n):
    # the gate protocols and protocol 2's 2T/2n twin: the three-term second
    # difference of G lost up to 1.3e-9 relative here to cancellation
    mpmath = pytest.importorskip("mpmath")
    pts = np.linspace(-t, 0.0, n + 2)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        dx = mpmath.mpf(t) / (n + 1)

        def g(u):
            return -mpmath.log(u) if alpha == 2.0 else u ** (2 - a) / ((1 - a) * (2 - a))

        for k in (2.0, 4.0, 8.0, 16.0, 32.0):
            got = _hat_pairings(alpha, k, pts)
            for j in range(1, n + 1):
                u = k + t - j * dx
                want = (g(u + dx) - 2 * g(u) + g(u - dx)) / dx
                assert abs(float((got[j - 1] - want) / want)) <= 1e-13, (k, j)


def test_lemma22_gate_values():
    # the two protocols of the sobolev-scaling check, at the ends of its k schedule
    assert lemma22_dual_norm(2.0, 0.25, 2.0, 128.0, 256) == pytest.approx(0.22744319800215002, rel=1e-6)
    assert lemma22_dual_norm(1.5, -0.25, 32.0, 64.0, 512) == pytest.approx(0.00846172415384053, rel=1e-6)


def test_sobolev_scaling_builds_each_dual_norm_once(monkeypatch):
    # 2 protocols x 5 k at T and at 2T; the base norms serve both the fit
    # and the shift, which must equal the ones computed from the stand-in
    calls = []

    def value(alpha, s, k, truncation_t, n):
        return k ** (0.5 + s - alpha) * (1.0 + math.sqrt(k) / truncation_t)

    def fake(alpha, s, k, truncation_t=64.0, n=128):
        calls.append((alpha, s, k, truncation_t, n))
        return value(alpha, s, k, truncation_t, n)

    monkeypatch.setattr(sobolev, "lemma22_dual_norm", fake)
    monkeypatch.setattr(acceptance, "lemma22_dual_norm", fake)
    _, detail = acceptance.check_sobolev_scaling()
    assert len(calls) == len(set(calls)) == 20
    ks = (2.0, 4.0, 8.0, 16.0, 32.0)
    gaps, shifts = [], []
    for alpha, s, t, n in ((2.0, 0.25, 128.0, 256), (1.5, -0.25, 64.0, 512)):
        base = [value(alpha, s, k, t, n) for k in ks]
        doubled = [value(alpha, s, k, 2.0 * t, 2 * n) for k in ks]
        fit = ExponentFit.least_squares(ks, base, theory=0.5 + s - alpha)
        gaps.append(fit.slope - fit.theory_slope)
        shifts.append(max(abs(v2 - v1) / v1 for v1, v2 in zip(base, doubled)))
    assert f"decay gaps {gaps[0]:+.4f}, {gaps[1]:+.4f} " in detail
    assert f"2T shift worst {shifts[0]:.2%}, {shifts[1]:.2%} " in detail


def test_lemma22_dual_norm_guards():
    with pytest.raises(ValueError, match="k must be at least 2"):
        lemma22_dual_norm(2.0, 0.25, 1.5)
    with pytest.raises(ValueError, match="alpha > 1/2 \\+ s"):
        lemma22_dual_norm(0.75, 0.25, 2.0)
    with pytest.raises(ValueError, match="alpha = 1"):
        lemma22_dual_norm(1.0, -0.25, 2.0)
