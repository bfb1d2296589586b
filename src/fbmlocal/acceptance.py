"""Acceptance suite: one named check per quantitative target.

Each check returns (passed, detail) with the measured numbers in the
detail string, so failures carry their evidence. The registry is shared
by the command-line `check-all` and the test suite; tolerances live
here, next to the checks, not in the callers.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from fbmlocal.kernels import IncrementBasis, gram, cross_gram
from fbmlocal.geometry import (
    CanonicalSpectrum,
    canonical_correlations,
    cos_angle,
    mutual_information_det,
    mutual_information_gy,
)
from fbmlocal.sobolev import (
    TestFunction,
    a_h_constant,
    lemma22_dual_norm,
    pairing_identity_check,
    sobolev_norm,
)
from fbmlocal.experiments import (
    DEFAULT_EPS,
    ExponentFit,
    adjacency_divergence,
    levy2d_scan,
    local_independence_scan,
    past_future_report,
    theorem21_check,
    theorem22_check,
)
from fbmlocal import sampler

__all__ = ["CheckResult", "CHECKS", "FAMILIES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# the three two-window checks take no arguments and are run one at a time
# (check-all, the benchmark), so the reports they share live for the process
@functools.cache
def _thm21_report(h):
    """theorem21_check(h) at its defaults, built once per H, with the wall
    time of that build; a later hit returns the build's time, not its own."""
    t0 = time.perf_counter()
    rep = theorem21_check(h)
    return rep, time.perf_counter() - t0


def check_window_angle_rate():
    """cos slope vs 2-2H within 0.05 at unit window separation; each
    report's build takes under 10 s."""
    parts, ok = [], True
    for h in (0.2, 0.25, 0.7, 0.75, 0.8):
        rep, took = _thm21_report(h)
        gap = rep.fit_cos.slope - rep.fit_cos.theory_slope
        ok &= abs(gap) <= 0.05 and took < 10.0
        parts.append(f"H={h}:{gap:+.4f}({took:.1f}s)")
    return ok, "slope-theory " + "  ".join(parts) + " tol 0.05, <10s each"


def check_window_mi_rate():
    """MI slope vs 4-4H within 0.10 on the same scans."""
    parts, ok = [], True
    for h in (0.2, 0.25, 0.7, 0.75, 0.8):
        rep, _ = _thm21_report(h)
        gap = rep.fit_mi.slope - rep.fit_mi.theory_slope
        ok &= abs(gap) <= 0.10
        parts.append(f"H={h}:{gap:+.4f}")
    return ok, "slope-theory " + "  ".join(parts) + " tol 0.10"


def check_leading_constant():
    """Extrapolated prefactor vs the exact r_H (5%), and MI vs cos^2/2 at
    the smallest stable eps (5%)."""
    parts, ok = [], True
    for h in (0.25, 0.75):
        rep, _ = _thm21_report(h)
        const_ok = rep.r_h_rel_gap <= 0.05 and not rep.constant_inconclusive
        ratio_ok = abs(rep.mi_cos_ratio - 1.0) <= 0.05
        ok &= const_ok and ratio_ok
        parts.append(
            f"H={h}: extrap {rep.r_h_extrapolated:.4f} vs exact r_H {rep.r_h_theory:.4f} "
            f"(gap {rep.r_h_rel_gap:.1%}, dual-gram route {rep.r_h_dual_gram:.4f}); "
            f"MI/(cos^2/2)-1 = {rep.mi_cos_ratio - 1.0:+.4f}"
        )
    return ok, "  ".join(parts) + " | tol 5% each clause"


def check_past_window_rates():
    """cos slope vs 1-H (0.05) and MI slope vs 2-2H (0.10), 2T-stable."""
    parts, ok = [], True
    for h in (0.25, 0.75):
        rep = theorem22_check(h)
        gc = rep.fit_cos.slope - rep.fit_cos.theory_slope
        gm = rep.fit_mi.slope - rep.fit_mi.theory_slope
        ok &= abs(gc) <= 0.05 and abs(gm) <= 0.10
        ok &= rep.truncation_sensitivity < 0.02
        parts.append(f"H={h}: cos{gc:+.4f} mi{gm:+.4f} sens {rep.truncation_sensitivity:.1e}")
    return ok, "  ".join(parts) + " | tol 0.05/0.10, sens<0.02"


def check_brownian_exactness():
    """H=1/2 disjoint intervals: cos and MI vanish to 1e-10."""
    table = local_independence_scan(0.5, 0.0, 1.0, DEFAULT_EPS)
    worst_cos = max(r.cos for r in table.rows)
    worst_mi = max(r.mi for r in table.rows)
    rng = np.random.default_rng(414213)
    for _ in range(25):
        gap = rng.uniform(0.05, 2.0)
        la, lb = rng.uniform(0.1, 3.0, size=2)
        a = IncrementBasis.from_points(np.sort(rng.uniform(-la, 0.0, size=6)) - gap / 2)
        b = IncrementBasis.from_points(np.sort(rng.uniform(0.0, lb, size=6)) + gap / 2)
        spec = canonical_correlations(gram(a, 0.5), gram(b, 0.5), cross_gram(a, b, 0.5))
        mi = mutual_information_gy(spec).value
        worst_cos = max(worst_cos, cos_angle(spec))
        worst_mi = max(worst_mi, mi)
    ok = worst_cos <= 1e-10 and worst_mi <= 1e-10
    return ok, f"worst cos {worst_cos:.2e}, worst MI {worst_mi:.2e} over scan + 25 random configs, tol 1e-10"


def check_mi_route_equivalence():
    """Spectrum route vs determinant route on 100 random instances."""
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(100):
        na, nb = rng.integers(1, 11, size=2)  # joint dimension up to 20
        d = na + nb
        f = rng.standard_normal((d, d + 5))
        j = f @ f.T / (d + 5) + 1e-3 * np.eye(d)
        ga, gb, c = j[:na, :na], j[na:, na:], j[:na, na:]
        spec = canonical_correlations(ga, gb, c)
        gy = mutual_information_gy(spec).value
        det = mutual_information_det(ga, gb, c)
        worst = max(worst, abs(gy - det) / max(abs(det), 1e-300))
    return worst <= 1e-8, f"worst relative gap {worst:.2e} over 100 instances, tol 1e-8"


def check_mi_bound_sandwich():
    """HS lower <= MI <= HS upper on scan rows (the H = 0.7 report's
    local_independence_scan(0.7, 0, 1, DEFAULT_EPS)) and random spectra."""
    table = _thm21_report(0.7)[0].table
    ok = True
    for r in table.rows:
        ok &= r.hs_lower <= r.mi <= r.hs_upper
    rng = np.random.default_rng(161803)
    worst_slack = math.inf
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        sig = np.sort(rng.uniform(0.0, 0.9, size=k))[::-1]
        spec = CanonicalSpectrum(sigmas=sig, rank_a=k, rank_b=k, cond=1.0, ill_conditioned=False)
        mi = mutual_information_gy(spec)
        ok &= mi.lower <= mi.value <= mi.upper
        worst_slack = min(worst_slack, mi.value - mi.lower, mi.upper - mi.value)
    return ok, f"sandwich held on {len(table.rows)} scan rows + 1000 spectra (min slack {worst_slack:.2e})"


def _pairing_suite():
    rng = np.random.default_rng(577215)
    pairs = []
    for _ in range(7):
        c1, c2 = rng.uniform(-1.5, 1.5, size=2)
        w1, w2 = rng.uniform(0.2, 1.2, size=2)
        pairs.append((TestFunction.hat(c1, w1), TestFunction.hat(c2, w2)))
    for _ in range(3):
        n1, n2 = rng.integers(4, 8, size=2)
        nodes1 = np.sort(rng.uniform(-2.0, 2.0, size=n1))
        nodes2 = np.sort(rng.uniform(-2.0, 2.0, size=n2))
        pairs.append((
            TestFunction.from_samples(nodes1, rng.uniform(-1.0, 1.0, size=n1 - 2)),
            TestFunction.from_samples(nodes2, rng.uniform(-1.0, 1.0, size=n2 - 2)),
        ))
    return pairs


def check_pairing_identity():
    """Time-domain vs frequency-domain pairing on the fixed 10-pair suite."""
    hs = (0.25, 0.4, 0.6, 0.75)
    worst = max(float(np.max(pairing_identity_check(phi, psi, hs))) for phi, psi in _pairing_suite())
    exact_one = a_h_constant(0.5) == 1.0
    ok = worst <= 1e-3 and exact_one
    return ok, f"worst relative discrepancy {worst:.2e} (tol 1e-3); a_H(1/2)==1: {exact_one}"


def check_sobolev_scaling():
    """Dilation law k^(2s-1) to 1e-6; half-line decay exponents to 0.05.

    The detail also reports, per protocol, the worst relative move of a
    dual norm over the k schedule when T doubles; above 1% the fit is
    truncation-sensitive.  That figure is reported, not gated.
    """
    phi = TestFunction.from_samples([-1.0, -0.3, 0.4, 1.1], [0.8, -0.5])
    s = np.array([-0.25, 0.0, 0.25])
    base = sobolev_norm(phi, s) ** 2
    worst = 0.0
    for k in (2.0, 4.0, 8.0):
        got = sobolev_norm(phi.dilated(k), s) ** 2
        worst = max(worst, float(np.max(np.abs(got / (k ** (2.0 * s - 1.0) * base) - 1.0))))
    # refined protocols (alpha, s, T, n): the first reaches T = 512 at the
    # spacing T = 128, n = 256 had, where truncation moved its norms 3.85%
    # and its decay gap came from truncation and spacing errors cancelling;
    # the second is spacing-limited.  Each base dual norm is built once and
    # serves both the decay fit and the 2T shift
    ks = (2.0, 4.0, 8.0, 16.0, 32.0)
    gaps, shifts = [], []
    for alpha, s, t, n in ((2.0, 0.25, 512.0, 1024), (1.5, -0.25, 64.0, 512)):
        base = [lemma22_dual_norm(alpha, s, k, t, n) for k in ks]
        fit = ExponentFit.least_squares(ks, base, theory=0.5 + s - alpha)
        gaps.append(fit.slope - fit.theory_slope)
        doubled = [lemma22_dual_norm(alpha, s, k, 2.0 * t, 2 * n) for k in ks]
        shifts.append(max(abs(v2 - v1) / v1 for v1, v2 in zip(base, doubled)))
    ok = worst <= 1e-6 and all(abs(g) <= 0.05 for g in gaps)
    return ok, (
        f"dilation worst rel {worst:.2e} (tol 1e-6); decay gaps {gaps[0]:+.4f}, {gaps[1]:+.4f} (tol 0.05); "
        f"2T shift worst {shifts[0]:.2%}, {shifts[1]:.2%} (not gated; >1% is truncation-sensitive)"
    )


def check_adjacent_divergence():
    """Adjacent-interval MI grows without bound under refinement."""
    rep = adjacency_divergence(0.8)
    ok = rep.strictly_increasing
    ok &= rep.min_doubling_growth >= 0.02
    ok &= rep.eps_invariance_gap <= 1e-9
    return ok, (
        f"MI increasing: {rep.strictly_increasing}, min growth/doubling "
        f"{rep.min_doubling_growth:.1%} (need >=2%), eps-invariance gap {rep.eps_invariance_gap:.1e} (tol 1e-9)"
    )


def check_past_future_angle():
    """Past-future cos stays below 1, <1% drift under doubling n and T."""
    parts, ok = [], True
    for h in (0.2, 0.8):
        rep = past_future_report(h)
        ok &= rep.margin > 0.0
        ok &= rep.drift_n < 0.01 and rep.drift_t < 0.01
        parts.append(f"H={h}: value {rep.value:.4f} drift_n {rep.drift_n:.2%} drift_T {rep.drift_t:.2%} margin {rep.margin:.3f}")
    return ok, "  ".join(parts) + " | drift tol 1%"


def check_levy2d_rate():
    """Planar ball-to-ball cos slope vs 2-2H within 0.15."""
    parts, ok = [], True
    for h in (0.25, 0.75):
        rep = levy2d_scan(h)
        gap = rep.fit_cos.slope - rep.fit_cos.theory_slope
        ok &= abs(gap) <= 0.15
        parts.append(f"H={h}:{gap:+.4f}")
    return ok, "slope-theory " + "  ".join(parts) + " tol 0.15 (9x9 lattice)"


def check_invariance_suite():
    """Stationarity, self-similarity, and MI swap symmetry to 1e-10; the
    base rows are the H = 0.7 report's scan."""
    lam = 3.0
    rows_b = _thm21_report(0.7)[0].table.rows
    rows_sh = local_independence_scan(0.7, math.pi, math.pi + 1.0, DEFAULT_EPS).rows
    rows_sc = local_independence_scan(0.7, 0.0, lam, tuple(lam * e for e in DEFAULT_EPS)).rows
    worst = 0.0
    for rb, rs, rc in zip(rows_b, rows_sh, rows_sc):
        worst = max(worst, abs(rb.cos - rs.cos), abs(rb.mi - rs.mi))
        worst = max(worst, abs(rb.cos - rc.cos), abs(rb.mi - rc.mi))
    rng = np.random.default_rng(101010)
    worst_swap = 0.0
    for _ in range(20):
        a = IncrementBasis.from_points(np.sort(rng.uniform(0.0, 1.0, size=7)))
        b = IncrementBasis.from_points(np.sort(rng.uniform(2.0, 3.5, size=7)))
        ga, gb, c = gram(a, 0.7), gram(b, 0.7), cross_gram(a, b, 0.7)
        worst_swap = max(worst_swap, abs(mutual_information_det(ga, gb, c) - mutual_information_det(gb, ga, c.T)))
    ok = worst <= 1e-10 and worst_swap <= 1e-10
    return ok, f"worst row change {worst:.2e} (shift pi, scale 3), worst swap gap {worst_swap:.2e}, tol 1e-10"


def check_sampler_consistency():
    """Lag-1 correlation within 3 SE; plug-in MI within bootstrap spread."""
    parts, ok = [], True
    for h in (0.25, 0.75):
        target = 2.0 ** (2.0 * h - 1.0) - 1.0
        draw = sampler.sample_fbm_increments(4096, 1.0, h, 256, seed=11)
        est, se = sampler.lag1_increment_correlation(draw)
        del draw  # free each draw before the next one is made
        z = abs(est - target) / se
        ok &= z <= 3.0
        parts.append(f"H={h}: lag1 {est:+.5f} vs {target:+.5f} |z|={z:.2f}")
    emps = []
    ana = None
    for seed in range(20, 28):
        draw = sampler.sample_fbm_increments(8, 1.0, 0.75, 100_000, seed=seed)
        emp, ana, _ = sampler.empirical_mi_check(draw, split=4)
        del draw
        emps.append(emp)
    spread = float(np.std(emps, ddof=1))
    gap = abs(float(np.mean(emps)) - ana)
    ok &= gap <= 3.0 * spread
    parts.append(f"MI gap {gap:.2e} vs 3x spread {3 * spread:.2e} (8 seeds)")
    return ok, "  ".join(parts)


CHECKS = {
    "two-window-angle-rate": check_window_angle_rate,
    "two-window-mi-rate": check_window_mi_rate,
    "leading-constant": check_leading_constant,
    "past-window-rates": check_past_window_rates,
    "brownian-exactness": check_brownian_exactness,
    "mi-route-equivalence": check_mi_route_equivalence,
    "mi-bound-sandwich": check_mi_bound_sandwich,
    "pairing-identity": check_pairing_identity,
    "sobolev-scaling": check_sobolev_scaling,
    "adjacent-divergence": check_adjacent_divergence,
    "past-future-angle": check_past_future_angle,
    "levy2d-rate": check_levy2d_rate,
    "invariance-suite": check_invariance_suite,
    "sampler-consistency": check_sampler_consistency,
}


# the check families run_checks accepts next to substrings of check names
FAMILIES = {
    "thm21": ("two-window-angle-rate", "two-window-mi-rate", "leading-constant"),
    "thm22": ("past-window-rates",),
    "adjacency": ("adjacent-divergence",),
    "pastfuture": ("past-future-angle",),
    "levy2d": ("levy2d-rate",),
    "sample": ("sampler-consistency",),
    "sobolev": ("sobolev-scaling", "pairing-identity"),
}


def run_checks(only: str | None = None) -> list:
    """Run every check, or those of the family only names (in the family's
    order), or else those whose names contain only."""
    names = FAMILIES.get(only) or [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no check matches {only!r}; have {', '.join(CHECKS)}")
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            passed, detail = CHECKS[name]()
        except Exception as exc:  # a crash is a failure with its reason
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        # individual checks may hand back numpy bools; normalize here so
        # downstream serialization never sees a numpy scalar
        out.append(CheckResult(name=name, passed=bool(passed), detail=detail, seconds=time.perf_counter() - t0))
    return out
