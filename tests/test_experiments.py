"""Scan harness: grids, fits, reports."""

import math
import re
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from fbmlocal import experiments
from fbmlocal.experiments import (
    ExponentFit,
    ScanRow,
    ScanTable,
    adjacency_divergence,
    adjacency_mi_table,
    complement_window_scan,
    fit_exponent,
    graded_points,
    grading_depth,
    levy2d_scan,
    local_independence_scan,
    past_future_angle,
    past_future_report,
    past_window_scan,
    r_h_dual_gram,
    theorem21_check,
    theorem22_check,
    window_row,
)
from fbmlocal.geometry import CanonicalSpectrum, _pivoted_factor
from fbmlocal.kernels import IncrementBasis, TimeGrid, cross_gram, gram
from fbmlocal.sobolev import r_h_constant

EPS4 = (0.125, 0.0625, 0.03125, 0.015625)


def test_scan_config_validation():
    for args, message in [
        ((0.7, 0.0, 0.0, (0.1,)), "t1 and t2 must differ"),
        ((0.7, 0.0, 1.0, (0.1, 0.2)), "eps schedule must be strictly decreasing"),
        ((0.7, 0.0, 1.0, (0.6,)), "max eps must keep the windows disjoint: eps < |t1-t2|/2"),
        ((0.7, 0.0, 1.0, (0.1,), 3), "grid_n must be at least 4"),
        ((1.2, 0.0, 1.0, (0.1,)), "Hurst index must lie in (1e-09, 0.999999999), got 1.2"),
    ]:
        with pytest.raises(ValueError) as err:
            local_independence_scan(*args)
        assert str(err.value) == message


_EPS_ENTRY_POINTS = {
    "scan": lambda eps: local_independence_scan(0.7, 0.0, 1.0, eps),
    "past-window": lambda eps: past_window_scan(0.7, 1.0, eps=eps),
    "complement": lambda eps: complement_window_scan(0.7, eps=eps),
    "levy2d": lambda eps: levy2d_scan(0.7, eps=eps),
}


@pytest.mark.parametrize("entry", list(_EPS_ENTRY_POINTS))
@pytest.mark.parametrize("eps, message", [
    ((), "eps schedule is empty"),
    ((0.125, 0.0625, -0.03125), "eps values must be positive"),
    ((0.0625, 0.125), "eps schedule must be strictly decreasing"),
    ((0.125, math.nan), "eps values must be finite, got nan"),
    ((math.inf, 0.125), "eps values must be finite, got inf"),
], ids=["empty", "non-positive", "not-decreasing", "nan", "inf"])
def test_scans_share_the_eps_rule(entry, eps, message, monkeypatch):
    # the schedule is rejected before any row is built
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(experiments, "_make_row", no_rows)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _EPS_ENTRY_POINTS[entry](eps)


def _skip_rule_rows(family, size, monkeypatch):
    # the rows a scan family builds at one eps; its fits are stubbed out so
    # that skipped rows reach the table
    monkeypatch.setattr(experiments, "fit_exponent", lambda *a, **k: SimpleNamespace(slope=0.0))
    if family == "scan":
        return local_independence_scan(0.7, 0.0, 1.0, (0.125,), size).rows
    if family == "past-window":
        return past_window_scan(0.7, 1.0, eps=(0.125,), grid_n=size).rows
    if family == "complement":
        rep = complement_window_scan(0.7, eps=(0.125,), grid_n=size)
        return rep.table.rows + rep.table_2t.rows
    return levy2d_scan(0.7, eps=(0.125,), grid_per_axis=size).table.rows


@pytest.mark.parametrize("family, size, threshold", [
    ("scan", 8, 4), ("scan", 9, 5),
    ("past-window", 8, 4), ("past-window", 9, 5),
    ("complement", 8, 4), ("complement", 9, 5),
    ("levy2d", 9, 24),  # 48 lattice points per ball
])
@pytest.mark.parametrize("side", ["a", "b"])
def test_skip_rule_at_its_threshold(family, size, threshold, side, monkeypatch):
    # window scans skip a row below grid_n/2 kept directions on either side,
    # levy2d below half the smaller ball's increment count
    for rank, skipped in ((threshold - 1, True), (threshold, False)):
        def spectrum(fa, fb, c):
            ranks = {"rank_a": c.shape[0], "rank_b": c.shape[1], f"rank_{side}": rank}
            return CanonicalSpectrum(sigmas=np.array([0.5]), cond=1.0, ill_conditioned=False, **ranks)

        monkeypatch.setattr(experiments, "_whitened_spectrum", spectrum)
        rows = _skip_rule_rows(family, size, monkeypatch)
        assert [r.skipped for r in rows] == [skipped] * len(rows)
        assert all(math.isnan(r.cos) == skipped for r in rows)


def test_overshooting_row_is_flagged_without_a_warning(monkeypatch):
    # the near-parallel pair of test_ill_conditioned_warning against itself:
    # a row reports the overshoot in its flag alone
    ga = np.array([[1.0, 1.0 - 2e-10], [1.0 - 2e-10, 1.0]])
    side = (None, _pivoted_factor(ga))
    monkeypatch.setattr(experiments, "cross_gram", lambda a, b, h: ga)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = experiments._make_row(0.125, side, side, 0.75)
    assert row.ill_conditioned and (row.rank_a, row.rank_b) == (2, 2)
    assert row.cos == 1.0


def test_shared_window_has_infinite_information():
    # one window against itself shares every increment: sigma_1 = 1, and
    # the information and its HS upper bound are the float inf
    side = experiments._window(0.0, 0.125, 0.75, 8)
    row = experiments._make_row(0.125, side, side, 0.75)
    assert row.cos == 1.0
    assert row.mi == row.hs_upper == math.inf


def test_graded_points_shape():
    pts = graded_points(-4.0, 0.0, 65, decades=6.0, toward="b")
    assert pts[0] == -4.0 and pts[-1] == 0.0
    assert np.all(np.diff(pts) > 0.0)
    cells = np.diff(pts)
    # finest cell at the graded end, span of about 6 decades
    assert cells[-1] < cells[0]
    assert cells[-1] == pytest.approx(cells[0] * 10.0**-6.0, rel=1e-6)
    mirrored = graded_points(0.0, 4.0, 65, decades=6.0, toward="a")
    assert np.allclose(mirrored, -pts[::-1], atol=1e-15)


def test_graded_points_validation():
    with pytest.raises(ValueError):
        graded_points(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        graded_points(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        graded_points(0.0, 1.0, 8, toward="c")


def test_grading_depth_rule():
    # log2 budget when conditioning allows, conditioning cap otherwise
    assert grading_depth(0.2, 64) == 11.0
    assert grading_depth(0.8, 64) == 6.0
    assert grading_depth(0.8, 1024) == 6.0
    assert grading_depth(0.95, 64) == 5.0
    with pytest.raises(ValueError):
        grading_depth(0.5, 0)


def test_brownian_scan_is_zero():
    table = local_independence_scan(0.5, 0.0, 1.0, EPS4, 16)
    for r in table.rows:
        assert r.cos <= 1e-10
        assert r.mi <= 1e-10


def test_scan_rows_sorted_and_sane():
    table = local_independence_scan(0.8, 0.0, 1.0, EPS4, 16)
    eps = [r.eps for r in table.rows]
    assert eps == sorted(eps, reverse=True)
    mi = [r.mi for r in table.rows]
    assert all(b < a for a, b in zip(mi, mi[1:]))  # decreasing toward independence
    for r in table.rows:
        assert 0.0 <= r.cos <= 1.0
        assert r.hs_lower <= r.mi <= r.hs_upper
        assert r.rank_a > 0 and r.rank_b > 0


def test_scan_stationarity_and_scaling():
    base = local_independence_scan(0.7, 0.0, 1.0, EPS4, 12)
    shifted = local_independence_scan(0.7, 5.0, 6.0, EPS4, 12)
    scaled = local_independence_scan(0.7, 0.0, 2.0, tuple(2 * e for e in EPS4), 12)
    for rb, rs, rc in zip(base.rows, shifted.rows, scaled.rows):
        assert rs.cos == pytest.approx(rb.cos, abs=1e-10)
        assert rs.mi == pytest.approx(rb.mi, abs=1e-10)
        assert rc.cos == pytest.approx(rb.cos, abs=1e-10)
        assert rc.mi == pytest.approx(rb.mi, abs=1e-10)


def _synthetic_table(slope, coeff=3.0, n=6):
    rows = []
    for k in range(n):
        eps = 2.0 ** -(3 + k)
        y = coeff * eps**slope
        rows.append(
            ScanRow(eps=eps, cos=y, mi=y, hs_lower=y / 2, hs_upper=y, rank_a=8, rank_b=8,
                    cond=1.0, ill_conditioned=False)
        )
    return ScanTable(rows=tuple(rows), meta={"experiment": "synthetic"})


def test_fit_exponent_recovers_power_law():
    fit = fit_exponent(_synthetic_table(0.4), "cos", theory=0.4)
    assert fit.slope == pytest.approx(0.4, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.theory_gap == pytest.approx(0.0, abs=1e-12)
    assert fit.n_used == 5  # largest eps dropped


def test_fit_exponent_rejections():
    with pytest.raises(ValueError):
        fit_exponent(_synthetic_table(0.4, n=3), "cos", theory=0.4)
    bad = _synthetic_table(0.4)
    rows = list(bad.rows)
    rows[3] = ScanRow(eps=rows[3].eps, cos=math.nan, mi=math.nan, hs_lower=math.nan,
                      hs_upper=math.nan, rank_a=2, rank_b=2, cond=1.0,
                      ill_conditioned=False, skipped=True)
    with pytest.raises(ValueError):
        fit_exponent(ScanTable(rows=tuple(rows), meta={}), "cos", theory=0.4)
    with pytest.raises(ValueError):
        fit_exponent(bad, "nonsense", theory=0.0)


def test_theorem21_requires_h_off_half():
    with pytest.raises(ValueError):
        theorem21_check(0.52)


def test_theorem21_report_fields():
    rep = theorem21_check(0.75, eps=(0.125, 0.0625, 0.03125, 0.015625, 0.0078125), grid_n=32)
    assert rep.fit_cos.slope == pytest.approx(0.5, abs=0.05)
    assert rep.fit_mi.slope == pytest.approx(1.0, abs=0.1)
    assert rep.mi_cos_ratio == pytest.approx(1.0, abs=0.05)
    assert rep.r_h_extrapolated > 0.0
    d = [f.name for f in fields(rep)]
    assert set(d) >= {"fit_cos", "fit_mi", "r_h_extrapolated", "r_h_theory", "r_h_spectral", "table"}


def test_r_h_dual_gram_h_half_is_zero():
    assert r_h_dual_gram(0.5, n=64) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("h", [0.25, 0.4, 0.6, 0.75])
def test_r_h_constant_matches_dual_gram(h):
    # the dual-Gram route converges O(1/n); at n = 2048 the gap is <= 2.5e-4
    assert r_h_dual_gram(h, n=2048) == pytest.approx(r_h_constant(h), rel=1e-3)


@pytest.mark.parametrize("h", [0.2, 0.75, 0.8])
def test_r_h_dual_gram_matches_dense_cholesky(h):
    # oracle: the dense increment Gram of the same grid, Cholesky-solved
    from scipy.linalg import cho_factor, cho_solve

    n = 256
    g = gram(IncrementBasis.from_grid(TimeGrid(0.0, 1.0, n + 1)), h)
    w = np.full(n, 1.0 / n)
    m2 = w @ cho_solve(cho_factor(g, lower=True), w)
    dense = h * abs(2.0 * h - 1.0) * 2.0 ** (2.0 - 2.0 * h) * m2
    assert r_h_dual_gram(h, n=n) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("h", [0.25, 0.75])
def test_r_h_dual_gram_converges_like_one_over_n(h):
    # quadrupling n cuts the gap to the closed form ~4x (measured 3.96, 4.00)
    gap = [abs(r_h_dual_gram(h, n=n) - r_h_constant(h)) for n in (2048, 8192)]
    assert gap[1] <= gap[0] / 3.0


def test_r_h_dual_gram_rejects_bad_solves(monkeypatch):
    # both dual Grams share one guarded Toeplitz solve; hit each guard
    # through r_h_dual_gram and through lemma22_dual_norm
    from fbmlocal import experiments, kernels, sobolev

    # a negative-definite column breaks conjugate gradients down at once
    # (p'Tp < 0), leaving x = 0
    autocov = experiments.increment_autocov
    monkeypatch.setattr(experiments, "increment_autocov", lambda k, h, dt: -autocov(k, h, dt))
    with pytest.raises(np.linalg.LinAlgError, match="at H=0.7, n=64: relative residual 1, w'x 0"):
        r_h_dual_gram(0.7, n=64)
    row = sobolev._hat_gram_row
    monkeypatch.setattr(sobolev, "_hat_gram_row", lambda pts, s: -row(pts, s))
    with pytest.raises(np.linalg.LinAlgError, match="at s=0.25, T=16.0, n=64: relative residual 1, w'x 0"):
        sobolev.lemma22_dual_norm(2.0, 0.25, 2.0, 16.0, 64)
    monkeypatch.undo()

    # a solve that misses the system trips the residual guard
    solve = kernels._toeplitz_solve

    def inexact(col, w):
        x, iterations = solve(col, w)
        return 1.001 * x, iterations

    monkeypatch.setattr(kernels, "_toeplitz_solve", inexact)
    with pytest.raises(np.linalg.LinAlgError, match=r"at H=0.7, n=64: relative residual 0\.001"):
        r_h_dual_gram(0.7, n=64)
    with pytest.raises(np.linalg.LinAlgError, match=r"at s=0.25, T=16.0, n=64: relative residual 0\.001"):
        sobolev.lemma22_dual_norm(2.0, 0.25, 2.0, 16.0, 64)


@pytest.mark.parametrize("h", [0.25, 0.75])
def test_r_h_dual_gram_richardson_reaches_closed_form(h):
    # the O(1/n) bias cancels in (4 r(4n) - r(n)) / 3: measured -1.1e-7
    # relative at H = 0.25 and ~1e-9 at H = 0.75
    rich = (4.0 * r_h_dual_gram(h, n=32768) - r_h_dual_gram(h, n=8192)) / 3.0
    assert rich == pytest.approx(r_h_constant(h), rel=1e-6, abs=0.0)


def test_adjacency_h_half_zero_and_precondition():
    mi = adjacency_mi_table(0.5, 1.0, (4, 8, 16))
    assert max(mi) <= 1e-10
    with pytest.raises(ValueError):
        adjacency_divergence(0.5)
    with pytest.raises(ValueError):
        adjacency_divergence(0.8, n_schedule=(8, 4))
    for ns in ((), (8,)):
        with pytest.raises(ValueError, match=f"at least 2 grid sizes, got {len(ns)}$"):
            adjacency_divergence(0.8, n_schedule=ns)


def test_adjacency_growth_small():
    rep = adjacency_divergence(0.8, n_schedule=(4, 8, 16, 32))
    assert rep.strictly_increasing
    assert rep.eps_invariance_gap <= 1e-9


def test_adjacency_table_validates_the_whole_schedule_first(monkeypatch):
    # a bad size late in the schedule is refused before any work is done
    def no_work(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(experiments, "_partial_autocorrelations", no_work)
    with pytest.raises(ValueError, match="^grid sizes must be at least 2$"):
        adjacency_mi_table(0.8, 1.0, (4, 8, 1))
    assert adjacency_mi_table(0.8, 1.0, ()) == []


def test_adjacency_table_names_h_and_n_when_the_column_is_not_positive_definite(monkeypatch):
    # a column that is no autocovariance (|phi_11| = 1.5) is refused, never
    # turned into an MI
    monkeypatch.setattr(experiments, "increment_autocov", lambda k, h, dt: np.r_[1.0, -1.5, np.zeros(len(k) - 2)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^Durbin-Levinson recursion rejected at H=0\.7, n=8: "):
        adjacency_mi_table(0.7, 1.0, (4, 8))


@pytest.mark.parametrize("h", [0.05, 0.2, 0.8, 0.95])
def test_adjacency_table_matches_50_digit_log_determinants(h):
    # log det G_n - 0.5 log det G_2n from the exact increment Toeplitz Gram
    # (unit spacing; MI does not depend on it), Cholesky at 50 digits
    mpmath = pytest.importorskip("mpmath")
    ns = (4, 8, 16)
    with mpmath.workdps(50):
        p = 2 * mpmath.mpf(h)
        gamma = [((k + 1) ** p + abs(k - 1) ** p - 2 * mpmath.mpf(k) ** p) / 2 for k in range(2 * max(ns))]

        def logdet(m):
            chol = mpmath.cholesky(mpmath.matrix([[gamma[abs(i - j)] for j in range(m)] for i in range(m)]))
            return 2 * mpmath.fsum(mpmath.log(chol[i, i]) for i in range(m))

        want = [float(logdet(n) - logdet(2 * n) / 2) for n in ns]
    np.testing.assert_allclose(adjacency_mi_table(h, 1.0, ns), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("h", [0.2, 0.3, 0.4, 0.6, 0.8])
def test_adjacency_doubling_increment_approaches_log2_law(h):
    # MI(2n) - MI(n) -> (ln 2 / 2)(H - 1/2)^2 (ROADMAP item 4); at
    # n = 256 -> 512 the measured worst gap is 9.0e-5, at H = 0.2
    mi = adjacency_mi_table(h, 1.0, (256, 512))
    assert mi[1] - mi[0] == pytest.approx(0.5 * math.log(2.0) * (h - 0.5) ** 2, rel=0.0, abs=1e-4)


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_adjacency_doubling_increment_first_order_at_h_half(delta):
    # the adjacent-interval operator is convolution with 1/(2 cosh(t/2)) in
    # log coordinates: MI grows by 0.5 delta^2 ln 2 per doubling (measured
    # within 8e-7 relative at n = 256 -> 512)
    mi = adjacency_mi_table(0.5 + delta, 1.0, (256, 512))
    assert mi[1] - mi[0] == pytest.approx(0.5 * delta**2 * math.log(2.0), rel=1e-5, abs=0.0)


_TRUNCATION_STUDIES = {
    "thm22": lambda h: theorem22_check(h, eps=(0.125,), grid_n=8),
    "complement": lambda h: complement_window_scan(h, eps=(0.125,), grid_n=8),
}


@pytest.mark.parametrize("study", list(_TRUNCATION_STUDIES))
@pytest.mark.parametrize("move, flagged", [(0.03, True), (0.01, False)])
def test_truncation_flag_reads_the_largest_slope_move(study, move, flagged, monkeypatch):
    # the fits are stubbed: at 2T the mi and hs slopes move by `move`, the
    # cos slope by half of it, so the flag must come from the largest move
    def fit(table, column, theory, correction_order):
        at_2t = table.meta["T"] == 2.0 * experiments.DEFAULT_TRUNCATION
        return SimpleNamespace(slope=0.25 + at_2t * {"cos": 0.5, "mi": 1.0, "hs": 1.0}[column] * move)

    monkeypatch.setattr(experiments, "fit_exponent", fit)
    rep = _TRUNCATION_STUDIES[study](0.7)
    assert rep.table.meta["T"] == experiments.DEFAULT_TRUNCATION
    assert rep.table_2t.meta["T"] == 2.0 * experiments.DEFAULT_TRUNCATION
    assert rep.truncation_sensitivity == pytest.approx(move, rel=1e-12)
    assert rep.truncation_dominated is flagged


@pytest.mark.parametrize("study", list(_TRUNCATION_STUDIES))
@pytest.mark.parametrize("h", [0.5, 0.46, 0.54])
def test_truncation_studies_refuse_h_near_one_half(study, h, monkeypatch):
    # at |2H-1| < 0.1 the rates would be fitted to round-off; refused
    # before any row is built
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(experiments, "_make_row", no_rows)
    with pytest.raises(ValueError, match=r"^rate fit needs \|2H-1\| >= 0\.1$"):
        _TRUNCATION_STUDIES[study](h)


def test_past_future_brownian_zero():
    assert past_future_angle(0.5, truncation_t=8.0, n=32) <= 1e-8


def test_past_future_report_fields():
    rep = past_future_report(0.8, truncation_t=8.0, n=32)
    assert 0.0 < rep.value < 1.0
    assert rep.margin == pytest.approx(1.0 - max(rep.value, rep.value_2n, rep.value_2t))
    assert rep.drift_t <= 1e-9  # grid dilates exactly with T


def test_levy2d_brownian_small_but_fitted():
    rep = levy2d_scan(0.5, eps=(0.125, 0.0625, 0.03125, 0.015625, 0.0078125), grid_per_axis=5)
    assert rep.fit_cos.slope == pytest.approx(1.0, abs=0.2)
    for r in rep.table.rows:
        assert r.cos < 0.2


def _levy2d_sigmas(h, eps):
    # the 9x9-lattice balls at (0, 0) and (1, 0) sharing one factor, as
    # levy2d_scan whitens them
    a, f = experiments._side(experiments._ball_basis(np.array([0.0, 0.0]), eps, 9), h)
    b = experiments._ball_basis(np.array([1.0, 0.0]), eps, 9)
    return experiments._whitened_spectrum(f, f, cross_gram(a, b, h)).sigmas


@pytest.mark.parametrize("h", [0.25, 0.4, 0.75])
def test_levy2d_second_pair_ratio_is_two_h_minus_one(h):
    # the far-field Hessian of |r|^(2H) is 2H(2H-1)|r|^(2H-2) along r and
    # 2H|r|^(2H-2) across it, so the two leading sigmas are in ratio |2H-1|
    sigmas = _levy2d_sigmas(h, 2.0**-7)
    assert abs(sigmas[1] / sigmas[0] - abs(2.0 * h - 1.0)) <= 1e-3


@pytest.mark.parametrize("h", [0.25, 0.75])
def test_levy_field_in_three_dimensions_has_a_degenerate_transverse_pair(h):
    # in R^3 the two transverse gradients of the far-field Hessian give
    # sigma_1 = sigma_2 up to round-off, and the longitudinal one sigma_3
    # = |2H-1| sigma_1, on the 5x5x5-lattice balls at (0, 0, 0) and (1, 0, 0)
    eps = 2.0**-7
    a, f = experiments._side(experiments._ball_basis(np.zeros(3), eps, 5), h)
    b = experiments._ball_basis(np.array([1.0, 0.0, 0.0]), eps, 5)
    sigmas = experiments._whitened_spectrum(f, f, cross_gram(a, b, h)).sigmas
    assert (sigmas[0] - sigmas[1]) / sigmas[0] <= 1e-12
    assert abs(sigmas[2] / sigmas[0] - abs(2.0 * h - 1.0)) <= 1e-3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("grid_per_axis", [5, 9, 15])
def test_ball_basis_is_the_unit_ball_dilated(grid_per_axis, dim):
    # the ball of radius eps is c + eps times the unit ball's offsets, point
    # for point, so one factor per (H, grid_per_axis, dim) serves every eps
    unit = experiments._ball_basis(np.zeros(dim), 1.0, grid_per_axis).t
    center = np.array([0.3, -1.7, 2.9][:dim])
    for eps in (0.125, 0.07, 0.03, 2.0**-9):
        ball = experiments._ball_basis(center, eps, grid_per_axis)
        assert np.array_equal(ball.t, center + eps * unit)
        assert np.array_equal(ball.s, np.tile(center, (len(unit), 1)))


@pytest.mark.parametrize("grid_per_axis", [15, 99])
def test_ball_basis_leaves_out_the_centre_at_every_eps(grid_per_axis):
    # linspace(-eps, eps, 15) put the middle offset at 3.5e-18 for eps =
    # 0.03, so the centre itself became an increment of length 4.9e-18
    spacing = 2.0 / (grid_per_axis - 1)
    for eps in (0.3, 0.07, 0.03, 0.011):
        b = experiments._ball_basis(np.zeros(2), eps, grid_per_axis)
        assert np.min(np.linalg.norm(b.t - b.s, axis=1)) >= eps * spacing * (1.0 - 1e-12)


@pytest.mark.parametrize("h, grid_per_axis, eps", [
    (0.25, 9, experiments.DEFAULT_EPS),
    (0.5, 9, experiments.DEFAULT_EPS),
    (0.75, 9, experiments.DEFAULT_EPS),
    (0.75, 15, (0.3, 0.1, 0.07, 0.03, 0.011)),
])
def test_levy2d_shared_factor_matches_per_eps_factors(h, grid_per_axis, eps):
    # every row on the unit ball's factor scaled by eps^-H against the row
    # whose factor is made from that eps's own Gram
    for row in levy2d_scan(h, eps=eps, grid_per_axis=grid_per_axis).table.rows:
        a = experiments._side(experiments._ball_basis(np.array([0.0, 0.0]), row.eps, grid_per_axis), h)
        b = experiments._ball_basis(np.array([1.0, 0.0]), row.eps, grid_per_axis)
        want = experiments._make_row(row.eps, a, (b, a[1]), h, len(a[0]) * 0.5)
        assert (row.rank_a, row.rank_b, row.skipped, row.ill_conditioned) == (
            want.rank_a, want.rank_b, want.skipped, want.ill_conditioned)
        for field in ("cos", "mi", "cond"):
            assert getattr(row, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)


def test_levy2d_angle_at_h_half_settles_at_rate_one():
    # the planar Levy Brownian field is not white: sigma_1 / eps settles
    # at a positive constant, each step at least 10x below the last
    ratios = [_levy2d_sigmas(0.5, 2.0**-k)[0] / 2.0**-k for k in (3, 5, 7, 9)]
    steps = np.abs(np.diff(ratios))
    assert all(1.12 <= r <= 1.14 for r in ratios)
    assert np.all(steps[1:] <= steps[:-1] / 10.0)


@pytest.mark.parametrize("h", [0.25, 0.75])
def test_second_canonical_correlation_decays_at_four_minus_two_h(h):
    # one multipole order past sigma_1 ~ eps^(2-2H): sigma_2 ~ eps^(4-2H)
    eps = 2.0 ** -np.arange(4, 9)
    sigma2 = []
    for e in eps:
        (a, fa), (b, fb) = experiments._window(0.0, e, h, 64), experiments._window(1.0, e, h, 64)
        sigma2.append(experiments._whitened_spectrum(fa, fb, cross_gram(a, b, h)).sigmas[1])
    fit = ExponentFit.least_squares(eps, sigma2)
    assert fit.slope == pytest.approx(4.0 - 2.0 * h, abs=0.02)


@pytest.mark.parametrize("h", [0.25, 0.75])
def test_complement_window_hs_rate(h):
    eps = (0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
    rep = complement_window_scan(h, eps=eps, grid_n=16)
    assert rep.fit_hs.slope == pytest.approx(1.0 - h, abs=0.01)
    assert rep.truncation_sensitivity < 1e-4
    assert not rep.truncation_dominated


def test_complement_window_guards():
    with pytest.raises(ValueError, match="t1 < t < t2"):
        complement_window_scan(0.7, t1=0.0, t=1.5, t2=1.0)
    with pytest.raises(ValueError, match="strictly inside"):
        complement_window_scan(0.7, t=0.1, eps=(0.125,))
    with pytest.raises(ValueError, match="truncation_t"):
        complement_window_scan(0.7, t1=0.0, t=1.0, t2=2.0, truncation_t=2.0)
    for grid_n in (1, 3):
        with pytest.raises(ValueError, match="grid_n must be at least 4"):
            complement_window_scan(0.75, grid_n=grid_n)


@pytest.mark.parametrize("call, message", [
    (lambda: past_window_scan(0.7, 1.0, truncation_t=math.nan), "truncation_t must be finite, got nan"),
    (lambda: past_window_scan(0.7, math.inf), "t must be finite, got inf"),
    (lambda: complement_window_scan(0.7, truncation_t=math.nan), "truncation_t must be finite, got nan"),
    (lambda: complement_window_scan(0.7, t2=math.inf), "t2 must be finite, got inf"),
    (lambda: past_future_angle(0.7, math.nan), "truncation_t must be finite, got nan"),
    (lambda: theorem22_check(0.7, truncation_t=math.inf), "truncation_t must be finite, got inf"),
    (lambda: local_independence_scan(0.7, math.nan), "t1 must be finite, got nan"),
    (lambda: adjacency_mi_table(0.7, math.inf), "eps must be finite, got inf"),
    (lambda: levy2d_scan(0.7, c2=(1.0, math.nan)), r"c2 must be finite, got \(1.0, nan\)"),
    (lambda: window_row(0.7, math.inf, 1.0, 0.125, 32), "t1 must be finite, got inf"),
    (lambda: window_row(0.7, 0.0, -math.inf, 0.125, 32), "t2 must be finite, got -inf"),
])
def test_entry_points_reject_non_finite_inputs(call, message, monkeypatch):
    # the argument is named before any Gram is built
    def no_gram(*args):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(experiments, "gram", no_gram)
    monkeypatch.setattr(experiments, "cross_gram", no_gram)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _below_resolution(eps, name, centre):
    return (f"eps={eps!r} is below the float resolution at {name}={centre!r}: "
            f"{name} - eps, {name} and {name} + eps must be distinct floats")


def _collapsed_window(eps, name, centre):
    return (f"eps={eps!r} is below the float resolution at {name}={centre!r} for n=64: "
            f"the window's n points must be strictly increasing floats")


_TINY_EPS = (4e-16, 3e-16, 2e-16, 1.5e-16)


@pytest.mark.parametrize("call, message", [
    (lambda: window_row(0.75, 0.0, 1e300, 0.125, 64), _below_resolution(0.125, "t2", 1e300)),
    (lambda: window_row(0.75, 1.0, 0.0, 2.0**-54, 64), _below_resolution(2.0**-54, "t1", 1.0)),
    (lambda: local_independence_scan(0.75, -1e300, 1e300), _below_resolution(2.0**-8, "t1", -1e300)),
    # at 2^46 the largest eps, 2^-3, still makes three floats; the smallest does not
    (lambda: local_independence_scan(0.75, 0.0, 2.0**46), _below_resolution(2.0**-8, "t2", 2.0**46)),
    (lambda: past_window_scan(0.75, 1e300, truncation_t=1e302), _below_resolution(2.0**-8, "t", 1e300)),
    (lambda: complement_window_scan(0.75, 0.0, 1e300, 2e300), _below_resolution(2.0**-8, "t", 1e300)),
    # three floats, but the n window points or a ball's lattice point and
    # its centre are not distinct
    (lambda: window_row(0.75, 0.0, 1.0, 4e-16, 64), _collapsed_window(4e-16, "t2", 1.0)),
    (lambda: local_independence_scan(0.75, 0.0, 1.0, _TINY_EPS, 64), _collapsed_window(1.5e-16, "t2", 1.0)),
    (lambda: past_window_scan(0.75, 1.0, eps=_TINY_EPS), _collapsed_window(1.5e-16, "t", 1.0)),
    (lambda: complement_window_scan(0.75, eps=_TINY_EPS), _collapsed_window(1.5e-16, "t", 0.5)),
    (lambda: levy2d_scan(0.75, eps=(1e-17,)),
     "eps=1e-17 is below the float resolution at c2=(1.0, 0.0) for n=9: "
     "a point of the ball's n-per-axis lattice equals its centre"),
], ids=["window_row", "window_row-ulp", "scan", "scan-smallest-eps", "past-window", "complement",
        "window_row-points", "scan-points", "past-window-points", "complement-points", "levy2d-lattice"])
def test_window_centres_below_float_resolution_are_refused(call, message, monkeypatch):
    # a centre where c - eps, c and c + eps are not three floats, or a
    # window whose n points are not all distinct, would give a collapsed
    # window; refused, naming eps (and n) and the centre, before any Gram
    # is built
    def no_gram(*args):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(experiments, "gram", no_gram)
    monkeypatch.setattr(experiments, "cross_gram", no_gram)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()



@pytest.mark.parametrize("call, message", [
    (lambda: past_future_angle(0.8, 1e-300), "Gram scale underflows float64: T = 1e-300 to the power 2H = 1.6"),
    (lambda: past_future_angle(0.8, 1e300), "Gram scale overflows float64: T = 1e+300 to the power 2H = 1.6"),
    (lambda: theorem22_check(0.75, 1.0, 1e300), "Gram scale overflows float64: T = 1e+300 to the power 2H = 1.5"),
    (lambda: window_row(0.75, 0.0, 1e-300, 1e-301, 8),
     "Gram scale underflows float64: dt = 2.85714e-302 to the power 2H = 1.5"),
    (lambda: window_row(0.75, 0.0, 1e300, 1e299, 8),
     "Gram scale overflows float64: dt = 2.85714e+298 to the power 2H = 1.5"),
    (lambda: levy2d_scan(0.99, c2=(1e-150, 0.0), eps=(1e-157,)),
     "Gram scale underflows float64: eps = 1e-157 to the power 2H = 1.98"),
    # the two-sided complement is factored whole, not scaled from a unit
    # one, so its Gram names the overflowing distance
    (lambda: complement_window_scan(0.75, truncation_t=1e300),
     "covariance overflows float64: a distance between endpoints to the power 1.5"),
], ids=["past-future-tiny-T", "past-future-huge-T", "thm22-huge-T", "window-tiny-dt", "window-huge-dt",
        "levy2d-tiny-eps", "complement-huge-T"])
def test_a_scale_past_the_float_range_is_a_named_error(call, message):
    # the unit factor's scale T^-H, dt^-H or eps^-H, or a Gram entry, left
    # the float range: LAPACK failed on nan entries after a RuntimeWarning
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_window_row_is_the_scan_row_never_skipped():
    # the scan's row at one eps, with no rank floor, and windows that may
    # overlap: coinciding ones share every increment
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 32)
    assert window_row(0.75, 0.0, 1.0, EPS4[2], 32) == table.rows[2]
    same = window_row(0.75, 0.0, 0.0, 0.125, 32)
    assert (same.cos, same.mi, same.skipped) == (1.0, math.inf, False)
    with pytest.raises(ValueError, match="^eps values must be positive$"):
        window_row(0.75, 0.0, 1.0, 0.0, 32)


@pytest.mark.parametrize("h", [0.25, 0.75, 0.9])
def test_bisected_window_grids_never_lower_cos_or_mi(h):
    # n -> 2n - 1 points bisects every cell, so each window's increment
    # span contains the coarse one and no canonical correlation can fall
    eps = (2.0**-3, 2.0**-5, 2.0**-7)
    prev = None
    for n in (9, 17, 33, 65):
        rows = local_independence_scan(h, 0.0, 1.0, eps, grid_n=n).rows
        assert not any(r.skipped or r.ill_conditioned for r in rows)
        if prev is not None:
            for fine, coarse in zip(rows, prev):
                assert fine.cos >= coarse.cos * (1.0 - 1e-12), (n, fine.eps)
                assert fine.mi >= coarse.mi * (1.0 - 1e-12), (n, fine.eps)
        prev = rows


@pytest.mark.parametrize("h", [0.25, 0.75])
@pytest.mark.parametrize("eps_a, eps_b", [(2.0**-6, 2.0**-9), (2.0**-7, 2.0**-11), (2.0**-8, 2.0**-12)])
def test_unequal_windows_obey_the_product_law(h, eps_a, eps_b):
    # the far-field cross-covariance factorizes, so to leading order
    # cos(eps_a, eps_b)^2 = cos(eps_a, eps_a) cos(eps_b, eps_b); wider
    # windows carry a real correction (2.5e-5 at (2^-4, 2^-8), H = 0.25)
    def cos(ea, eb):
        row = experiments._make_row(ea, experiments._window(0.0, ea, h, 64), experiments._window(1.0, eb, h, 64), h)
        assert not (row.skipped or row.ill_conditioned)
        return row.cos

    assert abs(cos(eps_a, eps_b) ** 2 / (cos(eps_a, eps_a) * cos(eps_b, eps_b)) - 1.0) <= 1e-6


# first order in delta = H - 1/2: the disjoint-cell kernel is
# delta/|u - v| + O(delta^2) and both Grams are white up to O(delta), so
# sigma_k = |delta| s_k + O(delta^2) with s_k the singular values of the
# operator with kernel 1/|u - v| from L^2 of one window to L^2 of the other
_DELTA = 1e-3


def _nystrom_singular_values(eps, d, nodes=60):
    # Gauss-Legendre Nystrom discretization on (-eps, eps) and (d - eps, d + eps)
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, v, sw = eps * x, d + eps * x, np.sqrt(eps * w)
    return np.linalg.svd(sw[:, None] / np.abs(u[:, None] - v[None, :]) * sw[None, :], compute_uv=False)


def _first_order_sigmas(grid_n, eps, monkeypatch):
    # +-delta average of sigma / |delta| on the scan's one row; its O(delta)
    # correction is odd in delta and cancels
    spectra = []
    whiten = experiments._whitened_spectrum

    def recording(fa, fb, c):
        spectra.append(whiten(fa, fb, c))
        return spectra[-1]

    monkeypatch.setattr(experiments, "_whitened_spectrum", recording)
    for sign in (1.0, -1.0):
        row = local_independence_scan(0.5 + sign * _DELTA, 0.0, 1.0, (eps,), grid_n).rows[0]
        assert row.cos == spectra[-1].sigmas[0]
    return (spectra[0].sigmas + spectra[1].sigmas) / (2.0 * _DELTA)


def test_two_window_first_order_law_at_h_half(monkeypatch):
    s = _nystrom_singular_values(0.125, 1.0)
    assert s[0] == pytest.approx(0.2540407, abs=5e-8)
    assert _first_order_sigmas(64, 0.125, monkeypatch)[0] == pytest.approx(s[0], rel=1e-4)
    assert _first_order_sigmas(256, 0.125, monkeypatch)[1] == pytest.approx(s[1], rel=1e-4)


def test_past_future_first_order_approaches_carleman_norm():
    # Carleman's operator 1/(u + v) on L^2(0, inf) has norm pi (Hilbert's
    # inequality); the graded route approaches it from below as n grows
    for delta in (_DELTA, -_DELTA):
        slopes = [past_future_angle(0.5 + delta, 16.0, n) / _DELTA for n in (64, 128, 256)]
        assert slopes[0] < slopes[1] < slopes[2] < math.pi
