"""Scan harness: grids, fits, reports, serialization."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fbmlocal import experiments
from fbmlocal.experiments import (
    ExponentFit,
    _fmt_csv,
    _json_val,
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
    scan_csv_text,
    scan_to_dict,
    theorem21_check,
    theorem22_check,
)
from fbmlocal.geometry import CanonicalSpectrum
from fbmlocal.kernels import IncrementBasis, TimeGrid, gram
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
        def spectrum(ga, gb, c, rtol):
            ranks = {"rank_a": ga.shape[0], "rank_b": gb.shape[0], f"rank_{side}": rank}
            return CanonicalSpectrum(sigmas=np.array([0.5]), cond=1.0, ill_conditioned=False, **ranks)

        monkeypatch.setattr(experiments, "canonical_correlations", spectrum)
        rows = _skip_rule_rows(family, size, monkeypatch)
        assert [r.skipped for r in rows] == [skipped] * len(rows)
        assert all(math.isnan(r.cos) == skipped for r in rows)


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
    d = rep.as_dict()
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
    import scipy.linalg

    from fbmlocal import experiments, sobolev

    # a negative-definite column solves cleanly but gives w'x < 0
    autocov = experiments.increment_autocov
    monkeypatch.setattr(experiments, "increment_autocov", lambda k, h, dt: -autocov(k, h, dt))
    with pytest.raises(np.linalg.LinAlgError, match="at H=0.7, n=64: .* w'x -"):
        r_h_dual_gram(0.7, n=64)
    row = sobolev._hat_gram_row
    monkeypatch.setattr(sobolev, "_hat_gram_row", lambda pts, s: -row(pts, s))
    with pytest.raises(np.linalg.LinAlgError, match="at s=0.25, T=16.0, n=64: .* w'x -"):
        sobolev.lemma22_dual_norm(2.0, 0.25, 2.0, 16.0, 64)
    monkeypatch.undo()

    # a solve that misses the system trips the residual guard
    solve = scipy.linalg.solve_toeplitz
    monkeypatch.setattr(scipy.linalg, "solve_toeplitz", lambda c, b: 1.001 * solve(c, b))
    with pytest.raises(np.linalg.LinAlgError, match=r"residual 0\.001"):
        r_h_dual_gram(0.7, n=64)
    with pytest.raises(np.linalg.LinAlgError, match=r"residual 0\.001"):
        sobolev.lemma22_dual_norm(2.0, 0.25, 2.0, 16.0, 64)


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
])
def test_entry_points_reject_non_finite_inputs(call, message, monkeypatch):
    # the argument is named before any Gram is built
    def no_gram(*args):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(experiments, "gram", no_gram)
    monkeypatch.setattr(experiments, "cross_gram", no_gram)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_csv_round_trip():
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 8)
    text = scan_csv_text(table)
    assert text.startswith("#")
    assert "# H = 0.75" in text
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["eps", "cos_angle", "mi"]
    assert len(lines) == 1 + len(table.rows)
    # values survive a parse
    got = [float(l.split(",")[1]) for l in lines[1:]]
    assert got == [r.cos for r in table.rows]


def test_csv_inf_and_nan_literals(tmp_path):
    rows = (
        ScanRow(eps=0.5, cos=1.0, mi=None, hs_lower=1.0, hs_upper=None, rank_a=3, rank_b=3,
                cond=1.0, ill_conditioned=False),
        ScanRow(eps=0.25, cos=math.nan, mi=math.nan, hs_lower=math.nan, hs_upper=math.nan,
                rank_a=1, rank_b=1, cond=1e15, ill_conditioned=True, skipped=True),
    )
    table = ScanTable(rows=rows, meta={"experiment": "synthetic"})
    text = scan_csv_text(table)
    data = [l for l in text.strip().split("\n") if not l.startswith("#")][1:]
    assert data[0].split(",")[2] == "inf"
    assert data[0].split(",")[4] == "inf"
    assert data[1].split(",")[1] == "nan"
    assert data[1].split(",")[8:] == ["1", "1"]


def test_json_document():
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 8)
    doc = scan_to_dict(table)
    assert doc["config"]["H"] == 0.75
    assert len(doc["rows"]) == len(table.rows)
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    # infinite MI serializes as the string "inf"
    rows = (
        ScanRow(eps=0.5, cos=1.0, mi=None, hs_lower=1.0, hs_upper=None, rank_a=3, rank_b=3,
                cond=1.0, ill_conditioned=False),
    )
    d = scan_to_dict(ScanTable(rows=rows, meta={}))
    assert d["rows"][0]["mi"] == "inf"
    assert d["rows"][0]["hs_upper"] == "inf"


@pytest.mark.parametrize("value, cell, json_value", [
    (math.inf, "inf", "inf"),
    (-math.inf, "-inf", "-inf"),
    (math.nan, "nan", None),
    (None, "inf", "inf"),
    (np.float64(-math.inf), "-inf", "-inf"),
], ids=["+inf", "-inf", "nan", "None", "np-inf"])
def test_serializers_agree_on_non_finite(value, cell, json_value):
    assert _fmt_csv(value) == cell
    assert _json_val(value) == json_value
    json.dumps(_json_val(value), allow_nan=False)


def test_exponent_fit_dataclass():
    fit = ExponentFit(slope=0.5, intercept=0.1, r2=0.999, theory_slope=0.5, theory_gap=0.0,
                      correction_order=0.5, eps_lo=0.01, eps_hi=0.1, n_used=5)
    d = fit.as_dict()
    assert d["slope"] == 0.5 and d["n_used"] == 5


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
