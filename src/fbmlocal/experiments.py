"""Scaling experiments for angles and information between FBM increment windows.

Each experiment discretizes one or two time regions into consecutive
increments, builds the Gram and cross-Gram matrices, and pushes them
through the canonical-correlation machinery.  Shrinking the window
half-width eps along a geometric schedule and fitting log-log slopes
recovers the local-independence decay rates:

    cos angle ~ (eps/d)^(2-2H),   MI ~ 0.5 * r_H^2 * (eps/d)^(4-4H)

for two windows at distance d, and (eps/t)^(1-H) rates against the
infinite past.  Semi-infinite regions are truncated at T with graded
grids (polynomially finer toward the singular endpoint) and mandatory
2T sensitivity reruns.

Two families use their structure instead of whitening dense Grams of
their own.  Adjacent intervals are two halves of one stationary
sequence, so their MI is a weighted sum of the sequence's partial
autocorrelations, one Durbin-Levinson pass for a whole n schedule.  The
graded future is the mirror image of the graded past and the graded
grid dilates exactly with T, so both past-future sides share one
factor per (H, n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from fbmlocal.geometry import (
    RANK_RTOL,
    MiResult,
    _pivoted_factor,
    _whitened_spectrum,
    cos_angle,
    mutual_information_gy,
)
from fbmlocal.kernels import (
    IncrementBasis,
    TimeGrid,
    _partial_autocorrelations,
    _toeplitz_quadratic_form,
    check_finite,
    check_hurst,
    cross_gram,
    gram,
    increment_autocov,
    uniform_gram,
)
from fbmlocal.sobolev import r_h_constant, r_h_spectral

__all__ = [
    "DEFAULT_EPS",
    "DEFAULT_GRID_N",
    "DEFAULT_TRUNCATION",
    "ScanRow",
    "ScanTable",
    "ExponentFit",
    "Theorem21Report",
    "Theorem22Report",
    "AdjacencyReport",
    "PastFutureReport",
    "ComplementReport",
    "Levy2dReport",
    "graded_points",
    "grading_depth",
    "check_off_half",
    "window_row",
    "local_independence_scan",
    "fit_exponent",
    "r_h_dual_gram",
    "theorem21_check",
    "past_window_scan",
    "theorem22_check",
    "adjacency_mi_table",
    "adjacency_divergence",
    "past_future_angle",
    "past_future_report",
    "complement_window_scan",
    "levy2d_scan",
]

DEFAULT_EPS = tuple(2.0**-k for k in range(3, 9))
DEFAULT_GRID_N = 64
DEFAULT_TRUNCATION = 64.0

# Windows use grid_n points, so grid_n - 1 increments; a row is dropped
# when whitening keeps fewer than grid_n/2 of them.
_MIN_RANK_FRACTION = 0.5

# adjacency_divergence reruns its MI table at this fraction of eps
_ALT_EPS_FACTOR = 0.25


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class ScanRow:
    """One eps of a scan.

    mi is inf when the information is infinite and nan when the row was
    skipped for rank loss; hs_upper is inf when the bound diverges.
    """

    eps: float
    cos: float
    mi: float
    hs_lower: float
    hs_upper: float
    rank_a: int
    rank_b: int
    cond: float
    ill_conditioned: bool
    skipped: bool = False

    @property
    def hs_norm(self) -> float:
        # hs_lower = h/2 with h the squared HS norm of the correlation operator
        return math.sqrt(2.0 * self.hs_lower)


@dataclass(frozen=True)
class ScanTable:
    """Rows of a scan, sorted by eps descending, plus run parameters."""

    rows: tuple
    meta: dict


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares log-log fit of a scan column against eps (or of the
    lemma-2.2 dual norms against k).

    correction_order records the expected relative size of the next
    asymptotic term (the eps^delta bookkeeping); eps_lo/eps_hi bound the
    fit window after dropping the largest eps and flagged rows.
    """

    slope: float
    intercept: float
    r2: float
    theory_slope: float
    theory_gap: float
    correction_order: float
    eps_lo: float
    eps_hi: float
    n_used: int

    @classmethod
    def least_squares(cls, x, y, theory: float = math.nan, correction_order: float = math.nan) -> "ExponentFit":
        """Least-squares line through (log x, log y) for positive x and y."""
        x = np.asarray(x, dtype=float)
        lx, ly = np.log(x), np.log(y)
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = ly - (slope * lx + intercept)
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
        return cls(
            slope=float(slope),
            intercept=float(intercept),
            r2=r2,
            theory_slope=float(theory),
            theory_gap=abs(float(slope) - float(theory)),
            correction_order=float(correction_order),
            eps_lo=float(x.min()),
            eps_hi=float(x.max()),
            n_used=x.size,
        )


# ---------------------------------------------------------------------------
# grids and row plumbing


def grading_depth(h: float, n_cells: int) -> float:
    """Decades of scale a graded grid should span for n_cells increments.

    Grows with log2(n) so refinement studies keep extending the resolved
    scale range, but is capped where conditional increment variances fall
    below what pivoted Cholesky can resolve in double precision: a cell a
    factor 10^-D below the span contributes ~10^(-2HD) of the largest
    diagonal, so 2HD is kept under ~10.
    """
    if n_cells < 1:
        raise ValueError("need at least 1 cell")
    budget = math.ceil(math.log2(n_cells)) + 5
    cond_cap = max(3, math.floor(9.6 / (2.0 * h) + 1e-9))
    return float(min(budget, cond_cap))


def graded_points(a: float, b: float, npts: int, decades: float = 8.0, toward: str = "b") -> np.ndarray:
    """npts points on [a, b], cell widths in geometric progression.

    The smallest cell sits at the chosen endpoint and the ladder spans
    `decades` orders of magnitude, so every scale band down to
    (b-a)*10^-decades gets about the same number of cells. Built by
    accumulating from the fine end to keep tiny offsets exact.
    """
    if npts < 2:
        raise ValueError("need at least 2 points")
    if b <= a:
        raise ValueError("need a < b")
    if decades < 0.0:
        raise ValueError("decades must be >= 0")
    n = npts - 1
    ratio = 10.0 ** (decades / max(n - 1, 1))
    cells = ratio ** np.arange(n)
    cells *= (b - a) / cells.sum()
    off = np.concatenate([[0.0], np.cumsum(cells)])
    off[-1] = b - a
    if toward == "b":
        pts = b - off[::-1]
        pts[-1] = b
        return pts
    if toward == "a":
        pts = a + off
        pts[0] = a
        return pts
    raise ValueError("toward must be 'a' or 'b'")


def _make_row(eps, side_a, side_b, h, min_rank=0.0) -> ScanRow:
    """The one route from two sides to a row: whitening, angle and MI with
    its HS bounds; skipped when either side keeps fewer than min_rank
    directions.  A side is an (IncrementBasis, factor) pair made by _side
    or _window, so a scan factors a side once for all its rows."""
    (a, fa), (b, fb) = side_a, side_b
    spec = _whitened_spectrum(fa, fb, cross_gram(a, b, h))
    skipped = min(spec.rank_a, spec.rank_b) < min_rank
    mi = MiResult(math.nan, math.nan, math.nan) if skipped else mutual_information_gy(spec)
    return ScanRow(
        eps=eps,
        cos=math.nan if skipped else cos_angle(spec),
        mi=mi.value,
        hs_lower=mi.lower,
        hs_upper=mi.upper,
        rank_a=spec.rank_a,
        rank_b=spec.rank_b,
        cond=spec.cond,
        ill_conditioned=spec.ill_conditioned,
        skipped=skipped,
    )


def _scan_schedule(h: float, eps, grid_n: int | None) -> tuple:
    """Validation every eps scan shares: the Hurst index, the eps rule (a
    nonempty, strictly decreasing tuple of finite positive floats) and,
    for window scans, grid_n >= 4. Returns the schedule as floats."""
    check_hurst(h)
    eps = tuple(float(e) for e in eps)
    if len(eps) == 0:
        raise ValueError("eps schedule is empty")
    bad = [e for e in eps if not math.isfinite(e)]
    if bad:
        raise ValueError(f"eps values must be finite, got {bad[0]!r}")
    if any(e <= 0.0 for e in eps):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    if grid_n is not None and grid_n < 4:
        raise ValueError("grid_n must be at least 4")
    return eps


def _eps_meta(eps: tuple) -> str:
    return ",".join(repr(e) for e in eps)


@functools.lru_cache(maxsize=64)
def _uniform_factor(h, grid_n):
    """Factor of the Gram every grid_n-point uniform window shares up to
    scale: the unit-spacing Toeplitz matrix T = uniform_gram(grid_n - 1, h).
    A window of spacing dt has Gram dt^(2H) T, so its factor is this one
    scaled by dt^-H.  Made once per process for each (h, grid_n)."""
    return _pivoted_factor(uniform_gram(grid_n - 1, h))


@functools.lru_cache(maxsize=64)
def _graded_past_factor(h, n):
    """Factor of the Gram of the unit-T graded past, the n cells of
    _graded_basis(h, ((-1, 0, "b"),), n), which past_future_angle shares
    between both sides at every T; made once per process for each (h, n)."""
    return _pivoted_factor(gram(_graded_basis(h, ((-1.0, 0.0, "b"),), n)[0], h))


def _side(basis: IncrementBasis, h):
    """A side for _make_row: the basis with the factor of its Gram."""
    return basis, _pivoted_factor(gram(basis, h))


def _window(center: float, eps: float, h, grid_n: int):
    """The side of the grid_n-point uniform window of half-width eps around
    center.  Its Gram is dt^(2H) times the shared unit-spacing one, so its
    factor is _uniform_factor's scaled by dt^-H."""
    basis = IncrementBasis.from_grid(TimeGrid(center - eps, center + eps, grid_n))
    return basis, _uniform_factor(h, grid_n).scaled((2.0 * eps / (grid_n - 1)) ** -h)


def _graded_basis(h, regions, n_cells: int):
    """The increments of truncated regions (a, b, toward), in order: each
    region gets n_cells cells graded toward its singular end over
    grading_depth(h, n_cells) decades.  Returns the basis and the depth."""
    decades = grading_depth(h, n_cells)
    pts = [graded_points(a, b, n_cells + 1, decades, toward) for a, b, toward in regions]
    return IncrementBasis(s=np.concatenate([p[:-1] for p in pts]), t=np.concatenate([p[1:] for p in pts])), decades


def _graded_scan(h, regions, t: float, eps: tuple, grid_n: int, meta: dict) -> ScanTable:
    """Rows of the grid_n-point window around t against the regions'
    _graded_basis (grid_n - 1 cells each), factored once; the meta tail
    every truncated scan shares follows the given meta."""
    basis, decades = _graded_basis(h, regions, grid_n - 1)
    fixed = _side(basis, h)
    rows = tuple(_make_row(e, fixed, _window(t, e, h, grid_n), h, grid_n * _MIN_RANK_FRACTION) for e in eps)
    meta = {**meta, "eps": _eps_meta(eps), "grid_n": grid_n, "grading_decades": decades, "rtol": RANK_RTOL}
    return ScanTable(rows=rows, meta=meta)


def check_off_half(h: float, purpose: str) -> None:
    """check_hurst, then refuse |2H-1| < 0.1: the correlations a rate or
    constant is read from vanish at H = 1/2, so near it a fit would see
    only round-off."""
    if abs(2.0 * check_hurst(h) - 1.0) < 0.1:
        raise ValueError(f"{purpose} needs |2H-1| >= 0.1")


def _truncation_rerun(report, h, scan, truncation_t: float, fits):
    """The T/2T study: scan(T) and scan(2T) are each fitted per (column,
    theory, correction_order) in fits; the largest slope move is the
    truncation sensitivity, flagged above 0.02.  Returns report(fits at T,
    fits at 2T, sensitivity, flag, table, table_2t)."""
    check_off_half(h, "rate fit")
    tables = scan(truncation_t), scan(2.0 * truncation_t)
    fitted = [[fit_exponent(table, *fit) for fit in fits] for table in tables]
    sens = max(abs(a.slope - b.slope) for a, b in zip(*fitted))
    return report(*fitted[0], *fitted[1], float(sens), sens > 0.02, *tables)


# ---------------------------------------------------------------------------
# two shrinking windows (the basic local-independence scan)


def local_independence_scan(
    h: float,
    t1: float = 0.0,
    t2: float = 1.0,
    eps: tuple = DEFAULT_EPS,
    grid_n: int = DEFAULT_GRID_N,
) -> ScanTable:
    """Angle and MI between increment windows around t1 and t2, per eps.

    eps values must be strictly decreasing and the largest one must keep
    the windows disjoint (max eps < |t1 - t2| / 2).
    """
    eps = _scan_schedule(h, eps, grid_n)
    check_finite("t1", t1)
    check_finite("t2", t2)
    if t1 == t2:
        raise ValueError("t1 and t2 must differ")
    if eps[0] >= abs(t2 - t1) / 2.0:
        raise ValueError("max eps must keep the windows disjoint: eps < |t1-t2|/2")
    rows = tuple(
        _make_row(e, _window(t1, e, h, grid_n), _window(t2, e, h, grid_n), h, grid_n * _MIN_RANK_FRACTION)
        for e in eps
    )
    meta = {
        "experiment": "scan",
        "H": h,
        "t1": t1,
        "t2": t2,
        "eps": _eps_meta(eps),
        "grid_n": grid_n,
        "rtol": RANK_RTOL,
    }
    return ScanTable(rows=rows, meta=meta)


def window_row(h: float, t1: float, t2: float, eps: float, grid_n: int) -> ScanRow:
    """The row of the grid_n-point windows of half-width eps around t1 and
    t2 at that one eps: never skipped, and the windows may overlap."""
    (eps,) = _scan_schedule(h, (eps,), None)
    check_finite("t1", t1)
    check_finite("t2", t2)
    return _make_row(eps, _window(t1, eps, h, grid_n), _window(t2, eps, h, grid_n), h)


# fit_exponent's column names and the ScanRow attribute each one reads
_FIT_COLUMNS = {"cos": "cos", "mi": "mi", "hs": "hs_norm"}


def fit_exponent(
    table: ScanTable,
    column: str = "cos",
    theory: float = math.nan,
    correction_order: float = math.nan,
) -> ExponentFit:
    """Log-log slope of a scan column (cos, mi or hs) vs eps.

    The largest eps (pre-asymptotic) and any ill-conditioned rows are
    dropped; remaining rows must be finite and positive.  Requires at
    least 4 finite rows in the table.
    """
    if column not in _FIT_COLUMNS:
        raise ValueError(f"unknown column {column!r}")
    finite = [r for r in table.rows if math.isfinite(r.mi)]
    if len(finite) < 4:
        raise ValueError("need at least 4 finite rows to fit an exponent")
    rows = sorted(table.rows, key=lambda r: -r.eps)[1:]
    kept = [r for r in rows if not r.ill_conditioned]
    for r in kept:
        if r.skipped:
            raise ValueError(f"skipped row at eps={r.eps} inside the fit range")
        if r.mi == math.inf and column == "mi":
            raise ValueError(f"infinite MI at eps={r.eps} inside the fit range")
    if len(kept) < 3:
        raise ValueError("fewer than 3 usable rows after dropping flagged ones")

    y = np.array([getattr(r, _FIT_COLUMNS[column]) for r in kept])
    if np.any(~np.isfinite(y)) or np.any(y <= 0.0):
        raise ValueError(f"column {column!r} must be finite and positive for a power-law fit")
    return ExponentFit.least_squares([r.eps for r in kept], y, theory, correction_order)


# ---------------------------------------------------------------------------
# two-window theorem: rates 2-2H and 4-4H plus the constant r_H


def r_h_dual_gram(h: float, n: int = 2048) -> float:
    """Prefactor via the dual-norm route, no window scan involved.

    The leading constant in the scan convention equals
    H |2H-1| 2^(2-2H) M^2 with M^2 = w' G^{-1} w the squared dual norm of
    the mean functional over increment combinations on n uniform cells of
    (0, 1): an independent route to r_h_constant, O(1/n) off.  G is
    Toeplitz with first column increment_autocov(arange(n), h, 1/n), so
    the form is the kernels' guarded Toeplitz solve, preconditioned
    conjugate gradients on numpy's FFT (LinAlgError unless the relative
    residual is at most 1e-8 and w'x > 0).
    """
    check_hurst(h)
    col = increment_autocov(np.arange(n), h, 1.0 / n)
    w = np.diff(np.linspace(0.0, 1.0, n + 1))
    m2 = _toeplitz_quadratic_form(col, w, f"H={h}, n={n}")
    return h * abs(2.0 * h - 1.0) * 2.0 ** (2.0 - 2.0 * h) * m2


@dataclass(frozen=True)
class Theorem21Report:
    fit_cos: ExponentFit
    fit_mi: ExponentFit
    r_h_extrapolated: float
    r_h_theory: float
    r_h_spectral: float
    r_h_rel_gap: float
    r_h_dual_gram: float
    mi_cos_ratio: float
    constant_inconclusive: bool
    table: ScanTable


def theorem21_check(
    h: float,
    t1: float = 0.0,
    t2: float = 1.0,
    eps: tuple = DEFAULT_EPS,
    grid_n: int = DEFAULT_GRID_N,
) -> Theorem21Report:
    """Fit both two-window decay rates and cross-check the constant r_H.

    The prefactor is extrapolated as cos * (eps/d)^(2H-2) at the smallest
    clean eps (no Richardson step; adequate at the 5% comparison level)
    and compared with the exact r_h_constant.  The dual-Gram route and the
    zero-extension diagnostic r_h_spectral ride along.  Also reports
    MI / (0.5 cos^2), which tends to 1 in the small-eps limit.
    """
    check_off_half(h, "constant comparison")
    table = local_independence_scan(h, t1, t2, eps, grid_n)
    delta = min(1.0, 2.0 - 2.0 * h)
    fit_cos = fit_exponent(table, "cos", theory=2.0 - 2.0 * h, correction_order=delta)
    fit_mi = fit_exponent(table, "mi", theory=4.0 - 4.0 * h, correction_order=delta)

    usable = [r for r in table.rows if not r.skipped and not r.ill_conditioned]
    if not usable:
        raise ValueError("every row was skipped or flagged; cannot extrapolate r_H")
    last = usable[-1]  # smallest stable eps
    d = abs(t2 - t1)
    r_extrap = last.cos * (last.eps / d) ** (2.0 * h - 2.0)
    r_theory = r_h_constant(h)
    rel_gap = abs(r_extrap - r_theory) / r_theory
    mi_cos_ratio = last.mi / (0.5 * last.cos**2)
    full_rank = grid_n - 1
    inconclusive = last.rank_a < full_rank or last.rank_b < full_rank
    return Theorem21Report(
        fit_cos=fit_cos,
        fit_mi=fit_mi,
        r_h_extrapolated=float(r_extrap),
        r_h_theory=r_theory,
        r_h_spectral=r_h_spectral(h),
        r_h_rel_gap=float(rel_gap),
        r_h_dual_gram=r_h_dual_gram(h),
        mi_cos_ratio=float(mi_cos_ratio),
        constant_inconclusive=inconclusive,
        table=table,
    )


# ---------------------------------------------------------------------------
# window against the truncated past: rates 1-H and 2-2H


def past_window_scan(
    h: float,
    t: float,
    truncation_t: float = DEFAULT_TRUNCATION,
    eps: tuple = DEFAULT_EPS,
    grid_n: int = DEFAULT_GRID_N,
) -> ScanTable:
    """Angle and MI between the past (-T, 0) and a window around t > 0.

    The past is discretized on a geometrically graded grid, finest toward
    0 where the cross kernel varies fastest, spanning grading_depth
    decades.
    """
    eps = _scan_schedule(h, eps, grid_n)
    check_finite("t", t)
    check_finite("truncation_t", truncation_t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if eps[0] >= t:
        raise ValueError("max eps must keep the window inside (0, inf): eps < t")
    if truncation_t < 16.0 * t:
        raise ValueError("truncation must satisfy T >= 16 t")
    meta = {"experiment": "past-window", "H": h, "t": t, "T": truncation_t}
    return _graded_scan(h, ((-truncation_t, 0.0, "b"),), t, eps, grid_n, meta)


@dataclass(frozen=True)
class Theorem22Report:
    fit_cos: ExponentFit
    fit_mi: ExponentFit
    fit_cos_2t: ExponentFit
    fit_mi_2t: ExponentFit
    truncation_sensitivity: float
    truncation_dominated: bool
    table: ScanTable
    table_2t: ScanTable


def theorem22_check(
    h: float,
    t: float = 1.0,
    truncation_t: float = DEFAULT_TRUNCATION,
    eps: tuple = DEFAULT_EPS,
    grid_n: int = DEFAULT_GRID_N,
) -> Theorem22Report:
    """Past-vs-window rates: cos slope against 1-H, MI slope against 2-2H.

    Reruns at 2T; the report is flagged truncation-dominated when either
    slope moves by more than 0.02.
    """
    # next term is O(eps^(2-H)), one full power of eps beyond the lead
    fits = (("cos", 1.0 - h, 1.0), ("mi", 2.0 - 2.0 * h, 1.0))
    scan = functools.partial(past_window_scan, h, t, eps=eps, grid_n=grid_n)
    return _truncation_rerun(Theorem22Report, h, scan, truncation_t, fits)


# ---------------------------------------------------------------------------
# adjacent intervals: unbounded MI growth under refinement


@dataclass(frozen=True)
class AdjacencyReport:
    n_schedule: tuple
    mi: tuple
    mi_alt_eps: tuple
    eps: float
    alt_eps: float
    strictly_increasing: bool
    min_doubling_growth: float
    eps_invariance_gap: float


def adjacency_mi_table(
    h: float,
    eps: float = 1.0,
    n_schedule: tuple = (4, 8, 16, 32, 64, 128, 256),
) -> list:
    """MI between the n increments of (-eps, 0) and the n of (0, eps), per
    grid size n.

    The 2n cells are one stationary sequence, so with G_m its m x m
    Toeplitz Gram the MI is log det G_n - 0.5 log det G_2n, which the
    partial autocorrelations phi_jj give as

        -0.5 sum_{j=1}^{2n-1} min(j, 2n - j) log(1 - phi_jj^2),

    a sum of non-negative terms.  One Durbin-Levinson pass
    (kernels._partial_autocorrelations) over the autocovariance at the
    finest spacing, eps / max n, serves every n: phi_jj does not depend
    on the spacing.  No Gram is formed or factored.
    """
    check_hurst(h)
    check_finite("eps", eps)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if any(n < 2 for n in n_schedule):
        raise ValueError("grid sizes must be at least 2")
    ns = [int(n) for n in n_schedule]
    if not ns:
        return []
    top = max(ns)
    phi = _partial_autocorrelations(increment_autocov(np.arange(2 * top), h, eps / top), f"H={h}, n={top}")
    terms = -0.5 * np.log1p(-phi * phi)
    out = []
    for n in ns:
        j = np.arange(1, 2 * n)
        out.append(float(np.minimum(j, 2 * n - j) @ terms[: 2 * n - 1]))
    return out


def adjacency_divergence(
    h: float,
    eps: float = 1.0,
    n_schedule: tuple = (4, 8, 16, 32, 64, 128, 256),
) -> AdjacencyReport:
    """Divergence proxy for adjacent intervals.

    MI between (-eps, 0) and (0, eps) must grow strictly with the grid
    and show no plateau (>= 2% per doubling is the acceptance bar), while
    being invariant under eps by self-similarity.
    """
    check_off_half(h, "divergence check")
    ns = tuple(int(n) for n in n_schedule)
    if len(ns) < 2:
        raise ValueError(f"n schedule needs at least 2 grid sizes, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n schedule must be strictly increasing")
    mi = adjacency_mi_table(h, eps, ns)
    alt = _ALT_EPS_FACTOR * eps
    mi_alt = adjacency_mi_table(h, alt, ns)
    increasing = all(b > a for a, b in zip(mi, mi[1:]))
    growth = min(b / a - 1.0 for a, b in zip(mi, mi[1:]))
    gap = max(abs(x - y) for x, y in zip(mi, mi_alt))
    return AdjacencyReport(
        n_schedule=ns,
        mi=tuple(mi),
        mi_alt_eps=tuple(mi_alt),
        eps=float(eps),
        alt_eps=float(alt),
        strictly_increasing=increasing,
        min_doubling_growth=float(growth),
        eps_invariance_gap=float(gap),
    )


# ---------------------------------------------------------------------------
# truncated past against truncated future


def past_future_angle(
    h: float,
    truncation_t: float = 16.0,
    n: int = 128,
) -> float:
    """cos angle between increments on (-T, 0) and (0, T), graded toward 0.

    The grading depth does not depend on T, so the grid dilates exactly
    when T changes and by self-similarity the value depends on T only
    through rounding; n is the real refinement knob.  Both sides take
    _graded_past_factor(h, n): the past's Gram at T is T^(2H) times the
    unit-T one, so its factor is that one scaled by T^-H, and the
    reflection t -> -t maps past cell n-1-k onto future cell k, so the
    future's factor is the past's with its pivots k -> n-1-k.
    """
    check_hurst(h)
    check_finite("truncation_t", truncation_t)
    if truncation_t <= 0.0:
        raise ValueError("truncation_t must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    n = int(n)
    past, _ = _graded_basis(h, ((-truncation_t, 0.0, "b"),), n)
    future, _ = _graded_basis(h, ((0.0, truncation_t, "a"),), n)
    factor = _graded_past_factor(h, n).scaled(truncation_t**-h)
    mirrored = replace(factor, keep=n - 1 - factor.keep)
    return _make_row(truncation_t, (past, factor), (future, mirrored), h).cos


@dataclass(frozen=True)
class PastFutureReport:
    value: float
    value_2n: float
    value_2t: float
    drift_n: float
    drift_t: float
    margin: float


def past_future_report(
    h: float,
    truncation_t: float = 16.0,
    n: int = 128,
) -> PastFutureReport:
    """Past-future angle with doubling studies in n and T.

    The angle must stay bounded away from zero (cos below 1); the margin
    is reported, no universal constant is asserted. Drifts are relative
    except near zero (the Brownian case), where that would divide noise
    by noise.  Two factors are made, one per n (past_future_angle shares
    each between the past and its mirror image, the future).  The 2T
    rerun reuses the T factor scaled: the grid dilates exactly, so
    drift_t reads round-off and cannot fail the 1% drift bar.
    """
    v = past_future_angle(h, truncation_t, n)
    v2n = past_future_angle(h, truncation_t, 2 * n)
    v2t = past_future_angle(h, 2.0 * truncation_t, n)
    margin = 1.0 - max(v, v2n, v2t)
    scale = max(v, 1e-8)
    return PastFutureReport(
        value=v,
        value_2n=v2n,
        value_2t=v2t,
        drift_n=abs(v2n - v) / scale,
        drift_t=abs(v2t - v) / scale,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# window against the complement of a surrounding interval


@dataclass(frozen=True)
class ComplementReport:
    fit_hs: ExponentFit
    fit_hs_2t: ExponentFit
    truncation_sensitivity: float
    truncation_dominated: bool
    table: ScanTable
    table_2t: ScanTable


def complement_window_scan(
    h: float,
    t1: float = 0.0,
    t: float = 0.5,
    t2: float = 1.0,
    eps: tuple = DEFAULT_EPS,
    truncation_t: float = DEFAULT_TRUNCATION,
    grid_n: int = DEFAULT_GRID_N,
) -> ComplementReport:
    """Window inside (t1, t2) against the truncated two-sided complement.

    Fits the Hilbert-Schmidt norm of the correlation operator against the
    rate 1-H that the two-sided estimate yields, with a 2T sensitivity
    rerun.
    """
    eps = _scan_schedule(h, eps, grid_n)
    for name, value in (("t1", t1), ("t", t), ("t2", t2), ("truncation_t", truncation_t)):
        check_finite(name, value)
    if not t1 < t < t2:
        raise ValueError("need t1 < t < t2")
    if t - eps[0] <= t1 or t + eps[0] >= t2:
        raise ValueError("windows must stay strictly inside (t1, t2)")
    if truncation_t <= (t2 - t1):
        raise ValueError("truncation_t must exceed the inner interval length")

    def scan(big_t):
        meta = {"experiment": "complement-window", "H": h, "t1": t1, "t": t, "t2": t2, "T": big_t}
        return _graded_scan(h, ((t1 - big_t, t1, "b"), (t2, t2 + big_t, "a")), t, eps, grid_n, meta)

    return _truncation_rerun(ComplementReport, h, scan, truncation_t, (("hs", 1.0 - h, math.nan),))


# ---------------------------------------------------------------------------
# two-dimensional isotropic field: ball-to-ball angle rate


@dataclass(frozen=True)
class Levy2dReport:
    fit_cos: ExponentFit
    table: ScanTable


def _ball_basis(center: np.ndarray, eps: float, grid_per_axis: int) -> IncrementBasis:
    """Increments from center to the cubic-lattice points inside the
    closed ball B(center, eps), center excluded, in as many dimensions
    as center has."""
    offs = np.linspace(-eps, eps, grid_per_axis)
    pts = np.column_stack([ax.ravel() for ax in np.meshgrid(*[offs] * len(center), indexing="ij")])
    inside = np.einsum("ij,ij->i", pts, pts) <= eps * eps * (1.0 + 1e-12)
    nonzero = np.any(pts != 0.0, axis=1)
    pts = pts[inside & nonzero]
    if pts.shape[0] < 8:
        raise ValueError("lattice too coarse: fewer than 8 points fall inside the ball")
    return IncrementBasis(s=np.tile(center, (len(pts), 1)), t=center[None, :] + pts)


def levy2d_scan(
    h: float,
    c1=(0.0, 0.0),
    c2=(1.0, 0.0),
    eps: tuple = DEFAULT_EPS,
    grid_per_axis: int = 9,
) -> Levy2dReport:
    """Ball-to-ball angle decay for the isotropic two-parameter field.

    Increments are differences X(p) - X(center) over lattice points p in
    each ball; the fitted cos slope is compared against 2-2H.
    """
    # too few lattice points per axis shows as too few points in a ball
    eps = _scan_schedule(h, eps, None)
    c1 = np.asarray(check_finite("c1", c1), dtype=float)
    c2 = np.asarray(check_finite("c2", c2), dtype=float)
    if c1.shape != (2,) or c2.shape != (2,):
        raise ValueError("centers must be 2-dimensional points")
    dist = float(np.linalg.norm(c2 - c1))
    if eps[0] >= dist / 2.0:
        raise ValueError("balls must be disjoint at the largest eps")

    rows = []
    for e in eps:
        # the field's increments are translation-invariant: both balls
        # have one Gram, factored once
        a, f = _side(_ball_basis(c1, e, grid_per_axis), h)
        b = _ball_basis(c2, e, grid_per_axis)
        rows.append(_make_row(e, (a, f), (b, f), h, len(a) * _MIN_RANK_FRACTION))
    meta = {
        "experiment": "levy2d",
        "H": h,
        "c1": f"({c1[0]!r},{c1[1]!r})",
        "c2": f"({c2[0]!r},{c2[1]!r})",
        "eps": _eps_meta(eps),
        "grid_per_axis": grid_per_axis,
        "rtol": RANK_RTOL,
    }
    table = ScanTable(rows=tuple(rows), meta=meta)
    fit = fit_exponent(table, "cos", theory=2.0 - 2.0 * h, correction_order=math.nan)
    return Levy2dReport(fit_cos=fit, table=table)

