"""Homogeneous fractional Sobolev inner products and explicit constants.

The norm is spectral,

    (phi, psi)_s = integral of phihat(xi) * conj(psihat(xi)) * |xi|^(2s) dxi,

with the unitary Fourier convention fhat(xi) = (2pi)^(-1/2) * integral of
exp(-i x xi) f(x) dx and |s| < 1/2.  Test functions are piecewise linear
with compact support, so their transforms are closed-form combinations
of complex exponentials and the time-domain FBM pairing is exact.

Quadrature is split at |xi| = 1 and needs no adaptive rule.  The head
is a fixed panel rule: Gauss-Jacobi for the integrable |xi|^(2s) factor
on [0, min(1, 1/span)], Gauss-Legendre panels on the rest.  Beyond 1 the
integrand is a sum of x^(2s-4) cos(delta x) over node pairs; rotating
the contour to x = 1 + it makes each term a decaying, non-oscillatory
integral, and one geometric Gauss-Legendre rule in t serves all of them
out to a t where an analytic bound puts the rest below 1e-8 of the head.
Each rule is checked against the same panels with twice the nodes.
Every Gauss rule comes from one Golub-Welsch generator (_jacobi): numpy's
symmetric eigensolver, one Newton step and Christoffel weights.

sobolev_inner takes one s or a 1-D sequence of s (and the pairing
functions one H or a sequence of H).  A sequence costs one quadrature
pass per pair: only the Jacobi nodes on [0, min(1, 1/span)] and the
weights xi^(2s) and (1 + it)^(2s-4) depend on s, so the transforms, the
panels and the e^(-delta t) sums are shared, and each s gets the value
a call with that s alone gives.

The lemma-2.2 dual norm needs no quadrature: its hat Gram row is the
kernels' lattice series (fourth difference) and its quadratic form the
same guarded Toeplitz solve as r_h_dual_gram.  The indicator norm is a
Gamma-function closed form, so nothing in fbmlocal runs adaptive
quadrature.  The module needs numpy only; scipy.integrate is imported
only if the module attribute sobolev.quad is asked for (see __getattr__
at the end).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from fbmlocal.kernels import _even_difference, _second_difference, _toeplitz_quadratic_form, check_hurst

__all__ = [
    "SMOOTH_GUARD",
    "TailNotConvergedError",
    "HeadNotConvergedError",
    "check_smoothness",
    "TestFunction",
    "sobolev_inner",
    "sobolev_norm",
    "indicator_sq_norm",
    "a_h_constant",
    "r_h_constant",
    "r_h_spectral",
    "fbm_pairing_time",
    "fbm_pairing_spectral",
    "pairing_identity_check",
    "lemma22_dual_norm",
]

SMOOTH_GUARD = 1e-9
# the dropped far tail of sobolev_inner stays below this fraction of the head
_TAIL_REL = 1e-8
# sobolev_inner's panel rules: nodes per panel (checked against twice as
# many), the most phase one head panel spans, and the allowed gap between
# the two rules as a fraction of the sum of |weight| * |integrand terms|
_PANEL_NODES = 16
_PANEL_PHASE = 16.0
_RULE_REL = 1e-8
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class TailNotConvergedError(RuntimeError):
    """The rotated-contour tail rule of sobolev_inner disagrees with its doubling."""


class HeadNotConvergedError(RuntimeError):
    """The panel head rule of sobolev_inner disagrees with its doubling."""


def check_smoothness(s: float) -> float:
    s = float(s)
    if not abs(s) < 0.5 - SMOOTH_GUARD:
        raise ValueError(f"smoothness index must satisfy |s| < 1/2, got {s}")
    return s


# ---------------------------------------------------------------------------
# piecewise-linear test functions


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported piecewise-linear function.

    nodes are strictly increasing breakpoints; values are the nodal
    values at the interior nodes (the function vanishes at and beyond
    the outermost nodes).
    """

    __test__ = False  # keep pytest from collecting this as a test class

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if values.shape != (nodes.size - 2,):
            raise ValueError("values must cover exactly the interior nodes")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(values)):
            raise ValueError("nodes and values must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @classmethod
    def hat(cls, center: float = 0.0, halfwidth: float = 1.0) -> "TestFunction":
        if halfwidth <= 0.0:
            raise ValueError("halfwidth must be positive")
        return cls(nodes=np.array([center - halfwidth, center, center + halfwidth]), values=np.array([1.0]))

    @classmethod
    def from_samples(cls, nodes, interior_values) -> "TestFunction":
        return cls(nodes=np.asarray(nodes, dtype=float), values=np.asarray(interior_values, dtype=float))

    # -- real-space views ---------------------------------------------------

    def nodal_values(self) -> np.ndarray:
        """Values at every node, zero endpoints included."""
        return np.concatenate([[0.0], self.values, [0.0]])

    def slopes(self) -> np.ndarray:
        """Derivative on each of the len(nodes)-1 intervals."""
        return np.diff(self.nodal_values()) / np.diff(self.nodes)

    def slope_jumps(self) -> np.ndarray:
        """Jump of the derivative at each node; the weights of f''."""
        s = self.slopes()
        return np.concatenate([[s[0]], np.diff(s), [-s[-1]]])

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.nodal_values(), left=0.0, right=0.0)

    def support(self) -> tuple:
        return float(self.nodes[0]), float(self.nodes[-1])

    def shifted(self, c: float) -> "TestFunction":
        return TestFunction(nodes=self.nodes + float(c), values=self.values)

    def dilated(self, k: float) -> "TestFunction":
        """x -> f(k x); support shrinks by the factor k for k > 1."""
        if k <= 0.0:
            raise ValueError("dilation factor must be positive")
        return TestFunction(nodes=self.nodes / float(k), values=self.values)

    # -- frequency-space view -----------------------------------------------

    def fourier(self, xi) -> np.ndarray:
        """Closed-form transform, (2pi)^(-1/2) integral exp(-i x xi) f(x) dx.

        A hat's half-element of width h transforms to h phi2(+-i h xi)
        (+ on the left), phi2(z) = (e^z - 1 - z) / z^2: a ten-term Taylor
        series where |h xi| <= 0.1, else expm1(z) / z^2 without the -1/z
        term, which a hat's two halves carry with opposite signs. One
        (hat element, xi) array.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        width = np.diff(self.nodes)[:, None]
        # one value per cell: phi2(conj z) = conj phi2(z) gives the other half
        z = 1j * width * xi
        big = np.abs(z) > 0.1
        half = np.empty_like(z)
        near = z[~big]
        acc = np.zeros_like(near)
        for c in _PHI2_SERIES:
            acc = acc * near + c
        half[~big] = acc
        half[big] = np.expm1(z[big]) / z[big] ** 2
        half *= width
        # a hat with one half on each branch gets its -1/z term back
        step = big[:-1].astype(float) - big[1:]
        shape = half[:-1] + np.conj(half[1:]) + 1j * step / np.where(step == 0.0, 1.0, xi)
        return self.values @ (np.exp(-1j * self.nodes[1:-1, None] * xi) * shape) / _SQRT_2PI


# fourier's phi2 series: 1/(k+2)! for k = 9, ..., 0, Horner order
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(9, -1, -1))


# ---------------------------------------------------------------------------
# the spectral inner product


def _cross_spectrum(phi: TestFunction, psi: TestFunction):
    """Cosine-sum form of Re(phihat * conj(psihat)),
    sum W cos(delta xi) / (2 pi xi^4), one term per pair of nodes: delta is
    their distance and W the product of the slope jumps there."""
    weight = np.outer(phi.slope_jumps(), psi.slope_jumps()).ravel()
    delta = np.abs(np.subtract.outer(phi.nodes, psi.nodes)).ravel()
    return delta, weight


@functools.lru_cache(maxsize=64)
def _jacobi(n: int, b: float = 0.0):
    """Nodes and weights of the n-node Gauss rule for the weight (1 + x)^b
    on [-1, 1], b > -1; Gauss-Legendre at b = 0.

    Golub-Welsch with a polish: the nodes are the eigenvalues of the
    symmetric Jacobi matrix of the Jacobi polynomials P^(0, b), then one
    Newton step on the orthonormal p_n.  A single vectorized pass of the
    three-term recurrence gives every p_k and p_k' at the nodes; the
    weights are the Christoffel numbers 1 / sum_(k < n) p_k^2 at the
    polished nodes (first order in the step).  The recurrence
    coefficients are rounded once from extended precision, which keeps
    the weights within 5e-14 relative at n <= 64.  Both are read-only.
    """
    k, bl = np.arange(1, n + 1, dtype=np.longdouble), np.longdouble(b)
    c = 2 * k + bl
    diag = np.concatenate(([bl / (bl + 2)], bl * bl / (c[:-1] * (c[:-1] + 2)))).astype(float)
    off = (2 * k * (k + bl) / (c * np.sqrt(c * c - 1))).astype(float)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1), UPLO="U")
    # p[k] = (p_k, p_k') at every node; off[k] p_(k+1) = (x - diag[k]) p_k - off[k-1] p_(k-1)
    p = np.zeros((n + 1, 2, n))
    p[0, 0] = math.sqrt((b + 1.0) / 2.0 ** (b + 1.0))
    shift = x - diag[:, None]
    for j in range(n):
        nxt = p[j + 1]
        np.multiply(shift[j], p[j], out=nxt)
        nxt[1] += p[j, 0]
        if j:
            nxt -= off[j - 1] * p[j - 1]
        nxt /= off[j]
    step = -p[n, 0] / p[n, 1]
    vals = p[:n, 0] + step * p[:n, 1]
    x, w = x + step, 1.0 / np.einsum("kj,kj->j", vals, vals)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rule(edges: np.ndarray, n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on every panel
    [edges[i], edges[i+1]], flattened."""
    x, w = _jacobi(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _checked_sum(
    coarse: np.ndarray, fine: np.ndarray, bound: np.ndarray, s: np.ndarray, n: int, what: str, error: type
) -> np.ndarray:
    """fine, the 2n-node sums of a panel rule, one per smoothness index in
    s.  Each is trusted only if the n-node sum in coarse agrees with it to
    _RULE_REL of bound, the 2n-node sum of weight * size, else error is
    raised naming its s; size bounds the terms each value was summed from
    (the weights are positive), so a value that cancels to round-off (an
    inner product that is zero by symmetry) does not trip the check."""
    gap = np.abs(coarse - fine)
    bad = np.flatnonzero(gap > _RULE_REL * bound)
    if bad.size:
        i = bad[0]
        raise error(f"{n}- and {2 * n}-node {what} rules differ by {gap[i]:.3e} at s = {s[i]} ({what} {fine[i]:.6e})")
    return fine


def _head_edges(a: float, span: float) -> np.ndarray:
    """Panel edges on [a, 1]: geometric (a 2^k), each cut into equal pieces
    of at most _PANEL_PHASE radians at frequency span."""
    geometric = np.append(a * 2.0 ** np.arange(math.ceil(math.log2(1.0 / a))), 1.0)
    cuts = [
        np.linspace(lo, hi, math.ceil((hi - lo) * span / _PANEL_PHASE), endpoint=False)
        for lo, hi in zip(geometric[:-1], geometric[1:])
    ]
    return np.concatenate(cuts + [[1.0]])


def _head(phi: TestFunction, psi: TestFunction, s, n: int = _PANEL_NODES) -> np.ndarray:
    """Integral over [0, 1] of Re(phihat * conj(psihat)) xi^(2s), one value
    per entry of s.

    The integrand's phases are node differences, at most the joint
    support span L.  On [0, a], a = min(1, 1/L), an n-node Gauss-Jacobi
    rule for the weight xi^(2s) absorbs the endpoint singularity and sees
    at most one radian of phase; [a, 1] is cut into geometric panels
    (a 2^k), each split until it spans at most _PANEL_PHASE radians, with
    an n-node Gauss-Legendre rule per panel.  Small fixed rules keep the
    Jacobi nodes accurate at any span and any |s| < 1/2.  The same panels
    with 2n nodes each give the returned value; if the two rules differ
    by more than _RULE_REL of the sum of |weight| |phihat| |psihat|, the
    call raises HeadNotConvergedError.  Only the Jacobi nodes and the
    weights depend on s: each transform is evaluated once, on the panel
    nodes and every s's Jacobi nodes together.
    """
    s = np.atleast_1d(s)
    span = max(phi.nodes[-1], psi.nodes[-1]) - min(phi.nodes[0], psi.nodes[0])
    a = min(1.0, 1.0 / span)
    edges = _head_edges(a, span)
    # per rule size: panel nodes and weights on [a, 1], and one row of
    # Jacobi nodes and weights per s, mapped by xi = a (1 + x) / 2 onto [0, a]
    rules = []
    for m in (n, 2 * n):
        y, v = _panel_rule(edges, m)
        x, w = map(np.array, zip(*(_jacobi(m, b) for b in 2.0 * s)))
        rules.append((y, v, 0.5 * a * (1.0 + x), (0.5 * a) ** (1.0 + 2.0 * s[:, None]) * w))
    xi = np.concatenate([part.ravel() for y, _, x, _ in rules for part in (y, x)])
    phat = phi.fourier(xi)
    psihat = phat if psi is phi else psi.fourier(xi)
    # per rule size, the weighted sums of the values and of their size
    # bounds, one per s; row-wise pairwise sums, so no value depends on
    # which other s share the call
    both = np.stack([np.real(phat * np.conj(psihat)), np.abs(phat) * np.abs(psihat)])
    sums, at = [], 0
    for y, v, x, w in rules:
        jac = slice(at + y.size, at + y.size + x.size)
        panel = np.sum(v * y ** (2.0 * s[:, None]) * both[:, None, at : jac.start], axis=-1)
        sums.append(np.sum(w * both[:, jac].reshape(2, *x.shape), axis=-1) + panel)
        at = jac.stop
    (coarse, _), (fine, bound) = sums
    return _checked_sum(coarse, fine, bound, s, n, "head", HeadNotConvergedError)


def _tail(delta: np.ndarray, weight: np.ndarray, s, scale, n: int = _PANEL_NODES) -> np.ndarray:
    """(1/2pi) sum_k W_k integral over [1, inf) of x^(2s-4) cos(delta_k x) dx,
    for phases delta_k > 0, one value per entry of s (and of scale).

    Rotating the contour to x = 1 + it (the arc vanishes since 2s - 4 < -3)
    turns each integral into Re[i e^(i delta) integral over [0, inf) of
    (1 + it)^(2s-4) e^(-delta t) dt], a non-oscillatory integrand.  One
    rule in t serves every term: geometric panels from [0, a],
    a = min(1/2, 1/max delta), doubling up to t_max, with n Gauss-Legendre
    nodes each.  Past t_max, |(1 + it)^(2s-4)| <= t^(2s-4) bounds the
    dropped part by sum |W_k| t_max^(2s-3) / (2 pi (3 - 2s)), and t_max is
    the first panel edge that puts this below _TAIL_REL of scale.  The
    grid reaches the largest t_max of the call and each s sums its own
    panels only, so a value does not depend on the other s; the
    e^(-delta t) node sums are computed once for all of them.  The 2n-node
    value is returned after the n-node check of _checked_sum
    (TailNotConvergedError).
    """
    s = np.atleast_1d(s)
    if delta.size == 0:
        return np.zeros(s.size)
    power = 3.0 - 2.0 * s
    a = min(0.5, 1.0 / float(delta.max()))
    t_max = (np.sum(np.abs(weight)) / (2.0 * math.pi * power * _TAIL_REL * scale)) ** (1.0 / power)
    # the last panel edge a 2^j of each s; the grid is the longest of them
    last = np.maximum(1.0, np.ceil(np.log2(t_max / a)))
    edges = np.append(0.0, a * 2.0 ** np.arange(last.max() + 1.0))
    (t_n, w_n), (t_2n, w_2n) = (_panel_rule(edges, m) for m in (n, 2 * n))
    t = np.concatenate([t_n, t_2n])
    # e^(-delta t) per node and term, exponents clipped so no subnormal appears
    decay = np.multiply.outer(t, -delta)
    np.exp(np.maximum(decay, -700.0, out=decay), out=decay)
    # the three node sums of every term, from one product
    terms = np.stack([weight * np.sin(delta), weight * np.cos(delta), np.abs(weight)])
    sin_part, cos_part, abs_part = terms @ decay.T
    # (1 + it)^beta = (1 + t^2)^(beta/2) e^(i beta arctan t), and
    # Re[i e^(i delta) (C + iS)] = -sin(delta) C - cos(delta) S
    beta = 2.0 * s[:, None] - 4.0
    angle = beta * np.arctan(t)
    radius = (1.0 + t * t) ** (0.5 * beta) / (2.0 * math.pi)
    f = radius * (-np.cos(angle) * sin_part - np.sin(angle) * cos_part)
    # row-wise pairwise sums as in _head, each s over its own panels only
    end = a * 2.0 ** last[:, None]
    w_n, w_2n, k = w_n * (t_n < end), w_2n * (t_2n < end), t_n.size
    coarse, fine = np.sum(w_n * f[:, :k], axis=-1), np.sum(w_2n * f[:, k:], axis=-1)
    bound = np.sum(w_2n * radius[:, k:] * abs_part[k:], axis=-1)
    return _checked_sum(coarse, fine, bound, s, n, "tail", TailNotConvergedError)


def _batch(values, check) -> tuple:
    """values as a 1-D float array, each entry passed through check, and
    whether they came as one scalar."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"need a scalar or a non-empty 1-D sequence, got shape {np.shape(values)}")
    return np.array([check(v) for v in arr]), np.ndim(values) == 0


def _unbatch(out: np.ndarray, scalar: bool):
    """A Python float for a scalar input, else the array."""
    return float(out[0]) if scalar else out


def sobolev_inner(phi: TestFunction, psi: TestFunction, s):
    """Homogeneous Sobolev inner product of order s, |s| < 1/2.

    s is a scalar (the result is a float) or a 1-D sequence (an array, one
    value per s); every s is checked before any quadrature runs, and the
    pair's transforms and tail sums are computed once for all of them.
    Twice the integral over xi > 0 of Re(phihat * conj(psihat)) xi^(2s):
    the head on [0, 1] by _head's panel rule, and [1, inf) in the
    cosine-sum form sum W xi^(2s-4) cos(delta xi) / (2 pi) with no cutoff,
    the delta = 0 terms in closed form (1 / (3 - 2s)) and every other term
    through _tail's rotated contour.  Both rules are checked
    against their doubling and raise HeadNotConvergedError or
    TailNotConvergedError naming the s that failed.
    """
    s, scalar = _batch(s, check_smoothness)
    delta, weight = _cross_spectrum(phi, psi)
    head = _head(phi, psi, s)
    flat = float(np.sum(weight[delta == 0.0])) / (2.0 * math.pi * (3.0 - 2.0 * s))
    live = (delta > 0.0) & (weight != 0.0)
    tail = _tail(delta[live], weight[live], s, np.maximum(np.abs(head), 1e-16 * float(np.sum(np.abs(weight)))))
    return _unbatch(2.0 * (head + flat + tail), scalar)


def sobolev_norm(phi: TestFunction, s):
    """sqrt of sobolev_inner(phi, phi, s), clipped at 0; s as there."""
    return _unbatch(np.sqrt(np.maximum(np.atleast_1d(sobolev_inner(phi, phi, s)), 0.0)), np.ndim(s) == 0)


# ---------------------------------------------------------------------------
# indicator norm and the explicit constants


def indicator_sq_norm(s: float) -> float:
    """Squared s-norm of the unit-interval indicator, in closed form.

    The transform satisfies |chihat(xi)|^2 = (1 - cos xi) / (pi xi^2), so
    the norm is (2/pi) * integral over (0, inf) of (1 - cos xi) *
    xi^(2s-2) dxi = Gamma(1 + 2s) sinc(s) / (1 - 2s) for |s| < 1/2, with
    sinc(s) = sin(pi s) / (pi s) and the value 1 at s = 0.  No quadrature.
    """
    s = check_smoothness(s)
    return math.gamma(1.0 + 2.0 * s) * float(np.sinc(s)) / (1.0 - 2.0 * s)


def a_h_constant(h: float) -> float:
    """sin(pi H) Gamma(1 + 2H); the increment-space isometry constant."""
    h = check_hurst(h)
    return math.sin(math.pi * h) * math.gamma(1.0 + 2.0 * h)


def r_h_constant(h: float) -> float:
    """Exact leading two-window constant r_H of the scan convention.

    Two windows of half-width eps a distance d apart have
    cos ~ r_H (eps/d)^(2-2H).  Far apart, the increment cross-covariance
    is H(2H-1) d^(2H-2) times the product of the two mean functionals,
    so r_H = H |2H-1| 2^(2-2H) M^2 with M^2 = sup (int f)^2 / Var(int f dX)
    over increment combinations on (0, 1): the Fisher information for
    the drift of FBM on [0, 1], 1/lambda_H with
    lambda_H = 2H Gamma(3-2H) Gamma(H+1/2) / Gamma(3/2-H) (Norros,
    Valkeila & Virtamo, Bernoulli 5(4), 1999).  Hence

        r_H = |2H-1| 2^(1-2H) Gamma(3/2-H) / (Gamma(3-2H) Gamma(H+1/2)).
    """
    h = check_hurst(h)
    return (
        abs(2.0 * h - 1.0) * 2.0 ** (1.0 - 2.0 * h) * math.gamma(1.5 - h)
        / (math.gamma(3.0 - 2.0 * h) * math.gamma(h + 0.5))
    )


def r_h_spectral(h: float) -> float:
    """Zero-extension diagnostic H |2H-1| times the indicator norm squared
    at smoothness H - 1/2.

    Not the constant of the two-window law (that is r_h_constant): it
    takes the norm of the zero-extended unit-interval indicator where the
    law needs the dual norm of the mean functional over increment
    combinations on (0, 1), and it omits the isometry factor 1/a_H and the
    window-length factor 2^(2-2H) of the half-width convention.
    """
    h = check_hurst(h)
    if h == 0.5:
        return 0.0
    return h * abs(2.0 * h - 1.0) * indicator_sq_norm(h - 0.5)


# ---------------------------------------------------------------------------
# FBM pairing: exact time-domain route vs spectral route


def fbm_pairing_time(phi1: TestFunction, phi2: TestFunction, h: float) -> float:
    """E of the product of the two X-integrals, by exact rectangle integrals.

    The pairing integrates 0.5(|u|^2H + |v|^2H - |u-v|^2H) against
    phi1'(u) phi2'(v); the single-variable pieces drop because each phi'
    integrates to zero, and the |u-v| piece has the closed double
    antiderivative |x|^(2H+2) / ((2H+1)(2H+2)), so each pair of slope
    intervals contributes the kernels' second difference at power 2H+2
    and no quadrature is involved.
    """
    h = check_hurst(h)
    two_h = 2.0 * h
    p1, p2 = phi1.nodes, phi2.nodes
    rect = _second_difference(p1[:-1], p1[1:], p2[:-1], p2[1:], two_h + 2.0)
    return -float(phi1.slopes() @ rect @ phi2.slopes()) / ((two_h + 1.0) * (two_h + 2.0))


def fbm_pairing_spectral(phi1: TestFunction, phi2: TestFunction, h):
    """Same pairing through the frequency side: a_H (phi1, phi2)_{1/2 - H}.

    h is a scalar or a 1-D sequence, as s in sobolev_inner: one quadrature
    pass serves every H."""
    h, scalar = _batch(h, check_hurst)
    a_h = np.array([a_h_constant(v) for v in h])
    return _unbatch(a_h * sobolev_inner(phi1, phi2, 0.5 - h), scalar)


def pairing_identity_check(phi1: TestFunction, phi2: TestFunction, h):
    """Relative discrepancy between the two pairing routes; h as in
    fbm_pairing_spectral."""
    h, scalar = _batch(h, check_hurst)
    t = np.array([fbm_pairing_time(phi1, phi2, v) for v in h])
    f = fbm_pairing_spectral(phi1, phi2, h)
    return _unbatch(np.abs(t - f) / np.maximum(np.abs(f), np.finfo(float).eps), scalar)


# ---------------------------------------------------------------------------
# dual-norm decay on the half line


def _hat_gram_row(pts: np.ndarray, s: float) -> np.ndarray:
    """First row of the (Toeplitz) s-Gram of the hats on the interior
    uniform nodes pts[1:-1].  By (phi, psi)_s = E[X(phi) X(psi)] / a_H at
    H = 1/2 - s, hats j cells of width dx apart pair to
    0.5 Delta^4 |j|^p dx^p / (dx^2 (p-1) p a_H) with p = 2H + 2, summed as
    the kernels' lattice series at j >= 3: far entries keep full precision.
    """
    dx = pts[1] - pts[0]
    h = 0.5 - s
    p = 2.0 * h + 2.0
    row = _even_difference(np.arange(pts.size - 2, dtype=float), p, (6.0, -4.0, 1.0))
    return row * dx**p / (dx * dx * (p - 1.0) * p * a_h_constant(h))


def _hat_pairings(alpha: float, k: float, pts: np.ndarray) -> np.ndarray:
    """Integrals of the hats on the interior uniform nodes pts[1:-1]
    against (k - x)^(-alpha).

    A hat's second derivative is (delta_{x-} - 2 delta_x + delta_{x+}) / dx,
    so each integral is the second difference of G / dx with
    G'' = (k - x)^(-alpha).  In units of dx, x = (k - node) / dx: at
    alpha = 2 (G = -log) that is -log1p(-x^-2) / dx, else
    2 dx^(1-alpha) / ((1-alpha)(2-alpha)) times the kernels' second
    difference at p = 2 - alpha.  Neither form cancels, and the offsets
    from the last node are exact integers.
    """
    n = pts.size - 2
    dx = (pts[-1] - pts[0]) / (n + 1)
    x = (k - pts[-1]) / dx + np.arange(n, 0, -1, dtype=float)
    if alpha == 2.0:
        return -np.log1p(-1.0 / (x * x)) / dx
    q = 2.0 - alpha
    return 2.0 * dx ** (1.0 - alpha) * _even_difference(x, q, (-2.0, 1.0)) / ((1.0 - alpha) * q)


def lemma22_dual_norm(
    alpha: float,
    s: float,
    k: float,
    truncation_t: float = 64.0,
    n: int = 128,
) -> float:
    """Discretized dual norm of x -> (k - x)^(-alpha) over W^s functions
    supported in (-T, 0).

    The supremum of the pairing over the unit ball of the span of n hats
    on a uniform grid of (-T, 0) is sqrt(w' M^-1 w), with no quadrature:
    M is the Toeplitz Sobolev Gram of the hats (row _hat_gram_row) and w
    holds the exact pairings of the hats with (k - x)^(-alpha).  The form
    is the kernels' guarded Toeplitz solve, as for r_h_dual_gram: no n x n
    matrix, and LinAlgError unless the relative residual is at most 1e-8
    and w' M^-1 w > 0.
    """
    s = check_smoothness(s)
    if k < 2.0:
        raise ValueError("k must be at least 2")
    if alpha <= 0.5 + s:
        raise ValueError("need alpha > 1/2 + s for a decaying dual norm")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is excluded")
    pts = np.linspace(-truncation_t, 0.0, n + 2)
    w = _hat_pairings(alpha, k, pts)
    return math.sqrt(_toeplitz_quadratic_form(_hat_gram_row(pts, s), w, f"s={s}, T={truncation_t}, n={n}"))


def __getattr__(name):
    # The benchmark's frozen tracer reads sobolev.quad, which nothing here
    # calls any more; import it only on that request so that no fbmlocal
    # process pays for scipy.integrate.  Removed with the tracer's quad wrap
    # (ROADMAP item 7).
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
