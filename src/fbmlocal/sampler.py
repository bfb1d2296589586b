"""Exact Gaussian sampling of stationary-increment paths on uniform grids.

Two exact colourings of white normals, chosen from n alone:

- n <= _CHOLESKY_MAX_N ("cholesky"): n white normals per path times the
  transposed lower Cholesky factor of the n x n increment Gram
  (kernels.uniform_gram). A Gram that Cholesky rejects raises
  RuntimeError.
- larger n ("circulant"; Davies-Harte, Dietrich-Newsam): the increment
  autocovariance gamma(0), ..., gamma(n), mirrored into the minimal
  circulant of size 2n, has eigenvalues lambda, and the first n entries
  of the FFT of a white complex vector scaled by sqrt(lambda / 2n) have
  the exact joint law of n increments; the real and imaginary parts are
  two independent paths. increment_autocov sums its lattice series, so
  the column carries no cancellation and the spectrum stays clear of the
  PSD boundary even near H = 1: lambda_min / lambda_max is at least
  +1.3e-12 on n in {2000, 32768, 65536} x H in {0.9991, 0.9995, 0.99985,
  1 - 1e-7}. A spectrum below -1e-12 of its largest eigenvalue raises
  RuntimeError and a non-finite one ValueError.

A Cholesky path costs n normals and n^2 multiply-adds, a circulant one 2n
normals and an O(n log n) transform; below the bound the normals
dominate. Neither route falls back to the other. The m paths are cut into
blocks of 2 * max(1, _FFT_ELEMENTS // 2n) paths, one FFT call each on
the circulant route. Block b draws from the b-th SFC64 stream spawned
from the seed, so the seed alone fixes the output, whatever the core
count. The thread pool runs one task per block on min(_WORKERS, blocks)
workers, and each draw makes its own normals, so at most
min(_WORKERS, blocks) blocks' normals are alive at once.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fbmlocal.geometry import mutual_information_det
from fbmlocal.kernels import check_finite, check_hurst, increment_autocov, uniform_gram

__all__ = [
    "SamplePaths",
    "sample_fbm_increments",
    "lag1_increment_correlation",
    "empirical_mi_check",
    "write_samples",
    "load_samples",
]

# one worker per core: a block's draw and colouring are compute-bound
_WORKERS = os.cpu_count() or 1

# complex elements (rows x embedding size) of one FFT call on the circulant
# route, and so of one block's draw; a block is at least one row
_FFT_ELEMENTS = 1 << 16

# largest n coloured by the Cholesky factor. On 2 vCPUs the Cholesky route
# draws 800k or 2M increments about twice as fast as the circulant one at
# n = 8 to 64; the circulant route is the faster from n = 128 (2M per
# draw) or n = 256 (800k per draw) on, and 6x so at n = 1024
_CHOLESKY_MAX_N = 64

# multiply-adds of one colouring product: OpenBLAS runs a product of up to
# 2^18 on the calling thread, and a larger one wakes its thread pool,
# which then spins for ~0.13 s of CPU after the call
_SERIAL_PRODUCT = 1 << 18


@dataclass(frozen=True)
class SamplePaths:
    m: int
    n: int
    dt: float
    h: float
    seed: int
    method: str
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.m, self.n):
            raise ValueError("data must be an m x n matrix")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("sample paths must be finite")


def _embedding_spectrum(n: int, h: float, dt: float) -> np.ndarray:
    """Eigenvalues of the size-2n circulant extension of gamma(0..n).

    Raises ValueError when the transform overflows float64 and
    RuntimeError when the extension is not PSD.
    """
    g = increment_autocov(np.arange(n + 1), h, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.fft.fft(np.concatenate([g, g[-2:0:-1]])).real
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"circulant spectrum overflows float64 at n={n}, H={h}, dt={dt:g}")
    # exact spectrum is real; tolerate rounding at the PSD boundary
    if lam.min() < -1e-12 * abs(lam).max():
        raise RuntimeError(f"circulant embedding not PSD at n={n}, H={h}: "
                           f"smallest eigenvalue {lam.min():.3e} of {abs(lam).max():.3e}")
    return np.maximum(lam, 0.0)


def _gram_factor(n: int, h: float, dt: float) -> np.ndarray:
    """Lower Cholesky factor L of the increment Gram, L L' = uniform_gram(n, h, dt).

    Raises RuntimeError when Cholesky rejects the Gram.
    """
    try:
        return np.linalg.cholesky(uniform_gram(n, h, dt))
    except np.linalg.LinAlgError:
        raise RuntimeError(f"increment Gram not positive definite at n={n}, H={h}") from None


def _block_paths(n: int) -> int:
    """Paths per block: those of one FFT call on the circulant route."""
    return 2 * max(1, _FFT_ELEMENTS // (2 * n))


def _draw_cholesky(upper, rng, out):
    """Fill out (p x n) with exact samples from one stream: p rows of white
    normals times upper = L', in products small enough to stay serial."""
    z = rng.standard_normal(out.shape)
    rows = max(1, _SERIAL_PRODUCT // upper.size)
    for i in range(0, len(out), rows):
        np.matmul(z[i : i + rows], upper, out=out[i : i + rows])


def _draw_circulant(scale, rng, out):
    """Fill out (p x n) with exact samples from one stream and one FFT call.

    rng draws ceil(p/2) rows of 2 * size white normals, read as the
    interleaved real and imaginary parts of ceil(p/2) complex rows; scale
    (sqrt(lambda / size), each entry twice) colours them, and after the
    transform the real and imaginary parts of row i become paths 2i and
    2i + 1.
    """
    paths, n = out.shape
    white = rng.standard_normal(((paths + 1) // 2, scale.size))
    white *= scale
    z = white.view(complex)
    np.fft.fft(z, out=z)
    out[0::2] = z.real[:, :n]
    out[1::2] = z.imag[: paths // 2, :n]


def sample_fbm_increments(
    n: int,
    dt: float,
    h: float,
    m: int,
    seed: int,
) -> SamplePaths:
    """m paths of n increments with the exact joint law at spacing dt."""
    check_hurst(h)
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    check_finite("dt", dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    if n <= _CHOLESKY_MAX_N:
        method, draw = "cholesky", functools.partial(_draw_cholesky, _gram_factor(n, h, dt).T)
    else:
        lam = _embedding_spectrum(n, h, dt)
        method, draw = "circulant", functools.partial(_draw_circulant, np.repeat(np.sqrt(lam / lam.size), 2))
    per = _block_paths(n)
    blocks = -(-m // per)
    streams = [np.random.Generator(np.random.SFC64(s)) for s in np.random.SeedSequence(seed).spawn(blocks)]
    data = np.empty((m, n))
    with ThreadPoolExecutor(max_workers=min(_WORKERS, blocks)) as pool:
        list(pool.map(draw, streams, (data[i : i + per] for i in range(0, m, per))))
    return SamplePaths(m=m, n=n, dt=float(dt), h=h, seed=int(seed), method=method, data=data)


def lag1_increment_correlation(paths: SamplePaths):
    """Pooled lag-1 correlation r = sum a_i / sum b_i of the paths' lag-1
    and lag-0 sums (a mean of per-path ratios is biased by several SE at
    high H), with the ratio estimator's between-path standard error
    sqrt(sum (a_i - r b_i)^2 / (m (m-1))) / mean b_i. The increments are
    zero mean by the model, so no mean subtraction.
    """
    x = paths.data
    if paths.n < 2:
        raise ValueError("need at least 2 increments per path")
    # row sums without an m x n product temporary
    num = np.einsum("ij,ij->i", x[:, :-1], x[:, 1:])
    den = np.einsum("ij,ij->i", x, x)
    r = num.sum() / den.sum()
    resid, m = num - r * den, paths.m
    se = math.sqrt(resid @ resid / (m * (m - 1))) / den.mean() if m > 1 else math.inf
    return float(r), float(se)


def empirical_mi_check(paths: SamplePaths, split: int):
    """Plug-in Gaussian MI across a split, against the analytic value.

    The sample covariance uses the known zero mean (divide by m); the
    plug-in estimate carries the usual ~dim^2/m bias, which is the
    caller's concern. The analytic covariance is the Toeplitz matrix of
    the column the paths are drawn from. Returns (empirical, analytic, gap).
    """
    if not 1 <= split <= paths.n - 1:
        raise ValueError("split must leave both sides nonempty")
    if paths.m <= paths.n:
        raise ValueError("singular sample covariance: need m > n")
    x = paths.data
    s = x.T @ x / paths.m
    emp = mutual_information_det(s[:split, :split], s[split:, split:], s[:split, split:])

    g = uniform_gram(paths.n, paths.h, paths.dt)
    ana = mutual_information_det(g[:split, :split], g[split:, split:], g[:split, split:])
    return float(emp), float(ana), float(abs(emp - ana))


def write_samples(paths: SamplePaths, data_path) -> None:
    """Row-major little-endian float64 dump plus the JSON sidecar <data>.json."""
    np.asarray(paths.data, "<f8").tofile(data_path)  # no copy on a little-endian host
    meta = {
        "n": paths.n,
        "m": paths.m,
        "dt": paths.dt,
        "H": paths.h,
        "seed": paths.seed,
        "method": paths.method,
    }
    Path(f"{data_path}.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_samples(data_path) -> SamplePaths:
    meta = json.loads(Path(f"{data_path}.json").read_text())
    data = np.fromfile(data_path, dtype="<f8").reshape(meta["m"], meta["n"])
    return SamplePaths(
        m=meta["m"],
        n=meta["n"],
        dt=meta["dt"],
        h=meta["H"],
        seed=meta["seed"],
        method=meta["method"],
        data=data,
    )
