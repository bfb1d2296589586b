"""Exact Gaussian sampling of stationary-increment paths on uniform grids.

Circulant embedding of the increment autocovariance gives exact finite
dimensional distributions at FFT cost; a dense symmetric-factor route
covers a non-PSD embedding, which rounding in increment_autocov causes
near H = 1: the embedding fails from H = 1 - 1e-7 at n = 2000, about
0.99985 at n = 32768 and 0.9991 at n = 65536 (never for n <= 256), and
larger embeddings fail as well. Streams are counter-based and
split per block of BLOCK_PATHS paths, so the seed alone fixes the
output, whatever the thread count.

The circulant route works on chunks of consecutive blocks: each block
draws its normals from its own stream into its rows of the chunk's
buffers, and the whole chunk is transformed in as few FFT calls as
_FFT_ELEMENTS allows. Every buffer is made before the thread pool
starts, so peak memory does not depend on thread scheduling.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fbmlocal.geometry import mutual_information_det
from fbmlocal.kernels import TimeGrid, IncrementBasis, check_hurst, gram, increment_autocov

__all__ = [
    "SamplePaths",
    "sample_fbm_increments",
    "lag1_increment_correlation",
    "empirical_mi_check",
    "write_samples",
    "load_samples",
]

# paths per independent stream; blocks merge by index so the seed fully
# determines the output regardless of thread count
BLOCK_PATHS = 64

# the ThreadPoolExecutor default, used when no thread count is passed
_DEFAULT_WORKERS = min(32, (os.cpu_count() or 1) + 4)

# complex elements (rows x embedding size) of one FFT call; a circulant
# chunk holds as many whole blocks as fill one call, and at least one
_FFT_ELEMENTS = 1 << 16


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


def _embedding_spectrum(n: int, h: float, dt: float):
    """Eigenvalues of the size-4n circulant extension of gamma and that
    size, or (None, 0) when the extension is not PSD."""
    g = increment_autocov(np.arange(2 * n + 1), h, dt)
    circ = np.concatenate([g, g[-2:0:-1]])
    lam = np.fft.fft(circ).real
    # exact spectrum is real; tolerate rounding at the PSD boundary
    if lam.min() >= -1e-12 * abs(lam).max():
        return np.maximum(lam, 0.0), circ.size
    return None, 0


def _chunk_blocks(size: int) -> int:
    """Blocks per circulant chunk at embedding size."""
    return max(1, _FFT_ELEMENTS // size // (BLOCK_PATHS // 2))


def _circulant_chunk(rngs, scale, out, work):
    """Fill out (p x n) with exact samples via FFT of a complex white spectrum.

    Real and imaginary parts of one transform are independent samples,
    so p paths cost ceil(p/2) transforms. rngs holds one stream per
    block of out; each block draws its real then its imaginary normals
    into its own rows of the re and im buffers, so the rows stay
    contiguous (only the last block may be short). work is the worker's
    (re, im, z) buffers from _circulant_work, reused from chunk to
    chunk; the transforms run len(z) rows at a time in z, and the real
    and imaginary parts of row i become paths 2i and 2i + 1.
    """
    paths, n = out.shape
    draws = (paths + 1) // 2
    re, im, z = work
    for b, rng in enumerate(rngs):
        own = slice(b * (BLOCK_PATHS // 2), min((b + 1) * (BLOCK_PATHS // 2), draws))
        rng.standard_normal(out=re[own])
        rng.standard_normal(out=im[own])
    for i in range(0, draws, len(z)):
        zc = z[: min(len(z), draws - i)]
        np.multiply(re[i : i + len(zc)], scale, out=zc.real)
        np.multiply(im[i : i + len(zc)], scale, out=zc.imag)
        np.fft.fft(zc, out=zc)
        rows = out[2 * i : 2 * (i + len(zc))]
        rows[0::2] = zc.real[:, :n]
        rows[1::2] = zc.imag[: len(rows) // 2, :n]


def _circulant_work(size: int, m: int):
    """One worker's (re, im, z) buffers, for a chunk or all m paths if fewer."""
    draws = min(_chunk_blocks(size) * BLOCK_PATHS, m + 1) // 2
    rows = min(draws, max(1, _FFT_ELEMENTS // size))
    return np.empty((draws, size)), np.empty((draws, size)), np.empty((rows, size), complex)


def _dense_block(rng, factor, out):
    out[...] = rng.standard_normal((len(out), factor.shape[0])) @ factor.T


def sample_fbm_increments(
    n: int,
    dt: float,
    h: float,
    m: int,
    seed: int,
    method: str = "auto",
    threads: int | None = None,
) -> SamplePaths:
    """m paths of n increments with the exact joint law at spacing dt.

    method 'auto' uses circulant embedding and falls back to a dense
    symmetric factor if the embedding is not PSD; the method that ran
    is recorded on the result.
    """
    check_hurst(h)
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in ("auto", "circulant", "dense"):
        raise ValueError("method must be auto, circulant, or dense")

    lam = None
    if method in ("auto", "circulant"):
        lam, size = _embedding_spectrum(n, h, dt)
        if lam is None and method == "circulant":
            raise RuntimeError("circulant embedding not PSD")
    if lam is not None:
        ran, per = "circulant", _chunk_blocks(size)
        scale = np.sqrt(lam / size)

        def fill(rngs, out, work):
            _circulant_chunk(rngs, scale, out, work)

    else:
        ran, per = "dense", 1
        cov = _toeplitz_cov(n, h, dt)
        w, u = np.linalg.eigh(cov)
        if w.min() < -1e-10 * w.max():
            raise RuntimeError("increment covariance not PSD; both methods failed")
        factor = u * np.sqrt(np.maximum(w, 0.0))

        def fill(rngs, out, work):
            _dense_block(rngs[0], factor, out)

    streams = [np.random.Generator(np.random.Philox(s))
               for s in np.random.SeedSequence(seed).spawn(-(-m // BLOCK_PATHS))]
    chunk = per * BLOCK_PATHS
    chunks = -(-m // chunk)
    data = np.empty((m, n))
    # worker k fills chunks k, k + workers, ... with its own buffers, all
    # made here, so memory in use does not depend on thread scheduling
    workers = min(_DEFAULT_WORKERS if threads is None else threads, chunks)
    works = [_circulant_work(size, m) if lam is not None else None for _ in range(workers)]

    def run(k):
        for c in range(k, chunks, workers):
            fill(streams[c * per : (c + 1) * per], data[c * chunk : (c + 1) * chunk], works[k])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))
    return SamplePaths(m=m, n=n, dt=float(dt), h=h, seed=int(seed), method=ran, data=data)


def _toeplitz_cov(n: int, h: float, dt: float) -> np.ndarray:
    g = increment_autocov(np.arange(n), h, dt)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return g[idx]


def lag1_increment_correlation(paths: SamplePaths):
    """Pooled lag-1 correlation estimate with a between-path standard error.

    Per-path ratios are averaged; the increments are zero mean by the
    model, so no mean subtraction.
    """
    x = paths.data
    if paths.n < 2:
        raise ValueError("need at least 2 increments per path")
    num = np.sum(x[:, :-1] * x[:, 1:], axis=1)
    den = np.sum(x * x, axis=1)
    r = num / den
    se = r.std(ddof=1) / math.sqrt(paths.m) if paths.m > 1 else math.inf
    return float(r.mean()), float(se)


def empirical_mi_check(paths: SamplePaths, split: int):
    """Plug-in Gaussian MI across a split, against the analytic value.

    The sample covariance uses the known zero mean (divide by m); the
    plug-in estimate carries the usual ~dim^2/m bias, which is the
    caller's concern. Returns (empirical, analytic, gap).
    """
    if not 1 <= split <= paths.n - 1:
        raise ValueError("split must leave both sides nonempty")
    if paths.m <= paths.n:
        raise ValueError("singular sample covariance: need m > n")
    x = paths.data
    s = x.T @ x / paths.m
    emp = mutual_information_det(s[:split, :split], s[split:, split:], s[:split, split:])

    basis = IncrementBasis.from_grid(TimeGrid(0.0, paths.n * paths.dt, paths.n + 1))
    g = gram(basis, paths.h)
    ana = mutual_information_det(g[:split, :split], g[split:, split:], g[:split, split:])
    return float(emp), float(ana), float(abs(emp - ana))


def write_samples(paths: SamplePaths, data_path, sidecar_path=None) -> None:
    """Row-major little-endian float64 dump plus a JSON sidecar."""
    data_path = Path(data_path)
    if sidecar_path is None:
        sidecar_path = data_path.with_suffix(data_path.suffix + ".json")
    paths.data.astype("<f8").tofile(data_path)
    meta = {
        "n": paths.n,
        "m": paths.m,
        "dt": paths.dt,
        "H": paths.h,
        "seed": paths.seed,
        "method": paths.method,
    }
    Path(sidecar_path).write_text(json.dumps(meta, indent=2) + "\n")


def load_samples(data_path, sidecar_path=None) -> SamplePaths:
    data_path = Path(data_path)
    if sidecar_path is None:
        sidecar_path = data_path.with_suffix(data_path.suffix + ".json")
    meta = json.loads(Path(sidecar_path).read_text())
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
