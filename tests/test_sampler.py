"""Sampler: analytic autocovariance, determinism, statistical checks."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fbmlocal import sampler
from fbmlocal.experiments import adjacency_mi_table
from fbmlocal.kernels import IncrementBasis, TimeGrid, gram, uniform_gram
from fbmlocal.sampler import (
    SamplePaths,
    _CHOLESKY_MAX_N,
    _FFT_ELEMENTS,
    _block_paths,
    _embedding_spectrum,
    _gram_factor,
    empirical_mi_check,
    increment_autocov,
    lag1_increment_correlation,
    load_samples,
    sample_fbm_increments,
    write_samples,
)


def test_autocov_values():
    # gamma(0) = dt^{2H}; Brownian increments are white
    for h, dt in ((0.3, 1.0), (0.75, 0.5)):
        assert increment_autocov(0, h, dt) == pytest.approx(dt ** (2 * h), rel=1e-14)
    ks = np.arange(1, 10)
    assert np.allclose(increment_autocov(ks, 0.5, 1.0), 0.0, atol=1e-14)
    # lag-1 correlation 2^{2H-1} - 1
    for h in (0.25, 0.6, 0.9):
        rho = increment_autocov(1, h, 1.0) / increment_autocov(0, h, 1.0)
        assert rho == pytest.approx(2.0 ** (2 * h - 1.0) - 1.0, rel=1e-13)


def test_autocov_long_range_sign():
    ks = np.arange(1, 50)
    assert np.all(increment_autocov(ks, 0.8, 1.0) > 0.0)
    assert np.all(increment_autocov(ks, 0.2, 1.0) < 0.0)


def test_determinism_and_seed_sensitivity():
    a = sample_fbm_increments(256, 1.0, 0.7, 8, seed=123)
    b = sample_fbm_increments(256, 1.0, 0.7, 8, seed=123)
    c = sample_fbm_increments(256, 1.0, 0.7, 8, seed=124)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.method == "circulant"


def test_thread_count_does_not_change_samples(monkeypatch):
    # n = 2048 makes 32-path blocks, so 200 paths are 7 blocks, drawn by
    # pools of 1, 2, 3 and 6 workers (one per core on 1- to 6-core hosts)
    want = sample_fbm_increments(2048, 1.0, 0.7, 200, seed=5).data
    for workers in (1, 2, 3, 6):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        assert np.array_equal(sample_fbm_increments(2048, 1.0, 0.7, 200, seed=5).data, want)


def _increment_cov(n, h, dt):
    return gram(IncrementBasis.from_grid(TimeGrid(0.0, n * dt, n + 1)), h)


def _block_streams(n, m, seed):
    # (paths, stream) of each block: 2 * max(1, _FFT_ELEMENTS // 2n) paths
    # from the block's own SFC64 stream, the last block the remainder
    per = 2 * max(1, _FFT_ELEMENTS // (2 * n))
    for i, s in enumerate(np.random.SeedSequence(seed).spawn(-(-m // per))):
        yield min(per, m - per * i), np.random.Generator(np.random.SFC64(s))


def test_buffered_blocks_match_whole_block_transform(monkeypatch):
    # each block is drawn from its own stream by its own pool task and
    # must equal one colouring of the whole block. On the Cholesky
    # route (n <= _CHOLESKY_MAX_N) that is the block's p x n normals times
    # L', L the Gram's lower Cholesky factor: three blocks at n = 8 (the
    # last an odd 37 paths) and at n = 64, where a block takes 16 serial
    # products. On the circulant route it is one transform of the whole
    # block, the real and imaginary parts of row i being paths 2i and
    # 2i + 1: six 12-path blocks at n = 5000 ending in an odd 7, with
    # workers fewer than blocks; one-row blocks at n = 40000, where the
    # embedding alone exceeds _FFT_ELEMENTS
    cases = ((8, 1.0, 0.75, 2 * 8192 + 37, 9),
             (64, 0.5, 0.3, 2 * 1024 + 37, 4),
             (5000, 0.5, 0.3, 5 * 12 + 7, 42),
             (40000, 1.0, 0.6, 5, 3))
    for n, dt, h, m, seed in cases:
        parts = []
        if n <= _CHOLESKY_MAX_N:
            lower = np.linalg.cholesky(uniform_gram(n, h, dt))
            for paths, rng in _block_streams(n, m, seed):
                parts.append(rng.standard_normal((paths, n)) @ lower.T)
        else:
            lam = _embedding_spectrum(n, h, dt)
            size = 2 * n
            assert lam.shape == (size,)
            for paths, rng in _block_streams(n, m, seed):
                draws = (paths + 1) // 2
                w = rng.standard_normal((draws, 2 * size))
                y = np.fft.fft((w[:, 0::2] + 1j * w[:, 1::2]) * np.sqrt(lam / size))[:, :n]
                parts.append(np.stack([y.real, y.imag], axis=1).reshape(2 * draws, n)[:paths])
        want = np.concatenate(parts)
        for workers in (1, 2, 3, 6):
            monkeypatch.setattr(sampler, "_WORKERS", workers)
            got = sample_fbm_increments(n, dt, h, m, seed=seed)
            assert got.method == ("cholesky" if n <= _CHOLESKY_MAX_N else "circulant")
            assert np.array_equal(got.data, want)


def test_worker_buffers_stay_within_budget(monkeypatch):
    # one pool task per block, each making its own white normals: the
    # traced peak above the m x n output stays within min(_WORKERS, blocks)
    # blocks' normals (p x n reals on the Cholesky route, ceil(p/2) rows
    # of 4n reals on the circulant one), plus the colouring's own arrays
    # (the Gram and its factor, 4 x 8n^2 bytes, or the embedding's
    # column, spectrum and scale, 6 x 16n), the m x n bytes of
    # SamplePaths' finite mask and 64 KiB for streams, pool and futures.
    # Least margin under the budget over _WORKERS = 1, 2, 3, 6 and five
    # runs on 2 vCPUs: 0.57 MB at (8, 100000), 0.28 MB at (64, 2085),
    # 1.25 MB at (4096, 256), 2.20 MB at (40000, 6) and 61 kB at (16, 2).
    # Per-worker buffers made before the pool started left 0.04, 0.15,
    # 0.23, 1.97 MB and 61 kB
    for n, m in ((8, 100_000), (64, 2085), (4096, 256), (40000, 6), (16, 2)):
        per = _block_paths(n)
        blocks = -(-m // per)
        p = min(per, m)
        if n <= _CHOLESKY_MAX_N:
            normals, colouring = 8 * p * n, 4 * 8 * n * n
        else:
            normals, colouring = 8 * ((p + 1) // 2) * 4 * n, 6 * 16 * n
        for workers in (1, 2, 3, 6):
            monkeypatch.setattr(sampler, "_WORKERS", workers)
            sample_fbm_increments(n, 1.0, 0.7, m, seed=0)
            tracemalloc.start()
            try:
                sample_fbm_increments(n, 1.0, 0.7, m, seed=0)
                above = tracemalloc.get_traced_memory()[1] - 8 * m * n
            finally:
                tracemalloc.stop()
            budget = min(workers, blocks) * normals + colouring + m * n + (64 << 10)
            assert above <= budget, (n, m, workers, above, budget)


def test_sampled_covariance_matches_gram():
    # the sampled covariance targets the increment Gram of the grid on
    # both routes: n = 1, 2, 8 and _CHOLESKY_MAX_N by the Cholesky factor,
    # the next n by circulant embedding
    m, h = 60_000, 0.75
    for n in (1, 2, 8, _CHOLESKY_MAX_N, _CHOLESKY_MAX_N + 1):
        p = sample_fbm_increments(n, 1.0, h, m, seed=77)
        assert p.method == ("cholesky" if n <= _CHOLESKY_MAX_N else "circulant")
        target = _increment_cov(n, h, 1.0)
        emp = p.data.T @ p.data / m
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_marginal_variance():
    for h, dt in ((0.25, 1.0), (0.75, 0.25)):
        p = sample_fbm_increments(128, dt, h, 800, seed=3)
        var = p.data.var(axis=0, ddof=0).mean()
        # pooled estimate over 102k samples; 3 sigma with kurtosis 3
        se = dt ** (2 * h) * math.sqrt(2.0 / (128 * 800))
        assert abs(var - dt ** (2 * h)) <= 5 * se


def test_frobenius_convergence_rate():
    n, h = 16, 0.7
    target = _increment_cov(n, h, 1.0)
    dists = []
    for m in (1_000, 10_000, 100_000):
        p = sample_fbm_increments(n, 1.0, h, m, seed=901)
        emp = p.data.T @ p.data / m
        dists.append(np.linalg.norm(emp - target))
    slope = np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(dists), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.2)


def test_lag1_statistic():
    p = sample_fbm_increments(2048, 1.0, 0.75, 128, seed=19)
    est, se = lag1_increment_correlation(p)
    target = 2.0**0.5 - 1.0
    assert abs(est - target) / se <= 4.0


def test_lag1_statistic_is_unbiased_at_high_h():
    # the lag sums are pooled across paths: a mean of per-path ratios is
    # biased here, with a mean z of -8.3 over these seeds
    target = 2.0 ** (2.0 * 0.95 - 1.0) - 1.0
    z = []
    for seed in range(20):
        est, se = lag1_increment_correlation(sample_fbm_increments(4096, 1.0, 0.95, 256, seed=seed))
        z.append((est - target) / se)
    assert abs(np.mean(z)) <= 1.0


def test_lag1_statistic_builds_no_path_sized_temporary():
    # the sampler-consistency draw, 256 paths of 4096 increments (8.4 MB):
    # the row sums make no m x n product, and pooling gives the estimate
    # the product form gave
    p = sample_fbm_increments(4096, 1.0, 0.75, 256, seed=11)
    tracemalloc.start()
    try:
        est, se = lag1_increment_correlation(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    x = p.data
    num, den = np.sum(x[:, :-1] * x[:, 1:], axis=1), np.sum(x * x, axis=1)
    r = num.sum() / den.sum()
    resid = num - r * den
    assert est == pytest.approx(r, rel=1e-14, abs=0.0)
    assert se == pytest.approx(math.sqrt(resid @ resid / (256 * 255)) / den.mean(), rel=1e-13, abs=0.0)


def test_empirical_mi_basic():
    p = sample_fbm_increments(6, 1.0, 0.75, 30_000, seed=8)
    emp, ana, gap = empirical_mi_check(p, split=3)
    assert gap == abs(emp - ana)
    # plug-in bias is O(dim^2/m); generous envelope
    assert gap <= 0.01
    # analytic side is seed-independent
    p2 = sample_fbm_increments(6, 1.0, 0.75, 30_000, seed=9)
    _, ana2, _ = empirical_mi_check(p2, split=3)
    assert ana2 == ana


@pytest.mark.parametrize("h, n, dt", [(0.75, 8, 1.0), (0.3, 16, 0.5), (0.1, 32, 3.0), (0.95, 6, 1e-3)])
def test_analytic_mi_equals_the_adjacency_table_at_an_even_split(h, n, dt):
    # the Toeplitz Gram of the sampler's column against the partial
    # autocorrelations of the same column
    p = sample_fbm_increments(n, dt, h, 4 * n, seed=3)
    _, ana, _ = empirical_mi_check(p, split=n // 2)
    assert ana == pytest.approx(adjacency_mi_table(h, (n // 2) * dt, (n // 2,))[0], rel=1e-13, abs=0.0)


def test_empirical_mi_validation():
    p = sample_fbm_increments(6, 1.0, 0.6, 100, seed=1)
    with pytest.raises(ValueError):
        empirical_mi_check(p, split=0)
    with pytest.raises(ValueError):
        empirical_mi_check(p, split=6)
    small = sample_fbm_increments(16, 1.0, 0.6, 10, seed=1)
    with pytest.raises(ValueError):
        empirical_mi_check(small, split=8)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_fbm_increments(0, 1.0, 0.5, 4, seed=0)
    with pytest.raises(ValueError):
        sample_fbm_increments(8, -1.0, 0.5, 4, seed=0)
    with pytest.raises(ValueError):
        sample_fbm_increments(8, 1.0, 0.5, 0, seed=0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"dt must be finite, got {dt}"):
            sample_fbm_increments(4096, dt, 0.5, 4, seed=0)



def test_a_negative_seed_is_named():
    # numpy's SeedSequence refused it as "expected non-negative integer"
    for n in (8, 4096):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            sample_fbm_increments(n, 1.0, 0.7, 3, seed=-1)


@pytest.mark.parametrize("n", [1, 2, 2000, 32768, 65536])
def test_embedding_is_psd_near_h_one(n):
    # with the lattice-series autocovariance the size-2n embedding keeps a
    # positive smallest eigenvalue on H = 1 - 10^-k up to k = 8.5, next to
    # the Hurst guard (at n = 65536 it is 1.3e-12 of the largest at
    # H = 1 - 1e-7 and 1.3e-13 at 1 - 1e-8); only the spectrum is computed,
    # nothing is sampled
    for k in np.arange(0.5, 8.51, 0.5):
        h = 1.0 - 10.0**-k
        lam = _embedding_spectrum(n, h, 1.0)
        assert lam.shape == (2 * n,)
        assert lam.min() > 0.0, (n, h)


def test_smallest_embeddings_are_psd():
    # n = 1 and n = 2 embed in circulants of size 2 and 4, whose spectra
    # are gamma0 +- gamma1 and gamma0 + 2 gamma1 cos(pi j / 2) + gamma2 (-1)^j
    for h in np.linspace(0.01, 0.99, 99):
        g0, g1, g2 = increment_autocov(np.arange(3), h, 0.5)
        lam1 = _embedding_spectrum(1, h, 0.5)
        lam2 = _embedding_spectrum(2, h, 0.5)
        assert np.allclose(lam1, [g0 + g1, g0 - g1], rtol=1e-14, atol=0.0)
        assert np.allclose(lam2, [g0 + 2 * g1 + g2, g0 - g2, g0 - 2 * g1 + g2, g0 - g2], rtol=1e-13, atol=1e-16)
        assert lam1.min() > 0.0 and lam2.min() > 0.0


def test_non_psd_embedding_raises(monkeypatch):
    # a forced non-PSD column (gamma(0) = 1, gamma(1) = 0.9, zero beyond)
    # gives circulant eigenvalues 1 + 1.8 cos(pi j / n) and a Toeplitz Gram
    # with eigenvalues 1 + 1.8 cos(pi j / (n + 1)); neither route falls
    # back to the other
    def column(k, h, dt):
        return np.where(k == 0, 1.0, np.where(k == 1, 0.9, 0.0))

    def toeplitz(n, h, dt):
        lag = np.arange(n)
        return column(np.abs(lag[:, None] - lag), h, dt)

    monkeypatch.setattr(sampler, "increment_autocov", column)
    monkeypatch.setattr(sampler, "uniform_gram", toeplitz)
    with pytest.raises(RuntimeError, match="not PSD at n=8"):
        _embedding_spectrum(8, 0.7, 1.0)
    n = 2 * _CHOLESKY_MAX_N
    with pytest.raises(RuntimeError, match=f"circulant embedding not PSD at n={n}, H=0.7"):
        sample_fbm_increments(n, 1.0, 0.7, 4, seed=0)
    with pytest.raises(RuntimeError, match=r"^increment Gram not positive definite at n=8, H=0\.7$"):
        sample_fbm_increments(8, 1.0, 0.7, 4, seed=0)


@pytest.mark.parametrize("n", [1, 2, 8, _CHOLESKY_MAX_N])
def test_cholesky_route_factors_near_both_hurst_ends(n):
    # the Gram's factor exists on H = 10^-k and 1 - 10^-k up to k = 8.5,
    # next to the Hurst guard, and reproduces the Gram; only the factor
    # is computed, nothing is sampled
    for k in np.arange(0.5, 8.51, 0.5):
        for h in (10.0**-k, 1.0 - 10.0**-k):
            g = uniform_gram(n, h, 1.0)
            lower = _gram_factor(n, h, 1.0)
            assert np.all(np.diag(lower) > 0.0), (n, h)
            assert np.abs(lower @ lower.T - g).max() <= 1e-13 * g[0, 0], (n, h)


def test_an_overflowing_spectrum_is_a_named_error():
    # the column is finite (largest entry 7.9e306) but its FFT is not: no
    # RuntimeWarning escapes, and a nan spectrum is not taken for a PSD one
    with pytest.raises(ValueError, match=r"circulant spectrum overflows float64 at n=4096, H=0.99, dt=1e\+155"):
        sample_fbm_increments(4096, 1e155, 0.99, 4, seed=0)


def test_round_trip(tmp_path):
    p = sample_fbm_increments(32, 0.5, 0.3, 5, seed=42)
    path = tmp_path / "paths.bin"
    write_samples(p, path)
    assert path.read_bytes() == p.data.astype("<f8").tobytes()
    sidecar = json.loads((tmp_path / "paths.bin.json").read_text())
    assert sidecar["n"] == 32 and sidecar["m"] == 5
    assert sidecar["H"] == 0.3 and sidecar["seed"] == 42
    q = load_samples(path)
    assert np.array_equal(p.data, q.data)
    assert (q.m, q.n, q.dt, q.h, q.seed, q.method) == (p.m, p.n, p.dt, p.h, p.seed, p.method)


def test_sample_paths_invariants():
    with pytest.raises(ValueError):
        SamplePaths(m=2, n=3, dt=1.0, h=0.5, seed=0, method="circulant", data=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SamplePaths(m=1, n=2, dt=1.0, h=0.5, seed=0, method="circulant",
                    data=np.array([[1.0, math.inf]]))
