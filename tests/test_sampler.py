"""Sampler: analytic autocovariance, determinism, statistical checks."""

import json
import math

import numpy as np
import pytest

from fbmlocal import sampler
from fbmlocal.sampler import (
    BLOCK_PATHS,
    SamplePaths,
    _FFT_ELEMENTS,
    _chunk_blocks,
    _circulant_work,
    _embedding_spectrum,
    _toeplitz_cov,
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


def test_thread_count_does_not_change_samples():
    a = sample_fbm_increments(64, 1.0, 0.7, 200, seed=5, threads=None)
    b = sample_fbm_increments(64, 1.0, 0.7, 200, seed=5, threads=4)
    assert np.array_equal(a.data, b.data)


def test_buffered_blocks_match_whole_block_transform():
    # chunks of blocks are filled in place from reused buffers, a few rows
    # per FFT; each block's stream must equal one transform of the whole
    # block. Cases: an odd last block of 3 paths with threads fewer than
    # blocks; three chunks at n = 8 (two full, a partial last one ending in
    # an odd block of 37 paths), so every block must land in its own rows
    chunk_paths = _chunk_blocks(32) * BLOCK_PATHS
    assert chunk_paths > BLOCK_PATHS
    for n, dt, h, m, seed in ((37, 0.5, 0.3, 131, 42),
                              (8, 1.0, 0.75, 2 * chunk_paths + 5 * BLOCK_PATHS + 37, 9)):
        lam, size = _embedding_spectrum(n, h, dt)
        scale = np.sqrt(lam / size)
        parts = []
        for i, s in enumerate(np.random.SeedSequence(seed).spawn(-(-m // BLOCK_PATHS))):
            rng = np.random.Generator(np.random.Philox(s))
            paths = min(BLOCK_PATHS, m - i * BLOCK_PATHS)
            draws = (paths + 1) // 2
            z = rng.standard_normal((draws, size)) + 1j * rng.standard_normal((draws, size))
            y = np.fft.fft(z * scale)[:, :n]
            parts.append(np.stack([y.real, y.imag], axis=1).reshape(2 * draws, n)[:paths])
        want = np.concatenate(parts)
        assert size == 4 * n  # the chunk size above assumed the first embedding
        for threads in (None, 1, 2, 3):
            got = sample_fbm_increments(n, dt, h, m, seed=seed, threads=threads).data
            assert np.array_equal(got, want)


def test_worker_buffers_stay_within_budget(monkeypatch):
    made = []

    def record(size, m):
        work = _circulant_work(size, m)
        made.append((size, sum(a.nbytes for a in work)))
        return work

    monkeypatch.setattr(sampler, "_circulant_work", record)

    def per_worker(n, m):
        made.clear()
        sample_fbm_increments(n, 1.0, 0.7, m, seed=0)
        assert made and len({b for _, b in made}) == 1
        return made[0]

    # both real buffers hold at most one FFT call's rows, or one block's;
    # the complex buffer holds one call
    for n, m in ((8, 100_000), (4096, 256)):
        size, nbytes = per_worker(n, m)
        assert nbytes <= 2 * 8 * max(_FFT_ELEMENTS, BLOCK_PATHS // 2 * size) + 16 * _FFT_ELEMENTS
    # n = 4096 allocates what one 64-path block with 4-row FFTs did
    assert per_worker(4096, 256) == (16384, 2 * 8 * 32 * 16384 + 16 * 4 * 16384)
    # a 2-path warm-up draws one row: a few KB
    assert per_worker(16, 2)[1] <= 4096


def test_dense_matches_circulant_covariance():
    # both methods target the same Toeplitz covariance; check each against
    # the analytic matrix at moderate sample size
    n, m, h = 8, 60_000, 0.75
    target = _toeplitz_cov(n, h, 1.0)
    for method in ("circulant", "dense"):
        p = sample_fbm_increments(n, 1.0, h, m, seed=77, method=method)
        assert p.method == method
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
    target = _toeplitz_cov(n, h, 1.0)
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
    with pytest.raises(ValueError):
        sample_fbm_increments(8, 1.0, 0.5, 4, seed=0, method="wavelet")


def test_round_trip(tmp_path):
    p = sample_fbm_increments(32, 0.5, 0.3, 5, seed=42)
    path = tmp_path / "paths.bin"
    write_samples(p, path)
    sidecar = json.loads((tmp_path / "paths.bin.json").read_text())
    assert sidecar["n"] == 32 and sidecar["m"] == 5
    assert sidecar["H"] == 0.3 and sidecar["seed"] == 42
    q = load_samples(path)
    assert np.array_equal(p.data, q.data)
    assert (q.m, q.n, q.dt, q.h, q.seed, q.method) == (p.m, p.n, p.dt, p.h, p.seed, p.method)


def test_sample_paths_invariants():
    with pytest.raises(ValueError):
        SamplePaths(m=2, n=3, dt=1.0, h=0.5, seed=0, method="dense", data=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SamplePaths(m=1, n=2, dt=1.0, h=0.5, seed=0, method="dense",
                    data=np.array([[1.0, math.inf]]))
