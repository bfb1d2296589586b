"""Acceptance gate: the 14 quantitative targets, one test per criterion.

Each test prints a PASS/FAIL line with the measured numbers (visible with
-s, or in the captured output of a failure) and then asserts. The checks
themselves live in fbmlocal.acceptance next to their tolerances; this
file fixes their order and serves as the single gate.

Criterion 3's first clause compares the scan-extrapolated leading
constant with the exact r_H of fbmlocal.sobolev.r_h_constant, which the
independent dual-Gram route also reproduces; see README ("The leading
constant"). The zero-extension value r_h_spectral is a diagnostic only.
"""

import re
import time

import numpy as np
import pytest

from fbmlocal.acceptance import CHECKS
from fbmlocal.experiments import theorem21_check

_TOTAL_BUDGET = 300.0  # seconds, all criteria together
_spent = 0.0


def _run(name):
    global _spent
    t0 = time.perf_counter()
    passed, detail = CHECKS[name]()
    took = time.perf_counter() - t0
    _spent += took
    print(f"{'PASS' if passed else 'FAIL'}  {name} [{took:.1f}s]  {detail}")
    assert _spent < _TOTAL_BUDGET, f"acceptance suite exceeded {_TOTAL_BUDGET:.0f}s"
    assert passed, f"{name}: {detail}"


def test_criterion_01_two_window_angle_rate():
    _run("two-window-angle-rate")


def test_criterion_02_two_window_mi_rate():
    _run("two-window-mi-rate")


def test_criterion_03_leading_constant():
    # exact r_H reference, see module docstring
    _run("leading-constant")


def test_criterion_04_past_window_rates():
    _run("past-window-rates")


def test_criterion_05_brownian_exactness():
    _run("brownian-exactness")


def test_criterion_06_mi_route_equivalence():
    _run("mi-route-equivalence")


def test_criterion_07_mi_bound_sandwich():
    _run("mi-bound-sandwich")


def test_criterion_08_pairing_identity():
    _run("pairing-identity")


def test_criterion_09_sobolev_scaling():
    _run("sobolev-scaling")


def test_criterion_10_adjacent_divergence():
    _run("adjacent-divergence")


def test_criterion_11_past_future_angle():
    _run("past-future-angle")


def test_criterion_12_levy2d_rate():
    _run("levy2d-rate")


def test_criterion_13_invariance_suite():
    _run("invariance-suite")


def test_criterion_14_sampler_consistency():
    _run("sampler-consistency")


# the three two-window checks share one theorem21_check report per H
_TWO_WINDOW = ("two-window-angle-rate", "two-window-mi-rate", "leading-constant")


def test_two_window_checks_build_each_report_once(monkeypatch):
    from fbmlocal import acceptance

    built = []

    def counted(h, *args, **kwargs):
        built.append(h)
        return theorem21_check(h, *args, **kwargs)

    monkeypatch.setattr(acceptance, "theorem21_check", counted)
    monkeypatch.setattr(acceptance, "_THM21_REPORTS", {})
    shared = [CHECKS[name]() for name in CHECKS if name in _TWO_WINDOW]
    assert len(built) == len(set(built)) == 5
    # one fresh build per check, as each check alone would make them: the
    # details agree apart from the (...s) build times
    alone = []
    for name in _TWO_WINDOW:
        monkeypatch.setattr(acceptance, "_THM21_REPORTS", {})
        alone.append(CHECKS[name]())
    assert len(built) == 5 + 12
    for (ok_s, detail_s), (ok_a, detail_a) in zip(shared, alone):
        assert ok_s == ok_a
        assert re.sub(r"\(\d+\.\ds\)", "(~s)", detail_s) == re.sub(r"\(\d+\.\ds\)", "(~s)", detail_a)


def test_angle_rate_clause_reads_the_stored_build_time(monkeypatch):
    # a shared report keeps its build time: a cache hit cannot pass the
    # 10 s clause for a build that took longer
    from fbmlocal import acceptance

    monkeypatch.setattr(acceptance, "_THM21_REPORTS", {})
    passed, _ = CHECKS["two-window-angle-rate"]()
    assert passed
    assert all(took > 0.0 for _, took in acceptance._THM21_REPORTS.values())
    rep, _ = acceptance._THM21_REPORTS[0.7]
    acceptance._THM21_REPORTS[0.7] = (rep, 12.0)
    passed, detail = CHECKS["two-window-angle-rate"]()
    assert not passed
    assert "H=0.7:" in detail and "(12.0s)" in detail


def test_pairing_identity_makes_one_sobolev_pass_per_pair(monkeypatch):
    # the suite is built once and each of its 10 pairs asks for all four H
    # in one sobolev_inner call; the detail is the one the check gives alone
    from fbmlocal import acceptance, sobolev

    want = CHECKS["pairing-identity"]()
    inner, suite, calls, builds = sobolev.sobolev_inner, acceptance._pairing_suite, [], []

    def counted_inner(phi, psi, s):
        calls.append(np.shape(s))
        return inner(phi, psi, s)

    def counted_suite():
        builds.append(None)
        return suite()

    monkeypatch.setattr(sobolev, "sobolev_inner", counted_inner)
    monkeypatch.setattr(acceptance, "_pairing_suite", counted_suite)
    assert CHECKS["pairing-identity"]() == want
    assert calls == [(4,)] * 10 and len(builds) == 1


def test_dilation_clause_makes_one_norm_call_per_function(monkeypatch):
    # the base function and its three dilations, each at all three s
    from fbmlocal import acceptance

    norm, calls = acceptance.sobolev_norm, []

    def counted(phi, s):
        calls.append(np.shape(s))
        return norm(phi, s)

    monkeypatch.setattr(acceptance, "sobolev_norm", counted)
    passed, detail = CHECKS["sobolev-scaling"]()
    assert passed
    assert calls == [(3,)] * 4
    assert float(re.search(r"dilation worst rel (\S+) ", detail).group(1)) <= 1e-11
