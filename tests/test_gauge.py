"""Window maxima, liminf estimates, and the gauge/index report."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from szego import gauge as gauge_module
from szego import (DEFAULT_GAMMA_GRID, Carlson, DomainError, Explicit, FactorialGaps, Geometric,
                   Lacunary, RandomSeries, ZeroOne, coeff_root_range, gauge_and_index,
                   gauge_coverage_bound, window_liminf_from_logs, window_max)


def _brute_window_liminf(logs, gamma, N):
    best = math.inf
    for n in range((N + 1) // 2, N + 1):
        start = max(0, math.ceil((1.0 - gamma) * n - 1e-9))
        top = float(np.max(logs[start:n + 1]))
        best = min(best, top / n)
    return float(np.exp(best))


def test_window_max_examples():
    assert window_max(Geometric(), 10, 0.5) == 1.0
    # window {7} of the sparse family: coefficient g^7
    assert window_max(Carlson(0.5, 0.5), 7, 0.1) == pytest.approx(0.5 ** 7)
    assert window_max(Lacunary(2), 10, 0.5) == 1.0  # 8 lies in [5, 10]
    assert window_max(Lacunary(2), 11, 0.2) == 0.0  # [9, 11] has no power of 2
    with pytest.raises(DomainError):
        window_max(Geometric(), 10, 0.0)
    with pytest.raises(DomainError):
        window_max(Geometric(), 0, 0.5)
    assert window_max(Lacunary(2), 10.0, 0.5) == 1.0
    for bad in (10.5, "x"):
        with pytest.raises(DomainError):
            window_max(Geometric(), bad, 0.5)


def test_window_start_integer_boundary():
    # (1 - 0.3) * 20 lands a hair above 14.0 in floats; index 14 must
    # still open the window
    s = ZeroOne([0, 14])
    assert window_max(s, 20, 0.3) == 1.0


def test_window_liminf_matches_brute_force():
    rng = np.random.default_rng(55)
    for _ in range(10):
        logs = rng.normal(size=257)
        logs[rng.random(257) < 0.3] = -np.inf
        for gamma in (0.1, 0.37, 0.5, 0.9):
            fast = window_liminf_from_logs(logs, gamma, 256)
            slow = _brute_window_liminf(logs, gamma, 256)
            assert fast == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize("N", [64, 100, 257, 1000])
def test_window_liminf_equals_brute_force_exactly(N):
    rng = np.random.default_rng(N)
    logs = rng.normal(size=N + 1)
    logs[rng.random(N + 1) < 0.3] = -np.inf
    # the largest log sits at index 0, read only by windows that open there
    logs[0] = 50.0
    # 0.3 (in the default grid) hits the 1e-9 ceil boundary; 1 - 1e-12
    # opens windows at index 0
    grid = [*DEFAULT_GAMMA_GRID, 1 - 1e-12]
    brute = [_brute_window_liminf(logs, gamma, N) for gamma in grid]
    assert gauge_module._window_liminfs(logs, grid, N) == brute
    assert [window_liminf_from_logs(logs, g, N) for g in grid] == brute


def test_window_liminf_memory_is_linear():
    N = 2 ** 16
    logs = np.random.default_rng(3).normal(size=N + 1)
    for gamma in DEFAULT_GAMMA_GRID:
        tracemalloc.start()
        try:
            window_liminf_from_logs(logs, gamma, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full doubling table would hold about 16 copies of the logs
        assert peak < 6 * logs.nbytes


def test_gamma_grid_memory_is_linear():
    N = 2 ** 16
    logs = np.random.default_rng(3).normal(size=N + 1)
    tracemalloc.start()
    try:
        gauge_module._window_liminfs(logs, DEFAULT_GAMMA_GRID, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per-gamma arrays of N/2 window starts kept for the whole grid would
    # hold 6 copies of the logs
    assert peak < 6 * logs.nbytes


def test_gauge_report_builds_one_table(monkeypatch):
    calls = []
    kernel = gauge_module._window_liminfs

    def spy(logs, grid, N):
        calls.append(list(grid))
        return kernel(logs, grid, N)

    monkeypatch.setattr(gauge_module, "_window_liminfs", spy)
    gauge_and_index(Carlson(0.5, 0.5), N=1024)
    assert calls == [list(DEFAULT_GAMMA_GRID)]


def test_window_liminf_preconditions():
    logs = np.zeros(300)
    with pytest.raises(DomainError):
        window_liminf_from_logs(logs, 0.5, 32)
    with pytest.raises(DomainError):
        window_liminf_from_logs(np.zeros(10), 0.5, 64)


def test_window_root_liminf_families():
    assert window_liminf_from_logs(Geometric().log_abs(256), 0.5, 256) \
        == pytest.approx(1.0)
    # windows [0.6 n, n] miss every power of 2 for n just below 256
    assert window_liminf_from_logs(Lacunary(2).log_abs(256), 0.4, 256) == 0.0
    # windows [n/2, n] always contain a power of 2
    assert window_liminf_from_logs(Lacunary(2).log_abs(256), 0.5, 256) \
        == pytest.approx(1.0)


def test_gauge_report_geometric():
    rep = gauge_and_index(Geometric(), N=128)
    assert all(L == pytest.approx(1.0) for L in rep.L_raw)
    assert rep.G_hat == pytest.approx(1.0)
    assert rep.Gamma_hat == rep.gamma_grid[0]
    assert rep.window == (64, 128)


def test_gauge_report_lacunary():
    rep = gauge_and_index(Lacunary(2), N=4096)
    assert rep.Gamma_hat == pytest.approx(0.5)
    assert rep.G_hat <= 0.05
    rep3 = gauge_and_index(Lacunary(3), N=4096)
    assert abs(rep3.Gamma_hat - (1 - 1 / 3)) <= 0.05
    assert rep3.G_hat <= 0.05


def test_gauge_report_carlson_pairs():
    rep = gauge_and_index(Carlson(0.3, 0.6), N=1024)
    assert abs(rep.Gamma_hat - 0.3) <= 0.05
    assert abs(rep.G_hat - 0.6) <= 0.05
    rep2 = gauge_and_index(Carlson(0.5, 0.5), N=1024)
    assert abs(rep2.Gamma_hat - 0.5) <= 0.05
    assert abs(rep2.G_hat - 0.5) <= 0.05
    # mid-window estimate tracks g^(1-gamma)
    est = window_liminf_from_logs(Carlson(0.5, 0.5).log_abs(1024), 0.25, 1024)
    assert abs(est - 0.5 ** 0.75) <= 0.05


def test_isotonic_adjustment():
    rep = gauge_and_index(Lacunary(2), N=512)
    assert all(b >= a for a, b in zip(rep.L_hat, rep.L_hat[1:]))
    # raw values are retained unmodified where already monotone
    assert rep.L_hat[-1] >= rep.L_raw[-1]


def test_gauge_grid_validation():
    with pytest.raises(DomainError):
        gauge_and_index(Geometric(), gamma_grid=[0.5, 0.2], N=128)
    with pytest.raises(DomainError):
        gauge_and_index(Geometric(), gamma_grid=[0.0, 0.5], N=128)
    with pytest.raises(DomainError):
        gauge_and_index(Geometric(), gamma_grid=[], N=128)


def test_coeff_root_range():
    lo, hi = coeff_root_range(Geometric(), 256)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo2, hi2 = coeff_root_range(Carlson(0.5, 0.5), 1024)
    assert lo2 == pytest.approx(0.5, abs=0.01)
    assert hi2 == pytest.approx(1.0, abs=0.01)
    lo3, hi3 = coeff_root_range(Lacunary(2), 1024)
    assert lo3 == 0.0 and hi3 == pytest.approx(1.0)


@pytest.mark.parametrize("stream", [Geometric(), Carlson(0.5, 0.5),
                                    RandomSeries("gaussian_complex", 0)],
                         ids=repr)
def test_integral_float_horizon(stream):
    # the JSON form too: a float horizon would print the window as 50.0
    report = gauge_and_index(stream, N=100)
    assert repr(gauge_and_index(stream, N=100.0)) == repr(report)
    assert coeff_root_range(stream, 100.0) == coeff_root_range(stream, 100)
    for bad in (100.5, "x"):
        with pytest.raises(DomainError):
            gauge_and_index(stream, N=bad)
        with pytest.raises(DomainError):
            coeff_root_range(stream, bad)


def test_gauge_coverage_bound():
    assert gauge_coverage_bound(0.5, 4.0) == pytest.approx(0.5)
    assert gauge_coverage_bound(1.0, 1.0001) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        gauge_coverage_bound(0.5, 2.0)  # boundary T = 1/G
    with pytest.raises(DomainError):
        gauge_coverage_bound(1.2, 3.0)
    with pytest.raises(DomainError):
        gauge_coverage_bound(1.0, 1.0)
    for G, T in ((0.5, float("nan")), (float("nan"), 4.0), ("x", 2),
                 (0.5, "x"), (None, 4.0)):
        with pytest.raises(DomainError):
            gauge_coverage_bound(G, T)


def test_infinite_gap_diagnostic():
    # factorial gaps: every near-full window up to 720 still catches a
    # factorial index, so the diagnostic stays at 1 at this horizon
    assert window_liminf_from_logs(FactorialGaps().log_abs(720), 0.99, 720) \
        == pytest.approx(1.0)
    # the gap structure is visible at gamma = 0.8 instead: windows
    # [0.2 n, n] between consecutive factorials go empty
    assert window_liminf_from_logs(FactorialGaps().log_abs(720), 0.8,
                                   720) == 0.0
    # geometric never gaps
    assert window_liminf_from_logs(Geometric().log_abs(512), 0.99, 512) \
        == pytest.approx(1.0)


def test_explicit_stream_window():
    s = Explicit([1.0, 0.0, 0.0, 4.0])
    assert window_max(s, 3, 0.5) == 4.0
    assert window_max(s, 3, 0.1) == 4.0
