"""Finite-horizon estimation of coefficient-window statistics.

The window maximum A_n(gamma) = max |a_k| over k in [(1-gamma) n, n], its
n-th root, and the liminf-style summaries derived from it: the gauge (small
windows) and the index (smallest window fraction whose maxima stay near 1).
All computations run in log space so lacunary and rapidly decaying families
never underflow; a result past the float range (heavy-tailed random paths)
saturates to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .series import Series, _check_horizon

__all__ = [
    "DEFAULT_GAMMA_GRID",
    "GaugeReport",
    "window_max",
    "window_liminf_from_logs",
    "gauge_and_index",
    "coeff_root_range",
    "gauge_coverage_bound",
]

DEFAULT_GAMMA_GRID = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                      0.6, 0.7, 0.8, 0.9, 0.99)

#: L-hat at or above this value counts as "window maxima of full size"
INDEX_THRESHOLD = 0.95


def _window_start(gamma: float, n):
    """First index ceil((1-gamma) n) of the window ending at n; n may be an array."""
    # the 1e-9 backoff keeps ceil stable when (1-gamma)*n is an integer
    # that binary arithmetic lands a hair above
    return np.maximum(0, np.ceil((1.0 - gamma) * n - 1e-9)).astype(np.intp)


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie strictly between 0 and 1")
    return gamma


def window_max(stream: Series, n: int, gamma: float) -> float:
    """max |a_k| over the trailing window k in [(1-gamma) n, n]."""
    gamma = _check_gamma(gamma)
    if n < 1:
        raise DomainError("n must be at least 1")
    logs = stream.log_abs(n)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(logs[_window_start(gamma, n):n + 1])))


def window_liminf_from_logs(logs: np.ndarray, gamma: float, N: int) -> float:
    """min over n in [N/2, N] of (window max)^(1/n), from raw log magnitudes.

    The liminf surrogate: the window maximum of the coefficient logs at every
    n of the dyadic tail window, minimized over n. Each maximum is the larger
    of two overlapping power-of-two blocks, taken from a doubling table that
    keeps only its current level (O(N log N) work, O(N) memory). An all-zero
    window gives estimate 0. At gamma = 0.99, values well below 1 flag gaps so
    long that even near-full windows go negligible infinitely often.
    """
    gamma = _check_gamma(gamma)
    N = _check_horizon(N)
    if N < 64:
        raise DomainError("horizon N must be at least 64")
    if len(logs) < N + 1:
        raise DomainError("need coefficient logs up to index N")
    ns = np.arange((N + 1) // 2, N + 1)
    starts = _window_start(gamma, ns)
    # floor(log2(window length)), exact for integers
    ks = np.frexp(ns - starts + 1)[1] - 1
    tops = np.empty(len(ns))
    # level[i] = max(logs[i : i + 2^k])
    level = np.asarray(logs[:N + 1], dtype=float)
    for k in range(int(ks.max()) + 1):
        if k:
            h = 1 << (k - 1)
            level = np.maximum(level[:-h], level[h:])
        sel = ks == k
        tops[sel] = np.maximum(level[starts[sel]], level[ns[sel] - (1 << k) + 1])
    with np.errstate(over="ignore"):
        return float(np.exp(np.min(tops / ns)))


@dataclass(frozen=True)
class GaugeReport:
    """Window-statistics estimates over a gamma grid at one horizon."""

    gamma_grid: tuple[float, ...]
    L_raw: tuple[float, ...]
    L_hat: tuple[float, ...]
    G_hat: float
    Gamma_hat: float
    horizon: int
    window: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "gamma_grid": list(self.gamma_grid),
            "L_raw": list(self.L_raw),
            "L_hat": list(self.L_hat),
            "G_hat": self.G_hat,
            "Gamma_hat": self.Gamma_hat,
            "horizon": self.horizon,
            "window": list(self.window),
        }


def gauge_and_index(stream: Series, gamma_grid=None, N: int = 1024) -> GaugeReport:
    """Estimate L(gamma) over a grid, the gauge, and the index.

    L_hat is the isotonic (running maximum) adjustment of the raw estimates,
    since the true L is nondecreasing in gamma; raw values are retained.
    G_hat is L_hat at the smallest grid point. Gamma_hat is the smallest grid
    gamma with L_hat >= 0.95, or 1.0 if none qualifies.
    """
    if gamma_grid is None:
        gamma_grid = DEFAULT_GAMMA_GRID
    N = _check_horizon(N)
    grid = [_check_gamma(g) for g in gamma_grid]
    if sorted(set(grid)) != grid:
        raise DomainError("gamma grid must be strictly increasing")
    logs = stream.log_abs(N)
    raw = [window_liminf_from_logs(logs, g, N) for g in grid]
    iso = np.maximum.accumulate(raw)
    above = [g for g, L in zip(grid, iso) if L >= INDEX_THRESHOLD]
    return GaugeReport(
        gamma_grid=tuple(grid),
        L_raw=tuple(raw),
        L_hat=tuple(float(x) for x in iso),
        G_hat=float(iso[0]),
        Gamma_hat=above[0] if above else 1.0,
        horizon=int(N),
        window=((N + 1) // 2, int(N)),
    )


def coeff_root_range(stream: Series, N: int) -> tuple[float, float]:
    """(min, max) of |a_n|^(1/n) over the tail window n in [N/2, N].

    Both ends near 1 indicate n-th roots of coefficients converging to 1;
    a min near 0 with max near 1 is the hallmark of gap series.
    """
    N = _check_horizon(N)
    if N < 64:
        raise DomainError("horizon N must be at least 64")
    logs = stream.log_abs(N)
    ns = np.arange((N + 1) // 2, N + 1)
    with np.errstate(over="ignore"):
        vals = np.exp(logs[ns] / ns)
    return float(np.min(vals)), float(np.max(vals))


def gauge_coverage_bound(G: float, T: float) -> float:
    """Lower bound 1 - ln(1/G)/ln(T) for the eventual mass inside |w| <= T.

    Defined for 0 < G <= 1 and T > 1/G (in particular T > 1); clamped at 0.
    """
    G = float(G)
    T = float(T)
    if not 0.0 < G <= 1.0:
        raise DomainError("gauge G must lie in (0, 1]")
    if T <= 1.0 / G or T <= 1.0:
        raise DomainError("threshold T must exceed 1/G (and 1)")
    return max(0.0, 1.0 - math.log(1.0 / G) / math.log(T))
