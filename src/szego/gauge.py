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
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import DomainError
from .series import Series, _check_horizon, _exact, _items

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
    gamma = float(_exact(gamma))
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie strictly between 0 and 1")
    return gamma


def window_max(stream: Series, n: int, gamma: float) -> float:
    """max |a_k| over the trailing window k in [(1-gamma) n, n]."""
    gamma = _check_gamma(gamma)
    n = _check_horizon(n)
    if n < 1:
        raise DomainError("n must be at least 1")
    logs = stream.log_abs(n)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(logs[_window_start(gamma, n):n + 1])))


def _window_liminfs(logs: np.ndarray, grid, N: int) -> list[float]:
    """window_liminf_from_logs at every gamma of a checked grid, one table for all.

    The window length n - start(n) + 1 never decreases in n, so each level k
    of the doubling table serves one contiguous run of n for each gamma: the
    n whose window length lies in [2^k, 2^(k+1)). Those runs are cut out by
    searchsorted, the table is built once, and each level folds the
    runs it serves into a running minimum of (window max log) / n, so no
    per-gamma array outlives its level.
    """
    N = _check_horizon(N)
    if N < 64:
        raise DomainError("horizon N must be at least 64")
    if len(logs) < N + 1:
        raise DomainError("need coefficient logs up to index N")
    ns = np.arange((N + 1) // 2, N + 1)
    # the longest window, at n = N for the largest gamma, sets the top level
    top = int(N - _window_start(max(grid), N) + 1).bit_length() - 1
    powers = 1 << np.arange(top + 2)
    # level k serves ns[cut[k]:cut[k + 1]], the lengths in [2^k, 2^(k+1))
    cuts = [np.searchsorted(ns - _window_start(gamma, ns) + 1, powers).tolist()
            for gamma in grid]
    best = np.full(len(grid), np.inf)
    # level[i] = max(logs[i : i + 2^k])
    level = np.asarray(logs[:N + 1], dtype=float)
    for k in range(top + 1):
        if k:
            h = 1 << (k - 1)
            level = np.maximum(level[:-h], level[h:])
        for j, (gamma, cut) in enumerate(zip(grid, cuts)):
            if cut[k] == cut[k + 1]:
                continue
            n = ns[cut[k]:cut[k + 1]]
            tops = np.maximum(level[_window_start(gamma, n)], level[n - (1 << k) + 1])
            best[j] = np.minimum(best[j], np.min(tops / n))
    with np.errstate(over="ignore"):
        return [float(x) for x in np.exp(best)]


def window_liminf_from_logs(logs: np.ndarray, gamma: float, N: int) -> float:
    """min over n in [N/2, N] of (window max)^(1/n), from raw log magnitudes.

    The liminf surrogate: the window maximum of the coefficient logs at every
    n of the dyadic tail window, minimized over n. Each maximum is the larger
    of two overlapping power-of-two blocks, taken from a doubling table that
    keeps only its current level (O(N log N) work, O(N) memory); a whole grid
    of gamma shares one table through `gauge_and_index`. An all-zero window
    gives estimate 0. At gamma = 0.99, values well below 1 flag gaps so long
    that even near-full windows go negligible infinitely often.
    """
    return _window_liminfs(logs, [_check_gamma(gamma)], N)[0]


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
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


def gauge_and_index(stream: Series, gamma_grid=None, N: int = 1024) -> GaugeReport:
    """Estimate L(gamma) over a grid, the gauge, and the index.

    L_hat is the isotonic (running maximum) adjustment of the raw estimates,
    since the true L is nondecreasing in gamma; raw values are retained.
    G_hat is L_hat at the smallest grid point. Gamma_hat is the smallest grid
    gamma with L_hat >= 0.95, or 1.0 if none qualifies. Every grid point reads
    one shared doubling table: O(N log N + G N) work for G grid points, O(N)
    memory.
    """
    if gamma_grid is None:
        gamma_grid = DEFAULT_GAMMA_GRID
    N = _check_horizon(N)
    grid = [_check_gamma(g) for g in _items(gamma_grid, "gamma grid")]
    if not grid:
        raise DomainError("gamma grid must not be empty")
    if sorted(set(grid)) != grid:
        raise DomainError("gamma grid must be strictly increasing")
    logs = stream.log_abs(N)
    raw = _window_liminfs(logs, grid, N)
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


def _tail_roots(logs: np.ndarray, N: int) -> np.ndarray:
    """|a_n|^(1/n) for n in [N/2, N] from ln|a_n|, inf past the float range."""
    ns = np.arange((N + 1) // 2, N + 1)
    with np.errstate(over="ignore"):
        return np.exp(logs[ns] / ns)


def coeff_root_range(stream: Series, N: int) -> tuple[float, float]:
    """(min, max) of |a_n|^(1/n) over the tail window n in [N/2, N].

    Both ends near 1 indicate n-th roots of coefficients converging to 1;
    a min near 0 with max near 1 is the hallmark of gap series.
    """
    N = _check_horizon(N)
    if N < 64:
        raise DomainError("horizon N must be at least 64")
    vals = _tail_roots(stream.log_abs(N), N)
    return float(np.min(vals)), float(np.max(vals))


def gauge_coverage_bound(G: float, T: float) -> float:
    """Lower bound 1 - ln(1/G)/ln(T) for the eventual mass inside |w| <= T.

    Defined for 0 < G <= 1 and T > 1/G (in particular T > 1); clamped at 0.
    """
    G = float(_exact(G))
    T = float(_exact(T))
    if not 0.0 < G <= 1.0:
        raise DomainError("gauge G must lie in (0, 1]")
    if not (T > 1.0 / G and T > 1.0):
        raise DomainError("threshold T must exceed 1/G (and 1)")
    return max(0.0, 1.0 - math.log(1.0 / G) / math.log(T))
