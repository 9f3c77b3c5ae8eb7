"""All-roots polynomial solving with the zeros-at-infinity convention."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import cauchy_bound, inner_cauchy_bound
from .exceptions import ConvergenceError, DomainError
from .series import Polynomial, _horner

__all__ = ["ZeroSet", "find_zeros", "sorted_moduli", "DROP_TOL"]

#: coefficients at or below this magnitude relative to the largest one are
#: treated as exact zeros for degree bookkeeping; the rule is scale-invariant,
#: like the zeros themselves
DROP_TOL = 1e-300

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MAX_ITERS = 600
_CHUNK = 256


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Finite zeros plus an explicit multiplicity at infinity.

    The finite multiset and the infinity count together account for exactly
    ``formal_degree`` zeros.
    """

    finite_zeros: np.ndarray
    infinity_count: int
    formal_degree: int

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.finite_zeros, dtype=np.complex128))
        object.__setattr__(self, "finite_zeros", z)
        if len(z) + self.infinity_count != self.formal_degree:
            raise DomainError(
                f"{len(z)} finite zeros + {self.infinity_count} at infinity "
                f"!= formal degree {self.formal_degree}"
            )


def sorted_moduli(Z: ZeroSet) -> np.ndarray:
    """Nondecreasing zero moduli, with inf markers for the zeros at infinity."""
    finite = np.sort(np.abs(Z.finite_zeros))
    return np.concatenate([finite, np.full(Z.infinity_count, np.inf)])


def find_zeros(P: Polynomial, tol: float = 1e-10) -> ZeroSet:
    """All zeros of P counted with multiplicity, including 0 and infinity.

    Zeros at the origin (leading zero coefficients) and at infinity (trailing
    zero coefficients) are deflated exactly; the rest come from simultaneous
    iteration and satisfy the backward-error bound
    |P(w)| <= tol * sum_k |b_k| |w|^k.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    c = P.coeffs
    n = P.formal_degree
    mags = np.abs(c)
    cmax = float(np.max(mags))
    if cmax == 0.0:
        raise DomainError("the zero polynomial has no zero set")
    nz = np.nonzero(mags > DROP_TOL * cmax)[0]
    low, deg = int(nz[0]), int(nz[-1])
    core = c[low: deg + 1] / cmax
    d = deg - low
    if d == 0:
        roots = np.empty(0, dtype=np.complex128)
    elif d == 1:
        roots = np.array([-core[0] / core[1]])
    else:
        try:
            roots = _aberth(core, tol)
        except ConvergenceError:
            roots = _aberth_rescaled(core, tol)
    finite = np.concatenate([np.zeros(low, dtype=np.complex128), roots])
    finite = np.sort_complex(finite)
    return ZeroSet(finite, n - deg, n)


def _aberth_rescaled(core: np.ndarray, tol: float) -> np.ndarray:
    """Retry after the substitution z = C u with C the outer Cauchy radius."""
    d = len(core) - 1
    C = cauchy_bound(Polynomial(core, d))
    logs = np.full(d + 1, -np.inf)
    nz = np.abs(core) > 0
    logs[nz] = np.log(np.abs(core[nz])) + np.arange(d + 1)[nz] * math.log(C)
    shift = float(np.max(logs))
    scaled = np.zeros(d + 1, dtype=np.complex128)
    scaled[nz] = core[nz] / np.abs(core[nz]) * np.exp(logs[nz] - shift)
    if abs(scaled[0]) == 0 or abs(scaled[d]) == 0:
        raise ConvergenceError("rescaled polynomial lost its end coefficients")
    return C * _aberth(scaled, tol)


def _initial_guesses(core: np.ndarray) -> np.ndarray:
    """Start points on coefficient-polygon circles, spread by the golden angle.

    The radii come from the upper convex hull of (k, ln|b_k|): each hull edge
    of horizontal extent q contributes q start radii exp(-slope), clipped into
    [inner, outer] Cauchy radii so no guess starts absurdly far from the zeros.
    """
    d = len(core) - 1
    mags = np.abs(core)
    ks = np.nonzero(mags > 0)[0]
    ls = np.log(mags[ks])
    hull: list[tuple[float, float]] = []
    for x, y in zip(ks.astype(float), ls):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    radii = np.empty(d)
    pos = 0
    for (x1, y1), (x2, y2) in zip(hull[:-1], hull[1:]):
        q = int(round(x2 - x1))
        radii[pos: pos + q] = math.exp(-(y2 - y1) / (x2 - x1))
        pos += q
    poly = Polynomial(core, d)
    radii = np.clip(radii, inner_cauchy_bound(poly), cauchy_bound(poly))
    angles = _GOLDEN_ANGLE * np.arange(d) + 0.4
    return radii * np.exp(1j * angles)


def _newton_terms(core: np.ndarray, rev: np.ndarray, w: np.ndarray):
    """Newton step P/P', |P| and sum_k |b_k| |w|^k at each point w.

    Where |w| > 1 the reversed coefficients are evaluated at 1/w instead:
    P(w) = w^d Q(1/w), so P/P' = w Q / (d Q - v Q') with v = 1/w, and |P|
    and the sum both come divided by |w|^d, which leaves the backward-error
    test |P| <= tol * sum unchanged.
    """
    d = len(core) - 1
    outer = np.abs(w) > 1.0
    inner = ~outer
    nu = np.empty(len(w), dtype=np.complex128)
    absp = np.empty(len(w))
    s = np.empty(len(w))
    if np.any(inner):
        p, dp, s[inner] = _horner(core, w[inner])
        with np.errstate(divide="ignore", invalid="ignore"):
            nu[inner] = p / dp
        absp[inner] = np.abs(p)
    if np.any(outer):
        wo = w[outer]
        v = 1.0 / wo
        q, dq, s[outer] = _horner(rev, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            nu[outer] = wo * q / (d * q - v * dq)
        absp[outer] = np.abs(q)
    return nu, absp, s


def _aberth(core: np.ndarray, tol: float) -> np.ndarray:
    """Simultaneous iteration on a polynomial with nonzero end coefficients."""
    core = core / np.max(np.abs(core))
    d = len(core) - 1
    rev = core[::-1].copy()
    w = _initial_guesses(core)
    done = np.zeros(d, dtype=bool)
    for _ in range(_MAX_ITERS):
        act = np.nonzero(~done)[0]
        if len(act) == 0:
            return w
        nu, absp, s = _newton_terms(core, rev, w[act])
        ok = absp <= tol * s
        newly = act[ok]
        done[newly] = True
        act = act[~ok]
        if len(act) == 0:
            return w
        nu = nu[~ok]
        repel = _pair_sums(w, act)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = nu / (1.0 - nu * repel)
        bad = ~np.isfinite(corr)
        if np.any(bad):
            corr[bad] = 0.1 * (1.0 + np.abs(w[act[bad]]))
        cap = 0.5 * (1.0 + np.abs(w[act]))
        mag = np.abs(corr)
        over = mag > cap
        if np.any(over):
            corr[over] *= cap[over] / mag[over]
        w[act] -= corr
    _, absp, s = _newton_terms(core, rev, w)
    worst = float(np.max(absp / s))
    raise ConvergenceError(
        f"simultaneous iteration stalled at residual ratio {worst:.3e}",
        residual=worst,
    )


def _pair_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j 1/(w_i - w_j) for i in rows, j over all other roots, in blocks."""
    out = np.empty(len(rows), dtype=np.complex128)
    for start in range(0, len(rows), _CHUNK):
        idx = rows[start: start + _CHUNK]
        diff = w[idx, None] - w[None, :]
        diff[np.arange(len(idx)), idx] = np.inf
        tiny = diff == 0
        if np.any(tiny):
            diff[tiny] = 1e-12
        out[start: start + _CHUNK] = np.sum(1.0 / diff, axis=1)
    return out

