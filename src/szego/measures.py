"""Radial counting measures, the weak-convergence metric, and power sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .roots import ZeroSet

__all__ = [
    "RadialMeasure",
    "radial_projection",
    "uniform_on_radii",
    "point_mass",
    "counting_fn",
    "compactify",
    "levy_distance",
    "weyl_sum",
    "inverse_power_sum",
]


def compactify(t):
    """Map [0, inf] homeomorphically onto [0, 1] via t -> t/(1+t)."""
    t = np.asarray(t, dtype=float)
    finite = ~np.isinf(t)
    out = np.ones_like(t)
    np.divide(t, 1.0 + t, out=out, where=finite)
    return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class RadialMeasure:
    """Nonnegative atoms on the compactified half line [0, inf].

    Atoms are kept sorted by radius with exact duplicates merged, so at most
    one atom sits at infinity.
    """

    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if r.shape != w.shape or r.ndim != 1:
            raise DomainError("radii and weights must be matching vectors")
        if np.any(w <= 0):
            raise DomainError("atom weights must be positive")
        if np.any(r < 0) or np.any(np.isnan(r)):
            raise DomainError("radii must lie in [0, inf]")
        order = np.argsort(r, kind="stable")
        r, w = r[order], w[order]
        uniq, inverse = np.unique(r, return_inverse=True)
        merged = np.zeros(len(uniq))
        np.add.at(merged, inverse, w)
        object.__setattr__(self, "radii", uniq)
        object.__setattr__(self, "weights", merged)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    @property
    def infinity_mass(self) -> float:
        return float(self.weights[-1]) if len(self.radii) and math.isinf(
            self.radii[-1]) else 0.0

    def cdf(self, t):
        """Mass at radii <= t; right-continuous in t."""
        t = np.asarray(t, dtype=float)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.radii, t, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        out = np.where(idx == 0, 0.0, out)
        return out if out.shape else float(out)


def radial_projection(Z: ZeroSet) -> RadialMeasure:
    """Uniform probability on the zero moduli, infinity atoms included."""
    n = Z.formal_degree
    if n < 1:
        raise DomainError("radial projection needs formal degree >= 1")
    radii = np.abs(Z.finite_zeros)
    if Z.infinity_count:
        radii = np.concatenate([radii, [np.inf]])
        weights = np.concatenate(
            [np.full(len(Z.finite_zeros), 1.0 / n), [Z.infinity_count / n]])
    else:
        weights = np.full(len(radii), 1.0 / n)
    return RadialMeasure(radii, weights)


def uniform_on_radii(radii) -> RadialMeasure:
    """Equal weights 1/m on m given radii."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    return RadialMeasure(radii, np.full(len(radii), 1.0 / len(radii)))


def point_mass(radius: float) -> RadialMeasure:
    return RadialMeasure([radius], [1.0])


def counting_fn(Z: ZeroSet, t):
    """Fraction of the formal zero count inside |w| <= t.

    Zeros at infinity are included only at t = inf, where the fraction
    reaches 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("radius t must be nonnegative")
    n = Z.formal_degree
    if n < 1:
        raise DomainError("counting function needs formal degree >= 1")
    moduli = np.sort(np.abs(Z.finite_zeros))
    out = np.searchsorted(moduli, t, side="right") / n
    out = out + np.where(np.isinf(t), Z.infinity_count / n, 0.0)
    return out if out.shape else float(out)


def _check_probability(mu: RadialMeasure, name: str) -> None:
    if abs(mu.total_weight - 1.0) > 1e-9:
        raise DomainError(f"{name} is not a probability measure "
                          f"(total weight {mu.total_weight!r})")


def _one_direction(jump_x: np.ndarray, jump_v: np.ndarray,
                   x: np.ndarray, F: np.ndarray) -> float:
    """max over jumps (p, v) of the least eps with F(p + eps) + eps >= v.

    For one jump the least eps is min(v, min_i max(x_i - p, v - F_i)): either
    eps >= v alone suffices (F >= 0), or some plateau i of F is reached. The
    inner minimum sits where the increasing and decreasing arguments cross,
    located by bisecting x_i + F_i against p + v.
    """
    key = x + F
    t = jump_x + jump_v
    pos = np.searchsorted(key, t)
    best = jump_v.astype(float).copy()
    for off in (-1, 0):
        i = pos + off
        valid = (i >= 0) & (i < len(x))
        iv = i[valid]
        cand = np.maximum(x[iv] - jump_x[valid], jump_v[valid] - F[iv])
        best[valid] = np.minimum(best[valid], cand)
    if len(best) == 0:
        return 0.0
    return max(0.0, float(np.max(best)))


def levy_distance(mu: RadialMeasure, nu: RadialMeasure) -> float:
    """Exact Levy distance between the compactified radius distributions.

    Both measures are pushed forward through t -> t/(1+t) (infinity to 1) and
    compared through their step CDFs: the least eps such that each CDF fits
    inside the eps-tube of the other. This metrizes weak convergence of
    measures on [0, inf] and is computed exactly from the finitely many jump
    constraints.
    """
    _check_probability(mu, "first argument")
    _check_probability(nu, "second argument")
    xs = [compactify(np.asarray(m.radii)) for m in (mu, nu)]
    Fs = [np.cumsum(m.weights) for m in (mu, nu)]
    a = _one_direction(xs[0], Fs[0], xs[1], Fs[1])
    b = _one_direction(xs[1], Fs[1], xs[0], Fs[0])
    return max(a, b)


def weyl_sum(Z: ZeroSet, m: int) -> complex:
    """Normalized sum of e^{-i m theta(w)} over finite nonzero zeros.

    Zeros at the origin have no argument and contribute 0; so do the zeros at
    infinity. Decay in n certifies angular equidistribution.
    """
    if int(m) != m or m < 1:
        raise DomainError("order m must be a positive integer")
    n = Z.formal_degree
    if n < 1:
        raise DomainError("weyl sum needs formal degree >= 1")
    w = Z.finite_zeros
    w = w[np.abs(w) > 0]
    if len(w) == 0:
        return 0j
    u = np.conj(w) / np.abs(w)
    return complex(np.sum(u ** int(m)) / n)


def inverse_power_sum(coeffs, m: int) -> complex:
    """sum of w^{-m} over the zeros, from the first m+1 coefficients alone.

    Newton's identities applied to the reversed companion polynomial; the
    result does not depend on the section degree n >= m. Zeros at infinity
    contribute 0. The constant coefficient must be nonzero.
    """
    if int(m) != m or m < 1:
        raise DomainError("order m must be a positive integer")
    a = np.asarray(list(coeffs), dtype=np.complex128)
    if len(a) < m + 1:
        raise DomainError(f"need coefficients a_0..a_{m}")
    if a[0] == 0:
        raise DomainError("constant coefficient must be nonzero")
    a = a / a[0]
    e = [(-1) ** j * a[j] for j in range(m + 1)]
    p = [0j] * (m + 1)
    for k in range(1, m + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p[k] = acc
    return complex(p[m])
