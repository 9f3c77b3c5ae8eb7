"""Radial counting measures, the weak-convergence metric, and power sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .roots import ZeroSet
from .series import _integer

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
    t = _check_radii(t)
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
        r = np.atleast_1d(_check_radii(self.radii))
        try:
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        except (TypeError, ValueError):
            raise DomainError("atom weights must be numbers") from None
        if r.shape != w.shape or r.ndim != 1:
            raise DomainError("radii and weights must be matching vectors")
        if not np.all((w > 0) & (w < np.inf)):
            raise DomainError("atom weights must be positive and finite")
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
        t = _check_radii(t)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.radii, t, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        return out if out.shape else float(out)


def radial_projection(Z: ZeroSet) -> RadialMeasure:
    """Uniform probability on the zero moduli, infinity atoms included."""
    n = _formal_degree(Z, "radial projection")
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
    radii = np.atleast_1d(_check_radii(radii))
    if len(radii) == 0:
        raise DomainError("a uniform measure needs at least one radius")
    return RadialMeasure(radii, np.full(len(radii), 1.0 / len(radii)))


def point_mass(radius: float) -> RadialMeasure:
    return RadialMeasure([radius], [1.0])


def _check_radii(t) -> np.ndarray:
    """t as a float array; raises DomainError on a radius that is not a
    number in [0, inf]."""
    try:
        t = np.asarray(t, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(
            f"radius t must be a nonnegative number, got {t!r}") from None
    if np.any(t < 0) or np.any(np.isnan(t)):
        raise DomainError("radius t must be a nonnegative number")
    return t


def _formal_degree(Z: ZeroSet, what: str) -> int:
    """Z's formal degree; raises DomainError unless Z is a ZeroSet of
    formal degree at least 1."""
    if not isinstance(Z, ZeroSet):
        raise DomainError(f"{what} needs a ZeroSet, got {Z!r}")
    if Z.formal_degree < 1:
        raise DomainError(f"{what} needs formal degree >= 1")
    return Z.formal_degree


def counting_fn(Z: ZeroSet, t):
    """Fraction of the formal zero count inside |w| <= t.

    Zeros at infinity are included only at t = inf, where the fraction
    reaches 1.
    """
    t = _check_radii(t)
    n = _formal_degree(Z, "counting function")
    moduli = np.sort(np.abs(Z.finite_zeros))
    out = np.searchsorted(moduli, t, side="right") / n
    out = out + np.where(np.isinf(t), Z.infinity_count / n, 0.0)
    return out if out.shape else float(out)


def _check_probability(mu: RadialMeasure, name: str) -> None:
    if not isinstance(mu, RadialMeasure):
        raise DomainError(f"{name} is not a RadialMeasure: {mu!r}")
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


def _weyl_order(m) -> int:
    m = _integer(m)
    if not 1 <= m < 2 ** 63:
        raise DomainError(f"weyl order must be an integer in [1, 2^63), got {m}")
    return m


def weyl_sum(Z: ZeroSet, m: int) -> complex:
    """Normalized sum of e^{-i m theta(w)} over finite nonzero zeros.

    Zeros at the origin have no argument and contribute 0; so do the zeros at
    infinity. Decay in n certifies angular equidistribution. The order must
    be an integer in [1, 2^63). Each term is e^{-i m theta} from the float
    angle theta, so it stays on the unit circle for every order (a power of
    conj(w)/|w|, of modulus 1 only to the last bit, drifts like e^(m 2e-16)).
    The rounding of theta puts an error of about m 1e-16 rad on each phase:
    past m ~ 1e15 the terms are noise, but the sum keeps modulus at most 1.
    """
    m = _weyl_order(m)
    n = _formal_degree(Z, "weyl sum")
    w = Z.finite_zeros
    theta = np.angle(w[np.abs(w) > 0])
    if len(theta) == 0:
        return 0j
    return complex(np.sum(np.exp(-1j * (m * theta))) / n)


def inverse_power_sum(coeffs, m: int) -> complex:
    """sum of w^{-m} over the zeros, from the first m+1 coefficients alone.

    Newton's identities applied to the reversed companion polynomial; the
    result does not depend on the section degree n >= m. Zeros at infinity
    contribute 0. The constant coefficient must be nonzero.
    """
    m = _integer(m)
    if m < 1:
        raise DomainError("order m must be a positive integer")
    try:
        a = np.asarray(list(coeffs), dtype=np.complex128)
    except (TypeError, ValueError):
        raise DomainError(
            f"coefficients must be numbers, got {coeffs!r}") from None
    if not np.all(np.isfinite(a)):
        raise DomainError("coefficients must be finite (no NaN or inf)")
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
