"""Coefficient-based zero-location bounds and log-product inequality checkers."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, VerificationError
from .measures import counting_fn
from .roots import sorted_moduli
from .series import (Polynomial, _circle_values, _exact, _integer,
                     _log_factorials, _outer_radius)

__all__ = [
    "BoundsReport",
    "VieteReport",
    "cauchy_bound",
    "inner_cauchy_bound",
    "van_vleck_bound",
    "inner_van_vleck_bound",
    "entropy",
    "jensen_identity",
    "weak_jensen_check",
    "viete_checks",
    "bounds_report",
]

def _log_comb(n: int, k: int) -> float:
    lf = _log_factorials(n)
    return float(lf[n] - lf[k] - lf[n - k])


def _order(P: Polynomial, m) -> int:
    """The zero count m of a van Vleck radius, checked to lie in [1, n]."""
    m = _integer(m)
    n = P.formal_degree
    if not 1 <= m <= n:
        raise DomainError(f"m must lie in [1, {n}]")
    return m


def _radius(P: Polynomial, m: int, inner: bool) -> float:
    """The outer van Vleck radius of order m, or with ``inner`` the reciprocal
    of that of the reversed coefficients (+inf for an outer radius 0); the
    Cauchy radii are the case m = n."""
    c = np.abs(P.coeffs)
    if not inner:
        return _outer_radius(c, m)
    if c[0] == 0:
        raise DomainError("constant coefficient is zero; deflate origin zeros first")
    x = _outer_radius(c[::-1], m)
    return math.inf if x == 0 else 1.0 / x


def cauchy_bound(P: Polynomial) -> float:
    """Radius C with every zero of P in |w| <= C.

    Unique positive root of |b_n| x^n = sum_{k<n} |b_k| x^k, the van Vleck
    radius of order m = n; +inf when the leading coefficient vanishes, 0
    when no lower coefficient survives. Solved by certified-start Newton in
    ln x, accurate to about 1e-13.
    """
    if not np.any(P.coeffs):
        raise DomainError("zero polynomial has no Cauchy bound")
    return _radius(P, P.formal_degree, False)


def inner_cauchy_bound(P: Polynomial) -> float:
    """Radius c with every zero of P in |w| >= c.

    Unique positive root of |b_0| = sum_{k>=1} |b_k| y^k: the inner van
    Vleck radius of order m = n, the reciprocal of the Cauchy bound of the
    reversed coefficients. A constant polynomial has no finite zeros, so
    every radius works: returns +inf.
    """
    return _radius(P, P.formal_degree, True)


def van_vleck_bound(P: Polynomial, m: int) -> float:
    """Radius V with at least m zeros of P in |w| <= V.

    Unique positive root of |b_n| x^n = sum_{j<m} C(n-j-1, m-j-1) |b_j| x^j;
    m must lie in [1, n], and m = n recovers the Cauchy bound. Solved by
    certified-start Newton in ln x, accurate to about 1e-13.
    """
    return _radius(P, _order(P, m), False)


def inner_van_vleck_bound(P: Polynomial, m: int) -> float:
    """Radius v with at least m zeros of P in |w| >= v.

    Unique positive root of |b_0| = sum_{k=n-m+1}^{n} C(k-1, k-(n-m)-1) |b_k| y^k,
    the reciprocal of the van Vleck radius of the reversed coefficients,
    solved the same way; +inf when every b_k in that range vanishes. m must
    lie in [1, n], and b_0 must be nonzero.
    """
    return _radius(P, _order(P, m), True)


def entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x); H(0) = H(1) = 0."""
    x = float(_exact(x))
    if not 0 <= x <= 1:
        raise DomainError("entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log(x) + (1 - x) * math.log(1 - x))


def _jensen_sides(P: Polynomial, Z):
    """Jensen's lhs and rhs, and a bound B on the quadrature error of rhs.

    A zero w adds exactly (2/N) ln|1 - w^(+-N)| to the N-node trapezoid
    mean of 2 ln|P| (Trefethen & Weideman, SIAM Rev. 56, 2014), so the
    error is at most B = (2/N) sum -ln(1 - rho^N), rho = min(|w|, 1/|w|).
    """
    c = P.coeffs
    n = P.formal_degree
    moduli = np.abs(Z.finite_zeros)
    if c[0] == 0 or c[n] == 0 or Z.infinity_count or not np.all(moduli):
        raise DomainError("identity needs nonzero first and last coefficients "
                          "and no zero at 0 or infinity")
    log_rho = -np.abs(np.log(moduli))
    lhs = -float(np.sum(log_rho))
    target = 1e-13 * (1.0 + lhs)
    nodes = 4096
    with np.errstate(divide="ignore"):
        while True:
            tails = np.log1p(-np.exp(nodes * log_rho))
            bound = -2.0 / nodes * float(np.sum(tails))
            if bound <= target or nodes == 2 ** 20:
                break
            nodes *= 2
        if bound > target:
            warnings.warn(
                f"zeros near the unit circle: the Jensen rhs may be off by up "
                f"to {bound:.3g} at {nodes} nodes", RuntimeWarning, stacklevel=3)
        mean_log = float(np.mean(2.0 * np.log(np.abs(_circle_values(c, nodes)))))
    return lhs, mean_log - math.log(abs(c[0])) - math.log(abs(c[n])), bound


def jensen_identity(P: Polynomial, Z):
    """Both sides of the circular-mean identity for log zero moduli.

    lhs is the sum of |ln|w|| over the zeros; rhs is the trapezoid quadrature
    of the circle average of ln(|P|^2 / (|b_0||b_n|)). The node count
    doubles from 4096 until the zeros bound its error by 1e-13 (1 + lhs);
    past 2^20 nodes a RuntimeWarning states the bound. b_0 and b_n must be
    nonzero, and Z may hold no zero at 0 or at infinity: a b_0 or b_n at or
    below 1e-300 of the largest coefficient is solved as zero.
    """
    return _jensen_sides(P, Z)[:2]


def weak_jensen_check(P: Polynomial, Z, T: float):
    """Both sides of the tail-mass inequality at threshold T > 1.

    lhs = ln(T) (1 - F(T) + F(1/T)) with F the zero-modulus distribution;
    rhs is the Jensen circle average divided by the formal degree. Raises
    VerificationError if lhs exceeds rhs beyond the quadrature's error
    bound divided by the degree, plus 1e-9.
    """
    T = float(_exact(T))
    if not 1 < T < math.inf:
        raise DomainError("threshold T must be finite and exceed 1")
    n = P.formal_degree
    if n < 1:
        raise DomainError("degree must be positive")
    lhs = math.log(T) * (1.0 - counting_fn(Z, T) + counting_fn(Z, 1.0 / T))
    _, jensen_rhs, bound = _jensen_sides(P, Z)
    rhs = jensen_rhs / n
    if lhs > rhs + bound / n + 1e-9:
        raise VerificationError(
            f"weak Jensen inequality violated: lhs={lhs!r} > rhs={rhs!r}")
    return lhs, rhs


@dataclass
class VieteReport:
    """Log-space audit of the zero-product identity and its two inequalities."""

    product_log_lhs: float | None
    product_log_rhs: float | None
    product_rel_err: float | None
    ineq_small_slack: dict[int, float]
    ineq_large_slack: dict[int, float]
    skipped: list[tuple[int, str]]

    def min_slack(self) -> float:
        vals = list(self.ineq_small_slack.values()) + list(
            self.ineq_large_slack.values())
        return min(vals) if vals else math.inf


def viete_checks(P: Polynomial, Z) -> VieteReport:
    """Verify the modulus-product identity and binomial product inequalities.

    For every k with b_k != 0, the product of the k smallest (resp. n-k
    largest) zero moduli is compared against the binomial bound; slacks are
    reported in nats and must be nonnegative. The solver puts a b_0 or b_n
    at or below 1e-300 of the largest coefficient at 0 or infinity, so Z
    gives those counts: the k smallest are summed only when b_0 != 0, Z has
    no zero at 0 and k <= n - (zeros at infinity); the n-k largest only when
    b_n != 0, Z has no zero at infinity and k >= (zeros at 0). No sum meets
    ln 0 or ln inf. The identity |b_0|/|b_n| = prod |w| is checked in log
    space when Z has neither.
    """
    c = np.abs(P.coeffs)
    n = P.formal_degree
    with np.errstate(divide="ignore"):
        logm = np.log(sorted_moduli(Z))
    at0, atinf = int(np.sum(logm == -np.inf)), Z.infinity_count
    bottom, top = c[0] > 0 and at0 == 0, c[n] > 0 and atinf == 0
    # prefix[k] sums the k smallest log moduli, suffix[k] the n - k largest
    if bottom:
        prefix = np.concatenate([[0.0], np.cumsum(logm)])
    if top:
        suffix = np.concatenate([np.cumsum(logm[::-1])[::-1], [0.0]])

    skipped: list[tuple[int, str]] = []
    if bottom and top:
        lhs_log = float(prefix[-1])
        rhs_log = math.log(c[0]) - math.log(c[n])
        product = (lhs_log, rhs_log, abs(math.expm1(lhs_log - rhs_log)))
    else:
        product = (None, None, None)
        skipped.append((-1, "product identity needs no zero at 0 or infinity"))

    small: dict[int, float] = {}
    large: dict[int, float] = {}
    for k in range(n + 1):
        if c[k] == 0:
            skipped.append((k, "coefficient is zero"))
            continue
        lc = _log_comb(n, k)
        if top and k >= at0:
            large[k] = lc + suffix[k] - (math.log(c[k]) - math.log(c[n]))
        if bottom and k <= n - atinf:
            small[k] = lc + math.log(c[0]) - math.log(c[k]) - prefix[k]
    return VieteReport(product[0], product[1], product[2], small, large, skipped)


@dataclass
class BoundsReport:
    """Outer/inner Cauchy radii and the partial-count radii maps."""

    cauchy: float
    inner_cauchy: float | None
    van_vleck: dict[int, float]
    inner_van_vleck: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "cauchy": self.cauchy,
            "inner_cauchy": self.inner_cauchy,
            "van_vleck": {str(m): v for m, v in self.van_vleck.items()},
            "inner_van_vleck": {str(m): v for m, v in self.inner_van_vleck.items()},
        }


def bounds_report(P: Polynomial) -> BoundsReport:
    """Assemble the four bound families for a polynomial.

    The van Vleck maps hold the orders m = 1..min(n, 12); the inner radii
    are omitted (None / empty) when b_0 vanishes.
    """
    orders = range(1, min(P.formal_degree, 12) + 1)
    c0_ok = abs(P.coeffs[0]) > 0
    return BoundsReport(
        cauchy=cauchy_bound(P),
        inner_cauchy=inner_cauchy_bound(P) if c0_ok else None,
        van_vleck={m: van_vleck_bound(P, m) for m in orders},
        inner_van_vleck=(
            {m: inner_van_vleck_bound(P, m) for m in orders} if c0_ok else {}
        ),
    )
