"""Coefficient-based zero-location bounds and log-product inequality checkers."""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError, VerificationError
from .series import Polynomial, _circle_values

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

#: zeros this close to the unit circle make the Jensen quadrature near-singular
UNIMODULAR_TOL = 1e-9

#: cap on Newton steps per radius; a certified start needs about 4
_MAX_NEWTON = 100
#: ln of the largest double, so that x and 1/x stay finite and nonzero
_LOG_MAX = math.log(sys.float_info.max)


# one table per power of two, so the cache never holds more than ~60
@functools.lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1) for k in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(n: int) -> np.ndarray:
    """Read-only ln k! for k = 0..n at least, in power-of-two sized tables."""
    return _log_factorial_table(1 << max(n, 1).bit_length())


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        raise DomainError(f"binomial ({n}, {k}) out of range")
    lf = _log_factorials(n)
    return float(lf[n] - lf[k] - lf[n - k])


def _outer_radius(b: np.ndarray, m: int) -> float:
    """Positive root x of b_n x^n = sum_{j<m} C(n-j-1, m-j-1) b_j x^j.

    ``b`` holds coefficient magnitudes and 1 <= m <= n, or m = n = 0. The
    root is +inf when b_n = 0 and 0 when no b_j with j < m is positive.
    In u = ln x the root solves psi(u) = 0 with

        psi(u) = logsumexp_j(a_j + j u) - ln b_n - n u,  a_j = ln(C b_j),

    which is convex and strictly decreasing. Each term alone balances the
    left side at u_j = (a_j - ln b_n) / (n - j), so psi >= 0 there; the
    largest u_j is a certified start on the left of the root, and plain
    Newton from it climbs monotonically onto the root without overshooting.
    One max-shifted ``exp`` per step gives both psi and psi'. Stops once a
    step falls below 1e-14 relative to max(1, |u|), leaving about 1e-13 in
    ln x; a root outside double range raises ConvergenceError.
    """
    n = len(b) - 1
    if b[n] == 0:
        return math.inf
    js = np.flatnonzero(b[:m])
    if len(js) == 0:
        return 0.0
    lf = _log_factorials(n)
    a = np.log(b[js]) + lf[n - 1 - js] - lf[m - 1 - js] - lf[n - m]
    log_lhs = math.log(b[n])
    u = float(np.max((a - log_lhs) / (n - js)))
    for _ in range(_MAX_NEWTON):
        t = a + js * u
        top = float(np.max(t))
        w = np.exp(t - top)
        s = float(np.sum(w))
        psi = top + math.log(s) - log_lhs - n * u
        step = psi / (n - float(np.dot(w, js)) / s)
        u += step
        if step <= 1e-14 * max(1.0, abs(u)):
            break
    if abs(u) > _LOG_MAX:
        raise ConvergenceError("bound equation root exceeds double range")
    return math.exp(u)


def _reciprocal(x: float) -> float:
    return math.inf if x == 0 else 1.0 / x


def cauchy_bound(P: Polynomial) -> float:
    """Radius C with every zero of P in |w| <= C.

    Unique positive root of |b_n| x^n = sum_{k<n} |b_k| x^k; +inf when the
    leading coefficient vanishes, 0 when no lower coefficient survives.
    Solved by certified-start Newton in ln x, accurate to about 1e-13.
    """
    c = np.abs(P.coeffs)
    if not np.any(c > 0):
        raise DomainError("zero polynomial has no Cauchy bound")
    return _outer_radius(c, P.formal_degree)


def inner_cauchy_bound(P: Polynomial) -> float:
    """Radius c with every zero of P in |w| >= c.

    Unique positive root of |b_0| = sum_{k>=1} |b_k| y^k: the reciprocal of
    the Cauchy bound of the reversed coefficients, solved the same way. A
    constant polynomial has no finite zeros, so every radius works: returns
    +inf.
    """
    c = np.abs(P.coeffs)
    if c[0] == 0:
        raise DomainError("constant coefficient is zero; deflate origin zeros first")
    return _reciprocal(_outer_radius(c[::-1], P.formal_degree))


def van_vleck_bound(P: Polynomial, m: int) -> float:
    """Radius V with at least m zeros of P in |w| <= V.

    Unique positive root of |b_n| x^n = sum_{j<m} C(n-j-1, m-j-1) |b_j| x^j;
    m = n recovers the Cauchy bound. Solved by certified-start Newton in
    ln x, accurate to about 1e-13.
    """
    n = P.formal_degree
    if not 1 <= m <= n:
        raise DomainError(f"m must lie in [1, {n}]")
    return _outer_radius(np.abs(P.coeffs), m)


def inner_van_vleck_bound(P: Polynomial, m: int, return_slack: bool = False):
    """Radius v with at least m zeros of P in |w| >= v.

    Unique positive root of |b_0| = sum_{k=n-m+1}^{n} C(k-1, k-(n-m)-1) |b_k| y^k,
    the reciprocal of the van Vleck radius of the reversed coefficients,
    solved the same way; +inf when every b_k in that range vanishes.
    With ``return_slack`` also returns the log-slack of the audit inequality
    ln|b_0| <= ln C(n, m-1) + max ln|b_k| + n ln max(1, v), which must be >= 0.
    """
    c = np.abs(P.coeffs)
    n = P.formal_degree
    if not 1 <= m <= n:
        raise DomainError(f"m must lie in [1, {n}]")
    if c[0] == 0:
        raise DomainError("constant coefficient is zero; deflate origin zeros first")
    v = _reciprocal(_outer_radius(c[::-1], m))
    if not return_slack:
        return v
    max_bk = float(np.max(c[n - m + 1:]))
    if max_bk == 0:
        return v, math.inf
    slack = (_log_comb(n, m - 1) + math.log(max_bk) + n * max(0.0, math.log(v))
             - math.log(c[0]))
    return v, slack


def entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x); H(0) = H(1) = 0."""
    x = float(x)
    if not 0 <= x <= 1:
        raise DomainError("entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log(x) + (1 - x) * math.log(1 - x))


def jensen_identity(P: Polynomial, Z, quad_points: int = 4096):
    """Both sides of the circular-mean identity for log zero moduli.

    lhs is the sum of |ln|w|| over the zeros; rhs is the trapezoid quadrature
    of the circle average of ln(|P|^2 / (|b_0||b_n|)). Zeros within 1e-9 of
    the unit circle degrade the quadrature and trigger a warning.
    """
    if quad_points < 1:
        raise DomainError("quad_points must be positive")
    c = P.coeffs
    n = P.formal_degree
    if c[0] == 0 or c[n] == 0:
        raise DomainError("identity needs nonzero first and last coefficients")
    moduli = np.abs(Z.finite_zeros)
    with np.errstate(divide="ignore"):
        lhs = float(np.sum(np.abs(np.log(moduli))))
    if len(moduli) and float(np.min(np.abs(moduli - 1.0))) < UNIMODULAR_TOL:
        warnings.warn(
            "zero within 1e-9 of the unit circle; quadrature accuracy degrades "
            "to about 1e-3", RuntimeWarning, stacklevel=2)
    vals = np.abs(_circle_values(c, quad_points))
    with np.errstate(divide="ignore"):
        mean_log = float(np.mean(2.0 * np.log(vals)))
    rhs = mean_log - math.log(abs(c[0])) - math.log(abs(c[n]))
    return lhs, rhs


def weak_jensen_check(P: Polynomial, Z, T: float, quad_points: int = 4096):
    """Both sides of the tail-mass inequality at threshold T > 1.

    lhs = ln(T) (1 - F(T) + F(1/T)) with F the zero-modulus distribution;
    rhs is the Jensen circle average divided by the formal degree. Raises
    VerificationError if lhs exceeds rhs beyond 1e-9.
    """
    T = float(T)
    if T <= 1:
        raise DomainError("threshold T must exceed 1")
    n = P.formal_degree
    if n < 1:
        raise DomainError("degree must be positive")
    moduli = np.abs(Z.finite_zeros)
    F_T = float(np.count_nonzero(moduli <= T)) / n
    F_invT = float(np.count_nonzero(moduli <= 1.0 / T)) / n
    lhs = math.log(T) * (1.0 - F_T + F_invT)
    _, jensen_rhs = jensen_identity(P, Z, quad_points)
    rhs = jensen_rhs / n
    if lhs > rhs + 1e-9:
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

    The identity |b_0|/|b_n| = prod |w| is checked in log space whenever both
    end coefficients are nonzero. For every k with b_k != 0, the product of
    the k smallest (resp. n-k largest) zero moduli is compared against the
    binomial bound; slacks are reported in nats and must be nonnegative.
    """
    c = np.abs(P.coeffs)
    n = P.formal_degree
    moduli = np.sort(np.abs(Z.finite_zeros))
    with np.errstate(divide="ignore"):
        logm = np.log(moduli)
    logm = np.concatenate([logm, np.full(Z.infinity_count, math.inf)])
    # prefix[k] = sum of logs of the k smallest moduli
    prefix = np.concatenate([[0.0], np.cumsum(logm)])
    total = prefix[-1]

    skipped: list[tuple[int, str]] = []
    if c[0] > 0 and c[n] > 0:
        lhs_log = float(total)
        rhs_log = math.log(c[0]) - math.log(c[n])
        rel = abs(math.expm1(lhs_log - rhs_log)) if math.isfinite(lhs_log) else math.inf
        product = (lhs_log, rhs_log, rel)
    else:
        product = (None, None, None)
        skipped.append((-1, "product identity needs b_0 and b_n nonzero"))

    small: dict[int, float] = {}
    large: dict[int, float] = {}
    for k in range(n + 1):
        if c[k] == 0:
            skipped.append((k, "coefficient is zero"))
            continue
        lc = _log_comb(n, k)
        if c[n] > 0:
            # n-k largest moduli against |b_k|/|b_n|
            tail = total - prefix[k] if math.isfinite(total) else math.inf
            large[k] = lc + tail - (math.log(c[k]) - math.log(c[n]))
        if c[0] > 0:
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


def bounds_report(P: Polynomial, m_values=None) -> BoundsReport:
    """Assemble the four bound families for a polynomial.

    ``m_values`` defaults to 1..min(n, 12). The inner radii are omitted
    (None / empty) when the constant coefficient vanishes.
    """
    n = P.formal_degree
    if m_values is None:
        m_values = range(1, min(n, 12) + 1)
    m_values = [int(m) for m in m_values]
    for m in m_values:
        if not 1 <= m <= n:
            raise DomainError(f"m={m} out of range [1, {n}]")
    c0_ok = abs(P.coeffs[0]) > 0
    return BoundsReport(
        cauchy=cauchy_bound(P),
        inner_cauchy=inner_cauchy_bound(P) if c0_ok else None,
        van_vleck={m: van_vleck_bound(P, m) for m in m_values},
        inner_van_vleck=(
            {m: inner_van_vleck_bound(P, m) for m in m_values} if c0_ok else {}
        ),
    )
