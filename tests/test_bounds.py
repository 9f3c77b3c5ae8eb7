"""Coefficient-equation bounds, the circle-mean identity, and product checks."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from szego import (ConvergenceError, DomainError, Polynomial, VerificationError,
                   bounds, bounds_report, cauchy_bound, entropy, find_zeros,
                   inner_cauchy_bound, inner_van_vleck_bound, jensen_identity,
                   parse_family, section, van_vleck_bound,
                   viete_checks, weak_jensen_check, ZeroSet)


def _poly_from_roots(roots):
    c = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))[::-1].copy()
    return Polynomial(c, len(roots))


def _reversed(P):
    # z^n P(1/z): swaps the zeros with their reciprocals, 0 with infinity
    return Polynomial(P.coeffs[::-1].copy(), P.formal_degree)


def _bisect_increasing(f, lo, hi, iters=200):
    # sign-change bisection; f must be negative at lo and positive at hi
    assert f(lo) < 0 < f(hi)
    for _ in range(iters):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cauchy_oracle(c):
    # direct bisection on |b_n| x^n - sum_{k<n} |b_k| x^k, in log form
    # to survive huge radii
    mags = np.abs(c)
    n = len(c) - 1
    ks = np.nonzero(mags[:n])[0]

    def f(x):
        lead = math.log(mags[n]) + n * math.log(x)
        rest = [math.log(mags[k]) + k * math.log(x) for k in ks]
        m = max(rest)
        return lead - (m + math.log(sum(math.exp(r - m) for r in rest)))

    return _bisect_increasing(f, 1e-80, 1e80)


def test_cauchy_bound_matches_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        deg = int(rng.integers(1, 20))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 1.5
        got = cauchy_bound(Polynomial(c, deg))
        assert got == pytest.approx(_cauchy_oracle(c), rel=1e-9)


def test_cauchy_bound_pinned_all_ones():
    # x^3 = x^2 + x + 1 and the mirrored equation 1 = y + y^2 + y^3,
    # solved independently by bisection and frozen
    P = Polynomial(np.ones(4), 3)
    assert cauchy_bound(P) == pytest.approx(1.8392867552141612, rel=1e-12)
    assert inner_cauchy_bound(P) == pytest.approx(0.5436890126920763, rel=1e-12)


def test_bounds_contain_all_zeros():
    rng = np.random.default_rng(77)
    for _ in range(30):
        deg = int(rng.integers(2, 24))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 1.0
        c[-1] += 1.0
        P = Polynomial(c, deg)
        Z = find_zeros(P)
        ms = np.abs(Z.finite_zeros)
        C = cauchy_bound(P)
        lo = inner_cauchy_bound(P)
        assert np.all(ms <= C * (1 + 1e-9))
        assert np.all(ms >= lo * (1 - 1e-9))


def test_inner_cauchy_is_reciprocal_of_reversed_cauchy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        deg = int(rng.integers(1, 16))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 2.0
        c[-1] += 2.0
        P = Polynomial(c, deg)
        assert inner_cauchy_bound(P) == pytest.approx(
            1.0 / cauchy_bound(_reversed(P)), rel=1e-9)


def test_van_vleck_endpoints():
    rng = np.random.default_rng(17)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    c[0] += 2.0
    c[-1] += 2.0
    P = Polynomial(c, 8)
    # m = n recovers the outer bound, m = 1 has the closed form
    assert van_vleck_bound(P, 8) == pytest.approx(cauchy_bound(P), rel=1e-10)
    assert van_vleck_bound(P, 1) == pytest.approx(
        (abs(c[0]) / abs(c[8])) ** (1 / 8), rel=1e-10)
    assert inner_van_vleck_bound(P, 8) == pytest.approx(
        inner_cauchy_bound(P), rel=1e-10)
    with pytest.raises(DomainError):
        van_vleck_bound(P, 0)
    with pytest.raises(DomainError):
        van_vleck_bound(P, 9)


def test_van_vleck_counts_zeros():
    rng = np.random.default_rng(19)
    for _ in range(15):
        deg = int(rng.integers(3, 20))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 1.0
        c[-1] += 1.0
        P = Polynomial(c, deg)
        ms = np.sort(np.abs(find_zeros(P).finite_zeros))
        for m in range(1, deg + 1):
            V = van_vleck_bound(P, m)
            v = inner_van_vleck_bound(P, m)
            assert np.sum(ms <= V * (1 + 1e-9)) >= m
            assert np.sum(ms >= v * (1 - 1e-9)) >= m
        # the full-count radii agree with the global bounds
        assert van_vleck_bound(P, deg) <= cauchy_bound(P) * (1 + 1e-12)


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _equation_residual(log_lhs, p, terms, x, relative=False):
    # |ln(sum_j w_j x^j) - ln(lhs x^p)| for terms [(ln w_j, j), ...];
    # relative divides by the largest exponent, max(1, |ln(lhs x^p)|, ...)
    u = math.log(x)
    a = [lw + j * u for lw, j in terms]
    top = max(a)
    res = abs(top + math.log(math.fsum(math.exp(t - top) for t in a))
              - log_lhs - p * u)
    if relative:
        res /= max([1.0, abs(log_lhs + p * u)] + [abs(t) for t in a])
    return res


def _radius_residuals(c, relative=False):
    """Residuals of all four radius families in their defining equations."""
    la = [math.log(abs(x)) for x in c]
    n = len(c) - 1
    P = Polynomial(c, n)

    def res(log_lhs, p, terms, x):
        return _equation_residual(log_lhs, p, terms, x, relative)

    out = [res(la[n], n, [(la[j], j) for j in range(n)], cauchy_bound(P)),
           res(la[0], 0, [(la[k], k) for k in range(1, n + 1)],
               inner_cauchy_bound(P))]
    for m in range(1, n + 1):
        outer = [(_log_comb(n - j - 1, m - j - 1) + la[j], j) for j in range(m)]
        out.append(res(la[n], n, outer, van_vleck_bound(P, m)))
        inner = [(_log_comb(k - 1, k - (n - m) - 1) + la[k], k)
                 for k in range(n - m + 1, n + 1)]
        out.append(res(la[0], 0, inner, inner_van_vleck_bound(P, m)))
    return out


def test_radii_solve_their_equations():
    # a radius that is too large still passes containment; the defining
    # equation pins it down
    rng = np.random.default_rng(43)
    degrees = [2, 3, 5, 8, 13, 21, 34, 55, 89, 128]
    for deg in degrees:
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        assert max(_radius_residuals(c)) <= 1e-12


def test_radius_solves_take_few_newton_steps(monkeypatch):
    # a work gate that does not depend on the machine: np.exp calls per
    # solve, over the draws of test_radii_solve_their_equations
    counts = []
    real_exp, real_solve = np.exp, bounds._outer_radius

    def exp(x):
        counts[-1] += 1
        return real_exp(x)

    def solve(b, m):
        counts.append(0)
        return real_solve(b, m)

    monkeypatch.setattr(bounds.np, "exp", exp)
    monkeypatch.setattr(bounds, "_outer_radius", solve)
    rng = np.random.default_rng(43)
    for deg in [2, 3, 5, 8, 13, 21, 34, 55, 89, 128]:
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        P = Polynomial(c, deg)
        cauchy_bound(P)
        inner_cauchy_bound(P)
        for m in range(1, deg + 1):
            van_vleck_bound(P, m)
            inner_van_vleck_bound(P, m)
    assert len(counts) == 2 * (358 + 10)
    assert np.mean(counts) <= 4.5
    assert max(counts) <= 8


def test_radius_identities():
    rng = np.random.default_rng(47)
    for deg in (1, 2, 7, 30, 128):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        P = Polynomial(c, deg)
        R = _reversed(P)
        assert van_vleck_bound(P, deg) == pytest.approx(cauchy_bound(P),
                                                        rel=1e-13)
        assert inner_cauchy_bound(P) * cauchy_bound(R) == pytest.approx(
            1.0, rel=1e-13)
        for m in range(1, deg + 1):
            assert inner_van_vleck_bound(P, m) * van_vleck_bound(R, m) == \
                pytest.approx(1.0, rel=1e-13)


def test_single_lower_term_closed_form():
    # 2 z^3 + 5 z^7: one term on each side of every equation
    c = np.zeros(8, dtype=complex)
    c[3], c[7] = 2.0, 5.0j
    P = Polynomial(c, 7)
    assert cauchy_bound(P) == pytest.approx((2 / 5) ** (1 / 4), rel=1e-14)
    for m in range(1, 4):
        assert van_vleck_bound(P, m) == 0.0  # the triple zero at the origin
    for m in range(4, 8):
        closed = (math.comb(3, m - 4) * 2 / 5) ** (1 / 4)
        assert van_vleck_bound(P, m) == pytest.approx(closed, rel=1e-14)
    # 3 - 4 z^5 mirrored: |b_0| = |b_5| y^5
    Q = Polynomial(np.array([3.0, 0, 0, 0, 0, -4.0]), 5)
    assert inner_cauchy_bound(Q) == pytest.approx((3 / 4) ** (1 / 5), rel=1e-14)
    assert inner_van_vleck_bound(Q, 1) == pytest.approx((3 / 4) ** (1 / 5),
                                                        rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 10, 64])
def test_van_vleck_on_one_plus_z_power(n):
    # 1 + z^n: V_1 = V_n = 1 but V_2 = (n - 1)^(1/n), so V_m is not monotone
    c = np.zeros(n + 1)
    c[0] = c[n] = 1.0
    P = Polynomial(c, n)
    assert van_vleck_bound(P, 1) == pytest.approx(1.0, rel=1e-14)
    assert van_vleck_bound(P, n) == pytest.approx(1.0, rel=1e-14)
    assert van_vleck_bound(P, 2) == pytest.approx((n - 1) ** (1 / n), rel=1e-14)


def test_radii_across_huge_dynamic_range():
    # b_k = 1e200 * (1e-100)^k spans 1e200 .. 1e-200; substituting z = 1e100 w
    # turns it into the all-ones quartic, so every radius scales by 1e100
    c = np.array([10.0 ** (200 - 100 * k) for k in range(5)])
    P, ones = Polynomial(c, 4), Polynomial(np.ones(5), 4)
    assert cauchy_bound(P) == pytest.approx(1e100 * cauchy_bound(ones),
                                            rel=1e-12)
    assert inner_cauchy_bound(P) == pytest.approx(
        1e100 * inner_cauchy_bound(ones), rel=1e-12)
    for m in range(1, 5):
        assert van_vleck_bound(P, m) == pytest.approx(
            1e100 * van_vleck_bound(ones, m), rel=1e-12)
        assert inner_van_vleck_bound(P, m) == pytest.approx(
            1e100 * inner_van_vleck_bound(ones, m), rel=1e-12)


def test_radii_at_full_degree_across_huge_dynamic_range():
    # ln|b_k| spread over [-600, 600] at degree 128: any exponent left
    # unshifted, or a start left of the largest single-term root, overflows
    rng = np.random.default_rng(2)
    la = rng.uniform(-600.0, 600.0, size=129)
    c = np.exp(la) * np.exp(2j * np.pi * rng.random(129))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert max(_radius_residuals(c, relative=True)) <= 1e-14


@pytest.mark.parametrize("radius", [van_vleck_bound, inner_van_vleck_bound],
                         ids=["van_vleck_bound", "inner_van_vleck_bound"])
def test_radius_order_must_be_an_integer(radius):
    P = Polynomial(np.array([1.0, 2.0, 3.0, 4.0]), 3)
    assert radius(P, 2.0) == radius(P, 2)
    for m in (2.5, "x", math.nan):
        with pytest.raises(DomainError):
            radius(P, m)


def test_radius_special_values():
    # vanishing leading coefficient: a zero at infinity, no finite bound
    P = Polynomial(np.array([1.0, 2.0, 0.0]), 2)
    assert cauchy_bound(P) == math.inf
    assert van_vleck_bound(P, 1) == van_vleck_bound(P, 2) == math.inf
    # vanishing constant coefficient: the inner radii are undefined
    Q = Polynomial(np.array([0.0, 1.0, 1.0]), 2)
    with pytest.raises(DomainError):
        inner_cauchy_bound(Q)
    with pytest.raises(DomainError):
        inner_van_vleck_bound(Q, 1)
    # no upper terms in the inner equation: every radius works
    R = Polynomial(np.array([1.0, 1.0, 0.0]), 2)
    assert inner_van_vleck_bound(R, 1) == math.inf
    assert _inner_van_vleck_slack(R, 1, inner_van_vleck_bound(R, 1)) >= -1e-9
    assert inner_cauchy_bound(Polynomial(np.array([3.0, 0.0, 0.0]), 2)) == \
        math.inf
    # a radius outside double range is reported, not rounded to inf or 0
    S = Polynomial(np.array([1e300, 1e-300]), 1)
    with pytest.raises(ConvergenceError):
        cauchy_bound(S)
    with pytest.raises(ConvergenceError):
        inner_cauchy_bound(S)


def _inner_van_vleck_slack(P, m, v):
    # log-slack of ln|b_0| <= ln C(n, m-1) + max_{k>n-m} ln|b_k| + n ln max(1, v);
    # with no upper terms the inequality holds for every radius
    c = np.abs(P.coeffs)
    n = P.formal_degree
    max_bk = float(np.max(c[n - m + 1:]))
    if max_bk == 0:
        return math.inf
    return (math.log(math.comb(n, m - 1)) + math.log(max_bk)
            + n * max(0.0, math.log(v)) - math.log(c[0]))


def test_inner_van_vleck_slack_is_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(2, 16))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 1.0
        c[-1] += 1.0
        P = Polynomial(c, deg)
        for m in range(1, deg + 1):
            v = inner_van_vleck_bound(P, m)
            assert _inner_van_vleck_slack(P, m, v) >= -1e-9


def test_binomial_column_identity():
    # sum_{k=n-m+1}^{n} C(k-1, k-(n-m)-1) == C(n, m-1), exhaustively
    for n in range(1, 31):
        for m in range(1, n + 1):
            total = sum(math.comb(k - 1, k - (n - m) - 1)
                        for k in range(n - m + 1, n + 1))
            assert total == math.comb(n, m - 1)


def test_entropy_bound_on_binomials():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == pytest.approx(math.log(2))
    for n in range(1, 41):
        for k in range(n + 1):
            assert math.comb(n, k) <= math.exp(n * entropy(k / n)) * (1 + 1e-12)
    assert entropy("1/2") == entropy(0.5)
    for bad in (1.5, -0.5, math.nan, "x", None):
        with pytest.raises(DomainError):
            entropy(bad)


def test_jensen_identity_on_known_roots():
    rng = np.random.default_rng(29)
    for _ in range(15):
        deg = int(rng.integers(2, 20))
        # radii kept clear of 1 so the circle integrand stays smooth
        radii = np.concatenate([rng.uniform(0.2, 0.8, size=deg // 2),
                                rng.uniform(1.3, 3.0, size=deg - deg // 2)])
        roots = radii * np.exp(2j * np.pi * rng.random(deg))
        P = _poly_from_roots(roots)
        Z = find_zeros(P)
        lhs, rhs = jensen_identity(P, Z)
        expected = float(np.sum(np.abs(np.log(np.abs(roots)))))
        # lhs carries the root-finder's own error, about 1e-9 per zero
        assert lhs == pytest.approx(expected, rel=1e-6)
        assert rhs == pytest.approx(lhs, rel=1e-6, abs=1e-6)


def test_jensen_identity_warns_near_circle():
    P = _poly_from_roots([1.0 + 1e-12, 0.5])
    Z = find_zeros(P)
    with pytest.warns(RuntimeWarning):
        jensen_identity(P, Z)


def test_jensen_identity_preconditions():
    P = Polynomial(np.array([0.0, 1.0]), 1)
    with pytest.raises(DomainError):
        jensen_identity(P, find_zeros(P))


def test_jensen_identity_rejects_the_solver_zeros_at_0_and_infinity():
    # b_0 and b_n at 1e-310 of the largest coefficient are nonzero, but the
    # solver takes them as zero: Z holds a zero at 0 and one at infinity,
    # whose logs would make lhs infinite
    P = Polynomial(np.array([1e-310, 2.0, 1.0, 1e-310]), 3)
    Z = find_zeros(P)
    assert Z.infinity_count == 1 and 0 in Z.finite_zeros
    with pytest.raises(DomainError):
        jensen_identity(P, Z)
    with pytest.raises(DomainError):
        weak_jensen_check(P, Z, 2.0)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_jensen_quadrature_sizes_itself_from_the_zeros(delta):
    # the zero 1 - delta takes 4096, 2^15 and 2^18 nodes
    P = Polynomial(np.array([-(1.0 - delta), 1.0]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lhs, rhs = jensen_identity(P, find_zeros(P))
    assert lhs == pytest.approx(-math.log1p(-delta), rel=1e-12)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_jensen_warns_with_its_bound_at_the_node_cap(delta):
    P = Polynomial(np.array([-(1.0 - delta), 1.0]), 1)
    Z = find_zeros(P)
    with pytest.warns(RuntimeWarning, match="off by up to") as record:
        lhs, rhs = jensen_identity(P, Z)
    # the message rounds the bound to 3 digits
    bound = float(re.search(r"up to (\S+) at", str(record[0].message))[1])
    assert 0 < abs(lhs - rhs) <= bound * 1.01
    # the inequality holds (lhs is 0); the slack of the bound keeps the
    # check from raising on the quadrature's error
    with pytest.warns(RuntimeWarning):
        wl, wr = weak_jensen_check(P, Z, 2.0)
    assert wl == 0.0


def test_weak_jensen_holds():
    rng = np.random.default_rng(31)
    for _ in range(10):
        deg = int(rng.integers(2, 24))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 1.0
        c[-1] += 1.0
        P = Polynomial(c, deg)
        Z = find_zeros(P)
        for T in (1.1, 2.0, 10.0):
            lhs, rhs = weak_jensen_check(P, Z, T)
            assert lhs <= rhs + 1e-9
    with pytest.raises(DomainError):
        weak_jensen_check(P, Z, 1.0)
    for T in (math.inf, math.nan, "x", None):
        with pytest.raises(DomainError):
            weak_jensen_check(P, Z, T)


def test_weak_jensen_rejects_zeros_of_another_polynomial():
    # (z - 1.1)(z - 1.2) puts little Jensen mass beyond the circle, while
    # the zero set claims both zeros at 100
    P = _poly_from_roots([1.1, 1.2])
    Z = ZeroSet([100.0, 100.0], 0, 2)
    with pytest.raises(VerificationError, match="weak Jensen"):
        weak_jensen_check(P, Z, 2.0)
    lhs, rhs = weak_jensen_check(P, find_zeros(P), 2.0)
    assert lhs <= rhs


def test_viete_product_and_inequalities():
    rng = np.random.default_rng(37)
    for _ in range(20):
        deg = int(rng.integers(2, 20))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 1.0
        c[-1] += 1.0
        P = Polynomial(c, deg)
        rep = viete_checks(P, find_zeros(P))
        assert rep.product_rel_err < 1e-8
        assert rep.min_slack() >= -1e-9


def test_viete_hand_example():
    # (z - 2)(z - 1/2): product of moduli 1 equals |b_0 / b_2|
    P = _poly_from_roots([2.0, 0.5])
    rep = viete_checks(P, find_zeros(P))
    assert rep.product_log_lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.product_log_rhs == pytest.approx(0.0, abs=1e-10)


def test_viete_with_infinity_zeros():
    # formal leading coefficient zero: the product identity degenerates
    # to infinity on both sides and is reported as skipped, while the
    # small-moduli inequalities stay checkable
    P = Polynomial(np.array([2.0, 3.0, 1.0, 0.0]), 3)
    rep = viete_checks(P, find_zeros(P))
    assert rep.product_rel_err is None
    assert any(k == -1 for k, _ in rep.skipped)
    # two smallest moduli: 1 * 2 against C(3,2) |b_0|/|b_2| = 6
    assert rep.ineq_small_slack[2] == pytest.approx(math.log(3.0), abs=1e-9)
    assert rep.min_slack() >= -1e-9


def test_viete_slacks_at_a_zero_at_the_origin():
    # P = z + z^2 + z^4: the n - k largest moduli never include the origin
    # zero, so the slack of every nonzero b_k is finite
    P = section(parse_family("lacunary:2"), 4)
    rep = viete_checks(P, find_zeros(P))
    assert rep.ineq_small_slack == {}
    assert sorted(rep.ineq_large_slack) == [1, 2, 4]
    assert rep.ineq_large_slack[1] == pytest.approx(math.log(4.0), abs=1e-12)
    assert rep.ineq_large_slack[2] == pytest.approx(2.174, abs=1e-3)
    assert rep.ineq_large_slack[4] == 0.0


@pytest.mark.parametrize("family, n", [
    ("lacunary:2", 4), ("zero_one:3,7,20", 20), ("zero_one:0,3,7", 10),
    ("lacunary:2", 5), ("factorial_gaps", 30), ("zero_one:3,7,20", 30)])
def test_viete_slacks_with_zeros_at_the_origin_or_infinity(family, n):
    # the log modulus of a zero at 0 is -inf and of one at infinity +inf:
    # neither enters a sum it does not belong to, and no running sum adds
    # -inf to +inf (a numpy RuntimeWarning)
    P = section(parse_family(family), n)
    c = np.abs(P.coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = viete_checks(P, find_zeros(P))
    ks = np.flatnonzero(c).tolist()
    low, deg = ks[0], ks[-1]
    # an independent oracle: the origin zeros, then numpy's roots of the core
    moduli = [0.0] * low + sorted(np.abs(np.roots(P.coeffs[low:deg + 1][::-1])))

    def log_sum(ms):
        return math.fsum(math.log(m) for m in ms)

    large = {k: math.log(math.comb(n, k)) + log_sum(moduli[k:])
             - math.log(c[k] / c[n]) for k in ks} if c[n] else {}
    small = {k: math.log(math.comb(n, k)) + math.log(c[0] / c[k])
             - log_sum(moduli[:k]) for k in ks} if c[0] else {}
    assert rep.ineq_large_slack == pytest.approx(large, abs=1e-8)
    assert rep.ineq_small_slack == pytest.approx(small, abs=1e-8)
    assert all(math.isfinite(v) and v >= -1e-9 for v in
               list(rep.ineq_large_slack.values())
               + list(rep.ineq_small_slack.values()))


@pytest.mark.parametrize("coeffs, n", [([1e-310, 1, 1, 0], 3),
                                        ([1e-310, 1, 1], 2),
                                        ([1, 1, 1e-310], 2)],
                         ids=["origin and infinity", "origin", "infinity"])
def test_viete_follows_the_solver_drop_rule(coeffs, n):
    # a b_0 or b_n at 1e-310 of the largest coefficient is nonzero, but
    # the solver puts a zero at 0 or at infinity for it: the sum from that
    # end is not taken, nor the product, and no running sum adds -inf to
    # +inf (a numpy RuntimeWarning); the sums from the other end stop short
    # of that zero, so every slack reported is finite and nonnegative
    P = Polynomial(np.array(coeffs, dtype=float), n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = viete_checks(P, find_zeros(P))
    assert rep.product_rel_err is None
    assert (rep.ineq_small_slack == {}) == (coeffs[0] != 1)
    assert (rep.ineq_large_slack == {}) == (coeffs[-1] != 1)
    assert all(math.isfinite(v) and v >= -1e-9 for v in
               list(rep.ineq_large_slack.values())
               + list(rep.ineq_small_slack.values()))


def test_bounds_report_structure():
    P = Polynomial(np.ones(9), 8)
    rep = bounds_report(P)
    d = rep.to_dict()
    assert set(d) >= {"cauchy", "inner_cauchy", "van_vleck", "inner_van_vleck"}
    assert d["van_vleck"]["8"] == pytest.approx(d["cauchy"])
    assert len(d["van_vleck"]) == 8
    # the orders stop at 12
    rep = bounds_report(Polynomial(np.ones(21), 20))
    assert list(rep.van_vleck) == list(rep.inner_van_vleck) == list(range(1, 13))