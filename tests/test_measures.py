"""Radial measures, the Levy metric, and power-sum utilities."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from szego import (DomainError, Polynomial, RadialMeasure, ZeroSet, compactify,
                   counting_fn, find_zeros,
                   inverse_power_sum, levy_distance, point_mass,
                   radial_projection, uniform_on_radii, weyl_sum)


def _cdf_at(xs, ws, t):
    # right-continuous step CDF of atoms (xs, ws) at t
    return float(np.sum(ws[xs <= t + 0.0]))


def _levy_oracle(mu: RadialMeasure, nu: RadialMeasure) -> float:
    """Independent bisection on the defining feasibility condition.

    eps is feasible iff F(x - eps) - eps <= G(x) <= F(x + eps) + eps for
    all x, with both CDFs taken in the compactified coordinate. For step
    functions it suffices to test x at every atom of either measure and
    just left of it.
    """
    ax, aw = compactify(mu.radii), np.asarray(mu.weights)
    bx, bw = compactify(nu.radii), np.asarray(nu.weights)
    probe = np.concatenate([ax, bx, [0.0, 1.0]])
    nudge = 1e-13

    def violated(eps):
        for x in probe:
            for p in (x - nudge, x, x + nudge):
                F_lo = _cdf_at(ax, aw, p - eps)
                F_hi = _cdf_at(ax, aw, p + eps)
                G = _cdf_at(bx, bw, p)
                if F_lo - eps > G + 1e-12 or G > F_hi + eps + 1e-12:
                    return True
        return False

    lo, hi = 0.0, 1.0
    if not violated(0.0):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if violated(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _random_measure(rng, allow_inf=True):
    k = int(rng.integers(1, 6))
    radii = rng.uniform(0.0, 3.0, size=k)
    w = rng.uniform(0.1, 1.0, size=k)
    if allow_inf and rng.random() < 0.4:
        radii = np.append(radii, np.inf)
        w = np.append(w, rng.uniform(0.1, 1.0))
    w = w / w.sum()
    return RadialMeasure(radii, w)


def test_radial_measure_sorts_and_merges():
    mu = RadialMeasure(np.array([2.0, 1.0, 2.0]), np.array([0.2, 0.5, 0.3]))
    assert np.array_equal(mu.radii, [1.0, 2.0])
    assert np.allclose(mu.weights, [0.5, 0.5])
    assert mu.total_weight == pytest.approx(1.0)
    assert mu.infinity_mass == 0.0


def test_radial_measure_validation():
    with pytest.raises(DomainError):
        RadialMeasure(np.array([1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        RadialMeasure(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        RadialMeasure(np.array([1.0, 2.0]), np.array([1.0]))
    # NaN and inf weights, and text anywhere
    for radii, weights in (([1.0], [np.nan]), ([1.0], [np.inf]),
                           ([1.0, 2.0], [0.5, np.nan]), (["x"], [1.0]),
                           ([1.0], ["x"])):
        with pytest.raises(DomainError):
            RadialMeasure(radii, weights)
    for bad in ("x", -1.0, np.nan, None):
        with pytest.raises(DomainError):
            point_mass(bad)
    for bad in ([], ["x"], [1.0, -2.0]):
        with pytest.raises(DomainError):
            uniform_on_radii(bad)


def test_cdf_right_continuity():
    mu = uniform_on_radii([1.0, 2.0])
    assert mu.cdf(0.999) == pytest.approx(0.0)
    assert mu.cdf(1.0) == pytest.approx(0.5)
    assert mu.cdf(1.5) == pytest.approx(0.5)
    assert mu.cdf(2.0) == pytest.approx(1.0)
    assert mu.cdf(np.inf) == pytest.approx(1.0)
    # searchsorted puts NaN after every radius, so it would count them all
    for bad in (np.nan, "x", -1.0):
        with pytest.raises(DomainError):
            mu.cdf(bad)


def test_radial_projection_counts_infinity():
    Z = ZeroSet(np.array([0.5, 1.0, 2.0], dtype=complex), 2, 5)
    mu = radial_projection(Z)
    assert mu.infinity_mass == pytest.approx(2 / 5)
    assert mu.total_weight == pytest.approx(1.0)
    assert np.allclose(mu.cdf(1.0), 2 / 5)


def test_counting_fn_brute_force():
    rng = np.random.default_rng(5)
    zs = rng.normal(size=9) + 1j * rng.normal(size=9)
    Z = ZeroSet(np.sort_complex(zs), 3, 12)
    for t in (0.0, 0.3, 1.0, 2.5, np.inf):
        brute = (np.sum(np.abs(zs) <= t) + (3 if np.isinf(t) else 0)) / 12
        assert counting_fn(Z, t) == pytest.approx(brute)
    grid = np.array([0.5, 1.5])
    assert np.allclose(counting_fn(Z, grid),
                       [counting_fn(Z, 0.5), counting_fn(Z, 1.5)])
    for bad in (-0.5, "x", [0.5, "x"], None):
        with pytest.raises(DomainError):
            counting_fn(Z, bad)


@pytest.mark.parametrize("t", [np.nan, [0.5, np.nan]])
def test_counting_fn_rejects_nan(t):
    # searchsorted puts NaN after every modulus, so it would count them all
    Z = ZeroSet(np.array([0.5 + 0j, 2.0 + 0j]), 0, 2)
    with pytest.raises(DomainError):
        counting_fn(Z, t)


def test_levy_pinned_values():
    d1 = point_mass(1.0)
    assert levy_distance(d1, d1) == 0.0
    # total disagreement across the compactified interval
    assert levy_distance(point_mass(0.0), point_mass(np.inf)) == pytest.approx(1.0)
    # compactified positions 1/2 and 2/3; the crossing costs their gap
    assert levy_distance(point_mass(1.0), point_mass(2.0)) == pytest.approx(1 / 6)


def test_levy_matches_bisection_oracle():
    rng = np.random.default_rng(99)
    for _ in range(50):
        mu = _random_measure(rng)
        nu = _random_measure(rng)
        fast = levy_distance(mu, nu)
        slow = _levy_oracle(mu, nu)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_levy_metric_axioms():
    rng = np.random.default_rng(123)
    for _ in range(25):
        a, b, c = (_random_measure(rng) for _ in range(3))
        dab = levy_distance(a, b)
        dba = levy_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0.0
        assert levy_distance(a, c) <= dab + levy_distance(b, c) + 1e-12
        assert levy_distance(a, a) == 0.0


def test_levy_requires_probability():
    half = RadialMeasure(np.array([1.0]), np.array([0.5]))
    with pytest.raises(DomainError):
        levy_distance(half, point_mass(1.0))


def test_weyl_sum_direct():
    zs = np.array([1.0 + 0j, 1j, -1.0 + 0j, 2.0 + 2.0j])
    Z = ZeroSet(np.sort_complex(zs), 2, 6)
    for m in (1, 2, 3):
        direct = sum((np.conj(w) / abs(w)) ** m for w in zs) / 6
        assert weyl_sum(Z, m) == pytest.approx(direct)
    assert weyl_sum(Z, 2.0) == weyl_sum(Z, 2)
    for bad in (0, 2.5, "x", 2 ** 63):
        with pytest.raises(DomainError):
            weyl_sum(Z, bad)


@pytest.mark.parametrize("m", [10 ** 18, 2 ** 63 - 1])
def test_weyl_sum_stays_in_the_unit_disk_at_huge_orders(m):
    # a power of a unit-modulus float drifts off the unit circle, and far
    # enough to overflow at these orders
    rng = np.random.default_rng(63)
    zs = rng.normal(size=40) + 1j * rng.normal(size=40)
    Z = ZeroSet(np.sort_complex(zs), 0, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = weyl_sum(Z, m)
    assert np.isfinite(s) and abs(s) <= 1.0


def test_weyl_sum_roots_of_unity_cancel():
    # full sets of roots of unity average to zero for m not divisible by n
    n = 8
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    Z = ZeroSet(np.sort_complex(zs), 0, n)
    assert abs(weyl_sum(Z, 1)) < 1e-12
    assert abs(weyl_sum(Z, 3)) < 1e-12
    assert weyl_sum(Z, 8) == pytest.approx(1.0)


def test_inverse_power_sum_matches_root_finder():
    rng = np.random.default_rng(314)
    for _ in range(40):
        deg = int(rng.integers(4, 24))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] += 3.0   # keep the constant term away from zero
        c[-1] += 2.0  # and the leading one, so all zeros are finite nonzero
        roots = np.roots(c[::-1])
        for m in range(1, 5):
            direct = complex(np.sum(roots ** (-m)))
            got = inverse_power_sum(c, m)
            assert got == pytest.approx(direct, rel=1e-7, abs=1e-7)


def test_inverse_power_sum_ignores_trailing_zeros():
    # zeros at infinity contribute nothing to reciprocal power sums, so
    # padding with explicit zero coefficients must not change the answer
    c = np.array([2.0, -3.0, 1.0], dtype=complex)  # (z-1)(z-2)
    padded = np.concatenate([c, np.zeros(3, dtype=complex)])
    roots = np.array([1.0, 2.0])
    for m in (1, 2, 3, 4):
        direct = float(np.sum(roots ** (-m)))
        assert inverse_power_sum(padded, m) == pytest.approx(direct)
    assert inverse_power_sum(c, 1) == pytest.approx(1.0 + 0.5)
    assert inverse_power_sum(c, 2) == pytest.approx(1.0 + 0.25)


def test_inverse_power_sum_preconditions():
    with pytest.raises(DomainError):
        inverse_power_sum(np.array([0.0, 1.0]), 1)  # constant term zero
    with pytest.raises(DomainError):
        inverse_power_sum(np.array([1.0, 1.0]), 2)  # m exceeds degree data
    for bad in (np.nan, np.inf, complex(1, np.nan)):
        with pytest.raises(DomainError):
            inverse_power_sum([1.0, bad, 2.0], 1)


@pytest.mark.parametrize("m", ["x", np.nan, np.inf, 2.5, 0])
def test_inverse_power_sum_order_must_be_a_positive_integer(m):
    with pytest.raises(DomainError):
        inverse_power_sum([1, 2, 3, 4], m)


def test_inverse_power_sum_takes_an_integral_float_order():
    assert inverse_power_sum([1, 2, 3, 4], 2.0) == inverse_power_sum(
        [1, 2, 3, 4], 2)


@pytest.mark.parametrize("call", [
    lambda: inverse_power_sum(["x", 1], 1),
    lambda: inverse_power_sum(3, 1),
    lambda: levy_distance(point_mass(1.0), "x"),
    lambda: levy_distance(None, point_mass(1.0)),
    lambda: weyl_sum("x", 1),
    lambda: radial_projection("x"),
    lambda: counting_fn("x", 1.0),
], ids=["power_sum_text", "power_sum_scalar", "levy_text", "levy_none",
        "weyl_text", "projection_text", "counting_text"])
def test_wrongly_typed_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_compactify():
    assert compactify(0.0) == 0.0
    assert compactify(1.0) == 0.5
    assert compactify(np.inf) == 1.0
    arr = compactify(np.array([0.0, 3.0, np.inf]))
    assert np.allclose(arr, [0.0, 0.75, 1.0])
    for bad in (-2.0, np.nan, [0.5, -1.0], "x"):
        with pytest.raises(DomainError):
            compactify(bad)


def test_projection_round_trip_with_root_finder():
    P = Polynomial(np.array([1, 0, 0, 1], dtype=complex), 3)  # 1 + z^3
    Z = find_zeros(P)
    mu = radial_projection(Z)
    # computed moduli may sit an ulp on either side of 1
    assert np.allclose(mu.radii, 1.0, atol=1e-9)
    assert mu.cdf(1.0 + 1e-9) == pytest.approx(1.0)
    assert mu.cdf(1.0 - 1e-9) == pytest.approx(0.0)
