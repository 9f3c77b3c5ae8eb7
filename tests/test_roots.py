"""Root finder: cross-checked against numpy's eigenvalue solver."""

from __future__ import annotations

import numpy as np
import pytest

from szego import (ConvergenceError, DomainError, Geometric, Polynomial,
                   find_zeros, section, sorted_moduli)
from szego import roots

TOL = 1e-10


def _sorted(zs):
    return np.sort_complex(np.asarray(zs, dtype=complex))


def _match_max_dist(got, ref):
    """Greedy nearest-pair matching distance between two root multisets.

    Lexicographic sorting is unstable when real parts nearly tie, so compare
    by repeatedly pairing the globally closest remaining points.
    """
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    assert len(got) == len(ref)
    if len(got) == 0:
        return 0.0
    cost = np.abs(got[:, None] - ref[None, :])
    worst = 0.0
    for _ in range(len(got)):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        worst = max(worst, cost[i, j])
        cost[i, :] = np.inf
        cost[:, j] = np.inf
    return worst


def _residual_ok(P, zeros, factor=100.0):
    # certified stopping rule: |P(w)| small relative to the evaluation's
    # own rounding scale sum |b_k| |w|^k
    mags = np.abs(P.coeffs)
    for w in zeros:
        scale = float(np.polyval(mags[::-1], abs(w)))
        if abs(P(w)) > factor * TOL * max(scale, 1e-300):
            return False
    return True


def test_matches_numpy_roots_random_dense():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        deg = int(rng.integers(1, 36))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 2.0  # keep the leading coefficient well away from zero
        P = Polynomial(c, deg)
        Z = find_zeros(P)
        assert Z.infinity_count == 0
        ref = np.roots(c[::-1])
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert _match_max_dist(Z.finite_zeros, ref) < 1e-6 * scale
        assert _residual_ok(P, Z.finite_zeros)


def test_real_coefficient_roots_come_in_conjugate_pairs():
    rng = np.random.default_rng(7)
    c = rng.normal(size=13)
    Z = find_zeros(Polynomial(c, 12))
    zs = Z.finite_zeros
    nonreal = zs[np.abs(zs.imag) > 1e-8]
    assert _match_max_dist(nonreal, np.conj(nonreal)) < 1e-7


def test_origin_zeros_are_exact():
    # z^2 (z - 1) = -z^2 + z^3
    P = Polynomial(np.array([0, 0, -1, 1], dtype=complex), 3)
    Z = find_zeros(P)
    assert Z.infinity_count == 0
    zs = _sorted(Z.finite_zeros)
    assert zs[0] == 0 and zs[1] == 0
    assert abs(zs[2] - 1) < 1e-12


def test_trailing_zeros_become_infinity_atoms():
    P = Polynomial(np.array([1, 1, 0, 0], dtype=complex), 3)
    Z = find_zeros(P)
    assert Z.infinity_count == 2
    assert Z.formal_degree == 3
    assert np.allclose(Z.finite_zeros, [-1.0])
    ms = sorted_moduli(Z)
    assert ms[0] == pytest.approx(1.0) and np.isinf(ms[1]) and np.isinf(ms[2])


def test_geometric_sections_hit_roots_of_unity():
    for n in (5, 50, 200):
        P = section(Geometric(), n)
        Z = find_zeros(P)
        ref = np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
        assert _match_max_dist(Z.finite_zeros, ref) < 1e-8


def test_multiple_root_cluster():
    # (z - 1)^5; a tolerance-limited solver resolves the cluster to
    # roughly the fifth root of the tolerance
    c = np.array([-1, 5, -10, 10, -5, 1], dtype=complex)
    Z = find_zeros(Polynomial(c, 5))
    assert len(Z.finite_zeros) == 5
    assert np.max(np.abs(Z.finite_zeros - 1.0)) < 0.05


def test_extreme_scale_coefficients():
    # roots at 1e-8 and 1e8: (z - 1e8)(z - 1e-8)
    c = np.array([1.0, -(1e8 + 1e-8), 1.0], dtype=complex)
    Z = find_zeros(Polynomial(c, 2))
    ms = np.sort(np.abs(Z.finite_zeros))
    assert ms[0] == pytest.approx(1e-8, rel=1e-6)
    assert ms[1] == pytest.approx(1e8, rel=1e-6)


def test_very_wide_root_spread():
    # roots at 1e-150 and 1e150; initial guesses must come from the
    # coefficient polygon, not from a single bounding circle
    c = np.array([1.0, -(1e150 + 1e-150), 1.0], dtype=complex)
    Z = find_zeros(Polynomial(c, 2))
    ms = np.sort(np.abs(Z.finite_zeros))
    assert ms[0] == pytest.approx(1e-150, rel=1e-6)
    assert ms[1] == pytest.approx(1e150, rel=1e-6)


def test_huge_dynamic_range_rounds_coefficientwise():
    # coefficients 300 orders below the largest are treated as exact
    # zeros; what remains here is the constant term, so every formal
    # zero sits at infinity
    c = np.array([1e302, 1.0, 1e-300], dtype=complex)
    Z = find_zeros(Polynomial(c, 2))
    assert len(Z.finite_zeros) == 0
    assert Z.infinity_count == 2


def test_tiny_leading_coefficient_is_dropped():
    # absolute drop: below the smallest honest double
    P = Polynomial(np.array([1.0, 1.0, 1e-310], dtype=complex), 2)
    Z = find_zeros(P)
    assert Z.infinity_count == 1
    assert np.allclose(Z.finite_zeros, [-1.0])
    # relative drop: negligible against the largest coefficient
    P2 = Polynomial(np.array([1e280, 1e280, 1e-30], dtype=complex), 2)
    Z2 = find_zeros(P2)
    assert Z2.infinity_count == 1
    assert np.allclose(Z2.finite_zeros, [-1.0])


def test_drop_rule_is_scale_invariant():
    rng = np.random.default_rng(31)
    c = rng.normal(size=21) + 1j * rng.normal(size=21)
    Z = find_zeros(Polynomial(c, 20))
    # a power-of-two scale is exact, so every step sees the same numbers
    Zs = find_zeros(Polynomial(c * 2.0 ** -1000, 20))
    assert np.array_equal(Z.finite_zeros, Zs.finite_zeros)
    assert Z.infinity_count == Zs.infinity_count == 0
    tiny = find_zeros(Polynomial([1e-301, 1e-301], 1))
    assert tiny.infinity_count == 0
    assert np.array_equal(tiny.finite_zeros, [-1.0])


def test_rescaled_fallback_matches_numpy(monkeypatch):
    original = roots._aberth
    calls = []

    def fail_first(core, tol):
        calls.append(len(core))
        if len(calls) == 1:
            raise ConvergenceError("forced", residual=1.0)
        return original(core, tol)

    monkeypatch.setattr(roots, "_aberth", fail_first)
    rng = np.random.default_rng(8)
    c = rng.normal(size=25) + 1j * rng.normal(size=25)
    c[-1] += 2.0
    P = Polynomial(c, 24)
    Z = find_zeros(P)
    assert calls == [25, 25]
    assert Z.infinity_count == 0
    assert _match_max_dist(Z.finite_zeros, np.roots(c[::-1])) < 1e-8
    assert _residual_ok(P, Z.finite_zeros)


def test_stalled_iteration_reports_its_residual(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITERS", 1)
    # zeros at radii 1/2 and 2, so the iterates lie on both sides of the
    # unit circle and both evaluation branches feed the residual
    ws = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(6) / 6 + 0.1),
                         2.0 * np.exp(2j * np.pi * np.arange(6) / 6 + 0.3)])
    c = np.poly(ws)[::-1]
    with pytest.raises(ConvergenceError) as direct:
        roots._aberth(c, TOL)
    with pytest.raises(ConvergenceError) as via_fallback:
        find_zeros(Polynomial(c, 12))
    for exc in (direct.value, via_fallback.value):
        assert np.isfinite(exc.residual)
        assert exc.residual > TOL
    # with no sweep at all the residual is the worst backward error of the
    # start points, recomputed here without the reversal split
    monkeypatch.setattr(roots, "_MAX_ITERS", 0)
    with pytest.raises(ConvergenceError) as unmoved:
        roots._aberth(c, TOL)
    w0 = roots._initial_guesses(c / np.max(np.abs(c)))
    worst = np.max(np.abs(np.polyval(c[::-1], w0))
                   / np.polyval(np.abs(c[::-1]), np.abs(w0)))
    assert unmoved.value.residual == pytest.approx(worst, rel=1e-9)


def test_degenerate_inputs():
    with pytest.raises(DomainError):
        find_zeros(Polynomial(np.zeros(4), 3))
    with pytest.raises(DomainError):
        find_zeros(Polynomial(np.ones(3), 2), tol=0.0)
    Z = find_zeros(Polynomial(np.array([5.0]), 0))
    assert len(Z.finite_zeros) == 0 and Z.infinity_count == 0
    Z1 = find_zeros(Polynomial(np.array([3.0, 2.0]), 1))
    assert np.allclose(Z1.finite_zeros, [-1.5])


def test_lacunary_high_degree_residuals():
    from szego import Lacunary

    P = section(Lacunary(2), 300)
    Z = find_zeros(P)
    assert Z.infinity_count == 300 - 256
    assert len(Z.finite_zeros) == 256
    assert _residual_ok(P, Z.finite_zeros)


def test_zero_set_count_validation():
    from szego import ZeroSet

    with pytest.raises(DomainError):
        ZeroSet(np.array([1.0 + 0j]), 1, 3)  # 1 + 1 != 3 + ... mismatch
