"""Root finder: cross-checked against numpy's eigenvalue solver."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import szego
from szego import (ConvergenceError, DomainError, Geometric, Polynomial,
                   RandomSeries, TargetMeasure, find_zeros, initial_state,
                   parse_family, section, sorted_moduli, step)
from szego import roots, series

#: backward-error ratio the residual checks below accept, times their factor
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
    # own rounding scale sum |b_k| |w|^k; outside the unit circle every
    # term is divided by |w|^n, as a power of 1/w, so none overflows
    n = P.formal_degree
    k = np.nonzero(P.coeffs)[0]
    w = np.asarray(zeros, dtype=complex)[:, None]
    out = np.abs(w) > 1
    base = np.where(out, 1 / np.where(out, w, 1), w)
    terms = P.coeffs[k] * base ** np.where(out, n - k, k)
    scale = np.maximum(np.abs(terms).sum(axis=1), 1e-300)
    return bool(np.all(np.abs(terms.sum(axis=1)) <= factor * TOL * scale))


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


def _newton_reference_error(P, Z):
    """Largest move of a returned zero under four Newton steps in
    np.longdouble on the same coefficients: its forward error, to far
    below double rounding. Zeros at the origin are exact and stay put."""
    c = np.asarray(P.coeffs, dtype=np.clongdouble)
    w0 = np.asarray(Z.finite_zeros, dtype=np.clongdouble)
    w = w0.copy()
    for _ in range(4):
        p, dp = np.zeros_like(w), np.zeros_like(w)
        for a in c[::-1]:
            dp = dp * w + p
            p = p * w + a
        exact = p == 0
        w = w - np.where(exact, 0, p / np.where(exact, 1, dp))
    return float(np.max(np.abs(w - w0)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("family, n, bound", [
    ("random:gaussian_complex,3", 256, 1.7e-12),
    ("random:bernoulli(0.5),3", 256, 2.1e-12),
    ("rational:1,1|1,-1", 640, 1.7e-10),
    ("carlson:0.5,0.5", 512, 2.0e-13),
])
def test_zeros_are_resolved_to_the_rounding_floor(family, n, bound):
    # ten times the worst errors of a solve to the floor 8 (d + 1) eps; one
    # stopped at backward error 1e-10 misses every bound by 7 to 70 times
    P = section(parse_family(family), n)
    assert _newton_reference_error(P, find_zeros(P)) <= bound


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


def test_a_stalled_pass_raises_without_a_retry(monkeypatch):
    # the solver makes one pass: the first stall is the caller's error
    calls = []
    stall = ConvergenceError("forced", residual=0.5)

    def stalled(cores):
        calls.append([len(c) for c in cores])
        return [stall]

    monkeypatch.setattr(roots, "_lockstep", stalled)
    rng = np.random.default_rng(8)
    c = rng.normal(size=25) + 1j * rng.normal(size=25)
    with pytest.raises(ConvergenceError) as info:
        find_zeros(Polynomial(c, 24))
    assert info.value is stall
    assert calls == [[25]]


def _start_radius_cases():
    rng = np.random.default_rng(21)
    for d in rng.integers(2, 201, size=40).tolist():
        yield rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        logs = rng.uniform(-200.0, 200.0, size=d + 1)
        yield np.exp(logs) * np.exp(2j * np.pi * rng.random(d + 1))
        sparse = rng.normal(size=d + 1) * (rng.random(d + 1) < 0.2)
        sparse[[0, d]] = rng.normal(size=2)
        yield sparse.astype(complex)
        yield rng.normal(size=d + 1).astype(complex)


def test_start_radii_lie_within_the_cauchy_radii():
    # the hull radii need no clip: the outer Cauchy radius C satisfies
    # C >= (|b_i|/|b_d|)^(1/(d-i)) and the inner one c <= (|b_0|/|b_j|)^(1/j)
    from szego.bounds import cauchy_bound, inner_cauchy_bound

    for c in _start_radius_cases():
        core = c / np.max(np.abs(c))
        P = Polynomial(core, len(core) - 1)
        radii = np.abs(roots._initial_guesses(core))
        assert np.all(radii >= inner_cauchy_bound(P) * (1 - 1e-12))
        assert np.all(radii <= cauchy_bound(P) * (1 + 1e-12))


def _iterate(core):
    """The iteration on one core alone, raising its ConvergenceError."""
    (w,) = roots._lockstep([core])
    if isinstance(w, ConvergenceError):
        raise w
    return w


def test_stalled_iteration_reports_its_residual(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITERS", 1)
    # zeros at radii 1/2 and 2, so the iterates lie on both sides of the
    # unit circle and both evaluation branches feed the residual
    ws = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(6) / 6 + 0.1),
                         2.0 * np.exp(2j * np.pi * np.arange(6) / 6 + 0.3)])
    c = np.poly(ws)[::-1]
    with pytest.raises(ConvergenceError) as direct:
        _iterate(c)
    floor = 8.0 * 13 * np.finfo(float).eps
    assert np.isfinite(direct.value.residual)
    assert direct.value.residual > floor
    # the same core reached through the z^2 reduction stalls the same way,
    # and the message names the reduced degree, the tolerance it aimed at,
    # which is the floor of the reduced core, and the sweep budget
    c2 = np.zeros(25, dtype=complex)
    c2[::2] = c
    with pytest.raises(ConvergenceError) as reduced:
        find_zeros(Polynomial(c2, 24))
    assert reduced.value.residual == direct.value.residual
    for exc in (direct.value, reduced.value):
        assert "degree-12 core" in str(exc)
        assert f"above its tolerance {floor:.3e}" in str(exc)
        assert "sweep budget 1)" in str(exc)
    # with no sweep at all the residual is the worst backward error of the
    # start points, recomputed here without the reversal split
    monkeypatch.setattr(roots, "_MAX_ITERS", 0)
    with pytest.raises(ConvergenceError) as unmoved:
        _iterate(c)
    w0 = roots._initial_guesses(c / np.max(np.abs(c)))
    worst = np.max(np.abs(np.polyval(c[::-1], w0))
                   / np.polyval(np.abs(c[::-1]), np.abs(w0)))
    assert unmoved.value.residual == pytest.approx(worst, rel=1e-9)


def test_degenerate_inputs():
    with pytest.raises(DomainError):
        find_zeros(Polynomial(np.zeros(4), 3))
    Z = find_zeros(Polynomial(np.array([5.0]), 0))
    assert len(Z.finite_zeros) == 0 and Z.infinity_count == 0
    Z1 = find_zeros(Polynomial(np.array([3.0, 2.0]), 1))
    assert np.allclose(Z1.finite_zeros, [-1.5])


def _layout_sizes(monkeypatch):
    """The vector lengths of each Horner layout the solver builds, one list
    per layout."""
    real = roots._horner_layout
    sizes = []

    def counted(vectors):
        sizes.append([len(c) for c in vectors])
        return real(vectors)

    monkeypatch.setattr(roots, "_horner_layout", counted)
    return sizes


def test_a_solve_builds_the_reversed_layout_only_when_a_point_crosses(
        monkeypatch):
    # one layout for the coefficients per solve, not one per sweep; every
    # point of a random section stays inside the forward limit, so the
    # layout of the reversal is never built
    sizes = _layout_sizes(monkeypatch)
    Z = find_zeros(section(RandomSeries("gaussian_complex", 3), 256))
    assert len(Z.finite_zeros) == 256
    assert sizes == [[257]]
    # zeros of modulus 1e-85 and 1e85: solved in u = z^2 as a degree-2 core
    # whose zero 1e170 lies past the forward limit, so its reversal is
    # built once, at the first crossing, and kept for the later sweeps
    sizes.clear()
    calls = _horner_calls(monkeypatch)
    find_zeros(Polynomial(np.array([1.0, 0.0, -1e170, 0.0, 1.0]), 4))
    assert sizes == [[3], [3]]
    assert len({id(layout) for layout, _ in calls}) == 2


def _horner_calls(monkeypatch):
    """(layout, points) for each Horner call the solver makes."""
    real = series._horner
    calls = []

    def counted(layout, z):
        calls.append((layout, z.copy()))
        return real(layout, z)

    monkeypatch.setattr(series, "_horner", counted)
    return calls


def test_one_horner_call_per_sweep(monkeypatch):
    # every point of a random section stays inside the forward limit, so a
    # sweep evaluates all of them on the forward layout in one call
    calls = _horner_calls(monkeypatch)
    sweeps = _sweep_sizes(monkeypatch)
    Z = find_zeros(section(RandomSeries("gaussian_complex", 3), 256))
    assert len(Z.finite_zeros) == 256
    assert np.max(np.abs(Z.finite_zeros)) > 1.0
    assert len(sweeps) >= 3
    assert len(calls) == len(sweeps)
    assert [len(z) for _, z in calls] == sweeps


def test_wide_range_points_take_the_reversed_layout(monkeypatch):
    # 1 - 1e170 z^2 + z^4 has zeros of modulus 1e-85 and 1e85; it is solved
    # as 1 - 1e170 u + u^2 in u = z^2, and u = 1e170 lies past the forward
    # limit e^((ln DBL_MAX - 2 ln 3) / 2) ~ 4e153 of degree 2, where u^2
    # would overflow
    real = roots._horner_layout
    layouts = []

    def counted(vectors):
        layouts.append(real(vectors))
        return layouts[-1]

    monkeypatch.setattr(roots, "_horner_layout", counted)
    calls = _horner_calls(monkeypatch)
    c = np.array([1.0, 0.0, -1e170, 0.0, 1.0], dtype=complex)
    Z = find_zeros(Polynomial(c, 4))
    ms = np.sort(np.abs(Z.finite_zeros))
    assert ms[:2] == pytest.approx([1e-85, 1e-85], rel=1e-12)
    assert ms[2:] == pytest.approx([1e85, 1e85], rel=1e-12)
    fwd, rev = layouts
    outer = [z for layout, z in calls if layout is rev]
    assert outer and all(np.all(np.abs(1.0 / z) > 1e153) for z in outer)
    assert all(np.all(np.abs(z) < 1e153)
               for layout, z in calls if layout is fwd)


def test_wide_range_cores_cross_in_one_reversed_call(monkeypatch):
    # 1 - c 1e170 z^2 + z^4 for several c: the cores share one layout key
    # and all start past the forward limit, so their crossing points take
    # one call on one reversed table per sweep, and each core keeps the
    # zeros of its own solve
    polys = [Polynomial(np.array([1.0, 0.0, -c * 1e170, 0.0, 1.0]), 4)
             for c in (0.5, 1.0, 3.0, 7.0)]
    solo = _solo(polys)
    real_layout, real_rows = roots._horner_layout, roots._horner_rows
    layouts, events = [], []

    def layout(vectors):
        layouts.append(real_layout(vectors))
        return layouts[-1]

    def rows(table, tr, z):
        events[-1].append((table, tr.copy()))
        return real_rows(table, tr, z)

    monkeypatch.setattr(roots, "_horner_layout", layout)
    monkeypatch.setattr(roots, "_horner_rows", rows)
    real_terms = roots._newton_terms

    def terms(stack, tr, w):
        events.append([])
        return real_terms(stack, tr, w)

    monkeypatch.setattr(roots, "_newton_terms", terms)
    got = roots._zero_sets(polys)
    assert all(_same_bits(g, ref) for g, ref in zip(got, solo))
    fwd, rev = layouts
    assert rev.vals.shape[0] == len(polys)
    outer = [[tr for table, tr in sweep if table is rev] for sweep in events]
    assert all(len(calls) <= 1 for calls in outer)
    assert max(len(np.unique(calls[0])) for calls in outer if calls) >= 2


@pytest.mark.parametrize("d", [2, 4, 256])
def test_forward_limit_keeps_the_backward_error(monkeypatch, d):
    # just inside the limit the forward layout stays finite and its ratio
    # |P| / s agrees with the reversed layout's within the two Horner
    # rounding bounds, 4 (d + 1) eps each; just outside, the solver
    # switches to the reversed layout
    rng = np.random.default_rng(d)
    c = np.exp(1j * rng.uniform(0, 2 * np.pi, d + 1))
    fwd = roots._horner_layout([c])
    rev = roots._horner_layout([c[::-1]])
    edge = math.exp((math.log(sys.float_info.max) - 2 * math.log(d + 1)) / d)
    w = edge * (1 - 1e-12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    p, _, s = series._horner(fwd, w)
    q, _, t = series._horner(rev, 1.0 / w)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(s))
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.abs(p) / s - np.abs(q) / t) <= 8 * (d + 1) * eps)
    stack = roots._Stack([c])
    tr = np.zeros(len(w), dtype=int)
    calls = _horner_calls(monkeypatch)
    roots._newton_terms(stack, tr, w)
    # a lone core takes its points as they are, with no padded table
    assert [(layout, z.shape) for layout, z in calls] == [(stack.fwd, w.shape)]
    assert stack.rev is None
    calls.clear()
    roots._newton_terms(stack, tr, w * (1 + 1e-9))
    assert [layout for layout, _ in calls] == [stack.rev]


def test_lacunary_high_degree_residuals():
    from szego import Lacunary

    P = section(Lacunary(2), 300)
    Z = find_zeros(P)
    assert Z.infinity_count == 300 - 256
    assert len(Z.finite_zeros) == 256
    assert _residual_ok(P, Z.finite_zeros)


def _sweep_sizes(monkeypatch):
    """Points evaluated per sweep: the solver calls _newton_terms once each."""
    real = roots._newton_terms
    sizes = []

    def counted(stack, tr, w):
        sizes.append(len(w))
        return real(stack, tr, w)

    monkeypatch.setattr(roots, "_newton_terms", counted)
    return sizes


def _binomial(M, phi, r):
    """1 - e^{i phi} (z/r)^M: zeros r e^{-i phi/M} times the M-th roots of 1."""
    c = np.zeros(M + 1, dtype=complex)
    c[0] = 1.0
    c[M] = -np.exp(1j * phi) / r ** M
    return Polynomial(c, M)


def _nearest_on_grid(z, r, theta0, n):
    """Sorted indices j of the points r e^(i (theta0 + 2 pi j / n)) nearest
    to each z, and the largest distance to them."""
    j = np.rint((np.angle(z) - theta0) * n / (2 * np.pi)).astype(int) % n
    err = np.max(np.abs(z - r * np.exp(1j * (theta0 + 2 * np.pi * j / n))))
    return np.sort(j), float(err)


@pytest.mark.parametrize("M", [64, 2000])
@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
def test_binomial_edge_starts_converge_in_one_sweep(monkeypatch, M, phi):
    # a two-term hull edge starts at the binomial's zeros, phase included;
    # find_zeros solves a pure binomial in z^M as degree 1, so the start
    # rule is checked on the iteration itself, on the same normalized core
    sizes = _sweep_sizes(monkeypatch)
    c = _binomial(M, phi, 0.9).coeffs
    w = _iterate(c / np.max(np.abs(c)))
    assert sizes == [M]
    assert len(w) == M
    assert np.max(np.abs(np.abs(w) - 0.9)) <= 1e-13
    sizes.clear()
    Z = find_zeros(_binomial(M, phi, 0.9))
    assert sizes == []
    assert len(Z.finite_zeros) == M and Z.infinity_count == 0
    j, err = _nearest_on_grid(Z.finite_zeros, 0.9, -phi / M, M)
    assert np.array_equal(j, np.arange(M))
    assert err <= 1e-13


def test_sparse_section_is_solved_in_z_to_the_gcd():
    # 1 + z^2000 + z^4000 has support gcd 2000: its zeros are the 2000th
    # roots of exp(+-2 pi i / 3), the 6000th roots of unity off the cube
    # roots; solved in z, every start sits on the unit circle and stalls
    P = section(parse_family("inverse_one_minus_zN:2000"), 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = find_zeros(P)
    assert Z.infinity_count == 0
    j, err = _nearest_on_grid(Z.finite_zeros, 1.0, 0.0, 6000)
    assert np.array_equal(j, [i for i in range(6000) if i % 3])
    assert err <= 1e-13


def test_binomial_with_a_tiny_middle_term_is_solved_in_z_to_the_gcd():
    # 1e-30 z^2000 lies far below the hull, so the edge of
    # 1 - e^{2i} (0.999 z)^4000 is no longer a binomial in z; in z^2000 the
    # polynomial is a quadratic whose zeros barely move
    c = _binomial(4000, 2.0, 1 / 0.999).coeffs
    c[2000] = 1e-30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = find_zeros(Polynomial(c, 4000))
    j, err = _nearest_on_grid(Z.finite_zeros, 1 / 0.999, -2.0 / 4000, 4000)
    assert np.array_equal(j, np.arange(4000))
    assert err <= 1e-13


def test_inverse_section_zeros_in_z_cubed(monkeypatch):
    # 1 + z^3 + ... + z^1023 = (1 - z^1026) / (1 - z^3): the 1026th roots of
    # unity off the cube roots, from a degree-341 solve
    sizes = _sweep_sizes(monkeypatch)
    P = section(parse_family("inverse_one_minus_zN:3"), 1024)
    Z = find_zeros(P)
    assert max(sizes) == 341
    assert Z.infinity_count == 1
    j, err = _nearest_on_grid(Z.finite_zeros, 1.0, 0.0, 1026)
    assert np.array_equal(j, [i for i in range(1026) if i % 342])
    assert err <= 1e-9


@pytest.mark.parametrize("coeffs", [[1, 0, -1.5, 0, 1],
                                    [1, 0, 0, -1.5, 0, 0, 1]])
def test_real_binomial_hulls_in_z_to_the_gcd_converge_fast(monkeypatch,
                                                           coeffs):
    # in z^g these are 1 - 1.5 u + u^2, whose one-step edges keep the
    # golden spread; solved in z, the symmetric binomial starts leave the
    # real axis only through rounding and take 26 and 32 sweeps
    sizes = _sweep_sizes(monkeypatch)
    g = len(coeffs) // 2
    P = Polynomial(np.array(coeffs, dtype=complex), 2 * g)
    Z = find_zeros(P)
    assert len(sizes) <= 10
    assert max(sizes) <= 2
    u = np.roots([1, -1.5, 1])
    expect = np.concatenate([np.exp(np.log(u) / g) * np.exp(2j * np.pi * l / g)
                             for l in range(g)])
    assert _match_max_dist(Z.finite_zeros, expect) <= 1e-14


def test_cycle_section_solve_evaluates_at_most_2d_points(monkeypatch):
    # the long hull edge of this universal section is a binomial, so most
    # of its zeros converge in the first sweep
    state = initial_state()
    for r in ["3", "4", "3", "6/5"]:
        state = step(state, TargetMeasure.of(r))
    sizes = _sweep_sizes(monkeypatch)
    Z = find_zeros(state.P)
    d = int(np.count_nonzero(Z.finite_zeros))
    assert d == 4190
    assert sum(sizes) <= 2 * d


def _cycle_state(steps):
    state = initial_state()
    for r in ["3", "4", "3", "6/5"][:steps]:
        state = step(state, TargetMeasure.of(r))
    return state


def _nested_solves(monkeypatch, fail=False):
    """The degrees passed to each `_zero_sets` call, outer call first; with
    ``fail`` every nested call reports a stall instead of solving."""
    real = roots._zero_sets
    calls = []

    def spy(polys):
        calls.append([P.formal_degree for P in polys])
        if fail and len(calls) > 1:
            return [ConvergenceError("forced", residual=1.0)] * len(polys)
        return real(polys)

    monkeypatch.setattr(roots, "_zero_sets", spy)
    return calls


def _core_sweeps(monkeypatch):
    """(degrees of the stack, points) of each `_newton_terms` call."""
    real = roots._newton_terms
    sweeps = []

    def counted(stack, tr, w):
        sweeps.append((stack.d.tolist(), len(w)))
        return real(stack, tr, w)

    monkeypatch.setattr(roots, "_newton_terms", counted)
    return sweeps


def _at_the_floor(P, Z):
    """Whether every zero of P's deflated core meets the solver's stop test
    |P(w)| <= 8 (d + 1) eps sum_k |b_k| |w|^k."""
    _, _, g, core = roots._deflate(P)
    assert g == 1
    core = core / np.max(np.abs(core))
    d = len(core) - 1
    w = Z.finite_zeros[np.abs(Z.finite_zeros) > 0]
    assert len(w) == d
    _, absp, s = roots._newton_terms(roots._Stack([core]),
                                     np.zeros(d, dtype=int), w)
    return bool(np.all(absp <= 8 * (d + 1) * np.finfo(float).eps * s))


@pytest.mark.parametrize("steps, lower", [(3, 53), (4, 501)])
def test_cycle_sections_split_at_the_binomial_top_edge(monkeypatch, steps,
                                                       lower):
    # the lower part, the previous section plus z^N, is solved first; with
    # its zeros and the ring binomial's starts, every point of the whole
    # core passes in its first sweep, which then takes no pair sums
    state = _cycle_state(steps)
    calls = _nested_solves(monkeypatch)
    sweeps = _core_sweeps(monkeypatch)
    pairs = []
    real_pairs = roots._pair_sums
    monkeypatch.setattr(roots, "_pair_sums", lambda w, rows: (
        pairs.append(len(w)), real_pairs(w, rows))[1])
    Z = find_zeros(state.P)
    d = state.d - Z.infinity_count
    assert calls == [[state.d], [lower]]
    assert [n for ds, n in sweeps if ds == [d]] == [d]
    assert pairs and d not in pairs
    assert _at_the_floor(state.P, Z)


@pytest.mark.parametrize("how", ["nested_stall", "radius_out_of_range"])
def test_a_failed_split_falls_back_to_the_hull_starts(monkeypatch, how):
    state = _cycle_state(4)
    if how == "nested_stall":
        calls = _nested_solves(monkeypatch, fail=True)
    else:
        calls = _nested_solves(monkeypatch)

        def out_of_range(b, m):
            raise ConvergenceError("bound equation root exceeds double range")

        monkeypatch.setattr(roots, "_outer_radius", out_of_range)
    sweeps = _core_sweeps(monkeypatch)
    Z = find_zeros(state.P)
    assert calls == ([[4611], [501]] if how == "nested_stall" else [[4611]])
    # the hull starts need the full iteration: more than one sweep
    assert len([n for ds, n in sweeps if ds == [4190]]) > 1
    assert _at_the_floor(state.P, Z)


def _certified_split(core):
    """Whether the split rule applies, recomputed from its statement: the
    top hull edge is a binomial from i >= 1 to d with d - i >= 2, and
    |b_d| rho^(d - i) <= eps |b_i| for the Cauchy radius rho of b_0..b_i."""
    from szego.bounds import cauchy_bound

    d = len(core) - 1
    nz = np.flatnonzero(core)
    i = int(nz[-2])
    logs = np.log(np.abs(core[nz]))
    slopes = (logs[-1] - logs[:-1]) / (d - nz[:-1])
    # the edge into d starts at the point of least slope; a tie would put
    # that point inside a longer edge
    if not (1 <= i <= d - 2 and np.all(slopes[:-1] > slopes[-1])):
        return False
    rho = cauchy_bound(Polynomial(core[: i + 1], i))
    return ((d - i) * math.log(rho) - (logs[-2] - logs[-1])
            <= math.log(np.finfo(float).eps))


def test_the_split_is_taken_only_where_it_is_certified(monkeypatch):
    # 1 - 1.5 z^2 + z^5 has a binomial top edge, but its lower part's zeros
    # (modulus 0.82) are no zeros of the whole; the sparse real cases split
    # only where the certificate holds, which takes a lower part whose
    # zeros lie far inside the top edge's circle (108 of the 3239 cases)
    calls = _nested_solves(monkeypatch)
    core = np.array([1, 0, -1.5, 0, 0, 1], dtype=complex) / 1.5
    assert not _certified_split(core)
    roots._initial_guesses(core)
    assert calls == []
    split = 0
    for c in _sparse_real_cases():
        core = (c / np.max(np.abs(c))).astype(complex)
        calls.clear()
        roots._initial_guesses(core)
        assert bool(calls) == _certified_split(core), np.nonzero(c)[0]
        split += bool(calls)
    assert split == 108


@pytest.mark.parametrize("family, n", [("geometric", 2048),
                                       ("rational:1,1|1,-1", 640)])
def test_flat_edges_keep_few_sweeps(monkeypatch, family, n):
    # these hull edges have interior coefficients on the hull line and keep
    # the golden spread: symmetric starts would stall on their nearly
    # symmetric zeros
    sizes = _sweep_sizes(monkeypatch)
    Z = find_zeros(section(parse_family(family), n))
    assert len(Z.finite_zeros) == n
    assert len(sizes) <= 20


def test_near_unit_binomial_of_degree_4000():
    # golden-angle starts stall on this near-unit circle and overflow
    r = 1 / 0.999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = find_zeros(_binomial(4000, 2.0, r))
    assert len(Z.finite_zeros) == 4000 and Z.infinity_count == 0
    assert np.max(np.abs(np.abs(Z.finite_zeros) - r)) <= 1e-12


@pytest.mark.parametrize("coeffs", [[1, -1.5, 1], [1, 0, -1.5, 0, 1],
                                    [1, 0, 0, -1.5, 0, 0, 1]])
def test_real_polynomials_with_binomial_hull_edges(monkeypatch, coeffs):
    # every hull edge is a binomial with phase 0 or pi, yet no zero is real:
    # real start points would stay on the real axis for the whole first pass
    sizes = _sweep_sizes(monkeypatch)
    P = Polynomial(np.array(coeffs, dtype=complex), len(coeffs) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = find_zeros(P)
    assert len(sizes) <= 40
    assert len(Z.finite_zeros) == P.formal_degree
    assert np.min(np.abs(Z.finite_zeros.imag)) > 0.2
    assert _residual_ok(P, Z.finite_zeros)


def _sparse_real_cases():
    """3000 sparse real polynomials and 239 coprime real trinomials."""
    rng = np.random.default_rng(2026)
    small = np.array([-1.5, -1.0, 0.5, 1.0, 2.0])
    for t in range(3000):
        # degree 3-59, 2-5 terms with both ends nonzero
        d = int(rng.integers(3, 60))
        k = min(int(rng.integers(2, 6)), d + 1)
        inner = rng.choice(np.arange(1, d), k - 2, replace=False)
        c = np.zeros(d + 1)
        support = np.concatenate([[0, d], inner])
        if t % 3 == 0:
            c[support] = rng.choice(small, k)
        elif t % 3 == 1:
            c[support] = rng.normal(size=k)
        else:
            c[support] = rng.normal(size=k) * np.exp(rng.uniform(-30, 30, k))
        yield c
    count = 0
    while count < 239:
        # 1 + c z^a + e z^b with gcd(a, b) = 1 and b < 400
        b = int(rng.integers(3, 400))
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1:
            c = np.zeros(b + 1)
            c[0] = 1.0
            c[[a, b]] = rng.choice(small, 2)
            count += 1
            yield c


def test_sparse_real_polynomials_converge_in_one_pass(monkeypatch):
    # real sparse starts are symmetric about the real axis except for the
    # rounding of their angles; one pass must still converge on all of them
    sizes = _sweep_sizes(monkeypatch)
    for c in _sparse_real_cases():
        P = Polynomial(c, len(c) - 1)
        sizes.clear()
        Z = find_zeros(P)
        assert len(sizes) <= 60, np.nonzero(c)[0]
        assert _residual_ok(P, Z.finite_zeros), np.nonzero(c)[0]


def test_sparse_real_core_is_solved_through_the_gcd_reduction(monkeypatch):
    # binomial starts on 1 - 1.5 z^3 + z^6 escape the real axis only through
    # rounding (32 sweeps), so a 20-sweep pass in z stalls; in u = z^3 the
    # quadratic 1 - 1.5 u + u^2 keeps the golden spread and converges, so
    # find_zeros succeeds only through the reduction
    monkeypatch.setattr(roots, "_MAX_ITERS", 20)
    P = Polynomial(np.array([1, 0, 0, -1.5, 0, 0, 1], dtype=complex), 6)
    with pytest.raises(ConvergenceError):
        _iterate(P.coeffs)
    Z = find_zeros(P)
    assert _residual_ok(P, Z.finite_zeros)


def test_zero_set_count_validation():
    from szego import ZeroSet

    with pytest.raises(DomainError):
        ZeroSet(np.array([1.0 + 0j]), 1, 3)  # 1 + 1 != 3 + ... mismatch


def test_negative_infinity_count_is_rejected():
    # three finite zeros less one at infinity would sum to degree 2, and a
    # negative count then breaks the moduli and the Viete sums downstream
    from szego import ZeroSet

    with pytest.raises(DomainError, match="infinity count"):
        ZeroSet([1, 2, 3], -1, 2)


def test_degrees_are_read_exactly_and_stored_as_ints():
    from szego import ZeroSet

    for degree in (1.0, "1", np.int64(1)):
        P = Polynomial([1, 2], degree)
        assert type(P.formal_degree) is int and P.formal_degree == 1
        Z = find_zeros(P)
        assert type(Z.formal_degree) is int and Z.formal_degree == 1
    Z = ZeroSet([1], 1.0, "2")
    assert type(Z.infinity_count) is int and Z.infinity_count == 1
    assert type(Z.formal_degree) is int and Z.formal_degree == 2
    for bad in (1.5, "x"):
        # not "formal_degree 1.5 does not match 2 coefficients"
        with pytest.raises(DomainError, match="expected a"):
            Polynomial([1, 2], bad)


def _double_loop_sums(w, rows):
    """Reference pair sums in Python complex arithmetic, each term listed."""
    out = []
    for r in rows:
        terms = [1.0 / (1e-12 if w[r] == w[j] else complex(w[r] - w[j]))
                 for j in range(len(w)) if j != r]
        out.append((sum(terms), sum(abs(t) for t in terms)))
    return out


def test_pair_sums_match_double_loop():
    # 7 rows are one block against all 300 points; points 5 and 17
    # coincide exactly, so their rows take the nudged recomputation
    rng = np.random.default_rng(12)
    w = rng.normal(size=300) + 1j * rng.normal(size=300)
    w[17] = w[5]
    rows = np.array([0, 5, 17, 100, 255, 256, 299])
    got = roots._pair_sums(w, rows)
    for g, (expect, scale) in zip(got, _double_loop_sums(w, rows)):
        assert abs(g - expect) <= 1e-13 * scale
    assert abs(got[1] - 1e12) < 1e-3 * 1e12
    assert np.array_equal(roots._pair_sums(w, rows[::-1]), got[::-1])


def _angle_positions(w, rows):
    # the order the triangle scheme gives the active rows: by angle, ties
    # by modulus, then index
    order = rows[np.lexsort((np.abs(w[rows]), np.angle(w[rows])))]
    pos = np.empty(len(w), dtype=int)
    pos[order] = np.arange(len(rows))
    return pos


def _triangle_case(name):
    """(points, active rows, rows that must take the nudged recomputation)."""
    chunk = roots._CHUNK
    rng = np.random.default_rng(12)
    w = rng.normal(size=400) + 1j * rng.normal(size=400)
    # 320 active rows, more than two blocks, with a done point after every
    # four active ones
    rows = np.array([i for i in range(400) if i % 5 != 2])
    nudged = set()
    if name == "coincident":
        w[30] = w[6]        # both active: adjacent in angle order
        w[12] = w[11]       # active 11 meets done 12
        pos = _angle_positions(w, rows)
        assert pos[6] // chunk == pos[30] // chunk
        order = np.argsort(pos[rows])
        a, b = rows[order[chunk - 1]], rows[order[chunk]]
        w[a] = w[b]         # the last row of block 0 meets the first of block 1
        pos = _angle_positions(w, rows)
        assert {pos[a], pos[b]} == {chunk - 1, chunk}
        nudged = {6, 30, 11, int(a), int(b)}
    elif name == "equal_angle":
        # exact power-of-two scalings keep the angle and change the modulus
        w[rows[200:260]] = 0.5 * w[rows[:60]]
        w[rows[260:300]] = 4.0 * w[rows[:40]]
        w[np.arange(2, 400, 5)[:20]] = 2.0 * w[rows[:20]]
        assert len(set(np.angle(w[rows]))) < len(rows) - 80
    return w, rows, nudged


@pytest.mark.parametrize("case", ["interleaved", "coincident", "equal_angle"])
def test_triangle_pair_sums_match_double_loop(monkeypatch, case):
    w, rows, nudged = _triangle_case(case)
    real = roots._nudged_sum
    recomputed = []

    def spy(w, i):
        recomputed.append(int(i))
        return real(w, i)

    monkeypatch.setattr(roots, "_nudged_sum", spy)
    got = roots._pair_sums(w, rows)
    # exactly the rows of coincident points are summed again
    assert set(recomputed) == nudged and len(recomputed) == len(nudged)
    for g, (expect, scale) in zip(got, _double_loop_sums(w, rows)):
        assert abs(g - expect) <= 1e-13 * scale
    # the order of the rows changes nothing but the order of the results
    perm = np.random.default_rng(5).permutation(len(rows))
    assert np.array_equal(roots._pair_sums(w, rows[perm]), got[perm])
    assert np.array_equal(roots._pair_sums(w, rows[::-1]), got[::-1])


def _count_differences(monkeypatch):
    """Count the differences roots forms through np.subtract.outer."""
    formed = []

    class Subtract:
        @staticmethod
        def outer(a, b, **kwargs):
            formed.append(np.size(a) * np.size(b))
            return np.subtract.outer(a, b, **kwargs)

    class Numpy:
        subtract = Subtract

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(roots, "np", Numpy())
    return formed


def test_pair_sums_form_each_active_pair_once(monkeypatch):
    # machine-independent work gate: a full square of differences is N^2
    chunk = roots._CHUNK
    rng = np.random.default_rng(3)
    N = 1000
    w = rng.normal(size=N) + 1j * rng.normal(size=N)
    formed = _count_differences(monkeypatch)
    roots._pair_sums(w, np.arange(N))
    assert sum(formed) <= N * N / 2 + chunk * N
    for m in (1, chunk, chunk + 1, 3 * chunk, N - 1):
        formed.clear()
        roots._pair_sums(w, np.sort(rng.choice(N, m, replace=False)))
        assert 0 < sum(formed) <= m * N


def test_pair_sums_memory_is_one_block_buffer():
    import tracemalloc

    N = 4190
    rng = np.random.default_rng(4)
    w = np.exp(2j * np.pi * rng.random(N)) * (1.0 + 0.1 * rng.random(N))
    tracemalloc.start()
    try:
        roots._pair_sums(w, np.arange(N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * roots._CHUNK * N * 16


def _near_circle(N, seed):
    """N points jittered about the N-th roots of unity, in random order, as
    the points of a solve near the unit circle are."""
    rng = np.random.default_rng(seed)
    turns = (np.arange(N) + 0.3 * rng.random(N)) / N
    w = np.exp(2j * np.pi * turns) * (1.0 + 0.01 * rng.normal(size=N))
    return rng.permutation(w)


def _pair_paths(monkeypatch):
    """'far' or 'triangle' for each pair-sum call that takes either path."""
    paths = []
    for name, tag in (("_far_sums", "far"), ("_triangle_sums", "triangle")):
        def spy(w, rows, real=getattr(roots, name), tag=tag):
            paths.append(tag)
            return real(w, rows)

        monkeypatch.setattr(roots, name, spy)
    return paths


def _assert_matches_double_loop(w, rows, got, picked):
    """got[picked] against the double loop, to 1e-13 of each row's scale."""
    loop = _double_loop_sums(w, rows[picked])
    for g, (expect, scale) in zip(got[picked], loop):
        assert abs(g - expect) <= 1e-13 * scale


@pytest.mark.parametrize("factor", [1, 2])
def test_far_pair_sums_match_double_loop_near_the_circle(monkeypatch,
                                                         factor):
    # at the threshold degree and at twice it, with every row active and
    # with a third of them; 100 rows of each are checked
    N = factor * roots._FAR_DEGREE
    w = _near_circle(N, factor)
    rng = np.random.default_rng(factor)
    paths = _pair_paths(monkeypatch)
    for rows in (np.arange(N), np.sort(rng.choice(N, N // 3, replace=False))):
        got = roots._pair_sums(w, rows)
        _assert_matches_double_loop(w, rows, got,
                                    rng.choice(len(rows), 100, replace=False))
    assert paths == ["far", "far"]


def test_the_far_path_starts_at_the_threshold_degree(monkeypatch):
    paths = _pair_paths(monkeypatch)
    for N in (roots._FAR_DEGREE - 1, roots._FAR_DEGREE):
        roots._pair_sums(_near_circle(N, 0), np.arange(N))
    assert paths == ["triangle", "far"]


def test_far_pair_sums_on_two_circles_and_a_cluster():
    # angle blocks mix the radii 0.5 and 2, and 20 points within 1e-6 of
    # each other sit in one block; every cluster row is checked
    N = roots._FAR_DEGREE
    rng = np.random.default_rng(7)
    inner = (N - 20) // 2
    w = np.concatenate([
        0.5 * np.exp(2j * np.pi * rng.random(inner)),
        2.0 * np.exp(2j * np.pi * rng.random(N - 20 - inner)),
        0.3 + 0.7j + 5e-7 * (rng.random(20) + 1j * rng.random(20)),
    ])
    order = rng.permutation(N)
    w = w[order]
    rows = np.arange(N)
    got = roots._pair_sums(w, rows)
    cluster = np.flatnonzero(order >= N - 20)
    picked = np.concatenate([cluster, rng.choice(N, 150, replace=False)])
    _assert_matches_double_loop(w, rows, got, picked)


def test_far_pair_sums_recompute_exactly_the_coincident_rows(monkeypatch):
    # a run of 150 copies of one point, more than a block holds, so the
    # copies fill blocks of radius 0 and straddle block edges; some copies
    # are done points. One more active point coincides with a done one.
    N = roots._FAR_DEGREE
    w = _near_circle(N, 3)
    rng = np.random.default_rng(3)
    copies, (a, b) = np.arange(150), (400, 401)
    w[copies] = w[0]
    w[b] = w[a]
    done = np.concatenate([copies[::7], [b], rng.choice(np.arange(402, N), 500,
                                                         replace=False)])
    rows = np.setdiff1d(np.arange(N), done)
    nudged = {int(r) for r in rows if np.count_nonzero(w == w[r]) > 1}
    assert len(nudged) == 150 - len(copies[::7]) + 1
    real = roots._nudged_sum
    recomputed = []

    def spy(w, i):
        recomputed.append(int(i))
        return real(w, i)

    monkeypatch.setattr(roots, "_nudged_sum", spy)
    got = roots._pair_sums(w, rows)
    assert set(recomputed) == nudged and len(recomputed) == len(nudged)
    picked = np.concatenate([np.flatnonzero(np.isin(rows, list(nudged)))[:30],
                             rng.choice(len(rows), 100, replace=False)])
    _assert_matches_double_loop(w, rows, got, picked)
    # the order of the rows changes nothing but the order of the results
    perm = rng.permutation(len(rows))
    assert np.array_equal(roots._pair_sums(w, rows[perm]), got[perm])
    assert np.array_equal(roots._pair_sums(w, rows[::-1]), got[::-1])


def test_far_pair_sums_form_at_most_a_quarter_of_the_square(monkeypatch):
    # machine-independent work gate; the triangle forms about N^2 / 2
    N = 4096
    assert N >= roots._FAR_DEGREE
    w = _near_circle(N, 5)
    formed = _count_differences(monkeypatch)
    roots._pair_sums(w, np.arange(N))
    assert 0 < sum(formed) <= N * N / 4


def test_cores_below_the_threshold_keep_the_triangle_sums(monkeypatch):
    # Monte Carlo solves n = 256 batches: their pair sums, and so their
    # zeros, are those of the triangle path
    paths = _pair_paths(monkeypatch)
    roots._zero_sets(_trial_polys("gaussian_complex", 256))
    assert "triangle" in paths and "far" not in paths


def _zeros_in_fresh_process(expr):
    """finite_zeros of ``expr`` solved in a child with single-threaded BLAS."""
    src = os.path.dirname(os.path.dirname(szego.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    code = ("import sys; from szego import *; "
            f"P = {expr}; "
            "sys.stdout.write(find_zeros(P).finite_zeros.tobytes().hex())")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return bytes.fromhex(out)


def test_zeros_do_not_depend_on_blas_threads():
    # neither kernel calls BLAS, so a single-threaded BLAS must reproduce
    # the zeros bit for bit
    P = section(RandomSeries("gaussian_complex", 11), 256)
    here = find_zeros(P).finite_zeros
    expr = "section(RandomSeries('gaussian_complex', 11), 256)"
    assert len(here) == 256
    assert _zeros_in_fresh_process(expr) == here.tobytes()


def test_multi_block_zeros_do_not_depend_on_blas_threads():
    # 640 active rows are five blocks of the triangle pair sums
    expr = "section(parse_family('rational:1,1|1,-1'), 640)"
    here = find_zeros(section(parse_family("rational:1,1|1,-1"), 640))
    assert len(here.finite_zeros) == 640 > 4 * roots._CHUNK
    assert _zeros_in_fresh_process(expr) == here.finite_zeros.tobytes()


def test_far_field_zeros_do_not_depend_on_blas_threads():
    expr = "section(parse_family('geometric'), 2048)"
    here = find_zeros(section(parse_family("geometric"), 2048))
    assert len(here.finite_zeros) >= roots._FAR_DEGREE
    assert _zeros_in_fresh_process(expr) == here.finite_zeros.tobytes()


def _solo(polys):
    """find_zeros of each polynomial, or the ConvergenceError it raises."""
    out = []
    for P in polys:
        try:
            out.append(find_zeros(P))
        except ConvergenceError as exc:
            out.append(exc)
    return out


def _same_bits(a, b):
    if isinstance(a, ConvergenceError) or isinstance(b, ConvergenceError):
        return (type(a) is type(b) and str(a) == str(b)
                and a.residual == b.residual)
    return (a.finite_zeros.tobytes() == b.finite_zeros.tobytes()
            and a.infinity_count == b.infinity_count
            and a.formal_degree == b.formal_degree)


def _trial_polys(ensemble, n, count=10, seed=5):
    return [Polynomial(szego.sample_coeffs(ensemble, n, seed, t), n)
            for t in range(count)]


@pytest.mark.parametrize("n", [8, 24, 64, 256])
@pytest.mark.parametrize("ensemble", ["gaussian_complex", "bernoulli(0.5)",
                                      "log_heavy_tail(2)"])
def test_batched_zeros_are_bit_equal_to_solo_solves(monkeypatch, ensemble,
                                                    n):
    # whatever batch a section is solved in, consecutive or shuffled, its
    # zeros keep the bits of its own find_zeros
    polys = _trial_polys(ensemble, n)
    solo = _solo(polys)
    cores = [roots._deflate(P)[3] for P in polys]
    if ensemble.startswith("bernoulli"):
        # core lengths differ, within one block length and across two
        lengths = {len(c) for c in cores}
        assert len({math.isqrt(m) for m in lengths}) > 1
        assert len(lengths) > len({math.isqrt(m) for m in lengths})
    sizes = _layout_sizes(monkeypatch)
    rng = np.random.default_rng(n)
    orders = [np.arange(10)] * 3 + [rng.permutation(10) for _ in range(3)]
    for order, size in zip(orders, (1, 5, 10, 3, 5, 10)):
        for start in range(0, 10, size):
            batch = order[start: start + size].tolist()
            got = roots._zero_sets([polys[i] for i in batch])
            assert all(_same_bits(g, solo[i]) for g, i in zip(got, batch))
    if ensemble.startswith("log_heavy_tail") and n == 256:
        # the forward layouts of the six runs hold 6 x 10 core vectors;
        # some cores have points past the forward limit, so at least one
        # reversed layout of one more vector was built
        assert sum(map(len, sizes)) > 6 * len(cores)


def test_far_and_triangle_cores_keep_their_solo_bits_in_one_batch(
        monkeypatch):
    # one stack: two cores at the threshold degree take the far path and
    # one just below it takes the triangle
    d = roots._FAR_DEGREE
    polys = [section(RandomSeries("gaussian_complex", seed), n)
             for seed, n in ((1, d), (2, d), (3, d - 8))]
    cores = [roots._deflate(P)[3] for P in polys]
    assert len({series._layout_key(c) for c in cores}) == 1
    solo = _solo(polys)
    paths = _pair_paths(monkeypatch)
    got = roots._zero_sets(polys)
    assert {"far", "triangle"} <= set(paths)
    assert all(_same_bits(g, s) for g, s in zip(got, solo))


def test_a_stalled_trial_fails_alone(monkeypatch):
    # with a sweep budget between the trials' own sweep counts, the slow
    # trials stall in the batch exactly as they stall alone, and the others
    # keep their converged zeros
    polys = _trial_polys("gaussian_complex", 64, count=8)
    counted = _sweep_sizes(monkeypatch)
    sweeps = []
    for P in polys:
        counted.clear()
        find_zeros(P)
        sweeps.append(len(counted))
    budget = max(sweeps) - 1
    assert min(sweeps) <= budget
    converged = _solo(polys)
    monkeypatch.setattr(roots, "_MAX_ITERS", budget)
    solo = _solo(polys)
    got = roots._zero_sets(polys)
    for s, g, c, ref in zip(sweeps, got, converged, solo):
        assert _same_bits(g, ref)
        if s <= budget:
            assert _same_bits(g, c)
        else:
            assert isinstance(g, ConvergenceError)
            assert f"sweep budget {budget})" in str(g)


def test_far_pair_sums_fall_back_to_the_triangle_on_a_thick_annulus(
        monkeypatch):
    # points uniform in 0.5 < |w| < 2 have no gap in modulus, so every
    # angle block is about as wide as the annulus and near most targets
    N = 2048
    assert N >= roots._FAR_DEGREE
    rng = np.random.default_rng(11)
    w = np.sqrt(rng.uniform(0.25, 4.0, N)) * np.exp(2j * np.pi * rng.random(N))
    rows = np.arange(N)
    paths = _pair_paths(monkeypatch)
    got = roots._pair_sums(w, rows)
    assert paths == ["far", "triangle"]
    _assert_matches_double_loop(w, rows, got,
                                rng.choice(N, 100, replace=False))


def _dense_core(P):
    """P's deflated core, normalized as the solver normalizes it."""
    _, _, g, core = roots._deflate(P)
    assert g == 1
    return core / np.max(np.abs(core))


def _solver_points(monkeypatch, P):
    """Every point the solver evaluates while solving P, all sweeps."""
    real = roots._newton_terms
    points = []

    def spy(stack, tr, w):
        points.append(w.copy())
        return real(stack, tr, w)

    monkeypatch.setattr(roots, "_newton_terms", spy)
    find_zeros(P)
    monkeypatch.setattr(roots, "_newton_terms", real)
    return np.concatenate(points)


def _tables_built(monkeypatch):
    """The degree of each core a circle table is built for."""
    built = []

    class Counted(roots._CircleTable):
        def __init__(self, core):
            built.append(len(core) - 1)
            super().__init__(core)

    monkeypatch.setattr(roots, "_CircleTable", Counted)
    return built


@pytest.mark.parametrize("d", [1536, 3072, 8192])
@pytest.mark.parametrize("family", ["geometric", "random:gaussian_complex,1",
                                    "rational:1,1|1,-1"])
def test_circle_table_matches_horner_on_solver_states(monkeypatch, family, d):
    # points of a whole solve that lie in the table's annulus, and points
    # on both of its edges at random angles and halfway between two nodes
    P = section(parse_family(family), d)
    core = _dense_core(P)
    assert len(core) == d + 1
    (table,) = roots._Stack([core]).tables.values()
    w = _solver_points(monkeypatch, P)
    w = w[(table.lo <= np.abs(w)) & (np.abs(w) <= table.hi)]
    rng = np.random.default_rng(d)
    angles = np.concatenate([2 * np.pi * rng.random(25),
                             np.pi * (2 * rng.integers(0, table.nodes, 25)
                                      + 1) / table.nodes])
    w = np.concatenate([rng.choice(w, 200, replace=False),
                        table.lo * np.exp(1j * angles),
                        table.hi * np.exp(1j * angles)])
    p, dp, s = table.evaluate(w)
    hp, hdp, hs = series._horner(series._horner_layout([core]), w)
    assert np.all(np.abs(p - hp) <= 1e-13 * hs)
    # |P'(w)| <= sum_k k |b_k| |w|^(k-1) <= d s / |w|
    assert np.all(np.abs(dp - hdp) <= 1e-13 * d * hs / np.abs(w))
    # s against the direct sum of |b_k| e^(k ln|w|), each term within a few
    # eps: Horner's own s comes from rounded powers of w and is off by up
    # to about 1e-13 of s at d = 8192
    lr = np.log(w).real
    direct = np.concatenate([
        (np.abs(core) * np.exp(np.outer(lr[i: i + 50], np.arange(d + 1))))
        .sum(axis=1) for i in range(0, len(w), 50)])
    assert np.all(np.abs(s - direct) <= 1e-13 * direct)


def test_circle_table_terms_are_the_least_that_meet_their_bound():
    eps = np.finfo(float).eps
    rho, a = roots._TABLE_RHO, roots._TABLE_REACH
    J = roots._TABLE_TERMS

    def bound(j):
        return rho ** (j + 1) * math.exp(rho + a) / math.factorial(j + 1)

    assert bound(J) <= eps < bound(J - 1)
    assert rho == math.hypot(a, math.pi / 4)
    # the tail of e^(x h) past x^J, |h| <= 1, at the corners of the region
    # of x, within eps of the term's size e^(Re x) e^(Re x h) >= e^(Re x - a)
    for x in (a + 1j * math.pi / 4, -a + 1j * math.pi / 4):
        for h in (-1.0, 1.0):
            y = abs(x * h)
            tail = sum(y ** j / math.factorial(j)
                       for j in range(J + 1, J + 40))
            assert tail * math.exp(a) <= eps * math.exp(x.real)
    table = roots._CircleTable(np.ones(roots._TABLE_DEGREE + 1))
    assert table.vals.shape[0] == len(table.mu) == J + 2


def test_the_circle_table_starts_past_the_threshold_degree(monkeypatch):
    built = _tables_built(monkeypatch)
    for d in (roots._TABLE_DEGREE - 1, roots._TABLE_DEGREE):
        P = section(RandomSeries("gaussian_complex", 1), d)
        assert roots._stored(_dense_core(P)) == d + 1
        find_zeros(P)
    assert built == [roots._TABLE_DEGREE]


@pytest.mark.parametrize("make, d", [
    (lambda: _cycle_state(4).P, 4190),
    (lambda: section(parse_family("lacunary:2"), 4200), 4095),
])
def test_sparse_large_cores_keep_horner(monkeypatch, make, d):
    # the universal cycle's 9-term core and the 13-term lacunary core are
    # far above the threshold degree, but their nonzero Horner blocks are
    # few, so Horner already costs them little
    P = make()
    assert len(roots._deflate(P)[3]) == d + 1 > roots._TABLE_DEGREE
    built = _tables_built(monkeypatch)
    find_zeros(P)
    assert all(n < roots._TABLE_DEGREE for n in built)


def test_table_and_horner_cores_keep_their_solo_bits_in_one_batch(
        monkeypatch):
    # one stack: two cores take a circle table and one just below the
    # threshold takes Horner alone
    d = roots._TABLE_DEGREE
    polys = [section(RandomSeries("gaussian_complex", seed), n)
             for seed, n in ((4, d), (5, d + 20), (6, d - 1))]
    cores = [_dense_core(P) for P in polys]
    assert len({series._layout_key(c) for c in cores}) == 1
    solo = _solo(polys)
    built = _tables_built(monkeypatch)
    got = roots._zero_sets(polys)
    assert built == [d, d + 20]
    assert all(_same_bits(g, s) for g, s in zip(got, solo))


def test_points_off_the_annulus_keep_horner(monkeypatch):
    # d |ln|w|| / 2 = 0.5 and 0.999 lie on the table; 1.5 and 3 past either
    # edge, and w = 0, do not, and keep Horner's bits without a warning
    d = 1536
    core = _dense_core(section(RandomSeries("gaussian_complex", 2), d))
    stack = roots._Stack([core])
    turns = np.exp(2j * np.pi * np.random.default_rng(9).random(8))
    on = np.exp(np.array([-0.5, 0.5, -0.999, 0.999]) * 2 / d) * turns[:4]
    off = np.exp(np.array([-1.5, 1.5, -3.0, 3.0]) * 2 / d) * turns[4:]
    w = np.concatenate([on, off, [0.0]])
    seen = []
    real = roots._CircleTable.evaluate

    def spy(table, z):
        seen.append(z.copy())
        return real(table, z)

    monkeypatch.setattr(roots._CircleTable, "evaluate", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nu, absp, s = roots._newton_terms(stack, np.zeros(len(w), dtype=int),
                                          w)
    assert len(seen) == 1 and np.array_equal(seen[0], on)
    p, dp, hs = series._horner(stack.fwd, w[4:])
    assert np.array_equal(nu[4:], p / dp)
    assert np.array_equal(absp[4:], np.abs(p))
    assert np.array_equal(s[4:], hs)


@pytest.mark.parametrize("d", [roots._TABLE_DEGREE + 1, 1536, 4097, 8192])
def test_circle_table_fits_in_the_pair_sum_buffer(d):
    # M < 4 d nodes of J + 2 rows, against the _CHUNK * d entries that the
    # pair sums of the same core hold
    table = roots._CircleTable(np.exp(1j * np.arange(d + 1)))
    assert 2 * d <= table.nodes < 4 * d
    assert table.vals.nbytes + table.mu.nbytes <= roots._CHUNK * d * 16
