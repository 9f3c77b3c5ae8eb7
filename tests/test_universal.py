"""Target measures, block parameters, and the staged universal build."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from szego import (CoefficientOverflowError, DomainError, Polynomial,
                   TargetMeasure, VerificationError, build_universal,
                   choose_M, choose_N, cycle_targets, initial_state,
                   levy_distance, log_disk_sup, parse_targets, point_mass,
                   step, tau, verify_step)
from szego.universal import RING_MARGIN, _block_coeffs


def _poly(coeffs):
    c = np.asarray(coeffs, dtype=np.complex128)
    return Polynomial(c, len(c) - 1)


def _oracle_choose_M(phi, k, N, d_prev):
    t = tau(phi)
    r1, rm = phi.radii[0], phi.radii[-1]
    M = 1
    while True:
        ok = (Fraction(1, M) <= t
              and Fraction(1, M) < Fraction(r1 - 1, 2 * r1)
              and Fraction(rm, M) <= Fraction(1, k)
              and k * (N + d_prev) < phi.m * M)
        if ok:
            return M
        M += 1


def _oracle_choose_N(phi, k, d_prev, log_A):
    m = phi.m
    log_central = math.log(math.comb(m, m // 2))
    growth = math.log((float(phi.radii[0]) + 1.0) / 2.0)
    N = 1
    while True:
        ok = (N > d_prev
              and N * math.log1p(1.0 / k) >= log_central
              and N * growth + m * math.log(RING_MARGIN) > log_A)
        if ok:
            return N
        N += 1


def test_target_measure_validation():
    phi = TargetMeasure.of("3/2", "2")
    assert phi.m == 2
    assert phi.radii == (Fraction(3, 2), Fraction(2))
    assert phi.descriptor() == ["3/2", "2"]
    rho = phi.to_radial_measure()
    assert rho.cdf(1.6) == pytest.approx(0.5)
    assert rho.cdf(2.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        TargetMeasure.of("1")  # radius must exceed 1
    with pytest.raises(DomainError):
        TargetMeasure.of("2", "3/2")  # must increase
    with pytest.raises(DomainError):
        TargetMeasure.of("2", "2")
    with pytest.raises(DomainError):
        TargetMeasure.of()
    for bad in ("abc", "inf", "1/0", float("inf"), float("nan"), None):
        with pytest.raises(DomainError):
            TargetMeasure.of(bad)
    assert TargetMeasure.of(1.5, Fraction(9, 4), 7).radii == (
        Fraction(3, 2), Fraction(9, 4), Fraction(7))


def test_tau_values():
    assert tau(TargetMeasure.of("2")) == 1
    assert tau(TargetMeasure.of("3/2", "2")) == Fraction(1, 7)
    assert tau(TargetMeasure.of("11/10", "6/5", "13/10")) == Fraction(1, 25)


def test_log_disk_sup_monomial_exact():
    P = _poly([0, 0, 0, 0, 0, 1])
    assert log_disk_sup(P, 3.0) == 5 * math.log(3.0)
    assert log_disk_sup(_poly([0]), 2.0) == -math.inf
    with pytest.raises(DomainError):
        log_disk_sup(P, 0.0)


def test_log_disk_sup_is_tight_upper_bound():
    rng = np.random.default_rng(31)
    for _ in range(20):
        deg = int(rng.integers(1, 40))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        P = _poly(c)
        r = float(rng.uniform(0.3, 4.0))
        bound = log_disk_sup(P, r)
        theta = rng.uniform(0, 2 * np.pi, size=1 << 14)
        pts = r * np.exp(1j * theta)
        vals = np.polynomial.polynomial.polyval(pts, c)
        brute = float(np.max(np.log(np.abs(vals))))
        assert bound >= brute - 1e-9
        assert bound <= brute + 0.06


def test_choose_M_matches_oracle():
    rng = np.random.default_rng(77)
    cases = [
        (TargetMeasure.of("3/2", "2"), 1, 12, 0),
        (TargetMeasure.of("2"), 1, 4, 0),
        (TargetMeasure.of("6/5"), 3, 50, 21),
    ]
    for _ in range(25):
        num = int(rng.integers(1, 4))
        radii = sorted(rng.integers(11, 60, size=num))
        radii = [Fraction(int(x), 10) for x in sorted(set(radii))]
        if not radii:
            continue
        phi = TargetMeasure.of(*radii)
        cases.append((phi, int(rng.integers(1, 5)),
                      int(rng.integers(1, 200)), int(rng.integers(0, 50))))
    for phi, k, N, d_prev in cases:
        assert choose_M(phi, k, N, d_prev) == _oracle_choose_M(
            phi, k, N, d_prev), (phi.descriptor(), k, N, d_prev)


def test_choose_N_matches_oracle():
    rng = np.random.default_rng(78)
    cases = [
        (TargetMeasure.of("3/2", "2"), 1, 0, 0.0),
        (TargetMeasure.of("2"), 1, 0, 0.0),
    ]
    for _ in range(25):
        num = int(rng.integers(1, 4))
        radii = [Fraction(int(x), 10)
                 for x in sorted(set(rng.integers(11, 60, size=num)))]
        if not radii:
            continue
        phi = TargetMeasure.of(*radii)
        cases.append((phi, int(rng.integers(1, 5)),
                      int(rng.integers(0, 40)), float(rng.uniform(0, 60))))
    for phi, k, d_prev, log_A in cases:
        assert choose_N(phi, k, d_prev, log_A) == _oracle_choose_N(
            phi, k, d_prev, log_A), (phi.descriptor(), k, d_prev, log_A)


def test_block_coeffs_expansion():
    phi = TargetMeasure.of("3/2", "2")
    got = _block_coeffs(phi, N=3, M=2)
    # direct expansion of z^3 (1 - (z/1.5)^2)(1 - (z/2)^2)
    direct = np.zeros(8, dtype=np.complex128)
    a, b = 1.5 ** -2, 2.0 ** -2
    direct[3] = 1.0
    direct[5] = -(a + b)
    direct[7] = a * b
    assert np.allclose(got, direct, rtol=0, atol=1e-16)


def test_single_step_pinned_parameters():
    phi = TargetMeasure.of("3/2", "2")
    st = step(initial_state(), phi)
    rec = st.records[-1]
    assert (rec.N, rec.M, rec.d) == (12, 7, 26)
    assert st.P.coeffs[0] == 1.0
    assert st.P.coeffs[12] == 1.0
    assert st.P.coeffs[26] != 0
    # support outside {0, 12, 19, 26} is empty
    nz = set(np.nonzero(st.P.coeffs)[0].tolist())
    assert nz == {0, 12, 19, 26}
    with pytest.raises(DomainError):
        step(st, phi, k=5)  # steps must run in order


def test_verify_step_pinned():
    phi = TargetMeasure.of("3/2", "2")
    st = step(initial_state(), phi)
    rep = verify_step(st, phi)
    assert rep.ring_zeros == 14
    assert rep.min_factor_margin >= RING_MARGIN - 1e-12
    assert rep.levy <= 1.0
    with pytest.raises(DomainError):
        verify_step(st, TargetMeasure.of("2"))
    with pytest.raises(DomainError):
        verify_step(initial_state(), phi)


def test_two_step_singleton_build():
    targets = cycle_targets([TargetMeasure.of("2")], 2)
    state, reports = build_universal(targets)
    assert [r.k for r in reports] == [1, 2]
    assert reports[0].levy <= 1.0
    assert reports[1].levy <= 0.5
    assert state.d == reports[1].d
    # each section's measure approaches the single ring radius
    assert reports[1].levy <= reports[0].levy


def test_build_without_verification():
    state, reports = build_universal([("2",)], verify=False)
    assert math.isnan(reports[0].levy)
    assert math.isnan(reports[0].min_factor_margin)
    assert state.k == 1


def test_overflow_is_reported():
    with pytest.raises(CoefficientOverflowError):
        step(initial_state(), TargetMeasure.of("1000"))


def test_cycle_and_parse_targets():
    base = [TargetMeasure.of("2"), TargetMeasure.of("3")]
    seq = cycle_targets(base, 5)
    assert [t.descriptor() for t in seq] == [
        ["2"], ["3"], ["2"], ["3"], ["2"]]
    parsed = parse_targets('[["3/2", "2"], ["3"]]')
    assert [t.descriptor() for t in parsed] == [["3/2", "2"], ["3"]]
    parsed2 = parse_targets('["2"]')
    assert parsed2[0].descriptor() == ["2"]
    parsed3 = parse_targets('{"radii": [1.5, 2]}')
    assert parsed3[0].descriptor() == ["3/2", "2"]
    with pytest.raises(DomainError):
        parse_targets("not json")
    with pytest.raises(DomainError):
        parse_targets('[{"rings": [2]}]')
    with pytest.raises(DomainError):
        parse_targets("[]")
    with pytest.raises(DomainError):
        parse_targets('[["1/2"]]')


def test_levy_to_target_uses_compact_radii():
    # a crude sanity anchor: the ring measure against a far point mass
    phi = TargetMeasure.of("2")
    d = levy_distance(phi.to_radial_measure(), point_mass(math.inf))
    assert 0.3 < d <= 1.0
