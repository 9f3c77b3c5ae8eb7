"""Target measures, block parameters, and the staged universal build."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import szego
from szego import (CoefficientOverflowError, DomainError, Polynomial,
                   TargetMeasure, VerificationError, ZeroSet, build_universal,
                   choose_M, choose_N, cycle_targets, find_zeros,
                   initial_state, levy_distance, log_disk_sup, parse_targets,
                   point_mass, step, tau, verify_step)
from szego import universal
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
    for bad in ("x", math.nan, math.inf):
        with pytest.raises(DomainError):
            log_disk_sup(P, bad)


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
    phi = cases[0][0]
    for args in (("x", 1, 0), (1, 1.5, 0), (1, 1, "x")):
        with pytest.raises(DomainError):
            choose_M(phi, *args)


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
    phi = cases[0][0]
    for args in ((1, 0, math.nan), (1, 0, "x"), ("x", 0, 0.0), (1, 0.5, 0.0)):
        with pytest.raises(DomainError):
            choose_N(phi, *args)


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
    for bad in ("x", ["3/2", "2"], None):
        with pytest.raises(DomainError):
            step(st, bad)


def test_verify_step_pinned():
    phi = TargetMeasure.of("3/2", "2")
    st = step(initial_state(), phi)
    rep = verify_step(st)
    assert rep.ring_zeros == 14
    assert rep.min_factor_margin >= RING_MARGIN - 1e-12
    assert rep.levy <= 1.0
    with pytest.raises(DomainError):
        verify_step(initial_state())


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
    assert reports[0] is state.records[-1]


def test_one_record_per_step_audited_in_place():
    phi = TargetMeasure.of("3/2", "2")
    st = step(initial_state(), phi)
    assert [f.name for f in dataclasses.fields(st)] == ["P", "records"]
    assert (st.k, st.d) == (1, 26)
    rec = st.records[-1]
    # the constant 1 has sup exactly 1 on every disk
    assert (rec.k, rec.phi, rec.log_A) == (1, phi, 0.0)
    assert math.isnan(rec.min_factor_margin) and math.isnan(rec.levy)
    rep = verify_step(st)
    assert rep == dataclasses.replace(rec, levy=rep.levy,
                                      min_factor_margin=rep.min_factor_margin)
    assert rep.levy <= 1.0 and rep.min_factor_margin >= RING_MARGIN - 1e-12
    assert list(rep.to_dict()) == ["k", "target", "N", "M", "d", "ring_zeros",
                                   "min_factor_margin", "levy"]
    assert rep.to_dict()["target"] == ["3/2", "2"]
    st2 = step(st, TargetMeasure.of("3"))
    assert [r.k for r in st2.records] == [1, 2]
    assert st2.records[0] is rec and st2.d == st2.records[-1].d


def test_overflow_is_reported():
    with pytest.raises(CoefficientOverflowError):
        step(initial_state(), TargetMeasure.of("1000"))


def test_cycle_and_parse_targets():
    base = [TargetMeasure.of("2"), TargetMeasure.of("3")]
    seq = cycle_targets(base, 5)
    assert [t.descriptor() for t in seq] == [
        ["2"], ["3"], ["2"], ["3"], ["2"]]
    assert cycle_targets(base, 2.0) == cycle_targets(base, 2)
    for bad in (2.5, "x"):
        with pytest.raises(DomainError):
            cycle_targets(base, bad)
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


# acceptance 9's step and the two target lists the CLI benchmark builds
_AUDIT_CASES = {
    "acceptance_9": [("3/2", "2")],
    "two_step": [("3/2", "2"), ("3",)],
    "cycle": [("3",), ("4",), ("3",), ("6/5",)],
}
_CYCLE = '[["3"],["4"],["3"],["6/5"]]'
_SLACK = 1.0 + 1e-9


@pytest.fixture(scope="module")
def audited_steps():
    """(state, target, zero set) after every step of every audit case."""
    out = {}
    for name, radii in _AUDIT_CASES.items():
        state = initial_state()
        for k, r in enumerate(radii, start=1):
            phi = TargetMeasure.of(*r)
            state = step(state, phi)
            out[name, k] = (state, phi, find_zeros(state.P))
    return out


def _ring_audit_oracle(zeros, phi, M):
    """The ring verdict from every zero-to-center distance, in row chunks."""
    eta = np.exp(2j * np.pi * np.arange(M) / M)
    claimed = np.zeros(len(zeros), dtype=bool)
    for r in phi.radii:
        rf = float(r)
        per_disk = np.zeros(M, dtype=np.intp)
        hit = np.zeros(len(zeros), dtype=bool)
        for start in range(0, len(zeros), 256):
            rows = slice(start, start + 256)
            dist = np.abs(zeros[rows, None] - (rf * eta)[None, :])
            inside = dist <= (rf / M) * _SLACK
            per_disk += inside.sum(axis=0)
            hit[rows] = inside.any(axis=1)
        if not np.all(per_disk == 1):
            return (f"expected one zero per ring disk at radius {r}, got "
                    f"counts {sorted(set(per_disk.tolist()))}")
        if np.any(claimed & hit):
            return "a zero was claimed by two ring disks"
        claimed |= hit
    return None


def _audit(monkeypatch, state, Z):
    """verify_step on a given zero set: None on success, else the message."""
    monkeypatch.setattr(universal, "find_zeros", lambda P: Z)
    try:
        verify_step(state)
    except VerificationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("key", [
    (name, k) for name, radii in _AUDIT_CASES.items()
    for k in range(1, len(radii) + 1)])
def test_ring_audit_matches_distance_matrix(monkeypatch, audited_steps, key):
    state, phi, Z = audited_steps[key]
    assert _ring_audit_oracle(Z.finite_zeros, phi, state.records[-1].M) is None
    assert _audit(monkeypatch, state, Z) is None


def _perturbed(zeros, phi, M, how):
    zeros = zeros.copy()
    eta = np.exp(2j * np.pi * np.arange(M) / M)
    rf = float(phi.radii[-1])
    if how == "moved":
        # the last disk, so a count vector cut short there reads all ones
        i = np.argmin(np.abs(zeros - rf * eta[-1]))
        zeros[i] *= 1 + 3 / M
    elif how == "duplicated":
        # a junk zero, far from every ring, lands on the center of disk 0
        far = np.min(np.abs(np.abs(zeros)[:, None]
                            - np.array([float(r) for r in phi.radii])), axis=1)
        zeros[np.argmax(far)] = rf
    else:
        # the zero of disk 1 goes to its slack boundary, sideways, where
        # its angle is furthest from the center's
        i = np.argmin(np.abs(zeros - rf * eta[1]))
        zeros[i] = rf * eta[1] * (1 + 1j * _SLACK / M)
    return zeros


@pytest.mark.parametrize("how", ["moved", "duplicated", "boundary"])
@pytest.mark.parametrize("key", [("acceptance_9", 1), ("cycle", 4)])
def test_ring_audit_matches_distance_matrix_on_perturbed_zeros(
        monkeypatch, audited_steps, key, how):
    state, phi, Z = audited_steps[key]
    M = state.records[-1].M
    zeros = _perturbed(Z.finite_zeros, phi, M, how)
    expect = _ring_audit_oracle(zeros, phi, M)
    if how != "boundary":
        assert expect is not None
    bad = ZeroSet(zeros, Z.infinity_count, Z.formal_degree)
    assert _audit(monkeypatch, state, bad) == expect


def _fabricated(radii, k, N, M, zeros=None):
    """A build state whose one record is step k toward the given radii,
    with a section of index N + m M, and that section's zeros when given:
    the finite ones, the rest at infinity."""
    phi = TargetMeasure.of(*radii)
    d = N + phi.m * M
    rec = szego.StepReport(k=k, phi=phi, N=N, M=M, d=d, log_A=0.0)
    state = szego.BuildState(P=_poly(np.ones(d + 1)), records=(rec,))
    if zeros is None:
        return state, None
    zeros = np.asarray(zeros, dtype=np.complex128)
    return state, ZeroSet(zeros, d - len(zeros), d)


def test_verify_step_rejects_overlapping_annuli(monkeypatch):
    # 3/2 (1 + 1/2) = 9/4 reaches past 8/5 (1 - 1/2) = 4/5
    state, _ = _fabricated(["3/2", "8/5"], k=1, N=1, M=2)
    assert _audit(monkeypatch, state, None) == "ring annuli overlap radially"


def test_verify_step_rejects_the_junk_ratio(monkeypatch):
    # k (N + d_prev) = 5 is not below m M = 2
    state, _ = _fabricated(["3"], k=1, N=5, M=2)
    assert _audit(monkeypatch, state, None) == "junk ratio condition failed"


def test_verify_step_rejects_a_zero_in_two_ring_disks(monkeypatch):
    # the annuli of 3/2 and 9/4 touch at 9/5 when M = 5, so a zero there
    # sits in the first disk of both rings and every disk holds one zero
    eta = np.exp(2j * np.pi * np.arange(1, 5) / 5)
    zeros = np.concatenate([[1.8], 1.5 * eta, 2.25 * eta])
    state, Z = _fabricated(["3/2", "9/4"], k=1, N=1, M=5, zeros=zeros)
    assert _audit(monkeypatch, state, Z) == \
        "a zero was claimed by two ring disks"


def test_verify_step_rejects_a_section_far_from_its_target(monkeypatch):
    # one zero per disk, each near its disk's edge: moduli 1.6 and 44
    # against the target's 3 and 30 put the measures about 0.13 apart in
    # Levy distance, above 1/k = 1/10
    eta = np.exp(2j * np.pi * np.arange(2) / 2)
    state, Z = _fabricated(["3", "30"], k=10, N=0, M=2,
                           zeros=np.concatenate([1.6 * eta, 44 * eta]))
    message = _audit(monkeypatch, state, Z)
    assert message.startswith("section measure is 0.1") and \
        message.endswith("from the target, above 1/10")


def test_ring_audit_memory_is_linear_in_the_degree(monkeypatch, audited_steps):
    # d = 4611 zeros against M = 3689 centers: a distance matrix would take
    # over 200 MB, one distance per zero about 75 kB
    state, phi, Z = audited_steps["cycle", 4]
    assert (state.d, state.records[-1].M) == (4611, 3689)
    monkeypatch.setattr(universal, "find_zeros", lambda P: Z)
    tracemalloc.start()
    try:
        verify_step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


#: points sampled on each ring-disk boundary by the margin oracle
_BOUNDARY_POINTS = 64


def _power(re, im, M):
    """(re + i im)^M by square-and-multiply, low bit first, each complex
    product in separately rounded real operations."""
    acc = None
    while True:
        if M & 1:
            acc = (re, im) if acc is None else _times(acc, (re, im))
        M >>= 1
        if not M:
            return acc
        re, im = _times((re, im), (re, im))


def _times(a, b):
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _sampled_margin(phi, M):
    """min |1 - (z / r_j)^M| over every r_j and _BOUNDARY_POINTS samples z
    on each ring-disk boundary, 128 disks at a time."""
    eta = np.exp(2j * np.pi * np.arange(M) / M)
    n = _BOUNDARY_POINTS
    angles = np.exp(2j * np.pi * np.arange(n) / n)
    out = math.inf
    for r in phi.radii:
        rf = float(r)
        for start in range(0, M, 128):
            pts = rf * eta[start:start + 128, None] + (rf / M) * angles
            for rj in phi.radii:
                x = pts / float(rj)
                re, im = _power(x.real, x.imag, M)
                out = min(out, float(np.min(np.hypot(1.0 - re, im))))
    return out


#: the step of an audit case at which each ring count M first appears
_MARGIN_CASES = {4: ("cycle", 1), 7: ("acceptance_9", 1), 35: ("cycle", 2),
                 169: ("two_step", 2), 316: ("cycle", 3), 3689: ("cycle", 4)}


@pytest.mark.parametrize("M", sorted(_MARGIN_CASES))
def test_ring_margin_matches_the_sampled_boundaries(monkeypatch,
                                                    audited_steps, M):
    # the sampled grid holds psi = pi, the own-ring minimum, and every
    # cross-ring factor of a two-ring target stays above it
    assert {s.records[-1].M for s, _, _ in audited_steps.values()} == set(
        _MARGIN_CASES)
    state, phi, Z = audited_steps[_MARGIN_CASES[M]]
    assert state.records[-1].M == M
    monkeypatch.setattr(universal, "find_zeros", lambda P: Z)
    got = verify_step(state).min_factor_margin
    assert abs(got - _sampled_margin(phi, M)) <= 1e-12 * got
    assert got > RING_MARGIN


def _boundary_points(phi, M):
    """The oracle's ring-disk boundary samples, one row per disk."""
    eta = np.exp(2j * np.pi * np.arange(M) / M)
    angles = np.exp(2j * np.pi * np.arange(_BOUNDARY_POINTS) / _BOUNDARY_POINTS)
    return [float(r) * eta[:, None] + (float(r) / M) * angles
            for r in phi.radii]


@pytest.mark.parametrize("M", [35])
def test_factor_margin_keeps_numpy_bits_below_100(monkeypatch, audited_steps,
                                                  M):
    # below M = 100 numpy's complex power multiplies the same way as the
    # oracle's square-and-multiply, unfused, and the reported margin is the
    # least numpy-sampled factor
    state, phi, Z = audited_steps[_MARGIN_CASES[M]]
    x = np.concatenate([pts.ravel() / float(rj)
                        for pts in _boundary_points(phi, M)
                        for rj in phi.radii])
    re, im = _power(x.real, x.imag, M)
    power = x ** M
    assert np.array_equal(re, power.real) and np.array_equal(im, power.imag)
    monkeypatch.setattr(universal, "find_zeros", lambda P: Z)
    got = verify_step(state).min_factor_margin
    assert abs(got - float(np.min(np.abs(1.0 - power)))) <= 1e-12 * got


@pytest.mark.parametrize("r, M", [("4", 35)])
def test_factor_margin_matches_mpmath(monkeypatch, audited_steps, r, M):
    # mpmath raises the same float points to the M-th power exactly, at the
    # 200 points numpy's power puts lowest; the least is the closed form
    mpmath = pytest.importorskip("mpmath")
    state, phi, Z = audited_steps[_MARGIN_CASES[M]]
    assert phi == TargetMeasure.of(r)
    monkeypatch.setattr(universal, "find_zeros", lambda P: Z)
    got = verify_step(state).min_factor_margin
    x = _boundary_points(phi, M)[0].ravel() / float(phi.radii[0])
    lowest = np.argsort(np.abs(1.0 - x ** M))[:200]
    with mpmath.workdps(40):
        exact = min(float(abs(1 - mpmath.mpc(complex(x[i])) ** M))
                    for i in lowest)
    assert abs(got - exact) <= 1e-13 * exact


def test_ring_margin_is_the_minimum_over_the_disk_boundary():
    # |1 - (1 + e^(i psi) / M)^M| on a grid of 2^14 angles never dips below
    # its value at psi = pi, where the grid attains it; the grid is
    # symmetric under conjugation, so psi in [0, pi] covers it
    psi = 2 * np.pi * np.arange(2 ** 13 + 1) / 2 ** 14
    u = np.exp(1j * psi)
    for Ms in np.array_split(np.arange(1, 2001), 100):
        M = Ms[:, None].astype(float)
        vals = np.abs(np.expm1(M * np.log1p(u / M)))
        closed = 1.0 - (1.0 - 1.0 / Ms) ** Ms
        assert np.all(vals.min(axis=1) >= closed - 1e-12)
        assert np.all(np.abs(vals[:, -1] - closed) <= 1e-12)


def test_verify_step_peak_memory_on_the_cycle(audited_steps):
    # the margin is taken in closed form and the zeros are tested one disk
    # per zero, so the peak is the solver's: since the split at the binomial
    # top edge, the Horner tables of its one full sweep
    state, phi, _ = audited_steps["cycle", 4]
    tracemalloc.start()
    try:
        verify_step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * 2 ** 20


def test_universal_cycle_command_stays_below_200_mb():
    src = os.path.dirname(os.path.dirname(szego.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import os, resource, sys; from szego.cli import main; "
            f"rc = main(['universal', '--targets', '{_CYCLE}', "
            "'--out', os.devnull]); "
            "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "print(rc, kb / 1024 if sys.platform != 'darwin' else kb / 2**20)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    rc, mb = out.split()
    assert rc == "0"
    assert float(mb) < 200
