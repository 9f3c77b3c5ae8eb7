"""Coefficient streams, sections, and the family parser."""

from __future__ import annotations

import numpy as np
import pytest

from szego import (Carlson, DomainError, Explicit, FactorialGaps, Geometric,
                   InverseOneMinusZN, Lacunary, Polynomial, Rational, ZeroOne,
                   carlson_coeff, load_explicit_csv, parse_family,
                   reversed_companion, section, series_from_descriptor)
from szego.series import _circle_values, carlson_indices


def test_polynomial_evaluation_matches_polyval():
    rng = np.random.default_rng(42)
    for _ in range(20):
        deg = int(rng.integers(0, 12))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        P = Polynomial(c, deg)
        zs = rng.normal(size=5) + 1j * rng.normal(size=5)
        expect = np.polyval(c[::-1], zs)
        got = P(zs)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)
        z0 = complex(zs[0])
        assert isinstance(P(z0), complex)


@pytest.mark.parametrize("nodes", [7, 16, 41, 64, 256])
def test_circle_values_match_horner(nodes):
    # degree 40: 7 and 16 nodes fold the coefficients, 41 and more do not
    rng = np.random.default_rng(nodes)
    c = rng.normal(size=41) + 1j * rng.normal(size=41)
    P = Polynomial(c, 40)
    expect = P(np.exp(-2j * np.pi * np.arange(nodes) / nodes))
    got = _circle_values(c, nodes)
    assert got.shape == (nodes,)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_polynomial_formal_degree_must_match():
    with pytest.raises(DomainError):
        Polynomial(np.ones(3), 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(DomainError):
        Polynomial(np.array([1.0, bad, 1.0]), 2)
    with pytest.raises(DomainError):
        section(Explicit([1.0, bad, 1.0]), 2)


def test_polynomial_padding():
    P = Polynomial(np.array([1.0, 2.0]), 1)
    Q = P.padded(4)
    assert Q.formal_degree == 4
    assert np.array_equal(Q.coeffs, np.array([1, 2, 0, 0, 0], dtype=complex))
    with pytest.raises(DomainError):
        Q.padded(2)


def test_geometric_values():
    s = Geometric()
    assert np.array_equal(s.values(6), np.ones(7, dtype=complex))
    assert np.array_equal(s.log_abs(6), np.zeros(7))


def test_lacunary_indicator():
    s = Lacunary(2)
    v = s.values(20)
    expected = np.zeros(21)
    for k in [1, 2, 4, 8, 16]:
        expected[k] = 1.0
    assert np.array_equal(v.real, expected)
    assert np.all(v.imag == 0)
    assert v[0] == 0  # the constant term is not part of the gap sequence
    with pytest.raises(DomainError):
        Lacunary(1)


def test_inverse_one_minus_zN_indicator():
    s = InverseOneMinusZN(3)
    v = s.values(10)
    for k in range(11):
        assert v[k] == (1.0 if k % 3 == 0 else 0.0)


def test_factorial_gaps_indicator():
    s = FactorialGaps()
    v = s.values(750)
    ones = {int(k) for k in np.nonzero(v.real)[0]}
    assert ones == {1, 2, 6, 24, 120, 720}


def test_rational_reproduces_geometric():
    s = Rational([1], [1, -1])
    assert np.allclose(s.values(12), np.ones(13))


def test_rational_alternating_and_shifted():
    s = Rational([1], [1, 0, -1])  # 1/(1 - z^2)
    v = s.values(9)
    assert np.allclose(v.real, [1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    s2 = Rational([1, 1], [1, -1])  # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
    v2 = s2.values(5)
    assert np.allclose(v2.real, [1, 2, 2, 2, 2, 2])


def test_rational_rejects_off_circle_denominator():
    with pytest.raises(DomainError):
        Rational([1], [1, -0.5])  # pole at z = 2
    with pytest.raises(DomainError):
        Rational([1], [0, 1])  # zero constant term


def test_zero_one_family():
    s = ZeroOne([0, 3, 7])
    v = s.values(10)
    assert {int(k) for k in np.nonzero(v.real)[0]} == {0, 3, 7}
    assert np.array_equal(s.values(5).real, [1, 0, 0, 1, 0, 0])
    with pytest.raises(DomainError):
        ZeroOne([])
    with pytest.raises(DomainError):
        ZeroOne([-1, 2])


def test_carlson_indices_hand_values():
    # worked by hand from the stated rule: start at 2, divide by 1-t,
    # round to nearest, never stall
    assert list(carlson_indices(0.5, 64)) == [2, 4, 8, 16, 32, 64]
    assert list(carlson_indices(0.3, 40)) == [2, 3, 4, 6, 9, 13, 19, 27, 39]
    assert list(carlson_indices(1.0, 720)) == [1, 2, 6, 24, 120, 720]


def test_carlson_indices_properties():
    for t in (0.1, 0.25, 0.6, 0.9):
        idx = carlson_indices(t, 100000)
        assert np.all(np.diff(idx) > 0)
        ratios = idx[:-1][-5:] / idx[1:][-5:]
        assert np.allclose(ratios, 1.0 - t, atol=0.01)


def test_carlson_stream_values():
    s = Carlson(0.5, 0.5)
    v = s.values(10).real
    idx = set(carlson_indices(0.5, 10))
    for k in range(11):
        if k == 0:
            assert v[k] == 1.0
        elif k in idx:
            assert v[k] == 1.0
        else:
            assert v[k] == pytest.approx(0.5 ** k)
    logs = s.log_abs(10)
    with np.errstate(divide="ignore"):
        assert np.allclose(logs, np.log(np.abs(s.values(10))))


def test_carlson_coeff_single():
    assert carlson_coeff(0.5, 0.5, 8) == 1.0
    assert carlson_coeff(0.5, 0.5, 7) == pytest.approx(0.5 ** 7)
    assert carlson_coeff(0.5, 0.5, 0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        carlson_coeff(1.5, 0.5, 3)
    with pytest.raises(DomainError):
        carlson_coeff(0.5, 1.0, 3)


def test_explicit_and_section():
    s = Explicit([1, 2, 3])
    P = section(s, 5)
    assert P.formal_degree == 5
    assert np.array_equal(P.coeffs.real, [1, 2, 3, 0, 0, 0])
    P2 = section(s, 1)
    assert np.array_equal(P2.coeffs.real, [1, 2])
    with pytest.raises(DomainError):
        section(s, -1)


def test_reversed_companion():
    P = Polynomial(np.array([1.0, 2.0, 3.0]), 2)
    Q = reversed_companion(P)
    assert np.array_equal(Q.coeffs.real, [3, 2, 1])
    # reversal at a nonzero point: z^n P(1/z)
    z = 0.7 + 0.2j
    assert Q(z) == pytest.approx(z ** 2 * P(1 / z))


def test_parse_family_round_trips():
    cases = [
        "geometric",
        "lacunary:3",
        "inverse_one_minus_zN:4",
        "factorial_gaps",
        "carlson:0.5,0.5",
        "zero_one:0,2,5",
        "explicit:1,2,0.5",
        "rational:1|1,-1",
        "random:gaussian_complex,7",
    ]
    for text in cases:
        s = parse_family(text)
        v1 = s.values(16)
        s2 = series_from_descriptor(s.descriptor())
        assert s2 == s
        assert np.array_equal(s2.values(16), v1)


def test_parse_family_fraction_and_errors():
    s = parse_family("explicit:1/2,3/4")
    assert np.allclose(s.values(1).real, [0.5, 0.75])
    for bad in ("nope", "lacunary", "lacunary:2,3", "rational:1,2", "random:x"):
        with pytest.raises(DomainError):
            parse_family(bad)
    # constructors reject non-integral values instead of truncating them
    for build in (lambda: Lacunary(2.9), lambda: InverseOneMinusZN(2.5),
                  lambda: ZeroOne([0.5, 1.7]), lambda: Carlson("a", 0.5),
                  lambda: Explicit(["1/0"])):
        with pytest.raises(DomainError):
            build()
    for bad in ({"kind": "lacunary", "ratio": 2}, {"kind": ["lacunary"]}):
        with pytest.raises(DomainError):
            series_from_descriptor(bad)


def test_load_explicit_csv(tmp_path):
    p = tmp_path / "coeffs.csv"
    p.write_text("re,im\n1,0\n0.5,-0.25\n2\n# comment\n")
    s = load_explicit_csv(p)
    assert np.allclose(s.values(2), [1, 0.5 - 0.25j, 2])
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\nnot,a number\n")
    with pytest.raises(DomainError):
        load_explicit_csv(bad)


def test_stream_equality_and_hash():
    assert Lacunary(2) == Lacunary(2)
    assert Lacunary(2) != Lacunary(3)
    assert hash(Carlson(0.5, 0.5)) == hash(Carlson(0.5, 0.5))


def test_random_series_is_deterministic():
    s1 = parse_family("random:bernoulli(0.5),11")
    s2 = parse_family("random:bernoulli(0.5),11")
    assert np.array_equal(s1.values(100), s2.values(100))
    s3 = parse_family("random:bernoulli(0.5),12")
    assert not np.array_equal(s1.values(100), s3.values(100))
