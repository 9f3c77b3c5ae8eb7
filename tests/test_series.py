"""Coefficient streams, sections, and the family parser."""

from __future__ import annotations

import math

import numpy as np
import pytest

from szego import (Carlson, DomainError, Explicit, FactorialGaps, Geometric,
                   find_zeros,
                   InverseOneMinusZN, Lacunary, Polynomial, Rational,
                   RandomSeries, TargetMeasure, ZeroOne, initial_state,
                   parse_family, section, step)
from szego import series
from szego.series import (_circle_values, _horner, _horner_layout,
                          _horner_rows, _layout_key, carlson_indices)


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
    for bad in ("x", ["x", 1.0], {1: 2}):
        with pytest.raises(DomainError):
            P(bad)


def _horner_reference(coeffs, z):
    """Plain Horner in Python complex: value, derivative, |.|-sum at |z|."""
    p = dp = 0j
    s = 0.0
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
        s = s * abs(z) + abs(c)
    return p, dp, s


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 4611])
def test_horner_matches_plain_horner(deg):
    # degrees on both sides of perfect squares move the block length and
    # leave the last block full or padded
    rng = np.random.default_rng(deg)
    c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    zs = np.array([r * np.exp(1j * a) for r in (0.5, 0.97, 1.0, 1.03, 1.1)
                   for a in (0.1, 1.3, 2.9, -2.2)])
    p, dp, s = _horner(_horner_layout([c]), zs)
    eps = np.finfo(float).eps
    ks = np.arange(1, deg + 1)
    for i, z in enumerate(zs):
        p_ref, dp_ref, s_ref = _horner_reference(c, complex(z))
        # P' is measured against its own rounding scale sum k |c_k| |z|^(k-1)
        ds = float(np.sum(ks * np.abs(c[1:]) * abs(z) ** (ks - 1)))
        assert abs(p[i] - p_ref) <= 4 * (deg + 1) * eps * s_ref
        assert abs(dp[i] - dp_ref) <= 4 * (deg + 1) * eps * ds
        assert abs(s[i] - s_ref) <= 4 * (deg + 1) * eps * s_ref


@pytest.mark.parametrize("shape", [(), (3, 4), (0,), (2, 0)])
def test_horner_keeps_the_shape_of_z(shape):
    c = np.arange(1, 19) + 0.5j
    z = np.full(shape, 0.3 - 0.8j)
    for out in _horner(_horner_layout([c]), z):
        assert out.shape == shape
    expect = _horner_reference(c, 0.3 - 0.8j)[0]
    assert np.allclose(Polynomial(c, 17)(z), expect, rtol=1e-14)
    assert isinstance(Polynomial(c, 17)(0.3 - 0.8j), complex)


def _horner_all_blocks(coeffs, z):
    """The blocked kernel summing every block, empty or not, as a reference.

    Same arrangement as the kernel: (k, m) powers, real coefficient rows
    (over imaginary rows for complex coefficients) against their float
    view, and every block sum as einsum("bk,kn->bn").
    """
    n = len(coeffs)
    k = math.isqrt(n)
    blocks = np.zeros((-(-n // k), k), dtype=np.complex128)
    blocks.reshape(-1)[:n] = coeffs
    zt = np.empty((k, len(z)), dtype=np.complex128)
    zt[0] = 1.0
    zt[1:] = z
    np.cumprod(zt, axis=0, out=zt)
    zf = zt.view(np.float64)
    table = blocks.real
    if np.any(coeffs.imag):
        table = np.concatenate([blocks.real, blocks.imag])

    def block_sums(rows, powers):
        f = np.einsum("bk,kn->bn", rows, powers).view(np.complex128)
        if len(rows) == len(blocks):
            return f
        re, im = f[: len(blocks)], f[len(blocks):]
        return (re.real - im.imag) + 1j * (re.imag + im.real)

    vals = block_sums(table, zf)
    ders = block_sums(table[:, 1:] * np.arange(1, k), zf[:-1])
    sums = np.einsum("bk,kn->bn", np.abs(blocks), np.abs(zt))
    y = zt[-1] * z
    dy = k * zt[-1]
    p, dp, s = vals[-1], ders[-1], sums[-1]
    for b in range(len(blocks) - 2, -1, -1):
        dp = dp * y + p * dy + ders[b]
        p = p * y + vals[b]
        s = s * np.abs(y) + sums[b]
    return p, dp, s


# moduli on both sides of 1, plus 3, where the powers of the longer
# vectors overflow
_SKIP_POINTS = np.array([r * np.exp(1j * a)
                         for r in (0.5, 0.97, 1.0, 1.03, 1.1, 3.0)
                         for a in (0.1, 1.3, 2.9, -2.2)])


def _universal_step4_coeffs():
    state = initial_state()
    for r in ("3", "4", "3", "6/5"):
        state = step(state, TargetMeasure.of(r))
    return state.P.coeffs


def _sparse_vectors():
    rng = np.random.default_rng(5)
    dense = rng.normal(size=501) + 1j * rng.normal(size=501)
    ends = np.zeros(1000, dtype=complex)
    ends[0], ends[-1] = 1.0, 2.0 - 1.0j
    leading = rng.normal(size=601) + 1j * rng.normal(size=601)
    leading[:300] = 0.0
    return {
        "lacunary_1088": lambda: section(Lacunary(2), 1088).coeffs,
        "universal_step4": _universal_step4_coeffs,
        "ends_only": lambda: ends,
        "leading_zero_blocks": lambda: leading,
        "dense": lambda: dense,
        # real coefficients take the real block sums
        "ones_2049": lambda: np.ones(2049, dtype=complex),
        "rational_640": lambda: section(parse_family("rational:1,1|1,-1"),
                                        640).coeffs,
    }


@pytest.mark.parametrize("name", list(_sparse_vectors()))
def test_horner_skips_only_empty_blocks(name):
    # skipping a block of zeros drops exact zeros, so every output is
    # bit-equal to summing all blocks wherever that sum is finite; past the
    # float range an empty block's 0 * inf would make the reference NaN
    c = _sparse_vectors()[name]()
    with np.errstate(over="ignore", invalid="ignore"):
        got = _horner(_horner_layout([c]), _SKIP_POINTS)
        ref = _horner_all_blocks(c, _SKIP_POINTS)
    for g, r in zip(got, ref):
        finite = np.isfinite(r)
        assert np.count_nonzero(finite) >= 20
        assert np.all(g[finite] == r[finite])


def test_real_coefficients_take_real_block_sums(monkeypatch):
    c = section(parse_family("rational:1,1|1,-1"), 640).coeffs
    layout = _horner_layout([c])
    assert layout.vals.dtype == layout.ders.dtype == np.float64
    tilted = c.copy()
    tilted[17] += 1e-300j
    tilted_layout = _horner_layout([tilted])
    rows = layout.vals.shape[1]
    assert rows == layout.mags.shape[1]
    assert tilted_layout.vals.shape[1] == 2 * tilted_layout.mags.shape[1]
    # a complex layout stacks the real rows over the imaginary rows
    assert tilted_layout.vals.dtype == tilted_layout.ders.dtype == np.float64
    assert tilted_layout.vals.shape[1] == 2 * rows
    assert tilted_layout.vals[0, rows, 17] == 1e-300
    real_einsum = np.einsum
    operands = []

    def spy(subscripts, *ops, **kwargs):
        operands.append([op.dtype for op in ops])
        return real_einsum(subscripts, *ops, **kwargs)

    monkeypatch.setattr(series.np, "einsum", spy)
    _horner(layout, _SKIP_POINTS)
    # the value, derivative and |.|-sum, all on float64 operands
    assert len(operands) == 3
    assert all(dt == np.float64 for ops in operands for dt in ops)
    # one imaginary part still leaves no complex einsum
    operands.clear()
    _horner(tilted_layout, _SKIP_POINTS)
    assert len(operands) == 3
    assert all(dt == np.float64 for ops in operands for dt in ops)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _pure_cases():
    vectors = _sparse_vectors()
    return {"real": vectors["rational_640"], "complex": vectors["dense"],
            "universal": vectors["universal_step4"]}


def _points(rng, m):
    return (rng.uniform(0.5, 1.05, m)
            * np.exp(1j * rng.uniform(-np.pi, np.pi, m)))


@pytest.mark.parametrize("name", list(_pure_cases()))
def test_horner_is_a_pure_function_of_each_point(name):
    # a point's value, derivative and sum keep their bits whatever other
    # points share the call, a lone point included
    layout = _horner_layout([_pure_cases()[name]()])
    rng = np.random.default_rng(12)
    z = _points(rng, 40)
    whole = _horner(layout, z)
    for size in (1, 2, 3, 17, 40):
        for _ in range(3):
            idx = rng.choice(40, size=size, replace=False)
            assert _bits(*_horner(layout, z[idx])) == _bits(
                *(out[idx] for out in whole))


@pytest.mark.parametrize("lengths, cplx", [
    ((256, 257, 270, 288), True), ((256, 257, 270, 288), False),
    ((2, 3, 3), True), ((4, 6, 8), False)])
def test_stacked_layouts_keep_each_vectors_bits(lengths, cplx):
    # vectors of one block length with different lengths and live blocks,
    # down to blocks of one coefficient: row t of a call on the stacked
    # layout, zero-padded to the longest row, matches a call on the
    # vector's own one-vector layout bit for bit
    rng = np.random.default_rng(13)
    k = math.isqrt(lengths[0])
    vectors = []
    for n in lengths:
        c = rng.normal(size=n) + 1j * rng.normal(size=n) * cplx
        if n // k >= 3:
            c[rng.integers(1, n // k - 1) * k + np.arange(k)] = 0.0
        c[-1] = 1.0 + 0.5j * cplx
        vectors.append(c)
    assert {_layout_key(c) for c in vectors} == {(k, cplx)}
    stack = _horner_layout(vectors)
    assert stack.vals.shape[0] == len(vectors)
    counts = (1, 7, 40, 2)[: len(vectors)]
    z = np.zeros((len(vectors), max(counts)), dtype=complex)
    rows = [_points(rng, m) for m in counts]
    for t, w in enumerate(rows):
        z[t, : len(w)] = w
    outs = _horner(stack, z)
    for t, (c, w) in enumerate(zip(vectors, rows)):
        assert _bits(*_horner(_horner_layout([c]), w)) == _bits(
            *(out[t, : len(w)] for out in outs))


@pytest.mark.parametrize("cplx", [True, False])
def test_ragged_points_keep_each_vectors_bits(cplx):
    # points spread over the vectors of a stack, in runs of any length or
    # none, keep the bits of a call on each vector's own one-vector layout;
    # a one-vector layout takes its points as they are
    rng = np.random.default_rng(14)
    vectors = []
    for n in (256, 257, 270, 288, 280):
        c = rng.normal(size=n) + 1j * rng.normal(size=n) * cplx
        c[-1] = 1.0
        vectors.append(c)
    stack = _horner_layout(vectors)
    T = len(vectors)
    cases = {"random": np.sort(rng.integers(0, T, 30)),
             "no points on 0, 2, 4": np.repeat([1, 3], [6, 9]),
             "one point per row": np.arange(T),
             "one point": np.array([4])}
    for name, tr in cases.items():
        w = _points(rng, len(tr))
        got = _horner_rows(stack, tr, w)
        for t in np.unique(tr):
            at = tr == t
            assert _bits(*_horner(_horner_layout([vectors[t]]), w[at])) == \
                _bits(*(out[at] for out in got)), (name, t)
    lone = _horner_layout([vectors[2]])
    w = _points(rng, 9)
    assert _bits(*_horner_rows(lone, np.zeros(9, dtype=int), w)) == _bits(
        *_horner(lone, w))


@pytest.mark.parametrize("cplx", [True, False])
def test_vectors_without_points_keep_the_stacks_layout(monkeypatch, cplx):
    # a vector with no point gets a padding row in the table, so the
    # kernel runs on the stack's own layout, never on a row subset of it
    rng = np.random.default_rng(15)
    vectors = [rng.normal(size=257) + 1j * rng.normal(size=257) * cplx
               for _ in range(5)]
    stack = _horner_layout(vectors)
    seen = []
    real = series._horner
    monkeypatch.setattr(series, "_horner",
                        lambda layout, z: (seen.append((layout, z.shape)),
                                           real(layout, z))[1])
    tr = np.repeat([0, 2, 3], 4)
    w = _points(rng, len(tr))
    got = series._horner_rows(stack, tr, w)
    assert len(seen) == 1 and seen[0][0] is stack
    assert seen[0][1] == (5, 4)
    for t in (0, 2, 3):
        at = tr == t
        assert _bits(*real(_horner_layout([vectors[t]]), w[at])) == _bits(
            *(out[at] for out in got))


def test_horner_on_trailing_zero_blocks():
    # the padding leaves the last blocks empty; Horner starts from the last
    # one all the same, so the powers of z still reach the degree
    rng = np.random.default_rng(6)
    P = Polynomial(rng.normal(size=101) + 1j * rng.normal(size=101), 100)
    Q = P.padded(700)
    with np.errstate(over="ignore", invalid="ignore"):
        got = Q(_SKIP_POINTS)
        ref = _horner_all_blocks(Q.coeffs, _SKIP_POINTS)[0]
    assert np.all(np.isfinite(ref))
    assert np.all(got == ref)
    assert np.allclose(got, P(_SKIP_POINTS), rtol=1e-12)


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


def test_rational_reads_an_empty_numerator_as_zero():
    s = Rational([], [1, -1])
    assert s.numerator == (0j,)
    assert not np.any(s.values(6))


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


def test_off_circle_message_lists_plain_float_moduli():
    # a double zero at 1 splits into moduli about 1 -+ 5e-8; the message
    # shows them as Python floats, not as numpy scalar reprs
    with pytest.raises(DomainError) as info:
        parse_family("rational:1|1,-2,1")
    msg = str(info.value)
    assert "np.float64" not in msg
    listed = msg[msg.index("[") + 1: msg.index("]")].split(", ")
    moduli = sorted(float(m) for m in listed)
    assert len(moduli) == 2
    assert 1 - 1e-7 < moduli[0] < 1 - 1e-8 < 1 + 1e-8 < moduli[1] < 1 + 1e-7


def test_rational_real_denominator_with_complex_unit_roots():
    # 1 - 1.5 z + z^2 has zeros 0.75 +- 0.66i on the unit circle
    s = Rational([1], [1, -1.5, 1])
    assert np.allclose(s.values(3), [1, 1.5, 1.25, 0.375])


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
    assert list(carlson_indices("1/2", 64.0)) == list(carlson_indices(0.5, 64))
    for t, limit in (("x", 10), (None, 10), (0.5, "x"), (0.5, 10.5)):
        with pytest.raises(DomainError):
            carlson_indices(t, limit)


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


def test_explicit_and_section():
    s = Explicit([1, 2, 3])
    P = section(s, 5)
    assert P.formal_degree == 5
    assert np.array_equal(P.coeffs.real, [1, 2, 3, 0, 0, 0])
    P2 = section(s, 1)
    assert np.array_equal(P2.coeffs.real, [1, 2])
    with pytest.raises(DomainError):
        section(s, -1)


@pytest.mark.parametrize("n", ["x", math.nan, math.inf, 2.5, -1])
def test_section_horizon_must_be_a_natural_number(n):
    with pytest.raises(DomainError):
        section(parse_family("geometric"), n)


def test_section_takes_an_integral_float_horizon():
    P = section(parse_family("geometric"), 2.0)
    assert P.formal_degree == 2 and type(P.formal_degree) is int
    assert np.array_equal(P.coeffs, np.ones(3))


_STREAMS = [Geometric(), Lacunary(2), InverseOneMinusZN(3), FactorialGaps(),
            Rational([1, 1], [1, -1]), ZeroOne([0, 5, 99]), Carlson(0.5, 0.5),
            Carlson(0.5, 0.0), Explicit([1, 2, 3]),
            RandomSeries("gaussian_complex", 0)]


@pytest.mark.parametrize("stream", _STREAMS, ids=repr)
def test_streams_take_an_integral_float_horizon(stream):
    assert np.array_equal(stream.values(100.0), stream.values(100))
    assert np.array_equal(stream.log_abs(100.0), stream.log_abs(100))
    for bad in (100.5, "x"):
        with pytest.raises(DomainError):
            stream.values(bad)
        with pytest.raises(DomainError):
            stream.log_abs(bad)


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
    streams = [parse_family(text) for text in cases]
    for text, s in zip(cases, streams):
        s2 = parse_family(text)
        assert s2 == s and hash(s2) == hash(s)
        assert np.array_equal(s2.values(16), s.values(16))
    for i, s in enumerate(streams):
        for other in streams[i + 1:]:
            assert s != other


def test_parse_family_fraction_and_errors():
    s = parse_family("explicit:1/2,3/4")
    assert np.allclose(s.values(1).real, [0.5, 0.75])
    for bad in ("nope", "lacunary", "lacunary:2,3", "rational:1,2", "random:x"):
        with pytest.raises(DomainError):
            parse_family(bad)
    # constructors reject non-integral and out-of-range values instead of
    # truncating them
    for build in (lambda: Lacunary(2.9), lambda: InverseOneMinusZN(2.5),
                  lambda: ZeroOne([0.5, 1.7]), lambda: Carlson("a", 0.5),
                  lambda: Carlson(1.5, 0.5), lambda: Carlson(0.5, 1.0),
                  lambda: Explicit(["1/0"])):
        with pytest.raises(DomainError):
            build()


@pytest.mark.parametrize("call", [
    lambda: Polynomial([], -1),
    lambda: find_zeros(Polynomial([], -1)),
    lambda: Polynomial(np.array([], dtype=complex), -1)(1.0),
], ids=["construct", "find_zeros", "evaluate"])
def test_empty_polynomial_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
