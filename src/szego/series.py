"""Coefficient streams and polynomial sections for power-series families."""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ConvergenceError, DomainError

__all__ = [
    "Polynomial",
    "Series",
    "section",
    "reversed_companion",
    "Geometric",
    "Lacunary",
    "InverseOneMinusZN",
    "FactorialGaps",
    "Rational",
    "ZeroOne",
    "Carlson",
    "Explicit",
    "RandomSeries",
    "carlson_coeff",
    "carlson_indices",
    "parse_family",
    "series_from_descriptor",
    "load_explicit_csv",
]

#: ln of the largest double
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Dense coefficient vector with an explicit formal degree.

    ``coeffs[k]`` multiplies z^k. Trailing entries may be zero, so the actual
    degree can be smaller than ``formal_degree``; the gap counts as zeros at
    infinity downstream.
    """

    coeffs: np.ndarray
    formal_degree: int

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1:
            raise DomainError("coefficient array must be one-dimensional")
        if self.formal_degree != len(c) - 1:
            raise DomainError(
                f"formal_degree {self.formal_degree} does not match "
                f"{len(c)} coefficients"
            )
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite (no NaN or inf)")

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or arrays."""
        try:
            z = np.asarray(z, dtype=np.complex128)
        except (TypeError, ValueError):
            raise DomainError(f"expected complex points, got {z!r}") from None
        acc = _horner(_horner_layout([self.coeffs]), z)[0]
        return acc if acc.shape else complex(acc)

    def padded(self, formal_degree: int) -> "Polynomial":
        """Same polynomial viewed at a larger formal degree."""
        if formal_degree < self.formal_degree:
            raise DomainError("cannot shrink the formal degree")
        out = np.zeros(formal_degree + 1, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return Polynomial(out, formal_degree)


@dataclass(frozen=True, eq=False)
class _HornerLayout:
    """A stack of T >= 1 coefficient vectors cut into blocks for `_horner`.

    Block b holds coefficients b k .. b k + k - 1, with k = floor(sqrt(n))
    for vectors of length n, all of one block length, and zero padding up
    to the longest vector. A block is stored when it holds a nonzero
    coefficient in any vector; the top block is always stored because
    Horner starts from it. The tables hold one vector each along their
    leading axis. Each vector's stored blocks and their derivative-weighted
    copies are float64 rows: one row per stored block when no coefficient
    has an imaginary part, and otherwise the real parts of the stored
    blocks over their imaginary parts, two rows per stored block.
    """

    k: int
    #: live[b] tells whether block b is stored
    live: tuple[bool, ...]
    #: (T, rows, k): the stored blocks, in order (real rows over imaginary
    #: rows if complex)
    vals: np.ndarray
    #: ``vals`` times the derivative weights 1..k-1, first column dropped
    ders: np.ndarray
    #: (T, blocks, k): |.| of the stored blocks
    mags: np.ndarray


def _layout_key(coeffs: np.ndarray) -> tuple[int, bool]:
    """The block length and the kind (complex or not) of a vector's layout:
    vectors of one key share one `_horner_layout`."""
    return math.isqrt(len(coeffs)), bool(np.any(coeffs.imag))


def _horner_layout(vectors) -> _HornerLayout:
    """The stacked layout of vectors of one `_layout_key`.

    A shorter vector is padded with zero blocks, at its top too. A zero row
    adds exact zeros, and Horner from a zero top block reaches the vector's
    own top block with the value 0 y + top = top, so each vector's row
    keeps the bits of its own one-vector layout.
    """
    k, cplx = _layout_key(vectors[0])
    n = max(len(c) for c in vectors)
    blocks = np.zeros((len(vectors), -(-n // k), k),
                      dtype=np.complex128 if cplx else np.float64)
    flat = blocks.reshape(len(vectors), -1)
    for row, c in zip(flat, vectors):
        row[: len(c)] = c if cplx else c.real
    live = np.any(blocks != 0, axis=(0, 2))
    live[-1] = True
    blocks = blocks[:, live]
    vals = (np.concatenate([blocks.real, blocks.imag], axis=1) if cplx
            else blocks)
    return _HornerLayout(k, tuple(live.tolist()), vals,
                         vals[..., 1:] * np.arange(1, k), np.abs(blocks))


def _block_sums(table: np.ndarray, zt: np.ndarray, nb: int) -> np.ndarray:
    """sum_j table[t, r, j] zt[t, j] for each of the nb live blocks r of each
    vector t, as complex rows indexed [r, t].

    ``zt`` is the float view of the (k, T, m) complex powers, so one real
    einsum gives a times each power for every real row a. A complex table
    has 2 nb rows: its imaginary rows b give b z^j, which is combined with
    the real rows' a z^j as re = Re(a z^j) - Im(b z^j),
    im = Im(a z^j) + Re(b z^j).
    """
    f = np.einsum("tbk,ktn->btn", table, zt)
    if len(f) == nb:
        return f.view(np.complex128)
    f = f.reshape(2, nb, f.shape[1], -1, 2)
    out = np.empty(f.shape[1:], dtype=np.float64)
    np.subtract(f[0, ..., 0], f[1, ..., 1], out=out[..., 0])
    np.add(f[0, ..., 1], f[1, ..., 0], out=out[..., 1])
    return out.view(np.complex128)[..., 0]


def _horner(layout: _HornerLayout, z: np.ndarray):
    """Value, derivative, and same-degree absolute-value sum at |z|.

    Blocked Horner over a `_horner_layout`: every live block is evaluated at
    every point at once against the powers z^0..z^(k-1), and Horner then
    runs in y = z^k over all the blocks, about 2 sqrt(d) Python steps
    instead of d + 1. An empty block adds exact zeros, so it is skipped, and
    the einsum work scales with the number of blocks that hold a nonzero
    coefficient: a sparse section such as a universal step costs a fraction
    of a dense one. The powers are built as a (k, T, m) table for m points
    on each of T vectors, whose float view is (k, T, 2 m), and every block
    sum is the same ``np.einsum("tbk,ktn->btn", ...)`` on float64 operands:
    real coefficient rows against that view for the value and the
    derivative, |.| rows against |z|^j for the sum. A complex layout's
    imaginary rows take a second real product per term, so no complex
    einsum is made. The einsum runs without ``optimize``, so no BLAS call
    is made and the result does not depend on any thread count.

    A layout of one vector takes z of any shape; a stack of T vectors takes
    z of shape (T, m), row t evaluated on vector t (`_horner_rows` takes
    ragged points instead). Every output is a pure function of its point
    and its vector: each column of the einsum output sums its k terms in
    order, but an output of one column takes another inner loop with
    another summation order, so a lone point is evaluated as a pair.
    """
    shape = z.shape
    vals, ders, mags = layout.vals, layout.ders, layout.mags
    z = z.reshape(len(vals), -1)
    lone = z.shape[1] == 1
    if lone:
        z = np.concatenate((z, z), axis=1)
    k = layout.k
    zt = np.empty((k,) + z.shape, dtype=np.complex128)
    zt[0] = 1.0
    zt[1:] = z
    np.cumprod(zt, axis=0, out=zt)
    # row r of each table: live block r of P, of P' and of the |.|-sum at z
    zf = zt.view(np.float64)
    nb = mags.shape[1]
    vals = _block_sums(vals, zf, nb)
    ders = _block_sums(ders, zf[:-1], nb)
    sums = np.einsum("tbk,ktn->btn", mags, np.abs(zt))
    y = zt[-1] * z
    dy = k * zt[-1]
    ay = np.abs(y)
    r = nb - 1
    p, dp, s = vals[r], ders[r], sums[r]
    for b in range(len(layout.live) - 2, -1, -1):
        dp *= y
        dp += p * dy
        p *= y
        s *= ay
        if layout.live[b]:
            r -= 1
            dp += ders[r]
            p += vals[r]
            s += sums[r]
    if lone:
        p, dp, s = p[:, :1], dp[:, :1], s[:, :1]
    return p.reshape(shape), dp.reshape(shape), s.reshape(shape)


def _horner_rows(layout: _HornerLayout, tr: np.ndarray, z: np.ndarray):
    """`_horner` at the points z, z[i] on vector tr[i], tr nondecreasing.

    A layout of one vector takes z as it is: the scattered path gives it
    the same bits, but its scatter into a padded table costs a low-degree
    solve up to a fifth of its time. Otherwise each vector's points fill
    one row of a zero-padded (T, m) table, the rows of vectors with no
    point dropped, so the whole stack takes one `_horner` call.
    """
    if len(layout.vals) == 1:
        return _horner(layout, z)
    counts = np.bincount(tr, minlength=len(layout.vals))
    rows = np.flatnonzero(counts)
    if len(rows) < len(counts):
        # taken on the block-major view, the subset keeps the block-major
        # order of `_horner_layout`, on which the einsums run fastest
        layout = _HornerLayout(layout.k, layout.live, *(
            np.take(a.swapaxes(0, 1), rows, axis=1).swapaxes(0, 1)
            for a in (layout.vals, layout.ders, layout.mags)))
    row = (np.cumsum(counts > 0) - 1)[tr]
    col = np.arange(len(tr)) - (np.cumsum(counts) - counts)[tr]
    table = np.zeros((len(rows), int(counts.max())), dtype=np.complex128)
    table[row, col] = z
    return tuple(out[row, col] for out in _horner(layout, table))


def _circle_values(coeffs: np.ndarray, nodes: int) -> np.ndarray:
    """P(exp(-2 pi i j / nodes)) for j = 0..nodes-1 by one FFT.

    Coefficients are folded modulo ``nodes`` first (z^k = z^(k mod nodes)
    at every node), so any node count works for any degree.
    """
    folded = np.zeros(-(-len(coeffs) // nodes) * nodes, dtype=np.complex128)
    folded[:len(coeffs)] = coeffs
    return np.fft.fft(folded.reshape(-1, nodes).sum(axis=0))


#: cap on Newton steps per radius; a certified start needs about 4
_MAX_NEWTON = 100


# one table per power of two, so the cache never holds more than ~60
@functools.lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1) for k in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(n: int) -> np.ndarray:
    """Read-only ln k! for k = 0..n at least, in power-of-two sized tables."""
    return _log_factorial_table(1 << max(n, 1).bit_length())


def _outer_radius(b: np.ndarray, m: int) -> float:
    """Positive root x of b_n x^n = sum_{j<m} C(n-j-1, m-j-1) b_j x^j.

    ``b`` holds coefficient magnitudes and 1 <= m <= n, or m = n = 0. The
    root is +inf when b_n = 0 and 0 when no b_j with j < m is positive.
    In u = ln x the root solves psi(u) = 0 with

        psi(u) = ln sum_j exp(a_j - g_j u),
        a_j = ln(C b_j / b_n),  g_j = n - j,

    which is convex and strictly decreasing. Each term alone balances the
    left side at u_j = a_j / g_j; the largest u_j is a certified start on
    the left of the root, and plain Newton from it climbs monotonically
    onto the root without overshooting. So every exponent a_j - g_j u stays
    <= 0 and the sum s = e^psi >= 1: one unshifted ``exp`` per step gives
    both psi and psi' without overflow or underflow of s. Stops once a step
    falls below 1e-14 relative to max(1, |u|), leaving about 1e-13 in ln x;
    a root outside double range raises ConvergenceError.
    """
    n = len(b) - 1
    if b[n] == 0:
        return math.inf
    js = np.flatnonzero(b[:m])
    if len(js) == 0:
        return 0.0
    lf = _log_factorials(n)
    a = (np.log(b[js]) + lf[n - 1 - js] - lf[m - 1 - js] - lf[n - m]
         - math.log(b[n]))
    g = float(n) - js
    u = float((a / g).max())
    for _ in range(_MAX_NEWTON):
        w = np.exp(a - g * u)
        s = float(w.sum())
        step = math.log(s) * s / float(w.dot(g))
        u += step
        if step <= 1e-14 * max(1.0, abs(u)):
            break
    if abs(u) > _LOG_MAX:
        raise ConvergenceError("bound equation root exceeds double range")
    return math.exp(u)


class Series:
    """A deterministic coefficient stream a_0, a_1, a_2, ...

    Two streams with identical descriptors yield identical coefficients for
    every index. Subclasses implement one family each; their constructors
    accept both Python values and the text arguments of :func:`parse_family`.
    """

    kind = "abstract"
    #: parse_family passes each argument as a comma list, lists split by "|"
    list_args = False

    def values(self, n: int) -> np.ndarray:
        """Coefficients a_0..a_n as complex128.

        May under- or overflow for families with huge dynamic range; use
        :meth:`log_abs` when only magnitudes matter.
        """
        raise NotImplementedError

    def log_abs(self, n: int) -> np.ndarray:
        """ln|a_k| for k = 0..n, with -inf at exact zeros.

        Overridden by families whose float coefficients degrade first.
        """
        v = self.values(n)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(v))

    def params(self) -> dict:
        return {}

    def descriptor(self) -> dict:
        return {"kind": self.kind, **self.params()}

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other):
        return isinstance(other, Series) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))


class _IndicatorSeries(Series):
    """Coefficients equal to 1 on an index set and 0 elsewhere."""

    def indices(self, n: int) -> np.ndarray:
        """Sorted indices k <= n with a_k = 1."""
        raise NotImplementedError

    def values(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        v = np.zeros(n + 1, dtype=np.complex128)
        v[self.indices(n)] = 1.0
        return v


class Geometric(Series):
    kind = "geometric"

    def values(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        return np.ones(n + 1, dtype=np.complex128)


class Lacunary(_IndicatorSeries):
    """Ones at the powers q^0, q^1, q^2, ... of an integer gap ratio."""

    kind = "lacunary"

    def __init__(self, q: int):
        q = _integer(q)
        if q < 2:
            raise DomainError("lacunary gap ratio q must be an integer >= 2")
        self.q = q

    def indices(self, n: int) -> np.ndarray:
        out = []
        p = 1
        while p <= n:
            out.append(p)
            p *= self.q
        return np.array(out, dtype=np.intp)

    def params(self) -> dict:
        return {"q": self.q}


class InverseOneMinusZN(_IndicatorSeries):
    """Expansion of 1/(1 - z^N): ones at every multiple of N."""

    kind = "inverse_one_minus_zN"

    def __init__(self, N: int):
        N = _integer(N)
        if N < 1:
            raise DomainError("N must be a positive integer")
        self.N = N

    def indices(self, n: int) -> np.ndarray:
        return np.arange(0, n + 1, self.N, dtype=np.intp)

    def params(self) -> dict:
        return {"N": self.N}


class FactorialGaps(_IndicatorSeries):
    """Ones exactly at the factorials 1, 2, 6, 24, ..."""

    kind = "factorial_gaps"

    def indices(self, n: int) -> np.ndarray:
        return carlson_indices(1.0, n)


class Rational(Series):
    """Taylor coefficients of numerator(z)/denominator(z).

    The denominator must have a nonzero constant term and all of its roots on
    the unit circle, which pins the radius of convergence at 1.
    """

    kind = "rational"
    list_args = True

    def __init__(self, numerator, denominator):
        num = [_complex(c) for c in numerator]
        den = [_complex(c) for c in denominator]
        if not den or den[0] == 0:
            raise DomainError("denominator needs a nonzero constant term")
        if not num:
            num = [0j]
        self.numerator = tuple(num)
        self.denominator = tuple(den)
        self._check_denominator_roots()

    def _check_denominator_roots(self):
        den = np.array(self.denominator, dtype=np.complex128)
        deg = int(np.max(np.nonzero(np.abs(den))[0]))
        if deg == 0:
            return
        from .roots import find_zeros

        zs = find_zeros(Polynomial(den[: deg + 1], deg))
        moduli = np.abs(zs.finite_zeros)
        if np.any(np.abs(moduli - 1.0) > 1e-8):
            raise DomainError(
                "denominator roots must lie on the unit circle; "
                f"got moduli {sorted(moduli.tolist())}"
            )

    def values(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        a = np.zeros(n + 1, dtype=np.complex128)
        q = self.denominator
        for k in range(n + 1):
            s = self.numerator[k] if k < len(self.numerator) else 0j
            for j in range(1, min(k, len(q) - 1) + 1):
                s -= q[j] * a[k - j]
            a[k] = s / q[0]
        return a

    def params(self) -> dict:
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "denominator": [[c.real, c.imag] for c in self.denominator],
        }


class ZeroOne(_IndicatorSeries):
    """Ones on an explicitly listed index set."""

    kind = "zero_one"
    list_args = True

    def __init__(self, indices):
        idx = sorted({_integer(i) for i in indices})
        if not idx or idx[0] < 0:
            raise DomainError("index set must be nonempty with nonnegative entries")
        self.index_set = tuple(idx)

    def indices(self, n: int) -> np.ndarray:
        arr = np.array(self.index_set, dtype=np.intp)
        return arr[arr <= n]

    def params(self) -> dict:
        return {"indices": list(self.index_set)}


class Carlson(Series):
    """Coefficient 1 on a sparse index sequence, g^n elsewhere.

    The sequence is chosen so that consecutive terms have ratio tending to
    1/(1-t); these streams realize prescribed window statistics (index t,
    gauge g) in the gauge module's estimators.
    """

    kind = "carlson"

    def __init__(self, t: float, g: float):
        t = float(_exact(t))
        g = float(_exact(g))
        if not 0 < t <= 1:
            raise DomainError("t must satisfy 0 < t <= 1")
        if not 0 <= g < 1:
            raise DomainError("g must satisfy 0 <= g < 1")
        self.t = t
        self.g = g

    def values(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        k = np.arange(n + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.power(self.g, k)
        v[0] = 1.0
        v = v.astype(np.complex128)
        v[carlson_indices(self.t, n)] = 1.0
        return v

    def log_abs(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        k = np.arange(n + 1, dtype=np.float64)
        if self.g == 0.0:
            out = np.full(n + 1, -np.inf)
        else:
            out = k * math.log(self.g)
        out[0] = 0.0
        out[carlson_indices(self.t, n)] = 0.0
        return out

    def params(self) -> dict:
        return {"t": self.t, "g": self.g}


class Explicit(Series):
    """A finite coefficient list, implicitly zero beyond its end."""

    kind = "explicit"
    list_args = True

    def __init__(self, coeffs):
        cs = [_complex(c) for c in coeffs]
        if not cs:
            raise DomainError("explicit coefficient list must be nonempty")
        self.coeffs = tuple(cs)

    def values(self, n: int) -> np.ndarray:
        n = _check_horizon(n)
        v = np.zeros(n + 1, dtype=np.complex128)
        m = min(n + 1, len(self.coeffs))
        v[:m] = self.coeffs[:m]
        return v

    def params(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}


class RandomSeries(Series):
    """One sampled coefficient path of a random ensemble.

    Deterministic in (ensemble descriptor, seed); the same object re-queried
    at larger horizons extends the same path.
    """

    kind = "random"

    def __init__(self, ensemble, seed: int):
        from .ensembles import as_ensemble

        self.ensemble = as_ensemble(ensemble)
        self.seed = _integer(seed)

    def values(self, n: int) -> np.ndarray:
        from .ensembles import sample_coeffs

        return sample_coeffs(self.ensemble, n, self.seed)

    def log_abs(self, n: int) -> np.ndarray:
        from .ensembles import sample_log_abs

        return sample_log_abs(self.ensemble, n, self.seed)

    def params(self) -> dict:
        return {"ensemble": self.ensemble.descriptor(), "seed": self.seed}


def _check_horizon(n) -> int:
    n = _integer(n)
    if n < 0:
        raise DomainError("coefficient horizon must be a natural number")
    return n


def _exact(x) -> Fraction:
    """A real number given as a number or as text such as ``3/2``, exactly."""
    try:
        return Fraction(x if isinstance(x, (str, numbers.Rational)) else float(x))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"expected a real number, got {x!r}") from None


def _integer(x) -> int:
    """An integral value; 2.5 or ``"x"`` raise DomainError instead of truncating."""
    if type(x) is int:  # skips the Fraction: each radius solve passes m here
        return x
    v = _exact(x)
    if v.denominator != 1:
        raise DomainError(f"expected an integer, got {x!r}")
    return int(v)


def _complex(x) -> complex:
    """A coefficient given as a number, an ``[re, im]`` pair or text like ``1/2``."""
    try:
        if isinstance(x, str):
            return complex(Fraction(x)) if "/" in x else complex(x)
        if isinstance(x, (list, tuple)):
            re_part, im_part = x
            return complex(re_part, im_part)
        return complex(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError(f"expected a number, got {x!r}") from None


def carlson_indices(t: float, limit: int) -> np.ndarray:
    """The sparse index sequence used by the carlson family, up to ``limit``.

    For t < 1 the rule is m_1 = 2, m_{k+1} = round(m_k/(1-t)), bumped by one
    whenever rounding would stall, so the sequence is strictly increasing and
    m_k/m_{k+1} -> 1-t. For t = 1 it is the factorials 1, 2, 6, 24, ...
    """
    t, limit = float(_exact(t)), _integer(limit)
    if not 0 < t <= 1:
        raise DomainError("t must satisfy 0 < t <= 1")
    out = []
    if t == 1.0:
        m, k = 1, 1
        while m <= limit:
            out.append(m)
            k += 1
            m *= k
    else:
        m = 2
        while m <= limit:
            out.append(m)
            m = max(round(m / (1.0 - t)), m + 1)
    return np.array(out, dtype=np.intp)


def carlson_coeff(t: float, g: float, n: int) -> float:
    """Single coefficient of the carlson family: 1 on the sequence, g^n off it."""
    s = Carlson(t, g)
    n = _check_horizon(n)
    if n in carlson_indices(s.t, n):
        return 1.0
    return s.g ** n


def section(stream: Series, n: int) -> Polynomial:
    """The degree-n formal section: coefficients a_0..a_n of the stream."""
    n = _check_horizon(n)
    return Polynomial(stream.values(n), n)


def reversed_companion(P: Polynomial) -> Polynomial:
    """Coefficient reversal z^n P(1/z); swaps zeros with reciprocals, 0 with infinity."""
    return Polynomial(P.coeffs[::-1].copy(), P.formal_degree)


_FAMILIES = {cls.kind: cls for cls in (
    Geometric, Lacunary, InverseOneMinusZN, FactorialGaps, Rational, ZeroOne,
    Carlson, Explicit, RandomSeries)}


def _family(kind) -> type[Series]:
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise DomainError(f"unknown family {kind!r}")
    return _FAMILIES[kind]


def _construct(cls: type[Series], *args, **kwargs) -> Series:
    try:
        inspect.signature(cls).bind(*args, **kwargs)
    except TypeError as exc:
        raise DomainError(f"family {cls.kind!r}: {exc}") from None
    return cls(*args, **kwargs)


def parse_family(text: str) -> Series:
    """Build a Series from a CLI descriptor like ``lacunary:2``.

    Grammar: ``name`` or ``name:arg1,arg2``; the families that take lists
    (zero_one, explicit, rational) read each list as comma-separated items,
    and rational separates numerator and denominator with ``|``; the random
    family takes an ensemble descriptor and a seed, e.g.
    ``random:bernoulli(0.5),7``.
    """
    name, _, argtext = text.partition(":")
    cls = _family(name.strip())
    if cls.list_args:
        args = [[a for a in part.split(",") if a.strip()]
                for part in argtext.split("|")]
    else:
        args = [a for a in argtext.split(",") if a.strip()]
    return _construct(cls, *args)


def series_from_descriptor(d: dict) -> Series:
    """Inverse of Series.descriptor() for JSON round-trips."""
    if not isinstance(d, dict):
        raise DomainError(f"a series descriptor is a dict, got {d!r}")
    d = dict(d)
    return _construct(_family(d.pop("kind", None)), **d)


def load_explicit_csv(path) -> Series:
    """Read an explicit coefficient list from CSV lines ``re,im``."""
    coeffs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                re_part = float(parts[0])
                im_part = float(parts[1]) if len(parts) > 1 else 0.0
            except ValueError:
                if lineno == 0:
                    continue  # tolerate a header row
                raise DomainError(f"bad coefficient line {lineno + 1}: {line!r}")
            coeffs.append(complex(re_part, im_part))
    return Explicit(coeffs)
