"""Coefficient streams and polynomial sections for power-series families."""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DomainError

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
        acc = _horner(self.coeffs, np.asarray(z, dtype=np.complex128))[0]
        return acc if acc.shape else complex(acc)

    def padded(self, formal_degree: int) -> "Polynomial":
        """Same polynomial viewed at a larger formal degree."""
        if formal_degree < self.formal_degree:
            raise DomainError("cannot shrink the formal degree")
        out = np.zeros(formal_degree + 1, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return Polynomial(out, formal_degree)


def _horner(coeffs: np.ndarray, z: np.ndarray):
    """Value, derivative, and same-degree absolute-value sum at |z|."""
    az = np.abs(z)
    p = np.full(z.shape, coeffs[-1])
    dp = np.zeros_like(p)
    s = np.full(z.shape, abs(coeffs[-1]))
    for ck in coeffs[-2::-1]:
        dp = dp * z + p
        p = p * z + ck
        s = s * az + abs(ck)
    return p, dp, s


def _circle_values(coeffs: np.ndarray, nodes: int) -> np.ndarray:
    """P(exp(-2 pi i j / nodes)) for j = 0..nodes-1 by one FFT.

    Coefficients are folded modulo ``nodes`` first (z^k = z^(k mod nodes)
    at every node), so any node count works for any degree.
    """
    folded = np.zeros(-(-len(coeffs) // nodes) * nodes, dtype=np.complex128)
    folded[:len(coeffs)] = coeffs
    return np.fft.fft(folded.reshape(-1, nodes).sum(axis=0))


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
        _check_horizon(n)
        v = np.zeros(n + 1, dtype=np.complex128)
        v[self.indices(n)] = 1.0
        return v

    def log_abs(self, n: int) -> np.ndarray:
        _check_horizon(n)
        out = np.full(n + 1, -np.inf)
        out[self.indices(n)] = 0.0
        return out


class Geometric(Series):
    kind = "geometric"

    def values(self, n: int) -> np.ndarray:
        _check_horizon(n)
        return np.ones(n + 1, dtype=np.complex128)

    def log_abs(self, n: int) -> np.ndarray:
        _check_horizon(n)
        return np.zeros(n + 1)


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

        zs = find_zeros(Polynomial(den[: deg + 1], deg), 1e-12)
        moduli = np.abs(zs.finite_zeros)
        if np.any(np.abs(moduli - 1.0) > 1e-8):
            raise DomainError(
                "denominator roots must lie on the unit circle; "
                f"got moduli {sorted(moduli)}"
            )

    def values(self, n: int) -> np.ndarray:
        _check_horizon(n)
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
        _check_horizon(n)
        k = np.arange(n + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.power(self.g, k)
        v[0] = 1.0
        v = v.astype(np.complex128)
        v[carlson_indices(self.t, n)] = 1.0
        return v

    def log_abs(self, n: int) -> np.ndarray:
        _check_horizon(n)
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
        _check_horizon(n)
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


def _check_horizon(n) -> None:
    if int(n) != n or n < 0:
        raise DomainError("coefficient horizon must be a natural number")


def _exact(x) -> Fraction:
    """A real number given as a number or as text such as ``3/2``, exactly."""
    try:
        return Fraction(x if isinstance(x, (str, numbers.Rational)) else float(x))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"expected a real number, got {x!r}") from None


def _integer(x) -> int:
    """An integral value; 2.5 or ``"x"`` raise DomainError instead of truncating."""
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
    _check_horizon(n)
    if n in carlson_indices(s.t, n):
        return 1.0
    return s.g ** int(n)


def section(stream: Series, n: int) -> Polynomial:
    """The degree-n formal section: coefficients a_0..a_n of the stream."""
    _check_horizon(n)
    return Polynomial(stream.values(n), int(n))


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
