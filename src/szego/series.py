"""Coefficient streams and polynomial sections for power-series families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DomainError

__all__ = [
    "Polynomial",
    "Series",
    "section",
    "reversed_companion",
    "carlson_coeff",
    "carlson_indices",
    "geometric",
    "lacunary",
    "inverse_one_minus_zN",
    "factorial_gaps",
    "rational",
    "zero_one",
    "carlson",
    "explicit",
    "random_series",
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
        z = np.asarray(z, dtype=np.complex128)
        acc = np.full(z.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def padded(self, formal_degree: int) -> "Polynomial":
        """Same polynomial viewed at a larger formal degree."""
        if formal_degree < self.formal_degree:
            raise DomainError("cannot shrink the formal degree")
        out = np.zeros(formal_degree + 1, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return Polynomial(out, formal_degree)


class Series:
    """A deterministic coefficient stream a_0, a_1, a_2, ...

    Two streams with identical descriptors yield identical coefficients for
    every index. Subclasses implement one family each; construct instances
    through the module-level factory functions.
    """

    kind = "abstract"
    #: families declared to have radius of convergence exactly 1
    radius_one = False

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
    radius_one = True

    def values(self, n: int) -> np.ndarray:
        _check_horizon(n)
        return np.ones(n + 1, dtype=np.complex128)

    def log_abs(self, n: int) -> np.ndarray:
        _check_horizon(n)
        return np.zeros(n + 1)


class Lacunary(_IndicatorSeries):
    """Ones at the powers q^0, q^1, q^2, ... of an integer gap ratio."""

    kind = "lacunary"
    radius_one = True

    def __init__(self, q: int):
        q = int(q)
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
    radius_one = True

    def __init__(self, N: int):
        N = int(N)
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
    radius_one = True

    def indices(self, n: int) -> np.ndarray:
        out = []
        m, k = 1, 1
        while m <= n:
            out.append(m)
            k += 1
            m *= k
        return np.array(sorted(set(out)), dtype=np.intp)

    def params(self) -> dict:
        return {}


class Rational(Series):
    """Taylor coefficients of numerator(z)/denominator(z).

    The denominator must have a nonzero constant term and all of its roots on
    the unit circle, which pins the radius of convergence at 1.
    """

    kind = "rational"
    radius_one = True

    def __init__(self, numerator, denominator, _skip_root_check: bool = False):
        num = [complex(c) for c in numerator]
        den = [complex(c) for c in denominator]
        if not den or den[0] == 0:
            raise DomainError("denominator needs a nonzero constant term")
        if not num:
            num = [0j]
        self.numerator = tuple(num)
        self.denominator = tuple(den)
        if not _skip_root_check:
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

    def __init__(self, index_set):
        idx = sorted({int(i) for i in index_set})
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
    radius_one = True

    def __init__(self, t: float, g: float):
        t = float(t)
        g = float(g)
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

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
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
        self.seed = int(seed)

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


def geometric() -> Series:
    return Geometric()


def lacunary(q: int) -> Series:
    return Lacunary(q)


def inverse_one_minus_zN(N: int) -> Series:
    return InverseOneMinusZN(N)


def factorial_gaps() -> Series:
    return FactorialGaps()


def rational(numerator, denominator) -> Series:
    return Rational(numerator, denominator)


def zero_one(index_set) -> Series:
    return ZeroOne(index_set)


def carlson(t: float, g: float) -> Series:
    return Carlson(t, g)


def explicit(coeffs) -> Series:
    return Explicit(coeffs)


def random_series(ensemble, seed: int) -> Series:
    return RandomSeries(ensemble, seed)


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
    t = float(t)
    g = float(g)
    if not 0 < t <= 1:
        raise DomainError("t must satisfy 0 < t <= 1")
    if not 0 <= g < 1:
        raise DomainError("g must satisfy 0 <= g < 1")
    _check_horizon(n)
    if n in carlson_indices(t, n):
        return 1.0
    return float(g) ** int(n)


def section(stream: Series, n: int) -> Polynomial:
    """The degree-n formal section: coefficients a_0..a_n of the stream."""
    _check_horizon(n)
    return Polynomial(stream.values(n), int(n))


def reversed_companion(P: Polynomial) -> Polynomial:
    """Coefficient reversal z^n P(1/z); swaps zeros with reciprocals, 0 with infinity."""
    return Polynomial(P.coeffs[::-1].copy(), P.formal_degree)


_SIMPLE_FACTORIES = {
    "geometric": (geometric, ()),
    "lacunary": (lacunary, (int,)),
    "inverse_one_minus_zN": (inverse_one_minus_zN, (int,)),
    "factorial_gaps": (factorial_gaps, ()),
    "carlson": (carlson, (float, float)),
}


def _parse_number(text: str) -> complex:
    text = text.strip()
    if "/" in text:
        return complex(Fraction(text))
    return complex(text)


def parse_family(text: str) -> Series:
    """Build a Series from a CLI descriptor like ``lacunary:2``.

    Grammar: ``name`` or ``name:arg1,arg2``; the rational family separates
    numerator and denominator lists with ``|``; the random family takes an
    ensemble descriptor and a seed, e.g. ``random:bernoulli(0.5),7``.
    """
    name, _, argtext = text.partition(":")
    name = name.strip()
    args = [a for a in argtext.split(",") if a.strip()] if argtext else []
    if name in _SIMPLE_FACTORIES:
        factory, sig = _SIMPLE_FACTORIES[name]
        if len(args) != len(sig):
            raise DomainError(f"family {name!r} takes {len(sig)} argument(s)")
        return factory(*(conv(a) for conv, a in zip(sig, args)))
    if name == "zero_one":
        if not args:
            raise DomainError("zero_one needs a comma-separated index list")
        return zero_one(int(a) for a in args)
    if name == "explicit":
        if not args:
            raise DomainError("explicit needs a comma-separated coefficient list")
        return explicit(_parse_number(a) for a in args)
    if name == "rational":
        num_text, sep, den_text = argtext.partition("|")
        if not sep:
            raise DomainError("rational syntax is rational:p0,p1,...|q0,q1,...")
        num = [_parse_number(a) for a in num_text.split(",") if a.strip()]
        den = [_parse_number(a) for a in den_text.split(",") if a.strip()]
        return rational(num, den)
    if name == "random":
        if len(args) != 2:
            raise DomainError("random syntax is random:<ensemble>,<seed>")
        return random_series(args[0].strip(), int(args[1]))
    raise DomainError(f"unknown family {name!r}")


def series_from_descriptor(d: dict) -> Series:
    """Inverse of Series.descriptor() for JSON round-trips."""
    d = dict(d)
    kind = d.pop("kind", None)
    if kind in _SIMPLE_FACTORIES:
        factory, _ = _SIMPLE_FACTORIES[kind]
        return factory(**d)
    if kind == "zero_one":
        return zero_one(d["indices"])
    if kind == "explicit":
        return explicit(complex(re, im) for re, im in d["coeffs"])
    if kind == "rational":
        return rational(
            [complex(re, im) for re, im in d["numerator"]],
            [complex(re, im) for re, im in d["denominator"]],
        )
    if kind == "random":
        return random_series(d["ensemble"], d["seed"])
    raise DomainError(f"unknown family kind {kind!r}")


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
    return explicit(coeffs)
