"""Step-by-step construction of a series whose section measures visit targets.

Each step adds a block z^N * prod_j (1 - (z/r_j)^M) to the running
polynomial. N is large enough that the block dominates everything built so
far on the relevant disk, and M is large enough that the block's ring zeros
(M of them near each target radius r_j) swamp the bookkeeping junk. The
section at formal degree d_k then carries most of its zero mass near the
target radii, pushing its radial measure within 1/k of the k-th target.

Rational data (radii, gap ratios) is kept as exact fractions so the
combinatorial side conditions are decided without rounding; only the
disk-sup estimate and the final coefficients live in floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exceptions import (CoefficientOverflowError, DomainError,
                         VerificationError)
from .measures import RadialMeasure, levy_distance, radial_projection
from .roots import find_zeros
from .series import Polynomial, _circle_values, _exact, _integer

__all__ = [
    "RING_MARGIN",
    "TargetMeasure",
    "BuildState",
    "StepReport",
    "tau",
    "log_disk_sup",
    "choose_N",
    "choose_M",
    "initial_state",
    "step",
    "verify_step",
    "build_universal",
    "cycle_targets",
    "parse_targets",
]

#: guaranteed lower bound for |1 - (z/r)^M| on the ring-disk boundaries
RING_MARGIN = 3.0 - math.e


def _as_fraction(x) -> Fraction:
    try:
        f = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"cannot interpret {x!r} as an exact radius") from None
    return f.limit_denominator(10**12) if isinstance(x, float) else f


@dataclass(frozen=True)
class TargetMeasure:
    """Uniform atoms at exact radii r_1 < ... < r_m, each of weight 1/m."""

    radii: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.radii:
            raise DomainError("target measure needs at least one radius")
        if any(r <= 1 for r in self.radii):
            raise DomainError("target radii must exceed 1")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise DomainError("target radii must be strictly increasing")

    @classmethod
    def of(cls, *radii) -> TargetMeasure:
        return cls(tuple(_as_fraction(r) for r in radii))

    @property
    def m(self) -> int:
        return len(self.radii)

    def to_radial_measure(self) -> RadialMeasure:
        w = 1.0 / self.m
        return RadialMeasure(
            np.array([float(r) for r in self.radii]),
            np.full(self.m, w),
        )

    def descriptor(self) -> list[str]:
        return [str(r) for r in self.radii]


def tau(phi: TargetMeasure) -> Fraction:
    """Relative gap of the radii: min (r_j - r_{j-1}) / (r_j + r_{j-1}).

    Equals 1 for a single radius. The ring half-width r_j/M fits inside the
    gaps as soon as 1/M <= tau.
    """
    if phi.m == 1:
        return Fraction(1)
    return min((b - a) / (b + a) for a, b in zip(phi.radii, phi.radii[1:]))


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def log_disk_sup(P: Polynomial, radius: float) -> float:
    """ln of an upper estimate for sup |P| on the disk |z| <= radius.

    Maximum modulus principle reduces this to the circle. Two estimates are
    combined: the coefficient-sum cap sum |c_k| radius^k (always valid) and
    1.05 times the max over dense circle samples (valid because the sample
    count exceeds the polynomial degree enough that no dip between nodes
    can shave more than 5 percent). Both are computed in log space.
    """
    radius = float(_exact(radius))
    if radius <= 0:
        raise DomainError("radius must be positive")
    c = P.coeffs
    mags = np.abs(c)
    if not np.any(mags > 0):
        return -math.inf
    with np.errstate(divide="ignore"):
        L = np.log(mags) + np.arange(len(c)) * math.log(radius)
    top = float(np.max(L))
    cap = top + math.log(float(np.sum(np.exp(L - top))))
    deg = int(np.max(np.nonzero(mags)[0]))
    nodes = max(4096, _next_pow2(16 * (deg + 1)))
    nz = mags > 0
    scaled = np.zeros(len(c), dtype=np.complex128)
    scaled[nz] = (c[nz] / mags[nz]) * np.exp(L[nz] - top)
    vals = _circle_values(scaled, nodes)
    sampled = top + math.log(1.05 * float(np.max(np.abs(vals))))
    return min(cap, sampled)


def choose_N(phi: TargetMeasure, k: int, d_prev: int, log_A: float) -> int:
    """Smallest block shift N making the new block dominate the old sections.

    Requires N past the previous section index, N large enough that the
    central binomial of the ring count stays below (1 + 1/k)^N, and N large
    enough that ((r_1+1)/2)^N beats the old sup A against the worst-case
    ring margin loss of RING_MARGIN^m.
    """
    k, d_prev, log_A = _integer(k), _integer(d_prev), float(_exact(log_A))
    if k < 1:
        raise DomainError("step counter k must be at least 1")
    if d_prev < 0:
        raise DomainError("previous section index must be nonnegative")
    m = phi.m
    n1 = d_prev + 1
    log_central = math.lgamma(m + 1) - math.lgamma(m // 2 + 1) \
        - math.lgamma(m - m // 2 + 1)
    n2 = math.ceil(log_central / math.log1p(1.0 / k))
    growth = math.log((float(phi.radii[0]) + 1.0) / 2.0)
    n3 = math.floor((log_A - m * math.log(RING_MARGIN)) / growth) + 1
    return max(n1, n2, n3, 1)


def choose_M(phi: TargetMeasure, k: int, N: int, d_prev: int) -> int:
    """Smallest ring multiplicity M satisfying the exact side conditions.

    1/M <= tau keeps rings inside the radial gaps; r_1 (1 - 1/M) must clear
    the midpoint (1 + r_1)/2 so the dominance region contains the rings;
    r_m / M <= 1/k caps ring width; and k (N + d_prev) < m M caps the junk
    ratio. All four are decided in exact rational arithmetic.
    """
    k, N, d_prev = _integer(k), _integer(N), _integer(d_prev)
    if k < 1 or N < 1 or d_prev < 0:
        raise DomainError("need k >= 1, N >= 1, d_prev >= 0")
    m = phi.m
    r1, rm = phi.radii[0], phi.radii[-1]
    bound1 = math.ceil(1 / tau(phi))
    # strict: 1/M < (r1 - 1) / (2 r1)
    b2 = 2 * r1 / (r1 - 1)
    bound2 = int(b2) + 1 if b2.denominator == 1 else math.ceil(b2)
    bound3 = math.ceil(k * rm)
    b4 = Fraction(k * (N + d_prev), m)
    bound4 = int(b4) + 1 if b4.denominator == 1 else math.ceil(b4)
    return max(bound1, bound2, bound3, bound4, 1)


@dataclass(frozen=True)
class StepReport:
    """Step k toward target phi: block shift N, ring count M, section index d.

    log_A is the log disk sup the block had to dominate. The audit fields
    stay nan until `verify_step` fills them in: min_factor_margin, the
    exact least modulus of a ring factor 1 - (z/r_j)^M on the ring-disk
    boundaries, and levy, the measured Levy distance of the section's
    radial projection to phi.
    """

    k: int
    phi: TargetMeasure
    N: int
    M: int
    d: int
    log_A: float
    min_factor_margin: float = math.nan
    levy: float = math.nan

    @property
    def target(self) -> tuple[str, ...]:
        return tuple(self.phi.descriptor())

    @property
    def ring_zeros(self) -> int:
        return self.phi.m * self.M

    def to_dict(self) -> dict:
        return {
            "k": self.k, "target": list(self.target), "N": self.N,
            "M": self.M, "d": self.d, "ring_zeros": self.ring_zeros,
            "min_factor_margin": self.min_factor_margin, "levy": self.levy,
        }


@dataclass(frozen=True)
class BuildState:
    """Running polynomial padded to formal degree d (the section index)."""

    P: Polynomial
    records: tuple[StepReport, ...]

    @property
    def d(self) -> int:
        return self.P.formal_degree

    @property
    def k(self) -> int:
        return len(self.records)


def initial_state() -> BuildState:
    return BuildState(P=Polynomial(np.array([1.0 + 0j]), 0), records=())


def _block_coeffs(phi: TargetMeasure, N: int, M: int) -> np.ndarray:
    """Coefficients of z^N * prod_j (1 - (z/r_j)^M), exact support."""
    m = phi.m
    e = np.array([1.0 + 0j])
    for r in phi.radii:
        rinv = math.exp(-M * math.log(float(r)))
        e = np.convolve(e, np.array([1.0, -rinv], dtype=np.complex128))
    if e[-1] == 0 or not np.all(np.isfinite(e)):
        raise CoefficientOverflowError(
            "ring product coefficients left the double range")
    out = np.zeros(N + m * M + 1, dtype=np.complex128)
    out[N::M] = e
    return out


def step(state: BuildState, phi: TargetMeasure) -> BuildState:
    """Append block k = state.k + 1, aimed at target phi; returns the new state.

    The new coefficients are the old ones plus the block's, with disjoint
    support, so the addition is exact. The new section index is
    d + N + m M, strictly above the block degree whenever d > 0, and the
    trailing zero padding is what accounts the deferred mass at infinity.
    The new state's last record is the step, not yet audited.
    """
    if not isinstance(phi, TargetMeasure):
        raise DomainError(f"expected a TargetMeasure, got {phi!r}")
    k = state.k + 1
    log_A = log_disk_sup(state.P, 2.0 * float(phi.radii[-1]))
    N = choose_N(phi, k, state.d, log_A)
    M = choose_M(phi, k, N, state.d)
    m = phi.m
    assert N > state.d
    assert k * (N + state.d) < m * M
    block = _block_coeffs(phi, N, M)
    d_new = state.d + N + m * M
    coeffs = np.zeros(d_new + 1, dtype=np.complex128)
    coeffs[:len(state.P.coeffs)] = state.P.coeffs
    coeffs[:len(block)] += block
    if not np.all(np.isfinite(coeffs)):
        raise CoefficientOverflowError("combined coefficients overflowed")
    assert coeffs[N] == block[N]
    rec = StepReport(k=k, phi=phi, N=N, M=M, d=d_new, log_A=log_A)
    return BuildState(P=Polynomial(coeffs, d_new),
                      records=state.records + (rec,))


def verify_step(state: BuildState) -> StepReport:
    """Audit the most recent step by actually finding the section's zeros.

    The target is the one the step's record holds. Checks, in order: the
    ring annuli r_j (1 +- 1/M) do not overlap; the junk ratio condition
    holds; each ring disk centered at r_j times an M-th root of unity
    (radius r_j / M) contains exactly one computed zero; and the radial
    projection sits within 1/k of the target in Levy distance. Returns the
    record with min_factor_margin and levy filled in; raises
    VerificationError on any failure.

    min_factor_margin is exact, not sampled: the least |1 - (z/r_l)^M| over
    every ring l and every ring-disk boundary point z is
    1 - (1 - 1/M)^M, taken as -expm1(M log1p(-1/M)). On the boundary of the
    disk at r_j eta, z = r_j eta (1 + e^(i psi) / M) with eta^M = 1, so the
    own-ring factor is |1 - (1 + e^(i psi) / M)^M|, least at psi = pi, the
    boundary point nearest the origin. Since the annuli do not overlap,
    |z / r_l| <= 1 - 1/M for every outer ring l and |z / r_l| >= 1 + 1/M
    for every inner one, so no cross-ring factor is smaller. The value is
    at least 1 - 1/e > RING_MARGIN for every M.
    """
    if not state.records:
        raise DomainError("nothing to verify before the first step")
    rec = state.records[-1]
    phi = rec.phi
    k, N, M, m = rec.k, rec.N, rec.M, phi.m
    d_prev = rec.d - N - m * M

    # annuli may touch (the gap condition can hold with equality) but
    # must not overlap
    for a, b in zip(phi.radii, phi.radii[1:]):
        if a + Fraction(a, M) > b - Fraction(b, M):
            raise VerificationError("ring annuli overlap radially")
    if not k * (N + d_prev) < m * M:
        raise VerificationError("junk ratio condition failed")

    Z = find_zeros(state.P)
    zeros = Z.finite_zeros
    eta = np.exp(2j * np.pi * np.arange(M) / M)
    slack = 1.0 + 1e-9
    # a zero inside disk j lies within arcsin(slack / M) < pi / M of its
    # center's angle 2 pi j / M, so the disk with the nearest center angle
    # is the only one that can hold it: one distance per zero and ring
    nearest = np.rint(np.angle(zeros) * (M / (2 * np.pi))).astype(np.intp) % M
    claimed = np.zeros(len(zeros), dtype=bool)
    for r in phi.radii:
        rf = float(r)
        hit = np.abs(zeros - rf * eta[nearest]) <= (rf / M) * slack
        per_disk = np.bincount(nearest[hit], minlength=M)
        if not np.all(per_disk == 1):
            raise VerificationError(
                f"expected one zero per ring disk at radius {r}, got counts "
                f"{sorted(set(int(x) for x in per_disk))}")
        if np.any(claimed & hit):
            raise VerificationError("a zero was claimed by two ring disks")
        claimed |= hit

    rho = radial_projection(Z)
    lv = levy_distance(rho, phi.to_radial_measure())
    if lv > 1.0 / k:
        raise VerificationError(
            f"section measure is {lv:.4f} from the target, above 1/{k}")
    return replace(rec, min_factor_margin=-math.expm1(M * math.log1p(-1 / M)),
                   levy=lv)


def build_universal(targets, verify: bool = True):
    """Run the construction over a target sequence.

    Returns (final state, list of per-step reports). Reports hold the levy
    gap to each target; with verify=False the root-finding audit is skipped
    and the reports are the unaudited records, whose audit fields are nan.
    """
    state = initial_state()
    reports: list[StepReport] = []
    for phi in targets:
        if not isinstance(phi, TargetMeasure):
            phi = TargetMeasure.of(*phi)
        state = step(state, phi)
        reports.append(verify_step(state) if verify
                       else state.records[-1])
    return state, reports


def cycle_targets(base, steps: int) -> list[TargetMeasure]:
    """Repeat a finite list of target measures for the requested step count."""
    steps = _integer(steps)
    if steps < 1:
        raise DomainError("need at least one step")
    base = [phi if isinstance(phi, TargetMeasure) else TargetMeasure.of(*phi)
            for phi in base]
    if not base:
        raise DomainError("need at least one base target")
    return [base[i % len(base)] for i in range(steps)]


def parse_targets(text: str) -> list[TargetMeasure]:
    """Parse JSON targets.

    Accepts a list of radius lists ('[["3/2","2"],["3"]]'), a single
    object with a "radii" key ('{"radii":[1.5,2]}'), or a list of such
    objects. Radii may be numbers or fraction strings.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"targets must be JSON: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise DomainError("targets must be a nonempty JSON list or object")
    out = []
    for entry in data:
        if isinstance(entry, dict):
            try:
                entry = entry["radii"]
            except KeyError:
                raise DomainError(
                    "target objects need a 'radii' key") from None
        if not isinstance(entry, list):
            entry = [entry]
        out.append(TargetMeasure.of(*entry))
    return out
