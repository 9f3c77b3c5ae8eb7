"""All-roots polynomial solving with the zeros-at-infinity convention."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .series import (Polynomial, _circle_values, _complex_array,
                     _horner_layout, _horner_rows, _integer, _layout_key,
                     _outer_radius, _LOG_MAX)

__all__ = ["ZeroSet", "find_zeros", "sorted_moduli"]

#: coefficients at or below this magnitude relative to the largest one are
#: treated as exact zeros for degree bookkeeping; the rule is scale-invariant,
#: like the zeros themselves
_DROP_TOL = 1e-300

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_LOG_EPS = math.log(sys.float_info.epsilon)
_MAX_ITERS = 600
_CHUNK = 128
#: cores of this degree and above take the far-field pair sums: the least
#: measured degree (1024, 1536, 2048, ...) at which they took at most 3/4
#: of the triangle's time per solve, on geometric and Gaussian sections
_FAR_DEGREE = 1536
#: a block is far from a target more than this many block radii away
_FAR_ETA = 4.0
#: terms of a far expansion: eta^-p (eta + 1) / (eta - 1) <= eps
_FAR_TERMS = math.ceil(
    math.log((_FAR_ETA + 1) / ((_FAR_ETA - 1) * sys.float_info.epsilon))
    / math.log(_FAR_ETA))
#: a core takes a circle table when its nonzero Horner blocks cover more
#: than this many coefficients, as a dense core of this degree or more
#: does: the least measured degree (768, 1024, 1536, ...) at which the
#: table took at most 3/4 of Horner's time per solve, on geometric and
#: Gaussian sections
_TABLE_DEGREE = 1024
#: a point w takes its core's circle table when d |ln|w|| / 2 <= this
_TABLE_REACH = 1.0
#: |x| <= rho on the table: |Re x| <= _TABLE_REACH, |Im x| <= pi / 4
_TABLE_RHO = math.hypot(_TABLE_REACH, math.pi / 4)
#: Taylor terms of the table: the least J with
#: rho^(J+1) e^(rho + reach) / (J+1)! <= eps (J = 20 at reach 1)
_TABLE_TERMS = next(
    j for j in itertools.count(1)
    if _TABLE_RHO ** (j + 1) * math.exp(_TABLE_RHO + _TABLE_REACH)
    <= sys.float_info.epsilon * math.factorial(j + 1))
#: pi = _PI_HI + _PI_LO to within 1e-26; _PI_HI has 33 bits, so t _PI_HI is
#: exact for a node angle t pi, t = 2 q / M with |q| < 2^20
_PI_HI = math.ldexp(round(math.ldexp(math.pi, 31)), -31)
#: sin(fl(pi)) is pi - fl(pi) to within 1e-48
_PI_LO = (math.pi - _PI_HI) + math.sin(math.pi)


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Finite zeros plus an explicit multiplicity at infinity.

    The finite multiset and the nonnegative infinity count together account
    for exactly ``formal_degree`` zeros; both counts are stored as ints.
    """

    finite_zeros: np.ndarray
    infinity_count: int
    formal_degree: int

    def __post_init__(self):
        z = np.atleast_1d(_complex_array(self.finite_zeros, "finite zeros"))
        at_inf, n = _integer(self.infinity_count), _integer(self.formal_degree)
        if at_inf < 0:
            raise DomainError(f"negative infinity count {at_inf}")
        if len(z) + at_inf != n:
            raise DomainError(f"{len(z)} finite zeros + {at_inf} at infinity "
                              f"!= formal degree {n}")
        object.__setattr__(self, "finite_zeros", z)
        object.__setattr__(self, "infinity_count", at_inf)
        object.__setattr__(self, "formal_degree", n)


def sorted_moduli(Z: ZeroSet) -> np.ndarray:
    """Nondecreasing zero moduli, with inf markers for the zeros at infinity."""
    finite = np.sort(np.abs(Z.finite_zeros))
    return np.concatenate([finite, np.full(Z.infinity_count, np.inf)])


def find_zeros(P: Polynomial) -> ZeroSet:
    """All zeros of P counted with multiplicity, including 0 and infinity.

    Zeros at the origin (leading zero coefficients) and at infinity (trailing
    zero coefficients) are deflated exactly; the rest come from simultaneous
    iteration on the core of degree d, run to its rounding floor: they meet
    |P(w)| <= 8 (d + 1) eps * sum_k |b_k| |w|^k, twice the error bound of
    the Horner kernel and of the circle table. The iteration makes one
    pass; a core not converged after _MAX_ITERS sweeps raises
    ConvergenceError. This is `_zero_sets` on a batch of one, so a section
    gets the same zeros, bit for bit, alone or solved in a batch.

    A deflated core whose nonzero coefficients sit at multiples of g > 1 is
    Q(z^g), with Q(u) = sum_j b_(g j) u^j of degree d / g; Q is solved
    instead, to its own floor, and each of its zeros u gives the g zeros
    exp(log(u) / g) e^(2 pi i l / g). Since sum_k |b_k| |z|^k equals
    sum_j |b_(g j)| |u|^j at u = z^g, the bound carries over up to the
    rounding of the root extraction: z^g comes back as u (1 + delta) with
    |delta| a few g eps, and |u Q'(u)| <= (d / g) sum_j |b_(g j)| |u|^j,
    so the ratio grows by at most about |delta| d / g, and the bound is
    (8 (d / g + 1) + a few d) eps.
    """
    (Z,) = _zero_sets([P])
    if isinstance(Z, ConvergenceError):
        raise Z
    return Z


def _zero_sets(polys) -> list:
    """``find_zeros`` of each polynomial, or the ConvergenceError of its
    core; the cores that need the iteration are solved in lockstep."""
    parts = [_deflate(P) for P in polys]
    roots = [_closed_form(core) for _, _, _, core in parts]
    todo = [i for i, r in enumerate(roots) if r is None]
    for i, r in zip(todo, _lockstep([parts[i][3] for i in todo])):
        roots[i] = r
    return [r if isinstance(r, ConvergenceError) else _inflate(P, *part[:3], r)
            for P, part, r in zip(polys, parts, roots)]


def _deflate(P: Polynomial):
    """(low, deg, g, core): P's lowest and highest kept coefficient, and its
    core b_low..b_deg scaled to max |b_k| = 1, taken at every g-th index."""
    c = P.coeffs
    mags = np.abs(c)
    cmax = float(np.max(mags))
    if cmax == 0.0:
        raise DomainError("the zero polynomial has no zero set")
    nz = np.nonzero(mags > _DROP_TOL * cmax)[0]
    low, deg = int(nz[0]), int(nz[-1])
    core = c[low: deg + 1] / cmax
    g = int(np.gcd.reduce(np.nonzero(core)[0])) if deg > low else 1
    return low, deg, g, core[::g]


def _closed_form(core: np.ndarray) -> np.ndarray | None:
    """The zeros of a core of degree 0 or 1, or None for the iteration."""
    if len(core) == 1:
        return np.empty(0, dtype=np.complex128)
    if len(core) == 2:
        return np.array([-core[0] / core[1]])
    return None


def _inflate(P: Polynomial, low: int, deg: int, g: int,
             roots: np.ndarray) -> ZeroSet:
    """P's zero set from the zeros of its deflated core."""
    if g > 1:
        turns = np.exp(2j * np.pi * np.arange(g) / g)
        roots = np.outer(np.exp(np.log(roots) / g), turns).ravel()
    finite = np.concatenate([np.zeros(low, dtype=np.complex128), roots])
    finite = np.sort_complex(finite)
    return ZeroSet(finite, P.formal_degree - deg, P.formal_degree)


def _initial_guesses(core: np.ndarray) -> np.ndarray:
    """Start points on coefficient-polygon circles.

    The radii come from the upper convex hull of (k, ln|b_k|): each hull edge
    from i to j contributes q = j - i start radii exp(-slope). They lie
    within the inner and outer Cauchy radii c and C without a clip:
    C >= (|b_i|/|b_d|)^(1/(d-i)) for every i, and c <= (|b_0|/|b_j|)^(1/j)
    for every j, and the last and the first hull edge give the largest and
    the smallest radius in exactly these forms.
    An edge that skips at least one coefficient and has no nonzero
    coefficient strictly between its ends is the binomial
    b_i z^i + b_j z^j, and its q starts sit at that binomial's zeros, at
    angles (arg(-b_i/b_j) + 2 pi l)/q: the sections of the universal series,
    built from factors 1 - (z/r)^M, have their zeros almost exactly there.
    Every other edge spreads its starts by one global golden angle. That
    includes flat edges with interior coefficients on the hull line
    (geometric, rational sections), whose zeros are nearly symmetric too:
    starts placed symmetrically on the circle stall the iteration there.

    Symmetric starts can also be trapped. With real coefficients every
    binomial phase is 0 or pi, and the iteration keeps a real point real
    while the whole start set is symmetric about the real axis, which
    happens when every edge is a binomial; such a point never reaches a
    complex zero. One-step edges (q = 1) keep the golden angle, so dense
    real polynomials such as 1 - 1.5 z + z^2 (binomial starts 2/3 and 3/2,
    zeros 0.75 +- 0.66i) never start there. In the sparse cases left, the
    float rounding of the start angles breaks the symmetry, at a cost:
    1 - 1.5 z^2 + z^5, 1 - 1.5 z^3 + z^5 and 1 - 1.5 z^2 + z^7 take 31 to
    35 sweeps.

    A binomial top edge from i >= 1 to d, q = d - i >= 2, can split the
    solve, as in MPSolve. Let rho be the Cauchy radius of the lower part
    b_0..b_i and R = (|b_i|/|b_d|)^(1/q). When q ln(rho / R) <= ln eps,
    |b_d w^d| <= eps |b_i| |w|^i on |w| <= rho, where every zero of the
    lower part lies, so its zeros, solved to their own floor by
    `_zero_sets` (which applies this rule again), already meet the stop
    test of the whole core, and the first i points start there. A
    universal section, the previous one plus z^N (1 - (z/r)^M), splits so:
    the d = 4190 cycle core is a degree-501 solve and one sweep. A lower
    solve that stalls, or a radius out of double range, leaves the hull
    starts. Dense and flat-hull cores never have a binomial top edge.
    """
    d = len(core) - 1
    mags = np.abs(core)
    ks = np.nonzero(mags > 0)[0].tolist()
    ls = np.log(mags[ks]).tolist()
    # positions in ks of the hull vertices
    hull: list[int] = []
    for t, (x, y) in enumerate(zip(ks, ls)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if ((ks[a] - ks[o]) * (y - ls[o])
                    - (ls[a] - ls[o]) * (x - ks[o])) >= 0:
                hull.pop()
            else:
                break
        hull.append(t)
    radii = np.empty(d)
    angles = _GOLDEN_ANGLE * np.arange(d) + 0.4
    for a, b in zip(hull[:-1], hull[1:]):
        i, j = ks[a], ks[b]
        radii[i:j] = math.exp(-(ls[b] - ls[a]) / (j - i))
        if b == a + 1 and j > i + 1:
            phase = np.angle(-core[i] / core[j])
            angles[i:j] = (phase + 2.0 * math.pi * np.arange(j - i)) / (j - i)
    starts = radii * np.exp(1j * angles)
    a, b = hull[-2], hull[-1]
    i = ks[a]
    if b == a + 1 and 1 <= i <= d - 2:
        try:
            rho = _outer_radius(mags[: i + 1], i)
        except ConvergenceError:  # outside double range
            rho = math.inf
        if (d - i) * math.log(rho) - (ls[a] - ls[b]) <= _LOG_EPS:
            (Z,) = _zero_sets([Polynomial(core[: i + 1], i)])
            if not isinstance(Z, ConvergenceError):
                starts[:i] = Z.finite_zeros
    return starts


class _Stack:
    """Cores of one `_layout_key`, evaluated together.

    The forward layouts form one stacked table, and so do the reversed
    ones. The reversed table is built the first time a point of the stack
    crosses the forward limit, which few stacks ever do. A core whose
    nonzero Horner blocks cover more than _TABLE_DEGREE coefficients also
    gets its own `_CircleTable`; a sparse core keeps Horner alone, whose
    work already scales with its nonzero blocks.
    """

    def __init__(self, cores):
        self.cores = cores
        self.d = np.array([len(c) - 1 for c in cores])
        self.fwd = _horner_layout(cores)
        self.rev = None
        # past this modulus the powers of a degree-d core may overflow
        self.limit = np.array([math.exp((_LOG_MAX - 2.0 * math.log(d + 1)) / d)
                               for d in self.d.tolist()])
        self.tables = {t: _CircleTable(c) for t, c in enumerate(cores)
                       if _stored(c) > _TABLE_DEGREE}


def _stored(core: np.ndarray) -> int:
    """How many coefficients the core's own Horner blocks that hold a
    nonzero coefficient cover, up to b_d: d + 1 for a dense core."""
    k = _layout_key(core)[0]
    live = np.count_nonzero(np.bincount(np.flatnonzero(core) // k))
    return int(live) * k - (-len(core)) % k


class _CircleTable:
    """A dense core's Taylor tables about the nodes of the unit circle:
    P, P' and sum_k |b_k| |w|^k at a point near |w| = 1 in O(J) work,
    not O(d), as in the evaluation step of a type-2 nonuniform FFT (Dutt
    & Rokhlin, SIAM J. Sci. Comput. 14, 1993).

    Table. Let c = d / 2, h_k = (k - c) / c in [-1, 1], J = _TABLE_TERMS
    and M the least power of two >= 2 d. Row j of ``vals`` holds
    V_j / j!, V_j = sum_k b_k h_k^j omega^k, at the M nodes
    omega = exp(-2 pi i l / M), for j = 0..J+1, by one `_circle_values`
    call each; ``mu`` holds mu_j / j!, mu_j = sum_k |b_k| h_k^j.
    That is (J + 2) M <= 88 d complex values, less than the _CHUNK * d of
    the pair sums' buffer.

    Point. The table serves |ln|w|| <= a / c, a = _TABLE_REACH. Take the
    nearest node omega and x = c ln(w / omega): |Re x| <= a,
    |Im x| <= pi c / M <= pi / 4, so |x| <= rho = _TABLE_RHO. Since
    w^k = omega^k e^x e^(h_k x),

        P(w) = e^x S(x),  S(x) = sum_j x^j V_j / j!,
        w P'(w) = c dP/dx = c e^x (S(x) + S'(x)),
        sum_k |b_k| |w|^k = e^(Re x) sum_j (Re x)^j mu_j / j!,

    each sum taken by Horner in x over j <= J + 1.

    Error. Write s = sum_k s_k, s_k = |b_k| |w|^k = |b_k| e^(Re x (1 + h_k)),
    so |b_k| e^(Re x) <= e^a s_k. In units of eps s:
    - Truncation. Term k's tail past x^J is at most
      rho^(J+1) e^rho / (J+1)! |b_k| e^(Re x), and J is the least count
      that makes rho^(J+1) e^(rho + a) / (J+1)! <= eps: at most 1.
    - Rounding of the table and of the sum in x. A power-of-two FFT errs
      by about 2 log2(M) eps sum_k |b_k| |h_k|^j / j! per value, one
      butterfly per level; the inputs b_k h_k^j / j! carry (j + 1) eps, and
      Horner in x adds about 2 (J + 2) eps sum_j |x|^j |V_j| / j!. Times
      |e^x|, each is at most its factor times
      sum_k |b_k| e^(Re x + rho |h_k|) <= e^(rho + a) s, and
      e^(rho + a) < 9.7 at a = 1: at most 9.7 (2 log2 M + 2 J + 8) < 800
      for M <= 2^17 (n <= 2^16).
    - The point. log and atan2 come back within an ulp: ln|w| within eps
      (|w| is near 1), arg w within 2 eps; the node angle is subtracted
      exactly through _PI_HI and _PI_LO, so x is off by at most
      2.3 c eps + eps |x|. The table then evaluates P at w e^delta,
      |delta| <= 2.3 eps (1 + 1 / c), which moves each b_k w^k by at most
      k |delta| s_k (1 + d |delta|): at most 2.3 d + 5.
    So P is off by at most (2.3 d + 806) eps s, within the Horner bound
    4 (d + 1) eps s for d >= 475, that is for every core that takes the
    table, and the stop test |P| <= 8 (d + 1) eps s keeps its meaning.
    The sum itself is off by a few eps relative, plus d eps from the
    modulus: the stop test moves by that relative amount. Every step is
    elementwise, so each point's values do not depend on the others.
    """

    def __init__(self, core: np.ndarray):
        d = len(core) - 1
        self.c = d / 2
        self.nodes = 1 << (2 * d - 1).bit_length()
        h = (np.arange(d + 1) - self.c) / self.c
        mags = np.abs(core)
        self.vals = np.empty((_TABLE_TERMS + 2, self.nodes),
                             dtype=np.complex128)
        self.mu = np.empty(_TABLE_TERMS + 2)
        # one row at a time, so no temporary outgrows a row
        power = np.ones(d + 1)
        for j in range(_TABLE_TERMS + 2):
            if j:
                power *= h / j
            self.vals[j] = _circle_values(core * power, self.nodes)
            self.mu[j] = (power * mags).sum()
        reach = _TABLE_REACH / self.c
        self.lo, self.hi = math.exp(-reach), math.exp(reach)

    def evaluate(self, w: np.ndarray):
        """P(w), P'(w) and sum_k |b_k| |w|^k at points w in the annulus."""
        lw = np.log(w)
        # the nearest node exp(-i pi t), t = 2 q / M, and x = c ln(w / node)
        q = np.rint(lw.imag * (self.nodes / (-2.0 * math.pi)))
        t = q * (2.0 / self.nodes)
        xr = self.c * lw.real
        x = xr + 1j * (self.c * ((lw.imag + t * _PI_HI) + t * _PI_LO))
        at = q.astype(np.intp) % self.nodes
        S, dS = self.vals[-1, at], np.zeros(len(w), dtype=np.complex128)
        for row in self.vals[-2::-1]:
            dS *= x
            dS += S
            S *= x
            S += row[at]
        sums = np.full(len(w), self.mu[-1])
        for mu in self.mu[-2::-1]:
            sums *= xr
            sums += mu
        ex = np.exp(x)
        dS += S
        dS *= ex * (self.c / w)
        return ex * S, dS, np.exp(xr) * sums


def _newton_terms(stack: _Stack, tr: np.ndarray, w: np.ndarray):
    """Newton step P/P', |P| and sum_k |b_k| |w|^k at each point w, on the
    core tr of the stack (tr nondecreasing).

    The cores are normalized to max |b_k| = 1. A point of a core with a
    `_CircleTable` within its annulus, d |ln|w|| / 2 <= _TABLE_REACH, is
    evaluated there, core by core. Any other point is evaluated on the
    forward Horner table whenever its powers stay in the float range: with
    ln|w| <= (ln DBL_MAX - 2 ln(d + 1)) / d, the sum and |w P'| stay below
    (d + 1)^2 |w|^d <= DBL_MAX. So one Horner call serves every other
    point of nearly every sweep. Only points beyond that limit take the
    reversed table at 1/w, in one more call: P(w) = w^d Q(1/w), so
    P/P' = w Q / (d Q - v Q') with v = 1/w, and |P| and the sum both come
    divided by |w|^d, which leaves the backward-error test |P| <= tol * sum
    unchanged. The annulus lies well inside the forward limit, and a point
    at 0, inf or nan never enters it.
    """
    mod = np.abs(w)
    outer = mod > stack.limit[tr]
    inner = ~outer
    nu = np.empty(len(w), dtype=np.complex128)
    absp = np.empty(len(w))
    s = np.empty(len(w))
    for t, table in stack.tables.items():
        at = np.flatnonzero((tr == t) & (table.lo <= mod) & (mod <= table.hi))
        if len(at):
            inner[at] = False
            p, dp, s[at] = table.evaluate(w[at])
            with np.errstate(divide="ignore", invalid="ignore"):
                nu[at] = p / dp
            absp[at] = np.abs(p)
    if inner.any():
        p, dp, s[inner] = _horner_rows(stack.fwd, tr[inner], w[inner])
        with np.errstate(divide="ignore", invalid="ignore"):
            nu[inner] = p / dp
        absp[inner] = np.abs(p)
    if outer.any():
        if stack.rev is None:
            stack.rev = _horner_layout([c[::-1] for c in stack.cores])
        to, wo = tr[outer], w[outer]
        v = 1.0 / wo
        q, dq, s[outer] = _horner_rows(stack.rev, to, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            nu[outer] = wo * q / (stack.d[to] * q - v * dq)
        absp[outer] = np.abs(q)
    return nu, absp, s


def _lockstep(cores) -> list:
    """Simultaneous iteration, to the floor tol = 8 (d + 1) eps, on cores
    with nonzero end coefficients: the zeros of each core, or the
    ConvergenceError of a core that stalls.

    The cores are grouped by `_layout_key`, their Horner block length and
    kind, and each group sweeps in lockstep: one Horner call evaluates the
    live points of every core of the group inside the forward limit that
    its circle table does not serve, and one more those past it, while the
    degree, the tolerance, the forward limit, the circle table and the
    pair sums stay each core's own. Every elementwise step is the one a
    lone core takes, and `_horner` and the circle tables are pure
    functions of each point and its core, so each core's zeros are
    bit-identical in any batch, alone included.
    """
    cores = [c / np.max(np.abs(c)) for c in cores]
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, c in enumerate(cores):
        groups.setdefault(_layout_key(c), []).append(i)
    out = [None] * len(cores)
    for idx in groups.values():
        stack = _Stack([cores[i] for i in idx])
        for i, w in zip(idx, _sweeps(stack)):
            out[i] = w
    return out


def _sweeps(stack: _Stack) -> list:
    """The lockstep iteration on one stack; see `_lockstep`."""
    ds = stack.d.tolist()
    tols = [8.0 * (d + 1) * sys.float_info.epsilon for d in ds]
    # the points of every core, concatenated: core t owns w[lo[t]:lo[t + 1]]
    w = np.concatenate([_initial_guesses(c) for c in stack.cores])
    lo = [0, *itertools.accumulate(ds)]
    owner = np.repeat(np.arange(len(ds)), ds)
    tol = np.repeat(tols, ds)
    done = np.zeros(len(w), dtype=bool)
    for _ in range(_MAX_ITERS):
        act = np.nonzero(~done)[0]
        nu, absp, s = _newton_terms(stack, owner[act], w[act])
        ok = absp <= tol[act] * s
        done[act[ok]] = True
        act = act[~ok]
        if len(act) == 0:
            break
        nu = nu[~ok]
        repel = np.empty(len(act), dtype=np.complex128)
        cut = np.searchsorted(act, lo).tolist()
        for t, (a, b) in enumerate(zip(cut, cut[1:])):
            if a < b:
                repel[a:b] = _pair_sums(w[lo[t]: lo[t + 1]], act[a:b] - lo[t])
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = nu / (1.0 - nu * repel)
        bad = ~np.isfinite(corr)
        corr[bad] = 0.1 * (1.0 + np.abs(w[act[bad]]))
        cap = 0.5 * (1.0 + np.abs(w[act]))
        mag = np.abs(corr)
        over = mag > cap
        corr[over] *= cap[over] / mag[over]
        w[act] -= corr
    out = [w[lo[t]: lo[t + 1]] for t in range(len(ds))]
    if done.all():
        return out
    # a stalled core reports its worst ratio over all its points
    stalled = np.bincount(owner[~done], minlength=len(ds)) > 0
    at = stalled[owner]
    _, absp, s = _newton_terms(stack, owner[at], w[at])
    ratio = absp / s
    for t in np.flatnonzero(stalled).tolist():
        worst = float(np.max(ratio[owner[at] == t]))
        out[t] = ConvergenceError(
            f"simultaneous iteration on a degree-{ds[t]} core stalled at "
            f"residual ratio {worst:.3e} above its tolerance "
            f"{tols[t]:.3e} (sweep budget {_MAX_ITERS})",
            residual=worst,
        )
    return out


def _pair_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j 1/(w_i - w_j) for i in rows, j over all other roots.

    Up to _CHUNK rows are one block against every point, on any core.
    More rows of a core of degree N = len(w) >= _FAR_DEGREE go through
    ``_far_sums``, which sums far blocks of points by their moments; more
    rows of a smaller core go through ``_triangle_sums``, which forms each
    pair with an active end once. The path depends on the core alone, so
    a core's sums are the same in any batch. A row whose sum comes out
    non-finite (two coincident points, in one block or in two) is summed
    again with each exact zero difference nudged to 1e-12.
    """
    m, N = len(rows), len(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m <= _CHUNK:
            # no later block takes column sums, so the sort would not pay
            diff = np.subtract.outer(w[rows], w)
            diff[np.arange(m), rows] = np.inf
            out = np.reciprocal(diff, out=diff).sum(axis=1)
        elif N >= _FAR_DEGREE:
            out = _far_sums(w, rows)
        else:
            out = _triangle_sums(w, rows)
        for i in np.nonzero(~np.isfinite(out))[0]:
            out[i] = _nudged_sum(w, rows[i])
    return out


def _nudged_sum(w: np.ndarray, i: int) -> complex:
    """sum_j 1/(w_i - w_j) with each exact zero difference nudged to 1e-12."""
    row = w[i] - w
    row[i] = np.inf
    row[row == 0] = 1e-12
    return np.sum(1.0 / row)


def _triangle_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_pair_sums`` with each pair that has an active end formed once.

    fl(a - b) = -fl(b - a) exactly, so 1/(w_j - w_i) is the negated
    1/(w_i - w_j). The points are ordered active rows first, then the rest,
    each group by angle with ties broken by modulus, then index; the order
    depends on the points and the set of rows only, so shuffling ``rows``
    only permutes the results. A block of _CHUNK active rows meets
    itself and every point after it: its row sums go to its own rows, and
    its column sums over later active rows go to those rows with the sign
    flipped. About m N - m^2/2 differences are formed instead of m N. The
    angle order keeps numpy's complex reciprocal, which branches on
    |Re| >= |Im|, on one branch along long runs of a row; on a d = 4190
    solver state, [rows, rest] index order made this 1.5 times as slow.
    Every block is written into one buffer allocated per call.
    """
    m, N = len(rows), len(w)
    active = np.zeros(N, dtype=bool)
    active[rows] = True
    by_angle = np.lexsort((np.abs(w), np.angle(w)))
    order = np.concatenate([by_angle[active[by_angle]],
                            by_angle[~active[by_angle]]])
    v = w[order]
    sums = np.zeros(m, dtype=np.complex128)
    buf = np.empty(_CHUNK * N, dtype=np.complex128)
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        b = stop - start
        diff = buf[: b * (N - start)].reshape(b, N - start)
        np.subtract.outer(v[start:stop], v[start:], out=diff)
        diff[np.arange(b), np.arange(b)] = np.inf
        np.reciprocal(diff, out=diff)
        sums[start:stop] += diff.sum(axis=1)
        sums[stop:] -= diff[:, b: m - start].sum(axis=0)
    pos = np.empty(N, dtype=np.intp)
    pos[order] = np.arange(N)
    return sums[pos[rows]]


def _far_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_pair_sums`` with the blocks far from a target summed by their
    moments: a one-level far field (Greengard & Rokhlin, J. Comput. Phys.
    73, 1987).

    Blocks. Let S = round(sqrt(N / 2)). The points are cut into shells
    where their sorted log-moduli jump by more than pi / S, the half-width
    of an angle block on the unit circle, so a block never spans two rings
    far apart; a solve near one circle is one shell. Each shell of n points
    is sorted by angle, ties by index, and cut into round(sqrt(n / 2))
    blocks of consecutive points. Block b has the centroid c, the radius
    R = max |w_j - c| and the scaled moments M_k = sum_j ((w_j - c) / R)^k
    (R = 1 in M_k and t below for a block of coincident points).

    Far blocks. Block b is near every target of block a when
    |c_a - c_b| - R_a <= eta R_b, eta = _FAR_ETA. Otherwise
    |z - c_b| > eta R_b at every target z of block a, and with
    t = R_b / (z - c_b)

        sum_j 1 / (z - w_j) = (t / R_b) sum_k M_k t^k,

    evaluated by Horner in t over p = _FAR_TERMS terms. Each point's term
    is a geometric series in u = (w_j - c) / (z - c), |u| < 1/eta, so
    cutting it after p terms errs by at most
    eta^-p (eta + 1) / (eta - 1) |1 / (z - w_j)|, and p is the least
    count that makes this factor at most eps: the truncation is at most
    eps * sum_j |1 / (z - w_j)| (p = 27 at eta = 4).

    Near blocks, the target's own included, are summed directly, without
    the self pair. On one circle a target has about eta + 1 near blocks of
    sqrt(2 N) points and S far ones of p terms each, and S balances the
    two: at N = 4096 the differences formed are under N^2 / 4. Before any
    pair is formed, the direct work, each block's targets times the points
    of its near blocks, is counted; when it exceeds the m N - m^2 / 2
    differences of ``_triangle_sums``, the triangle takes the call. That
    happens on points spread over a thick annulus with no gap in modulus,
    where every block is near most targets.

    Targets are taken in row blocks, and every block of differences and
    terms is written into one buffer of _CHUNK * N entries allocated per
    call. The order depends on the points and the set of rows only, so
    shuffling ``rows`` only permutes the results, and no BLAS call is made.
    """
    m, N = len(rows), len(w)
    # shells: runs of the sorted log-moduli with no gap above pi / S
    lm = np.log(np.abs(w))
    by_mod = np.argsort(lm, kind="stable")
    jumps = np.diff(lm[by_mod]) > math.pi / round(math.sqrt(N / 2))
    shell = np.empty(N, dtype=np.intp)
    shell[by_mod] = np.concatenate([[0], np.cumsum(jumps)])
    order = np.lexsort((np.angle(w), shell))
    v = w[order]
    pos = np.empty(N, dtype=np.intp)
    pos[order] = np.arange(N)
    # the targets, as places in v
    tpos = np.sort(pos[rows])
    z = v[tpos]
    # round(sqrt(n / 2)) blocks of consecutive points in a shell of n
    sizes = np.bincount(shell)
    per = np.maximum(1, np.rint(np.sqrt(sizes / 2))).astype(np.intp)
    of = np.repeat(np.arange(len(sizes)), per)
    rank = np.arange(len(of)) - np.repeat(np.cumsum(per) - per, per)
    edges = np.append(
        (np.cumsum(sizes) - sizes)[of] + rank * sizes[of] // per[of], N)
    S = len(of)
    counts = np.diff(edges)
    # the blocks as the rows of a table, padded with points of weight 0
    at = edges[:-1, None] + np.arange(int(counts.max()))
    live = at < edges[1:, None]
    table = v[np.minimum(at, N - 1)]
    c = np.where(live, table, 0.0).sum(axis=1) / counts
    dev = np.where(live, table - c[:, None], 0.0)
    R = np.abs(dev).max(axis=1)
    near = np.abs(np.subtract.outer(c, c)) - R[:, None] <= _FAR_ETA * R
    # the targets of block a are z[first[a]:first[a + 1]]
    first = np.searchsorted(tpos, edges)
    if (np.diff(first) * np.where(near, counts, 0).sum(axis=1)).sum() \
            > m * N - m * m / 2:
        return _triangle_sums(w, rows)
    scale = np.where(R > 0.0, R, 1.0)
    # moments[k] = M_k / R, the 1 / R of the expansion taken in
    u = dev / scale[:, None]
    power = (live / scale[:, None]).astype(np.complex128)
    moments = np.empty((_FAR_TERMS, S), dtype=np.complex128)
    moments[0] = power.sum(axis=1)
    for k in range(1, _FAR_TERMS):
        power *= u
        moments[k] = power.sum(axis=1)
    own = np.searchsorted(edges, tpos, side="right") - 1
    sums = np.empty(m, dtype=np.complex128)
    buf = np.empty(_CHUNK * N, dtype=np.complex128)
    half = len(buf) // 2
    step = max(1, half // (2 * S))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        t = buf[: (hi - lo) * S].reshape(hi - lo, S)
        acc = buf[(hi - lo) * S: 2 * (hi - lo) * S].reshape(hi - lo, S)
        np.subtract.outer(z[lo:hi], c, out=acc)
        np.divide(scale, acc, out=t)
        # a near block adds nothing here
        t[near[own[lo:hi]]] = 0.0
        acc[:] = moments[-1]
        for k in range(_FAR_TERMS - 2, -1, -1):
            acc *= t
            acc += moments[k]
        acc *= t
        acc.sum(axis=1, out=sums[lo:hi])
    for a in np.flatnonzero(first[1:] > first[:-1]).tolist():
        lo, hi = first[a], first[a + 1]
        cols = np.flatnonzero(np.repeat(near[a], counts))
        # block a is near itself, so each of its targets meets itself here
        mine = np.searchsorted(cols, tpos[lo:hi])
        step = max(1, half // len(cols))
        for i in range(0, hi - lo, step):
            j = min(i + step, hi - lo)
            diff = buf[half: half + (j - i) * len(cols)].reshape(j - i, -1)
            np.subtract.outer(z[lo + i: lo + j], v[cols], out=diff)
            diff[np.arange(j - i), mine[i:j]] = np.inf
            sums[lo + i: lo + j] += np.reciprocal(diff, out=diff).sum(axis=1)
    return sums[np.searchsorted(tpos, pos[rows])]
