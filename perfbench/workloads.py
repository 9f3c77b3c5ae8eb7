"""The benchmark's three desk workloads and their output checks.

Every workload is a closed loop with one client: a desk user waits for each
result before asking for the next. The seed generates one mix of requests
and a run repeats that mix, so every request is timed several times. The
seed draws random inputs and the order, but no sizes, so a mix costs about
the same on every seed.

Why these three:

* ``bounds_sweep`` spends most of its time in ``bounds`` (the per-m radius
  solves) and some in ``roots``. A radius-solver change must show here; a
  roots-only change should barely move it.
* ``sections_cli`` runs whole CLI commands: few large root solves, the
  pure-Python gauge loop, the universal build and audit with its memory
  peak, and JSON output. ``bounds`` and ``ensembles`` do almost nothing.
* ``mc_ensembles`` runs many mid-size solves through Monte Carlo sampling
  and the process pool, so a batching-across-trials change shows here and a
  large-degree kernel change shows in ``sections_cli``.

The checks run after the timed section and do not trust the solver under
test: zeros are re-evaluated on coefficients the benchmark builds itself
and compared with ``numpy.roots``; every radius is put back into its
defining equation, and the radii are checked to hold the ``numpy.roots``
zeros.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: backward-error ratio |P(w)| / sum |b_k| |w|^k accepted when the benchmark
#: re-evaluates a returned zero; the solver stops at 1e-10 on its own
#: scaled polynomial, and the margin covers rounding in a second Horner pass
BACKWARD_TOL = 1e-8
#: relative slack of the containment checks, as in the acceptance suite
CONTAIN_TOL = 1e-8
#: largest |ln(rhs / lhs)| of a radius's defining equation at the returned
#: radius; the solver polishes ln x to about 1e-13, and the slope of the
#: equation in ln x is at most the degree
RADIUS_TOL = 1e-8
#: largest distance from a numpy.roots zero to the nearest returned zero
ROOTS_MATCH_TOL = 1e-6
#: degrees up to which returned zeros are cross-checked with numpy.roots
NP_ROOTS_MAX_DEGREE = 1024


@dataclass
class Request:
    """One call a desk user waits for; it completes ``items`` work items."""

    label: str
    items: int
    fn: Callable[[], object]
    data: object = None


# -- reference arithmetic, independent of the package ---------------------

def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def backward_error(coeffs, zeros) -> float:
    """Largest |P(w)| / sum |b_k| |w|^k over the given zeros.

    Points outside the unit disk are evaluated on the reversed polynomial at
    1/w, which divides both sides by |w|^n.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    w = np.asarray(zeros, dtype=np.complex128)
    if w.size == 0:
        return 0.0
    a = np.abs(c)
    worst = 0.0
    inner = np.abs(w) <= 1.0
    for cc, aa, pts in ((c, a, w[inner]), (c[::-1], a[::-1], 1.0 / w[~inner])):
        if pts.size:
            num = np.abs(_horner(cc, pts))
            den = np.abs(_horner(aa.astype(np.complex128), np.abs(pts)))
            # den is 0 only at an exact zero at the origin of a polynomial
            # with b_0 = 0, where num is 0 too
            ratio = np.divide(num, den, out=np.where(num == 0, 0.0, np.inf),
                              where=den > 0)
            worst = max(worst, float(np.max(ratio)))
    return worst


def reference_zeros(coeffs) -> np.ndarray:
    """Finite zeros by numpy.roots, with the zeros at the origin included."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return np.roots(c[::-1])


def max_match_distance(got, ref) -> float:
    """Largest distance from a point of either set to the nearest of the other."""
    got = np.asarray(got, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    if got.size != ref.size:
        return math.inf
    if got.size == 0:
        return 0.0
    d = np.abs(got[:, None] - ref[None, :])
    return float(max(np.max(np.min(d, axis=0)), np.max(np.min(d, axis=1))))


def family_coeffs(family: str, n: int) -> np.ndarray:
    """a_0..a_n of the families the checks need, built from their definitions."""
    name, _, arg = family.partition(":")
    k = np.arange(n + 1)
    if name == "geometric":
        return np.ones(n + 1, dtype=np.complex128)
    if name == "inverse_one_minus_zN":
        return (k % int(arg) == 0).astype(np.complex128)
    if name == "lacunary":
        q = int(arg)
        out = np.zeros(n + 1, dtype=np.complex128)
        p = 1
        while p <= n:
            out[p] = 1.0
            p *= q
        return out
    if family == "rational:1,1|1,-1":
        # (1 + z) / (1 - z) = 1 + 2 z + 2 z^2 + ...
        out = np.full(n + 1, 2.0, dtype=np.complex128)
        out[0] = 1.0
        return out
    raise ValueError(f"no reference coefficients for {family!r}")


def containment_ok(moduli, outer, inner, V, v) -> bool:
    """Outer/inner radii hold every zero; V[m-1] and v[m-1] trap m each side.

    ``moduli`` may hold inf for zeros at infinity; ``inner`` and ``v`` may be
    None when the constant coefficient vanishes.
    """
    srt = np.sort(np.asarray(moduli, dtype=float))
    finite = srt[np.isfinite(srt)]
    if finite.size and finite[-1] > outer * (1 + CONTAIN_TOL):
        return False
    ms = np.arange(1, len(V) + 1)
    inside = np.searchsorted(srt, np.asarray(V) * (1 + CONTAIN_TOL), "right")
    if np.any(inside < ms):
        return False
    if inner is None:
        return True
    nonzero = srt[srt > 0]
    if nonzero.size and nonzero[0] < inner * (1 - CONTAIN_TOL):
        return False
    outside = len(srt) - np.searchsorted(srt, np.asarray(v) * (1 - CONTAIN_TOL),
                                         "left")
    return bool(np.all(outside >= np.arange(1, len(v) + 1)))


def _equation_error(log_lhs, p, log_w, powers, x, empty) -> float:
    """|ln(sum_j w_j x^powers_j) - ln(lhs x^p)|, with the w_j given as logs.

    ``empty`` is the radius the equation gives when no w_j is nonzero; any
    other radius there, and a radius of 0 or inf otherwise, scores inf.
    """
    keep = np.isfinite(log_w)
    if not np.any(keep):
        return 0.0 if x == empty else math.inf
    if not 0.0 < x < math.inf:
        return math.inf
    u = math.log(x)
    a = log_w[keep] + powers[keep] * u
    top = float(np.max(a))
    return abs(top + math.log(float(np.sum(np.exp(a - top))))
               - log_lhs - p * u)


def radii_error(coeffs, outer, inner, V, v) -> float:
    """Largest residual of the radii in their defining equations.

    ``V[m-1]`` and ``v[m-1]`` are the outer and inner van Vleck radii for
    m = 1, 2, ...; ``inner`` is None and ``v`` empty or None when the
    constant coefficient vanishes. The equations are those of the
    ``szego.bounds`` docstrings, evaluated in log space:

    * Cauchy: |b_n| x^n = sum_{k<n} |b_k| x^k,
    * inner Cauchy: |b_0| = sum_{k>=1} |b_k| y^k,
    * van Vleck: |b_n| x^n = sum_{j<m} C(n-j-1, m-j-1) |b_j| x^j,
    * inner van Vleck: |b_0| = sum_{k>n-m} C(k-1, k-(n-m)-1) |b_k| y^k.

    Containment alone passes any radius that is too large; the equations
    catch it. V_m is neither monotone in m nor below the Cauchy radius
    (for 1 + z^n, V_1 = V_n = 1 < V_2), so no such order is checked.
    """
    a = np.abs(np.asarray(coeffs, dtype=np.complex128))
    n = len(a) - 1
    with np.errstate(divide="ignore"):
        la = np.log(a)
    k = np.arange(n + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])

    def log_binom(top, bottom):
        return log_fact[top] - log_fact[bottom] - log_fact[top - bottom]

    v = list(v or [])
    errs = []
    if a[n] == 0:
        errs.append(0.0 if outer == math.inf
                    and all(x == math.inf for x in V) else math.inf)
    else:
        errs.append(_equation_error(la[n], n, la[:n], k[:n], outer, 0.0))
        for m, x in enumerate(V, 1):
            j = k[:m]
            w = la[:m] + log_binom(n - j - 1, m - j - 1)
            errs.append(_equation_error(la[n], n, w, j, x, 0.0))
    if inner is None or a[0] == 0:
        errs.append(0.0 if inner is None and a[0] == 0 and not v
                    else math.inf)
    else:
        errs.append(_equation_error(la[0], 0, la[1:], k[1:], inner, math.inf))
        for m, y in enumerate(v, 1):
            kk = k[n - m + 1:]
            w = la[n - m + 1:] + log_binom(kk - 1, kk - (n - m) - 1)
            errs.append(_equation_error(la[0], 0, w, kk, y, math.inf))
    return max(errs)


# -- bounds_sweep ---------------------------------------------------------

class BoundsSweep:
    """Complex-Gaussian polynomials shaped like acceptance criterion 4.

    The mix holds ``count`` degrees evenly spaced over [2, max_degree];
    every fourth degree gets 1-3 zeros at the origin and the one after it
    1-3 zeros at infinity, so every seed costs about the same. The seed
    draws the coefficients, the number of those zeros and the order. One
    polynomial is one request: its zeros, both Cauchy radii and both van
    Vleck radii for every m.
    """

    name = "bounds_sweep"
    unit = "polynomial"

    def __init__(self, szego, seed: int, tiny: bool, workdir: str):
        self.sz = szego
        self.seed = seed
        self.count = 8 if tiny else 48
        self.max_degree = 16 if tiny else 128

    def requests(self) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        degrees = np.round(np.linspace(2, self.max_degree, self.count))
        out = []
        for k in rng.permutation(self.count):
            deg, style = int(degrees[k]), k % 4
            coef = (rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
            if style == 0:
                coef[:int(rng.integers(1, min(4, deg)))] = 0.0
            elif style == 1:
                coef[deg + 1 - int(rng.integers(1, min(4, deg))):] = 0.0
            out.append(Request(f"deg {deg}", 1,
                               lambda c=coef, d=deg: self._item(c, d),
                               (coef, deg)))
        return out

    def _item(self, coef, deg):
        sz = self.sz
        try:
            Z = sz.find_zeros(sz.Polynomial(coef, deg))
            nz = np.nonzero(coef)[0]
            core = sz.Polynomial(coef[nz[0]:nz[-1] + 1].copy(),
                                 int(nz[-1] - nz[0]))
            n = core.formal_degree
            return (Z, sz.cauchy_bound(core), sz.inner_cauchy_bound(core),
                    [sz.van_vleck_bound(core, m) for m in range(1, n + 1)],
                    [sz.inner_van_vleck_bound(core, m) for m in range(1, n + 1)])
        except sz.ConvergenceError:
            return None

    def check(self, mix, outcomes):
        failures = {}
        for i, req in enumerate(mix):
            first = outcomes[i][0]
            if any(not _same_sweep(first, o) for o in outcomes[i][1:]):
                msg = "result differs between repeats"
            else:
                msg = self._check_one(first, *req.data)
            if msg:
                failures[i] = (1, f"{req.label}: {msg}")
        return failures

    def _check_one(self, outcome, coef, deg):
        if outcome is None:
            return "ConvergenceError"
        Z, outer, inner, V, v = outcome
        if len(Z.finite_zeros) + Z.infinity_count != deg:
            return "zero count differs from the degree"
        if backward_error(coef, Z.finite_zeros) > BACKWARD_TOL:
            return "backward error above tolerance"
        nz = np.nonzero(coef)[0]
        core = coef[nz[0]:nz[-1] + 1]
        err = radii_error(core, outer, inner, V, v)
        if err > RADIUS_TOL:
            return f"a radius misses its equation by {err:.2e}"
        if not containment_ok(np.abs(reference_zeros(core)), outer, inner,
                              V, v):
            return "a numpy.roots zero escapes a bound"
        return None


def _same_sweep(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (np.array_equal(a[0].finite_zeros, b[0].finite_zeros)
            and a[0].infinity_count == b[0].infinity_count and a[1:] == b[1:])


# -- sections_cli ---------------------------------------------------------

_CARLSON_T = 0.5

#: sizes of the CLI mix, fixed because the solver's cost jumps between
#: neighbouring n; the carlson gauge horizon is twice the lacunary one
_CLI_SIZES = {
    False: {"geometric": 2048, "inverse": 1024, "rational": 640,
            "lacunary": 1088, "carlson": 512, "bounds": 128,
            "horizon": 16384, "cycle": '[["3"],["4"],["3"],["6/5"]]'},
    True: {"geometric": 44, "inverse": 33, "rational": 26, "lacunary": 33,
           "carlson": 26, "bounds": 24, "horizon": 2048,
           "cycle": '[["2"],["3"]]'},
}


class SectionsCli:
    """A fixed mix of in-process ``szego`` CLI commands writing to files.

    The seed orders the mix. Every repeat of a command must write the same
    bytes.
    """

    name = "sections_cli"
    unit = "command"

    def __init__(self, szego, seed: int, tiny: bool, workdir: str):
        self.sz = szego
        self.seed = seed
        self.workdir = workdir
        self._serial = itertools.count()
        self.tiny = tiny

    def requests(self) -> list[Request]:
        n = {k: str(v) for k, v in _CLI_SIZES[self.tiny].items()}
        tgrid = ["--t-grid", "0.9,1.0,1.1"]
        carlson = f"carlson:{_CARLSON_T},0.5"
        commands = [
            ["zeros", "--family", "geometric", "--n", n["geometric"],
             "--format", "json"],
            ["zeros", "--family", "inverse_one_minus_zN:3", "--n", n["inverse"],
             "--format", "csv"],
            ["zeros", "--family", "rational:1,1|1,-1", "--n", n["rational"],
             "--format", "json"],
            ["measure", "--family", "lacunary:2", "--n", n["lacunary"]] + tgrid,
            ["measure", "--family", carlson, "--n", n["carlson"]] + tgrid,
            ["gauge", "--family", "lacunary:2", "--horizon", n["horizon"]],
            ["gauge", "--family", carlson, "--horizon",
             str(2 * int(n["horizon"]))],
        ] + [
            ["bounds", "--family", fam, "--n", n["bounds"]]
            for fam in ("geometric", "lacunary:2", "inverse_one_minus_zN:3",
                        "rational:1,1|1,-1")
        ] + [
            ["universal", "--targets", '[["3/2","2"],["3"]]'],
            ["universal", "--targets", n["cycle"]],
        ]
        order = np.random.default_rng(self.seed).permutation(len(commands))
        return [Request(" ".join(argv[:3]), 1,
                        lambda a=argv: self._main(a), argv)
                for argv in (commands[i] for i in order)]

    def _main(self, argv):
        path = os.path.join(self.workdir, f"{next(self._serial)}.out")
        return self.sz.cli.main(argv + ["--out", path]), path

    def check(self, mix, outcomes):
        failures = {}
        for i, req in enumerate(mix):
            msg = None
            texts = []
            for rc, path in outcomes[i]:
                if rc != 0:
                    msg = f"exit code {rc}"
                    break
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            if msg is None and any(t != texts[0] for t in texts):
                msg = "output differs between repeats"
            if msg is None:
                msg = _check_cli_output(req.data, texts[0].decode())
            if msg:
                failures[i] = (1, f"{' '.join(req.data)}: {msg}")
        return failures


def _check_cli_output(argv, text):
    kind = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    family = opt.get("--family")
    if kind == "zeros":
        return _check_zeros(family, int(opt["--n"]), opt["--format"], text)
    doc = json.loads(text)
    if kind == "measure":
        return _check_measure(doc)
    if kind == "gauge":
        name, _, arg = family.partition(":")
        want = 1 - 1 / int(arg) if name == "lacunary" else _CARLSON_T
        grid = np.asarray(doc["gamma_grid"])
        tol = 0.05 + float(np.min(np.abs(grid - want)))
        if abs(doc["Gamma_hat"] - want) > tol:
            return (f"Gamma_hat {doc['Gamma_hat']} is not within {tol:.3f} "
                    f"of {want:.3f}")
        return None
    if kind == "bounds":
        c = family_coeffs(family, int(opt["--n"]))
        n = len(c) - 1
        roots = reference_zeros(c)
        moduli = np.concatenate([np.abs(roots), np.full(n - len(roots), np.inf)])
        ms = sorted(int(m) for m in doc["van_vleck"])
        V = [doc["van_vleck"][str(m)] for m in ms]
        v = [doc["inner_van_vleck"][str(m)] for m in ms] \
            if doc["inner_cauchy"] is not None else None
        if ms != list(range(1, len(ms) + 1)):
            return "van Vleck radii are not reported for m = 1, 2, ..."
        err = radii_error(c, doc["cauchy"], doc["inner_cauchy"], V, v)
        if err > RADIUS_TOL:
            return f"a radius misses its equation by {err:.2e}"
        if not containment_ok(moduli, doc["cauchy"], doc["inner_cauchy"], V, v):
            return "a numpy.roots zero escapes a bound"
        return None
    if kind == "universal":
        steps = doc["steps"]
        want = len(json.loads(opt["--targets"]))
        if len(steps) != want:
            return f"{len(steps)} steps reported, expected {want}"
        for s in steps:
            if not s["levy"] <= 1.0 / s["k"]:
                return f"step {s['k']} levy {s['levy']} above 1/{s['k']}"
        return None
    return f"no check for {kind}"


def _check_zeros(family, n, fmt, text):
    if fmt == "json":
        doc = json.loads(text)
        zeros = np.array([complex(re, im) for re, im in doc["finite_zeros"]])
        inf_count = doc["infinity_count"]
    else:
        zs, inf_count = [], None
        for line in text.splitlines()[1:]:
            if line.startswith("# infinity_count:"):
                inf_count = int(line.split(":")[1])
            elif line:
                re, im, mult = line.split(",")
                zs.extend([complex(float(re), float(im))] * int(mult))
        zeros = np.array(zs, dtype=np.complex128)
    if inf_count is None or len(zeros) + inf_count != n:
        return "zero count differs from the degree"
    c = family_coeffs(family, n)
    err = backward_error(c, zeros)
    if err > BACKWARD_TOL:
        return f"backward error {err:.2e} above {BACKWARD_TOL:.0e}"
    if n <= NP_ROOTS_MAX_DEGREE:
        dist = max_match_distance(zeros, reference_zeros(c))
        if dist > ROOTS_MATCH_TOL:
            return f"numpy.roots zeros differ by {dist:.2e}"
    return None


def _check_measure(doc):
    radii = np.asarray(doc["radii"], dtype=float)
    weights = np.asarray(doc["weights"], dtype=float)
    if len(radii) != len(weights) or np.any(np.diff(radii) < 0):
        return "radii and weights do not form a sorted measure"
    if abs(weights.sum() - 1.0) > 1e-9:
        return "measure mass is not 1"
    if abs(weights[np.isinf(radii)].sum() - doc["infinity_mass"]) > 1e-12:
        return "infinity mass disagrees with the atom at infinity"
    for t, F in zip(doc["t_grid"], doc["counting_fn"]):
        if abs(weights[radii <= t].sum() - F) > 1e-9:
            return f"counting function at {t} disagrees with the measure"
    return None


# -- mc_ensembles ---------------------------------------------------------

class McEnsembles:
    """Monte Carlo zero statistics at one and two workers.

    The mix runs ``mc_expected_cdf`` at n = 256, t-grid (0.9, 1, 1.1) and
    Weyl order 1 for three ensembles, each at one worker and at two, plus a
    reversal-symmetry check on the complex Gaussian. One call is one
    request; one sampled trial is one item.
    """

    name = "mc_ensembles"
    unit = "trial"
    ENSEMBLES = ("gaussian_complex", "bernoulli(0.5)", "log_heavy_tail(2)")
    T_GRID = (0.9, 1.0, 1.1)

    def __init__(self, szego, seed: int, tiny: bool, workdir: str):
        self.sz = szego
        self.seed = seed
        self.n = 24 if tiny else 256
        self.trials = 10

    def requests(self) -> list[Request]:
        sz, n, trials, seed = self.sz, self.n, self.trials, self.seed
        out = []
        for ens in self.ENSEMBLES:
            for workers in (1, 2):
                out.append(Request(
                    f"mc {ens} workers={workers}", trials,
                    lambda e=ens, w=workers: self._call(
                        sz.mc_expected_cdf, e, n, self.T_GRID, trials, seed,
                        weyl_orders=(1,), workers=w),
                    workers))
        out.append(Request(
            "symmetry gaussian_complex", trials,
            lambda: self._call(sz.reversal_symmetry_check, "gaussian_complex",
                               n, 0.8, trials, seed)))
        return out

    def _call(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except self.sz.ConvergenceError:
            return None

    def check(self, mix, outcomes):
        failures = {}
        for i, req in enumerate(mix):
            first = outcomes[i][0]
            if first is None:
                failures[i] = (req.items, f"{req.label}: ConvergenceError")
            elif any(o != first for o in outcomes[i][1:]):
                failures[i] = (req.items, f"{req.label}: report differs "
                                          "between repeats")
            elif first.trials_used + first.failures != req.items:
                failures[i] = (req.items, f"{req.label}: trial accounting is off")
            elif req.data == 2 and (first != outcomes[i - 1][0]
                                    or first.to_dict() != outcomes[i - 1][0].to_dict()):
                failures[i] = (req.items, f"{req.label}: report differs from "
                                          "workers=1")
            elif first.failures:
                failures[i] = (first.failures,
                               f"{req.label}: {first.failures} trials left out")
        return failures


WORKLOADS = {w.name: w for w in (BoundsSweep, SectionsCli, McEnsembles)}
