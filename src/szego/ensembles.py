"""Random coefficient ensembles with reproducible counter-based sampling.

Every draw is addressed by (seed, trial, block): a Philox generator is keyed
by (seed, trial) and its counter is jumped to the block, so coefficient k of
any trial can be regenerated independently of how many coefficients were
consumed before it. Each ensemble spends a fixed number of uniforms or
normals per block, which makes sampled paths identical across horizons and
across worker counts.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .gauge import _check_gamma, _window_start
from .measures import _check_radii, _weyl_order, counting_fn, weyl_sum
from .roots import ZeroSet, _zero_sets
from .series import Polynomial, _check_horizon, _exact, _integer

__all__ = [
    "BLOCK",
    "Ensemble",
    "ConditionFlags",
    "MCReport",
    "SymmetryReport",
    "as_ensemble",
    "sample_coeffs",
    "sample_log_abs",
    "check_conditions",
    "mc_expected_cdf",
    "reversal_symmetry_check",
    "path_root_limsup",
    "dyadic_empty_window_probe",
]

#: coefficients generated per counter jump
BLOCK = 1024

#: value-channel magnitudes saturate at exp(700); the log channel is exact
_LOG_SATURATION = 700.0

#: most sampled coefficients per lockstep batch of Monte Carlo trials: the
#: solver's Horner tables and powers grow with the batch, not with trials
_BATCH_COEFFS = 1 << 11

_KINDS = {
    "gaussian_complex": False,
    "gaussian_real": False,
    "uniform_disk": False,
    "bernoulli": True,
    "bernoulli_inv_n": False,
    "log_heavy_tail": True,
}


@dataclass(frozen=True)
class Ensemble:
    """A coefficient law: its kind, plus a parameter for two of the kinds.

    - ``gaussian_complex``, ``gaussian_real``, ``uniform_disk``: iid
      standard complex or real normals, or uniform on the unit disk.
    - ``bernoulli`` (p): iid 0/1 coefficients with P(a_k = 1) = p.
    - ``bernoulli_inv_n``: independent 0/1 coefficients with
      P(a_k = 1) = 1/k (and a_0 = 1). Not identically distributed and not
      uniformly non-null: the success probabilities decay, yet their
      divergent sum still forces infinitely many nonzero coefficients
      along almost every path.
    - ``log_heavy_tail`` (alpha): |a_k| = exp(V) with V Pareto(alpha),
      uniform phase, for finite alpha > 53/1024. E[ln^+ |a_k|] = E[V] is
      finite only for alpha > 1; at or below 1 the log moment diverges and
      root clustering at the unit circle may fail.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        needs_param = _KINDS[self.kind]
        if needs_param and self.param is None:
            raise DomainError(f"ensemble {self.kind} requires a parameter")
        if not needs_param and self.param is not None:
            raise DomainError(f"ensemble {self.kind} takes no parameter")
        if needs_param and not isinstance(self.param, numbers.Real):
            raise DomainError(f"ensemble {self.kind} parameter must be a real "
                              f"number, got {self.param!r}")
        if self.kind == "bernoulli" and not 0.0 < self.param <= 1.0:
            raise DomainError("bernoulli probability must lie in (0, 1]")
        # 1 - u >= 2^-53, so (1 - u)^(-1/alpha) overflows once alpha <= 53/1024
        if self.kind == "log_heavy_tail" and not 53 / 1024 < self.param < math.inf:
            raise DomainError("heavy tail exponent must be finite and exceed 53/1024")

    @property
    def iid(self) -> bool:
        return self.kind != "bernoulli_inv_n"

    @property
    def has_log_moment(self) -> bool:
        if self.kind == "log_heavy_tail":
            return self.param > 1.0
        return True

    @property
    def uniformly_non_null(self) -> bool:
        return self.kind != "bernoulli_inv_n"

    def descriptor(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param:g})"


_ENSEMBLE_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")


def as_ensemble(source) -> Ensemble:
    """Coerce a string like 'bernoulli(0.5)' or an Ensemble to an Ensemble."""
    if isinstance(source, Ensemble):
        return source
    m = _ENSEMBLE_RE.match(str(source).strip())
    if not m:
        raise DomainError(f"cannot parse ensemble descriptor {source!r}")
    kind, arg = m.group(1), m.group(2)
    try:
        param = float(arg) if arg not in (None, "") else None
    except ValueError:
        raise DomainError(f"bad ensemble parameter in {source!r}") from None
    return Ensemble(kind, param)


def _block_generator(seed: int, trial: int, block: int) -> np.random.Generator:
    key = np.random.SeedSequence((int(seed), int(trial))).generate_state(2, np.uint64)
    bitgen = np.random.Philox(counter=[0, 0, int(block), 0], key=key)
    return np.random.Generator(bitgen)


def _draw_block(E: Ensemble, seed: int, trial: int, block: int):
    """One block of (values, log magnitudes) for indices [block*B, block*B + B)."""
    gen = _block_generator(seed, trial, block)
    kind = E.kind
    if kind == "gaussian_complex":
        xy = gen.standard_normal(2 * BLOCK)
        vals = (xy[:BLOCK] + 1j * xy[BLOCK:]) / math.sqrt(2.0)
    elif kind == "gaussian_real":
        vals = gen.standard_normal(BLOCK).astype(np.complex128)
    elif kind == "uniform_disk":
        u = gen.random(2 * BLOCK)
        vals = np.sqrt(u[:BLOCK]) * np.exp(2j * np.pi * u[BLOCK:])
    elif kind == "bernoulli":
        vals = (gen.random(BLOCK) < E.param).astype(np.complex128)
    elif kind == "bernoulli_inv_n":
        ks = block * BLOCK + np.arange(BLOCK)
        probs = np.ones(BLOCK)
        np.divide(1.0, ks, out=probs, where=ks > 0)
        vals = (gen.random(BLOCK) < probs).astype(np.complex128)
    elif kind == "log_heavy_tail":
        u = gen.random(2 * BLOCK)
        u1 = 1.0 - u[:BLOCK]  # in (0, 1], avoids 0**negative
        logs = u1 ** (-1.0 / E.param)
        phase = np.exp(2j * np.pi * u[BLOCK:])
        vals = np.exp(np.minimum(logs, _LOG_SATURATION)) * phase
        return vals, logs
    else:  # pragma: no cover
        raise DomainError(f"unknown ensemble kind {kind!r}")
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(vals))
    return vals, logs


def _check_seed(seed: int, trial: int = 0) -> None:
    # numpy's SeedSequence takes nonnegative integers only
    if seed < 0 or trial < 0:
        raise DomainError(f"seed and trial index must be nonnegative, "
                          f"got seed {seed} and trial {trial}")


def _check_trials(n, trials, seed) -> tuple[int, int, int]:
    """n, trials and seed of a Monte Carlo run, read exactly and checked."""
    trials = _integer(trials)
    if trials < 10:
        raise DomainError("need at least 10 trials")
    n = _check_horizon(n)
    if n < 1:
        raise DomainError("section index n must be at least 1")
    seed = _integer(seed)
    _check_seed(seed)
    return n, trials, seed


def _sample(E: Ensemble, n: int, seed: int, trial: int):
    n = _check_horizon(n)
    seed, trial = _integer(seed), _integer(trial)
    _check_seed(seed, trial)
    blocks = [_draw_block(E, seed, trial, b) for b in range(n // BLOCK + 1)]
    vals = np.concatenate([v for v, _ in blocks])[:n + 1]
    logs = np.concatenate([l for _, l in blocks])[:n + 1]
    return vals, logs


def sample_coeffs(E: Ensemble, n: int, seed: int, trial: int = 0) -> np.ndarray:
    """Coefficients a_0..a_n of one sampled path."""
    return _sample(as_ensemble(E), n, seed, trial)[0]


def sample_log_abs(E: Ensemble, n: int, seed: int, trial: int = 0) -> np.ndarray:
    """ln |a_0| .. ln |a_n| of one sampled path, exact for heavy tails."""
    return _sample(as_ensemble(E), n, seed, trial)[1]


@dataclass(frozen=True)
class ConditionFlags:
    log_moment_bounded: bool
    uniformly_non_null: bool
    iid: bool
    szego_expected: bool


def check_conditions(E: Ensemble) -> ConditionFlags:
    """Declared distributional hypotheses and the clustering verdict they imply."""
    E = as_ensemble(E)
    return ConditionFlags(
        log_moment_bounded=E.has_log_moment,
        uniformly_non_null=E.uniformly_non_null,
        iid=E.iid,
        szego_expected=E.has_log_moment and E.uniformly_non_null,
    )


def _usable(coeffs: np.ndarray) -> bool:
    """A sampled section can be solved: finite and not identically zero."""
    return bool(np.any(coeffs)) and bool(np.all(np.isfinite(coeffs)))


def _batches(n: int, trials: int, workers: int) -> list[range]:
    """Consecutive trial indices cut into batches of near-equal size: one
    per worker, or more so that no batch holds over _BATCH_COEFFS sampled
    coefficients (a batch of one trial may, when n + 1 alone is over)."""
    per = max(1, _BATCH_COEFFS // (n + 1))
    count = min(trials, max(workers, -(-trials // per)))
    cuts = [trials * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _solve_trials(E: Ensemble, n: int, seed: int,
                  trials: range) -> list[ZeroSet | None]:
    """Zeros of each sampled section, None where one cannot be solved.

    The usable sections are solved in lockstep, and each one's zeros are
    bit-identical to its solo ``find_zeros``, so no result depends on the
    batch a trial falls in.
    """
    coeffs = [sample_coeffs(E, n, seed, trial) for trial in trials]
    usable = [i for i, c in enumerate(coeffs) if _usable(c)]
    out: list[ZeroSet | None] = [None] * len(coeffs)
    solved = _zero_sets([Polynomial(coeffs[i], n) for i in usable])
    for i, Z in zip(usable, solved):
        if not isinstance(Z, ConvergenceError):
            out[i] = Z
    return out


def _batch_cdf(args):
    """(F on the grid, Weyl sums) of each trial of a batch, or (None, None)
    where the trial fails."""
    E, n, seed, trials, t_grid, weyl_orders = args
    out = []
    for Z in _solve_trials(E, n, seed, trials):
        if Z is None:
            out.append((None, None))
            continue
        F = np.asarray(counting_fn(Z, t_grid), dtype=float)
        out.append((F, [weyl_sum(Z, m) for m in weyl_orders]))
    return out


def _trial_rows(E: Ensemble, n: int, seed: int, trials: int, t_grid,
                weyl_orders, workers: int) -> list:
    """`_batch_cdf` of every trial, in trial order: the batches of
    `_batches`, mapped over a process pool when workers > 1."""
    jobs = [(E, n, seed, batch, t_grid, weyl_orders)
            for batch in _batches(n, trials, workers)]
    if workers > 1:
        # attribute access loads the pool machinery (multiprocessing) only here
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_batch_cdf, jobs))
    else:
        parts = [_batch_cdf(j) for j in jobs]
    return [r for part in parts for r in part]


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo estimate of the expected zero-counting function."""

    ensemble: str
    n: int
    seed: int
    t_grid: tuple[float, ...]
    phi_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    trials: int
    trials_used: int
    failures: int
    weyl_orders: tuple[int, ...] = ()
    weyl_mean_abs: tuple[float, ...] = ()
    weyl_abs_mean: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        d = {
            "ensemble": self.ensemble,
            "n": self.n,
            "seed": self.seed,
            "t_grid": list(self.t_grid),
            "phi_hat": list(self.phi_hat),
            "stderr": list(self.stderr),
            "trials": self.trials,
            "trials_used": self.trials_used,
            "failures": self.failures,
        }
        if self.weyl_orders:
            d["weyl_orders"] = list(self.weyl_orders)
            d["weyl_mean_abs"] = list(self.weyl_mean_abs)
            d["weyl_abs_mean"] = list(self.weyl_abs_mean)
        return d


def mc_expected_cdf(E: Ensemble, n: int, t_grid, trials: int, seed: int,
                    weyl_orders=(), workers: int = 1) -> MCReport:
    """Average the section zero counting function over independent trials.

    Trials whose section is identically zero or not finite, or whose root
    solve does not converge, are counted as failures and excluded from the
    average. ``workers`` must be at least 1. The trials are solved in
    batches of consecutive indices, one per worker or more when a batch
    would hold over _BATCH_COEFFS sampled coefficients, and the pool takes
    one batch per task. Each trial's zeros are bit-identical to its solo
    ``find_zeros`` in any batch, and trial outputs are reduced in trial
    order regardless of completion order, so results are byte-identical
    for any worker count.
    """
    E = as_ensemble(E)
    n, trials, seed = _check_trials(n, trials, seed)
    workers = _integer(workers)
    if workers < 1:
        raise DomainError("workers must be at least 1")
    t_grid = np.atleast_1d(_check_radii(t_grid))
    if t_grid.size == 0:
        raise DomainError("t grid needs at least one radius")
    weyl_orders = tuple(_weyl_order(m) for m in weyl_orders)
    results = _trial_rows(E, n, seed, trials, t_grid, weyl_orders, workers)
    rows = [F for F, _ in results if F is not None]
    weyl_rows = [s for F, s in results if F is not None]
    used = len(rows)
    failures = trials - used
    if used == 0:
        raise ConvergenceError("every trial failed", residual=float("nan"))
    mat = np.vstack(rows)
    phi = mat.mean(axis=0)
    if used > 1:
        se = mat.std(axis=0, ddof=1) / math.sqrt(used)
    else:
        se = np.full(t_grid.shape, np.nan)
    weyl_mean = tuple(
        float(np.abs(np.mean([row[i] for row in weyl_rows])))
        for i in range(len(weyl_orders))
    )
    weyl_abs = tuple(
        float(np.mean([abs(row[i]) for row in weyl_rows]))
        for i in range(len(weyl_orders))
    )
    return MCReport(
        ensemble=E.descriptor(), n=int(n), seed=int(seed),
        t_grid=tuple(float(t) for t in t_grid),
        phi_hat=tuple(float(x) for x in phi),
        stderr=tuple(float(x) for x in se),
        trials=int(trials), trials_used=used, failures=failures,
        weyl_orders=weyl_orders, weyl_mean_abs=weyl_mean,
        weyl_abs_mean=weyl_abs,
    )


@dataclass(frozen=True)
class SymmetryReport:
    lhs: float
    rhs: float
    diff: float
    stderr: float
    boundary_allowance: float
    trials_used: int
    failures: int


def reversal_symmetry_check(E: Ensemble, n: int, t: float, trials: int,
                            seed: int) -> SymmetryReport:
    """Test of E[F_n(t)] = 1 - E[F_n((1/t)-)] for iid ensembles.

    Reversing the coefficient order inverts every zero through the unit
    circle, and for an iid ensemble the reversed section has the same law,
    so the expected mass inside radius t matches the expected mass at or
    beyond 1/t, zeros at infinity included. Each trial is solved once;
    lhs is the mean of F(t), rhs is 1 - the mean fraction of zeros strictly
    inside 1/t, and diff and stderr are the mean and standard error of the
    per-trial differences. The reported boundary allowance is the average
    atom mass sitting on |w| = t; diff should be explained by it plus a
    few standard errors.
    """
    E = as_ensemble(E)
    if not E.iid:
        raise DomainError("reversal symmetry needs an iid ensemble")
    t = _exact(t)
    # a radius that rounds to 0.0 would leave 1/t undefined
    if not (0 < t <= 1 and float(t) > 0):
        raise DomainError("radius t must be a float in (0, 1]")
    t = float(t)
    n, trials, seed = _check_trials(n, trials, seed)
    # F(t); F((1/t)-) as F at the float below 1/t; and the band
    # |w - t| <= 1e-9 as F(t + 1e-9) less F just below t - 1e-9, where a
    # band reaching down to 0 has nothing below it
    grid = np.array([t, np.nextafter(1.0 / t, 0.0), t + 1e-9,
                     np.nextafter(max(t - 1e-9, 0.0), 0.0)])
    rows = [F for F, _ in _trial_rows(E, n, seed, trials, grid, (), 1)
            if F is not None]
    used = len(rows)
    if used < 2:
        raise ConvergenceError("too few usable trials", residual=float("nan"))
    inside, inside_inverse, above, below = np.array(rows).T
    boundary = above - below if t > 1e-9 else above
    d = inside + inside_inverse - 1.0
    return SymmetryReport(
        lhs=float(np.mean(inside)),
        rhs=float(1.0 - np.mean(inside_inverse)),
        diff=float(np.mean(d)),
        stderr=float(np.std(d, ddof=1) / math.sqrt(used)),
        boundary_allowance=float(np.mean(boundary)),
        trials_used=used,
        failures=trials - used,
    )


def path_root_limsup(E: Ensemble, N: int, seed: int, trial: int = 0) -> float:
    """max over n in [N/2, N] of |a_n|^(1/n) for one sampled path.

    Estimates the limsup of coefficient roots: near 1 when the ensemble has
    a bounded log moment, drifting above 1 along heavy-tailed paths.
    """
    E = as_ensemble(E)
    N = _check_horizon(N)
    if N < 1000:
        raise DomainError("horizon N must be at least 1000")
    logs = sample_log_abs(E, N, seed, trial)
    ns = np.arange((N + 1) // 2, N + 1)
    with np.errstate(over="ignore"):
        return float(np.max(np.exp(logs[ns] / ns)))


def dyadic_empty_window_probe(E: Ensemble, gamma: float, max_n: int,
                              seed: int, trial: int = 0) -> dict[int, bool]:
    """At n = 2, 4, 8, ..., whether the window [(1-gamma) n, n] is all zero.

    For ensembles that are not uniformly non-null this event keeps positive
    probability along the dyadic sequence, which is exactly what breaks the
    window liminf.
    """
    E = as_ensemble(E)
    gamma = _check_gamma(gamma)
    max_n = _check_horizon(max_n)
    if max_n < 2:
        raise DomainError("max_n must be at least 2")
    logs = sample_log_abs(E, max_n, seed, trial)
    out: dict[int, bool] = {}
    n = 2
    while n <= max_n:
        out[n] = bool(np.all(np.isneginf(logs[_window_start(gamma, n):n + 1])))
        n *= 2
    return out
