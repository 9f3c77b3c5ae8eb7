"""Random coefficient ensembles and Monte Carlo distribution estimates."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from szego import (ConvergenceError, DomainError, Ensemble, Polynomial,
                   RandomSeries, SymmetryReport, as_ensemble, check_conditions,
                   counting_fn, dyadic_empty_window_probe, find_zeros,
                   gauge_and_index, mc_expected_cdf, path_root_limsup,
                   reversal_symmetry_check, sample_coeffs, sample_log_abs,
                   weyl_sum)
from szego.ensembles import _KINDS

GAUSS = Ensemble("gaussian_complex")
ALL = [GAUSS, Ensemble("gaussian_real"), Ensemble("uniform_disk"),
       Ensemble("bernoulli", 0.5), Ensemble("bernoulli_inv_n"),
       Ensemble("log_heavy_tail", 2.0)]


def test_prefix_stability():
    # extending the horizon must not change earlier coefficients
    for E in ALL:
        a = sample_coeffs(E, 50, seed=7)
        b = sample_coeffs(E, 200, seed=7)
        assert np.array_equal(a, b[:51])


def test_trial_and_seed_independence():
    E = GAUSS
    a = sample_coeffs(E, 64, seed=3, trial=0)
    b = sample_coeffs(E, 64, seed=3, trial=1)
    c = sample_coeffs(E, 64, seed=4, trial=0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, sample_coeffs(E, 64, seed=3, trial=0))


def test_bernoulli_support():
    vals = sample_coeffs(Ensemble("bernoulli", 1.0), 100, seed=0)
    assert np.array_equal(vals, np.ones(101))
    vals = sample_coeffs(Ensemble("bernoulli", 0.5), 2000, seed=1)
    assert set(np.unique(vals.real)) <= {0.0, 1.0}
    frac = np.mean(vals.real)
    assert abs(frac - 0.5) < 4 * 0.5 / np.sqrt(2001)
    with pytest.raises(DomainError):
        Ensemble("bernoulli", 0.0)
    with pytest.raises(DomainError):
        Ensemble("bernoulli", 1.5)
    for kind, bad in (("bernoulli", "x"), ("bernoulli", "0.5"),
                      ("log_heavy_tail", "x"), ("bernoulli", 0.5j)):
        with pytest.raises(DomainError):
            Ensemble(kind, bad)


def test_second_moments():
    # E|c|^2 is 1 for both gaussians and 1/2 for the uniform disk
    for E, m2 in [(GAUSS, 1.0), (Ensemble("gaussian_real"), 1.0),
                  (Ensemble("uniform_disk"), 0.5)]:
        vals = sample_coeffs(E, 20000, seed=11)
        est = np.mean(np.abs(vals) ** 2)
        assert abs(est - m2) < 4 * m2 / np.sqrt(20001)


def test_gaussian_real_is_real():
    vals = sample_coeffs(Ensemble("gaussian_real"), 500, seed=2)
    assert np.all(vals.imag == 0.0)


def test_heavy_tail_channels():
    E = Ensemble("log_heavy_tail", 0.5)
    logs = sample_log_abs(E, 5000, seed=9)
    vals = sample_coeffs(E, 5000, seed=9)
    assert np.all(logs >= 0.0)
    # the log channel is exact even where the value channel saturates
    with np.errstate(over="ignore"):
        direct = np.log(np.abs(vals))
    ok = logs <= 700.0
    assert np.allclose(direct[ok], logs[ok], rtol=1e-12, atol=1e-12)
    assert np.all(np.isfinite(vals))
    # alpha = 1/2 tails are heavy enough to overflow the float channel
    assert np.any(logs > 700.0)


def test_heavy_tail_exponent_range():
    # 1 - u >= 2^-53, so (1 - u)^(-1/alpha) stays finite exactly above 53/1024
    for bad in (53 / 1024, 1e-300, np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            Ensemble("log_heavy_tail", bad)
    E = Ensemble("log_heavy_tail", np.nextafter(53 / 1024, 1.0))
    with np.errstate(over="raise"):
        assert np.all(np.isfinite(sample_log_abs(E, 5000, seed=9)))
        assert np.isfinite(np.float64(2.0 ** -53) ** (-1.0 / E.param))


def test_bernoulli_inv_n_structure():
    E = Ensemble("bernoulli_inv_n")
    vals = sample_coeffs(E, 3000, seed=5)
    assert vals[0] == 1.0  # index zero stays on with probability one
    assert set(np.unique(vals.real)) <= {0.0, 1.0}
    # density at index k is 1/k, so the count of ones up to n grows
    # like log n; check a generous band
    count = int(np.sum(vals.real))
    assert 3 <= count <= 40


def test_condition_flags():
    f = check_conditions(GAUSS)
    assert f.log_moment_bounded and f.uniformly_non_null and f.iid
    assert f.szego_expected
    f2 = check_conditions(Ensemble("bernoulli_inv_n"))
    assert not f2.iid and not f2.uniformly_non_null
    assert not f2.szego_expected
    f3 = check_conditions(Ensemble("log_heavy_tail", 0.5))
    assert not f3.log_moment_bounded and not f3.szego_expected
    assert check_conditions(Ensemble("log_heavy_tail", 2.0)).log_moment_bounded


# (log_moment_bounded, uniformly_non_null, iid, szego_expected)
_FLAG_TABLE = {
    "gaussian_complex": (True, True, True, True),
    "gaussian_real": (True, True, True, True),
    "uniform_disk": (True, True, True, True),
    "bernoulli(0.5)": (True, True, True, True),
    "bernoulli(1)": (True, True, True, True),
    "bernoulli_inv_n": (True, False, False, False),
    "log_heavy_tail(2)": (True, True, True, True),
    "log_heavy_tail(1)": (False, True, True, False),
    "log_heavy_tail(0.5)": (False, True, True, False),
}


@pytest.mark.parametrize("descriptor", sorted(_FLAG_TABLE))
def test_condition_flags_of_every_kind(descriptor):
    assert {as_ensemble(d).kind for d in _FLAG_TABLE} == set(_KINDS)
    flags = dataclasses.asdict(check_conditions(descriptor))
    assert list(flags) == ["log_moment_bounded", "uniformly_non_null", "iid",
                           "szego_expected"]
    assert tuple(flags.values()) == _FLAG_TABLE[descriptor]
    assert all(type(v) is bool for v in flags.values())


def test_mc_report_dict_keys_and_types():
    kw = dict(n=16, t_grid=[0.9, 1.1], trials=10, seed=3)
    plain = mc_expected_cdf(GAUSS, **kw).to_dict()
    keys = ["ensemble", "n", "seed", "t_grid", "phi_hat", "stderr", "trials",
            "trials_used", "failures"]
    assert list(plain) == keys
    weyl = mc_expected_cdf(GAUSS, weyl_orders=(1, 3), **kw).to_dict()
    assert list(weyl) == keys + ["weyl_orders", "weyl_mean_abs",
                                 "weyl_abs_mean"]
    assert weyl["weyl_orders"] == [1, 3]
    for d in (plain, weyl):
        for key, value in d.items():
            if key == "ensemble":
                assert value == "gaussian_complex"
            elif isinstance(value, list):
                want = int if key == "weyl_orders" else float
                assert all(type(x) is want for x in value), key
            else:
                assert type(value) is int, key
        assert [type(d[key]) for key in keys[3:6]] == [list] * 3
        assert d["t_grid"] == [0.9, 1.1]


def test_as_ensemble_parsing():
    assert as_ensemble("gaussian_complex") == Ensemble("gaussian_complex")
    assert as_ensemble("bernoulli(0.5)") == Ensemble("bernoulli", 0.5)
    assert as_ensemble("log_heavy_tail(2)") == Ensemble("log_heavy_tail", 2.0)
    assert as_ensemble(Ensemble("uniform_disk")) == Ensemble("uniform_disk")
    with pytest.raises(DomainError):
        as_ensemble("no_such_ensemble")
    with pytest.raises(DomainError):
        as_ensemble("gaussian_complex(3)")


def test_mc_expected_cdf_basic():
    rep = mc_expected_cdf(GAUSS, 32, [0.5, 0.9, 1.1, 2.0],
                          trials=40, seed=21)
    assert rep.trials_used == 40 and rep.failures == 0
    # averaged distribution functions stay monotone in t
    assert all(b >= a for a, b in zip(rep.phi_hat, rep.phi_hat[1:]))
    assert rep.phi_hat[0] < 0.2 and rep.phi_hat[-1] > 0.9
    assert all(s >= 0 for s in rep.stderr)
    with pytest.raises(DomainError):
        mc_expected_cdf(GAUSS, 32, [1.1], trials=5, seed=0)


def test_mc_expected_cdf_worker_invariance():
    kw = dict(n=24, t_grid=[0.8, 1.0, 1.25], trials=16, seed=77,
              weyl_orders=(1, 2))
    r1 = mc_expected_cdf(GAUSS, workers=1, **kw)
    r2 = mc_expected_cdf(GAUSS, workers=3, **kw)
    assert r1.phi_hat == r2.phi_hat
    assert r1.stderr == r2.stderr
    assert r1.weyl_mean_abs == r2.weyl_mean_abs
    assert r1.weyl_abs_mean == r2.weyl_abs_mean


def test_mc_weyl_channels():
    rep = mc_expected_cdf(GAUSS, 64, [1.1], trials=30, seed=13,
                          weyl_orders=(1,))
    # per-trial averages of unimodular sums are small for angularly
    # equidistributed zeros
    assert rep.weyl_abs_mean[0] < 0.5
    assert rep.weyl_mean_abs[0] <= rep.weyl_abs_mean[0] + 1e-12


def test_mc_degenerate_trials_counted():
    # with p small most degree-8 draws have a vanishing top coefficient,
    # which reduces the effective degree rather than failing
    rep = mc_expected_cdf(Ensemble("bernoulli", 0.1), 8, [1.5], trials=12,
                          seed=3)
    assert rep.trials_used + rep.failures == 12
    assert rep.trials_used > 0


def test_mc_rejects_worker_count_below_one(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    for workers in (0, -5):
        with pytest.raises(DomainError):
            mc_expected_cdf(GAUSS, 8, [1.0], trials=10, seed=0,
                            workers=workers)


@pytest.mark.parametrize("bad", [
    {"weyl_orders": (1.5,)}, {"weyl_orders": (1, 0)},
    {"weyl_orders": (2 ** 63,)},
    {"trials": 10.5}, {"trials": "x"}, {"workers": 1.5}, {"workers": "x"},
    {"n": 0}, {"seed": 1.5}, {"t_grid": ["x"]}, {"t_grid": [1.0, None]},
])
def test_mc_rejects_bad_arguments_before_any_pool(monkeypatch, bad):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    args = {"n": 8, "t_grid": [1.0], "trials": 10, "seed": 0, "workers": 2,
            **bad}
    with pytest.raises(DomainError):
        mc_expected_cdf(GAUSS, **args)


@pytest.mark.parametrize("bad", [
    {"trials": 10.5}, {"trials": "x"}, {"t": "x"}, {"t": math.nan},
    {"t": 0.0}, {"t": "1e-400"}, {"t": 1.5}, {"n": 0}, {"seed": 1.5},
])
def test_symmetry_check_rejects_bad_arguments_before_sampling(monkeypatch,
                                                              bad):
    import szego.ensembles as ens

    def no_sampling(*args, **kwargs):
        raise AssertionError("a trial was sampled")

    monkeypatch.setattr(ens, "sample_coeffs", no_sampling)
    args = {"n": 12, "t": 0.9, "trials": 12, "seed": 0, **bad}
    with pytest.raises(DomainError):
        reversal_symmetry_check(GAUSS, **args)


def test_symmetry_check_reads_t_exactly():
    # text and exact fractions give the float the same radius does
    a = reversal_symmetry_check(GAUSS, 12, 0.75, trials=10, seed=0)
    for t in ("3/4", "0.75", Fraction(3, 4)):
        assert reversal_symmetry_check(GAUSS, 12, t, trials=10, seed=0) == a


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-3, 2)])
def test_sampling_rejects_a_negative_seed_or_trial(seed, trial):
    for draw in (sample_coeffs, sample_log_abs):
        with pytest.raises(DomainError):
            draw(GAUSS, 8, seed, trial)


#: each random-path entry point, called with a seed and a trial index
_PATH_CALLS = [
    pytest.param(lambda s, t: sample_coeffs(GAUSS, 8, s, t),
                 id="sample_coeffs"),
    pytest.param(lambda s, t: sample_log_abs(GAUSS, 8, s, t),
                 id="sample_log_abs"),
    pytest.param(lambda s, t: path_root_limsup(GAUSS, 1000, s, t),
                 id="path_root_limsup"),
    pytest.param(lambda s, t: dyadic_empty_window_probe(
        Ensemble("bernoulli", 0.5), 0.5, 64, s, t),
                 id="dyadic_empty_window_probe"),
]


@pytest.mark.parametrize("call", _PATH_CALLS)
def test_sampling_reads_seed_and_trial_exactly(call):
    # 2.0 means 2; 1.5 or text would otherwise truncate to another path
    for seed, trial in ((2.0, 0), (2, 3.0), ("2", "3")):
        a, b = call(seed, trial), call(int(seed), int(trial))
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b
    for seed, trial in ((1.5, 0), (0, 0.5), ("x", 0), (0, "1/2")):
        with pytest.raises(DomainError):
            call(seed, trial)


def test_negative_seed_is_rejected_before_any_pool_or_sampling(monkeypatch):
    import szego.ensembles as ens

    def no_sampling(*args, **kwargs):
        raise AssertionError("a trial was sampled")

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(ens, "sample_coeffs", no_sampling)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    with pytest.raises(DomainError):
        mc_expected_cdf(GAUSS, 8, [1.0], trials=10, seed=-1, workers=2)
    with pytest.raises(DomainError):
        mc_expected_cdf(GAUSS, 8, [1.0], trials=10, seed=-1)
    with pytest.raises(DomainError):
        reversal_symmetry_check(GAUSS, 12, 0.9, trials=12, seed=-1)


#: each random-path entry point with an integral horizon it accepts
_HORIZON_CALLS = [
    pytest.param(lambda n: sample_coeffs(GAUSS, n, 0), 8, id="sample_coeffs"),
    pytest.param(lambda n: sample_log_abs(GAUSS, n, 0), 8,
                 id="sample_log_abs"),
    pytest.param(lambda n: RandomSeries(GAUSS, 0).values(n), 8,
                 id="RandomSeries.values"),
    pytest.param(lambda n: mc_expected_cdf(GAUSS, n, [1.0], trials=10,
                                           seed=0), 8, id="mc_expected_cdf"),
    pytest.param(lambda n: mc_expected_cdf(GAUSS, n, [1.0], trials=10,
                                           seed=0, workers=2), 8,
                 id="mc_expected_cdf_pool"),
    pytest.param(lambda n: reversal_symmetry_check(GAUSS, n, 0.9, trials=10,
                                                   seed=0), 8,
                 id="reversal_symmetry_check"),
    pytest.param(lambda n: path_root_limsup(GAUSS, n, 0), 1000,
                 id="path_root_limsup"),
    pytest.param(lambda n: dyadic_empty_window_probe(GAUSS, 0.5, n, 0), 8,
                 id="dyadic_empty_window_probe"),
    pytest.param(lambda n: gauge_and_index(RandomSeries(GAUSS, 0), N=n), 100,
                 id="gauge_and_index"),
]


@pytest.mark.parametrize("call, n", _HORIZON_CALLS)
@pytest.mark.parametrize("shift", [0.5, "x"])
def test_random_path_horizons_reject_non_integers(monkeypatch, call, n, shift):
    # rejected before any pool starts or any trial is solved
    import szego.ensembles as ens

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was solved")

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(ens, "_batch_rows", no_trial)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    with pytest.raises(DomainError):
        call(n + shift if shift == 0.5 else shift)


@pytest.mark.parametrize("call, n", [
    p for p in _HORIZON_CALLS
    if p.id not in ("mc_expected_cdf_pool", "gauge_and_index")])
def test_integral_float_horizon_means_the_integer(call, n):
    a, b = call(float(n)), call(n)
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


def test_non_finite_samples_count_as_failed_trials(monkeypatch):
    import szego.ensembles as ens

    real = ens.sample_coeffs

    def poisoned(E, n, seed, trial=0):
        c = real(E, n, seed, trial)
        if trial % 3 == 0:
            c[1] = np.nan if trial % 2 else np.inf
        return c

    monkeypatch.setattr(ens, "sample_coeffs", poisoned)
    rep = mc_expected_cdf(GAUSS, 12, [1.0], trials=12, seed=5)
    assert (rep.trials_used, rep.failures) == (8, 4)
    sym = reversal_symmetry_check(GAUSS, 12, 0.9, trials=12,
                                  seed=5)
    assert (sym.trials_used, sym.failures) == (8, 4)


def test_reversal_symmetry():
    rep = reversal_symmetry_check(GAUSS, 24, 0.8,
                                  trials=60, seed=41)
    slack = rep.boundary_allowance + 4 * rep.stderr + 1e-9
    assert abs(rep.diff) <= slack
    with pytest.raises(DomainError):
        reversal_symmetry_check(GAUSS, 24, 1.5, trials=60,
                                seed=1)
    with pytest.raises(DomainError):
        reversal_symmetry_check(Ensemble("bernoulli_inv_n"), 24, 0.8,
                                trials=60, seed=1)


def test_reversal_symmetry_compares_two_means():
    # one solve per trial: mean F(t) against 1 - mean F((1/t)-), so the
    # per-trial differences vary and their standard error is positive
    n, t, trials = 12, 0.9, 12
    inside, below_inverse = [], []
    for trial in range(trials):
        Z = find_zeros(Polynomial(sample_coeffs(GAUSS, n, 5, trial), n))
        moduli = np.abs(Z.finite_zeros)
        inside.append(np.count_nonzero(moduli <= t) / n)
        below_inverse.append(np.count_nonzero(moduli < 1 / t) / n)
    diffs = np.add(inside, below_inverse) - 1
    rep = reversal_symmetry_check(GAUSS, n, t, trials=trials, seed=5)
    assert rep.lhs == pytest.approx(np.mean(inside))
    assert rep.rhs == pytest.approx(1 - np.mean(below_inverse))
    assert rep.diff == pytest.approx(rep.lhs - rep.rhs)
    assert rep.stderr == pytest.approx(np.std(diffs, ddof=1) / trials ** 0.5)
    assert rep.stderr > 1e-3  # not the rounding noise of a self-pairing


def _symmetry_from_solo_solves(E, n, t, trials, seed, swap=()):
    """reversal_symmetry_check recomputed from find_zeros and counting_fn
    at one radius at a time; ``swap`` exchanges two of the four radii."""
    radii = [t, np.nextafter(1.0 / t, 0.0), t + 1e-9,
             np.nextafter(max(t - 1e-9, 0.0), 0.0)]
    if swap:
        i, j = swap
        radii[i], radii[j] = radii[j], radii[i]
    inside, inside_inverse, boundary = [], [], []
    for trial in range(trials):
        Z = find_zeros(Polynomial(sample_coeffs(E, n, seed, trial), n))
        F = [counting_fn(Z, r) for r in radii]
        inside.append(F[0])
        inside_inverse.append(F[1])
        boundary.append(F[2] - F[3])
    d = np.add(inside, inside_inverse) - 1.0
    return SymmetryReport(
        lhs=float(np.mean(inside)), rhs=float(1.0 - np.mean(inside_inverse)),
        diff=float(np.mean(d)),
        stderr=float(np.std(d, ddof=1) / math.sqrt(trials)),
        boundary_allowance=float(np.mean(boundary)), trials_used=trials,
        failures=0)


@pytest.mark.parametrize("ensemble", ["gaussian_complex", "bernoulli(0.5)"])
@pytest.mark.parametrize("t", [0.8, 1.0])
def test_symmetry_check_matches_solo_solves(ensemble, t):
    # the batched trial loop gives the report of one solo solve and one
    # counting function per trial and radius, exactly; below t = 1 the
    # reference with the radii t and (1/t)- swapped differs
    for seed in range(3):
        got = reversal_symmetry_check(ensemble, 24, t, trials=10, seed=seed)
        assert got == _symmetry_from_solo_solves(ensemble, 24, t, 10, seed)
        if t < 1.0:
            assert got != _symmetry_from_solo_solves(ensemble, 24, t, 10,
                                                     seed, swap=(0, 1))


def test_path_root_limsup():
    # unit-variance coefficients concentrate the top root scale near 1
    v = path_root_limsup(GAUSS, 4000, seed=17)
    assert abs(v - 1.0) < 0.05
    # very heavy tails push it well above 1
    h = path_root_limsup(Ensemble("log_heavy_tail", 0.5), 4000, seed=17)
    assert h > 1.5 or np.isinf(h)
    with pytest.raises(DomainError):
        path_root_limsup(GAUSS, 500, seed=0)


def test_dyadic_empty_window_probe():
    # sparse logarithmic density leaves some dyadic window empty
    hits = []
    for seed in range(5):
        probe = dyadic_empty_window_probe(Ensemble("bernoulli_inv_n"), 0.5,
                                          2 ** 14, seed=seed)
        hits.append(any(probe.values()))
    assert any(hits)
    # dense coefficients never leave an empty window
    probe = dyadic_empty_window_probe(GAUSS, 0.5, 2 ** 10,
                                      seed=0)
    assert not any(probe.values())
    for gamma in ("x", math.nan, 0.0, 1.0):
        with pytest.raises(DomainError):
            dyadic_empty_window_probe(GAUSS, gamma, 64, seed=0)


def test_batches_hold_at_most_the_cap():
    # consecutive near-equal batches, at least one per worker, none over
    # _BATCH_COEFFS sampled coefficients unless it is a single trial; the
    # cap does not divide 7 * 820, and 10 trials at n = 256 cut 5 + 5
    import szego.ensembles as ens

    assert [len(b) for b in ens._batches(256, 10, 1)] == [5, 5]
    assert [len(b) for b in ens._batches(256, 10, 2)] == [5, 5]
    for n in (1, 48, 256, 819, 1000, 2047, 3000):
        for trials in (1, 2, 7, 10, 40):
            for workers in (1, 2, 3):
                batches = ens._batches(n, trials, workers)
                assert [i for b in batches for i in b] == list(range(trials))
                assert len(batches) >= min(workers, trials)
                sizes = [len(b) for b in batches]
                assert max(sizes) - min(sizes) <= 1
                for size in sizes:
                    assert size == 1 or size * (n + 1) <= ens._BATCH_COEFFS


def test_reports_do_not_depend_on_the_batch_size(monkeypatch):
    # the batch cap moves the cuts between batches, never the report
    import szego.ensembles as ens

    kw = dict(n=48, t_grid=[0.9, 1.0, 1.1], trials=12, seed=4,
              weyl_orders=(1,))
    cuts, reports, checks = [], [], []
    for cap in (49, 3 * 49, 1 << 11):
        monkeypatch.setattr(ens, "_BATCH_COEFFS", cap)
        cuts.append(len(ens._batches(48, 12, 1)))
        reports.append(mc_expected_cdf(Ensemble("log_heavy_tail", 2.0), **kw))
        checks.append(reversal_symmetry_check(GAUSS, 48, 0.9, 12, 4))
    assert cuts == [12, 4, 1]
    assert all(r == reports[0] for r in reports)
    assert all(c == checks[0] for c in checks)


def test_zero_sections_still_count_as_failures(monkeypatch):
    # an all-zero section gives no row and counts as a failure; the other
    # trials of the batch keep the rows of their solo zeros, bit for bit
    import szego.ensembles as ens

    grid, orders = np.array([0.9, 1.0, 1.1]), (1, 3)
    solo = [find_zeros(Polynomial(sample_coeffs(GAUSS, 16, 2, t), 16))
            for t in range(12) if t % 4 != 1]
    want = [(counting_fn(Z, grid), [weyl_sum(Z, m) for m in orders])
            for Z in solo]
    _keep_trials(monkeypatch, lambda trial: trial % 4 != 1)
    rep = mc_expected_cdf(GAUSS, 16, [1.0], trials=12, seed=2)
    assert (rep.trials_used, rep.failures) == (9, 3)
    got = ens._batch_rows((GAUSS, 16, 2, range(12), grid, orders))
    assert len(got) == len(want)
    for (F, sums), (F_ref, sums_ref) in zip(got, want):
        assert F.tobytes() == F_ref.tobytes()
        assert sums == sums_ref


def _keep_trials(monkeypatch, keep):
    """Zero the sampled section of every trial that ``keep`` rejects."""
    import szego.ensembles as ens

    real = ens.sample_coeffs

    def zeroed(E, n, seed, trial=0):
        c = real(E, n, seed, trial)
        return c if keep(trial) else c * 0.0

    monkeypatch.setattr(ens, "sample_coeffs", zeroed)


def test_every_trial_failing_raises(monkeypatch):
    _keep_trials(monkeypatch, lambda trial: False)
    with pytest.raises(ConvergenceError, match="every trial failed"):
        mc_expected_cdf(GAUSS, 16, [1.0], trials=10, seed=2)


def test_one_usable_trial_has_no_stderr(monkeypatch):
    Z = find_zeros(Polynomial(sample_coeffs(GAUSS, 16, 2, 3), 16))
    _keep_trials(monkeypatch, lambda trial: trial == 3)
    rep = mc_expected_cdf(GAUSS, 16, [0.9, 1.1], trials=10, seed=2,
                          weyl_orders=(1,))
    assert (rep.trials_used, rep.failures) == (1, 9)
    assert rep.phi_hat == tuple(counting_fn(Z, [0.9, 1.1]).tolist())
    assert all(math.isnan(x) for x in rep.stderr)
    assert rep.weyl_abs_mean == (abs(weyl_sum(Z, 1)),)
    with pytest.raises(ConvergenceError, match="too few usable trials"):
        reversal_symmetry_check(GAUSS, 16, 0.9, trials=10, seed=2)


def test_unconverged_solves_count_as_failures(monkeypatch):
    # a core whose solve stalls gives no row; the rest of its batch counts
    import szego.ensembles as ens

    real = ens._zero_sets

    def stalled(polys):
        out = real(polys)
        out[1] = ConvergenceError("stalled", residual=1.0)
        return out

    monkeypatch.setattr(ens, "_zero_sets", stalled)
    rep = mc_expected_cdf(GAUSS, 16, [1.0], trials=12, seed=2)
    assert (rep.trials_used, rep.failures) == (11, 1)
    sym = reversal_symmetry_check(GAUSS, 16, 0.9, trials=12, seed=2)
    assert (sym.trials_used, sym.failures) == (11, 1)


def test_mc_memory_does_not_grow_with_trials():
    # trials are solved in batches of capped size, so the peak of the
    # Python heap at 40 trials stays near the peak at 10
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            mc_expected_cdf(GAUSS, 256, [1.0], trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run leaves its one-time allocations outside the measurements
    mc_expected_cdf(GAUSS, 256, [1.0], trials=10, seed=1)
    small, large = peak(10), peak(40)
    assert large <= 1.5 * small
