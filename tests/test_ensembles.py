"""Random coefficient ensembles and Monte Carlo distribution estimates."""

from __future__ import annotations

import numpy as np
import pytest

from szego import (DomainError, Ensemble, Polynomial, as_ensemble,
                   check_conditions, dyadic_empty_window_probe, find_zeros,
                   mc_expected_cdf, path_root_limsup, reversal_symmetry_check,
                   sample_coeffs, sample_log_abs)

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
