"""End-to-end acceptance checks, one test per numbered criterion.

Each test runs inside a recording context so the terminal summary always
prints one PASS/FAIL line per criterion, including runtime. Tolerances are
stated inline next to each check.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_criterion
from szego import (Carlson, Ensemble, Geometric, InverseOneMinusZN, Lacunary,
                   Polynomial, TargetMeasure, cauchy_bound, counting_fn,
                   dyadic_empty_window_probe, entropy, find_zeros,
                   gauge_and_index, initial_state, inner_cauchy_bound,
                   inner_van_vleck_bound, inverse_power_sum, jensen_identity,
                   levy_distance, mc_expected_cdf, radial_projection,
                   reversal_symmetry_check, section, step, van_vleck_bound,
                   verify_step, viete_checks, weak_jensen_check,
                   window_liminf_from_logs)
from szego.universal import RING_MARGIN


class criterion:
    """Collects sub-check failures and always records a summary line."""

    def __init__(self, num: int, budget: float):
        self.num = num
        self.budget = budget
        self.problems: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            self.problems.append(f"{exc_type.__name__}: {exc}")
        if elapsed >= self.budget:
            self.problems.append(
                f"runtime {elapsed:.1f}s over the {self.budget:.0f}s budget")
        detail = "; ".join(self.notes + [f"{elapsed:.2f}s"])
        if self.problems:
            detail += " | " + "; ".join(self.problems)
        record_criterion(self.num, not self.problems, detail)
        if self.problems:
            pytest.fail(f"criterion {self.num}: " + "; ".join(self.problems))
        return True


def _match_max_dist(got, ref):
    """Greedy pairing distance between two equal-length point sets."""
    got = np.asarray(got, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    assert len(got) == len(ref)
    cost = np.abs(got[:, None] - ref[None, :])
    worst = 0.0
    for _ in range(len(got)):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        worst = max(worst, float(cost[i, j]))
        cost[i, :] = np.inf
        cost[:, j] = np.inf
    return worst


def test_criterion_01_geometric_sections():
    with criterion(1, budget=1.0) as c:
        worst = 0.0
        for n in (3, 15, 63):
            Z = find_zeros(section(Geometric(), n))
            ref = np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
            dist = _match_max_dist(Z.finite_zeros, ref)
            worst = max(worst, dist)
            c.check(dist <= 1e-8,
                    f"n={n}: root distance {dist:.2e} above 1e-8")
            c.check(counting_fn(Z, 1.1) == 1.0, f"n={n}: F(1.1) != 1")
            c.check(counting_fn(Z, 0.9) == 0.0, f"n={n}: F(0.9) != 0")
        c.note(f"max root err {worst:.1e}")


def test_criterion_02_jensen_identity_and_inequality():
    with criterion(2, budget=30.0) as c:
        rng = np.random.default_rng(2026)
        worst_rel = 0.0
        min_margin = math.inf
        for _ in range(100):
            # scaled coefficients keep the zeros off the unit circle so
            # the quadrature converges; resample the rare stragglers
            while True:
                deg = int(rng.integers(4, 65))
                scale = (float(rng.uniform(1.25, 2.0))
                         if rng.random() < 0.5
                         else float(rng.uniform(0.5, 0.8)))
                coef = (rng.normal(size=deg + 1)
                        + 1j * rng.normal(size=deg + 1))
                coef *= scale ** np.arange(deg + 1)
                P = Polynomial(coef, deg)
                if coef[0] == 0 or coef[deg] == 0:
                    continue
                Z = find_zeros(P)
                gap = float(np.min(np.abs(np.abs(Z.finite_zeros) - 1.0)))
                if gap >= 1.5e-3:
                    break
            lhs, rhs = jensen_identity(P, Z, quad_points=2 ** 14)
            rel = abs(lhs - rhs) / (1.0 + abs(lhs))
            worst_rel = max(worst_rel, rel)
            c.check(rel <= 1e-6, f"identity error {rel:.2e} above 1e-6")
            for T in (1.1, 2.0, 10.0):
                wl, wr = weak_jensen_check(P, Z, T, quad_points=2 ** 14)
                min_margin = min(min_margin, wr - wl)
                c.check(wl <= wr + 1e-9,
                        f"tail inequality failed at T={T}")
        c.note(f"worst identity err {worst_rel:.1e}, "
               f"min inequality margin {min_margin:.3f}")


def test_criterion_03_product_identity_and_entropy():
    with criterion(3, budget=10.0) as c:
        rng = np.random.default_rng(3)
        worst_rel = 0.0
        worst_slack = math.inf
        for _ in range(50):
            deg = int(rng.integers(2, 101))
            coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            P = Polynomial(coef, deg)
            rep = viete_checks(P, find_zeros(P))
            c.check(rep.product_rel_err is not None, "product was skipped")
            if rep.product_rel_err is not None:
                worst_rel = max(worst_rel, rep.product_rel_err)
                c.check(rep.product_rel_err <= 1e-8,
                        f"deg {deg}: product err {rep.product_rel_err:.2e}")
            slack = rep.min_slack()
            worst_slack = min(worst_slack, slack)
            c.check(slack >= -1e-9,
                    f"deg {deg}: negative slack {slack:.2e}")
        bad_entropy = 0
        for n in range(1, 61):
            for k in range(n + 1):
                if math.comb(n, k) > math.exp(n * entropy(k / n)) * (1 + 1e-12):
                    bad_entropy += 1
        c.check(bad_entropy == 0,
                f"{bad_entropy} entropy bound violations for n <= 60")
        c.note(f"worst product err {worst_rel:.1e}, "
               f"min slack {worst_slack:.1e}")


def test_criterion_04_bound_containment():
    with criterion(4, budget=60.0) as c:
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(500):
            deg = int(rng.integers(2, 129))
            coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            style = rng.random()
            if style < 0.25:
                coef[:int(rng.integers(1, min(4, deg)))] = 0.0
            elif style < 0.5:
                cut = int(rng.integers(1, min(4, deg)))
                coef[deg + 1 - cut:] = 0.0
            P = Polynomial(coef, deg)
            Z = find_zeros(P)
            nz = np.nonzero(np.abs(coef) > 0)[0]
            core = Polynomial(coef[nz[0]:nz[-1] + 1].copy(),
                              int(nz[-1] - nz[0]))
            moduli = np.abs(Z.finite_zeros)
            moduli = moduli[moduli > 0]
            outer = cauchy_bound(core)
            inner = inner_cauchy_bound(core)
            c.check(bool(np.all(moduli <= outer * (1 + 1e-8))),
                    f"deg {deg}: zero above the outer radius")
            c.check(bool(np.all(moduli >= inner * (1 - 1e-8))),
                    f"deg {deg}: zero below the inner radius")
            for m in range(1, core.formal_degree + 1):
                V = van_vleck_bound(core, m)
                v = inner_van_vleck_bound(core, m)
                c.check(int(np.count_nonzero(moduli <= V * (1 + 1e-8))) >= m,
                        f"deg {deg}, m={m}: fewer than m zeros inside")
                c.check(int(np.count_nonzero(moduli >= v * (1 - 1e-8))) >= m,
                        f"deg {deg}, m={m}: fewer than m zeros outside")
            checked += 1
        bad = 0
        for n in range(1, 31):
            for m in range(1, n + 1):
                lhs = sum(math.comb(n - j - 1, m - j - 1) for j in range(m))
                if lhs != math.comb(n, m - 1):
                    bad += 1
        c.check(bad == 0, f"{bad} binomial identity failures for n <= 30")
        c.note(f"{checked} polynomials contained")


def test_criterion_05_inverse_power_sums():
    with criterion(5, budget=10.0) as c:
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            deg = int(rng.integers(4, 33))
            coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            P = Polynomial(coef, deg)
            Z = find_zeros(P)
            for m in range(1, 5):
                ref = complex(np.sum(Z.finite_zeros ** (-float(m))))
                got = inverse_power_sum(coef, m)
                err = abs(got - ref) / (1.0 + abs(ref))
                worst = max(worst, err)
                c.check(err <= 1e-8,
                        f"deg {deg}, m={m}: power sum err {err:.2e}")
        c.note(f"worst power sum err {worst:.1e}")


def test_criterion_06_gauge_and_index_estimates():
    with criterion(6, budget=30.0) as c:
        for q in (2, 3):
            rep = gauge_and_index(Lacunary(q), N=4096)
            c.check(abs(rep.Gamma_hat - (1 - 1 / q)) <= 0.05,
                    f"lacunary {q}: index {rep.Gamma_hat}")
            c.check(rep.G_hat <= 0.05, f"lacunary {q}: gauge {rep.G_hat}")
            c.note(f"lac{q}: Gamma={rep.Gamma_hat:.2f} G={rep.G_hat:.3f}")
        for t, g in ((0.3, 0.6), (0.5, 0.5)):
            rep = gauge_and_index(Carlson(t, g), N=4096)
            c.check(abs(rep.Gamma_hat - t) <= 0.05,
                    f"carlson({t},{g}): index {rep.Gamma_hat}")
            c.check(abs(rep.G_hat - g) <= 0.05,
                    f"carlson({t},{g}): gauge {rep.G_hat}")
            gamma = t / 2
            est = window_liminf_from_logs(Carlson(t, g).log_abs(4096), gamma,
                                          4096)
            want = g ** (1 - gamma)
            c.check(abs(est - want) <= 0.05,
                    f"carlson({t},{g}): window estimate {est:.3f} "
                    f"vs {want:.3f}")
            c.note(f"car({t},{g}): Gamma={rep.Gamma_hat:.2f} "
                   f"G={rep.G_hat:.3f} L={est:.3f}")


def test_criterion_07_circle_clustering_and_gaps():
    with criterion(7, budget=120.0) as c:
        for fam, name in ((Geometric(), "geometric"),
                          (InverseOneMinusZN(3), "inv_one_minus_z3")):
            for n in (512, 1024):
                Z = find_zeros(section(fam, n))
                F = counting_fn(Z, 1.2)
                c.check(F >= 0.9, f"{name} n={n}: F(1.2)={F:.3f} < 0.9")
                c.note(f"{name}@{n}: F(1.2)={F:.3f}")
        for k in (7, 8, 9):
            n = 2 ** k - 1
            Z = find_zeros(section(Lacunary(2), n))
            for T in (2.0, 4.0):
                F = counting_fn(Z, T)
                c.check(F <= 0.9,
                        f"lacunary2 n={n}: F({T})={F:.3f} above 0.9")
            c.note(f"lac2@{n}: F(2)={counting_fn(Z, 2.0):.3f}")


def test_criterion_08_random_ensembles():
    with criterion(8, budget=300.0) as c:
        for E, name in ((Ensemble("gaussian_complex"), "gauss"),
                        (Ensemble("bernoulli", 0.5), "bern")):
            rep = mc_expected_cdf(E, 256, [0.9, 1.0, 1.1], trials=100,
                                  seed=1, weyl_orders=(1,))
            c.check(rep.phi_hat[2] >= 0.85,
                    f"{name}: mean F(1.1)={rep.phi_hat[2]:.3f} < 0.85")
            c.check(rep.phi_hat[0] <= 0.05,
                    f"{name}: mean F(0.9)={rep.phi_hat[0]:.3f} > 0.05")
            c.check(rep.weyl_abs_mean[0] <= 0.2,
                    f"{name}: mean first Weyl sum "
                    f"{rep.weyl_abs_mean[0]:.3f} > 0.2")
            half_err = abs(rep.phi_hat[1] - 0.5)
            c.check(half_err <= 3 * rep.stderr[1],
                    f"{name}: median radius off by {half_err:.4f} with "
                    f"stderr {rep.stderr[1]:.4f}")
            sym = reversal_symmetry_check(E, 256, 0.8, trials=100, seed=1)
            c.check(abs(sym.diff) <= 3 * sym.stderr,
                    f"{name}: pairing gap {sym.diff:.2e} above "
                    f"3x{sym.stderr:.2e}")
            c.note(f"{name}: F=({rep.phi_hat[0]:.3f},{rep.phi_hat[1]:.3f},"
                   f"{rep.phi_hat[2]:.3f}) W={rep.weyl_abs_mean[0]:.3f} "
                   f"sym={sym.diff:.1e}")
        empty = 0
        for seed in range(5):
            probe = dyadic_empty_window_probe(Ensemble("bernoulli_inv_n"), 0.5,
                                              2 ** 17, seed=seed)
            empty += sum(probe.values())
        c.check(empty >= 1, "no empty half window in any dyadic probe")
        c.note(f"{empty} empty windows across 5 seeds")


def _oracle_block_shift(phi: TargetMeasure, k: int, d_prev: int,
                        log_A: float) -> int:
    m = phi.m
    need_comb = math.log(math.comb(m, m // 2))
    growth = math.log((float(phi.radii[0]) + 1.0) / 2.0)
    N = 1
    while not (N > d_prev
               and N * math.log1p(1.0 / k) >= need_comb
               and N * growth + m * math.log(RING_MARGIN) > log_A):
        N += 1
    return N


def _oracle_ring_count(phi: TargetMeasure, k: int, N: int,
                       d_prev: int) -> int:
    gaps = [Fraction(1)] if phi.m == 1 else [
        (b - a) / (b + a) for a, b in zip(phi.radii, phi.radii[1:])]
    r1, rm = phi.radii[0], phi.radii[-1]
    M = 1
    while not (all(Fraction(1, M) <= gp for gp in gaps)
               and Fraction(1, M) < Fraction(r1 - 1, 2 * r1)
               and Fraction(rm, M) <= Fraction(1, k)
               and k * (N + d_prev) < phi.m * M):
        M += 1
    return M


def test_criterion_09_universal_construction():
    with criterion(9, budget=120.0) as c:
        phi = TargetMeasure.of("3/2", "2")
        # starting from the constant 1, the sup over the working disk is
        # exactly 1, so the oracle runs from log A = 0
        N_ref = _oracle_block_shift(phi, 1, 0, 0.0)
        M_ref = _oracle_ring_count(phi, 1, N_ref, 0)
        d_ref = N_ref + phi.m * M_ref
        c.check((N_ref, M_ref, d_ref) == (12, 7, 26),
                f"oracle gave {(N_ref, M_ref, d_ref)}")
        st = step(initial_state(), phi)
        rec = st.records[-1]
        c.check((rec.N, rec.M, rec.d) == (N_ref, M_ref, d_ref),
                f"library chose {(rec.N, rec.M, rec.d)}")
        Z = find_zeros(st.P)
        centers = np.concatenate([
            float(r) * np.exp(2j * np.pi * np.arange(rec.M) / rec.M)
            for r in phi.radii])
        c.check(len(centers) == 14, "expected 14 ring disks")
        dist = np.abs(Z.finite_zeros[:, None] - centers[None, :])
        per_disk = (dist <= np.array(
            [float(r) / rec.M for r in phi.radii]).repeat(rec.M)[None, :]
            * (1 + 1e-9)).sum(axis=0)
        c.check(bool(np.all(per_disk == 1)),
                f"disk occupancy {sorted(set(per_disk.tolist()))}")
        lv = levy_distance(radial_projection(Z), phi.to_radial_measure())
        c.check(lv <= 1.0, f"levy {lv:.3f} above 1")
        rep = verify_step(st)
        c.note(f"N={rec.N} M={rec.M} d={rec.d} levy={lv:.3f} "
               f"margin={rep.min_factor_margin:.3f}")
        state = initial_state()
        targets = [TargetMeasure.of("3"), TargetMeasure.of("4"),
                   TargetMeasure.of("3"), TargetMeasure.of("6/5")]
        gaps = []
        for i, tgt in enumerate(targets, start=1):
            state = step(state, tgt)
            audit = verify_step(state)
            gaps.append(audit.levy)
            c.check(audit.levy <= 1.0 / i,
                    f"step {i}: levy {audit.levy:.3f} above 1/{i}")
        c.note("extended levy " + ",".join(f"{g:.3f}" for g in gaps))


def test_criterion_10_worker_determinism():
    with criterion(10, budget=60.0) as c:
        kw = dict(n=96, t_grid=[0.9, 1.1], trials=24, seed=5,
                  weyl_orders=(1, 2))
        E = Ensemble("gaussian_complex")
        reports = [mc_expected_cdf(E, workers=w, **kw) for w in (1, 2, 4)]
        again = mc_expected_cdf(E, workers=2, **kw)
        for other, label in [(reports[1], "w2"), (reports[2], "w4"),
                             (again, "w2 rerun")]:
            c.check(reports[0].phi_hat == other.phi_hat,
                    f"{label}: distribution values differ")
            c.check(reports[0].stderr == other.stderr,
                    f"{label}: stderr differs")
            c.check(reports[0].weyl_mean_abs == other.weyl_mean_abs,
                    f"{label}: Weyl averages differ")
            c.check(reports[0].weyl_abs_mean == other.weyl_abs_mean,
                    f"{label}: Weyl magnitude averages differ")
            c.check(reports[0].trials_used == other.trials_used,
                    f"{label}: trial counts differ")
        c.note("identical across worker counts 1/2/4 and rerun")
