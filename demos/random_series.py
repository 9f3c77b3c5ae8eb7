#!/usr/bin/env python3
"""Monte Carlo zero statistics for random coefficient series.

Draw random coefficients, truncate, root-find, repeat, and average. For
well-behaved ensembles the averaged radial distribution function pins
to the unit circle and the angular Weyl sums die off. The script also
shows the two standard failure modes: heavy-tailed coefficients break
the log-moment condition, and vanishing-probability coefficients
create the occasional empty window.

All draws are counter-based, so the same seed gives the same numbers
at any worker count.
"""

from szego import (Ensemble, check_conditions, dyadic_empty_window_probe,
                   mc_expected_cdf, path_root_limsup, reversal_symmetry_check)

T_GRID = [0.8, 0.95, 1.0, 1.05, 1.25]

GAUSS = Ensemble("gaussian_complex")

for E in (GAUSS, Ensemble("uniform_disk"), Ensemble("bernoulli", 0.5)):
    flags = check_conditions(E)
    rep = mc_expected_cdf(E, n=128, t_grid=T_GRID, trials=60, seed=7,
                          weyl_orders=(1, 2))
    print(f"{E.descriptor()}: circle law expected = {flags.szego_expected}")
    row = ", ".join(f"F({t})={p:.3f}" for t, p in zip(T_GRID, rep.phi_hat))
    print(f"  {row}")
    print(f"  weyl averages {tuple(round(w, 4) for w in rep.weyl_abs_mean)}, "
          f"failures {rep.failures}")

# Reversing the coefficients inverts every zero through the circle, and
# iid coefficients reversed have the same law, so the mean mass inside t
# must match the mean mass at or beyond 1/t.
sym = reversal_symmetry_check(GAUSS, n=128, t=0.8, trials=60, seed=7)
print(f"reversal symmetry at t=0.8: lhs {sym.lhs:.4f} rhs {sym.rhs:.4f} "
      f"diff {sym.diff:.2e} +- {sym.stderr:.2e}")

# Heavy tails push zeros off every bounded annulus: compare the largest
# coefficient-root scale along one sample path.
for E in (GAUSS, Ensemble("log_heavy_tail", 0.5)):
    scale = path_root_limsup(E, 4000, seed=3)
    print(f"{E.descriptor()}: top coefficient-root scale {scale:.3f}")

# Coefficients that are nonzero with probability 1/k thin out
# logarithmically; window max statistics then hit exact zeros at some
# dyadic checkpoints.
probe = dyadic_empty_window_probe(Ensemble("bernoulli_inv_n"), gamma=0.5,
                                  max_n=2 ** 14, seed=0)
empty = [n for n, hit in probe.items() if hit]
print(f"thinning ensemble, empty half-windows at n in {empty}")
