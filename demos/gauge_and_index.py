#!/usr/bin/env python3
"""Coefficient windows as predictors of zero behavior.

A window looks at the largest coefficient magnitude among indices
[(1-gamma) n, n] and asks how it grows with n. Taking n-th roots and a
liminf over n gives a number per gamma; the value at small gamma is the
gauge, and the smallest gamma where the curve saturates is the index.
Dense series have gauge 1, gappy ones have small gauge and positive
index, and the two-parameter sparse family below hits any prescribed
pair. No zeros are computed anywhere in this script; that is the point.
"""

from szego import (Carlson, FactorialGaps, Geometric, Lacunary,
                   coeff_root_range, gauge_and_index, gauge_coverage_bound,
                   window_liminf_from_logs)


def show(name, stream, N=2048):
    rep = gauge_and_index(stream, N=N)
    print(f"{name} (horizon {N}):")
    print(f"  gauge {rep.G_hat:.4f}, index {rep.Gamma_hat:.2f}")
    picks = rep.gamma_grid[::3]
    vals = rep.L_hat[::3]
    row = ", ".join(f"{g:.2f}:{v:.3f}" for g, v in zip(picks, vals))
    print(f"  window curve {row}")


show("geometric", Geometric())
show("lacunary base 2", Lacunary(2), N=4096)
show("lacunary base 3", Lacunary(3), N=4096)

# The sparse two-parameter family: index lands at the first argument,
# gauge at the second.
for t, g in ((0.3, 0.6), (0.5, 0.5)):
    show(f"sparse({t}, {g})", Carlson(t, g), N=1024)
    est = window_liminf_from_logs(Carlson(t, g).log_abs(1024), t / 2, 1024)
    print(f"  mid-window estimate {est:.4f} vs g^(1-gamma) "
          f"{g ** (1 - t / 2):.4f}")

# n-th roots of the coefficients themselves bracket the window values.
lo, hi = coeff_root_range(Carlson(0.5, 0.5), 1024)
print(f"sparse(0.5, 0.5) coefficient root range [{lo:.4f}, {hi:.4f}]")

# Factorial-index support is an extreme gap structure: near-full
# windows still catch a coefficient at this horizon, but a window at
# gamma = 0.8 goes empty between consecutive factorials.
factorial_logs = FactorialGaps().log_abs(720)
print(f"factorial support, near-full windows: "
      f"{window_liminf_from_logs(factorial_logs, 0.99, 720):.3f}")
print(f"factorial support, gamma=0.8 windows: "
      f"{window_liminf_from_logs(factorial_logs, 0.8, 720):.3f}")

# With gauge G and a radius T > 1/G, a coverage fraction of the zeros
# must stay within radius T in the limit.
print(f"coverage lower bound, gauge 0.5 at T=4: "
      f"{gauge_coverage_bound(0.5, 4.0):.3f}")
