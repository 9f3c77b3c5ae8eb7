#!/usr/bin/env python3
"""Coefficient-only zero bounds, checked against actual zeros.

Everything here is computable without root finding: outer and inner
Cauchy radii from the coefficient equation, the family of ring bounds
that trap at least m zeros inside and outside, and two log-space
identities tying the zero moduli to circle averages and coefficient
products. The script computes each bound, then finds the zeros anyway
and shows the promises being kept.
"""

import numpy as np

from szego import (Polynomial, bounds_report, cauchy_bound, find_zeros,
                   inner_cauchy_bound, inner_van_vleck_bound, jensen_identity,
                   van_vleck_bound, viete_checks, weak_jensen_check)

rng = np.random.default_rng(12)
deg = 24
coef = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
P = Polynomial(coef, deg)
Z = find_zeros(P)
moduli = np.sort(np.abs(Z.finite_zeros))

C = cauchy_bound(P)
c = inner_cauchy_bound(P)
print(f"random degree {deg} polynomial")
print(f"  outer radius {C:.4f} vs largest zero {moduli[-1]:.4f}")
print(f"  inner radius {c:.4f} vs smallest zero {moduli[0]:.4f}")

print("  m   inside-bound  zeros<=  outside-bound  zeros>=")
for m in (1, 6, 12, 18, 24):
    V = van_vleck_bound(P, m)
    v = inner_van_vleck_bound(P, m)
    inside = int(np.count_nonzero(moduli <= V * (1 + 1e-12)))
    outside = int(np.count_nonzero(moduli >= v * (1 - 1e-12)))
    print(f"  {m:2d}   {V:10.4f}   {inside:4d}     {v:10.4f}    {outside:4d}")

# Jensen: the summed log-moduli of the zeros match a circle average of
# log |P|; the quadrature takes as many nodes as the zeros need.
lhs, rhs = jensen_identity(P, Z)
print(f"  jensen identity: lhs {lhs:.8f} rhs {rhs:.8f} "
      f"diff {abs(lhs - rhs):.2e}")

# The averaged form bounds how much zero mass can sit far from the
# circle; larger thresholds leave more room.
for T in (1.1, 2.0, 10.0):
    wl, wr = weak_jensen_check(P, Z, T)
    print(f"  tail bound at T={T:<4}: {wl:.4f} <= {wr:.4f}")

rep = viete_checks(P, find_zeros(P))
print(f"  product identity relative error {rep.product_rel_err:.2e}, "
      f"worst inequality slack {rep.min_slack():.1e}")

# One call assembles the standard table, at the orders m = 1..12.
table = bounds_report(P)
print("  report:", {m: round(v, 4) for m, v in table.van_vleck.items()})
