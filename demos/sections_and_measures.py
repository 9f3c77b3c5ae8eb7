#!/usr/bin/env python3
"""Zeros of partial sums and where their moduli accumulate.

Truncating a power series at degree n gives a polynomial section whose
zeros carry a natural probability measure: put mass 1/n on each zero,
and when the section's actual degree falls short of n, park the missing
mass at infinity. This script walks through that pipeline for a few
concrete families and prints the radial statistics.

Run it directly:

    python3 demos/sections_and_measures.py
"""

import numpy as np

from szego import (Geometric, Lacunary, Rational, counting_fn, find_zeros,
                   levy_distance, point_mass, radial_projection, section,
                   uniform_on_radii)


def describe(name, stream, n):
    P = section(stream, n)
    Z = find_zeros(P)
    mu = radial_projection(Z)
    print(f"{name}, section at n={n}:")
    print(f"  finite zeros: {len(Z.finite_zeros)}, "
          f"at infinity: {Z.infinity_count}")
    for t in (0.5, 0.9, 1.1, 2.0):
        print(f"  fraction with |w| <= {t}: {counting_fn(Z, t):.4f}")
    # distance to a one-point radial law at radius 1
    print(f"  levy distance to the unit radius: "
          f"{levy_distance(mu, point_mass(1.0)):.4f}")
    return mu


# The geometric series is the cleanest case: the section's zeros are
# exactly the roots of unity with z = 1 removed, so everything sits on
# the unit circle from the start.
describe("geometric", Geometric(), 60)

# Gappy coefficients change the picture. Only half the formal degree is
# realized, so half the measure sits at infinity no matter how far out
# we truncate.
describe("lacunary base 2", Lacunary(2), 127)

# A rational stream: the series of (1+z)/(1-z) has bounded coefficients
# and unimodular denominator zeros.
describe("(1+z)/(1-z)", Rational([1, 1], [1, -1]), 80)

# Measures are first-class: compare two explicit radial laws directly.
a = uniform_on_radii([0.5, 1.0, 2.0])
b = point_mass(1.0)
print(f"uniform on three radii vs unit radius: levy {levy_distance(a, b):.4f}")

# Zeros at the origin and at infinity are both handled by convention,
# which keeps measures comparable across sections of different ranks.
spread = Rational([0, 0, 1], [1])  # the series of z^2
Z = find_zeros(section(spread, 6))
mu = radial_projection(Z)
print(f"z^2 viewed at rank 6: origin mass {mu.cdf(0.0):.3f}, "
      f"infinity mass {mu.infinity_mass:.3f}")
