#!/usr/bin/env python3
"""A single power series whose section zeros follow prescribed rings.

The construction appends one coefficient block per step. Each block
plants M zeros on each of the target's rings, shifted far enough out
that everything already built becomes negligible there, and the block's
trailing padding defers the remaining mass to infinity. Step k is built
to land within 1/k of its target in the Levy metric, so cycling through
a dense set of targets makes every radial law a limit point of the
section measures.

Every step is audited: the section is actually root-found, each ring
disk must contain exactly one zero, and the measure distance is checked
against the 1/k budget.
"""

from szego import TargetMeasure, build_universal, initial_state, step, verify_step

# One step toward a two-ring target, fully spelled out.
phi = TargetMeasure.of("3/2", "2")
state = step(initial_state(), phi)
rec = state.records[-1]
print(f"target rings {phi.descriptor()}: block shift N={rec.N}, "
      f"ring count M={rec.M}, section index d={rec.d}")
audit = verify_step(state)
print(f"  {audit.ring_zeros} ring zeros, one per disk; "
      f"levy gap {audit.levy:.3f} (budget 1.0); "
      f"ring factor margin {audit.min_factor_margin:.3f} "
      f"(exact: 1 - (1 - 1/M)^M)")

# A four-step run against a changing target list. The budgets shrink
# like 1/k while the degrees grow quickly; float64 coefficient range is
# what caps how far this loop can go.
targets = [TargetMeasure.of("3"), TargetMeasure.of("4"),
           TargetMeasure.of("3"), TargetMeasure.of("6/5")]
state, reports = build_universal(targets)
print("step  target      N      M      degree  levy   budget")
for rep in reports:
    print(f"  {rep.k}   {'+'.join(rep.target):8} {rep.N:6d} {rep.M:6d} "
          f"{rep.d:8d}  {rep.levy:.3f}  {1 / rep.k:.3f}")
print(f"final section index {state.d}, "
      f"coefficient count {len(state.P.coeffs)}")
