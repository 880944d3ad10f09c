"""Balanced matching on the unit segment.

Walks through the area identity (the optimal total matching distance equals
the absolute area under the net supply curve) and compares the closed-form
expected distance against a seeded simulation.
"""

import numpy as np

from rbmatch import Instance1D, balanced_area, balanced_estimate, build_supply_curve, optimal_match_1d

rng = np.random.default_rng(2024)

# One concrete instance: 5 demand and 5 supply points.
inst = Instance1D(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5))
curve = build_supply_curve(inst)
match = optimal_match_1d(inst)

print("demand:", np.round(inst.demand, 3))
print("supply:", np.round(inst.supply, 3))
print("running net supply:", curve.prefix.tolist())
print(f"optimal total distance: {match.total_distance:.6f}")
print(f"area under the curve:   {balanced_area(inst):.6f}")
print()

# The identity holds instance by instance, so the expected distance reduces
# to the expected area of a balanced random walk. Compare the closed form
# with simulation across sizes.
print(f"{'n':>5} {'simulated':>12} {'closed form':>12} {'rel err':>9}")
for n in (1, 2, 5, 10, 25, 50, 100, 200):
    means = []
    for _ in range(300):
        sample = Instance1D(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        means.append(optimal_match_1d(sample).mean_distance)
    sim = float(np.mean(means))
    est = balanced_estimate(n)
    print(f"{n:>5} {sim:>12.5f} {est:>12.5f} {(est - sim) / sim:>+9.1%}")

print()
print("The overshoot at n = 1 fades quickly; by n ~ 10 the closed form is")
print("within a few percent and the error keeps shrinking as n grows.")
