"""Balanced matching on the unit segment.

Walks through the area identity (the optimal total matching distance equals
the absolute area under the net supply curve) and compares the closed-form
expected distance against a seeded simulation.
"""

import numpy as np

from rbmatch import (
    ExperimentConfig,
    ExperimentKind,
    Instance1D,
    SegmentPoint,
    SupplyCurve,
    balanced_area,
    optimal_match_1d,
    run_experiment,
)

rng = np.random.default_rng(2024)

# One concrete instance: 5 demand and 5 supply points.
inst = Instance1D(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5))
curve = SupplyCurve(inst)
match = optimal_match_1d(inst)

print("demand:", np.round(inst.demand, 3))
print("supply:", np.round(inst.supply, 3))
print("running net supply:", curve.prefix.tolist())
print(f"optimal total distance: {match.total_distance:.6f}")
print(f"area under the curve:   {balanced_area(inst):.6f}")
print()

# The identity holds instance by instance, so the expected distance reduces
# to the expected area of a balanced random walk. Compare the closed form
# with a seeded simulation across sizes; sem/sim is the standard error of
# the simulated mean, relative to it.
reps = 10000
sizes = (1, 2, 5, 10, 25, 50, 100, 200)
grid = [SegmentPoint(m=n, n=n) for n in sizes]
records = run_experiment(ExperimentConfig(ExperimentKind.SEGMENT, grid, reps, master_seed=2024))
print(f"{'n':>5} {'simulated':>12} {'closed form':>12} {'rel err':>9} {'sem/sim':>8}")
for n, rec in zip(sizes, records):
    sem = rec.sim_std / np.sqrt(reps)
    print(
        f"{n:>5} {rec.sim_mean:>12.5f} {rec.estimates['balanced']:>12.5f} "
        f"{rec.rel_errors['balanced']:>+9.1%} {sem / rec.sim_mean:>8.1%}"
    )

print()
print("The closed form overshoots at small n: by half at n = 1, where the exact")
print("mean is 1/3. From n = 25 on it is within 2% of the simulated mean, and")
print("at n = 100 and 200 the gap is below one standard error.")
