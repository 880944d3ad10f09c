"""Unbalanced matching via point removal.

With n > m supply points, n - m of them stay unmatched. Removing the right
ones turns the instance into a balanced one whose curve area equals the
optimal matching distance. This script shows the exact removal DP, the
scan-based feasible removal with swaps, and the two formula estimates built
on top of that picture.
"""

import numpy as np

from rbmatch import (
    Instance1D,
    build_supply_curve,
    closed_unbalanced_estimate,
    feasible_removal,
    optimal_match_1d,
    optimal_removal,
    recursive_estimate,
)

rng = np.random.default_rng(7)

inst = Instance1D(rng.uniform(0, 1, 6), rng.uniform(0, 1, 10))
curve = build_supply_curve(inst)
opt = optimal_removal(inst)
scan = feasible_removal(inst, do_swaps=False)
swapped = feasible_removal(inst, do_swaps=True)
match = optimal_match_1d(inst)

print(f"m = {inst.m}, n = {inst.n}: {inst.n - inst.m} supply points stay unmatched")
print("optimal removal (supply indices):", opt.removed_supply_indices)
print(f"  post-removal area: {opt.post_removal_area:.6f}")
print(f"  optimal matching total: {match.total_distance:.6f}  (identical)")
print("scan removal:", scan.removed_supply_indices, f"area {scan.post_removal_area:.6f}")
print("scan + swaps:", swapped.removed_supply_indices, f"area {swapped.post_removal_area:.6f}")

# The k-th optimally removed point always sits at running net supply k.
supply_events = np.flatnonzero(curve.values == 1)
levels = [int(curve.prefix[supply_events[i]]) for i in opt.removed_supply_indices]
print("net supply at the removed points:", levels)
print()

# Averaged over many instances, the closed form and the recursion predict the
# simulated mean distance; the recursion is the sharper of the two near m = n.
m = 40
print(f"{'n':>5} {'simulated':>11} {'closed':>9} {'recursive':>10}")
for n in (44, 50, 60, 80, 120):
    sims = []
    for _ in range(200):
        sample = Instance1D(rng.uniform(0, 1, m), rng.uniform(0, 1, n))
        sims.append(optimal_match_1d(sample).mean_distance)
    sim = float(np.mean(sims))
    closed = closed_unbalanced_estimate(m, n)
    rec = recursive_estimate(m, n)
    print(f"{n:>5} {sim:>11.5f} {closed:>9.5f} {rec:>10.5f}")
