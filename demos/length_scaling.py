"""How the expected matching distance scales with segment length.

With balanced densities the distance grows like sqrt(L); once supply clearly
dominates demand it stops depending on L at all and settles near 1/(2*lam).
"""

import numpy as np

from rbmatch import EdgeParams, Instance1D, dispatch_estimate, edge_estimate, optimal_match_1d

rng = np.random.default_rng(31)
mu = 10.0
lengths = (1.0, 3.0, 5.0, 7.0, 9.0)


def simulate(mu, lam, length, reps=150):
    params = EdgeParams(mu=mu, lam=lam, length=length)
    m, n = params.m, params.n
    means = [
        optimal_match_1d(
            Instance1D(rng.uniform(0, length, m), rng.uniform(0, length, n), length)
        ).mean_distance
        for _ in range(reps)
    ]
    return float(np.mean(means))


for lam in (10.0, 30.0):
    print(f"supply/demand ratio {lam / mu:g}:")
    print(f"  {'L':>4} {'simulated':>11} {'estimate':>10} {'sim / sqrt(L)':>14}")
    for length in lengths:
        sim = simulate(mu, lam, length)
        params = EdgeParams(mu=mu, lam=lam, length=length)
        est = dispatch_estimate(params, edge_estimate(params))
        print(f"  {length:>4g} {sim:>11.5f} {est:>10.5f} {sim / np.sqrt(length):>14.5f}")
    print()

print("At ratio 1 the last column is nearly constant (the sqrt(L) law); at")
print("ratio 3 the simulated means themselves are flat across lengths.")
