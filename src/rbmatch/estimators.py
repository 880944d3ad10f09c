"""Closed-form and recursive estimators of the expected mean matching distance
for bipartite point sets on a segment, plus a density-based dispatcher."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln

from .combinatorics import (
    expected_zero_returns,
    harel_area,
    stars_bars_distribution,
)
from .types import EdgeParams

__all__ = [
    "EstimatorMethod",
    "Estimate",
    "RecursionTable",
    "step_length_correction",
    "balanced_estimate",
    "closed_unbalanced_estimate",
    "recursion_table",
    "recursive_estimate",
    "baseline_estimate",
    "dispatch_estimate",
]

_DISPATCH_RATIO_CUTOFF = 3.0


class EstimatorMethod(Enum):
    BALANCED = "balanced"
    CLOSED_UNBALANCED = "closed"
    RECURSIVE = "recursive"
    BASELINE = "baseline"
    EDGE_SCALED = "edge"


@dataclass(frozen=True)
class Estimate:
    """An expected mean matching distance (du) with its estimator tag."""

    value: float
    method: EstimatorMethod
    corrected: bool = False


def step_length_correction(m: int, n: int, length: float = 1.0) -> float:
    """Subtractive correction (n-m) / (2n(m+n)) * length for unbalanced estimates.

    Compensates for the mean step size of the post-removal balanced segments
    being smaller than the raw mean gap; it vanishes when m = n.
    """
    return length * (n - m) / (2.0 * n * (m + n))


def _harel_values(max_n: int) -> np.ndarray:
    return np.array([harel_area(i) for i in range(max_n + 1)])


def balanced_estimate(n: int, length: float = 1.0) -> Estimate:
    """Expected mean matching distance for n demand and n supply points.

    Evaluates l * B(n) / n with mean gap l = length / (2n), where B is the
    expected balanced-walk area; equals (1/(2n)) * 2^(2n-1) / C(2n, n) on the
    unit segment.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not length > 0.0:
        raise ValueError("length must be positive")
    gap = length / (2.0 * n)
    return Estimate(value=gap * harel_area(n) / n, method=EstimatorMethod.BALANCED)


def closed_unbalanced_estimate(
    m: int, n: int, length: float = 1.0, apply_correction: bool = True
) -> Estimate:
    """Closed-form estimate for m demand and n > m supply points.

    Averages the balanced-walk area over the stars-and-bars distribution of
    demand counts per segment:
    (n-m+1) / (m(m+n)) * sum_{m'} Pr{m_0 = m'} * B(m'), scaled by length,
    optionally minus the step-length correction.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n <= m:
        raise ValueError("requires n > m; use balanced_estimate for n = m")
    if not length > 0.0:
        raise ValueError("length must be positive")
    weights = stars_bars_distribution(m, n)
    value = (n - m + 1) / (m * (m + n)) * float(weights @ _harel_values(m))
    if apply_correction:
        value -= step_length_correction(m, n)
    return Estimate(
        value=length * value,
        method=EstimatorMethod.CLOSED_UNBALANCED,
        corrected=apply_correction,
    )


@dataclass(frozen=True, eq=False)
class RecursionTable:
    """Expected post-removal tail areas E[Z_{k,a}] for an unbalanced problem.

    ``values[k, a]`` is the expected absolute area (du) to the right of the
    k-th removed supply point when a demand points remain there, for
    k = 0..n-m and a = 0..m. The base row k = n-m holds l * B(a).
    """

    m: int
    n: int
    length: float
    values: np.ndarray

    def expected_area(self, k: int, a: int) -> float:
        return float(self.values[k, a])


def recursion_table(m: int, n: int, length: float = 1.0) -> RecursionTable:
    """Solve the segment-area recursion bottom-up.

    Rows run from the base k = n-m (a fully balanced tail of area l * B(a))
    down to k = 0. Interior rows k = 1..n-m-1 subtract the one-swap area
    reduction l * (2m' - 2 E[zero returns | m']) inside the expectation; row
    k = 0 applies no swap reduction.

    Row k is E[Z_{k,a}] = sum_{m'<=a} P(m' | a, e) * (S(m') + E[Z_{k+1,a-m'}])
    with e = n-m-k removals left, P the ballot probability of
    ``ballot_segment_prob`` and S the segment area. The kernel packs the
    cells (a, m') with m' <= a row by row into flat arrays, so each row is one
    gather of the next row at a - m', one elementwise product and one
    segmented sum. Every log C(x, y) is lf[x] - lf[y] - lf[x-y] on one
    log-factorial table lf, which gives the same values as the log-gamma
    evaluation; the log C(a, m') term does not depend on e and is built once.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n <= m:
        raise ValueError("requires n > m")
    excess = n - m
    gap = length / (m + n)
    areas = _harel_values(m)
    zero_returns = np.array([expected_zero_returns(i) for i in range(m + 1)])
    swap_reduction = gap * (2.0 * np.arange(m + 1) - 2.0 * zero_returns)

    counts = np.arange(m + 1)
    a = np.repeat(counts, counts + 1)  # cell -> remaining demand a
    starts = counts * (counts + 1) // 2  # first cell of each row a
    m_hat = np.arange(a.size) - starts[a]  # cell -> demand in this segment
    rest = a - m_hat  # cell -> demand left for the next segment
    a2, rest2 = 2 * a, 2 * rest
    lf = gammaln(np.arange(2 * m + excess + 1) + 1)
    log_c_a = (lf[a] - lf[m_hat]) - lf[rest]
    lf_m_hat, lf_2m_hat = lf[m_hat], lf[2 * m_hat]
    full_segment = (gap * areas)[m_hat]
    swapped_segment = (gap * areas - swap_reduction)[m_hat]

    values = np.zeros((excess + 1, m + 1))
    values[excess] = gap * areas
    for k in range(excess - 1, -1, -1):
        e = excess - k
        lf_e = lf[e:]
        # log C(a+e, m') - log C(2a+e, 2m') added to log C(a, m')
        log_p = log_c_a + ((lf_e[a] - lf_m_hat) - lf_e[rest])
        log_p -= (lf_e[a2] - lf_2m_hat) - lf_e[rest2]
        probs = np.exp(log_p, out=log_p)
        probs *= e
        probs /= (2.0 * counts + e)[rest]
        probs *= (full_segment if k == 0 else swapped_segment) + values[k + 1][rest]
        values[k] = np.add.reduceat(probs, starts)
    values.flags.writeable = False
    return RecursionTable(m=m, n=n, length=length, values=values)


def recursive_estimate(
    m: int, n: int, length: float = 1.0, apply_correction: bool = True
) -> Estimate:
    """Recursive upper-bound estimate for m demand and n > m supply points.

    Returns E[Z_{0,m}] / m from the removal-and-swap recursion, optionally
    minus the step-length correction.
    """
    table = recursion_table(m, n, length)
    value = float(table.values[0, m]) / m
    if apply_correction:
        value -= step_length_correction(m, n, length)
    return Estimate(
        value=value, method=EstimatorMethod.RECURSIVE, corrected=apply_correction
    )


def baseline_estimate(m: int, n: int, length: float = 1.0) -> Estimate:
    """Prior double-sum estimate, tending to length/(2n) when n >> m.

    1/(2m(n+1)) * sum_{i=1..m} [ sum_{k=1..i} k r^(k-1) (1-r) + i r^i ] with
    r = (i-1)/n, scaled by length.
    """
    if m < 1 or n < m:
        raise ValueError("requires n >= m >= 1")
    if not length > 0.0:
        raise ValueError("length must be positive")
    total = 0.0
    for i in range(1, m + 1):
        r = (i - 1) / n
        ks = np.arange(1, i + 1, dtype=np.float64)
        inner = float(np.sum(ks * r ** (ks - 1) * (1.0 - r))) + i * r**i
        total += inner
    value = length * total / (2.0 * m * (n + 1))
    return Estimate(value=value, method=EstimatorMethod.BASELINE)


def dispatch_estimate(params: EdgeParams) -> Estimate:
    """Route edge parameters to the appropriate segment estimator.

    Counts m = mu*length and n = lam*length must round to integers >= 1.
    Balanced densities use the balanced closed form; supply/demand ratios
    below 3 use the corrected recursion; heavier surpluses use the
    1/(2*lam) asymptote, which no longer depends on length.
    """
    m, n = params.counts()
    if n == m:
        base = balanced_estimate(n, params.length)
    elif params.lam / params.mu < _DISPATCH_RATIO_CUTOFF:
        base = recursive_estimate(m, n, params.length, apply_correction=True)
    else:
        base = Estimate(value=1.0 / (2.0 * params.lam), method=EstimatorMethod.BASELINE)
    return Estimate(
        value=base.value, method=EstimatorMethod.EDGE_SCALED, corrected=base.corrected
    )
