"""Closed-form and recursive estimators of the expected mean matching distance
for bipartite point sets on a segment, plus a density-based dispatcher."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .combinatorics import (
    expected_zero_returns,
    harel_area,
    log_factorials,
    stars_bars_distribution,
)
from .types import EdgeParams

__all__ = [
    "EstimatorMethod",
    "Estimate",
    "RecursionTable",
    "step_length_correction",
    "balanced_estimate",
    "closed_unbalanced_estimates",
    "closed_unbalanced_estimate",
    "recursion_table",
    "recursive_estimates",
    "recursive_estimate",
    "baseline_estimate",
    "edge_estimate",
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


def closed_unbalanced_estimates(m: int, ns) -> dict[int, float]:
    """Uncorrected unit-length closed-form estimates for every n in ``ns``.

    Each is (n-m+1) / (m(m+n)) * sum_{m'} Pr{m_0 = m'} * B(m'). All ns share
    one walk-area table B(0..m) and one log-factorial table up to max(ns);
    table entries do not depend on the table's size, so each value equals
    the one-element call's bit for bit.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    for n in ns:
        if n <= m:
            raise ValueError(f"requires n > m, got n={n} for m={m}; use balanced_estimate at n = m")
    areas = _harel_values(m)
    lf = log_factorials(max(ns))
    return {
        n: (n - m + 1) / (m * (m + n)) * float(stars_bars_distribution(m, n, lf) @ areas)
        for n in ns
    }


def closed_unbalanced_estimate(
    m: int,
    n: int,
    length: float = 1.0,
    apply_correction: bool = True,
    uncorrected: float | None = None,
) -> Estimate:
    """Closed-form estimate for m demand and n > m supply points.

    Averages the balanced-walk area over the stars-and-bars distribution of
    demand counts per segment:
    (n-m+1) / (m(m+n)) * sum_{m'} Pr{m_0 = m'} * B(m'), scaled by length,
    optionally minus the step-length correction. This is the one-element
    case of ``closed_unbalanced_estimates``; a caller that has the unit-length
    value from a shared pass passes it as ``uncorrected``.
    """
    if not length > 0.0:
        raise ValueError("length must be positive")
    value = closed_unbalanced_estimates(m, [n])[n] if uncorrected is None else uncorrected
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


def _ballot_weights(a: np.ndarray, m_hat: np.ndarray, lf: np.ndarray):
    """The ballot probabilities P(m' | a, e) of ``ballot_segment_prob`` at the
    cells (a, m'), as a function of e.

    Every log C(x, y) is lf[x] - lf[y] - lf[x-y] on the log-factorial table
    lf; the terms that do not depend on e are built once. A cell's weight
    takes the same float operations whatever other cells share the arrays.
    """
    rest = a - m_hat  # demand left for the next segment
    a2, rest2 = 2 * a, 2 * rest
    log_c_a = (lf[a] - lf[m_hat]) - lf[rest]
    lf_m_hat, lf_2m_hat = lf[m_hat], lf[2 * m_hat]
    two_rest = 2.0 * rest

    def weights(e: int) -> np.ndarray:
        lf_e = lf[e:]
        # log C(a+e, m') - log C(2a+e, 2m') added to log C(a, m')
        log_p = log_c_a + ((lf_e[a] - lf_m_hat) - lf_e[rest])
        log_p -= (lf_e[a2] - lf_2m_hat) - lf_e[rest2]
        probs = np.exp(log_p, out=log_p)
        probs *= e
        probs /= two_rest + e
        return probs

    return weights


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
    segmented sum.

    Estimates do not build this table per n: ``recursive_estimates`` builds
    one unit-gap table (length = m + n) for all the ns of one (m, length),
    and the experiment harness computes its estimates once per sweep, in the
    parent process, with one such table per (m, length). The per-n table is
    the test reference.
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
    ballot = _ballot_weights(a, m_hat, log_factorials(2 * m + excess))
    full_segment = (gap * areas)[m_hat]
    swapped_segment = (gap * areas - swap_reduction)[m_hat]

    values = np.zeros((excess + 1, m + 1))
    values[excess] = gap * areas
    for k in range(excess - 1, -1, -1):
        probs = ballot(excess - k)
        probs *= (full_segment if k == 0 else swapped_segment) + values[k + 1][rest]
        values[k] = np.add.reduceat(probs, starts)
    values.flags.writeable = False
    return RecursionTable(m=m, n=n, length=length, values=values)


def recursive_estimates(m: int, ns, length: float = 1.0) -> dict[int, float]:
    """Uncorrected recursive estimates E[Z_{0,m}] / m for every n in ``ns``,
    from one recursion pass.

    The pass builds one unit-gap table ``recursion_table(m, top, m + top)``
    at top = max(ns); its row k >= 1 is the unit-gap row for e = top - m - k
    removals left, bit for bit the same whatever top is. With X = n - m,
    row 0 of n's own table at a = m is P_X . (B(m') + row_{X-1}[m - m']),
    with P_X the ballot weights P(m' | m, X) and B the walk areas, scaled by
    the gap length/(m+n). Every n, top included, takes this one formula, so
    its value never depends on which other ns share the pass. It agrees with
    the per-n table's ``values[0, m] / m`` to within a few ulp.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    for n in ns:
        if n <= m:
            raise ValueError(f"requires n > m, got n={n} for m={m}")
    top = max(ns)
    rows = recursion_table(m, top, length=float(m + top)).values
    ballot = _ballot_weights(np.full(m + 1, m), np.arange(m + 1), log_factorials(m + top))
    areas = rows[top - m]  # the base row: the walk areas B(a) times a gap of exactly 1.0
    out = {}
    for n in ns:
        tail = rows[top - n + 1][::-1]  # the row for e = n - m - 1, at a = m - m'
        out[n] = length / (m + n) * float(ballot(n - m) @ (areas + tail)) / m
    return out


def recursive_estimate(
    m: int, n: int, length: float = 1.0, apply_correction: bool = True
) -> Estimate:
    """Recursive upper-bound estimate for m demand and n > m supply points.

    Returns E[Z_{0,m}] / m from the removal-and-swap recursion, optionally
    minus the step-length correction. This is the one-element pass of
    ``recursive_estimates``. The experiment harness computes its estimates
    once per sweep, in the parent process, with one pass and so one
    unit-gap table per (m, length); each of its values equals this one bit
    for bit.
    """
    value = recursive_estimates(m, [n], length)[n]
    if apply_correction:
        value -= step_length_correction(m, n, length)
    return Estimate(
        value=value, method=EstimatorMethod.RECURSIVE, corrected=apply_correction
    )


def baseline_estimate(m: int, n: int, length: float = 1.0) -> Estimate:
    """Prior double-sum estimate, tending to length/(2n) when n >> m.

    1/(2m(n+1)) * sum_{i=1..m} [ sum_{k=1..i} k r^(k-1) (1-r) + i r^i ] with
    r = (i-1)/n, scaled by length. The inner sum telescopes to
    sum_{k<i} r^k = (1 - r^i) / (1 - r), with 1 - r = (n-i+1)/n taken
    exactly.
    """
    if m < 1 or n < m:
        raise ValueError("requires n >= m >= 1")
    if not length > 0.0:
        raise ValueError("length must be positive")
    i = np.arange(1, m + 1, dtype=np.float64)
    r = (i - 1.0) / n
    total = float(np.sum((1.0 - r**i) / ((n - i + 1.0) / n)))
    value = length * total / (2.0 * m * (n + 1))
    return Estimate(value=value, method=EstimatorMethod.BASELINE)


def edge_estimate(params: EdgeParams, recursive: float | None = None) -> Estimate:
    """Within-edge expected distance: the balanced closed form when the
    counts m = mu*length and n = lam*length are equal, otherwise the
    corrected recursion. Both counts must round to integers >= 1. A caller
    that has the uncorrected recursive value from a shared
    ``recursive_estimates`` pass passes it as ``recursive``; it is ignored
    when m = n."""
    m, n = params.counts()
    if n == m:
        return balanced_estimate(n, params.length)
    if recursive is None:
        return recursive_estimate(m, n, params.length, apply_correction=True)
    # the subtraction recursive_estimate applies when correcting
    value = recursive - step_length_correction(m, n, params.length)
    return Estimate(value=value, method=EstimatorMethod.RECURSIVE, corrected=True)


def dispatch_estimate(params: EdgeParams, edge_value: float | None = None) -> Estimate:
    """Route edge parameters to the appropriate segment estimator.

    Counts m = mu*length and n = lam*length must round to integers >= 1.
    Supply/demand ratios below 3 use ``edge_estimate``; heavier surpluses use
    the 1/(2*lam) asymptote, which no longer depends on length. A caller that
    has ``edge_estimate(params).value`` already passes it as ``edge_value``,
    so that the recursion table behind it is not built a second time.
    """
    m, n = params.counts()  # whole counts are required on every route
    if params.lam / params.mu >= _DISPATCH_RATIO_CUTOFF:
        return Estimate(value=1.0 / (2.0 * params.lam), method=EstimatorMethod.EDGE_SCALED)
    if edge_value is None:
        edge_value = edge_estimate(params).value
    # edge_estimate applies the step-length correction whenever n > m
    return Estimate(value=edge_value, method=EstimatorMethod.EDGE_SCALED, corrected=n != m)
