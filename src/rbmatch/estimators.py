"""Closed-form and recursive estimators of the expected mean matching distance
for bipartite point sets on a segment, plus a density-based dispatcher."""

from __future__ import annotations

import numpy as np

from .combinatorics import (
    expected_zero_returns,
    harel_area,
    log_factorials,
    stars_bars_distribution,
)
from .types import EdgeParams, check_count, check_positive

__all__ = [
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


def _check_counts(m, ns: list, least_excess: int = 1) -> None:
    """The count relations of the segment estimators: m is a count of at
    least 1, ``ns`` is nonempty and each n in it is a count of at least
    m + least_excess. A ValueError names the count that breaks them."""
    if not ns:
        raise ValueError("ns must be nonempty")
    check_count("m", m, least=1)
    for n in ns:
        check_count("n", n)
        if n < m + least_excess:
            relation = ">" if least_excess else ">="
            raise ValueError(f"requires n {relation} m, got n={n} for m={m}")


def step_length_correction(m: int, n: int, length: float = 1.0) -> float:
    """Subtractive correction (n-m) / (2n(m+n)) * length for unbalanced estimates.

    Compensates for the mean step size of the post-removal balanced segments
    being smaller than the raw mean gap; it vanishes when m = n. A ValueError
    names a count or length that ``baseline_estimate`` would reject.
    """
    _check_counts(m, [n], least_excess=0)
    check_positive("length", length)
    return length * (n - m) / (2.0 * n * (m + n))


def _harel_values(max_n: int) -> np.ndarray:
    return np.array([harel_area(i) for i in range(max_n + 1)])


def balanced_estimate(n: int, length: float = 1.0) -> float:
    """Expected mean matching distance for n demand and n supply points.

    Evaluates l * B(n) / n with mean gap l = length / (2n), where B is the
    expected balanced-walk area; equals (1/(2n)) * 2^(2n-1) / C(2n, n) on the
    unit segment.
    """
    check_count("n", n, least=1)
    check_positive("length", length)
    gap = length / (2.0 * n)
    return gap * harel_area(n) / n


def closed_unbalanced_estimates(m: int, ns) -> dict[int, float]:
    """Uncorrected unit-length closed-form estimates for every n in ``ns``.

    Each is (n-m+1) / (m(m+n)) * sum_{m'} Pr{m_0 = m'} * B(m'). All ns share
    one walk-area table B(0..m) and one log-factorial table up to max(ns);
    table entries do not depend on the table's size, so each value equals
    the one-element call's bit for bit.
    """
    ns = list(ns)
    _check_counts(m, ns)
    areas = _harel_values(m)
    lf = log_factorials(max(ns))
    return {
        n: (n - m + 1) / (m * (m + n)) * float(stars_bars_distribution(m, n, lf) @ areas)
        for n in ns
    }


def closed_unbalanced_estimate(
    m: int, n: int, length: float = 1.0, uncorrected: float | None = None
) -> float:
    """Corrected closed-form estimate for m demand and n > m supply points.

    Averages the balanced-walk area over the stars-and-bars distribution of
    demand counts per segment:
    (n-m+1) / (m(m+n)) * sum_{m'} Pr{m_0 = m'} * B(m'), minus the
    step-length correction, scaled by length. The uncorrected unit-length
    value is the one-element case of ``closed_unbalanced_estimates``; a
    caller that has it from a shared pass passes it as ``uncorrected``.
    """
    check_positive("length", length)
    value = closed_unbalanced_estimates(m, [n])[n] if uncorrected is None else uncorrected
    return length * (value - step_length_correction(m, n))


def _ballot_weights(a: np.ndarray, m_hat: np.ndarray, lf: np.ndarray):
    """The ballot probabilities P(m' | a, e) = C(a, m') * C(a+e, m') /
    C(2a+e, 2m') * e / (2a+e-2m') at the cells (a, m'), as a function of e.

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


def recursion_table(m: int, n: int) -> np.ndarray:
    """Solve the segment-area recursion bottom-up, in units of the mean gap.

    Returns the read-only (n-m+1, m+1) table of expected post-removal tail
    areas E[Z_{k,a}] on a line whose mean gap length/(m+n) is 1: entry
    [k, a] is the expected absolute area, in gap units, to the right of the
    k-th removed supply point when a demand points remain there, for
    k = 0..n-m and a = 0..m. Rows run from the base k = n-m (a fully
    balanced tail of area B(a)) down to k = 0. Interior rows k = 1..n-m-1
    subtract the one-swap area reduction 2m' - 2 E[zero returns | m'] inside
    the expectation; row k = 0 applies no swap reduction.

    Row k is E[Z_{k,a}] = sum_{m'<=a} P(m' | a, e) * (S(m') + E[Z_{k+1,a-m'}])
    with e = n-m-k removals left, P the ballot probability
    C(a, m') * C(a+e, m') / C(2a+e, 2m') * e / (2a+e-2m') and S the segment
    area. The kernel packs the cells (a, m') with m' <= a row by row into
    flat arrays, so each row is one gather of the next row at a - m', one
    elementwise product and one segmented sum.

    Estimates do not build this table per n: ``recursive_estimates`` builds
    one table for all the ns of one (m, length) and scales by the gap. The
    experiment harness computes every point's estimates once per sweep, in
    the parent process, with one such table per (m, length), for segment,
    edge and network points alike. The per-n table is the test reference.
    """
    _check_counts(m, [n])
    excess = n - m
    areas = _harel_values(m)
    zero_returns = np.array([expected_zero_returns(i) for i in range(m + 1)])
    swap_reduction = 2.0 * np.arange(m + 1) - 2.0 * zero_returns

    counts = np.arange(m + 1)
    a = np.repeat(counts, counts + 1)  # cell -> remaining demand a
    starts = counts * (counts + 1) // 2  # first cell of each row a
    m_hat = np.arange(a.size) - starts[a]  # cell -> demand in this segment
    rest = a - m_hat  # cell -> demand left for the next segment
    ballot = _ballot_weights(a, m_hat, log_factorials(2 * m + excess))
    full_segment = areas[m_hat]
    swapped_segment = (areas - swap_reduction)[m_hat]

    values = np.zeros((excess + 1, m + 1))
    values[excess] = areas
    for k in range(excess - 1, -1, -1):
        probs = ballot(excess - k)
        probs *= (full_segment if k == 0 else swapped_segment) + values[k + 1][rest]
        values[k] = np.add.reduceat(probs, starts)
    values.flags.writeable = False
    return values


def recursive_estimates(m: int, ns, length: float = 1.0) -> dict[int, float]:
    """Uncorrected recursive estimates E[Z_{0,m}] / m for every n in ``ns``,
    from one recursion pass.

    The pass builds one unit-gap table ``recursion_table(m, top)`` at
    top = max(ns); its row k >= 1 is the unit-gap row for e = top - m - k
    removals left, bit for bit the same whatever top is. With X = n - m,
    row 0 of n's own table at a = m is P_X . (B(m') + row_{X-1}[m - m']),
    with P_X the ballot weights P(m' | m, X) and B the walk areas, scaled by
    the gap length/(m+n). Every n, top included, takes this one formula, so
    its value never depends on which other ns share the pass. It agrees with
    the per-n table's entry [0, m] times the gap, over m, to a few ulp.
    """
    ns = list(ns)
    _check_counts(m, ns)
    check_positive("length", length)
    top = max(ns)
    rows = recursion_table(m, top)
    ballot = _ballot_weights(np.full(m + 1, m), np.arange(m + 1), log_factorials(m + top))
    areas = rows[top - m]  # the base row: the walk areas B(a)
    out = {}
    for n in ns:
        tail = rows[top - n + 1][::-1]  # the row for e = n - m - 1, at a = m - m'
        out[n] = length / (m + n) * float(ballot(n - m) @ (areas + tail)) / m
    return out


def recursive_estimate(m: int, n: int, length: float = 1.0) -> float:
    """Corrected recursive estimate for m demand and n > m supply points.

    Returns E[Z_{0,m}] / m from the removal-and-swap recursion, an upper
    bound, minus the step-length correction. The uncorrected value is the
    one-element pass of ``recursive_estimates``.
    """
    return recursive_estimates(m, [n], length)[n] - step_length_correction(m, n, length)


def baseline_estimate(m: int, n: int, length: float = 1.0) -> float:
    """Prior double-sum estimate, tending to length/(2n) when n >> m.

    1/(2m(n+1)) * sum_{i=1..m} [ sum_{k=1..i} k r^(k-1) (1-r) + i r^i ] with
    r = (i-1)/n, scaled by length. The inner sum telescopes to
    sum_{k<i} r^k = (1 - r^i) / (1 - r), with 1 - r = (n-i+1)/n taken
    exactly.
    """
    _check_counts(m, [n], least_excess=0)
    check_positive("length", length)
    i = np.arange(1, m + 1, dtype=np.float64)
    r = (i - 1.0) / n
    total = float(np.add.reduce((1.0 - r**i) / ((n - i + 1.0) / n)))
    return length * total / (2.0 * m * (n + 1))


def edge_estimate(params: EdgeParams) -> float:
    """Within-edge expected distance: balanced at n = m, else the corrected recursion."""
    if params.n == params.m:
        return balanced_estimate(params.n, params.length)
    return recursive_estimate(params.m, params.n, params.length)


def dispatch_estimate(params: EdgeParams, edge_value: float) -> float:
    """Route edge parameters to the appropriate segment estimator.

    Supply/demand ratios below 3 take ``edge_value``, the caller's
    ``edge_estimate(params)``; heavier surpluses use the 1/(2*lam) asymptote,
    which no longer depends on length.
    """
    if params.lam / params.mu >= _DISPATCH_RATIO_CUTOFF:
        return 1.0 / (2.0 * params.lam)
    return edge_value
