"""Combinatorial kernels: log-space binomials, random-walk areas, ballot and
stars-and-bars probabilities, zero-return counts, and the standard normal
CDF/PDF."""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "log_binomial",
    "log_factorials",
    "harel_area",
    "walk_area_oracle",
    "enumerate_balanced_walks",
    "stars_bars_prob",
    "stars_bars_distribution",
    "ballot_segment_prob",
    "expected_zero_returns",
    "normal_cdf",
    "normal_pdf",
]

# Above this walk size the closed form and the Stirling asymptote agree to
# better than 0.1%, so the cheaper asymptote is used.
HAREL_STIRLING_SWITCH = 150

_MAX_ORACLE_N = 10


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k); -inf when k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_factorials(top: int) -> np.ndarray:
    """Table of log k! for k = 0..top, so log C(x, y) = lf[x] - lf[y] - lf[x-y]."""
    return np.array([math.lgamma(k + 1) for k in range(top + 1)])


def harel_area(n: int) -> float:
    """Expected absolute area under a balanced +-1 random walk of 2n unit steps.

    Evaluates n * 2^(2n-1) / C(2n, n) in log space; for n >= 150 the Stirling
    form n * sqrt(pi*n) / 2 is used instead.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    if n >= HAREL_STIRLING_SWITCH:
        return n * math.sqrt(math.pi * n) / 2.0
    log_b = math.log(n) + (2 * n - 1) * math.log(2.0) - log_binomial(2 * n, n)
    return math.exp(log_b)


def enumerate_balanced_walks(n: int) -> np.ndarray:
    """All C(2n, n) balanced +-1 step sequences as a matrix of shape (paths, 2n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _MAX_ORACLE_N:
        raise ValueError(f"enumeration limited to n <= {_MAX_ORACLE_N}")
    steps = np.full((math.comb(2 * n, n), 2 * n), -1, dtype=np.int8)
    for row, ups in enumerate(itertools.combinations(range(2 * n), n)):
        steps[row, list(ups)] = 1
    return steps


def walk_area_oracle(n: int) -> float:
    """Brute-force mean absolute area over every balanced 2n-step walk.

    Per-path area is the sum of |height| after each step. Areas are integers,
    so the mean is an exact rational evaluated in floating point. Limited to
    n <= 10.
    """
    if n == 0:
        return 0.0
    steps = enumerate_balanced_walks(n)
    heights = np.cumsum(steps, axis=1, dtype=np.int64)
    total = int(np.abs(heights).sum())
    return total / steps.shape[0]


def stars_bars_prob(m_prime: int, m: int, n: int) -> float:
    """Probability that the first of n-m+1 partition segments holds m_prime of m items.

    Equals C(n - m_prime - 1, n - m - 1) / C(n, n - m). Defined only for
    n > m >= 0; zero when the numerator's arguments fall out of range.
    """
    if n <= m:
        raise ValueError("requires n > m")
    if m < 0 or m_prime < 0:
        raise ValueError("counts must be nonnegative")
    return math.exp(log_binomial(n - m_prime - 1, n - m - 1) - log_binomial(n, n - m))


def stars_bars_distribution(m: int, n: int) -> np.ndarray:
    """The whole first-segment distribution: entry m' is stars_bars_prob(m', m, n)."""
    if n <= m:
        raise ValueError("requires n > m")
    if m < 0:
        raise ValueError("m must be nonnegative")
    lf = log_factorials(n)
    mp = np.arange(m + 1)
    rest = n - mp - 1
    log_w = (lf[rest] - lf[n - m - 1] - lf[m - mp]) - (lf[n] - lf[n - m] - lf[m])
    return np.exp(log_w)


def ballot_segment_prob(m_hat: int, k: int, a: int, excess: int) -> float:
    """Probability that segment k holds m_hat demand points given a remain to its right.

    ``excess`` is the supply surplus n - m; the segment is a balanced stretch
    of 2*m_hat steps after which the walk never returns to its starting level,
    so the result combines a path-counting ratio with a ballot-style factor
    (excess - k) / (2a + excess - k - 2*m_hat). Requires excess - k >= 1.
    """
    e = excess - k
    if e <= 0:
        raise ValueError("requires excess - k >= 1")
    if a < 0 or m_hat < 0:
        raise ValueError("counts must be nonnegative")
    if m_hat > a:
        return 0.0  # the log ratio below would be -inf - (-inf)
    ratio = math.exp(
        log_binomial(a, m_hat) + log_binomial(a + e, m_hat) - log_binomial(2 * a + e, 2 * m_hat)
    )
    return ratio * e / (2 * a + e - 2 * m_hat)


def expected_zero_returns(m_hat: int) -> float:
    """Expected number of returns to zero of a balanced 2*m_hat-step walk.

    The sum over j of Pr{height 0 after 2j steps} = C(2j, j) C(2m_hat-2j,
    m_hat-j) / C(2m_hat, m_hat) has the closed form 4^m_hat / C(2m_hat, m_hat)
    - 1, since the products summed over j = 0..m_hat give 4^m_hat. Integer
    true division is correctly rounded, so m_hat = 1 gives exactly 1.
    """
    if m_hat < 0:
        raise ValueError("m_hat must be nonnegative")
    return 4**m_hat / math.comb(2 * m_hat, m_hat) - 1.0


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
