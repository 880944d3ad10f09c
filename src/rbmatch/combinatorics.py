"""Combinatorial kernels: log-space binomials, random-walk areas, the
stars-and-bars distribution, zero-return counts, and the standard normal
CDF/PDF."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_binomial",
    "log_factorials",
    "harel_area",
    "stars_bars_distribution",
    "expected_zero_returns",
    "normal_cdf",
    "normal_pdf",
]

# Above this walk size the closed form and the Stirling asymptote agree to
# better than 0.1%, so the cheaper asymptote is used.
HAREL_STIRLING_SWITCH = 150


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


def stars_bars_distribution(m: int, n: int, lf: np.ndarray | None = None) -> np.ndarray:
    """Stars-and-bars law of the first of n-m+1 segments holding m' of m
    items: entry m' is C(n-m'-1, n-m-1) / C(n, n-m), for n > m >= 0.

    ``lf`` is a ``log_factorials`` table of at least n + 1 entries, built
    here when not given; its entries do not depend on its size.
    """
    if n <= m:
        raise ValueError("requires n > m")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if lf is None:
        lf = log_factorials(n)
    mp = np.arange(m + 1)
    rest = n - mp - 1
    log_w = (lf[rest] - lf[n - m - 1] - lf[m - mp]) - (lf[n] - lf[n - m] - lf[m])
    return np.exp(log_w)


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
