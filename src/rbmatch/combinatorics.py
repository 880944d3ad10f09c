"""Combinatorial kernels: random-walk areas and zero-return counts as exact
integer ratios, the stars-and-bars distribution on a log-factorial table,
and the standard normal CDF/PDF."""

from __future__ import annotations

import math

import numpy as np

from .types import check_count

__all__ = [
    "harel_area",
    "stars_bars_distribution",
    "expected_zero_returns",
    "normal_cdf",
    "normal_pdf",
]

# From this walk size on, the Stirling asymptote (within 0.1% of the exact
# ratio) stands in; the stored fig4a benchmark reference holds its values.
HAREL_STIRLING_SWITCH = 150


def log_factorials(top: int) -> np.ndarray:
    """Table of log k! for k = 0..top, so log C(x, y) = lf[x] - lf[y] - lf[x-y]."""
    return np.array([math.lgamma(k + 1) for k in range(top + 1)])


def harel_area(n: int) -> float:
    """Expected absolute area under a balanced +-1 random walk of 2n unit steps.

    Below ``HAREL_STIRLING_SWITCH`` it is the integer ratio
    n * 4^n / (2 C(2n, n)), whose true division is correctly rounded; from
    there on the Stirling form n * sqrt(pi*n) / 2 is used instead.
    """
    n = check_count("n", n)
    if n >= HAREL_STIRLING_SWITCH:
        return n * math.sqrt(math.pi * n) / 2.0
    return n * 4**n / (2 * math.comb(2 * n, n))


def stars_bars_distribution(m: int, n: int, lf: np.ndarray | None = None) -> np.ndarray:
    """Stars-and-bars law of the first of n-m+1 segments holding m' of m
    items: entry m' is C(n-m'-1, n-m-1) / C(n, n-m), for n > m >= 0.

    ``lf`` is a ``log_factorials`` table of at least n + 1 entries, built
    here when not given; its entries do not depend on its size.
    """
    m, n = check_count("m", m), check_count("n", n)
    if n <= m:
        raise ValueError(f"requires n > m, got n={n} for m={m}")
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
    m_hat = check_count("m_hat", m_hat)
    return 4**m_hat / math.comb(2 * m_hat, m_hat) - 1.0


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
