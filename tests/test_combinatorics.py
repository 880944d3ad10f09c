import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from _references import (
    ballot_segment_prob,
    enumerate_balanced_walks,
    stars_bars_prob,
    walk_area_oracle,
)

import rbmatch
from rbmatch.combinatorics import (
    HAREL_STIRLING_SWITCH,
    expected_zero_returns,
    harel_area,
    log_factorials,
    normal_cdf,
    normal_pdf,
    stars_bars_distribution,
)


def test_log_factorials_table():
    lf = log_factorials(300)
    assert lf.shape == (301,)
    assert lf[0] == lf[1] == 0.0
    np.testing.assert_allclose(lf, gammaln(np.arange(301) + 1.0), rtol=1e-14, atol=1e-13)
    for n, k in ((10, 3), (300, 150), (211, 7)):
        assert lf[n] - lf[k] - lf[n - k] == pytest.approx(math.log(math.comb(n, k)), abs=1e-11)


def test_harel_area_small_values():
    assert harel_area(0) == 0.0
    assert harel_area(1) == pytest.approx(1.0)
    assert harel_area(2) == pytest.approx(8.0 / 3.0)
    assert harel_area(3) == pytest.approx(3 * 32 / 20)


def test_walk_area_oracle_small_counts():
    assert walk_area_oracle(1) == pytest.approx(1.0)  # both 2-step walks have area 1
    assert walk_area_oracle(2) == pytest.approx(8.0 / 3.0)  # areas {4,2,2,2,2,4}
    assert walk_area_oracle(3) == pytest.approx(harel_area(3), abs=1e-12)


def test_harel_matches_oracle_up_to_eight():
    # both are one correctly rounded division of the same rational
    for n in range(11):
        assert harel_area(n) == walk_area_oracle(n)


def test_harel_is_the_exact_rational_below_switch():
    for n in range(HAREL_STIRLING_SWITCH):
        assert harel_area(n) == n * 4**n / (2 * math.comb(2 * n, n))
    assert harel_area(1) == 1.0
    assert harel_area(np.int64(HAREL_STIRLING_SWITCH - 1)) == harel_area(HAREL_STIRLING_SWITCH - 1)


def test_walk_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        walk_area_oracle(11)


def test_harel_branches_agree_at_switch():
    n = HAREL_STIRLING_SWITCH
    exact = n * 4**n / (2 * math.comb(2 * n, n))
    stirling = harel_area(n)
    assert abs(stirling - exact) / exact < 1e-3


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: harel_area(2.5), "n=2.5"),
        (lambda: harel_area(-1), "n=-1"),
        (lambda: expected_zero_returns(2.5), "m_hat=2.5"),
        (lambda: stars_bars_distribution(2.5, 5), "m=2.5"),
        (lambda: stars_bars_distribution(2, 5.0), "n=5.0"),
    ],
)
def test_walk_helpers_reject_non_integral_counts(call, name):
    count, value = name.split("=")
    with pytest.raises(ValueError, match=f"^{count} must be an integer of at least 0, got {value}$"):
        call()


def test_stars_bars_examples():
    assert stars_bars_prob(0, 1, 2) == pytest.approx(0.5)
    assert stars_bars_prob(1, 1, 2) == pytest.approx(0.5)
    for n in (3, 7, 40):
        m = 2
        assert stars_bars_prob(m, m, n) == pytest.approx(1.0 / math.comb(n, n - m))


def test_stars_bars_rejects_balanced():
    with pytest.raises(ValueError):
        stars_bars_prob(0, 3, 3)


def test_stars_bars_sums_to_one_sampled():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(1, 60))
        n = int(rng.integers(m + 1, 200))
        total = sum(stars_bars_prob(mp, m, n) for mp in range(m + 1))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_ballot_examples():
    assert ballot_segment_prob(0, 0, 1, 1) == pytest.approx(1.0 / 3.0)
    assert ballot_segment_prob(1, 0, 1, 1) == pytest.approx(2.0 / 3.0)
    total = sum(ballot_segment_prob(mh, 0, 5, 3) for mh in range(6))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ballot_rejects_spent_excess():
    with pytest.raises(ValueError):
        ballot_segment_prob(0, 3, 5, 3)


def test_ballot_sums_to_one_sampled():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = int(rng.integers(0, 51))
        e = int(rng.integers(1, 21))
        total = sum(ballot_segment_prob(mh, 0, a, e) for mh in range(a + 1))
        assert total == pytest.approx(1.0, abs=1e-9)


def _zero_return_enumeration(m_hat: int) -> float:
    walks = enumerate_balanced_walks(m_hat)
    heights = np.cumsum(walks, axis=1)
    return float((heights == 0).sum(axis=1).mean())


def test_expected_zero_returns_values():
    assert expected_zero_returns(0) == 0.0
    assert expected_zero_returns(1) == pytest.approx(1.0)
    assert expected_zero_returns(3) == pytest.approx(_zero_return_enumeration(3), abs=1e-12)


def test_expected_zero_returns_matches_enumeration():
    for m_hat in range(1, 9):
        assert expected_zero_returns(m_hat) == pytest.approx(
            _zero_return_enumeration(m_hat), abs=1e-10
        )


def _first_return_sum(m_hat: int) -> Fraction:
    """Exact expected zero-return count: sum over j of Pr{height 0 after 2j
    steps} = C(2j-1, j) C(2(m_hat-j), m_hat-j) / C(2m_hat-1, m_hat)."""
    den = math.comb(2 * m_hat - 1, m_hat)
    return sum(
        Fraction(math.comb(2 * j - 1, j) * math.comb(2 * (m_hat - j), m_hat - j), den)
        for j in range(1, m_hat + 1)
    )


def _zero_returns_log_sum(m_hat: int) -> float:
    """The term-by-term O(m_hat) sum in log space, as a reference for the
    closed form."""
    def log_binom(n, k):
        return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)

    j = np.arange(1, m_hat + 1)
    log_terms = (
        log_binom(2 * j - 1, j)
        + log_binom(2 * (m_hat - j), m_hat - j)
        - log_binom(2 * m_hat - 1, m_hat)
    )
    return float(np.exp(log_terms).sum())


def test_zero_returns_closed_form_identity_exact():
    for m_hat in range(1, 61):
        closed = Fraction(4**m_hat, math.comb(2 * m_hat, m_hat)) - 1
        assert closed == _first_return_sum(m_hat)
        assert expected_zero_returns(m_hat) == pytest.approx(float(closed), rel=1e-15)
    assert expected_zero_returns(1) == 1.0


def test_zero_returns_closed_form_matches_term_sum():
    for m_hat in range(1, 401):
        assert expected_zero_returns(m_hat) == pytest.approx(
            _zero_returns_log_sum(m_hat), rel=1e-11
        )


def test_import_loads_no_scipy():
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    # a scipy.optimize import adds ~47 MB of peak RSS; the network path loads
    # only the compiled assignment kernel's extension file
    code = (
        "import sys, rbmatch\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
        "net = rbmatch.build_regular_network(4, 36, 1.0)\n"
        "inst = rbmatch.sample_instance(net, 5.0, 10.0, 0)\n"
        "assert rbmatch.exact_network_match(net, inst).total_distance > 0\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    after_import, after_solve = out.stdout.splitlines()
    assert after_import == "[]"
    assert after_solve == "['scipy.optimize._lsap']"


def test_import_loads_no_numpy_random():
    # numpy.random costs ~13 ms of import time; it loads when a sweep first
    # builds its streams, not with rbmatch or a config
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    code = (
        "import sys, rbmatch\n"
        "cfg = rbmatch.ExperimentConfig(rbmatch.ExperimentKind.SEGMENT,"
        " (rbmatch.SegmentPoint(2, 3),), replications=2, master_seed=1)\n"
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_loads_no_multiprocessing():
    # multiprocessing costs ~15-20 ms of import time; it loads only when a
    # sweep runs on more than one worker. logging (~4 ms) never loads
    src = str(Path(rbmatch.__file__).resolve().parent.parent)
    code = (
        "import sys, rbmatch\n"
        "cfg = rbmatch.ExperimentConfig(rbmatch.ExperimentKind.SEGMENT,"
        " (rbmatch.SegmentPoint(2, 3),), replications=2, master_seed=1)\n"
        "rbmatch.run_experiment(cfg)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'logging')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_expected_zero_returns_monotone_and_bounded():
    values = [expected_zero_returns(m) for m in range(60)]
    for m, v in enumerate(values):
        assert 0.0 <= v <= m
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_normal_cdf_pdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-9)


def test_normal_cdf_against_quadrature():
    for x in (-0.5 / math.sqrt(10.0), -2.0, 0.7, 3.1):
        integral, _ = quad(normal_pdf, -9.0, x)
        assert normal_cdf(x) == pytest.approx(integral, abs=1e-8)
    assert normal_cdf(-0.5 / math.sqrt(10.0)) == pytest.approx(0.43717, abs=1e-4)


def test_normal_cdf_symmetry():
    for x in np.linspace(-8, 8, 33):
        assert abs((1.0 - normal_cdf(x)) - normal_cdf(-x)) <= 1e-12
