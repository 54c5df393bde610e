"""LDLR bounds, the exact norm by the overlap series and its enumeration
oracle, and the spiked Wishart limit."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cumlab._special import logsumexp
from cumlab.ldlr import (
    bound_report,
    ldlr_asymptotics,
    ldlr_lower_log,
    ldlr_norm_log,
    ldlr_upper_log,
    t_coeff,
)
from oracles import (
    EXACT_ENUMERATION_BUDGET,
    GAUSS,
    LAWS,
    RADEM,
    UNIF,
    enumeration_count,
    ldlr_exact_small_log,
    ldlr_exact_spike_average_log,
    ldlr_norm_fraction,
    ldlr_wishart_limit,
)


def test_t_coeff_values():
    assert t_coeff(0, 10.0, RADEM) == 1.0
    for beta in (0.5, 10.0):
        for dist in (RADEM, UNIF):
            assert t_coeff(2, beta, dist) == 0.0
            assert t_coeff(3, beta, dist) == 0.0
            assert t_coeff(5, beta, dist) == 0.0
    assert t_coeff(4, 10.0, RADEM) == pytest.approx((10.0 / 11.0) ** 2 * -2.0, rel=1e-14)
    assert t_coeff(4, 10.0, GAUSS) == 0.0


def test_lower_trivial_and_hand_expansion():
    # floor(D/4) = 0: only the constant term survives
    assert ldlr_lower_log(5, 3, 3, 10.0, RADEM) == 0.0
    # n=1, d=2, D=4: 1 + C(1,1) C(3,2) q^2 with q = beta^2 kappa4/(sqrt(24) d^2 (1+beta)^2)
    q = 100.0 * 2.0 / (math.sqrt(24.0) * 4.0 * 121.0)
    expected = math.log(1.0 + 3.0 * q * q)
    assert ldlr_lower_log(1, 2, 4, 10.0, RADEM) == pytest.approx(expected, rel=1e-12)


def test_lower_monotonicity():
    base = ldlr_lower_log(8, 5, 8, 10.0, RADEM)
    assert ldlr_lower_log(8, 5, 12, 10.0, RADEM) >= base  # D up
    assert ldlr_lower_log(16, 5, 8, 10.0, RADEM) >= base  # n up
    assert base >= ldlr_lower_log(8, 5, 8, 10.0, UNIF)  # |kappa4| up: 2 against Uniform's 1.2


def test_lower_precondition():
    with pytest.raises(ValueError, match="distinct samples"):
        ldlr_lower_log(1, 4, 8, 10.0, RADEM)


def test_bounds_and_norm_refuse_bad_sizes():
    with pytest.raises(ValueError, match="D must be >= 0"):
        ldlr_upper_log(3, 4, -1, 10.0, RADEM)
    with pytest.raises(ValueError, match="needs D >= 4"):
        ldlr_asymptotics(10, 4, 3, 10.0, RADEM)
    for n, d, D in ((-1, 4, 8), (10, 0, 8), (10, 4, -2)):
        with pytest.raises(ValueError, match="need n >= 0, d >= 1 and D >= 0"):
            ldlr_norm_log(n, d, D, 10.0, RADEM)


def test_upper_trivial():
    assert ldlr_upper_log(3, 4, 0, 10.0, RADEM) == 0.0
    # Gaussian g: every coefficient vanishes, the bound collapses to 1
    assert ldlr_upper_log(5, 6, 12, 10.0, GAUSS) == 0.0


def test_upper_dominates_lower_on_random_grid():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(2, 40))
        D = int(rng.integers(0, min(4 * n, 16) + 1))
        beta = float(rng.uniform(0.1, 30.0))
        lo = ldlr_lower_log(n, d, D, beta, RADEM)
        up = ldlr_upper_log(n, d, D, beta, RADEM)
        assert up >= lo - 1e-12, (n, d, D, beta)


def test_exact_trivial_degrees():
    assert ldlr_exact_small_log(2, 3, 0, 10.0, RADEM) == 0.0
    # every nonzero contribution needs a row of degree >= 4
    for n, d, beta in ((1, 2, 5.0), (3, 4, 10.0)):
        assert ldlr_exact_small_log(n, d, 3, beta, RADEM) == 0.0


def test_exact_hand_enumeration():
    # n=1, d=2, D=4, Rademacher: admissible rows are (4,0), (0,4), (2,2);
    # alpha! = 24, 24, 4 and the parity rule keeps all three
    beta = 10.0
    t4 = (beta / (1 + beta)) ** 2 * -2.0
    expected = 1.0 + t4 * t4 / 2.0**4 * (1 / 24 + 1 / 24 + 1 / 4)
    got = math.exp(ldlr_exact_small_log(1, 2, 4, beta, RADEM))
    assert got == pytest.approx(expected, rel=1e-12)


def test_exact_parity_rule_equals_spike_average():
    for (n, d, D) in ((1, 3, 6), (2, 3, 8), (2, 4, 8)):
        a = ldlr_exact_small_log(n, d, D, 10.0, RADEM)
        b = ldlr_exact_spike_average_log(n, d, D, 10.0, RADEM)
        assert a == pytest.approx(b, abs=1e-12)


def test_exact_budget_error_names_count():
    # rows of degree 4, 6, 8 and (4, 4) on d = 16: 1 + 3876 + 54264 + 490314
    # + 3876^2 multi-indices, over the budget
    assert EXACT_ENUMERATION_BUDGET < 15_571_831
    with pytest.raises(ValueError, match="would visit 15571831 multi-indices"):
        ldlr_exact_small_log(2, 16, 8, 10.0, RADEM)


def test_sandwich_small_instances():
    for g in (RADEM, UNIF):
        for beta in (1.0, 10.0):
            for n in (1, 2, 3):
                for d in (2, 3, 4):
                    for D in range(0, 9):
                        if D // 4 > n:
                            continue
                        lo = ldlr_lower_log(n, d, D, beta, g)
                        ex = ldlr_exact_small_log(n, d, D, beta, g)
                        up = ldlr_upper_log(n, d, D, beta, g)
                        assert lo <= ex + 1e-12, (g.kind, beta, n, d, D)
                        assert ex <= up + 1e-12, (g.kind, beta, n, d, D)


def test_sandwich_holds_at_large_n():
    # from n = 1e15 a difference of log-gamma values for log C(n, k) cancels
    # to the wrong order: the bounds need the exact integer binomials
    for e in range(15, 19):
        rep = bound_report(10**e, 16, 16, 10.0, RADEM)
        assert rep["log_lower"] <= rep["log_exact"] <= rep["log_upper"], e


def test_lower_equals_its_exact_rational_sum_at_large_n():
    # sum_m C(n, m) C(d+1, 2)^m q^m, q = (beta^2 kappa4)^2 / (24 d^4 (1+beta)^4),
    # summed in rationals and rounded once
    d, D, beta = 16, 16, Fraction(10)
    q = (beta**2 * Fraction(RADEM.kappa4)) ** 2 / (24 * d**4 * (1 + beta) ** 4)
    for e in range(10, 19):
        n = 10**e
        exact = sum(math.comb(n, m) * (math.comb(d + 1, 2) * q) ** m for m in range(D // 4 + 1))
        got = ldlr_lower_log(n, d, D, 10.0, RADEM)
        assert got == pytest.approx(math.log(exact), rel=1e-15, abs=0.0), e


def test_asymptotics_single_term_reduction():
    # D=4, n=d^2: the lower form is exactly (beta^2 kappa4/(1+beta)^2)^2
    d, beta = 50, 10.0
    lower, _ = ldlr_asymptotics(d * d, d, 4, beta, RADEM)
    expected = 2.0 * math.log(beta**2 * 2.0 / (1 + beta) ** 2)
    assert lower == pytest.approx(expected, rel=1e-12)


def test_asymptotics_dichotomy_direction():
    # lower form grows along theta=2.5; upper form shrinks along theta=1.0
    beta = 10.0
    lowers = []
    for d in (100, 1000, 10_000):
        n = int(d**2.5)
        D = int(np.ceil(np.log(n) ** 1.5))
        lo, _ = ldlr_asymptotics(n, d, D, beta, RADEM)
        lowers.append(lo)
    assert lowers[0] < lowers[1] < lowers[2]
    uppers = []
    for d in (10**4, 10**6, 10**8):
        n = d  # theta = 1, far enough below the theta = 2 threshold
        lo_, up = ldlr_asymptotics(n, d, 8, beta, RADEM)
        uppers.append(up)
    assert uppers[0] > uppers[1] > uppers[2]


def test_wishart_limit_values():
    assert ldlr_wishart_limit(0, 3.0, 1.0) == 1.0
    assert ldlr_wishart_limit(50, 0.0, 1.0) == 1.0
    # explicit three-term check: 1 + (1/2) b^2/g + (3/8) b^4/g^2
    b, g = 0.7, 2.0
    expected = 1.0 + 0.5 * b**2 / g + 0.375 * b**4 / g**2
    assert ldlr_wishart_limit(2, b, g) == pytest.approx(expected, rel=1e-14)


def test_wishart_limit_bbp_dichotomy():
    # bounded below beta_c = sqrt(gamma), divergent above
    below = [ldlr_wishart_limit(D, 0.9, 1.0) for D in (50, 100, 200)]
    assert below[-1] < 10.0 and below[-1] - below[-2] < 1e-3
    above = [ldlr_wishart_limit(D, 1.1, 1.0) for D in (50, 100, 200)]
    assert above[0] < above[1] < above[2]
    assert above[2] > 1e6


def test_wishart_limit_threshold_location():
    # the 1e6-crossing point tightens onto beta_c = sqrt(gamma) = 1 as D
    # grows; D = 200 still sits at ~1.035, D = 2000 is inside (0.99, 1.01)
    def crossing(D):
        lo, hi = 0.5, 2.0
        for _ in range(40):
            mid = (lo + hi) / 2
            if ldlr_wishart_limit(D, mid, 1.0) > 1e6:
                hi = mid
            else:
                lo = mid
        return hi

    assert 0.99 < crossing(2000) < 1.01
    assert crossing(200) > crossing(2000)  # monotone sharpening


def test_bound_report_metrics():
    rep = bound_report(2, 4, 8, 10.0, RADEM)
    assert list(rep) == ["log_lower", "log_upper", "log_exact", "asym_lower", "asym_upper"]
    assert rep["log_lower"] <= rep["log_exact"] <= rep["log_upper"]
    assert rep["log_exact"] == ldlr_norm_log(2, 4, 8, 10.0, RADEM)
    assert rep["log_exact"] == pytest.approx(ldlr_exact_small_log(2, 4, 8, 10.0, RADEM), abs=1e-13)
    assert (rep["asym_lower"], rep["asym_upper"]) == ldlr_asymptotics(2, 4, 8, 10.0, RADEM)
    # undefined metrics are left out: no asymptotic form below D = 4, no
    # upper bound below d = floor(D/2)
    assert list(bound_report(2, 3, 3, 10.0, RADEM)) == ["log_lower", "log_upper", "log_exact"]
    assert list(bound_report(2, 3, 8, 10.0, RADEM)) == [
        "log_lower", "log_exact", "asym_lower", "asym_upper"]


# the grid of the enumeration check: every instance of it that the oracle
# visits in at most 30,000 multi-indices
ORACLE_GRID = [(g, beta, n, d, D) for g in LAWS.values() for beta in (0.0, 0.5, 10.0)
               for n in (1, 2, 5, 20) for d in range(1, 7) for D in (4, 8, 12, 16)
               if enumeration_count(n, d, D) <= 30_000]


def test_norm_matches_the_enumeration_oracle():
    assert len(ORACLE_GRID) == 684
    worst = max(abs(ldlr_norm_log(n, d, D, beta, g) - ldlr_exact_small_log(n, d, D, beta, g))
                for g, beta, n, d, D in ORACLE_GRID)
    assert worst <= 1e-13


def test_norm_matches_exact_rational_arithmetic():
    # at beta = 1/2 the series is rational: T_m^2 = 3^-m E[h_m(g)]^2
    exact = ldlr_norm_fraction(20, 4, 16, Fraction(1, 2), RADEM)
    assert math.log1p(float(exact - 1)) == 0.008046380027193904
    assert abs(ldlr_norm_log(20, 4, 16, 0.5, RADEM) - 0.008046380027193904) <= 1e-15
    # out of the oracle's reach: large n and d, where the log-gamma weights
    # of the overlap law carry about 1e-12 of absolute error at d = 1000
    for n, d, D in ((10**6, 50, 24), (10**10, 300, 20), (10**9, 1000, 12)):
        for g in (RADEM, UNIF):
            want = math.log(ldlr_norm_fraction(n, d, D, Fraction(10), g))
            assert ldlr_norm_log(n, d, D, 10.0, g) == pytest.approx(want, rel=1e-13), (n, d, D)


def test_norm_is_exactly_one_at_the_null():
    for n, d, D in ((1, 1, 4), (20, 6, 16), (10**9, 10**4, 95)):
        assert ldlr_norm_log(n, d, D, 10.0, GAUSS) == 0.0
        for g in (RADEM, UNIF):
            assert ldlr_norm_log(n, d, D, 0.0, g) == 0.0
            for low in range(4):
                assert ldlr_norm_log(n, d, low, 10.0, g) == 0.0
    assert ldlr_norm_log(0, 5, 12, 10.0, RADEM) == 0.0  # no sample: the norm is 1


def test_norm_at_the_largest_auto_degree_is_fast():
    start = time.perf_counter()
    value = ldlr_norm_log(10**9, 10**6, 95, 10.0, RADEM)
    assert time.perf_counter() - start < 2.0
    assert 0.0 < value < 1e-3


def test_upper_is_a_bound_wherever_it_is_reported():
    # below d = floor(D/2) ldlr_upper_log drops degrees the norm keeps: at
    # this point the exact log norm is 31.75 and the formula gives 16.28
    assert ldlr_norm_log(10**6, 3, 12, 10.0, RADEM) > ldlr_upper_log(10**6, 3, 12, 10.0, RADEM)
    rng = np.random.default_rng(20)
    points = [(10**6, 3, 12, 10.0, RADEM)]
    while len(points) < 80:
        n = int(10 ** rng.uniform(0, 10))
        d = int(10 ** rng.uniform(0, 4))
        auto = math.ceil(math.log(max(n, 2)) ** 1.5)
        D = auto if rng.random() < 0.5 else int(rng.integers(0, min(4 * n, 40) + 1))
        if D // 4 <= n:
            points.append((n, d, D, float(rng.uniform(0.1, 30.0)), (RADEM, UNIF)[len(points) % 2]))
    written = 0
    for n, d, D, beta, g in points:
        rep = bound_report(n, d, D, beta, g)
        assert ("log_upper" in rep) == (d >= D // 2), (n, d, D)
        if d == 1 and D < 6:
            # both are log(1 + n a_4), summed in two orders: rounding decides their order
            gap = abs(rep["log_lower"] - rep["log_exact"])
            assert gap <= 4 * np.spacing(abs(rep["log_exact"])), (n, d, D, beta, g.kind)
        else:
            assert rep["log_lower"] <= rep["log_exact"], (n, d, D, beta, g.kind)
        if "log_upper" in rep:
            written += 1
            assert rep["log_exact"] <= rep["log_upper"], (n, d, D, beta, g.kind)
    assert written >= 20 and len(points) - written >= 20


@pytest.mark.parametrize("g", [RADEM, UNIF, GAUSS], ids=lambda g: g.kind)
def test_beta_zero_gives_the_null_norm_without_warnings(g):
    # at beta = 0 the planted law is the null: every norm is log 1 = 0 and the
    # asymptotic lower form is log 0; the log(0) terms drop out silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ldlr_lower_log(10, 3, 8, 0.0, g) == 0.0
        assert ldlr_upper_log(10, 3, 8, 0.0, g) == 0.0
        assert ldlr_asymptotics(10, 3, 8, 0.0, g) == (-np.inf, 0.0)
        assert ldlr_exact_small_log(2, 3, 8, 0.0, g) == 0.0
        assert ldlr_norm_log(2, 3, 8, 0.0, g) == 0.0


@pytest.mark.parametrize("g", [RADEM, UNIF], ids=lambda g: g.kind)
def test_a_tiny_beta_gives_finite_bounds_without_warnings(g):
    # below beta ~1.5e-154 beta * beta is subnormal or 0, and log beta^2 is
    # taken as 2 log beta: the lower bound is log 1 = 0 to the last bit, and
    # the asymptotic lower form, 2 (2 log(beta^2 |kappa4| / (1+beta)^2)
    # + log(n/d^2) - log 2) at D 8, is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (5e-324, 1e-300, 1e-160, 1.49e-154):
            assert ldlr_lower_log(100, 3, 8, beta, g) == 0.0
            lower, upper = ldlr_asymptotics(100, 3, 8, beta, g)
            want = 2.0 * (2.0 * (2.0 * math.log(beta) + math.log(abs(g.kappa4)))
                          + math.log(100 / 9) - math.log(2.0))
            assert lower == pytest.approx(want, rel=1e-14), beta
            assert upper == pytest.approx(0.0, abs=1e-150)


@pytest.mark.parametrize("g", [RADEM, UNIF], ids=lambda g: g.kind)
def test_a_larger_beta_keeps_the_one_quotient_bits(g):
    # from beta * beta normal on, log(beta^2 |kappa4| / scale) is one quotient
    # under one log, as the formulas read
    n, d, D = 100, 3, 8
    for beta in (1.5e-154, 1e-100, 1e-3, 0.5, 10.0, 1e100):
        log_q2 = 2.0 * np.log(abs(beta * beta * g.kappa4)
                              / (math.sqrt(24.0) * d * d * (1.0 + beta) ** 2))
        m = np.arange(3)
        terms = (np.log([1.0, 100.0, 4950.0]) + m * np.log(d * (d + 1) / 2.0) + m * log_q2)
        assert ldlr_lower_log(n, d, D, beta, g) == logsumexp(terms), beta
        lower = 2 * (2.0 * np.log(beta * beta * abs(g.kappa4) / (1.0 + beta) ** 2)
                     + (math.log(n) - 2.0 * np.log(d)) - np.log(2))
        assert ldlr_asymptotics(n, d, D, beta, g)[0] == lower, beta
