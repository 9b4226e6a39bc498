"""Quantiles, ECDF, and two-sample KS against hand and library oracles."""

import math
import random
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from botminer.stats import (LINEAR, NEAREST_RANK, Ecdf, _kolmogorov_sf, ecdf, ks_two_sample,
                            quantile)


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_nearest_rank_1_to_100():
    # ceil(0.95 * 100) = 95th order statistic
    assert quantile(range(1, 101), 0.95, NEAREST_RANK) == 95


def test_nearest_rank_singleton():
    assert quantile([7], 0.5, NEAREST_RANK) == 7
    assert quantile([7], 0.01, NEAREST_RANK) == 7
    assert quantile([7], 0.99, NEAREST_RANK) == 7


def test_linear_quartiles_1_to_10():
    assert quantile(range(1, 11), 0.25, LINEAR) == pytest.approx(3.25, abs=1e-12)
    assert quantile(range(1, 11), 0.75, LINEAR) == pytest.approx(7.75, abs=1e-12)


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            quantile([1, 2, 3], q)
    with pytest.raises(ValueError):
        quantile([1, 2], 0.5, method="cubic")


def test_nearest_rank_is_order_statistic():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 60)
        values = [rng.randint(0, 30) for _ in range(n)]
        q = rng.uniform(0.01, 0.99)
        got = quantile(values, q, NEAREST_RANK)
        assert got == sorted(values)[math.ceil(q * n) - 1]
        assert got in values  # nearest-rank always returns a sample element


def test_linear_matches_numpy():
    rng = random.Random(12)
    for _ in range(300):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 40))]
        q = rng.uniform(0.01, 0.99)
        assert quantile(values, q, LINEAR) == pytest.approx(
            float(np.quantile(values, q)), abs=1e-9)


# ---------------------------------------------------------------------------
# ecdf
# ---------------------------------------------------------------------------

def test_ecdf_hand_values():
    f = ecdf(Counter([3, 1, 2]))
    assert f.evaluate(1) == pytest.approx(1 / 3)
    assert f.evaluate(2.5) == pytest.approx(2 / 3)
    assert f.evaluate(3) == 1.0


def test_ecdf_single_point_step():
    f = ecdf(Counter([5]))
    assert f.evaluate(4.9) == 0.0
    assert f.evaluate(5) == 1.0


def test_ecdf_ties_collapse():
    f = ecdf(Counter([1, 1, 1]))
    assert f.evaluate(1) == 1.0
    assert f.points() == [(1, 1.0)]


def test_ecdf_limits_and_monotonicity():
    rng = random.Random(13)
    for _ in range(50):
        values = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 30))]
        f = ecdf(Counter(values))
        assert f.evaluate(float("-inf")) == 0.0
        assert f.evaluate(float("inf")) == 1.0
        xs = sorted(rng.uniform(-12, 12) for _ in range(20))
        fx = [f.evaluate(x) for x in xs]
        assert all(a <= b for a, b in zip(fx, fx[1:]))


def test_ecdf_points_export():
    f = ecdf(Counter([2, 1, 2, 3]))
    assert f.points() == [(1, 0.25), (2, 0.75), (3, 1.0)]
    assert f.points()[-1][1] == 1.0


def test_ecdf_scale_shift_equivariance():
    rng = random.Random(14)
    values = [rng.uniform(-5, 5) for _ in range(40)]
    c, s = 2.5, -3.0
    f = ecdf(Counter(values))
    g = ecdf(Counter(c * v + s for v in values))
    for t in [rng.uniform(-6, 6) for _ in range(25)]:
        assert g.evaluate(c * t + s) == pytest.approx(f.evaluate(t))


def test_ecdf_empty_has_no_points():
    f = ecdf(Counter())
    assert f == Ecdf((), (), 0)
    assert f.points() == []
    assert f.evaluate(0.0) == 0.0


# ---------------------------------------------------------------------------
# ks_two_sample
# ---------------------------------------------------------------------------

def _brute_force_d(a, b):
    pts = sorted(set(a) | set(b))
    return max(abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b))
               for x in pts)


def test_ks_identical_samples():
    res = ks_two_sample(Counter([1, 2, 3]), Counter([1, 2, 3]))
    assert res.d_statistic == 0.0
    assert res.p_value == 1.0


def test_ks_disjoint_supports():
    res = ks_two_sample(Counter([0, 0, 0]), Counter([1, 1, 1]))
    assert res.d_statistic == 1.0


def test_ks_shifted_quadruple():
    res = ks_two_sample(Counter([1, 2, 3, 4]), Counter([2, 3, 4, 5]))
    assert res.d_statistic == pytest.approx(0.25, abs=1e-12)


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample(Counter(), Counter([1]))
    with pytest.raises(ValueError):
        ks_two_sample(Counter([1]), Counter())


def test_ks_symmetry():
    rng = random.Random(15)
    for _ in range(100):
        a = [rng.randint(0, 6) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(0, 6) for _ in range(rng.randint(1, 12))]
        r1 = ks_two_sample(Counter(a), Counter(b))
        r2 = ks_two_sample(Counter(b), Counter(a))
        assert r1.d_statistic == r2.d_statistic
        assert r1.p_value == r2.p_value


def test_ks_replication_shrinks_p():
    # same d, growing n => lambda grows => p falls
    a, b = [0.0, 1.0, 1.5], [1.0, 2.0, 2.5]
    previous = None
    for k in (1, 2, 4, 8):
        res = ks_two_sample(Counter(a * k), Counter(b * k))
        assert res.d_statistic == ks_two_sample(Counter(a), Counter(b)).d_statistic
        if previous is not None:
            assert res.p_value < previous
        previous = res.p_value


def test_ks_d_matches_scipy():
    rng = random.Random(16)
    for _ in range(200):
        a = [rng.uniform(0, 3) for _ in range(rng.randint(2, 25))]
        b = [rng.uniform(0, 3) for _ in range(rng.randint(2, 25))]
        res = ks_two_sample(Counter(a), Counter(b))
        oracle = scipy.stats.ks_2samp(a, b, method="asymp")
        assert res.d_statistic == pytest.approx(oracle.statistic, abs=1e-12)


def test_ks_p_matches_kolmogorov_sf():
    rng = random.Random(17)
    for _ in range(200):
        a = [rng.randint(0, 4) for _ in range(rng.randint(2, 20))]
        b = [rng.randint(0, 4) for _ in range(rng.randint(2, 20))]
        res = ks_two_sample(Counter(a), Counter(b))
        lam = res.d_statistic * math.sqrt(res.n1 * res.n2 / (res.n1 + res.n2))
        assert res.p_value == pytest.approx(float(scipy.special.kolmogorov(lam)), abs=1e-9)
        assert 0.0 <= res.p_value <= 1.0


def test_kolmogorov_sf_matches_scipy_from_tiny_lambda_to_three():
    # both sides of the switch to the complementary series at lambda = 0.5
    for lam in [*np.logspace(-12, 0, 241), *np.linspace(0.01, 3.0, 300)]:
        expected = float(scipy.special.kolmogorov(lam))
        assert _kolmogorov_sf(float(lam)) == pytest.approx(expected, rel=0, abs=1e-12), lam


def test_ks_p_of_near_equal_samples_is_one():
    # D is about 1e-12 and lambda about 7e-10, where the alternating series
    # stopped after its term limit and read p = 1e-6
    res = ks_two_sample({-1.0: 1, 1.0: 999_999}, {-1.0: 1, 1.0: 1_000_000})
    lam = res.d_statistic * math.sqrt(res.n1 * res.n2 / (res.n1 + res.n2))
    assert 0.0 < lam < 1e-9
    assert res.p_value == float(scipy.special.kolmogorov(lam)) == 1.0


def test_ks_d_zero_iff_cdfs_agree():
    rng = random.Random(18)
    for _ in range(150):
        a = [rng.randint(0, 3) for _ in range(rng.randint(1, 10))]
        b = [rng.randint(0, 3) for _ in range(rng.randint(1, 10))]
        res = ks_two_sample(Counter(a), Counter(b))
        assert res.d_statistic == pytest.approx(_brute_force_d(a, b), abs=1e-15)
        fa, fb = ecdf(Counter(a)), ecdf(Counter(b))
        agree = all(fa.evaluate(x) == fb.evaluate(x) for x in set(a) | set(b))
        assert (res.d_statistic == 0.0) == agree


samples = st.lists(st.sampled_from([-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=30)


@given(samples, samples)
def test_ks_on_counts_equals_brute_force_on_lists(a, b):
    res = ks_two_sample(Counter(a), Counter(b))
    assert res.d_statistic == _brute_force_d(a, b)
    assert (res.n1, res.n2) == (len(a), len(b))
    assert ecdf(Counter(a)).points()[-1] == (max(a), 1.0)
