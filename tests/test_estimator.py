import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from tests.conftest import empirical_quantile, quantile_process, w1_cdf_distance
import wcontrast as wc
from wcontrast.errors import DomainError, ValidationError

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_hand_example_w1():
    sample = wc.PairedSample(np.array([1.0, 3.0, 2.0]), np.array([2.0, 2.0, 5.0]))
    assert wc.w_cost_empirical(sample, wc.power_cost(1)) == pytest.approx(1.0)


def test_identical_samples_zero():
    xs = np.random.default_rng(0).normal(size=50)
    sample = wc.PairedSample(xs, xs.copy())
    assert wc.w_cost_empirical(sample, wc.power_cost(1.7)) == 0.0


def test_comonotone_equal_is_exactly_zero_any_n():
    pair = wc.equal_pair(wc.exponential(), wc.comonotone())
    for n in (1, 7, 100, 5000):
        s = wc.sample_pairs(pair, n, seed=n)
        assert wc.w_cost_empirical(s, wc.power_cost(1.5)) == 0.0


def test_overflow_propagates_with_warning():
    from tests.conftest import exp_growth_cost

    cost = exp_growth_cost(1.5, 2.0)
    sample = wc.PairedSample(np.array([0.0, 1e5]), np.array([0.0, 0.0]))
    with pytest.warns(UserWarning, match="overflow"):
        val = wc.w_cost_empirical(sample, cost)
    assert math.isinf(val)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=60),
       st.lists(finite_floats, min_size=2, max_size=60))
def test_permutation_invariance(xs, ys):
    n = min(len(xs), len(ys))
    xs = np.asarray(xs[:n])
    ys = np.asarray(ys[:n])
    cost = wc.power_cost(1.5)
    base = wc.w_cost_empirical(wc.PairedSample(xs, ys), cost)
    rng = np.random.default_rng(1)
    shuffled = wc.PairedSample(rng.permutation(xs), rng.permutation(ys))
    assert wc.w_cost_empirical(shuffled, cost) == pytest.approx(base, rel=1e-12, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=60),
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_translation_invariance(vals, shift):
    n = len(vals) // 2
    if n < 1:
        return
    xs = np.asarray(vals[:n])
    ys = np.asarray(vals[n:2 * n])
    cost = wc.power_cost(2)
    a = wc.w_cost_empirical(wc.PairedSample(xs, ys), cost)
    b = wc.w_cost_empirical(wc.PairedSample(xs + shift, ys + shift), cost)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_floats, min_size=4, max_size=60),
       st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
       st.sampled_from([1.0, 1.5, 2.0]))
def test_homogeneity(vals, a, p):
    n = len(vals) // 2
    if n < 2:
        return
    xs = np.asarray(vals[:n])
    ys = np.asarray(vals[n:2 * n])
    cost = wc.power_cost(p)
    base = wc.w_cost_empirical(wc.PairedSample(xs, ys), cost)
    scaled = wc.w_cost_empirical(wc.PairedSample(a * xs, a * ys), cost)
    assert scaled == pytest.approx(a ** p * base, rel=1e-12, abs=1e-300)


def test_consistency_gate():
    # F = G = N(0,1) independent, |x|^1.5: estimate at n = 1e5 below 1e-2
    pair = wc.equal_pair(wc.gaussian())
    s = wc.sample_pairs(pair, 100_000, seed=17)
    assert wc.w_cost_empirical(s, wc.power_cost(1.5)) < 1e-2


def test_population_cost_examples(gauss_equal_pair, gauss_shift_pair):
    cost = wc.power_cost(2)
    zero = wc.w_cost_population(gauss_equal_pair, cost)
    assert zero.value == 0.0
    one = wc.w_cost_population(gauss_shift_pair, cost)
    assert one.value + one.tail_bound == pytest.approx(1.0, abs=1e-6)
    scale_pair = wc.make_pair(wc.gaussian(0, 1), wc.gaussian(0, 2))
    var = wc.w_cost_population(scale_pair, cost)
    assert var.value + var.tail_bound == pytest.approx(1.0, abs=1e-6)


# w_cost_population integrates over [delta, 1 - delta]
POP_DELTA = 1e-8


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_population_cost_shift_closed_form(gauss_shift_pair, p):
    # tau = -1 everywhere: the clipped integral is the clipped mass
    val = wc.w_cost_population(gauss_shift_pair, wc.power_cost(p)).value
    assert val == pytest.approx(1.0 - 2.0 * POP_DELTA, rel=1e-12, abs=0)


def test_population_cost_bump_closed_form(bump_pair_comonotone):
    # |tau| is the bump 0.15 sin^2 on D = [0.2, 0.5], whose mean is 0.15 / 2
    val = wc.w_cost_population(bump_pair_comonotone, wc.power_cost(1)).value
    assert val == pytest.approx(0.15 * 0.3 / 2.0, rel=1e-12, abs=0)


def test_population_cost_scale_second_moment():
    # (Q, 2Q) scale pairs with power(2): tau = -Q, so the value is the
    # second moment of the law over the quantile range [delta, 1 - delta]
    c = stats.norm.isf(POP_DELTA)
    gauss = (1.0 - 2.0 * POP_DELTA) - 2.0 * c * stats.norm.pdf(c)
    # Weibull(3): X^2 = E^(2/3) with E ~ Exp(1), cut at -log(1 - delta), -log(delta)
    a, b = -math.log1p(-POP_DELTA), -math.log(POP_DELTA)
    weibull = special.gamma(5 / 3) * (special.gammaincc(5 / 3, a) - special.gammaincc(5 / 3, b))
    cases = ((wc.make_pair(wc.gaussian(0, 1), wc.gaussian(0, 2)), gauss),
             (wc.make_pair(wc.weibull(3.0), wc.weibull(3.0, scale=2.0)), weibull))
    for pair, exact in cases:
        val = wc.w_cost_population(pair, wc.power_cost(2)).value
        assert val == pytest.approx(exact, rel=1e-12, abs=0)


def test_population_cost_integrability_error():
    # Pareto index 2 has infinite variance: the tail integral diverges
    pair = wc.make_pair(wc.pareto(2.0), wc.pareto(2.0, scale=3.0))
    with pytest.raises(wc.IntegrabilityError, match="tail"):
        wc.w_cost_population(pair, wc.power_cost(2))


def test_w1_identity_small():
    rng = np.random.default_rng(3)
    cost = wc.power_cost(1)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        s = wc.PairedSample(rng.normal(size=n), rng.normal(size=n) * 2 + 0.5)
        assert abs(w1_cdf_distance(s) - wc.w_cost_empirical(s, cost)) <= 1e-12


def test_w1_unit_step():
    s = wc.PairedSample(np.array([0.0]), np.array([1.0]))
    assert w1_cdf_distance(s) == pytest.approx(1.0)


def test_empirical_quantile_convention():
    sorted_vals = np.array([10.0, 20.0, 30.0, 40.0])
    n = 4
    # u just above (i-1)/n picks the i-th order statistic
    for i in range(1, n + 1):
        u = (i - 1) / n + 1e-9
        assert empirical_quantile(sorted_vals, u) == sorted_vals[i - 1]
    assert empirical_quantile(sorted_vals, 1.0) == 40.0


def test_quantile_process_comonotone_equal(gauss_equal_pair):
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    s = wc.sample_pairs(pair, 500, seed=2)
    grid = np.linspace(0.05, 0.95, 19)
    beta = quantile_process(s, pair, grid)
    assert np.array_equal(beta[:, 0], beta[:, 1])


def test_quantile_process_stratified_bound():
    # sample placed at its own quantiles: process bounded by sqrt(n) * max spacing
    n = 256
    dist = wc.uniform()
    xs = np.asarray(dist.quantile((np.arange(n) + 0.5) / n))
    s = wc.PairedSample(xs, xs.copy())
    pair = wc.equal_pair(dist)
    grid = np.linspace(0.02, 0.98, 97)
    beta = quantile_process(s, pair, grid)
    assert np.max(np.abs(beta)) <= math.sqrt(n) * (1.5 / n)


def test_quantile_process_domain():
    s = wc.PairedSample(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        quantile_process(s, wc.equal_pair(wc.gaussian()), np.array([0.0, 0.5]))


def test_paired_sample_validation():
    with pytest.raises(ValidationError):
        wc.PairedSample(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        wc.PairedSample(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        wc.PairedSample(np.array([np.nan]), np.array([1.0]))


def test_sorted_caches_are_permutations():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=100)
    ys = rng.normal(size=100)
    s = wc.PairedSample(xs, ys)
    assert np.array_equal(np.sort(xs), s.sorted_xs)
    assert np.array_equal(np.sort(ys), s.sorted_ys)
