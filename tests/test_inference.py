import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import wcontrast as wc
from wcontrast.errors import HypothesisError, ValidationError
from wcontrast.inference import wp_distance_to_dist

GRID = (511, 1e-4)


@pytest.fixture(scope="module")
def null_draws_p15(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=GRID[0], delta=GRID[1])
    return wc.REGIMES["equal"].draw(gauss_equal_pair, wc.power_cost(1.5), grid, 4000, 301,
                                    None)


@pytest.fixture(scope="module")
def one_sample_draws(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=GRID[0], delta=GRID[1])
    return wc.REGIMES["one_sample"].draw(wc.equal_pair(wc.gaussian()), wc.power_cost(1.0),
                                         grid, 4000, 302, None)


def test_identical_samples_p_value_one(gauss_equal_pair, null_draws_p15):
    xs = wc.gaussian().sample(400, np.random.default_rng(0))
    sample = wc.PairedSample(xs, xs.copy())
    res = wc.two_sample_test(sample, gauss_equal_pair, wc.power_cost(1.5),
                             sim=null_draws_p15)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert not res.reject


def test_custom_copula_nulls_do_not_alias():
    # two custom couplings share one fingerprint; each test must simulate
    # its own null (a comonotone null is degenerate at 0, an independent
    # one is not), whatever ran before it with the same seed
    g = wc.gaussian()
    sample = wc.sample_pairs(wc.equal_pair(g), 500, seed=31)
    cost = wc.power_cost(1.5)
    results = {}
    for name, copula in (("comonotone", np.minimum), ("independent", np.multiply)):
        null = wc.equal_pair(g, wc.custom_coupling(copula))
        results[name] = wc.two_sample_test(sample, null, cost, n_sim=400, seed=5,
                                           grid=(63, 1e-3))
    como, indep = results["comonotone"], results["independent"]
    assert all(v == 0.0 for v in como.critical_values.values())
    assert all(v > 0.0 for v in indep.critical_values.values())
    assert como.p_value == pytest.approx(1 / 401)
    assert indep.p_value > 0.05


def test_alternative_rejects(gauss_equal_pair, gauss_shift_pair, null_draws_p15):
    sample = wc.sample_pairs(gauss_shift_pair, 2000, seed=5)
    res = wc.two_sample_test(sample, gauss_equal_pair, wc.power_cost(1.5),
                             sim=null_draws_p15)
    assert res.reject
    assert res.p_value == pytest.approx(1 / (1 + null_draws_p15.n_sim))


def test_precomputed_draws_must_match_the_test(gauss_equal_pair, one_sample_draws):
    # one-sample draws are not a two-sample null, and Weibull(3) null draws
    # are not a Gaussian null's
    xs = wc.gaussian().sample(200, np.random.default_rng(3))
    sample = wc.PairedSample(xs, wc.gaussian().sample(200, np.random.default_rng(4)))
    with pytest.raises(ValidationError, match="needs equal"):
        wc.two_sample_test(sample, gauss_equal_pair, wc.power_cost(1.5), sim=one_sample_draws)
    weibull_pair = wc.equal_pair(wc.weibull(3.0))
    weibull_draws = wc.REGIMES["one_sample"].draw(
        weibull_pair, wc.power_cost(1.0), wc.build_bridge_grid(weibull_pair, 63, 1e-3),
        200, 5, None)
    with pytest.raises(ValidationError, match="gaussian"):
        wc.gof_test(xs, wc.gaussian(), p=1.0, sim=weibull_draws)


def test_p_value_monotone_and_addone(null_draws_p15):
    draws = null_draws_p15
    stats_grid = np.linspace(0, float(draws.values.max()) * 1.2, 50)
    ps = [draws.upper_tail_p(s) for s in stats_grid]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert min(ps) > 0.0


def test_reject_iff_p_below_level(gauss_equal_pair, null_draws_p15):
    rng = np.random.default_rng(8)
    for _ in range(10):
        xs = wc.gaussian().sample(300, rng)
        ys = wc.gaussian().sample(300, rng)
        res = wc.two_sample_test(wc.PairedSample(xs, ys), gauss_equal_pair,
                                 wc.power_cost(1.5), level=0.2, sim=null_draws_p15)
        assert res.reject == (res.p_value <= 0.2)


def test_two_sample_checker_gate(null_draws_p15):
    # Pareto(3) fails the equal-marginals compatibility check for b = 1.5
    null_pair = wc.equal_pair(wc.pareto(3.0))
    xs = wc.pareto(3.0).sample(100, np.random.default_rng(1))
    sample = wc.PairedSample(xs, xs.copy())
    with pytest.raises(HypothesisError, match="CFG_E"):
        wc.two_sample_test(sample, null_pair, wc.power_cost(1.5), n_sim=100,
                           grid=(64, 1e-3))
    res = wc.two_sample_test(sample, null_pair, wc.power_cost(1.5), n_sim=100,
                             grid=(64, 1e-3), seed=3, override_checks=True,
                             tail_frac=None)
    assert any("overridden" in n for n in res.notes)


def test_two_sample_quadratic_dispatch():
    # b = 2 on light tails routes to the n-rate regime
    null_pair = wc.equal_pair(wc.weibull(3.0))
    xs = wc.weibull(3.0).sample(500, np.random.default_rng(2))
    sample = wc.PairedSample(xs, wc.weibull(3.0).sample(500, np.random.default_rng(3)))
    res = wc.two_sample_test(sample, null_pair, wc.power_cost(2), n_sim=400,
                             seed=4, grid=(255, 1e-4), tail_frac=None)
    assert res.theorem_used == "quadratic"
    assert res.scaled_statistic == pytest.approx(500 * res.statistic)


def test_two_sample_requires_equal_null(gauss_shift_pair):
    xs = np.random.default_rng(0).normal(size=50)
    sample = wc.PairedSample(xs, xs.copy())
    with pytest.raises(ValidationError):
        wc.two_sample_test(sample, gauss_shift_pair, wc.power_cost(1.5))


def test_wp_distance_stratified_is_minimal():
    g = wc.gaussian()
    n = 500
    xs = np.asarray(g.quantile((np.arange(n) + 0.5) / n))
    near_min = wp_distance_to_dist(xs, g, 1.0)
    rng = np.random.default_rng(4)
    random_val = np.mean([wp_distance_to_dist(g.sample(n, rng), g, 1.0)
                          for _ in range(5)])
    assert near_min < 0.3 * random_val


def test_wp_distance_exactness_uniform():
    # single observation at 0.5 against Uniform(0,1), p = 1:
    # int |0.5 - u| du = 1/4
    val = wp_distance_to_dist(np.array([0.5]), wc.uniform(), 1.0)
    assert val == pytest.approx(0.25, abs=1e-9)


def _w1_gaussian_closed_form(xs):
    """W_1 between the empirical law of xs and N(0,1) over [1e-13, 1 - 1e-13]:
    int_a^b |x - Q(u)| du split at Phi(x), with int_a^b Q = phi(Q(a)) - phi(Q(b))."""
    xs = np.sort(xs)
    n = len(xs)
    a = np.maximum(np.arange(n) / n, 1e-13)
    b = np.minimum(np.arange(1, n + 1) / n, 1.0 - 1e-13)
    u_star = np.clip(stats.norm.cdf(xs), a, b)

    def phi_q(u):
        return stats.norm.pdf(stats.norm.ppf(u))

    below = xs * (u_star - a) - (phi_q(a) - phi_q(u_star))   # x >= Q on [a, u*]
    above = (phi_q(u_star) - phi_q(b)) - xs * (b - u_star)   # Q >= x on [u*, b]
    return float(np.sum(below + above))


@pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
def test_wp_distance_gaussian_closed_form(n):
    g = wc.gaussian()
    xs = g.sample(n, np.random.default_rng(n))
    exact = _w1_gaussian_closed_form(xs)
    assert wp_distance_to_dist(xs, g, 1.0) == pytest.approx(exact, rel=1e-10, abs=0)


def _wp_quad_reference(xs, dist, p, breaks=()):
    """Adaptive quad per segment, split at u* = F0(x_i) and at ``breaks``;
    the edge segments run in log-distance to the near endpoint, where quad
    resolves the unbounded quantile."""
    xs = np.sort(xs)
    n = len(xs)
    width = min(1.0 / n, 0.5)
    total = 0.0
    # (observation, coordinate ends, kind): u inside, log-distance on the edges
    segments = [(xs[0], math.log(1e-13), math.log(width), "low"),
                (xs[-1], math.log(1e-13), math.log(width), "high")]
    segments += [(xs[i], i / n, (i + 1) / n, "inside") for i in range(1, n - 1)]
    for x, lo, hi, kind in segments:
        kinks = np.array([float(dist.cdf(x)), *breaks])
        with np.errstate(divide="ignore"):
            kinks = {"low": np.log(kinks), "high": np.log1p(-kinks), "inside": kinks}[kind]
        points = [float(c) for c in kinks if lo < c < hi] or None

        def f(c, x=x, kind=kind):
            u = {"low": math.exp(c), "high": 1.0 - math.exp(c), "inside": c}[kind]
            jac = 1.0 if kind == "inside" else math.exp(c)
            return abs(x - float(dist.quantile(np.asarray(u)))) ** p * jac

        total += quad(f, lo, hi, points=points, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return total


_WARP = wc.bump_warp(0.15, 0.2, 0.5)


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("name,dist,breaks", [
    ("gaussian", wc.gaussian(), ()),
    ("exponential", wc.exponential(), ()),
    ("pareto8", wc.pareto(8.0), ()),
    ("beta22", wc.beta_dist(2, 2), ()),
    ("bump", wc.warped_dist(wc.gaussian(), *_WARP, (0.2, 0.5)), (0.2, 0.5)),
])
def test_wp_distance_p15_matches_quad(name, dist, breaks, n):
    xs = dist.sample(n, np.random.default_rng(100 + n))
    ref = _wp_quad_reference(xs, dist, 1.5, breaks)
    # the bump warp is only C^1 at 0.2 and 0.5; with n <= 2 they fall inside
    # an edge panel, which Gauss-Legendre integrates to about 1e-5 there
    rel = 1e-5 if breaks and n <= 2 else 1e-11
    assert wp_distance_to_dist(xs, dist, 1.5) == pytest.approx(ref, rel=rel, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gof_rejects_non_finite_sample(bad, one_sample_draws):
    xs = wc.gaussian().sample(50, np.random.default_rng(9))
    xs[7] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        wp_distance_to_dist(xs, wc.gaussian(), 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        wc.gof_test(xs, wc.gaussian(), p=1.0, sim=one_sample_draws)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_upper_tail_p_rejects_non_finite(bad, one_sample_draws):
    with pytest.raises(ValidationError, match="finite"):
        one_sample_draws.upper_tail_p(bad)


def test_gof_stratified_high_p(one_sample_draws):
    g = wc.gaussian()
    n = 2000
    xs = np.asarray(g.quantile((np.arange(n) + 0.5) / n))
    res = wc.gof_test(xs, g, p=1.0, sim=one_sample_draws)
    assert res.p_value > 0.5


def test_gof_shift_rejects(one_sample_draws):
    xs = wc.gaussian().sample(500, np.random.default_rng(6)) + 1.0
    res = wc.gof_test(xs, wc.gaussian(), p=1.0, sim=one_sample_draws)
    assert res.reject


def test_gof_tail_gate():
    xs = np.abs(np.random.default_rng(7).standard_cauchy(100)) + 1
    with pytest.raises(HypothesisError, match="dominance"):
        wc.gof_test(xs, wc.pareto(3.0), p=1.0, n_sim=50, grid=(64, 1e-3))


def test_gof_size_calibration(one_sample_draws):
    g = wc.gaussian()
    n, reps = 2000, 1000
    rejections = 0
    for i in range(reps):
        xs = g.quantile(wc.derive_rng(1234, "gof", i).random(n))
        stat = wp_distance_to_dist(np.asarray(xs), g, 1.0)
        p = one_sample_draws.upper_tail_p(n ** 0.5 * stat)
        rejections += p <= 0.05
    rate = rejections / reps
    assert 0.03 <= rate <= 0.07, rate


def test_power_monotone_in_shift(gauss_equal_pair, null_draws_p15):
    n, reps = 500, 300
    cost = wc.power_cost(1.5)
    vn = wc.rate_vn(cost, n)
    crit = float(np.quantile(null_draws_p15.values, 0.95))
    rates = []
    for shift in (0.0, 0.25, 0.5, 1.0):
        rej = 0
        for i in range(reps):
            rng = wc.derive_rng(777, "power", i)   # seed-paired across shifts
            xs = np.asarray(wc.gaussian().quantile(rng.random(n)))
            ys = np.asarray(wc.gaussian().quantile(rng.random(n))) + shift
            stat = vn * wc.w_cost_empirical(wc.PairedSample(xs, ys), cost)
            rej += stat > crit
        rates.append(rej / reps)
    assert all(b >= a - 0.01 for a, b in zip(rates, rates[1:])), rates
    assert rates[-1] >= 0.99


def test_clt_alternative_dispatch(gauss_shift_pair, bump_pair_comonotone):
    s2 = wc.clt_alternative_distribution(gauss_shift_pair, wc.power_cost(2))
    assert s2 == pytest.approx(8.0, abs=0.1)
    draws = wc.clt_alternative_distribution(bump_pair_comonotone, wc.power_cost(1),
                                            n_sim=500, grid=(255, 1e-4),
                                            tail_frac=None)
    assert isinstance(draws, wc.LimitDraws)
    assert draws.theorem == "mixed"


def test_clt_alternative_requires_D(gauss_equal_pair):
    with pytest.raises(ValidationError):
        wc.clt_alternative_distribution(gauss_equal_pair, wc.power_cost(1.5))
