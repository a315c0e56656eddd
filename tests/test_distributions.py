import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln

import wcontrast as wc
from wcontrast.distributions import _DIST_FAMILIES, _invert_log_tail, bvn_cdf, dist_from_scipy
from wcontrast.errors import DomainError, ValidationError


def test_quantile_examples(builtin_dists):
    assert builtin_dists["gaussian"].quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert builtin_dists["exponential"].quantile(1 - math.exp(-1)) == pytest.approx(1.0)


def test_weibull_density_quantile_closed_form():
    w = 3.0
    dist = wc.weibull(w)
    us = np.linspace(0.01, 0.99, 25)
    expected = w * (1 - us) * np.log(1 / (1 - us)) ** (1 - 1 / w)
    assert np.allclose(dist.density_quantile(us), expected, rtol=1e-12)


def test_roundtrip_quantile_cdf(builtin_dists):
    us = np.linspace(1e-6, 1 - 1e-6, 1000)
    for name, dist in builtin_dists.items():
        xs = np.asarray(dist.quantile(us), dtype=float)
        back = np.asarray(dist.quantile(dist.cdf(xs)), dtype=float)
        scale = np.maximum(np.abs(xs), 1e-8)
        assert np.max(np.abs(back - xs) / scale) < 1e-8, name


def test_density_quantile_consistency(builtin_dists):
    us = np.linspace(1e-4, 1 - 1e-4, 1000)
    for name, dist in builtin_dists.items():
        h = np.asarray(dist.density_quantile(us), dtype=float)
        direct = np.asarray(dist.density(dist.quantile(us)), dtype=float)
        assert np.max(np.abs(h / direct - 1)) < 1e-10, name


def test_psi_plus_matches_log_sf(builtin_dists):
    for name, dist in builtin_dists.items():
        xs = np.asarray(dist.quantile(np.linspace(0.6, 1 - 1e-6, 200)), dtype=float)
        with np.errstate(divide="ignore"):
            ref = -np.log1p(-np.asarray(dist.cdf(xs), dtype=float))
        psi = dist.psi("+", xs)
        ok = np.isfinite(ref)
        assert np.allclose(psi[ok], ref[ok], rtol=1e-8, atol=1e-10), name


def test_sampler_ks_gate(builtin_dists):
    # 1% asymptotic KS band at n = 1e5
    n = 100_000
    for name, dist in builtin_dists.items():
        xs = dist.sample(n, 2024)
        ks = stats.kstest(xs, lambda x: np.asarray(dist.cdf(x), dtype=float)).statistic
        assert ks <= 1.63 / math.sqrt(n), (name, ks)


def test_tail_depth_api_closed_forms():
    par = wc.pareto(5.0)
    assert par.log_tail_magnitude("+", 1e6) == pytest.approx(2e5)
    assert par.tail_quantile("+", 10.0) == pytest.approx(math.exp(2.0))
    w3 = wc.weibull(3.0)
    assert w3.tail_quantile("+", 27.0) == pytest.approx(3.0)
    g = wc.gaussian()
    x = float(g.tail_quantile("+", 1e6))
    assert x == pytest.approx(math.sqrt(2e6), rel=1e-2)
    # generic inversion agrees with scipy in the moderate regime
    assert float(g.tail_quantile("+", 5.0)) == pytest.approx(
        float(stats.norm.isf(math.exp(-5.0))), rel=1e-9)


@pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (1.5, 0.3), (-2.0, 4.0)])
def test_gaussian_tail_hooks_match_bisection(loc, scale):
    # closed-form hooks of gaussian() against the generic bisection on
    # scipy's log tails (the same law with no hooks)
    hooked = wc.gaussian(loc, scale)
    generic = dist_from_scipy("generic", stats.norm(loc, scale))
    ts = np.geomspace(0.8, 1e6, 200)
    for side in ("-", "+"):
        z_hook = (hooked.tail_quantile(side, ts) - loc) / scale
        z_ref = (generic.tail_quantile(side, ts) - loc) / scale
        assert np.allclose(z_hook, z_ref, rtol=1e-10, atol=0), side
        assert np.allclose(hooked.log_density_at_depth(side, ts),
                           generic.log_density_at_depth(side, ts), rtol=1e-10, atol=0)


@pytest.mark.parametrize("shape,scale", [(3.0, 1.0), (1.5, 1.0), (1.0, 2.0)])
def test_weibull_left_tail_hooks_match_bisection(shape, scale):
    # the closed-form left hooks against the generic bisection on the same
    # law's log cdf, to the depth where the position leaves the normal doubles
    dist = wc.weibull(shape, scale)
    ts = np.geomspace(1e-3, 700.0, 300)
    x_ref = _invert_log_tail(dist, "-", ts)
    assert np.allclose(dist.tail_quantile("-", ts), x_ref, rtol=1e-12, atol=0)
    assert np.allclose(dist.log_density_at_depth("-", ts), dist.log_density(x_ref),
                       rtol=1e-12, atol=0)
    deep = np.array([1e3, 1e5, 1e6])
    assert np.all(np.isfinite(dist.tail_quantile("-", deep)))
    assert np.all(np.isfinite(dist.log_density_at_depth("-", deep)))


def test_warped_gaussian_tail_hooks_match_bisection():
    # the base hooks carry over, moved by the warp at depths whose tail mass
    # falls in the warp region (t in (0.69, 1.61) on the left here)
    warp, dwarp = wc.bump_warp(0.15, 0.2, 0.5)
    hooked = wc.warped_dist(wc.gaussian(), warp, dwarp, (0.2, 0.5))
    generic = wc.warped_dist(dist_from_scipy("generic", stats.norm()), warp, dwarp,
                             (0.2, 0.5))
    assert not generic.tail_quantile_fn
    ts = np.concatenate([np.linspace(0.05, 3.0, 12), np.geomspace(3.5, 1e6, 8)])
    for side in ("-", "+"):
        assert np.allclose(hooked.tail_quantile(side, ts), generic.tail_quantile(side, ts),
                           rtol=1e-10, atol=0), side
    # the generic density goes through the warped cdf: exact on the left
    # tail, through 1 - cdf (so only shallow) on the right
    for side, t_max in (("-", 500.0), ("+", 10.0)):
        t = ts[ts <= t_max]
        assert np.allclose(hooked.log_density_at_depth(side, t),
                           generic.log_density_at_depth(side, t), rtol=1e-10, atol=0), side


def test_warped_pareto_log_magnitude_hook():
    warp, dwarp = wc.bump_warp(0.02, 0.2, 0.5)
    base = wc.pareto(4.0)
    warped = wc.warped_dist(base, warp, dwarp, (0.2, 0.5))
    ts = np.array([0.4, 0.6, 5.0, 1e4])
    expected = np.log(base.tail_quantile("+", ts[:3]) + warp(-np.expm1(-ts[:3])))
    assert np.allclose(warped.log_tail_magnitude("+", ts[:3]), expected, rtol=1e-12)
    # deep in the tail the base's overflow-free hook is kept
    assert warped.log_tail_magnitude("+", ts[3]) == base.log_tail_magnitude("+", ts[3])


@pytest.mark.parametrize("t", [20.0, 30.0, 37.0, 40.0, 60.0])
def test_warped_exponential_log_density_beyond_warp(t):
    # no depth hooks: the log density at depth t is read at the position t,
    # beyond the warp, where it must be the base's -x (not 1 - cdf's rounding)
    base = dist_from_scipy("expon", stats.expon())
    warped = wc.warped_dist(base, *wc.bump_warp(0.15, 0.2, 0.5), (0.2, 0.5))
    assert not warped.log_density_at_depth_fn
    assert float(warped.log_density_at_depth("+", t)) == pytest.approx(-t, rel=0, abs=1e-12)


TAIL_DEPTHS = np.array([10.0, 50.0, 100.0, 150.0, 300.0, 600.0])


def _beta22_left(t):
    # F(x) = 3x^2 - 2x^3 = e^-t: sqrt(e^-t / 3) holds to 1e-15 once t >= 100
    return np.where(t >= 100, np.sqrt(np.exp(-t) / 3), stats.beta.ppf(np.exp(-t), 2, 2))


def _weibull3_left(t):
    return (-np.log1p(-np.exp(-t))) ** (1 / 3)


@pytest.mark.parametrize("dist,position,log_density", [
    (dist_from_scipy("beta(2,2)", stats.beta(2, 2)), _beta22_left,
     lambda x: np.log(6 * x * (1 - x))),
    (dist_from_scipy("weibull(3)", stats.weibull_min(3.0)), _weibull3_left,
     lambda x: np.log(3 * x ** 2) - x ** 3),
], ids=["beta(2,2)", "weibull(3)"])
def test_generic_left_tail_keeps_every_digit(dist, position, log_density):
    # hook-free inversion on a bounded side: positions far below 1e-33
    # (down to 1e-131 at t = 600) come out to rounding; wc.weibull has
    # closed-form left hooks, so the Weibull law here comes from scipy
    assert "-" not in dist.tail_quantile_fn and "-" not in dist.log_density_at_depth_fn
    x = position(TAIL_DEPTHS)
    assert np.allclose(dist.tail_quantile("-", TAIL_DEPTHS), x, rtol=1e-12, atol=0)
    assert np.allclose(dist.log_density_at_depth("-", TAIL_DEPTHS), log_density(x),
                       rtol=1e-12, atol=0)


BETA_HOOK_DEPTHS = np.array([100.0, 700.0, 745.0, 1e4, 1e6])


def _beta22_log_density(t):
    # I_x = 3x^2 - 2x^3 = e^-t in log space: log x = (-t - log 3 - log1p(-2x/3)) / 2
    log_x = (-t - math.log(3.0)) / 2
    for _ in range(3):
        log_x = (-t - math.log(3.0) - math.log1p(-2.0 * math.exp(log_x) / 3.0)) / 2
    return math.log(6.0) + log_x + math.log1p(-math.exp(log_x))


@pytest.mark.parametrize("a,b,left,right", [
    # symmetric, so both sides share one closed form
    (2, 2, _beta22_log_density, _beta22_log_density),
    # I_x = 1 - (1-x)^3 and f = 3 (1-x)^2: 1 - x = (1 - e^-t)^(1/3) on the
    # left and e^(-t/3) on the right
    (1, 3, lambda t: math.log(3.0) + 2.0 * math.log1p(-math.exp(-t)) / 3.0,
     lambda t: math.log(3.0) - 2.0 * t / 3.0),
], ids=["beta(2,2)", "beta(1,3)"])
def test_beta_log_density_hooks_match_closed_forms(a, b, left, right):
    # past t = 706 scipy's beta.logcdf underflows and past t = 72 the right
    # position rounds to 1: the hooks still give every digit there
    dist = wc.beta_dist(a, b)
    for side, closed in (("-", left), ("+", right)):
        got = dist.log_density_at_depth(side, BETA_HOOK_DEPTHS)
        expected = [closed(t) for t in BETA_HOOK_DEPTHS]
        assert np.allclose(got, expected, rtol=1e-12, atol=0), side


@pytest.mark.parametrize("a,b", [(0.5, 3.0), (5.0, 0.7)])
def test_beta_log_density_hooks_finite_and_continuous(a, b):
    dist = wc.beta_dist(a, b)
    depths = np.array([1.0, 10.0, 100.0, 700.0, 745.0, 1e4, 1e6])
    for side, (p, q) in (("-", (a, b)), ("+", (b, a))):
        assert np.all(np.isfinite(dist.log_density_at_depth(side, depths))), side
        # depth at which the leading term x^p / (p B(p, q)) reaches x = 1e-30
        switch = min(700.0, math.log(p) + betaln(p, q) - p * math.log(1e-30))
        near = switch * np.array([1 - 1e-10, 1 + 1e-10])
        below, above = dist.log_density_at_depth(side, near)
        assert abs(above - below) < 1e-6, side


@pytest.mark.parametrize("a,b", [(200.0, 2.0), (20.0, 3.0), (2.0, 2.0)])
def test_beta_log_density_hooks_continuous_at_depth_switch(a, b):
    # the hooks leave the generic inversion at t = 600 (or x = 1e-30) for an
    # exact solve of F(x) = e^-t; no step at that switch or at t = 700, where
    # a leading-term tail once stepped by 0.03 on Beta(200, 2)
    dist = wc.beta_dist(a, b)
    for t0 in (600.0, 700.0):
        ts = np.array([np.nextafter(t0, 0.0), t0, np.nextafter(t0, np.inf)])
        for side in ("-", "+"):
            vals = dist.log_density_at_depth(side, ts)
            assert np.max(np.abs(np.diff(vals))) <= 1e-10 * abs(vals[1]), (t0, side)


def test_generic_tail_beyond_float_reach_is_domain_error():
    # log sf of Pareto(1/2) is -log(x)/2 >= -355 on the doubles
    heavy = dist_from_scipy("pareto(0.5)", stats.pareto(0.5))
    assert float(heavy.tail_quantile("+", 100.0)) == pytest.approx(math.exp(200.0), rel=1e-12)
    with pytest.raises(DomainError):
        heavy.tail_quantile("+", np.array([100.0, 1000.0]))
    # scipy's pareto.logsf(x) = -2 log x turns -inf near x = 6e161, t = 745;
    # e^(t/2) at t = 1000 lies past that point, so no position is returned
    light = dist_from_scipy("pareto(2)", stats.pareto(2.0))
    assert float(light.tail_quantile("+", 500.0)) == pytest.approx(math.exp(250.0), rel=1e-12)
    for t in (745.0, 1000.0, 1e6):
        with pytest.raises(DomainError):
            light.tail_quantile("+", t)


def test_tail_applicability():
    assert wc.gaussian().tail_applicable("-")
    assert not wc.exponential().tail_applicable("-")
    assert not wc.pareto(3).tail_applicable("-")
    assert not wc.beta_dist(2, 2).tail_applicable("-")


def test_bvn_cdf_against_closed_form():
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.8):
        val = float(bvn_cdf(0.0, 0.0, rho))
        assert val == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-12)
    # margins
    assert float(bvn_cdf(8.0, 1.3, 0.5)) == pytest.approx(stats.norm.cdf(1.3), abs=1e-9)


@pytest.mark.parametrize("rho", [0.999, -0.999, 0.9999, -0.9999])
def test_bvn_cdf_near_unit_correlation(rho):
    assert float(bvn_cdf(0.0, 0.0, rho)) == pytest.approx(
        0.25 + math.asin(rho) / (2 * math.pi), rel=0, abs=1e-15)
    law = stats.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    points = np.array([[0.3, -0.2], [-1.5, 0.7], [2.0, 2.5], [-3.0, -2.9], [0.0, 1.0],
                       [-1.0, 0.0], [1.2, 1.2]])
    got = bvn_cdf(points[:, 0], points[:, 1], rho)
    assert np.allclose(got, [law.cdf(p) for p in points], rtol=0, atol=1e-13)


def test_coupling_validation():
    with pytest.raises(ValidationError):
        wc.gaussian_coupling(1.0)

    def overdriven_fgm(u, v):
        # correct margins, but the mixing coefficient is far out of range
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return u * v * (1 + 3.0 * (1 - u) * (1 - v))

    with pytest.raises(ValidationError, match="2-increasing"):
        wc.custom_coupling(overdriven_fgm)


def test_custom_copula_accepts_valid_and_samples():
    # Farlie-Gumbel-Morgenstern family
    theta = 0.7

    def fgm(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return u * v * (1 + theta * (1 - u) * (1 - v))

    coup = wc.custom_coupling(fgm)
    pair = wc.equal_pair(wc.uniform(), coup)
    s = wc.sample_pairs(pair, 4000, seed=3)
    # FGM Spearman rho = theta / 3
    rho = stats.spearmanr(s.xs, s.ys).statistic
    assert rho == pytest.approx(theta / 3, abs=0.05)


def test_sample_pairs_comonotone_equal():
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    s = wc.sample_pairs(pair, 1000, seed=11)
    assert np.array_equal(s.xs, s.ys)


def test_sample_pairs_independent_correlation():
    pair = wc.equal_pair(wc.gaussian())
    n = 100_000
    s = wc.sample_pairs(pair, n, seed=5)
    u = np.asarray(pair.dist_x.cdf(s.xs))
    v = np.asarray(pair.dist_y.cdf(s.ys))
    corr = np.corrcoef(u, v)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(n)


def test_sample_pairs_gaussian_rho_spearman():
    rho = 0.8
    pair = wc.make_pair(wc.gaussian(), wc.gaussian(0, 2), wc.gaussian_coupling(rho))
    s = wc.sample_pairs(pair, 100_000, seed=5)
    expected = 6 / math.pi * math.asin(rho / 2)
    assert stats.spearmanr(s.xs, s.ys).statistic == pytest.approx(expected, abs=0.01)


def test_sample_pairs_deterministic():
    pair = wc.make_pair(wc.gaussian(), wc.exponential(), wc.gaussian_coupling(0.4),
                        wc.Partition.all_D())
    a = wc.sample_pairs(pair, 5000, seed=99)
    b = wc.sample_pairs(pair, 5000, seed=99)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = wc.sample_pairs(pair, 5000, seed=100)
    assert not np.array_equal(a.xs, c.xs)


def test_quantile_difference_examples(gauss_equal_pair, gauss_shift_pair):
    us = np.linspace(0.05, 0.95, 11)
    assert np.allclose(wc.quantile_difference(gauss_equal_pair, us), 0.0)
    assert np.allclose(wc.quantile_difference(gauss_shift_pair, us), -1.0)
    scale_pair = wc.make_pair(wc.gaussian(0, 1), wc.gaussian(0, 2))
    val = wc.quantile_difference(scale_pair, 0.8413447460685429)
    assert val == pytest.approx(-1.0, abs=1e-9)   # (1 - 2) * Phi^-1(u), Phi^-1 = 1
    with pytest.raises(DomainError):
        wc.quantile_difference(gauss_equal_pair, 1.5)


def test_partition_validation_rejects_mislabels():
    with pytest.raises(ValidationError, match=r"\(FG0\)"):
        wc.PairSpec(wc.gaussian(0, 1), wc.gaussian(1, 1), wc.independent(),
                    wc.Partition.all_E())
    with pytest.raises(ValidationError, match=r"\(FG0\)"):
        wc.PairSpec(wc.gaussian(), wc.gaussian(), wc.independent(),
                    wc.Partition.all_D())


def test_partition_breakpoint_agreement(bump_pair_comonotone):
    # valid construction passed; a shifted breakpoint must fail
    base = bump_pair_comonotone.dist_x
    warped = bump_pair_comonotone.dist_y
    bad = wc.Partition((0.0, 0.25, 0.5, 1.0), ("E", "D", "E"))
    with pytest.raises(ValidationError):
        wc.PairSpec(base, warped, wc.comonotone(), bad)


def test_partition_masks(bump_pair_comonotone):
    part = bump_pair_comonotone.partition
    grid = np.array([0.1, 0.2, 0.35, 0.49, 0.5, 0.9, 1.0])
    e = part.mask(grid, "E")
    d = part.mask(grid, "D")
    assert np.array_equal(e, ~d)
    assert list(d) == [False, True, True, True, False, False, False]


def test_warped_dist_consistency(bump_pair_comonotone):
    warped = bump_pair_comonotone.dist_y
    us = np.linspace(0.05, 0.95, 101)
    xs = np.asarray(warped.quantile(us))
    back = np.asarray(warped.cdf(xs))
    assert np.max(np.abs(back - us)) < 1e-10
    h = np.asarray(warped.density_quantile(us))
    direct = np.asarray(warped.density(xs))
    assert np.allclose(h, direct, rtol=1e-8)


def test_warp_monotonicity_guard():
    warp, dwarp = wc.bump_warp(0.5, 0.2, 0.5)   # slope exceeds min 1/h of N(0,1)
    with pytest.raises(ValidationError, match="monotonicity"):
        wc.warped_dist(wc.gaussian(), warp, dwarp, (0.2, 0.5))


def test_log_edge_dist_shapes():
    d = wc.log_edge_dist(2.0)
    us = np.linspace(0.05, 0.95, 50)
    xs = np.asarray(d.quantile(us))
    assert np.all(np.diff(xs) > 0)
    assert np.allclose(d.cdf(xs), us, atol=1e-12)
    h = np.asarray(d.density_quantile(us))
    assert np.allclose(h, d.density(xs), rtol=1e-9)


# parameters of the registry's families that take required ones
_REGISTRY_PARAMS = {"pareto": {"index": 3.0}, "weibull": {"shape": 2.0},
                    "beta": {"a": 2.0, "b": 2.0}, "log_edge": {"w": 2.0}}


@pytest.mark.parametrize("family", sorted(_DIST_FAMILIES) + ["weibull(1.5)", "beta(0.5,3)"])
def test_registry_off_support_values(family):
    # every built-in law takes scipy.stats' values off its support; at an
    # infinite end the density is 0 (scipy's formula reads 0 * inf there),
    # and h(0), h(1) are the density at the ends, never nan: Beta(0.5, 3)
    # has h(0) = +inf, its true limit
    extra = {"weibull(1.5)": wc.weibull(1.5), "beta(0.5,3)": wc.beta_dist(0.5, 3.0)}
    dist = extra.get(family) or wc.builtin_dist(family, **_REGISTRY_PARAMS.get(family, {}))
    lo, hi = dist.support
    ends = np.array([e for e in (lo, hi) if not np.isfinite(e)])
    assert np.all(dist.density(ends) == 0.0) and np.all(dist.log_density(ends) == -np.inf)
    for u in (0.0, 1.0):
        h = dist.density_quantile(np.array([u, 0.5]))[0]
        assert not np.isnan(h) and h == dist.density(dist.quantile(u)), u
        assert dist.density_quantile(u) == h, u
    below = [x for x in (lo - 1.0, lo - 1e-9, -np.inf) if np.isfinite(lo) and x < lo]
    above = [x for x in (hi + 1.0, hi + 1e-9, np.inf) if np.isfinite(hi) and x > hi]
    for xs in (below, above):
        xs = np.array(xs)
        assert np.all(dist.density(xs) == 0.0), xs
        assert np.all(dist.log_density(xs) == -np.inf), xs
    assert np.all(dist.log_cdf(np.array(below)) == -np.inf)
    assert np.all(dist.cdf(np.array(below)) == 0.0)
    assert np.all(dist.log_sf(np.array(above)) == -np.inf)
    assert np.all(dist.cdf(np.array(above)) == 1.0)
    assert np.all(np.isnan(dist.quantile(np.array([-0.1, 1.1, -np.inf, np.inf]))))


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_exponential_depth_hooks_match_bisection(scale):
    # exponential() takes Weibull(1)'s closed-form hooks; the generic
    # bisection on scipy's log tails of the same law agrees on both sides
    hooked = wc.exponential(scale)
    generic = dist_from_scipy("expon", stats.expon(scale=scale))
    ts = np.geomspace(1e-3, 700.0, 200)
    for side in ("-", "+"):
        assert np.allclose(hooked.tail_quantile(side, ts), generic.tail_quantile(side, ts),
                           rtol=1e-12, atol=0), side
        assert np.allclose(hooked.log_density_at_depth(side, ts),
                           generic.log_density_at_depth(side, ts), rtol=1e-12, atol=0), side


def test_builtin_dist_registry_and_validation():
    assert wc.builtin_dist("weibull", shape=2.0).name == "weibull(2)"
    with pytest.raises(ValidationError):
        wc.builtin_dist("pareto", index=-1)
    with pytest.raises(ValidationError, match="unknown distribution family"):
        wc.builtin_dist("cauchyish")


# each built-in family at two parameter sets against the frozen scipy.stats
# law it reproduces; weibull(2) and pareto(1) hit numpy's square, square-root
# and reciprocal short cuts in power, beta(0.5, 3) a density infinite at 0
ORACLES = [
    (wc.gaussian(), stats.norm()),
    (wc.gaussian(1.5, 0.3), stats.norm(1.5, 0.3)),
    (wc.exponential(), stats.expon()),
    (wc.exponential(2.5), stats.expon(scale=2.5)),
    (wc.pareto(3.0), stats.pareto(3.0)),
    (wc.pareto(1.0, 2.0), stats.pareto(1.0, scale=2.0)),
    (wc.weibull(3.0), stats.weibull_min(3.0)),
    (wc.weibull(2.0, 1.7), stats.weibull_min(2.0, scale=1.7)),
    (wc.beta_dist(2, 2), stats.beta(2, 2)),
    (wc.beta_dist(0.5, 3), stats.beta(0.5, 3)),
    (wc.uniform(), stats.uniform()),
    (wc.uniform(-1.0, 2.5), stats.uniform(-1.0, 3.5)),
]
EXACT = (("quantile", "ppf"), ("cdf", "cdf"), ("log_cdf", "logcdf"), ("log_sf", "logsf"))
CLOSE = (("density", "pdf"), ("log_density", "logpdf"))


def _oracle_points(frozen, rng):
    """10^4 probabilities and 10^4 positions: inside the support, at its
    edges, outside it, +-inf and nan."""
    lo, hi = frozen.support()
    probs = np.concatenate([rng.random(9990), [0.0, 1.0, -0.1, 1.1, 0.5, 1e-300,
                                                1 - 1e-16, -np.inf, np.inf, np.nan]])
    middle, spread = frozen.median(), frozen.ppf(0.9) - frozen.ppf(0.1)
    xs = np.concatenate([frozen.ppf(rng.random(7000)),
                         middle + 3.0 * spread * rng.standard_normal(2993),
                         [lo, hi, middle, -np.inf, np.inf, np.nan, 1e300]])
    return probs, xs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # both sides overflow at +-inf
@pytest.mark.parametrize("dist,frozen", ORACLES, ids=[d.name for d, _ in ORACLES])
def test_builtin_families_match_scipy_stats(dist, frozen):
    rng = np.random.default_rng(12)
    probs, xs = _oracle_points(frozen, rng)
    # every point inside the support, and a mix: scipy passes the shapes
    # to its formulas differently in the two cases
    inside = frozen.ppf(rng.random(10_000))
    for mine, theirs in EXACT:
        for pts in ((probs, rng.random(10_000)) if mine == "quantile" else (xs, inside)):
            got, want = getattr(dist, mine)(pts), getattr(frozen, theirs)(pts)
            assert np.array_equal(got, want, equal_nan=True), mine
    # scipy's beta density raises where it is infinite (x = 0 for a < 1);
    # at +-inf scipy's Weibull formula reads 0 * inf = nan, where the
    # density takes its limits 0 and -inf
    infinite_at_0 = frozen.dist.name == "beta" and frozen.args[0] < 1
    finite = xs[~np.isinf(xs) & ((xs != 0.0) | (not infinite_at_0))]
    for mine, theirs in CLOSE:
        for pts in (finite, inside):
            got, want = getattr(dist, mine)(pts), getattr(frozen, theirs)(pts)
            assert np.allclose(got, want, rtol=1e-12, atol=0, equal_nan=True), mine
    assert np.all(dist.density(np.array([-np.inf, np.inf])) == 0.0)
    assert np.all(dist.log_density(np.array([-np.inf, np.inf])) == -np.inf)
    h = dist.density_quantile(probs[np.isfinite(probs) & (probs > 0) & (probs < 1)])
    ref = frozen.pdf(frozen.ppf(probs[np.isfinite(probs) & (probs > 0) & (probs < 1)]))
    assert np.allclose(h, ref, rtol=1e-12, atol=0)
    if infinite_at_0:
        assert dist.density(0.0) == np.inf
    for mine, theirs in EXACT + CLOSE:
        point = 0.3 if mine == "quantile" else float(frozen.ppf(0.3))
        got = getattr(dist, mine)(point)
        assert np.ndim(got) == 0 and isinstance(got, np.floating), mine
        assert got == pytest.approx(getattr(frozen, theirs)(point), rel=1e-12, abs=0), mine
    assert dist.support == tuple(frozen.support())


def _beta22_left_position(t):
    # x^2 (3 - 2x) = e^-t in log space: log x = (-t - log 3 - log1p(-2x/3)) / 2
    log_x = (-t - math.log(3.0)) / 2
    for _ in range(3):
        log_x = (-t - math.log(3.0) - math.log1p(-2.0 * math.exp(log_x) / 3.0)) / 2
    return math.exp(log_x)


def test_beta_tail_positions_at_every_depth():
    # the generic inversion stuck at 6.09e-155 past t = 706, where the log
    # c.d.f. underflows; the hook solves F(x) = e^-t in log x beyond t = 600
    dist = wc.beta_dist(2, 2)
    deep = np.array([700.0, 745.0, 1000.0])
    expected = np.array([_beta22_left_position(t) for t in deep])
    left = dist.tail_quantile("-", deep)
    assert np.allclose(left, expected, rtol=1e-12, atol=0)
    assert np.all(np.diff(left) < 0)
    # up to t = 600 the positions are the generic inversion's
    generic = dist_from_scipy("beta(2,2)", stats.beta(2, 2))
    assert np.array_equal(dist.tail_quantile("-", TAIL_DEPTHS),
                          generic.tail_quantile("-", TAIL_DEPTHS))
    # the right side is 1 - y from the mirror law Beta(2, 2)'s left side: the
    # position rounds to 1 past t = 72, its log magnitude keeps every digit
    both = np.concatenate([TAIL_DEPTHS, deep])
    y = dist.tail_quantile("-", both)
    assert np.array_equal(dist.tail_quantile("+", both), 1.0 - y)
    assert np.array_equal(dist.log_tail_magnitude("+", both), np.log1p(-y))
    assert float(dist.log_tail_magnitude("+", 1000.0)) == pytest.approx(
        -_beta22_left_position(1000.0), rel=1e-12, abs=0)
