"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Desk-scale tolerances are stated inline.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tests.conftest import w1_cdf_distance
import wcontrast as wc
from wcontrast.harness import ExperimentConfig, run_clt_study
from wcontrast.limitlaw import build_bridge_grid, grid_mean_oracle_W2

SEED = 20240811


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def prop1_study(gauss_equal_pair):
    config = ExperimentConfig(
        pair=gauss_equal_pair, cost=wc.power_cost(1.5), theorem="equal",
        n=2000, replications=1000, seed=SEED,
        grid_m=2047, grid_delta=1e-4, n_sim=5000,
    )
    return run_clt_study(config)


def test_criterion_1_prop1_desk_scale(prop1_study):
    """F = G = N(0,1), independent, p = 1.5: n^0.75 W vs simulated limit."""
    ks = prop1_study.ks_distance
    runtime = prop1_study.runtime_seconds
    ok = ks <= 0.06 and runtime <= 300.0
    _report(1, ok, f"two-sample KS = {ks:.4f} (<= 0.06), runtime = {runtime:.1f}s (<= 300s)")


def test_criterion_2_sqrt_n_clt(gauss_shift_pair):
    """N(0,1) vs N(1,1), quadratic cost: sqrt(n)(W - 1) ~ N(0, 8)."""
    config = ExperimentConfig(
        pair=gauss_shift_pair, cost=wc.power_cost(2), theorem="gaussian",
        n=2000, replications=1000, seed=SEED + 1,
        grid_m=2047, grid_delta=1e-4, n_sim=5000,
    )
    res = run_clt_study(config)
    sigma2 = 8.0   # Hoeffding double-integral oracle (cross-checked in test_limitlaw)
    var = float(res.statistics.var(ddof=1))
    ks = stats.kstest(res.statistics, stats.norm(0, math.sqrt(sigma2)).cdf).statistic
    ok = abs(var / sigma2 - 1) <= 0.15 and ks <= 0.06
    _report(2, ok, f"sample var = {var:.3f} (within 15% of 8), KS vs N(0,8) = {ks:.4f} (<= 0.06)")


def test_criterion_3_mixed_partition(bump_pair_comonotone):
    """Quantile bump on (0.2, 0.5): sqrt(n)(W1 - W1(F,G)) vs shared-path
    draws of the mixed limit int_D Bq + int_E |Bq|."""
    config = ExperimentConfig(
        pair=bump_pair_comonotone, cost=wc.power_cost(1), theorem="mixed",
        n=2000, replications=1000, seed=SEED + 2,
        grid_m=2047, grid_delta=1e-4, n_sim=5000,
    )
    res = run_clt_study(config)
    ok = res.ks_distance <= 0.07
    _report(3, ok, f"KS = {res.ks_distance:.4f} (<= 0.07), "
                   f"centering W1(F,G) = {res.centering:.6f}")


def test_criterion_4_quadratic_regime():
    """F = G = Weibull(3): n W_2^2 vs int Bq^2 draws, plus the grid
    quadrature oracle 2 int u(1-u)/h^2 for the draw mean."""
    pair = wc.equal_pair(wc.weibull(3.0))
    config = ExperimentConfig(
        pair=pair, cost=wc.power_cost(2), theorem="quadratic",
        n=2000, replications=1000, seed=SEED + 3,
        grid_m=2047, grid_delta=1e-4, n_sim=5000,
    )
    res = run_clt_study(config)
    grid = build_bridge_grid(pair, m=2047, delta=1e-4)
    oracle = grid_mean_oracle_W2(pair, grid)
    mean = float(res.draws.values.mean())
    ok = res.ks_distance <= 0.06 and abs(mean / oracle - 1) <= 0.03
    _report(4, ok, f"KS = {res.ks_distance:.4f} (<= 0.06), draw mean = {mean:.4f} "
                   f"vs oracle {oracle:.4f} (within 3%)")


def test_criterion_5_compact_support():
    """F = G = Beta(2,2) with branch index 2.5: v_n = n^1.25 scaling."""
    pair = wc.equal_pair(wc.beta_dist(2, 2))
    cost = wc.power_cost(2.5)
    assert wc.rate_vn(cost, 2000) == pytest.approx(2000 ** 1.25, rel=1e-12)
    config = ExperimentConfig(
        pair=pair, cost=cost, theorem="equal",
        n=2000, replications=1000, seed=SEED + 4,
        grid_m=2047, grid_delta=1e-4, n_sim=5000,
    )
    res = run_clt_study(config)
    ok = res.ks_distance <= 0.07
    _report(5, ok, f"KS = {res.ks_distance:.4f} (<= 0.07) at v_n = n^1.25")


def test_criterion_6_degenerate_exactness():
    """Comonotone coupling with F = G: statistic and limit draws exactly 0."""
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    cost = wc.power_cost(1.5)
    stats_exact = all(
        wc.w_cost_empirical(wc.sample_pairs(pair, n, seed=n), cost) == 0.0
        for n in (1, 10, 100, 2000, 20000)
    )
    grid = build_bridge_grid(pair, m=511, delta=1e-4)
    draws = wc.REGIMES["equal"].draw(pair, cost, grid, 1000, SEED + 5, None)
    draws_exact = bool(np.all(draws.values == 0.0))
    ok = stats_exact and draws_exact
    _report(6, ok, f"statistics exactly 0: {stats_exact}, draws exactly 0: {draws_exact}")


def test_criterion_7_w1_identity():
    """Exact c.d.f.-distance integral equals the order-statistic estimator
    to 1e-12 absolute on 1000 random samples with n up to 1e4."""
    rng = np.random.default_rng(SEED + 6)
    cost = wc.power_cost(1)
    worst = 0.0
    for k in range(1000):
        n = int(rng.integers(2, 10001))
        scale = float(rng.uniform(0.5, 3.0))
        xs = rng.normal(size=n) * scale
        ys = rng.normal(size=n) * scale + float(rng.uniform(-2, 2))
        s = wc.PairedSample(xs, ys)
        worst = max(worst, abs(w1_cdf_distance(s) - wc.w_cost_empirical(s, cost)))
    ok = worst <= 1e-12
    _report(7, ok, f"max |identity gap| = {worst:.3e} (<= 1e-12) over 1000 samples")


def test_criterion_8_checker_thresholds():
    """Pareto/power-cost verdict flips at p = 2(b+2)/(2-b); the quadratic
    hypothesis checker passes Weibull(3) and fails Weibull(1.5), Gaussian."""
    flips_ok = True
    details = []
    for b in (1.0, 1.5, 1.9):
        p_star = 2 * (b + 2) / (2 - b)
        cost = wc.power_cost(b)
        ps = np.arange(p_star - 1.0, p_star + 1.0001, 0.25)
        verdicts = [wc.check_cfg_e(wc.pareto(float(p)), cost).verdict for p in ps]
        flips = [i for i in range(len(ps) - 1) if verdicts[i] != verdicts[i + 1]]
        single = len(flips) == 1
        where = (ps[flips[0]] + ps[flips[0] + 1]) / 2 if single else math.nan
        close = single and abs(where - p_star) <= 0.25
        flips_ok = flips_ok and single and close
        details.append(f"b={b}: flip at {where:.3f} (target {p_star:.3f})")
    w2_ok = (wc.check_w2_hypotheses(wc.weibull(3.0)).verdict == "pass"
             and wc.check_w2_hypotheses(wc.weibull(1.5)).verdict == "fail"
             and wc.check_w2_hypotheses(wc.gaussian()).verdict == "fail")
    ok = flips_ok and w2_ok
    _report(8, ok, "; ".join(details) + f"; quadratic checker pattern ok: {w2_ok}")


def test_criterion_9_property_suite(prop1_study):
    """p-values uniform under the null (KS <= 0.06) and size in [0.03, 0.07];
    the remaining properties are the unit suite itself."""
    draws = prop1_study.draws
    n_sim = draws.n_sim
    p_values = np.array([
        (1.0 + np.sum(draws.values >= s)) / (1.0 + n_sim)
        for s in prop1_study.statistics
    ])
    ks_u = stats.kstest(p_values, stats.uniform.cdf).statistic
    size = float(np.mean(p_values <= 0.05))
    ok = ks_u <= 0.06 and 0.03 <= size <= 0.07
    _report(9, ok, f"p-value uniformity KS = {ks_u:.4f} (<= 0.06), "
                   f"size at 5% level = {size:.3f} (in [0.03, 0.07])")
