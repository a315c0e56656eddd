import inspect
import json

import numpy as np
import pytest
from scipy import stats

import wcontrast as wc
from tests.conftest import exp_growth_cost
from wcontrast import assumptions
from wcontrast.assumptions import FAIL, PASS
from wcontrast.distributions import dist_from_scipy
from wcontrast.errors import ValidationError


# ---------------------------------------------------------------------------
# FG
# ---------------------------------------------------------------------------

def test_fg_classical_families_pass(builtin_dists):
    for name in ("gaussian", "exponential", "beta", "uniform", "weibull"):
        report = wc.check_fg(builtin_dists[name])
        assert report.verdict == PASS, (name, report.verdict)


def test_fg_interior_density_zero_fails():
    # density ~ x^2 on [-1, 1]: vanishes at the interior point 0
    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), -1, 1)
        return (x ** 3 + 1) / 2

    def quantile(u):
        u = np.asarray(u, dtype=float)
        return np.cbrt(2 * u - 1)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1, 1.5 * x ** 2, 0.0)

    dist = wc.DistSpec(
        name="cubic",
        cdf=cdf, quantile=quantile, density=density,
        density_quantile=lambda u: density(quantile(u)),
        log_density=lambda x: np.log(np.maximum(density(x), 1e-300)),
        log_cdf=lambda x: np.log(np.maximum(cdf(x), 1e-300)),
        log_sf=lambda x: np.log(np.maximum(1 - cdf(x), 1e-300)),
        support=(-1.0, 1.0),
    )
    report = wc.check_fg(dist)
    assert report.verdict == FAIL
    assert any("FG1" in n for n in report.notes)


# ---------------------------------------------------------------------------
# CFG_E
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [1.0, 1.5, 1.9])
def test_pareto_power_threshold(b):
    """Verdict flips exactly once, at p = 2(b+2)/(2-b) within grid resolution."""
    p_star = 2 * (b + 2) / (2 - b)
    cost = wc.power_cost(b)
    ps = np.arange(p_star - 1.0, p_star + 1.0001, 0.25)
    verdicts = [wc.check_cfg_e(wc.pareto(float(p)), cost).verdict for p in ps]
    flips = [i for i in range(len(ps) - 1) if verdicts[i] != verdicts[i + 1]]
    assert len(flips) == 1
    flip_at = (ps[flips[0]] + ps[flips[0] + 1]) / 2
    assert abs(flip_at - p_star) <= 0.25
    assert verdicts[0] == FAIL and verdicts[-1] == PASS


def test_weibull_exponential_cost_gamma_rule():
    w3 = wc.weibull(3.0)
    assert wc.check_cfg_e(w3, exp_growth_cost(1.5, 1.0)).verdict == PASS
    assert wc.check_cfg_e(w3, exp_growth_cost(1.5, 3.5)).verdict == FAIL


def test_gaussian_power_cost_passes():
    assert wc.check_cfg_e(wc.gaussian(), wc.power_cost(1.5)).verdict == PASS


def test_cfg_e_routes_b2():
    with pytest.raises(ValidationError, match="check_w2_hypotheses"):
        wc.check_cfg_e(wc.gaussian(), wc.power_cost(2))


def test_theta2_monotone_pass_to_fail():
    # tightening theta2 can flip pass -> fail, never fail -> pass
    dist = wc.pareto(14.2)       # just above the b = 1.5 threshold of 14
    cost = wc.power_cost(1.5)
    verdicts = [wc.check_cfg_e(dist, cost, theta2=t).verdict
                for t in (0.1, 0.5, 5.0, 50.0, 500.0)]
    seen_fail = False
    for v in verdicts:
        if v != PASS:
            seen_fail = True
        assert not (seen_fail and v == PASS)
    assert verdicts[0] == PASS and verdicts[-1] == FAIL


def test_cfg_e_reports_are_deterministic():
    a = wc.check_cfg_e(wc.pareto(15.0), wc.power_cost(1.5))
    b = wc.check_cfg_e(wc.pareto(15.0), wc.power_cost(1.5))
    assert a == b


# ---------------------------------------------------------------------------
# CFG_D / CFG_ED
# ---------------------------------------------------------------------------

def test_cfg_d_gaussian_shift_passes(gauss_shift_pair):
    report = wc.check_cfg_d(gauss_shift_pair, wc.power_cost(2))
    assert report.verdict == PASS
    assert any("not applicable" in n for n in report.notes)


def test_cfg_d_pareto_exponential_cost_fails():
    pair = wc.make_pair(wc.pareto(5.0), wc.pareto(5.0, scale=2.0))
    report = wc.check_cfg_d(pair, exp_growth_cost(1.5, 1.0))
    assert report.verdict == FAIL
    failing = [s.condition for s in report.subreports if s.verdict == FAIL]
    assert any(c.startswith("CFG_D(i)") for c in failing)


def test_cfg_d_requires_theta_above_one(gauss_shift_pair):
    with pytest.raises(ValidationError):
        wc.check_cfg_d(gauss_shift_pair, wc.power_cost(1.5), theta_pm=(0.5, 1.5))


def test_cfg_ed_dispatch(bump_pair_comonotone, gauss_shift_pair):
    # tail intervals labeled E: CFG_E appears on both tails
    report = wc.check_cfg_ed(bump_pair_comonotone, wc.power_cost(1))
    assert report.verdict == PASS
    conds = [s.condition for s in report.subreports]
    assert "CFG_D" in conds and conds.count("CFG_E") == 2

    # E compact in (0,1) (here empty): only CFG_D checked
    report2 = wc.check_cfg_ed(gauss_shift_pair, wc.power_cost(1.5))
    conds2 = [s.condition for s in report2.subreports]
    assert conds2 == ["CFG_D"]
    assert any("only CFG_D" in n for n in report2.notes)

    # E = (0,1): degenerate dispatch to CFG_E alone
    report3 = wc.check_cfg_ed(wc.equal_pair(wc.gaussian()), wc.power_cost(1.5))
    conds3 = [s.condition for s in report3.subreports]
    assert conds3 == ["CFG_E"]


# ---------------------------------------------------------------------------
# quadratic-regime hypotheses and compact support
# ---------------------------------------------------------------------------

def test_w2_hypotheses_worked_examples():
    assert wc.check_w2_hypotheses(wc.weibull(3.0)).verdict == PASS
    assert wc.check_w2_hypotheses(wc.weibull(1.5)).verdict == FAIL
    assert wc.check_w2_hypotheses(wc.gaussian()).verdict == FAIL


def test_compact_worked_examples():
    assert wc.check_compact(wc.beta_dist(2, 2), wc.power_cost(2.5), 3.0).verdict == PASS
    assert wc.check_compact(wc.uniform(), wc.power_cost(1), 1.5).verdict == PASS
    log_edge = wc.log_edge_dist(2.0)
    assert wc.check_compact(log_edge, wc.power_cost(2.5), 3.0).verdict == FAIL
    assert wc.check_compact(log_edge, wc.power_cost(1.5), 2.0).verdict == PASS


def test_compact_beta_tails_are_symmetric():
    # Beta(2,2) is symmetric about 1/2, so both edge integrals must agree
    left, right = wc.check_compact(wc.beta_dist(2, 2), wc.power_cost(2.5), 3.0).subreports
    assert (left.condition, right.condition) == ("COMPACT(left)", "COMPACT(right)")
    assert left.verdict == right.verdict == PASS
    assert left.parameters_used == right.parameters_used


def test_compact_validation():
    with pytest.raises(ValidationError, match="bounded supports"):
        wc.check_compact(wc.gaussian(), wc.power_cost(1.5), 2.0)
    with pytest.raises(ValidationError, match="b'"):
        wc.check_compact(wc.beta_dist(2, 2), wc.power_cost(2.5), 2.0)


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------

def test_pareto_dominance():
    assert wc.check_pareto_dominance(wc.gaussian(), 12.0).verdict == PASS
    assert wc.check_pareto_dominance(wc.weibull(1.5), 12.0).verdict == PASS
    assert wc.check_pareto_dominance(wc.pareto(5.0), 4.0).verdict == PASS
    assert wc.check_pareto_dominance(wc.pareto(5.0), 6.0).verdict == FAIL
    assert wc.check_pareto_dominance(wc.beta_dist(2, 2), 3.0).verdict == PASS


def test_report_serialization(gauss_shift_pair):
    report = wc.check_cfg_d(gauss_shift_pair, wc.power_cost(1.5))
    d = report.to_dict()
    assert d["condition"] == "CFG_D"
    assert isinstance(d["subreports"], list) and d["subreports"]
    import json
    json.dumps(d)   # must be JSON-clean


# ---------------------------------------------------------------------------
# closed-form Gaussian tail hooks and the vectorized CFG_D(i) probe grid
# ---------------------------------------------------------------------------

def _generic_gaussian(loc=0.0, scale=1.0):
    """The same law with no tail hooks: depths go through bisection."""
    return dist_from_scipy("gaussian-generic", stats.norm(loc, scale))


def _bump_pair(base):
    warp, dwarp = wc.bump_warp(0.15, 0.2, 0.5)
    warped = wc.warped_dist(base, warp, dwarp, (0.2, 0.5))
    return wc.PairSpec(base, warped, wc.comonotone(),
                       wc.Partition((0.0, 0.2, 0.5, 1.0), ("E", "D", "E")))


def _verdict_tree(report):
    return (report.condition, report.verdict,
            tuple(_verdict_tree(s) for s in report.subreports))


def _leaf_profiles(report):
    if report.margin_profile:
        yield report.condition, np.array(report.margin_profile, dtype=float)
    for sub in report.subreports:
        yield from _leaf_profiles(sub)


_GAUSSIAN_CHECKS = {
    "FG": (lambda g: wc.check_fg(g), PASS),
    "CFG_E": (lambda g: wc.check_cfg_e(g, wc.power_cost(1.5)), PASS),
    "CFG_E-expcost": (lambda g: wc.check_cfg_e(g, exp_growth_cost(1.5, 2.5)), FAIL),
    "CFG_ED-bump": (lambda g: wc.check_cfg_ed(_bump_pair(g), wc.power_cost(1)), PASS),
    "W2H": (lambda g: wc.check_w2_hypotheses(g), FAIL),
    "PARETO_DOM": (lambda g: wc.check_pareto_dominance(g, 14.0), PASS),
}


@pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (0.5, 2.0)])
@pytest.mark.parametrize("name", sorted(_GAUSSIAN_CHECKS))
def test_gaussian_tail_hooks_keep_verdicts(name, loc, scale):
    check, expected = _GAUSSIAN_CHECKS[name]
    hooked = check(wc.gaussian(loc, scale))
    generic = check(_generic_gaussian(loc, scale))
    assert hooked.verdict == expected
    assert _verdict_tree(hooked) == _verdict_tree(generic)
    if name.startswith(("CFG", "PARETO")):
        # growth-inequality profiles: probe, lhs, rhs agree to rounding
        for (cond, a), (_, b) in zip(_leaf_profiles(hooked), _leaf_profiles(generic)):
            assert np.allclose(a[:, :3], b[:, :3], rtol=1e-10, atol=1e-12), cond


def test_cfg_d_probe_grid_matches_scalar_loop(gauss_shift_pair):
    # psi o l^{-1} evaluated probe by probe (the scalar route) gives the
    # same finite-difference derivatives, bit for bit
    cost, fd_step = wc.power_cost(1.5), assumptions._FD_STEP
    report = wc.check_cfg_d(gauss_shift_pair, cost)
    dists = {"X": gauss_shift_pair.dist_x, "Y": gauss_shift_pair.dist_y}
    part_i = [s for s in report.subreports if s.condition.startswith("CFG_D(i)")]
    assert len(part_i) == 8
    for sub in part_i:
        side, branch = sub.parameters_used["side"], sub.parameters_used["branch"]
        dist = dists[sub.parameters_used["marginal"]]
        ys = np.array([row[0] for row in sub.margin_profile])

        def psi_of_l_inv(y):
            return float(dist.psi_of_log_position(side, cost.l_inverse_log(branch, float(y))))

        dy = fd_step * ys
        with np.errstate(invalid="ignore"):
            scalar = np.array([(psi_of_l_inv(y + d) - psi_of_l_inv(y - d)) / (2 * d)
                               for y, d in zip(ys, dy)])
        scalar[~np.isfinite(scalar)] = np.inf   # an exhausted tail: infinite slack
        assert np.array_equal(scalar, [row[1] for row in sub.margin_profile]), sub.condition


def test_cfg_ed_subreports_are_the_direct_checks(bump_pair_comonotone, gauss_shift_pair):
    def as_dicts(reports):
        return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]

    theta2 = assumptions._DEFAULT_THETA2
    bump, cost1 = bump_pair_comonotone, wc.power_cost(1)
    assert as_dicts(wc.check_cfg_ed(bump, cost1).subreports) == as_dicts([
        wc.check_cfg_d(bump, cost1),
        assumptions._cfg_e(bump.dist_x, cost1, theta2, "left"),
        assumptions._cfg_e(bump.dist_x, cost1, theta2, "right")])
    cost15 = wc.power_cost(1.5)
    assert as_dicts(wc.check_cfg_ed(gauss_shift_pair, cost15).subreports) == as_dicts(
        [wc.check_cfg_d(gauss_shift_pair, cost15)])
    equal = wc.equal_pair(wc.gaussian())
    assert as_dicts(wc.check_cfg_ed(equal, cost15).subreports) == as_dicts(
        [wc.check_cfg_e(equal.dist_x, cost15)])


def test_checker_signatures():
    # the probe design is fixed in module constants, not per-call knobs
    expected = {
        wc.check_fg: ["dist"],
        wc.check_cfg_e: ["dist", "cost", "theta2"],
        wc.check_cfg_d: ["pair", "cost", "theta_pm", "theta2"],
        wc.check_cfg_ed: ["pair", "cost"],
        wc.check_w2_hypotheses: ["dist"],
        wc.check_compact: ["dist", "cost", "b_prime"],
        wc.check_pareto_dominance: ["dist", "index"],
    }
    for checker, params in expected.items():
        assert list(inspect.signature(checker).parameters) == params, checker.__name__
