import math

import numpy as np
import pytest

import wcontrast as wc
from wcontrast.costs import abs_moment_normal
from wcontrast.errors import DomainError, ValidationError

ALL_BUILTINS = [
    wc.power_cost(1),
    wc.power_cost(1.5),
    wc.power_cost(2),
    wc.power_cost(2.5),
    wc.pinball_cost(0.3),
    wc.pinball_cost(0.5),
    wc.asymmetric_power_cost(a=(1, 2), b=(1, 2)),
    wc.asymmetric_power_cost(a=(2, 1), b=(1.5, 1.5)),
]


def test_evaluate_power_square():
    assert wc.evaluate(wc.power_cost(2), 3.0) == pytest.approx(9.0)


def test_evaluate_pinball_half():
    # (x-y)(alpha - 1_{x-y<0}) at x-y = -2, alpha = 0.5
    assert wc.evaluate(wc.pinball_cost(0.5), -2.0) == pytest.approx(1.0)


def test_evaluate_asymmetric_branches():
    cost = wc.asymmetric_power_cost(a=(1, 2), b=(1, 2))
    assert wc.evaluate(cost, -0.5) == pytest.approx(0.5)   # a_- (0.5)^{b_-}
    assert wc.evaluate(cost, 0.5) == pytest.approx(2 * 0.25)


def test_evaluate_zero_and_domain():
    cost = wc.power_cost(1.5)
    assert wc.evaluate(cost, 0.0) == 0.0
    with pytest.raises(DomainError):
        wc.evaluate(cost, np.inf)


def test_derivative_examples():
    assert wc.derivative(wc.power_cost(2), -1.0) == pytest.approx(-2.0)
    alpha = 0.37
    assert wc.derivative(wc.pinball_cost(alpha), 2.5) == pytest.approx(alpha)
    assert wc.derivative(wc.pinball_cost(alpha), -2.5) == pytest.approx(-(1 - alpha))
    assert wc.derivative(wc.power_cost(1.5), 4.0) == pytest.approx(3.0)


def test_derivative_kink_is_error():
    with pytest.raises(DomainError):
        wc.derivative(wc.power_cost(2), 0.0)


def test_derivative_matches_finite_differences():
    # analytic branch derivatives vs central differences, |x| in [1e-3, 1e3]
    xs = np.concatenate([np.geomspace(1e-3, 1e3, 40), -np.geomspace(1e-3, 1e3, 40)])
    for cost in ALL_BUILTINS:
        d = wc.derivative(cost, xs)
        h = 1e-6 * np.abs(xs)
        fd = (wc.evaluate(cost, xs + h) - wc.evaluate(cost, xs - h)) / (2 * h)
        assert np.allclose(d, fd, rtol=1e-5), cost.name


def test_rate_vn_examples():
    assert wc.rate_vn(wc.power_cost(1.5), 100) == pytest.approx(100 ** 0.75, rel=1e-12)
    assert wc.rate_vn(wc.power_cost(2), 400) == pytest.approx(400.0, rel=1e-12)


def test_rate_vn_b1_limit():
    # for b = 1 with L(0) = 1, sqrt(n)/v_n -> 1
    cost = wc.power_cost(1)
    for n in (10 ** 4, 10 ** 6, 10 ** 8):
        assert math.sqrt(n) / wc.rate_vn(cost, n) == pytest.approx(1.0, rel=1e-9)


def test_rate_vn_monotone_in_n():
    ns = [2 ** k for k in range(1, 20)]
    for cost in ALL_BUILTINS:
        rates = [wc.rate_vn(cost, n) for n in ns]
        assert np.all(np.diff(rates) >= 0), cost.name


def test_rate_vn_warns_outside_regime():
    cost = wc.power_cost(1.5)   # x0 = 1
    with pytest.warns(UserWarning, match="asymptotic regime"):
        wc.rate_vn(cost, 1)


def test_builtin_metadata_power_one():
    cost = wc.power_cost(1)
    assert cost.b_minus == cost.b_plus == 1.0
    assert cost.pi_minus == cost.pi_plus == 1.0
    assert cost.L0_minus == cost.L0_plus == 1.0


def test_builtin_metadata_pinball():
    alpha = 0.3
    cost = wc.pinball_cost(alpha)
    assert cost.b_minus == cost.b_plus == 1.0
    assert cost.L0_minus == pytest.approx(1 - alpha)
    assert cost.L0_plus == pytest.approx(alpha)
    # pi read off the dominating branch
    assert cost.pi_minus == pytest.approx((1 - alpha) / max(alpha, 1 - alpha))
    assert cost.pi_plus == pytest.approx(alpha / max(alpha, 1 - alpha))


def test_builtin_metadata_symmetric_asymmetric():
    cost = wc.asymmetric_power_cost(a=(1, 1), b=(1.5, 1.5))
    assert cost.pi_minus == cost.pi_plus == 1.0


def test_pi_max_property_when_indices_equal():
    for cost in ALL_BUILTINS:
        if cost.b_minus == cost.b_plus:
            assert max(cost.pi_minus, cost.pi_plus) == pytest.approx(1.0), cost.name


def test_parameter_validation_errors():
    with pytest.raises(ValidationError, match=r"\(C2\)"):
        wc.power_cost(0.5)
    with pytest.raises(ValidationError):
        wc.pinball_cost(1.2)
    with pytest.raises(ValidationError, match=r"\(C2\)"):
        wc.asymmetric_power_cost(a=(-1, 1), b=(1, 1))
    with pytest.raises(ValidationError, match=r"\(C2\)"):
        wc.asymmetric_power_cost(a=(1, 1), b=(0.8, 1))


def test_nonnegative_zero_and_convex_on_random_points():
    rng = np.random.default_rng(7)
    xs = rng.standard_cauchy(1000) * 3.0
    ys = rng.standard_cauchy(1000) * 3.0
    for cost in ALL_BUILTINS:
        vx = wc.evaluate(cost, xs)
        vy = wc.evaluate(cost, ys)
        vmid = wc.evaluate(cost, (xs + ys) / 2)
        assert np.all(vx >= 0)
        assert wc.evaluate(cost, 0.0) == 0.0
        assert np.all(vmid <= (vx + vy) / 2 + 1e-12 * (1 + np.maximum(vx, vy))), cost.name


def test_builtin_cost_registry():
    cost = wc.builtin_cost("power_p", p=2)
    assert cost.b_minus == 2.0
    cost2 = wc.builtin_cost("pinball_alpha", alpha=0.25)
    assert cost2.L0_plus == pytest.approx(0.25)
    with pytest.raises(ValidationError, match="unknown cost family"):
        wc.builtin_cost("nope")


def test_spliced_requires_declared_form_match():
    def rho(x):
        return np.asarray(x, dtype=float) ** 1.5

    def bad_L(x):
        return np.full_like(np.asarray(x, dtype=float), 2.0)

    with pytest.raises(ValidationError, match="does not match"):
        wc.spliced_cost(rho, rho, b=(1.5, 1.5), L=(bad_L, bad_L))


def test_spliced_probes_pi_numerically():
    def rho_m(x):
        return np.asarray(x, dtype=float) ** 1.2

    def rho_p(x):
        return np.asarray(x, dtype=float) ** 1.9

    cost = wc.spliced_cost(rho_m, rho_p, b=(1.2, 1.9))
    assert cost.pi_minus == pytest.approx(1.0, abs=1e-9)
    assert cost.pi_plus == pytest.approx(0.0, abs=1e-2)
    assert not cost.tail_regularity_declared


def test_pi_of_unequal_indices_is_exact():
    # indices 0.3 apart: rho_-/rho decays only like x^0.3, so at x = 1e-4 it
    # is still 0.016, yet the limit is 0 and pi = (0, 1) exactly
    cost = wc.asymmetric_power_cost((0.5, 2.0), (1.5, 1.2))
    assert (cost.pi_minus, cost.pi_plus) == (0.0, 1.0)

    def rho_m(x):
        return 0.5 * np.asarray(x, dtype=float) ** 1.5

    def rho_p(x):
        return 2.0 * np.asarray(x, dtype=float) ** 1.2

    spliced = wc.spliced_cost(rho_m, rho_p, b=(1.5, 1.2))
    assert (spliced.pi_minus, spliced.pi_plus) == (0.0, 1.0)


def test_spliced_pi_of_equal_indices_is_the_branch_ratio():
    def rho_m(x):
        return 3.0 * np.asarray(x, dtype=float) ** 1.5

    def rho_p(x):
        return 1.5 * np.asarray(x, dtype=float) ** 1.5

    cost = wc.spliced_cost(rho_m, rho_p, b=(1.5, 1.5))
    assert (cost.pi_minus, cost.pi_plus) == (1.0, 0.5)


def test_spliced_rejects_nonconvex():
    def rho(x):
        return np.sqrt(np.asarray(x, dtype=float))

    with pytest.raises(ValidationError):
        wc.spliced_cost(rho, rho, b=(1.0, 1.0), L0=(1.0, 1.0))


def test_b1_requires_finite_L0():
    def rho(x):
        return np.asarray(x, dtype=float)

    with pytest.raises(ValidationError, match=r"\(Lpi\)"):
        wc.spliced_cost(rho, rho, b=(1.0, 1.0))


@pytest.mark.parametrize("cost", ALL_BUILTINS, ids=lambda c: c.name)
def test_l_inverse_log_batched_matches_scalar_and_closed_form(cost):
    # a probe grid in one call equals probe-by-probe calls bit for bit, and
    # the closed form (y - log a_pm) / b_pm of a_pm x^b_pm (y / p for the
    # power costs) to 2 ulp of the larger of the result and y / b_pm
    ys = np.geomspace(0.5, 1e6, 97)
    for side, L, b in (("-", cost.L_minus, cost.b_minus), ("+", cost.L_plus, cost.b_plus)):
        batched = cost.l_inverse_log(side, ys)
        scalar = np.array([cost.l_inverse_log(side, float(y)) for y in ys])
        assert np.array_equal(batched, scalar), side
        exact = (ys - np.log(float(L(1.0)))) / b
        ulp = np.spacing(np.maximum(np.abs(exact), ys / b))
        assert np.all(np.abs(batched - exact) <= 2 * ulp), side


def test_l_inverse_log_beyond_reach_is_domain_error():
    # with no log_rho, l(xi) = log rho(exp(min(xi, 709))) never exceeds 709
    def ident(x):
        return np.asarray(x, dtype=float)

    cost = wc.spliced_cost(ident, ident, b=(1.0, 1.0), L0=(1.0, 1.0))
    assert cost.l_inverse_log("+", 5.0) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(DomainError):
        cost.l_inverse_log("+", 2000.0)
    with pytest.raises(DomainError):
        cost.l_inverse_log("-", np.array([5.0, 2000.0]))


def test_abs_moment_normal():
    assert abs_moment_normal(1.0) == pytest.approx(math.sqrt(2 / math.pi))
    assert abs_moment_normal(2.0) == pytest.approx(1.0)
