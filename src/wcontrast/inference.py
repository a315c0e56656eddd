"""Hypothesis tests built on the limit laws.

Two-sample equality of laws from paired data (simulated critical values),
one-sample goodness of fit against a fully specified null, and the
asymptotic distribution of the statistic under a fixed alternative (for
power analysis and confidence intervals). Only simple nulls are supported:
the limiting laws depend on the density-quantile of the null, so a fully
specified null distribution is required. No option covers a null fitted
to the data, under which the simulated critical values would be only
approximate.
Each call takes its limit theorem, checker, rate and draws from
``limitlaw.select_regime`` and runs the checker once; a verdict other than
pass raises HypothesisError unless ``override_checks`` turns it into a note.
Draws passed in as ``sim`` must be of that theorem, on the null pair and
under the test's cost, else ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import expit, logit

from .costs import CostSpec, power_cost
from .distributions import DistSpec, PairSpec, equal_pair
from .errors import ValidationError
from .estimator import PairedSample, w_cost_empirical
from .limitlaw import (DEFAULT_GRID, THEOREM_GAUSSIAN, THEOREM_ONE_SAMPLE,
                       LimitDraws, Regime, select_regime, sigma2_D)
from .tails import GL16, kink_rule, logit_nodes, logit_panels

__all__ = [
    "TestResult",
    "two_sample_test",
    "gof_test",
    "clt_alternative_distribution",
    "wp_distance_to_dist",
]

_DEFAULT_LEVEL = 0.05
_DEFAULT_NSIM = 5000


@dataclass(frozen=True)
class TestResult:
    statistic: float
    scaled_statistic: float
    p_value: float
    critical_values: dict
    theorem_used: str
    n_sim: int
    level: float
    reject: bool
    grid: dict
    notes: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "scaled_statistic": self.scaled_statistic,
            "p_value": self.p_value,
            "critical_values": {str(k): v for k, v in self.critical_values.items()},
            "theorem_used": self.theorem_used,
            "n_sim": self.n_sim,
            "level": self.level,
            "reject": self.reject,
            "grid": self.grid,
            "notes": list(self.notes),
        }


def two_sample_test(sample: PairedSample, null_pair: PairSpec, cost: CostSpec,
                    level: float = _DEFAULT_LEVEL,
                    sim: Optional[LimitDraws] = None,
                    n_sim: int = _DEFAULT_NSIM, seed: int = 7,
                    grid: tuple = DEFAULT_GRID,
                    override_checks: bool = False,
                    tail_frac: Optional[float] = None) -> TestResult:
    """Test of equal marginal laws from paired data.

    The statistic is the order-statistic contrast, scaled by the rate of the
    theorem the null pair and the cost select (v_n = 1/rho(1/sqrt(n)), n in
    the quadratic regime), and compared against simulated draws of the
    limiting law with the add-one upper-tail p-value (1 + #{draws >= s}) / (1 + N).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0,1)")
    if not null_pair.partition.is_all_E:
        raise ValidationError("the null pair must declare equal quantile functions "
                              "on all of (0,1)")
    regime = select_regime(null_pair, cost)
    notes = regime.gate(null_pair, cost, override=override_checks)

    return _simulated_test(regime, null_pair, cost, w_cost_empirical(sample, cost),
                           sample.n, level, sim, n_sim, seed, grid, tail_frac, notes)


def _simulated_test(regime: Regime, pair: PairSpec, cost: CostSpec, statistic: float,
                    n: int, level: float, sim: Optional[LimitDraws], n_sim: int,
                    seed: int, grid: tuple, tail_frac: Optional[float],
                    notes: tuple) -> TestResult:
    """Scale the statistic by the regime's rate and compare it with ``sim``,
    or with fresh draws of the regime's limit law when ``sim`` is None; a
    ``sim`` of another theorem, pair or cost is a ValidationError."""
    scaled = regime.rate(n, cost) * statistic
    if sim is None:
        sim = regime.simulate(pair, cost, grid, n_sim, seed, tail_frac)
    elif ((sim.theorem, sim.grid_meta.get("pair"), sim.cost)
          != (regime.label, pair.fingerprint(), (cost.name, cost.params))):
        raise ValidationError(
            f"precomputed draws are of {sim.theorem} on {sim.grid_meta.get('pair')} with "
            f"{sim.cost[0]}; the test needs {regime.label} on {pair.fingerprint()} with {cost.name}")
    p_value = sim.upper_tail_p(scaled)
    return TestResult(
        statistic=statistic,
        scaled_statistic=scaled,
        p_value=p_value,
        critical_values=sim.quantiles(),
        theorem_used=regime.label,
        n_sim=sim.n_sim,
        level=level,
        reject=p_value <= level,
        grid=sim.grid_meta,
        notes=notes,
    )


# the statistic integrates over [_EDGE, 1 - _EDGE]
_EDGE = 1e-13


def wp_distance_to_dist(xs: np.ndarray, null_dist: DistSpec, p: float) -> float:
    """W_p^p between the empirical law of xs and a fixed distribution:
    integration of |F_n^{-1}(u) - F0^{-1}(u)|^p over [1e-13, 1 - 1e-13] in
    s = logit(u).

    The empirical inverse is constant (= x_i) on each ((i-1)/n, i/n], so the
    panels come from ``tails.logit_panels`` with breaks at i/n: each lies in
    one segment, where the possibly unbounded null quantile is smooth in s.
    A panel whose quantile range contains its x_i is split at the kink
    s* = logit(F0(x_i)), found by comparing x_i with F0^{-1} at the panel
    ends, so ``cdf`` is called only for those panels. The two halves use
    Gauss-Jacobi nodes with the weight |s - s*|^p at the kink, which
    integrate the |x_i - F0^{-1}|^p corner exactly for any p. All nodes are
    evaluated in one vectorized ``quantile`` call; for a null whose quantile
    is analytic the result is exact to rounding.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    if n < 1:
        raise ValidationError("goodness-of-fit requires at least one observation")
    if not np.all(np.isfinite(xs)):
        raise ValidationError("goodness-of-fit sample contains non-finite values")
    ends, segment = logit_panels(_EDGE, 1.0 - _EDGE, np.arange(1, n) / n)
    lo, hi, obs = ends[:-1], ends[1:], xs[segment]

    q_ends = np.asarray(null_dist.quantile(expit(ends)), dtype=float)
    kinked = (q_ends[:-1] < obs) & (obs < q_ends[1:])
    # (panel ends in s, observation, nodes, weights) per panel group
    groups = [(lo[~kinked], hi[~kinked], obs[~kinked]) + GL16]
    if kinked.any():
        lo_k, hi_k, x_k = lo[kinked], hi[kinked], obs[kinked]
        s_star = np.clip(logit(np.asarray(null_dist.cdf(x_k), dtype=float)), lo_k, hi_k)
        j_nodes, j_weights = kink_rule(p)
        groups.append((lo_k, s_star, x_k, -j_nodes, j_weights))
        groups.append((s_star, hi_k, x_k, j_nodes, j_weights))

    rules = [logit_nodes(a, b, t, w) for a, b, _, t, w in groups]
    q0 = np.asarray(null_dist.quantile(np.concatenate([u.ravel() for u, _ in rules])),
                    dtype=float)
    total, start = 0.0, 0
    for (_, _, x, _, _), (u, w) in zip(groups, rules):
        q = q0[start:start + u.size].reshape(u.shape)
        start += u.size
        total += float(np.sum(np.abs(x[:, None] - q) ** p * w))
    return total


def gof_test(xs, null_dist: DistSpec, p: float = 1.0,
             level: float = _DEFAULT_LEVEL,
             sim: Optional[LimitDraws] = None,
             n_sim: int = _DEFAULT_NSIM, seed: int = 11,
             grid: tuple = DEFAULT_GRID,
             override_checks: bool = False,
             tail_frac: Optional[float] = None) -> TestResult:
    """One-sample goodness of fit against a fully specified null via the
    n^{p/2}-scaled W_p^p distance (``power_cost(p)``) and its simulated limit law."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0,1)")
    xs = np.asarray(xs, dtype=float)
    pair, cost = equal_pair(null_dist), power_cost(p)
    regime = select_regime(pair, cost, THEOREM_ONE_SAMPLE)
    notes = regime.gate(pair, cost, override_checks,
                        what=f"the tail dominance of the null {null_dist.name}")

    return _simulated_test(regime, pair, cost, wp_distance_to_dist(xs, null_dist, p),
                           len(xs), level, sim, n_sim, seed, grid, tail_frac, notes)


def clt_alternative_distribution(pair: PairSpec, cost: CostSpec,
                                 n_sim: int = _DEFAULT_NSIM, seed: int = 13,
                                 grid: tuple = DEFAULT_GRID,
                                 override_checks: bool = False,
                                 tail_frac: Optional[float] = None
                                 ) -> Union[float, LimitDraws]:
    """Asymptotic law of sqrt(n)(W_n - W(F,G)) under a fixed alternative.

    Returns the Gaussian variance sigma^2 when the limit is the pure
    Gaussian term (b > 1 with some disagreement region, or b = 1 with no
    agreement region); otherwise returns shared-path draws of the mixed
    limit. sigma^2 comes from ``sigma2_D`` on the true pair (its quantile
    densities and copula), by deterministic quadrature, not from data: it
    serves power and sample-size analysis for a known alternative, and
    estimate +/- z sigma / sqrt(n) is a confidence interval only when the
    pair is known.
    """
    if not pair.partition.has_D:
        raise ValidationError("alternative-distribution analysis requires a partition "
                              "with a D-labeled interval")
    regime = select_regime(pair, cost)
    regime.gate(pair, cost, override=override_checks)
    if regime.label == THEOREM_GAUSSIAN:
        return sigma2_D(pair, cost)
    return regime.simulate(pair, cost, grid, n_sim, seed, tail_frac)
