"""Hypothesis tests built on the limit laws.

Two-sample equality of laws from paired data (simulated critical values),
one-sample goodness of fit against a fully specified null, and the
asymptotic distribution of the statistic under a fixed alternative (for
power analysis and confidence intervals). Only simple nulls are supported:
the limiting laws depend on the density-quantile of the null, so a fully
specified null distribution is required; simulating under a fitted
parametric null must be flagged explicitly and is reported as approximate.
Each call takes its limit theorem, checker, rate and draws from
``limitlaw.select_regime`` and runs the checker once; a verdict other than
pass raises HypothesisError unless ``override_checks`` turns it into a note.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .costs import CostSpec
from .distributions import DistSpec, PairSpec, equal_pair
from .errors import ValidationError
from .estimator import PairedSample, w_cost_empirical
from .limitlaw import (DEFAULT_GRID, THEOREM_GAUSSIAN, THEOREM_ONE_SAMPLE,
                       LimitDraws, Regime, select_regime, sigma2_D)

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
            "notes": list(self.notes),
        }


def two_sample_test(sample: PairedSample, null_pair: PairSpec, cost: CostSpec,
                    level: float = _DEFAULT_LEVEL,
                    sim: Optional[LimitDraws] = None,
                    n_sim: int = _DEFAULT_NSIM, seed: int = 7,
                    grid: tuple = DEFAULT_GRID,
                    override_checks: bool = False,
                    tail_frac: Optional[float] = None,
                    null_fitted: bool = False) -> TestResult:
    """Test of equal marginal laws from paired data.

    The statistic is the order-statistic contrast, scaled by the rate of the
    theorem the null pair and the cost select (v_n, or n in the quadratic
    b = 2 regime), and compared against simulated draws of the limiting law
    with the add-one upper-tail p-value (1 + #{draws >= s}) / (1 + N).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0,1)")
    if not null_pair.partition.is_all_E:
        raise ValidationError("the null pair must declare equal quantile functions "
                              "on all of (0,1)")
    regime = select_regime(null_pair, cost)
    notes = []
    if null_fitted:
        notes.append("null simulated under a fitted parametric law: p-value approximate")
    notes += regime.gate(null_pair, cost, override=override_checks)

    return _simulated_test(regime, null_pair, cost, 0.0, w_cost_empirical(sample, cost),
                           sample.n, level, sim, n_sim, seed, grid, tail_frac, notes)


def _simulated_test(regime: Regime, pair: PairSpec, cost: Optional[CostSpec], p: float,
                    statistic: float, n: int, level: float, sim: Optional[LimitDraws],
                    n_sim: int, seed: int, grid: tuple, tail_frac: Optional[float],
                    notes: list) -> TestResult:
    """Scale the statistic by the regime's rate and compare it with ``sim``,
    or with fresh draws of the regime's limit law when ``sim`` is None."""
    scaled = regime.rate(n, cost, p) * statistic
    if sim is None:
        sim = regime.simulate(pair, cost, grid, n_sim, seed, tail_frac, p)
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
        notes=tuple(notes),
    )


_GL16 = roots_legendre(16)
# edge panels: one per decade of distance to the near endpoint of (0,1)
_EDGE_DECADES = 10.0 ** np.arange(-13, 0)


def wp_distance_to_dist(xs: np.ndarray, null_dist: DistSpec, p: float) -> float:
    """W_p^p between the empirical law of xs and a fixed distribution:
    piecewise integration of |F_n^{-1}(u) - F0^{-1}(u)|^p over
    [1e-13, 1 - 1e-13].

    The empirical inverse is constant (= x_i) on each ((i-1)/n, i/n]. Each
    interior segment is one 16-node Gauss-Legendre panel in u. The two
    edge segments, [1e-13, 1/n] and [1 - 1/n, 1 - 1e-13], hold the
    possibly unbounded null quantile; they are integrated in
    s = log(distance to the near endpoint), one panel per decade, where
    the integrand is smooth. With n = 1 the single segment is split at 1/2
    into a low and a high edge. A panel whose quantile range contains its
    x_i is split at the kink u* = F0(x_i), found by comparing x_i with
    F0^{-1} at the panel ends, so ``cdf`` is called only for those panels.
    The two halves use Gauss-Jacobi nodes with the weight |s - s*|^p at
    the kink, which integrate the |x_i - F0^{-1}|^p corner exactly for any
    p. All nodes are evaluated in one vectorized ``quantile`` call; for a
    null whose quantile is analytic the result is exact to rounding.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    if n < 1:
        raise ValidationError("goodness-of-fit requires at least one observation")
    if not np.all(np.isfinite(xs)):
        raise ValidationError("goodness-of-fit sample contains non-finite values")
    width = min(1.0 / n, 0.5)
    # edge panel ends as distances to the near endpoint
    edge_d = np.append(_EDGE_DECADES[_EDGE_DECADES < width], width)
    k = len(edge_d) - 1
    inner = np.arange(1, n) / n if n > 1 else np.array([0.5])
    # panel ends in u, increasing: low edge, interior segments, high edge
    ends = np.concatenate([edge_d[:-1], inner, 1.0 - edge_d[-2::-1]])
    # per panel: ends in its coordinate (u inside, log-distance on the
    # edges), side (0 inside, 1 low edge, 2 high edge) and observation
    log_d = np.log(edge_d)
    c_lo = np.concatenate([log_d[:-1], inner[:-1], log_d[:0:-1]])
    c_hi = np.concatenate([log_d[1:], inner[1:], log_d[-2::-1]])
    side = np.repeat([1, 0, 2], [k, len(inner) - 1, k])
    obs = xs[np.concatenate([np.zeros(k, dtype=int), np.arange(1, len(inner)),
                             np.full(k, n - 1)])]

    q_ends = np.asarray(null_dist.quantile(ends), dtype=float)
    kinked = np.nonzero((q_ends[:-1] < obs) & (obs < q_ends[1:]))[0]
    smooth = np.ones(len(obs), dtype=bool)
    smooth[kinked] = False
    # (coordinate ends, side, observation, nodes, weights) per panel group
    groups = [(c_lo[smooth], c_hi[smooth], side[smooth], obs[smooth]) + _GL16]
    if kinked.size:
        u_star = np.asarray(null_dist.cdf(obs[kinked]), dtype=float)
        s, lo_k, hi_k, x_k = side[kinked], c_lo[kinked], c_hi[kinked], obs[kinked]
        with np.errstate(divide="ignore"):
            c_star = np.where(s == 0, u_star,
                              np.where(s == 1, np.log(u_star), np.log1p(-u_star)))
        c_star = np.clip(c_star, np.minimum(lo_k, hi_k), np.maximum(lo_k, hi_k))
        j_nodes, j_weights = _kink_rule(p)
        groups.append((lo_k, c_star, s, x_k, -j_nodes, j_weights))
        groups.append((c_star, hi_k, s, x_k, j_nodes, j_weights))

    us, jacs = [], []
    for lo, hi, sd, _, t, _ in groups:
        c = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * t
        # u(c) and du/dc: c inside; e^c on the low edge; 1 - e^c on the
        # high edge, whose panels run from the inner end outward
        u, jac = c.copy(), np.ones_like(c)
        rows = sd != 0
        d = np.exp(c[rows])
        high = (sd[rows] == 2)[:, None]
        u[rows] = np.where(high, 1.0 - d, d)
        jac[rows] = np.where(high, -d, d)
        us.append(u.ravel())
        jacs.append(jac)
    q0 = np.asarray(null_dist.quantile(np.concatenate(us)), dtype=float)
    total, start = 0.0, 0
    for (lo, hi, _, x, t, w), jac in zip(groups, jacs):
        q = q0[start:start + jac.size].reshape(jac.shape)
        start += jac.size
        vals = np.abs(x[:, None] - q) ** p * jac
        total += float((vals @ w) @ (0.5 * (hi - lo)))
    return total


@functools.lru_cache(maxsize=8)
def _kink_rule(p: float):
    """16-node Gauss-Jacobi rule for int_{-1}^{1} (1 + t)^p g(t) dt, with the
    weights divided by (1 + t_j)^p so it applies to the plain integrand."""
    nodes, weights = roots_jacobi(16, 0.0, p)
    weights = weights / (1.0 + nodes) ** p
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gof_test(xs, null_dist: DistSpec, p: float = 1.0,
             level: float = _DEFAULT_LEVEL,
             sim: Optional[LimitDraws] = None,
             n_sim: int = _DEFAULT_NSIM, seed: int = 11,
             grid: tuple = DEFAULT_GRID,
             override_checks: bool = False,
             tail_frac: Optional[float] = None,
             null_fitted: bool = False) -> TestResult:
    """One-sample goodness of fit against a fully specified null via the
    n^{p/2}-scaled W_p^p distance and its simulated limit law."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0,1)")
    xs = np.asarray(xs, dtype=float)
    pair = equal_pair(null_dist)
    regime = select_regime(pair, None, THEOREM_ONE_SAMPLE)
    notes = []
    if null_fitted:
        notes.append("null fitted from data: p-value approximate")
    notes += regime.gate(pair, None, p, override_checks,
                         what=f"the tail dominance of the null {null_dist.name}")

    return _simulated_test(regime, pair, None, p, wp_distance_to_dist(xs, null_dist, p),
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
