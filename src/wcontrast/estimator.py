"""Order-statistic contrast estimators and the population contrast.

The plug-in estimator of the population contrast ``int_0^1 rho_c(F^{-1} -
G^{-1}) du`` is the order-statistic mean ``(1/n) sum rho_c(X_(i) - Y_(i))``;
with the left-continuous empirical inverse ``F_n^{-1}(u) = X_(ceil(nu))``
the sum is the exact value of the integral for the empirical laws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .costs import CostSpec, evaluate
from .distributions import PairSpec
from .errors import IntegrabilityError, ValidationError
from .tails import (CONVERGENT, DIVERGENT, GL16, assess_tail, bisect_floats, depth_u,
                    kink_rule, logit_nodes, logit_panels, quantile_rule)

__all__ = [
    "PairedSample",
    "PopulationCost",
    "w_cost_empirical",
    "w_cost_population",
]

# the population contrast is integrated over [delta, 1 - delta]; the tail
# bound accounts for the clipped mass
_DELTA = 1e-8


@dataclass(frozen=True)
class PairedSample:
    """n aligned observation pairs with cached sorted copies."""

    xs: np.ndarray
    ys: np.ndarray
    provenance: str = "ingested"
    sorted_xs: np.ndarray = field(init=False, repr=False)
    sorted_ys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise ValidationError("paired sample requires two equal-length 1-d arrays")
        if len(xs) == 0:
            raise ValidationError("paired sample must contain at least one pair")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValidationError("paired sample contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "sorted_xs", np.sort(xs))
        object.__setattr__(self, "sorted_ys", np.sort(ys))

    @property
    def n(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class PopulationCost:
    value: float                 # integral over the clipped interval
    tail_bound: float            # estimated truncated-tail contribution

    @property
    def total(self) -> float:
        return self.value + self.tail_bound


def w_cost_empirical(sample: PairedSample, cost: CostSpec) -> float:
    """(1/n) sum rho_c(X_(i) - Y_(i)) over the cached sorted arrays.

    numpy pairwise summation keeps the accumulation error near machine
    precision for n up to 1e7. Overflow propagates as +inf with a warning.
    """
    diffs = sample.sorted_xs - sample.sorted_ys
    vals = evaluate(cost, diffs)
    total = float(np.sum(vals)) / sample.n
    if not math.isfinite(total):
        worst = float(np.max(np.abs(diffs)))
        warnings.warn(
            f"cost sum overflowed (largest order-statistic gap {worst:.3g}); "
            "heavy tails combined with a fast-growing cost",
            stacklevel=2,
        )
    return total


def _d_interval_cost(pair: PairSpec, cost: CostSpec, a: float, b: float) -> float:
    """int_a^b rho_c(tau(u)) du by ``tails.quantile_rule``.

    Where tau changes sign between two nodes, its root (the first double at
    which tau leaves its sign, by ``bisect_floats``) becomes a break, and
    the panel on either side of it takes the Gauss-Jacobi rule
    (``tails.kink_rule``) for the power b_minus or b_plus of the cost's
    branch there, which integrates the |tau|^b corner to rounding. A break
    halfway (in logit u) between two roots keeps each panel beside one root.
    """
    us, ws = quantile_rule(a, b)
    tau = np.asarray(pair.tau(us), dtype=float)
    nz = np.flatnonzero(tau)
    flip = np.flatnonzero(np.sign(tau[nz[:-1]]) != np.sign(tau[nz[1:]]))
    if flip.size == 0:
        return float(ws @ np.asarray(evaluate(cost, tau), dtype=float))
    before, after = nz[flip], nz[flip + 1]
    sign_before, sign_after = np.sign(tau[before]), np.sign(tau[after])
    roots = bisect_floats(lambda u: np.sign(pair.tau(u)) != sign_before,
                          us[before], us[after])
    mids = expit(0.5 * (logit(roots[:-1]) + logit(roots[1:])))
    ends, _ = logit_panels(a, b, np.sort(np.concatenate([roots, mids])))
    at = np.searchsorted(ends, logit(roots))     # ends[at] is the root
    corner = np.zeros(len(ends) - 1, dtype=bool)
    corner[at - 1] = corner[at] = True
    groups = [(ends[:-1][~corner], ends[1:][~corner]) + GL16]
    for panels, sign, orient in ((at - 1, sign_before, -1.0), (at, sign_after, 1.0)):
        for power, negative in ((cost.b_minus, True), (cost.b_plus, False)):
            sel = panels[(sign < 0) == negative]
            if sel.size:
                nodes, weights = kink_rule(power)
                groups.append((ends[sel], ends[sel + 1], orient * nodes, weights))
    rules = [logit_nodes(lo, hi, nodes, weights) for lo, hi, nodes, weights in groups]
    u = np.concatenate([u.ravel() for u, _ in rules])
    w = np.concatenate([w.ravel() for _, w in rules])
    return float(w @ np.asarray(evaluate(cost, pair.tau(u)), dtype=float))


def w_cost_population(pair: PairSpec, cost: CostSpec) -> PopulationCost:
    """Population contrast: ``tails.quantile_rule`` on each D interval
    clipped to [delta, 1 - delta] (delta = 1e-8) of rho_c(tau(u)), split
    where tau changes sign (``_d_interval_cost``), plus a tail-decay bound
    for the clipped mass.

    Intervals declared ``E`` contribute exactly zero. The tail bound is an
    exponent-extrapolated estimate of the discarded integral; if a tail
    diverges an integrability error names it.
    """
    value = 0.0
    for lo, hi, _ in pair.partition.intervals("D"):
        a, b = max(lo, _DELTA), min(hi, 1.0 - _DELTA)
        if a < b:
            value += _d_interval_cost(pair, cost, a, b)

    tail_bound = 0.0
    t0 = -math.log(_DELTA)
    for side, lab in (("-", pair.partition.left_label), ("+", pair.partition.right_label)):
        if lab == "E":
            continue

        def log_g(ts, side=side):
            # g(t) = rho_c(tau(u)) * du/dt at depth t along this tail
            u = np.clip(depth_u(side, ts), 1e-300, 1.0 - 1e-16)
            vals = np.asarray(evaluate(cost, pair.tau(u)), dtype=float)
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(vals, 1e-300)) - ts

        assessment = assess_tail(log_g, t0, t_hi=min(t0 + 30.0, 36.0), n=60)
        if assessment.verdict == DIVERGENT:
            raise IntegrabilityError(
                f"population cost integral diverges on the {'left' if side == '-' else 'right'} tail"
            )
        bound = assessment.total if assessment.verdict == CONVERGENT else assessment.integral
        tail_bound += bound

    return PopulationCost(value=float(value), tail_bound=float(tail_bound))
