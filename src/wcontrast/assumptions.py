"""Executable numeric checkers for the regularity and compatibility conditions.

Condition codes used throughout the library:

* ``FG1``–``FG3`` — regularity of a marginal distribution (smooth positive
  density; bounded ``min(u,1-u) |(log h)'|``; bounded
  ``min(u,1-u) / ((|F^{-1}|+1) h)``).
* ``CFG_E`` — compatibility of cost growth and common tails when the two
  quantile functions agree everywhere.
* ``CFG_D`` — compatibility when they differ everywhere (part (i): lower
  bound on ``(psi o l^{-1})'``; part (ii): an integrated bound required
  only where the quantile difference vanishes in a tail).
* ``CFG_ED`` — the mixed dispatch: ``CFG_D`` plus ``CFG_E`` on any tail
  interval where the quantiles agree.
* ``W2H`` — the hypotheses of the quadratic-cost (b = 2) limit.
* ``COMPACT`` — edge integrability for compactly supported marginals.
* ``PARETO_DOM`` — tails dominated by a Pareto tail of a given index.

All asymptotic conditions ("for all y beyond some threshold") are probed
on a log-spaced grid in tail depth and judged on the deepest decade: a
negative margin there fails, nonnegative margins with a nondecreasing
trend pass, anything else is inconclusive. No finite computation proves an
asymptotic inequality; the verdict logic is reported, never silently
trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostSpec
from .distributions import LEFT, RIGHT, DistSpec, PairSpec
from .errors import ValidationError
from .tails import (CONVERGENT, DIVERGENT, assess_tail, log_u_one_minus_u, probe_grid,
                    stabilized_running_max)

__all__ = [
    "CheckReport",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "check_fg",
    "check_cfg_e",
    "check_cfg_d",
    "check_cfg_ed",
    "check_w2_hypotheses",
    "check_compact",
    "check_pareto_dominance",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_DEFAULT_THETA2 = 0.5
_DEFAULT_THETA_PM = (1.5, 1.5)
# the probe design is fixed; each report records it in parameters_used
_Y_HI = 1e6                       # deepest tail depth probed
_N_PROBE = 160                    # probes per growth-margin grid
_FD_STEP = 1e-5                   # relative finite-difference step
_FG_T_MAX = -math.log(1e-8)       # FG tails probed to u in [1e-8, 1 - 1e-8]
_SIDES = ((LEFT, "left"), (RIGHT, "right"))


@dataclass(frozen=True)
class CheckReport:
    condition: str
    verdict: str
    margin_profile: tuple = ()        # rows (probe, lhs, rhs, margin)
    parameters_used: dict = field(default_factory=dict)
    notes: tuple = ()
    subreports: tuple = ()

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "margin_profile": [list(row) for row in self.margin_profile],
            "parameters_used": _jsonable(self.parameters_used),
            "notes": list(self.notes),
            "subreports": [s.to_dict() for s in self.subreports],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _combine(condition: str, subreports, params, notes=()) -> CheckReport:
    verdicts = [s.verdict for s in subreports]
    if FAIL in verdicts:
        verdict = FAIL
    elif INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return CheckReport(condition, verdict, (), params, tuple(notes), tuple(subreports))


def _vacuous(condition: str, note: str, params) -> CheckReport:
    return CheckReport(condition, PASS, (), params, (note,))


def _profile(*columns, rows: int = 40) -> tuple:
    """Every ``len // rows``-th probe row of the columns, as float tuples."""
    stride = max(1, len(columns[0]) // rows)
    return tuple(tuple(map(float, r)) for r in zip(*(c[::stride] for c in columns)))


def _margin_verdict(probes: np.ndarray, margins: np.ndarray):
    """fail if a margin in the deepest decade is negative; pass if the
    deepest-decade margins are nonnegative and trending nondecreasing."""
    finite = np.isfinite(probes)
    probes, margins = probes[finite], margins[finite]
    if len(probes) == 0:
        return INCONCLUSIVE, ("no usable probes",)
    decade = probes >= probes[-1] / 10.0
    m = margins[decade]
    y = probes[decade]
    vac = np.isposinf(m)
    if vac.all():
        return PASS, ("condition vacuous over the deepest decade",)
    mf = m[~vac]
    yf = y[~vac]
    if np.any(np.isnan(mf)):
        return INCONCLUSIVE, ("margin evaluation produced NaN",)
    if np.any(mf < 0):
        return FAIL, ()
    if len(mf) >= 3:
        slope = np.polyfit(np.log(yf), mf, 1)[0]
        scale = max(1.0, float(np.max(np.abs(mf))))
        if slope < -1e-6 * scale:
            return INCONCLUSIVE, ("margins nonnegative but trending down in the deepest decade",)
    return PASS, ()


def _log_L_envelope(cost: CostSpec, x: np.ndarray) -> np.ndarray:
    """log of the envelope slowly varying factor L from rho(x) = x^b L(x).

    Arguments are clipped to a floating-safe range; slow variation makes
    the clipped value an adequate stand-in for deeper probes.
    """
    x = np.clip(np.asarray(x, dtype=float), 1e-100, cost.x0)
    if cost.b_plus < cost.b_minus:
        return np.log(cost.L_plus(x))
    if cost.b_minus < cost.b_plus:
        return np.log(cost.L_minus(x))
    return np.log(np.maximum(cost.L_plus(x), cost.L_minus(x)))


# ---------------------------------------------------------------------------
# FG conditions
# ---------------------------------------------------------------------------

def check_fg(dist: DistSpec) -> CheckReport:
    """FG1 (positive density), FG2 and FG3 supremum stabilization.

    Tail portions are evaluated in depth coordinates where
    ``min(u,1-u) |(log h)'(u)| = |d log h / dt|`` exactly, avoiding
    cancellation; the sup must stabilize (relative growth < 1% over the
    deepest decade of tail mass, per side).
    """
    params = {"fd_step": _FD_STEP, "dist": dist.name}

    # FG1: positive density strictly inside the support
    us = np.linspace(1e-3, 1 - 1e-3, 997)
    x_int = np.asarray(dist.quantile(us), dtype=float)
    dens = np.asarray(dist.density(x_int), dtype=float)
    bad = (dens <= 0.0) | ~np.isfinite(dens)
    if bad.any():
        return CheckReport(
            "FG", FAIL, (), params,
            (f"density vanishes in the interior near u = {us[np.argmax(bad)]:.4g} ((FG1))",),
        )

    # FG2 and FG3 terms: at interior points in u, then along each tail in depth t
    s_int = np.minimum(us, 1 - us)
    h_int = np.asarray(dist.density_quantile(us), dtype=float)
    du = _FD_STEP * s_int
    dlogh = (np.log(dist.density_quantile(us + du))
             - np.log(dist.density_quantile(us - du))) / (2 * du)
    pieces = {"FG2": [(-np.log(s_int), s_int * np.abs(dlogh))],
              "FG3": [(-np.log(s_int), s_int / ((np.abs(x_int) + 1.0) * h_int))]}
    ts = np.linspace(math.log(2.0), _FG_T_MAX, 500)
    dt = _FD_STEP * ts
    for side in (LEFT, RIGHT):
        logh_p = dist.log_density_at_depth(side, ts + dt)
        logh_m = dist.log_density_at_depth(side, ts - dt)
        x = dist.tail_quantile(side, ts)
        logf = dist.log_density_at_depth(side, ts)
        for cond, vals in (("FG2", np.abs(logh_p - logh_m) / (2 * dt)),
                           ("FG3", np.exp(-ts - np.log(np.abs(x) + 1.0) - logf))):
            keep = np.isfinite(vals)
            pieces[cond].append((ts[keep], vals[keep]))
    subreports = []
    for cond, parts in pieces.items():
        depth = np.concatenate([d for d, _ in parts])
        values = np.concatenate([v for _, v in parts])
        sup, stable = stabilized_running_max(values, depth)
        if not np.isfinite(sup):
            verdict = FAIL
        elif stable:
            verdict = PASS
        else:
            verdict = INCONCLUSIVE
        profile = tuple(
            (float(d), float(v), float(sup), float(sup - v))
            for d, v in zip(depth[:: len(depth) // 40 + 1], values[:: len(values) // 40 + 1])
        )
        subreports.append(CheckReport(
            cond, verdict, profile,
            {"sup": sup, "stabilized": stable}, ()))
    return _combine("FG", subreports, params)


# ---------------------------------------------------------------------------
# CFG_E
# ---------------------------------------------------------------------------

_LPSY_BOTH = ((RIGHT, "+"), (RIGHT, "-"), (LEFT, "-"), (LEFT, "+"))
_CFG_E_COMBOS = {"both": _LPSY_BOTH, "right": _LPSY_BOTH[:2], "left": _LPSY_BOTH[2:]}


def _probe_ys(y_lo: float) -> np.ndarray:
    """Log-spaced tail depths from ``y_lo`` to ``_Y_HI``, or a decade deeper."""
    return probe_grid(y_lo, max(_Y_HI, 10 * y_lo), _N_PROBE)


def _growth_combo(dist: DistSpec, cost: CostSpec, side: str, branch: str,
                  theta2: float, b: float, label: str, params: dict,
                  record_range: bool = False) -> CheckReport:
    """Margins of ``l(psi^{-1}(y)) <= (1 - b/2) y + log L(e^{-y/2})
    - 2 log psi^{-1}(y) - theta2 log y`` on one branch and tail, with y/2 in
    place of the first two terms for b <= 1. CFG_E passes the cost's b and
    records its probe range; CFG_D(ii) passes b = 1."""
    if not dist.tail_applicable(side):
        return _vacuous(label, "tail beyond the support: condition holds trivially", params)
    y_lo = float(dist.psi_plus(cost.y0) if side == RIGHT else dist.psi_minus(cost.y0))
    if not np.isfinite(y_lo):
        return _vacuous(label, "bounded support: cost tail regime unreachable", params)
    ys = _probe_ys(max(y_lo, 1.5))
    log_psi_inv = dist.log_tail_magnitude(side, ys)
    lhs = cost.l_of_log(branch, log_psi_inv)
    if b > 1.0:
        growth = (1 - b / 2) * ys + _log_L_envelope(cost, np.exp(-ys / 2))
    else:
        growth = ys / 2
    rhs = growth - 2.0 * log_psi_inv - theta2 * np.log(ys)
    margins = rhs - lhs
    verdict, notes = _margin_verdict(ys, margins)
    profile = _profile(ys, lhs, rhs, margins)
    if record_range:
        params["y_range"] = (float(ys[0]), float(ys[-1]))
    return CheckReport(label, verdict, profile, params, notes)


def check_cfg_e(dist: DistSpec, cost: CostSpec, theta2: float = _DEFAULT_THETA2) -> CheckReport:
    """Tail compatibility of the cost with a common marginal law (code CFG_E).

    For each combination of log-cost branch and tail exponent the margin of
    the growth inequality is profiled over tail depths; requires b < 2
    (quadratic-regime costs route to ``check_w2_hypotheses``).
    """
    return _cfg_e(dist, cost, theta2, "both")


def _cfg_e(dist: DistSpec, cost: CostSpec, theta2: float, tails: str) -> CheckReport:
    """CFG_E on the tails named by ``tails``: 'both', 'left' or 'right'."""
    if cost.b >= 2.0:
        raise ValidationError(
            "CFG_E applies to costs with b < 2; for the b = 2 regime use "
            "check_w2_hypotheses (quadratic-cost hypotheses)"
        )
    subs = [_growth_combo(dist, cost, side, branch, theta2, cost.b,
                          f"CFG_E(l{branch}, psi{side})",
                          {"theta2": theta2, "branch": branch, "side": side},
                          record_range=True)
            for side, branch in _CFG_E_COMBOS[tails]]
    params = {"theta2": theta2, "tails": tails, "dist": dist.name, "cost": cost.name,
              "b": cost.b, "y_hi": _Y_HI}
    notes = ()
    if not cost.tail_regularity_declared:
        notes = ("cost tail-regularity condition (L') declared, not verified",)
    return _combine("CFG_E", subs, params, notes)


# ---------------------------------------------------------------------------
# CFG_D
# ---------------------------------------------------------------------------

def _cfg_d_derivative_combo(dist: DistSpec, marg: str, cost: CostSpec, side: str,
                            branch: str, theta: float) -> CheckReport:
    label = f"CFG_D(i)(l{branch}, psi_{marg}{side})"
    params = {"theta": theta, "branch": branch, "side": side, "marginal": marg}
    if not dist.tail_applicable(side):
        return _vacuous(label, "tail beyond the support: condition holds trivially", params)
    y0_l = float(cost.l_of_log(branch, math.log(cost.y0)))
    ys = _probe_ys(max(y0_l + 0.5, 1.0))

    # l^{-1} and psi are one call each on both finite-difference grids
    dy = _FD_STEP * ys
    xi = cost.l_inverse_log(branch, np.concatenate([ys + dy, ys - dy]))
    psi_up, psi_down = np.split(dist.psi_of_log_position(side, xi), 2)
    with np.errstate(invalid="ignore"):
        deriv = (psi_up - psi_down) / (2 * dy)
    # an infinite psi value past a finite probe means the tail is already
    # exhausted there: the growth condition holds with infinite slack
    deriv = np.where(np.isnan(deriv) | np.isinf(deriv), np.inf, deriv)
    rhs = 2.0 + 2.0 * theta / ys
    margins = deriv - rhs
    verdict, notes = _margin_verdict(ys, margins)
    profile = _profile(ys, deriv, rhs, margins)
    return CheckReport(label, verdict, profile, params, notes)


def _tail_liminf_zero(pair: PairSpec, side: str) -> bool:
    """Heuristic probe of liminf |F^{-1} - G^{-1}| = 0 along a tail."""
    ks = np.arange(2, 13)
    us = 10.0 ** (-ks) if side == LEFT else 1.0 - 10.0 ** (-ks)
    vals = np.abs(pair.tau(us))
    vals = vals[np.isfinite(vals)]
    if len(vals) < 4:
        return False
    if vals[-1] < 1e-3:
        return True
    decreasing = np.all(np.diff(vals[-6:]) < 0)
    return bool(decreasing and vals[-1] < 0.5 * vals[len(vals) // 2])


def check_cfg_d(pair: PairSpec, cost: CostSpec,
                theta_pm: tuple = _DEFAULT_THETA_PM,
                theta2: float = _DEFAULT_THETA2) -> CheckReport:
    """Tail compatibility when the quantile functions differ (code CFG_D).

    Part (i) lower-bounds the derivative of ``psi o l^{-1}`` (finite
    differences on a log-spaced grid) for each branch/tail combination of
    both marginals. Part (ii) applies the integrated bound only on tails
    where the quantile difference has vanishing liminf; elsewhere it is
    reported as not applicable.
    """
    theta_minus, theta_plus = theta_pm
    if theta_minus <= 1.0 or theta_plus <= 1.0:
        raise ValidationError("CFG_D requires theta_pm > 1")
    subs = []
    for marg, dist in (("X", pair.dist_x), ("Y", pair.dist_y)):
        for side, branch in _LPSY_BOTH:
            theta = theta_plus if branch == "+" else theta_minus
            subs.append(_cfg_d_derivative_combo(dist, marg, cost, side, branch, theta))
    notes = []
    for side, tail_name in _SIDES[::-1]:
        if _tail_liminf_zero(pair, side):
            pairs = ((pair.dist_x, "X", "+"), (pair.dist_y, "Y", "-")) if side == RIGHT \
                else ((pair.dist_x, "X", "-"), (pair.dist_y, "Y", "+"))
            for dist, marg, branch in pairs:
                subs.append(_growth_combo(
                    dist, cost, side, branch, theta2, 1.0,
                    f"CFG_D(ii)(l{branch}, psi_{marg}{side})",
                    {"theta2": theta2, "branch": branch, "side": side, "marginal": marg}))
        else:
            notes.append(f"CFG_D(ii) not applicable on the {tail_name} tail "
                         "(quantile difference bounded away from 0)")
    params = {"theta_pm": list(theta_pm), "theta2": theta2, "cost": cost.name,
              "pair": pair.fingerprint(), "y_hi": _Y_HI}
    return _combine("CFG_D", subs, params, notes)


# ---------------------------------------------------------------------------
# CFG_ED dispatch
# ---------------------------------------------------------------------------

def check_cfg_ed(pair: PairSpec, cost: CostSpec) -> CheckReport:
    """Mixed-partition dispatch (code CFG_ED).

    Always checks CFG_D; adds the CFG_E tail checks on the first/last
    partition interval when it is labeled E (the quantile functions agree
    on an unbounded quantile range there).
    """
    params = {"cost": cost.name, "pair": pair.fingerprint(),
              "theta_pm": list(_DEFAULT_THETA_PM), "theta2": _DEFAULT_THETA2}
    part = pair.partition
    if part.is_all_E:
        return _combine("CFG_ED", [check_cfg_e(pair.dist_x, cost)], params,
                        ("degenerate dispatch: quantiles agree everywhere",))
    subs = [check_cfg_d(pair, cost)]
    notes = []
    for label, tails in ((part.left_label, "left"), (part.right_label, "right")):
        if label == "E":
            subs.append(_cfg_e(pair.dist_x, cost, _DEFAULT_THETA2, tails))
    if part.left_label == "D" and part.right_label == "D":
        notes.append("agreement region compact in (0,1): only CFG_D required")
    return _combine("CFG_ED", subs, params, notes)


# ---------------------------------------------------------------------------
# quadratic-cost hypotheses and compact support
# ---------------------------------------------------------------------------

def _w2_integrand_log(dist: DistSpec, side: str):
    def log_g(ts):
        logf = dist.log_density_at_depth(side, ts)
        return np.log1p(-np.exp(-ts)) - 2.0 * ts - 2.0 * logf
    return log_g


def _integrability(label: str, log_g) -> CheckReport:
    """Whether the tail integral of ``exp(log_g(t))`` over depths t >= 3
    converges (pass), diverges (fail) or cannot be told (inconclusive)."""
    assessment = assess_tail(log_g, 3.0, _Y_HI)
    verdict = {CONVERGENT: PASS, DIVERGENT: FAIL}.get(assessment.verdict, INCONCLUSIVE)
    return CheckReport(label, verdict, (),
                       {"exponent": assessment.exponent, "tail_mass": assessment.total}, ())


def check_w2_hypotheses(dist: DistSpec) -> CheckReport:
    """Hypotheses of the quadratic-cost limit (code W2H):
    vanishing edge ratios u/h and (1-u)/h, and a finite integral of
    u(1-u)/h^2 (probed in depth coordinates with exponent extrapolation).
    """
    subs = []
    for side, name in _SIDES:
        ts = probe_grid(3.0, _Y_HI, 120)
        logf = dist.log_density_at_depth(side, ts)
        vals = np.exp(-ts - logf)          # min(u,1-u)/h at depth t
        keep = np.isfinite(vals)
        ts_k, vals_k = ts[keep], vals[keep]
        if len(ts_k) < 8:
            subs.append(CheckReport(f"W2H(limit,{name})", INCONCLUSIVE, (), {},
                                    ("edge ratio not evaluable",)))
            continue
        decade = ts_k >= ts_k[-1] / 2.0
        tail_vals = vals_k[decade]
        ok_small = tail_vals[-1] <= 1e-3
        decreasing = len(tail_vals) >= 2 and tail_vals[-1] <= tail_vals[0]
        verdict = PASS if (ok_small and decreasing) else FAIL
        profile = _profile(ts_k, vals_k, np.full(len(ts_k), 1e-3), 1e-3 - vals_k, rows=20)
        subs.append(CheckReport(f"W2H(limit,{name})", verdict, profile,
                                {"last_value": float(tail_vals[-1])}, ()))
        subs.append(_integrability(f"W2H(integral,{name})", _w2_integrand_log(dist, side)))
    params = {"dist": dist.name, "t_hi": _Y_HI}
    return _combine("W2H", subs, params)


def check_compact(dist: DistSpec, cost: CostSpec, b_prime: float) -> CheckReport:
    """Edge integrability of (sqrt(u(1-u))/h)^b' for compact supports
    (code COMPACT); requires b' above both branch indices.
    """
    lo, hi = dist.support
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(
            "COMPACT applies to bounded supports; for unbounded supports use "
            "check_cfg_e / check_w2_hypotheses"
        )
    if b_prime <= max(cost.b_minus, cost.b_plus):
        raise ValidationError(
            f"COMPACT requires b' > max(b_-, b_+) = {max(cost.b_minus, cost.b_plus)}; "
            f"got {b_prime}"
        )
    subs = []
    for side, name in _SIDES:

        def log_g(ts, side=side):
            logf = dist.log_density_at_depth(side, ts)
            return (b_prime / 2.0) * log_u_one_minus_u(ts) - b_prime * logf - ts

        subs.append(_integrability(f"COMPACT({name})", log_g))
    params = {"dist": dist.name, "b_prime": b_prime, "cost": cost.name}
    return _combine("COMPACT", subs, params)


# ---------------------------------------------------------------------------
# Pareto tail dominance
# ---------------------------------------------------------------------------

def check_pareto_dominance(dist: DistSpec, index: float) -> CheckReport:
    """Tails lighter than a Pareto tail of the given index (code PARETO_DOM):
    the local tail exponent t / log|x(t)| must exceed ``index`` in the
    deepest probed decade of both applicable tails.
    """
    subs = []
    for side, name in _SIDES:
        label = f"PARETO_DOM({name})"
        if not dist.tail_applicable(side):
            subs.append(_vacuous(label, "tail beyond the support: dominated trivially", {}))
            continue
        if np.isfinite(dist.support[1] if side == RIGHT else dist.support[0]):
            subs.append(_vacuous(label, "bounded tail: dominated trivially", {}))
            continue
        ts = probe_grid(5.0, _Y_HI, 100)
        logmag = dist.log_tail_magnitude(side, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.where(logmag > 0, ts / logmag, np.inf)
        margins = expo - index
        verdict, notes = _margin_verdict(ts, margins)
        profile = _profile(ts, expo, np.full(len(ts), float(index)), margins, rows=25)
        subs.append(CheckReport(label, verdict, profile, {"index": index}, notes))
    return _combine("PARETO_DOM", subs, {"dist": dist.name, "index": index})
