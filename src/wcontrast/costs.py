"""Convex cost functions with asymmetric branches and regular-variation metadata.

A cost ``c(x, y) = rho(x - y)`` is described by its two branches
``rho_minus`` (applied to ``-z`` for ``z < 0``) and ``rho_plus`` (for
``z > 0``), together with the metadata the limit theory and the
compatibility checkers consume:

* ``b_minus, b_plus`` — power indices of the branches near 0, with slowly
  varying factors ``L_minus, L_plus`` (``rho_pm(x) = x**b_pm * L_pm(x)``);
* ``pi_minus, pi_plus`` — limits of ``rho_pm / rho`` at 0, where
  ``rho = max(rho_minus, rho_plus)`` is the normalizing envelope;
* ``x0 < y0`` — crossover abscissae separating the near-0 and near-infinity
  regimes (the theory only constrains the branches there; mid-range they
  must merely stay convex).

The envelope ``rho`` defines the two-sample rate ``v_n = 1/rho(1/sqrt(n))``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ValidationError, call_with_params
from .tails import bisect_floats

__all__ = [
    "CostSpec",
    "builtin_cost",
    "power_cost",
    "asymmetric_power_cost",
    "pinball_cost",
    "spliced_cost",
    "evaluate",
    "derivative",
    "rate_vn",
    "abs_moment_normal",
]

_PI_PROBE_FACTOR = 1e-4   # pi_pm of equal spliced indices probed at x = 1e-4 * x0
_SPLICE_RTOL = 1e-8


@dataclass(frozen=True)
class CostSpec:
    """Immutable description of an admissible cost. Safe for concurrent use.

    All callables must be vectorized over numpy arrays of positive floats.
    ``log_rho_*`` evaluate ``log rho`` given ``log x``; suppliers of
    exponential-type custom costs should override them, otherwise deep-tail
    checker probes fall back to direct evaluation (which may overflow).
    """

    name: str
    rho_minus: Callable[[np.ndarray], np.ndarray]
    rho_plus: Callable[[np.ndarray], np.ndarray]
    b_minus: float
    b_plus: float
    L_minus: Callable[[np.ndarray], np.ndarray]
    L_plus: Callable[[np.ndarray], np.ndarray]
    pi_minus: float = 1.0
    pi_plus: float = 1.0
    x0: float = 1.0
    y0: float = 2.0
    L0_minus: Optional[float] = None     # lim L_minus(x), x -> 0 (required if b_minus = 1)
    L0_plus: Optional[float] = None
    deriv_minus: Optional[Callable] = None   # analytic d rho_minus / dx on (0, inf)
    deriv_plus: Optional[Callable] = None
    log_rho_minus: Optional[Callable] = None  # xi -> log rho_minus(exp(xi))
    log_rho_plus: Optional[Callable] = None
    # condition (L') on l' at infinity cannot be verified pointwise;
    # built-ins satisfy it by construction, customs merely declare it.
    tail_regularity_declared: bool = True
    params: dict = field(default_factory=dict)

    @property
    def b(self) -> float:
        return min(self.b_minus, self.b_plus)

    def branch(self, side: str) -> Callable:
        return self.rho_plus if side == "+" else self.rho_minus

    def l_of_log(self, side: str, xi) -> np.ndarray:
        """log rho_side(exp(xi)), stable for large xi when a closed form exists."""
        xi = np.asarray(xi, dtype=float)
        fn = self.log_rho_plus if side == "+" else self.log_rho_minus
        if fn is not None:
            return np.asarray(fn(xi), dtype=float)
        with np.errstate(over="ignore"):
            x = np.exp(np.minimum(xi, 709.0))
        with np.errstate(divide="ignore", over="ignore"):
            return np.log(self.branch(side)(x))

    def l_inverse_log(self, side: str, y):
        """xi with log rho_side(exp(xi)) = y: the least double at which
        ``l_of_log`` reaches ``y``, exact to one ulp (``bisect_floats``),
        elementwise over an array of targets. A target beyond the reach of
        ``l_of_log`` raises ``DomainError``.
        """
        y = np.asarray(y, dtype=float)
        top = np.finfo(float).max

        def reaches(xi):
            with np.errstate(over="ignore", invalid="ignore"):
                return self.l_of_log(side, xi) >= y

        if not np.all(reaches(top)):
            raise DomainError(f"cost {self.name}: l{side}^-1({y.max():g}) is beyond reach")
        xi = bisect_floats(reaches, -top, top)
        return float(xi) if y.ndim == 0 else xi

    def envelope(self, x) -> np.ndarray:
        """rho(x) = max(rho_plus(x), rho_minus(x)) on x > 0."""
        x = np.asarray(x, dtype=float)
        return np.maximum(self.rho_plus(x), self.rho_minus(x))


def evaluate(cost: CostSpec, x) -> np.ndarray | float:
    """rho_c(x): rho_minus(-x) for x < 0, rho_plus(x) for x > 0, 0 at x = 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("cost evaluation requires finite arguments")
    out = np.zeros_like(arr)
    neg = arr < 0
    pos = arr > 0
    if neg.any():
        out[neg] = cost.rho_minus(-arr[neg])
    if pos.any():
        out[pos] = cost.rho_plus(arr[pos])
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def derivative(cost: CostSpec, x) -> np.ndarray | float:
    """One-sided derivative of rho_c as a function on R; x = 0 is a domain error.

    Uses the analytic branch derivative when supplied, else a central finite
    difference with relative step 1e-6.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("cost derivative requires finite arguments")
    if np.any(arr == 0.0):
        raise DomainError("rho_c need not be differentiable at 0; handle the kink explicitly")
    out = np.empty_like(arr)
    pos = arr > 0
    neg = ~pos

    def _branch_deriv(fn, analytic, z):
        if analytic is not None:
            return analytic(z)
        h = 1e-6 * z
        return (fn(z + h) - fn(z - h)) / (2.0 * h)

    if pos.any():
        out[pos] = _branch_deriv(cost.rho_plus, cost.deriv_plus, arr[pos])
    if neg.any():
        # d/dx rho_minus(-x) = -rho_minus'(-x)
        out[neg] = -_branch_deriv(cost.rho_minus, cost.deriv_minus, -arr[neg])
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def rate_vn(cost: CostSpec, n: int) -> float:
    """Normalizing rate 1 / rho(1/sqrt(n)) with rho the branch envelope."""
    if n < 1:
        raise ValidationError("rate_vn requires n >= 1")
    x = 1.0 / math.sqrt(n)
    if x >= cost.x0:
        warnings.warn(
            f"1/sqrt(n) = {x:.3g} >= x0 = {cost.x0:.3g}: asymptotic regime not reached",
            stacklevel=2,
        )
    return float(1.0 / cost.envelope(x))


def abs_moment_normal(b: float) -> float:
    """E|N(0,1)|^b = 2^(b/2) Gamma((b+1)/2) / sqrt(pi)."""
    return 2.0 ** (b / 2.0) * math.gamma((b + 1.0) / 2.0) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _validate_branch_shape(spec: CostSpec) -> None:
    """Positivity, monotonicity and finite-difference convexity on a grid.

    Fast-growing branches may overflow to +inf on the far grid; the checks
    apply to the finite prefix (at least 16 points required).
    """
    for side, fn in (("-", spec.rho_minus), ("+", spec.rho_plus)):
        xs = np.geomspace(1e-6 * spec.x0, 10.0 * spec.y0, 64)
        with np.errstate(over="ignore"):
            vals = np.asarray(fn(xs), dtype=float)
        if np.any(np.isnan(vals)):
            raise ValidationError(f"cost {spec.name}: rho_{side} produced NaN on probe grid")
        finite = np.isfinite(vals)
        cut = np.nonzero(~finite)[0][0] if (~finite).any() else len(xs)
        if cut < 16:
            raise ValidationError(f"cost {spec.name}: rho_{side} overflows too early on probe grid")
        xs, vals = xs[:cut], vals[:cut]
        if np.any(vals <= 0):
            raise ValidationError(f"cost {spec.name}: rho_{side} must be positive on (0, inf) ((C2))")
        if np.any(np.diff(vals) < -1e-12 * vals[:-1]):
            raise ValidationError(f"cost {spec.name}: rho_{side} must be nondecreasing ((C0))")
        with np.errstate(over="ignore"):
            mid = np.asarray(fn((xs[:-2] + xs[2:]) / 2.0), dtype=float)
        if np.any(mid > (vals[:-2] + vals[2:]) / 2.0 + 1e-12 * (1.0 + vals[2:])):
            raise ValidationError(f"cost {spec.name}: rho_{side} fails midpoint convexity ((C0))")


def _validate_metadata(spec: CostSpec) -> None:
    if spec.b_minus < 1.0 or spec.b_plus < 1.0:
        raise ValidationError(
            f"cost {spec.name}: branch indices must satisfy b_pm >= 1 ((C2)); "
            f"got ({spec.b_minus}, {spec.b_plus})"
        )
    if not (0.0 < spec.x0 < spec.y0):
        raise ValidationError(f"cost {spec.name}: require 0 < x0 < y0")
    for side, b, L0 in (("-", spec.b_minus, spec.L0_minus), ("+", spec.b_plus, spec.L0_plus)):
        if b == 1.0 and (L0 is None or not np.isfinite(L0)):
            raise ValidationError(
                f"cost {spec.name}: b_{side} = 1 requires a finite L_{side}(0) ((Lpi))"
            )


def _finish(spec: CostSpec) -> CostSpec:
    _validate_metadata(spec)
    _validate_branch_shape(spec)
    return spec


def _pi_from_max(a_minus: float, a_plus: float, b_minus: float, b_plus: float):
    """pi_pm = lim rho_pm / max(rho_-, rho_+) at 0 for branches of indices
    b_pm: the smaller index wins; equal indices split in the ratio of a_pm
    (the branch coefficients, or the branch values at one probe point)."""
    if b_minus < b_plus:
        return 1.0, 0.0
    if b_plus < b_minus:
        return 0.0, 1.0
    top = max(a_minus, a_plus)
    return a_minus / top, a_plus / top


def asymmetric_power_cost(a=(1.0, 1.0), b=(1.0, 1.0)) -> CostSpec:
    """Two-branch power cost: a_- (y-x)^{b_-} for x < y, a_+ (x-y)^{b_+} for x > y."""
    a_minus, a_plus = float(a[0]), float(a[1])
    b_minus, b_plus = float(b[0]), float(b[1])
    if a_minus <= 0 or a_plus <= 0:
        raise ValidationError(f"asymmetric power cost requires a_pm > 0 ((C2)); got {a}")
    if b_minus < 1.0 or b_plus < 1.0:
        raise ValidationError(f"asymmetric power cost requires b_pm >= 1 ((C2)); got {b}")

    def _mk(coef, expo):
        def rho(x):
            return coef * np.asarray(x, dtype=float) ** expo

        def deriv(x):
            return coef * expo * np.asarray(x, dtype=float) ** (expo - 1.0)

        def log_rho(xi):
            return math.log(coef) + expo * np.asarray(xi, dtype=float)

        return rho, deriv, log_rho

    rho_m, dm, lm = _mk(a_minus, b_minus)
    rho_p, dp, lp = _mk(a_plus, b_plus)
    pi_minus, pi_plus = _pi_from_max(a_minus, a_plus, b_minus, b_plus)
    return _finish(CostSpec(
        name=f"asym(a=({a_minus:g},{a_plus:g}), b=({b_minus:g},{b_plus:g}))",
        rho_minus=rho_m, rho_plus=rho_p,
        b_minus=b_minus, b_plus=b_plus,
        L_minus=_constant_fn(a_minus), L_plus=_constant_fn(a_plus),
        pi_minus=pi_minus, pi_plus=pi_plus,
        L0_minus=a_minus if b_minus == 1.0 else None,
        L0_plus=a_plus if b_plus == 1.0 else None,
        deriv_minus=dm, deriv_plus=dp,
        log_rho_minus=lm, log_rho_plus=lp,
        params={"family": "asymmetric_power_ab", "a": [a_minus, a_plus], "b": [b_minus, b_plus]},
    ))


def power_cost(p: float) -> CostSpec:
    """Symmetric power cost |x|^p, p >= 1: the asymmetric cost with a = (1, 1), b = (p, p)."""
    if p < 1.0:
        raise ValidationError(f"power cost requires p >= 1 ((C2)); got {p}")
    p = float(p)
    return dataclasses.replace(
        asymmetric_power_cost(a=(1.0, 1.0), b=(p, p)),
        name=f"power({p:g})",
        params={"family": "power_p", "p": p},
    )


def pinball_cost(alpha: float) -> CostSpec:
    """Quantile contrast (x - y)(alpha - 1_{x-y<0}); minimizer is the alpha-quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"pinball cost requires 0 < alpha < 1; got {alpha}")
    alpha = float(alpha)
    spec = asymmetric_power_cost(a=(1.0 - alpha, alpha), b=(1.0, 1.0))
    return dataclasses.replace(
        spec,
        name=f"pinball({alpha:g})",
        params={"family": "pinball_alpha", "alpha": alpha},
    )


def spliced_cost(
    rho_minus: Callable,
    rho_plus: Callable,
    *,
    b=(1.0, 1.0),
    L=None,
    x0: float = 1.0,
    y0: float = 2.0,
    L0=(None, None),
    deriv=(None, None),
    log_rho=(None, None),
    name: str = "spliced",
) -> CostSpec:
    """User-supplied branches on (0, inf) with declared metadata.

    The declared near-0 form ``x^b_pm L_pm(x)`` must agree with the branch
    at the splice point ``x0`` to 1e-8 relative. pi_pm follow from the
    indices: the smaller one wins outright, and equal indices split by the
    branch values at ``1e-4 * x0``. The tail-regularity condition on the
    log-cost derivative is recorded as declared-not-verified.
    """
    b_minus, b_plus = float(b[0]), float(b[1])
    if L is None:
        L_minus = _ratio_fn(rho_minus, b_minus)
        L_plus = _ratio_fn(rho_plus, b_plus)
    else:
        L_minus, L_plus = L
        # splice-point agreement between the callable and its declared form
        for side, fn, bb, Lf in (("-", rho_minus, b_minus, L_minus), ("+", rho_plus, b_plus, L_plus)):
            lhs = float(fn(np.asarray(x0)))
            rhs = x0 ** bb * float(Lf(np.asarray(x0)))
            if abs(lhs - rhs) > _SPLICE_RTOL * max(abs(lhs), abs(rhs)):
                raise ValidationError(
                    f"cost {name}: declared near-0 form of rho_{side} does not match the "
                    f"branch at x0 = {x0} ({rhs:.12g} vs {lhs:.12g})"
                )
    probe = np.asarray(_PI_PROBE_FACTOR * x0)
    pi_minus, pi_plus = _pi_from_max(float(rho_minus(probe)), float(rho_plus(probe)),
                                     b_minus, b_plus)
    return _finish(CostSpec(
        name=name,
        rho_minus=rho_minus, rho_plus=rho_plus,
        b_minus=b_minus, b_plus=b_plus,
        L_minus=L_minus, L_plus=L_plus,
        pi_minus=pi_minus, pi_plus=pi_plus,
        x0=float(x0), y0=float(y0),
        L0_minus=L0[0], L0_plus=L0[1],
        deriv_minus=deriv[0], deriv_plus=deriv[1],
        log_rho_minus=log_rho[0], log_rho_plus=log_rho[1],
        tail_regularity_declared=False,
        params={"family": "custom_spliced", "b": [b_minus, b_plus]},
    ))


def _constant_fn(c: float) -> Callable:
    def fn(x):
        return np.full_like(np.asarray(x, dtype=float), c)
    return fn


def _ratio_fn(rho: Callable, b: float) -> Callable:
    def L(x):
        x = np.asarray(x, dtype=float)
        return rho(x) / x ** b
    return L


_FAMILIES = {
    "power_p": power_cost,
    "power": power_cost,
    "asymmetric_power_ab": asymmetric_power_cost,
    "asymmetric": asymmetric_power_cost,
    "pinball_alpha": pinball_cost,
    "pinball": pinball_cost,
}


def builtin_cost(family: str, **params) -> CostSpec:
    """Construct a built-in cost by family name and the constructor's
    keyword parameters; an unknown family or parameter, or a missing one,
    raises ValidationError."""
    try:
        factory = _FAMILIES[family]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown cost family {family!r}; available: {sorted(set(_FAMILIES))}"
        ) from None
    return call_with_params(factory, params, f"cost family {family!r}")
