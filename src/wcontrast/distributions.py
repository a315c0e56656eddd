"""Distributions, couplings, and paired-sample models.

``DistSpec`` packages everything the limit theory consumes: c.d.f.,
quantile, density, density-quantile ``h = f o F^{-1}``, the tail exponent
``psi(side, x)`` (``-log P(X > x)`` on the right, ``-log P(X < -x)`` on the
left), and a seeded sampler.

Deep-tail quantities are exposed through a *tail-depth* API parametrized
by ``t = -log(tail mass)``: positions, log-magnitudes and log-densities at
depth ``t`` stay evaluable far beyond where ``u = 1 - exp(-t)`` saturates
in floating point. Built-in families override the generic root-finding
fallbacks with closed forms where they exist.

The built-in families (``gaussian``, ``exponential``, ``pareto``,
``weibull``, ``beta_dist``, ``uniform``) are built from ``scipy.special``
kernels with the formulas, loc/scale arithmetic and off-support values of
the matching ``scipy.stats`` laws, so quantiles, c.d.f.s, log c.d.f.s and
log s.f.s agree with them bit for bit (the beta density, exp of the log
density, to about 1e-13) at a fraction of the call cost, and the package
never imports ``scipy.stats``; ``exponential`` is ``weibull`` of shape 1.
``log_edge_dist`` takes the same off-support values from the same builder,
``_scaled_law``. ``dist_from_scipy`` adapts a frozen ``scipy.stats`` law
that a caller passes in.

``PairSpec`` couples two marginals through a copula and carries the
user-declared partition of (0,1) into intervals where the quantile
functions agree (label ``E``) or differ (label ``D``); the partition is
verified numerically at construction, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import (betainc, betaincc, betaincinv, betaln, expm1, hyp2f1, log1p,
                           log_ndtr, ndtr, ndtri, ndtri_exp, owens_t, xlog1py, xlogy)

from .errors import DomainError, ValidationError, call_with_params
from .seeding import derive_rng
from .tails import LEFT, RIGHT, bisect_floats, depth_u

__all__ = [
    "DistSpec",
    "CouplingSpec",
    "Partition",
    "PairSpec",
    "builtin_dist",
    "gaussian",
    "exponential",
    "pareto",
    "weibull",
    "beta_dist",
    "uniform",
    "log_edge_dist",
    "warped_dist",
    "independent",
    "comonotone",
    "gaussian_coupling",
    "custom_coupling",
    "equal_pair",
    "make_pair",
    "bump_warp",
    "pair_uniforms",
    "sample_pairs",
    "quantile_difference",
    "bvn_cdf",
]


# ---------------------------------------------------------------------------
# marginal distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistSpec:
    """Immutable one-dimensional distribution. All callables are vectorized."""

    name: str
    cdf: Callable
    quantile: Callable
    density: Callable
    density_quantile: Callable          # h(u) = f(F^{-1}(u))
    log_density: Callable
    log_cdf: Callable
    log_sf: Callable
    support: tuple[float, float]
    params: dict = field(default_factory=dict)
    # optional closed-form tail hooks, keyed by side "+" / "-"
    tail_quantile_fn: dict = field(default_factory=dict)      # t -> position
    log_tail_magnitude_fn: dict = field(default_factory=dict)  # t -> log |position|
    log_density_at_depth_fn: dict = field(default_factory=dict)

    # -- sampling ------------------------------------------------------
    def sample(self, n: int, rng) -> np.ndarray:
        """n i.i.d. draws by inverse transform (rng: Generator or seed)."""
        if not isinstance(rng, np.random.Generator):
            rng = derive_rng(int(rng), "marginal", self.name)
        return np.asarray(self.quantile(rng.random(int(n))), dtype=float)

    # -- tail exponents -------------------------------------------------
    def psi(self, side: str, x) -> np.ndarray:
        """Tail exponent psi_side(x): -log P(X > x) on the right, -log P(X < -x)
        on the left; +inf where that is nan."""
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            out = -np.asarray(self.log_sf(x) if side == RIGHT else self.log_cdf(-x),
                              dtype=float)
        return np.where(np.isnan(out), np.inf, out)

    def tail_applicable(self, side: str) -> bool:
        """Whether the psi_side conditions are non-vacuous.

        The left-tail exponent compares against positions ``-x < 0``; with
        support bounded below by 0 the probability is identically zero and
        every left-tail condition holds trivially.
        """
        return self.support[0] < 0 if side == LEFT else self.support[1] > 0

    # -- tail-depth API ---------------------------------------------------
    def tail_quantile(self, side: str, t) -> np.ndarray:
        """Position at tail depth t: right side solves -log sf(x) = t,
        left side solves -log cdf(x) = t."""
        t = np.asarray(t, dtype=float)
        fn = self.tail_quantile_fn.get(side)
        if fn is not None:
            return np.asarray(fn(t), dtype=float)
        return _invert_log_tail(self, side, t)

    def log_tail_magnitude(self, side: str, t) -> np.ndarray:
        """log of psi_side^{-1}(t) (log |position| along the tail direction)."""
        t = np.asarray(t, dtype=float)
        fn = self.log_tail_magnitude_fn.get(side)
        if fn is not None:
            return np.asarray(fn(t), dtype=float)
        x = self.tail_quantile(side, t)
        mag = x if side == RIGHT else -x
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.maximum(mag, 1e-300))

    def log_density_at_depth(self, side: str, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        fn = self.log_density_at_depth_fn.get(side)
        if fn is not None:
            return np.asarray(fn(t), dtype=float)
        return np.asarray(self.log_density(self.tail_quantile(side, t)), dtype=float)

    def psi_of_log_position(self, side: str, xi) -> np.ndarray:
        """psi_side(exp(xi)); +inf where the position exceeds the support."""
        xi = np.asarray(xi, dtype=float)
        with np.errstate(over="ignore"):
            x = np.exp(np.minimum(xi, 709.0))
        return self.psi(side, np.where(xi > 709.0, np.inf, x))


def _invert_log_tail(dist: DistSpec, side: str, ts: np.ndarray) -> np.ndarray:
    """Positions at tail depths ``ts``: moving into the tail, the first double
    at which the log tail mass (log sf on the right, log cdf on the left,
    clamped at -1e18) falls to ``-t``, exact to one ulp at any magnitude
    (``bisect_floats`` over the support clipped to +-max double). Depths past
    a bounded side's reach saturate at its edge; on an unbounded side, where
    the mass at max double stays above ``-t`` or underflows to -inf before
    ``-t``, they raise ``DomainError``.
    """
    t = np.asarray(ts, dtype=float)
    sign = 1.0 if side == RIGHT else -1.0
    top = np.finfo(float).max
    inner, edge = sorted(sign * s for s in dist.support)
    inner, reach = max(inner, -top), min(edge, top)

    def log_mass(y):
        with np.errstate(over="ignore"):     # positions near +-max double
            raw = dist.log_sf(y) if side == RIGHT else dist.log_cdf(-y)
        return np.asarray(raw, dtype=float)

    x = bisect_floats(lambda y: np.maximum(log_mass(y), -1e18) <= -t, inner, reach)
    if edge == np.inf:
        # a mass that underflowed to -inf before the depth says nothing of it
        m = log_mass(x)
        if not np.all(np.isfinite(m) & (m <= -t)):
            raise DomainError(f"{dist.name}: tail depths beyond float reach on side {side}")
    return sign * x


def _roundtrip_guard(quantile):
    # probe parameters early so bad families fail at construction
    us = np.array([1e-6, 0.1, 0.5, 0.9, 1 - 1e-6])
    xs = quantile(us)
    if not np.all(np.isfinite(xs)):
        raise ValidationError("distribution parameters give non-finite quantiles")


def dist_from_scipy(name: str, frozen, *, density_quantile=None, params=None,
                    tail_quantile_fn=None, log_tail_magnitude_fn=None,
                    log_density_at_depth_fn=None) -> DistSpec:
    """Adapter for a frozen ``scipy.stats`` law supplied by the caller (the
    built-in families below are built from ``scipy.special`` directly)."""
    lo, hi = frozen.support()
    _roundtrip_guard(frozen.ppf)
    if density_quantile is None:
        def density_quantile(u, _f=frozen):
            return _f.pdf(_f.ppf(np.asarray(u, dtype=float)))
    return DistSpec(
        name=name,
        cdf=frozen.cdf,
        quantile=frozen.ppf,
        density=frozen.pdf,
        density_quantile=density_quantile,
        log_density=frozen.logpdf,
        log_cdf=frozen.logcdf,
        log_sf=frozen.logsf,
        support=(float(lo), float(hi)),
        params=params or {},
        tail_quantile_fn=tail_quantile_fn or {},
        log_tail_magnitude_fn=log_tail_magnitude_fn or {},
        log_density_at_depth_fn=log_density_at_depth_fn or {},
    )


# ---------------------------------------------------------------------------
# built-in families: scipy.stats' formulas and masks, without scipy.stats
# ---------------------------------------------------------------------------

def _on_support(fn, z, inside, shapes, fill, edges=()):
    """``fn`` at the standardized points ``inside`` the support, the rest
    ``fill`` (nan at nan points) apart from the ``(mask, value)`` edges.

    The shape parameters reach ``fn`` as ``scipy.stats`` hands them over:
    broadcast to the points when every point is inside, one-element arrays
    otherwise. The two differ by an ulp for exponents 2, 0.5 and -1, where
    numpy's ``power`` takes its square, square-root and reciprocal short cuts
    for a one-element exponent only. A 0-d input gives a numpy scalar.
    """
    if inside.all():
        out = np.asarray(fn(z.ravel(), *(np.full(z.size, s) for s in shapes)))
        out = out.reshape(z.shape)
    else:
        out = np.full(z.shape, fill)
        out[np.isnan(z)] = np.nan
        for mask, value in edges:
            out[mask] = value
        if inside.any():
            out[inside] = fn(z[inside], *(np.array([s]) for s in shapes))
    return out[()] if out.ndim == 0 else out


def _median_split(below, near, far):
    """scipy's log c.d.f. (or log s.f.) for a family without one: ``near`` at
    the points where ``below(z)`` (log of the c.d.f. below the median),
    ``far`` at the rest (log1p of minus the s.f.), with the shapes broadcast
    to the points of each branch."""
    def fn(z, *shapes):
        shapes = [np.broadcast_to(s, z.shape) for s in shapes]
        out = np.empty_like(z)
        m = below(z)
        with np.errstate(divide="ignore"):
            out[m] = near(z[m], *(s[m] for s in shapes))
            out[~m] = far(z[~m], *(s[~m] for s in shapes))
        return out
    return fn


def _scaled_law(name: str, params: dict, support: tuple, loc: float, scale: float,
                shapes: tuple, *, cdf, log_cdf, log_sf, ppf, pdf, log_pdf,
                density_quantile=None, **hooks) -> DistSpec:
    """The law of ``loc + scale * Z`` from standardized formulas of ``Z``
    on its support ``(a, b)``, with ``scipy.stats``' loc/scale arithmetic
    and values off the support: c.d.f. 0 below and 1 above, log c.d.f. and
    log s.f. -inf and 0, density 0, quantile nan outside [0, 1]."""
    a, b = support
    log_scale = np.log(scale)

    def standard(x):
        return np.asarray((np.asarray(x, dtype=float) - loc) / scale)

    def open_(z):
        return (a < z) & (z < b)

    def cdf_(x):
        z = standard(x)
        return _on_support(cdf, z, open_(z), shapes, 0.0, [(z >= b, 1.0)])

    def log_cdf_(x):
        z = standard(x)
        return _on_support(log_cdf, z, open_(z), shapes, -np.inf, [(z >= b, 0.0)])

    def log_sf_(x):
        z = standard(x)
        return _on_support(log_sf, z, open_(z), shapes, -np.inf, [(z <= a, 0.0)])

    def density(x):
        z = standard(x)
        return _on_support(lambda z, *s: pdf(z, *s) / scale, z, (a <= z) & (z <= b),
                           shapes, 0.0)

    def log_density(x):
        z = standard(x)
        return _on_support(lambda z, *s: log_pdf(z, *s) - log_scale, z,
                           (a <= z) & (z <= b), shapes, -np.inf)

    def quantile(u):
        q = np.asarray(u, dtype=float)
        return _on_support(lambda q, *s: ppf(q, *s) * scale + loc, q, (0 < q) & (q < 1),
                           shapes, np.nan, [(q == 0, a * scale + loc), (q == 1, b * scale + loc)])

    if density_quantile is None:
        def density_quantile(u):
            return density(quantile(u))
    _roundtrip_guard(quantile)
    return DistSpec(name=name, cdf=cdf_, quantile=quantile, density=density,
                    density_quantile=density_quantile, log_density=log_density,
                    log_cdf=log_cdf_, log_sf=log_sf_,
                    support=(float(a * scale + loc), float(b * scale + loc)),
                    params=params, **hooks)


_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


def gaussian(loc: float = 0.0, scale: float = 1.0) -> DistSpec:
    if scale <= 0:
        raise ValidationError(f"gaussian requires scale > 0; got {scale}")
    log_norm = 0.5 * math.log(2.0 * math.pi) + math.log(scale)

    def depth_z(t):
        # standard normal position whose upper tail mass is exp(-t)
        return -ndtri_exp(-np.asarray(t, dtype=float))

    def log_f(t):
        return -0.5 * depth_z(t) ** 2 - log_norm

    return _scaled_law(
        f"gaussian({loc:g},{scale:g})",
        {"family": "gaussian", "loc": loc, "scale": scale}, (-np.inf, np.inf), loc, scale, (),
        cdf=ndtr, log_cdf=log_ndtr, log_sf=lambda z: log_ndtr(-z), ppf=ndtri,
        pdf=lambda z: np.exp(-z**2 / 2.0) / _SQRT_2PI,
        log_pdf=lambda z: -z**2 / 2.0 - _LOG_SQRT_2PI,
        tail_quantile_fn={RIGHT: lambda t: loc + scale * depth_z(t),
                          LEFT: lambda t: loc - scale * depth_z(t)},
        log_density_at_depth_fn={RIGHT: log_f, LEFT: log_f},
    )


def exponential(scale: float = 1.0) -> DistSpec:
    """Exponential law: Weibull of shape 1, with its closed-form tail hooks."""
    if scale <= 0:
        raise ValidationError(f"exponential requires scale > 0; got {scale}")
    return replace(weibull(1.0, scale), name=f"exponential({scale:g})",
                   params={"family": "exponential", "scale": scale})


def pareto(index: float, scale: float = 1.0) -> DistSpec:
    """Pareto with survival (x/scale)^(-index) on [scale, inf); psi(x) ~ index*log x."""
    if index <= 0 or scale <= 0:
        raise ValidationError(f"pareto requires index > 0 and scale > 0; got ({index}, {scale})")
    log_scale = math.log(scale)
    median = pow(1 - 0.5, -1.0 / index)

    def tail_q(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return scale * np.exp(t / index)

    def log_mag(t):
        return log_scale + np.asarray(t, dtype=float) / index

    def log_f(t):
        # log f(x(t)) with f(x) = index * scale^index * x^(-index-1)
        t = np.asarray(t, dtype=float)
        return math.log(index / scale) - (index + 1.0) * t / index

    def log_pdf(z, b):
        with np.errstate(divide="ignore"):
            return np.log(b * z**(-b - 1))

    return _scaled_law(
        f"pareto({index:g})", {"family": "pareto", "index": index, "scale": scale},
        (1.0, np.inf), 0.0, scale, (float(index),),
        cdf=lambda z, b: 1 - z**(-b), ppf=lambda q, b: pow(1 - q, -1.0 / b),
        log_cdf=_median_split(lambda z: z < median, lambda z, b: np.log(1 - z**(-b)),
                              lambda z, b: np.log1p(-(z**(-b)))),
        log_sf=_median_split(lambda z: z > median, lambda z, b: np.log(z**(-b)),
                             lambda z, b: np.log1p(-(1 - z**(-b)))),
        pdf=lambda z, b: b * z**(-b - 1), log_pdf=log_pdf,
        tail_quantile_fn={RIGHT: tail_q},
        log_tail_magnitude_fn={RIGHT: log_mag},
        log_density_at_depth_fn={RIGHT: log_f},
    )


def weibull(shape: float, scale: float = 1.0) -> DistSpec:
    """Weibull with psi(x) = (x/scale)^shape; light tails for shape >= 1."""
    if shape <= 0 or scale <= 0:
        raise ValidationError(f"weibull requires shape > 0 and scale > 0; got ({shape}, {scale})")
    w = float(shape)
    median = pow(-log1p(-0.5), 1.0 / w)

    def density_quantile(u):
        # closed form h(u) = (w/scale) (1-u) log(1/(1-u))^(1-1/w)
        u = np.asarray(u, dtype=float)
        ell = -np.log1p(-u)
        return (w / scale) * (1.0 - u) * ell ** (1.0 - 1.0 / w)

    def tail_q(t):
        return scale * np.asarray(t, dtype=float) ** (1.0 / w)

    def log_f(t):
        # f(x(t)) = (w/scale) t^((w-1)/w) e^{-t}
        t = np.asarray(t, dtype=float)
        return math.log(w / scale) + (1.0 - 1.0 / w) * np.log(t) - t

    def left_log_y(t):
        # log y, y = (x/scale)^w = -log1p(-e^{-t}) at left depth t; past
        # t = 40, e^{-t} is below rounding against 1 and log y = -t
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            near = np.log(-np.log1p(-np.exp(-np.minimum(t, 40.0))))
        return np.where(t < 40.0, near, -t)

    def left_tail_q(t):
        return scale * np.exp(left_log_y(t) / w)

    def left_log_f(t):
        log_y = left_log_y(t)
        return math.log(w / scale) + (1.0 - 1.0 / w) * log_y - np.exp(log_y)

    return _scaled_law(
        f"weibull({shape:g})", {"family": "weibull", "shape": shape, "scale": scale},
        (0.0, np.inf), 0.0, scale, (w,),
        cdf=lambda z, c: -expm1(-pow(z, c)), ppf=lambda q, c: pow(-log1p(-q), 1.0 / c),
        log_cdf=_median_split(lambda z: z < median, lambda z, c: np.log(-expm1(-pow(z, c))),
                              lambda z, c: np.log1p(-np.exp(-pow(z, c)))),
        log_sf=lambda z, c: -pow(z, c),
        pdf=lambda z, c: c * pow(z, c - 1) * np.exp(-pow(z, c)),
        log_pdf=lambda z, c: np.log(c) + xlogy(c - 1, z) - pow(z, c),
        density_quantile=density_quantile,
        tail_quantile_fn={RIGHT: tail_q, LEFT: left_tail_q},
        log_density_at_depth_fn={RIGHT: log_f, LEFT: left_log_f},
    )


def _beta_law(a: float, b: float) -> DistSpec:
    """Beta(a, b) from the incomplete beta function, without tail hooks. The
    density is exp of the log density (scipy's own density kernel agrees to
    about 1e-13 relative)."""
    median = betaincinv(a, b, 0.5)

    def log_pdf(z, a, b):
        return xlog1py(b - 1.0, -z) + xlogy(a - 1.0, z) - betaln(a, b)

    def pdf(z, a, b):
        with np.errstate(over="ignore"):
            return np.exp(log_pdf(z, a, b))

    return _scaled_law(
        f"beta({a:g},{b:g})", {"family": "beta", "a": a, "b": b},
        (0.0, 1.0), 0.0, 1.0, (float(a), float(b)),
        cdf=lambda z, a, b: betainc(a, b, z), ppf=lambda q, a, b: betaincinv(a, b, q),
        log_cdf=_median_split(lambda z: z < median, lambda z, a, b: np.log(betainc(a, b, z)),
                              lambda z, a, b: np.log1p(-betaincc(a, b, z))),
        log_sf=_median_split(lambda z: z > median, lambda z, a, b: np.log(betaincc(a, b, z)),
                             lambda z, a, b: np.log1p(-betainc(a, b, z))),
        pdf=pdf, log_pdf=log_pdf,
    )


def _beta_left_tail(law: DistSpec):
    """Position and log density of Beta(a, b) at left tail depth t.

    Up to t = 600 the position is the generic inversion, exact to one ulp.
    Beyond it, and for the log density below x = 1e-30, log x solves
    F(x) = x^a (1-x)^b 2F1(a+b, 1; a+1; x) / (a B(a, b)) = e^-t by
    bisection; where the O((a+b) x) factors beside x^a are 1 to rounding,
    that is the leading term log x = (log(a B(a, b)) - t) / a. So both stay
    exact at depths where the log c.d.f. underflows (from t = 706 on
    Beta(2, 2)), and the log density stays finite where x itself underflows
    (as it does for a < 1).
    """
    a, b = law.params["a"], law.params["b"]
    log_beta = betaln(a, b)
    log_a_beta = math.log(a) + log_beta

    def solve_log_x(t):
        def reached(log_x):   # log F(x) >= -t; nan near x = 1 counts as reached
            x = np.exp(log_x)
            with np.errstate(divide="ignore", invalid="ignore"):
                return ~(a * log_x + b * np.log1p(-x)
                         + np.log(hyp2f1(a + b, 1.0, a + 1.0, x)) < log_a_beta - t)

        return bisect_floats(reached, -np.inf, 0.0)

    def depth(t, exact):
        # (x, log x) at depths t, from the generic inversion where exact
        log_x = np.array((log_a_beta - t) / a)
        x = np.array(np.exp(log_x))
        x[exact] = law.tail_quantile(LEFT, t[exact])
        log_x[exact] = np.log(x[exact])
        solve = ~exact & ((a + b) * x > 1e-17)
        log_x[solve] = solve_log_x(t[solve])
        x[~exact] = np.exp(log_x[~exact])
        return x, log_x

    def position(t):
        t = np.asarray(t, dtype=float)
        return depth(t, t <= 600.0)[0]

    def log_f(t):
        t = np.asarray(t, dtype=float)
        exact = (t <= 600.0) & ((log_a_beta - t) / a >= math.log(1e-30))
        log_x = depth(t, exact)[1]
        return (a - 1.0) * log_x + (b - 1.0) * np.log1p(-np.exp(log_x)) - log_beta

    return position, log_f


def beta_dist(a: float, b: float) -> DistSpec:
    """Beta(a, b) on [0, 1], with closed tail hooks on both sides.

    The right tail is Beta(b, a)'s left tail, as f_{a,b}(1 - y) = f_{b,a}(y):
    the right position is 1 - y, and its log magnitude log1p(-y). Past about
    t = 72 on Beta(2, 2) that position rounds to 1.0, as any double near 1
    must; the log magnitude and the log density keep every digit.
    """
    if a <= 0 or b <= 0:
        raise ValidationError(f"beta requires a, b > 0; got ({a}, {b})")
    law = _beta_law(a, b)
    left_position, left_log_f = _beta_left_tail(law)
    mirror_position, right_log_f = _beta_left_tail(_beta_law(b, a))
    return replace(
        law,
        tail_quantile_fn={LEFT: left_position,
                          RIGHT: lambda t: 1.0 - mirror_position(t)},
        log_tail_magnitude_fn={RIGHT: lambda t: np.log1p(-mirror_position(t))},
        log_density_at_depth_fn={LEFT: left_log_f, RIGHT: right_log_f},
    )


def uniform(lo: float = 0.0, hi: float = 1.0) -> DistSpec:
    if not hi > lo:
        raise ValidationError(f"uniform requires hi > lo; got ({lo}, {hi})")
    return _scaled_law(
        f"uniform({lo:g},{hi:g})", {"family": "uniform", "lo": lo, "hi": hi},
        (0.0, 1.0), lo, hi - lo, (),
        cdf=lambda z: z, ppf=lambda q: q,
        log_cdf=_median_split(lambda z: z < 0.5, np.log, lambda z: np.log1p(-(1.0 - z))),
        log_sf=_median_split(lambda z: z > 0.5, lambda z: np.log(1.0 - z), lambda z: np.log1p(-z)),
        pdf=lambda z: 1.0 * (z == z), log_pdf=lambda z: np.log(1.0 * (z == z)),
    )


def log_edge_dist(w: float) -> DistSpec:
    """Compact-support stress family on (0,1): F(x) = exp(-(log(1/x))^w), w > 1.

    Near 0 the density-quantile decays so slowly that edge-integrability of
    bridge functionals holds only up to a finite power; used to exercise the
    compact-support checker. The density is 0 at both ends of the support.
    """
    if w <= 1.0:
        raise ValidationError(f"log_edge_dist requires w > 1; got {w}")
    w = float(w)
    median = math.exp(-math.log(2.0) ** (1.0 / w))

    def log_cdf(z):
        return -((-np.log(z)) ** w)

    def log_pdf(z):
        # -s^w + log w + (w-1) log s + s with s = log(1/z); -inf at z = 0 and 1
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -np.log(z)
            out = -(s ** w) + math.log(w) + (w - 1.0) * np.log(s) - np.log(z)
        return np.where((0.0 < z) & (z < 1.0), out, -np.inf)

    def left_log_f(t):
        # log h(u) at u = e^{-t}: h(u) = u w s^{w-1} e^{s}, s = t^{1/w}
        t = np.asarray(t, dtype=float)
        s = t ** (1.0 / w)
        return -t + math.log(w) + (1.0 - 1.0 / w) * np.log(t) + s

    return _scaled_law(
        f"log_edge({w:g})", {"family": "log_edge", "w": w}, (0.0, 1.0), 0.0, 1.0, (),
        cdf=lambda z: np.exp(log_cdf(z)), log_cdf=log_cdf,
        log_sf=_median_split(lambda z: z > median, lambda z: np.log(-expm1(log_cdf(z))),
                             lambda z: np.log1p(-np.exp(log_cdf(z)))),
        ppf=lambda q: np.exp(-((-np.log(q)) ** (1.0 / w))),
        pdf=lambda z: np.exp(log_pdf(z)), log_pdf=log_pdf,
        density_quantile=lambda u: np.exp(left_log_f(-np.log(u))),
        tail_quantile_fn={LEFT: lambda t: np.exp(-(np.asarray(t, dtype=float) ** (1.0 / w)))},
        log_density_at_depth_fn={LEFT: left_log_f},
    )


def warped_dist(base: DistSpec, warp: Callable, dwarp: Callable,
                region: tuple[float, float], name: Optional[str] = None) -> DistSpec:
    """Distribution whose quantile is ``base.quantile(u) + warp(u)``.

    ``warp`` must vanish (with its derivative) outside ``region`` strictly
    inside (0,1), so all tail behaviour is inherited from ``base``;
    monotonicity requires ``1/h_base(u) + dwarp(u) > 0``.
    """
    lo_r, hi_r = region
    if not 0.0 < lo_r < hi_r < 1.0:
        raise ValidationError("warp region must be strictly inside (0,1)")

    def quantile(u):
        u = np.asarray(u, dtype=float)
        return base.quantile(u) + warp(u)

    def density_quantile(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            slope = 1.0 / base.density_quantile(u) + dwarp(u)
            return 1.0 / slope

    us = np.linspace(lo_r, hi_r, 2049)
    if np.any(1.0 / base.density_quantile(us) + dwarp(us) <= 0):
        raise ValidationError("warp destroys monotonicity of the quantile function")
    x_lo = float(base.quantile(lo_r))
    x_hi = float(base.quantile(hi_r))

    warp_top = x_hi + float(np.max(warp(us)))

    def cdf(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array(base.cdf(arr), dtype=float)
        inside = (arr > x_lo) & (arr < warp_top)
        xs = arr[inside]
        out[inside] = bisect_floats(lambda v: quantile(v) >= xs, 0.0, 1.0)
        return float(out[0]) if np.ndim(x) == 0 else out

    # the base's values where the warp vanishes, as in log_cdf and log_sf
    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x <= x_lo) | (x >= warp_top), base.density(x),
                        density_quantile(np.asarray(cdf(x), dtype=float)))

    def log_density(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((x <= x_lo) | (x >= warp_top), base.log_density(x),
                            np.log(density_quantile(np.asarray(cdf(x), dtype=float))))

    def log_cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= x_lo, base.log_cdf(x), np.log(np.maximum(cdf(x), 1e-300)))

    def log_sf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x >= warp_top, base.log_sf(x),
                            np.log1p(-np.minimum(cdf(x), 1.0)))

    # the base's tail hooks, moved by the warp at depths inside its region
    def hook_position(side, fn):
        return lambda t: np.asarray(fn(t), dtype=float) + warp(depth_u(side, t))

    def hook_log_magnitude(side, fn):
        def log_mag(t):
            w = warp(depth_u(side, t))
            x = np.asarray(base.tail_quantile(side, t), dtype=float) + w
            with np.errstate(divide="ignore", invalid="ignore"):
                moved = np.log(np.maximum(x if side == RIGHT else -x, 1e-300))
            return np.where(w == 0.0, fn(t), moved)
        return log_mag

    def hook_log_density(side, fn):
        def log_f(t):
            lf = np.asarray(fn(t), dtype=float)
            # log h_warped = log h - log(1 + h dwarp)
            return lf - np.log1p(np.exp(lf) * dwarp(depth_u(side, t)))
        return log_f

    return DistSpec(
        name=name or f"warped[{base.name}]",
        cdf=cdf,
        quantile=quantile,
        density=density,
        density_quantile=density_quantile,
        log_density=log_density,
        log_cdf=log_cdf,
        log_sf=log_sf,
        support=base.support,
        params={"family": "warped", "base": base.params, "region": [lo_r, hi_r]},
        tail_quantile_fn={side: hook_position(side, fn)
                          for side, fn in base.tail_quantile_fn.items()},
        log_tail_magnitude_fn={side: hook_log_magnitude(side, fn)
                               for side, fn in base.log_tail_magnitude_fn.items()},
        log_density_at_depth_fn={side: hook_log_density(side, fn)
                                 for side, fn in base.log_density_at_depth_fn.items()},
    )


_DIST_FAMILIES = {
    "gaussian": gaussian,
    "normal": gaussian,
    "exponential": exponential,
    "pareto": pareto,
    "weibull": weibull,
    "beta": beta_dist,
    "uniform": uniform,
    "log_edge": log_edge_dist,
}


def builtin_dist(family: str, **params) -> DistSpec:
    """The built-in law ``family`` with the constructor's keyword
    ``params``; an unknown family or parameter, or a missing one, raises
    ValidationError."""
    try:
        factory = _DIST_FAMILIES[family]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown distribution family {family!r}; available: {sorted(_DIST_FAMILIES)}"
        ) from None
    return call_with_params(factory, params, f"distribution family {family!r}")


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def _owen_term(h: np.ndarray, k: np.ndarray, rho: float, s: float) -> np.ndarray:
    """Owen's T(h, (k - rho h) / (h s)), with its limits at h = 0 (T(0, +-inf)
    = +-1/4) and at infinite h (0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = owens_t(h, (k - rho * h) / (h * s))
    t = np.where(h == 0.0, np.sign(k) / 4.0, t)
    return np.where(np.isinf(h), 0.0, t)


def bvn_cdf(a, b, rho: float) -> np.ndarray:
    """Standard bivariate normal c.d.f. P(Z1 <= a, Z2 <= b) with correlation rho.

    Owen's (1956) reduction to two T functions,
    Phi2(h, k) = (Phi(h) + Phi(k))/2 - T(h, a_h) - T(k, a_k) - beta, with
    a_h = (k - rho h)/(h sqrt(1 - rho^2)) and beta = 1/2 where hk < 0, or
    hk = 0 and h + k < 0. It is exact to rounding for every |rho| < 1 and
    every (a, b), infinite ones included; (0, 0) takes its closed form
    1/4 + asin(rho)/(2 pi), and rho = 0 the product Phi(a) Phi(b).
    """
    h, k = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if rho == 0.0:
        return ndtr(h) * ndtr(k)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    sign = np.sign(h) * np.sign(k)
    beta = np.where((sign < 0.0) | ((sign == 0.0) & (np.minimum(h, k) < 0.0)), 0.5, 0.0)
    val = (0.5 * (ndtr(h) + ndtr(k)) - _owen_term(h, k, rho, s)
           - _owen_term(k, h, rho, s) - beta)
    return np.where((h == 0.0) & (k == 0.0), 0.25 + math.asin(rho) / (2.0 * math.pi), val)


@dataclass(frozen=True)
class CouplingSpec:
    """Joint law of the pair as a copula over the two marginal uniforms."""

    kind: str                       # independent | comonotone | gaussian | custom
    rho: Optional[float] = None
    copula_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in {"independent", "comonotone", "gaussian", "custom"}:
            raise ValidationError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValidationError("gaussian coupling requires rho in (-1, 1)")
        if self.kind == "custom":
            if self.copula_fn is None:
                raise ValidationError("custom coupling requires a copula callable")
            _validate_copula(self.copula_fn)

    def copula(self, u, v) -> np.ndarray:
        """C(u, v), broadcasting over array arguments."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "independent":
            return u * v
        if self.kind == "comonotone":
            return np.minimum(u, v)
        if self.kind == "gaussian":
            return bvn_cdf(ndtri(u), ndtri(v), self.rho)
        return np.asarray(self.copula_fn(u, v), dtype=float)

    def sample_uv(self, n: int, rng: np.random.Generator):
        if self.kind == "independent":
            u = rng.random(n)
            v = rng.random(n)
            return u, v
        if self.kind == "comonotone":
            u = rng.random(n)
            return u, u
        if self.kind == "gaussian":
            z1 = rng.standard_normal(n)
            z2 = self.rho * z1 + math.sqrt(1.0 - self.rho ** 2) * rng.standard_normal(n)
            return ndtr(z1), ndtr(z2)
        return _sample_custom_copula(self.copula_fn, n, rng)


def _validate_copula(copula_fn, grid_n: int = 64) -> None:
    """Margins and the 2-increasing property on a probe grid."""
    g = np.linspace(0.0, 1.0, grid_n + 1)
    C = np.asarray(copula_fn(g[:, None], g[None, :]), dtype=float)
    if np.max(np.abs(C[:, 0])) > 1e-9 or np.max(np.abs(C[0, :])) > 1e-9:
        raise ValidationError("custom copula violates C(u,0) = C(0,v) = 0")
    if np.max(np.abs(C[:, -1] - g)) > 1e-9 or np.max(np.abs(C[-1, :] - g)) > 1e-9:
        raise ValidationError("custom copula violates uniform margins C(u,1) = u")
    if not two_increasing(C):
        raise ValidationError("custom copula is not 2-increasing on the probe grid")


def two_increasing(C: np.ndarray) -> bool:
    """Whether every rectangle of the grid values C[i, j] = C(u_i, v_j), on
    increasing nodes, has C-volume at least -1e-12 (rounding)."""
    rect = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    return bool(np.min(rect, initial=0.0) >= -1e-12)


def _sample_custom_copula(copula_fn, n: int, rng: np.random.Generator):
    """Conditional inversion: V is the least v with dC/du(u, v) >= w."""
    u = rng.random(n)
    w = rng.random(n)
    h = 1e-6

    def cond(u_, v_):
        return (np.asarray(copula_fn(np.minimum(u_ + h, 1.0), v_))
                - np.asarray(copula_fn(np.maximum(u_ - h, 0.0), v_))) / (2 * h)

    # v stays below 1, where the marginal quantiles are finite
    return u, bisect_floats(lambda v: cond(u, v) >= w, 0.0, np.nextafter(1.0, 0.0))


def independent() -> CouplingSpec:
    return CouplingSpec("independent")


def comonotone() -> CouplingSpec:
    return CouplingSpec("comonotone")


def gaussian_coupling(rho: float) -> CouplingSpec:
    return CouplingSpec("gaussian", rho=float(rho))


def custom_coupling(copula_fn: Callable) -> CouplingSpec:
    return CouplingSpec("custom", copula_fn=copula_fn)


# ---------------------------------------------------------------------------
# partition and pair
# ---------------------------------------------------------------------------

E_LABEL = "E"
D_LABEL = "D"


@dataclass(frozen=True)
class Partition:
    """Breakpoints 0 = u_0 < ... < u_k = 1 with interval labels E or D."""

    breaks: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        b = self.breaks
        if len(b) < 2 or b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise ValidationError("partition breakpoints must satisfy 0 = u_0 < ... < u_k = 1")
        if len(self.labels) != len(b) - 1:
            raise ValidationError("partition needs one label per interval")
        if any(lab not in (E_LABEL, D_LABEL) for lab in self.labels):
            raise ValidationError("partition labels must be 'E' or 'D'")

    @staticmethod
    def all_E() -> "Partition":
        return Partition((0.0, 1.0), (E_LABEL,))

    @staticmethod
    def all_D() -> "Partition":
        return Partition((0.0, 1.0), (D_LABEL,))

    @property
    def is_all_E(self) -> bool:
        return all(lab == E_LABEL for lab in self.labels)

    @property
    def is_all_D(self) -> bool:
        return all(lab == D_LABEL for lab in self.labels)

    @property
    def has_D(self) -> bool:
        return D_LABEL in self.labels

    @property
    def has_E(self) -> bool:
        return E_LABEL in self.labels

    @property
    def left_label(self) -> str:
        return self.labels[0]

    @property
    def right_label(self) -> str:
        return self.labels[-1]

    def intervals(self, label: Optional[str] = None):
        out = []
        for k, lab in enumerate(self.labels):
            if label is None or lab == label:
                out.append((self.breaks[k], self.breaks[k + 1], lab))
        return out

    def mask(self, grid: np.ndarray, label: str) -> np.ndarray:
        """Membership of grid points, classified strictly by declared intervals."""
        grid = np.asarray(grid, dtype=float)
        out = np.zeros(grid.shape, dtype=bool)
        for lo, hi, _ in self.intervals(label):
            out |= (grid >= lo) & (grid < hi)
        if label == self.labels[-1]:
            out |= grid == 1.0
        return out


_E_ABS_TOL = 1e-10
_BREAK_ABS_TOL = 1e-8
_EDGE_INSET = 1e-9


@dataclass(frozen=True)
class PairSpec:
    """Two marginals, a coupling, and the declared agree/differ partition."""

    dist_x: DistSpec
    dist_y: DistSpec
    coupling: CouplingSpec
    partition: Partition

    def __post_init__(self):
        _validate_partition(self)

    def tau(self, u) -> np.ndarray:
        """Quantile difference F^{-1}(u) - G^{-1}(u)."""
        u = np.asarray(u, dtype=float)
        return np.asarray(self.dist_x.quantile(u), dtype=float) - np.asarray(
            self.dist_y.quantile(u), dtype=float)

    def fingerprint(self) -> str:
        cop = self.coupling.kind + (f"[{self.coupling.rho}]" if self.coupling.rho else "")
        part = ",".join(f"{b:.6g}" for b in self.partition.breaks) + "/" + "".join(self.partition.labels)
        return f"{self.dist_x.name}|{self.dist_y.name}|{cop}|{part}"


def _validate_partition(pair: PairSpec) -> None:
    part = pair.partition
    # interior breakpoints: quantiles must agree
    for u in part.breaks[1:-1]:
        gap = abs(float(pair.tau(u)))
        if gap > _BREAK_ABS_TOL:
            raise ValidationError(
                f"partition breakpoint u = {u}: |F^-1 - G^-1| = {gap:.3g} "
                f"exceeds {_BREAK_ABS_TOL:g} ((FG0))"
            )
    for lo, hi, lab in part.intervals():
        a = max(lo, _EDGE_INSET)
        b = min(hi, 1.0 - _EDGE_INSET)
        if lab == E_LABEL:
            us = np.linspace(a, b, 1000)
            worst = float(np.max(np.abs(pair.tau(us))))
            if worst > _E_ABS_TOL:
                raise ValidationError(
                    f"interval ({lo:g},{hi:g}) labeled E but |F^-1 - G^-1| reaches "
                    f"{worst:.3g} ((FG0))"
                )
        else:
            width = hi - lo
            us = np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 512)
            us = us[(us > _EDGE_INSET) & (us < 1 - _EDGE_INSET)]
            vals = np.abs(pair.tau(us))
            if np.any(vals == 0.0):
                at = us[np.argmin(vals)]
                raise ValidationError(
                    f"interval ({lo:g},{hi:g}) labeled D but the quantile difference "
                    f"vanishes at u = {at:.6g} ((FG0))"
                )


def equal_pair(dist: DistSpec, coupling: Optional[CouplingSpec] = None) -> PairSpec:
    """F = G pair (the whole of (0,1) is labeled E)."""
    return PairSpec(dist, dist, coupling or independent(), Partition.all_E())


def make_pair(dist_x: DistSpec, dist_y: DistSpec,
              coupling: Optional[CouplingSpec] = None,
              partition: Optional[Partition] = None) -> PairSpec:
    return PairSpec(dist_x, dist_y, coupling or independent(),
                    partition or Partition.all_D())


def bump_warp(amplitude: float, lo: float, hi: float):
    """Smooth bump sin^2(pi s) rescaled to (lo, hi); returns (warp, dwarp)."""
    width = hi - lo

    def warp(u):
        u = np.asarray(u, dtype=float)
        s = (u - lo) / width
        inside = (s > 0) & (s < 1)
        out = np.zeros_like(u)
        out[inside] = amplitude * np.sin(math.pi * s[inside]) ** 2
        return out

    def dwarp(u):
        u = np.asarray(u, dtype=float)
        s = (u - lo) / width
        inside = (s > 0) & (s < 1)
        out = np.zeros_like(u)
        out[inside] = (amplitude * math.pi / width) * np.sin(2 * math.pi * s[inside])
        return out

    return warp, dwarp


# ---------------------------------------------------------------------------
# sampling and quantile differences
# ---------------------------------------------------------------------------

def pair_uniforms(pair: PairSpec, n: int, seed: int):
    """The copula uniforms (U, V) behind ``sample_pairs(pair, n, seed)``: n
    draws of the coupling from the stream derive_rng(seed, "pairs",
    fingerprint, n). The one definition of that stream."""
    if n < 1:
        raise ValidationError("sample_pairs requires n >= 1")
    rng = derive_rng(int(seed), "pairs", pair.fingerprint(), int(n))
    return pair.coupling.sample_uv(int(n), rng)


def sample_pairs(pair: PairSpec, n: int, seed: int):
    """n aligned pairs: the marginal quantiles of ``pair_uniforms``.

    Deterministic given (pair, n, seed); byte-identical across runs and
    worker counts.
    """
    from .estimator import PairedSample

    u, v = pair_uniforms(pair, n, seed)
    xs = np.asarray(pair.dist_x.quantile(u), dtype=float)
    ys = np.asarray(pair.dist_y.quantile(v), dtype=float)
    return PairedSample(xs=xs, ys=ys, provenance="simulated")


def quantile_difference(pair: PairSpec, u) -> np.ndarray | float:
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile difference requires u in (0,1)")
    out = pair.tau(arr)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out
