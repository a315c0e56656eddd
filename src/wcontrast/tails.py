"""Tail-integral machinery in tail-depth coordinates.

Improper integrals of the form ``int_0^s0 phi(s) ds`` (``s`` = distance to
an endpoint of (0,1)) are handled after the substitution ``t = log(1/s)``:
the integrand becomes ``g(t) = s * phi(s)`` and

* convergence of the original integral is equivalent to integrability of
  ``g`` at +infinity;
* for the tail families arising here ``g`` is regularly varying in ``t``,
  so the local log-log slope separates convergent (exponent ``q > 1``),
  divergent (``q < 1`` or growth) and borderline cases;
* evaluation stays stable arbitrarily deep in the tail because all inputs
  are supplied in log scale (no quantile or survival value ever underflows).

The integral routines take ``log_g``: a vectorized callable of the depth
``t`` returning ``log g(t)`` (``-inf`` allowed). ``bisect_floats`` is the
package's one inverse of monotone functions (tail positions, the log-cost),
and ``quantile_rule`` its one quadrature rule for integrals over (0, 1);
``kink_rule`` replaces its Gauss-Legendre nodes on a panel that ends at a
power-law corner of the integrand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logit, roots_jacobi, roots_legendre

LEFT = "-"     # tail sides: u -> 0 and u -> 1
RIGHT = "+"

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

# q = 1 is the exact boundary (g ~ 1/t integrates to log); require a
# clear margin before declaring convergence.
_EXPONENT_MARGIN = 0.05


@dataclass(frozen=True)
class TailAssessment:
    verdict: str
    exponent: float           # local exponent q of g(t) ~ t^(-q) at the far end
    integral: float           # numeric integral of g over the probed range
    remainder: float          # power-law extrapolation beyond the probed range
    t_range: tuple[float, float]

    @property
    def total(self) -> float:
        return self.integral + self.remainder


def _finite_probe_range(log_g, t_lo: float, t_hi: float, n: int):
    """Log-spaced probes, trimmed to where log_g evaluates finite or -inf."""
    ts = np.geomspace(t_lo, t_hi, n)
    vals = np.asarray(log_g(ts), dtype=float)
    ok = ~np.isnan(vals) & (vals < np.inf)
    if not ok.any():
        return ts[:0], vals[:0]
    # keep the longest valid prefix: deep-tail NaN/inf means "not evaluable"
    idx = np.nonzero(~ok)[0]
    cut = idx[0] if idx.size else len(ts)
    return ts[:cut], vals[:cut]


def local_exponent(ts: np.ndarray, log_vals: np.ndarray) -> float:
    """-d log g / d log t by least squares over the deepest probes."""
    finite = np.isfinite(log_vals)
    ts, log_vals = ts[finite], log_vals[finite]
    if len(ts) < 4:
        # g vanished identically (or almost): decays faster than any power
        return np.inf
    k = max(4, len(ts) // 3)
    x = np.log(ts[-k:])
    y = log_vals[-k:]
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


def assess_tail(log_g, t_lo: float, t_hi: float = 1e6, n: int = 160) -> TailAssessment:
    """Classify and integrate ``g`` over ``[t_lo, +inf)``.

    The probe range is trimmed where ``log_g`` stops being evaluable
    (bounded supports saturate in float well before ``t_hi``); the verdict
    is formed from the deepest usable decade.
    """
    ts, vals = _finite_probe_range(log_g, t_lo, t_hi, n)
    if len(ts) < 8:
        return TailAssessment(INCONCLUSIVE, np.nan, np.nan, np.nan, (t_lo, t_lo))
    q = local_exponent(ts, vals)
    if np.isnan(q):
        verdict = INCONCLUSIVE
    elif q > 1.0 + _EXPONENT_MARGIN:
        verdict = CONVERGENT
    else:
        verdict = DIVERGENT

    # trapezoid in t on the log-spaced probes
    g = np.exp(np.clip(vals, -745.0, 700.0))
    g[~np.isfinite(vals)] = 0.0
    with np.errstate(over="ignore"):
        integral = float(np.trapezoid(g, ts))

    if verdict == CONVERGENT and np.isfinite(q) and g[-1] > 0:
        remainder = float(g[-1] * ts[-1] / (q - 1.0))
    elif verdict == CONVERGENT:
        remainder = 0.0
    else:
        remainder = np.inf
    return TailAssessment(verdict, q, integral, remainder, (float(ts[0]), float(ts[-1])))


def probe_grid(t_lo: float, t_hi: float, n: int = 160) -> np.ndarray:
    return np.geomspace(t_lo, t_hi, n)


def depth_u(side: str, t) -> np.ndarray:
    """u at tail depth t: exp(-t) on the left, 1 - exp(-t) on the right."""
    t = np.asarray(t, dtype=float)
    return np.exp(-t) if side == LEFT else -np.expm1(-t)


def log_u_one_minus_u(t):
    """log u(1 - u) at tail depth t, the same on either side."""
    return np.log1p(-np.exp(-t)) - t


def _float_key(x) -> np.ndarray:
    """int64 keys ordered like the doubles ``x`` (both zeros map to 0)."""
    i = np.array(x, dtype=float).view(np.int64)
    return np.where(i >= 0, i, -(i & np.iinfo(np.int64).max))


def _key_float(k: np.ndarray) -> np.ndarray:
    return np.where(k >= 0, k, -k | np.iinfo(np.int64).min).view(float)


def bisect_floats(pred, lo, hi) -> np.ndarray:
    """Smallest double in ``(lo, hi]`` at which ``pred`` holds, elementwise.

    ``pred`` maps doubles to booleans and must be False and then True along
    each element's interval; ``lo`` and ``hi`` broadcast against its
    values. Where it never holds the result is ``hi``. ``pred`` is evaluated
    in ``[lo, hi)`` only, at ``lo`` just for elements already settled (their
    values there are ignored), and at ``hi`` only where ``lo == hi``. The
    bisection runs on the ordered integer keys of the doubles, so it needs
    no bracket search, makes at most 64 calls of ``pred`` and is exact to
    one ulp at any magnitude.
    """
    a, b = np.broadcast_arrays(_float_key(lo), _float_key(hi))
    while True:
        # key gaps across the whole double range exceed int64, not uint64
        open_ = (b.view(np.uint64) - a.view(np.uint64)) > 1
        if not open_.any():
            return _key_float(b)
        mid = (a >> 1) + (b >> 1) + (a & b & 1)
        holds = np.asarray(pred(_key_float(mid)), dtype=bool)
        a = np.where(open_ & ~holds, mid, a)
        b = np.where(open_ & holds, mid, b)


GL16 = roots_legendre(16)
# panel width in s = logit(u): 16 Gauss-Legendre nodes on a panel this wide
# integrate an integrand analytic in s to rounding; the diagonal kink of the
# bridge kernel leaves sigma2_D an O(width^2) error, about 1e-5 relative
_PANEL_WIDTH = 0.25


def logit_panels(lo: float, hi: float, breaks=()):
    """Panel ends in ``s = logit(u)`` over ``[lo, hi]``, and each panel's piece.

    The breakpoints inside ``(lo, hi)`` cut the range into pieces; each
    piece is cut evenly into panels no wider than ``_PANEL_WIDTH``. Returns
    the increasing ends (one more than the panels) and, per panel, the index
    of its piece.
    """
    cuts = np.asarray(breaks, dtype=float)
    cuts = logit(np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]]))
    widths = np.diff(cuts)
    counts = np.ceil(widths / _PANEL_WIDTH).astype(int)
    piece = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(piece)) - np.repeat(np.cumsum(counts) - counts, counts)
    ends = cuts[piece] + k * (widths / counts)[piece]
    return np.append(ends, cuts[-1]), piece


def logit_nodes(a, b, nodes, weights):
    """``(u, w)`` of shape (panels, nodes) for the rule ``(nodes, weights)`` on
    [-1, 1] mapped to each panel ``[a, b]`` in ``s``; ``w`` carries the
    Jacobian ``du/ds = u (1 - u)``. Both come from ``e = exp(-|s|)``, as
    ``u (1 - u) = e / (1 + e)^2`` and ``u = exp(min(s, 0)) / (1 + e)``, so
    neither loses digits near 0 or 1 (and two ``exp`` cost less than two
    ``expit``)."""
    half = (0.5 * (np.asarray(b) - a))[:, None]
    s = 0.5 * (np.asarray(b) + a)[:, None] + half * nodes
    e = np.exp(-np.abs(s))
    r = 1.0 / (1.0 + e)
    return np.exp(np.minimum(s, 0.0)) * r, half * weights * (e * r * r)


def quantile_rule(lo: float, hi: float, breaks=()):
    """Increasing nodes ``u`` and weights ``w`` with ``w @ g(u)`` the integral
    of ``g`` over ``[lo, hi]``, exact to rounding for ``g`` analytic in
    ``logit(u)`` between breakpoints: 16-node Gauss-Legendre panels graded
    in ``logit(u)`` (``logit_panels``), which resolve integrands that blow
    up at either end of (0, 1) with a fixed number of nodes per decade."""
    ends, _ = logit_panels(lo, hi, breaks)
    u, w = logit_nodes(ends[:-1], ends[1:], *GL16)
    return u.ravel(), w.ravel()


@functools.lru_cache(maxsize=8)
def kink_rule(p: float):
    """16-node Gauss-Jacobi rule for int_{-1}^{1} (1 + t)^p g(t) dt, with the
    weights divided by (1 + t_j)^p so it applies to the plain integrand: it
    integrates a |s - s*|^p corner at the left end of a panel to rounding
    (negate the nodes for a corner at the right end)."""
    nodes, weights = roots_jacobi(16, 0.0, p)
    weights = weights / (1.0 + nodes) ** p
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def stabilized_running_max(values: np.ndarray, depth: np.ndarray, rel_tol: float = 0.01):
    """Running max of ``values`` by increasing tail depth ``t = -log s``.

    Returns (sup, stabilized): stabilized means the running max grew by
    less than ``rel_tol`` (relative) over the deepest decade of the probed
    tail mass, i.e. over ``t in [t_max - log 10, t_max]``.
    """
    order = np.argsort(depth)
    d = depth[order]
    v = values[order]
    run = np.maximum.accumulate(v)
    sup = float(run[-1])
    if not np.isfinite(sup):
        return sup, False
    before = run[d <= d[-1] - math.log(10.0)]
    if len(before) == 0:
        return sup, False
    prev = float(before[-1])
    if sup == 0.0:
        return sup, True
    growth = (sup - prev) / max(abs(sup), 1e-300)
    return sup, bool(growth < rel_tol)
