"""Simulation of the coupled scaled Brownian-bridge limit laws.

The joint Gaussian process has per-marginal Brownian-bridge covariance
``min(u,v) - uv`` and cross covariance ``C(u,v) - uv`` where ``C`` is the
copula of the pair; the driving process is ``Bq(u) = B^X(u)/h_X(u) -
B^Y(u)/h_Y(u)``. ``build_bridge_grid`` factorizes that joint covariance in
one of two ways: the closed-form O(m) Markov factor L of each bridge
(independent, comonotone), or that L plus a truncated cross map
U diag(s) W^T of rank r <= m (every other copula), built from Mehler's
expansion (Gaussian copula of Cramer rank <= m) or by whitening the m x m
copula kernel. Limits are evaluated on a delta-clipped equispaced grid
by trapezoid quadrature of one path per draw of the one process the
functional reads (Bq, or B^X/h_X for the one-sample limit). A draw maps m
normals when that process is one linear map of them (B^X/h_X; Bq of a
comonotone pair, or of a pair with h_X = h_Y whose cross map is symmetric,
W = U) and 2m normals through both bridges otherwise. The normals come
from one stream, derive_rng(seed, "draws"), in blocks of 512 draws;
``iter_bridge_paths`` maps block i while one worker thread fills block
i + 1 in stream order, so the bytes do not depend on thread scheduling,
and holds one extra block of normals for it (2 MB at m = 511, 4 MB at
m = 1023). Each limit comes with a bound on what the clipping to
[delta, 1 - delta] leaves out: one routine, ``_edge_bound``, integrates
coef * w(u) sigma_bar(u)^b over each tail for the (coef, b, log w) terms
that the regime states, sigma_bar a pointwise bound on the standard
deviation of the process read.
``select_regime`` decides from the pair and the cost which limit theorem
applies; its ``REGIMES`` table gives each theorem's checker, rate,
centering, process read, limit functional and tail-bound terms of (pair, cost).
``Regime.draw`` is the one routine that draws a functional and bounds its
tail (0 for Bq on a degenerate grid); it does not run the checker,
``Regime.gate`` does.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .assumptions import (PASS, check_cfg_e, check_cfg_ed, check_compact,
                          check_pareto_dominance, check_w2_hypotheses)
from .costs import CostSpec, abs_moment_normal, derivative, rate_vn
from .distributions import LEFT, RIGHT, DistSpec, PairSpec, two_increasing
from .errors import (HypothesisError, NumericalError, TruncationError,
                     ValidationError)
from .seeding import derive_rng
from .tails import (CONVERGENT, assess_tail, depth_u, log_u_one_minus_u,
                    quantile_rule)

__all__ = [
    "BridgeGrid",
    "LimitDraws",
    "Regime",
    "REGIMES",
    "select_regime",
    "build_bridge_grid",
    "sigma2_D",
    "grid_mean_oracle_E",
    "grid_mean_oracle_W2",
]

DEFAULT_GRID = (2047, 1e-4)       # (m, delta) of the bridge grid
_FROBENIUS_RTOL = 1e-6
_DEGENERATE_VAR = 1e-12
_PROBE_SEED = 0            # fixed probe vectors of the factor residuals
_N_PROBES = 4
_BLOCK = 512               # draws per path block; the last block is zero-padded
# Cramer's bound a_k^2 <= 0.19/k on the Mehler features caps every entry of
# the dropped cross-covariance tail by 0.19 |rho|^(r+1) / ((r+1)(1-|rho|))
_CRAMER = 0.19
_MEHLER_TOL = 1e-16
_CROSS_TOL = 1e-10         # cross-map singular values kept: |s| > _CROSS_TOL max |s|
_UNIT_TOL = _FROBENIUS_RTOL  # |s| up to 1 + _UNIT_TOL is rounding, clamped to 1
_SYMMETRY_RTOL = 1e-12     # a copula kernel this close to its transpose is symmetric

FACTOR_CLOSED_FORM = "closed-form"   # O(m) factor, independent / comonotone
FACTOR_LOW_RANK = "low-rank"         # the same factor plus a rank-r cross map
RNG_SCHEME = "stream-v5"             # one derive_rng(seed, "draws") stream per call

READS_BQ = "Bq"          # the driving process B^X/h_X - B^Y/h_Y
READS_X = "B^X/h_X"      # the X bridge alone, scaled by its density-quantile

THEOREM_EQUAL = "equal"            # quantiles agree everywhere, rate v_n
THEOREM_QUADRATIC = "quadratic"    # b = 2 regime, rate n
THEOREM_GAUSSIAN = "gaussian"      # quantiles differ, sqrt(n) CLT
THEOREM_MIXED = "mixed"            # mixed partition, sqrt(n), shared path
THEOREM_ONE_SAMPLE = "one_sample"  # single marginal against its own law


@dataclass(frozen=True)
class BridgeGrid:
    """Factorized joint covariance of the two bridges on a clipped grid.

    ``factor`` holds ``coef`` of the Cholesky factor of the bridge kernel
    K(u,v) = min(u,v) - uv, L[k,j] = (1 - u_k) coef_j for j <= k, and
    B^X = L z_x. Two factor kinds:

    - closed-form (independent, comonotone): B^Y = L z_y with its own
      normals (independent) or is the X bridge itself (comonotone).
    - low-rank (every other copula): ``cross`` = (U, s, W, c), the whitened
      cross map L^{-1}(C(u,v) - uv)L^{-T} = U diag(s) W^T truncated at
      |s| > 1e-10 max |s|, with c = 1 - sqrt(1 - s^2), and
      B^Y = L(z_y + W(s * U^T z_x - c * W^T z_y)). W is U when the map is
      symmetric (Mehler features of a Gaussian copula, or a symmetric
      copula kernel); then, when h_X = h_Y, Bq = sqrt(2)/h L(z - U(c1 *
      U^T z)) from m normals z, c1 = 1 - sqrt(1 - s): (I - U c1 U^T)^2 =
      I - U s U^T, so its covariance 2 L(I - U s U^T) L^T / h^2 is that of
      (B^X - B^Y)/h. With no value kept (rho = 0) ``cross`` is None and
      B^Y takes its own normals.

    ``frobenius_rel_err`` is the probe residual: the largest relative
    residual on fixed probe vectors x of L L^T x against K x and of the
    rebuilt cross block against (C - uv) x (Mehler: A diag(rho^(k+1)) A^T x).
    Copula grids record ``rank``, the columns kept in ``cross``; a grid
    built from Mehler features records ``truncation_bound``, the Cramer
    bound on every entry of the dropped Mehler tail.
    """

    u: np.ndarray
    delta: float
    factor: np.ndarray           # coef of L, shape (m,)
    factor_kind: str             # FACTOR_CLOSED_FORM | FACTOR_LOW_RANK
    coupling: str
    h_x: np.ndarray
    h_y: np.ndarray
    weights: np.ndarray          # trapezoid weights on the grid
    var_bridge_diag: np.ndarray  # Var(Bq(u)) from the exact covariance
    frobenius_rel_err: float
    pair_fingerprint: str
    cross: Optional[tuple] = None             # low-rank: (U, s, W, c)
    rank: Optional[int] = None                # copula grids only
    truncation_bound: Optional[float] = None  # Mehler-built grids only

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def degenerate(self) -> bool:
        """True when the driving process is almost surely 0 on the grid."""
        return bool(np.max(self.var_bridge_diag) <= _DEGENERATE_VAR)

    def bridges(self, z: np.ndarray):
        """Map standard normals z of shape (2m, k) to the bridge blocks
        (B^X, B^Y), each of shape (m, k): the joint generator, which draws
        of Bq use where h_X and h_Y differ or W is not U (``_route``)."""
        m = self.m
        zx, zy = z[:m], z[m:]
        # z stays the caller's; the copies keep its memory order, on which the
        # bytes of the BLAS products downstream depend
        bx = _markov_bridge(self.u, self.factor, zx.copy(order="K"))
        if self.coupling == "comonotone":
            return bx, bx
        if self.cross is not None:
            U, s, W, c = self.cross
            zy = zy + W @ (s[:, None] * (U.T @ zx) - c[:, None] * (W.T @ zy))
        else:
            zy = zy.copy(order="K")
        return bx, _markov_bridge(self.u, self.factor, zy)

    def summary(self) -> dict:
        meta = {
            "m": self.m,
            "delta": self.delta,
            "factor": self.factor_kind,
            "rng": RNG_SCHEME,
            "frobenius_rel_err": self.frobenius_rel_err,
            "degenerate": self.degenerate,
            "pair": self.pair_fingerprint,
        }
        if self.rank is not None:
            meta["rank"] = self.rank
        if self.truncation_bound is not None:
            meta["truncation_bound"] = self.truncation_bound
        return meta


@dataclass(frozen=True)
class LimitDraws:
    """Seeded realizations of a limiting random variable."""

    values: np.ndarray
    theorem: str
    grid_meta: dict
    seed: int
    tail_bound: float

    @property
    def n_sim(self) -> int:
        return len(self.values)

    def upper_tail_p(self, statistic: float) -> float:
        """Add-one upper-tail probability (1 + #{draws >= s}) / (1 + N)."""
        if not math.isfinite(statistic):
            raise ValidationError(f"test statistic must be finite; got {statistic}")
        return (1.0 + float(np.sum(self.values >= statistic))) / (1.0 + self.n_sim)

    def quantiles(self, qs=(0.9, 0.95, 0.99)) -> dict:
        return {float(q): float(np.quantile(self.values, q)) for q in qs}


def build_bridge_grid(pair: PairSpec, m: int = DEFAULT_GRID[0],
                      delta: float = DEFAULT_GRID[1]) -> BridgeGrid:
    """Factorize the joint covariance of the two bridges on the
    delta-clipped equispaced grid.

    Every coupling gets the closed-form O(m) factor of the bridge kernel,
    checked by a probe residual. Every coupling but the independent and
    comonotone ones adds to it the cross map of ``_cross_map``: from the
    Mehler features of the smallest rank whose Cramer bound is below 1e-16
    (a Gaussian copula, when that rank is at most m), or else from the
    whitened m x m copula kernel; it is checked by a probe residual of the
    cross block and by the validity condition max |s| <= 1.
    """
    if m < 1:
        raise ValidationError("bridge grid requires m >= 1")
    _check_delta(delta, "bridge grid")
    u = np.linspace(delta, 1.0 - delta, m) if m >= 2 else np.array([0.5])

    h_x = np.asarray(pair.dist_x.density_quantile(u), dtype=float)
    h_y = np.asarray(pair.dist_y.density_quantile(u), dtype=float)
    for name, h in (("X", h_x), ("Y", h_y)):
        if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
            raise ValidationError(f"density-quantile of marginal {name} must be positive "
                                  "and finite on the grid")

    kind = pair.coupling.kind
    diag_k = u - u * u
    cross = rank = bound = None
    factor, resid = _closed_form_factor(u)
    if kind in ("independent", "comonotone"):
        factor_kind = FACTOR_CLOSED_FORM
        cross_diag = diag_k if kind == "comonotone" else np.zeros(m)
    else:
        factor_kind = FACTOR_LOW_RANK
        cross, cross_resid, cross_diag, bound = _cross_map(pair.coupling, u, factor)
        resid = max(resid, cross_resid)
        rank = 0 if cross is None else len(cross[1])

    if m >= 2:
        step = u[1] - u[0]
        weights = np.full(m, step)
        weights[0] = weights[-1] = step / 2.0
    else:
        weights = np.array([1.0 - 2.0 * delta])

    var_diag = diag_k / h_x ** 2 + diag_k / h_y ** 2 - 2.0 * cross_diag / (h_x * h_y)
    return BridgeGrid(
        u=u, delta=delta, factor=factor, factor_kind=factor_kind, coupling=kind,
        h_x=h_x, h_y=h_y, weights=weights,
        var_bridge_diag=np.maximum(var_diag, 0.0),
        frobenius_rel_err=resid,
        pair_fingerprint=pair.fingerprint(),
        cross=cross, rank=rank, truncation_bound=bound,
    )


def _check_delta(delta: float, what: str) -> None:
    """0 < delta < 1/2, with 1 - delta below 1 in floating point (below
    about 1.1e-16 it rounds to 1, where the bridge kernel vanishes)."""
    if not (0.0 < delta < 0.5 and 1.0 - delta < 1.0):
        raise ValidationError(f"{what} requires 0 < delta < 1/2 with 1 - delta < 1 in "
                              f"floating point; got delta = {delta!r}")


def _markov_bridge(u: np.ndarray, coef: np.ndarray, z: np.ndarray,
                   scale: Optional[np.ndarray] = None) -> np.ndarray:
    """L @ z for the closed-form factor L[k,j] = (1 - u_k) coef_j, j <= k,
    rows times ``scale`` when given. Computed in place: z is overwritten
    with the result and returned, so callers pass an array they own."""
    z *= coef[:, None]
    np.cumsum(z, axis=0, out=z)
    z *= ((1.0 - u) if scale is None else (1.0 - u) * scale)[:, None]
    return z


def _suffix_sums(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{j>=i} (1 - u_j) x_j; L^T x is coef times this."""
    return np.cumsum(((1.0 - u)[:, None] * x)[::-1], axis=0)[::-1]


def _kernel_apply(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x in O(n) for the bridge kernel K(u_i,u_j) = min(u_i,u_j) - u_i u_j
    on increasing nodes u, x of shape (n, k):
    (K x)_i = (1-u_i) sum_{j<=i} u_j x_j + u_i sum_{j>i} (1-u_j) x_j."""
    above = np.zeros_like(x)
    above[:-1] = _suffix_sums(u, x)[1:]
    return (1.0 - u)[:, None] * np.cumsum(u[:, None] * x, axis=0) + u[:, None] * above


def _probe_residual(got: np.ndarray, want: np.ndarray, what: str) -> float:
    """max over probe columns of ||got - want|| / ||want||, at most
    _FROBENIUS_RTOL."""
    resid = float(np.max(np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)))
    if not resid <= _FROBENIUS_RTOL:
        raise NumericalError(f"{what} reproduces the covariance to {resid:.3g} "
                             f"> {_FROBENIUS_RTOL:g} (probe residual)")
    return resid


def _probes(m: int) -> np.ndarray:
    return np.random.default_rng(_PROBE_SEED).standard_normal((m, _N_PROBES))


def _closed_form_factor(u: np.ndarray):
    """Cholesky factor of K(u_i,u_j) = u_i (1 - u_j), u_i <= u_j: with
    s = u/(1-u), coef_j^2 = s_j - s_{j-1} (s_{-1} = 0), written without the
    cancellation. Returns (coef, probe residual)."""
    prev = np.concatenate(([0.0], u[:-1]))
    coef = np.sqrt((u - prev) / ((1.0 - u) * (1.0 - prev)))

    x = _probes(len(u))
    llt_x = _markov_bridge(u, coef, coef[:, None] * _suffix_sums(u, x))
    return coef, _probe_residual(llt_x, _kernel_apply(u, x), "closed-form factor")


def _mehler_rank(rho: float, max_rank: int):
    """(r, bound): the smallest rank r <= max_rank whose Cramer bound on the
    dropped Mehler terms is below _MEHLER_TOL, or (None, None)."""
    a = abs(rho)
    r = np.arange(max_rank + 1)
    bound = _CRAMER * a ** (r + 1) / ((r + 1) * (1.0 - a))
    ok = np.flatnonzero(bound < _MEHLER_TOL)
    return (int(ok[0]), float(bound[ok[0]])) if ok.size else (None, None)


def _mehler_features(u: np.ndarray, rank: int) -> np.ndarray:
    """A[:, k] = phi(z) He_k(z) / sqrt((k+1)!), z = Phi^{-1}(u), so that
    C(u,v) - uv = sum_k rho^(k+1) A[u, k] A[v, k] (Mehler's expansion).
    phi(z) He_k(z) / sqrt(k!) comes from the normalized three-term
    recursion g_{k+1} = (z g_k - sqrt(k) g_{k-1}) / sqrt(k+1)."""
    z = ndtri(u)
    A = np.empty((len(u), rank))
    g_prev, g = np.zeros_like(z), np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    for k in range(rank):
        A[:, k] = g / math.sqrt(k + 1.0)
        g, g_prev = (z * g - math.sqrt(k) * g_prev) / math.sqrt(k + 1.0), g
    return A


def _whiten(u: np.ndarray, coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L^{-1} y, O(m) a column: undo the (1 - u) scaling, then the cumsum."""
    return np.diff(y / (1.0 - u)[:, None], axis=0, prepend=0.0) / coef[:, None]


def _cross_map(coupling, u: np.ndarray, coef: np.ndarray):
    """((U, s, W, c) or None, probe residual, C(u,u) - u^2, Cramer bound or
    None): M = L^{-1}(C(u,v) - uv)L^{-T} = U diag(s) W^T, truncated at
    |s| > _CROSS_TOL max |s|, c = 1 - sqrt(1 - s^2). A Gaussian copula of
    Mehler rank r <= m has M = V D V^T, V = L^{-1} A, D = diag(rho^(k+1)):
    QR of V, eigh of R D R^T. Any other copula whitens its m x m kernel:
    eigh((M + M^T)/2) when the kernel is symmetric to rounding (W is U),
    else an SVD; a copula that is not 2-increasing on the grid raises
    ValidationError. Valid iff
    max |s| <= 1: up to 1 + _UNIT_TOL, rounding clamped to 1; past it,
    NumericalError."""
    r = bound = None
    if coupling.kind == "gaussian":
        r, bound = _mehler_rank(coupling.rho, len(u))
    x = _probes(len(u))
    if r is not None:
        A = _mehler_features(u, r)
        d = coupling.rho ** np.arange(1.0, r + 1.0)
        Q, R = np.linalg.qr(_whiten(u, coef, A))
        s, P = np.linalg.eigh((R * d) @ R.T)
        U = W = Q @ P
        cross_diag, want = coupling.copula(u, u) - u * u, A @ (d[:, None] * (A.T @ x))
    else:
        kernel = np.asarray(coupling.copula(u[:, None], u[None, :]), dtype=float)
        if not two_increasing(kernel):
            name = getattr(coupling.copula_fn, "__name__", coupling.kind)
            raise ValidationError(f"copula {name!r} is not 2-increasing on the {len(u)}-point "
                                  "bridge grid, so it is not a copula")
        kernel -= np.outer(u, u)
        cross_diag, want = np.diag(kernel).copy(), kernel @ x
        M = _whiten(u, coef, _whiten(u, coef, kernel).T).T
        if np.max(np.abs(kernel - kernel.T)) <= _SYMMETRY_RTOL * np.max(np.abs(kernel)):
            s, U = np.linalg.eigh((M + M.T) / 2.0)
            W = U
        else:
            U, s, Wt = np.linalg.svd(M)
            W = Wt.T
    keep = np.abs(s) > _CROSS_TOL * np.max(np.abs(s), initial=0.0)
    if not keep.any():
        return None, 0.0, cross_diag, bound
    symmetric = W is U
    U, s = U[:, keep], s[keep]
    W = U if symmetric else W[:, keep]
    if not np.max(np.abs(s)) <= 1.0 + _UNIT_TOL:
        raise NumericalError(f"cross map has max |s| = {np.max(np.abs(s)):.17g} > "
                             f"1 + {_UNIT_TOL:g}; the joint bridge covariance is not valid")
    s = np.clip(s, -1.0, 1.0)
    c = s * s / (1.0 + np.sqrt((1.0 - s) * (1.0 + s)))

    lt_x = coef[:, None] * _suffix_sums(u, x)
    got = _markov_bridge(u, coef, U @ (s[:, None] * (W.T @ lt_x)))
    return (U, s, W, c), _probe_residual(got, want, "cross map"), cross_diag, bound


def _route(grid: BridgeGrid, reads: str):
    """(normals per draw, map of a (width, k) normal block to the (m, k)
    block of the process ``reads``).

    A process that is one linear map of m normals takes m: B^X/h_X = L z/h_X
    on any grid; Bq = (1/h_X - 1/h_Y) L z for a comonotone coupling; and,
    when h_X = h_Y to the bit and the cross map is symmetric (W is U),
    Bq = sqrt(2)/h L(z - U(c1 * U^T z)), c1 = 1 - sqrt(1 - s), which is
    sqrt(2) L z / h for an independent pair and rho = 0 (no cross map).
    Bq on a degenerate grid is 0 and takes none. Any other Bq (unequal h,
    or W not U) maps 2m normals through ``grid.bridges``.
    """
    m, u, factor, h_x, h_y = grid.m, grid.u, grid.factor, grid.h_x, grid.h_y
    if reads == READS_X:
        return m, lambda z: _markov_bridge(u, factor, z, 1.0 / h_x)
    if grid.degenerate:
        return 0, lambda z: np.zeros((m, z.shape[1]))
    if grid.coupling == "comonotone":
        scale = 1.0 / h_x - 1.0 / h_y
    elif np.array_equal(h_x, h_y) and (grid.cross is None or grid.cross[2] is grid.cross[0]):
        scale = math.sqrt(2.0) / h_x
        if grid.cross is not None:
            U, s, _, _ = grid.cross
            c1 = s / (1.0 + np.sqrt(1.0 - s))   # 1 - sqrt(1 - s) without cancellation
            # U^T zero-padded to a multiple of 64 columns: both products then write a
            # contiguous side (k = 512, padded m), which kept OpenBLAS bytes thread-independent
            u_t = np.zeros((len(s), -(-m // 64) * 64))
            u_t[:, :m] = U.T

            def driving(z):
                y = ((c1[:, None] * (U.T @ z)).T @ u_t).T[:m]   # column-major, like z
                return _markov_bridge(u, factor, np.subtract(z, y, out=y), scale)
            return m, driving
    else:
        def driving(z):
            bx, by = grid.bridges(z)
            return bx / h_x[:, None] - by / h_y[:, None]
        return 2 * m, driving
    return m, lambda z: _markov_bridge(u, factor, z, scale)


def iter_bridge_paths(grid: BridgeGrid, n_sim: int, seed: int, reads: str):
    """Yield (paths, block) of the process ``reads`` in draw order: ``paths``
    of shape (m, k), k <= 512, is the first k columns of ``block``, the
    (m, 512) array they were mapped in.

    Every draw comes from one generator, derive_rng(seed, "draws"), read
    in row-major order at the route's width w (``_route``: m where the
    process is one linear map of m normals, 2m where it needs both
    bridges, 0 on a degenerate grid): draw j takes normals wj .. w(j+1) - 1
    of the stream. Every block, the last one zero-padded to 512 draws, is
    mapped at the same shape, so draw j is bit-identical for every
    n_sim > j (BLAS products are not bit-stable across column counts) and,
    on one grid, for every BLAS thread count.

    While block i is mapped, one worker thread fills block i + 1's normals
    (numpy releases the GIL while it fills). The first block is filled
    before the worker starts and only one fill is in flight at a time, so
    the stream is read in the same order whatever the thread scheduling,
    and the bytes do not depend on it. One extra (512, w) block of normals
    is held for it: 2 MB at m = 511, 4 MB at m = 1023. The worker starts
    only for a call of more than one block and is joined when the
    iteration ends, is closed early or raises.
    """
    width, to_paths = _route(grid, reads)
    rng = derive_rng(seed, "draws")
    sizes = [min(_BLOCK, n_sim - start) for start in range(0, n_sim, _BLOCK)]

    def fill(z: np.ndarray, k: int) -> np.ndarray:
        """The next k draws of the stream in z's first k rows, zeros after."""
        rng.standard_normal(out=z[:k])
        z[k:] = 0.0
        return z

    # blocks are allocated on this thread: a worker that allocates them gets
    # a malloc arena of its own, which raised the peak RSS by about 10 MB
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for i, k in enumerate(sizes):
            z = fill(np.empty((_BLOCK, width)), k) if pending is None else pending.result()
            pending = (worker.submit(fill, np.empty((_BLOCK, width)), sizes[i + 1])
                       if i + 1 < len(sizes) else None)
            block = to_paths(z.T)
            del z   # the normals, when the route maps them into a new array
            yield block[:, :k], block


def _collect(grid: BridgeGrid, n_sim: int, seed: int, reads: str,
             functional) -> np.ndarray:
    """functional(block) of every path block of the process ``reads``, in
    draw order; the last block is reduced zero-padded to full width, like
    its paths."""
    out = np.empty(n_sim)
    done = 0
    for paths, block in iter_bridge_paths(grid, n_sim, seed, reads):
        k = paths.shape[1]
        out[done:done + k] = functional(block)[:k]
        done += k
    return out


# ---------------------------------------------------------------------------
# truncated-tail bounds
# ---------------------------------------------------------------------------

def _log_sigma_bar(pair: PairSpec, side: str, ts: np.ndarray, reads: str) -> np.ndarray:
    """log of a pointwise upper bound on the standard deviation of the process
    ``reads`` at tail depth t: sqrt(u(1-u)) (1/h_X + 1/h_Y) for Bq,
    sqrt(u(1-u))/h_X for B^X/h_X."""
    log_inv_h = -np.asarray(pair.dist_x.log_density_at_depth(side, ts), dtype=float)
    if reads == READS_BQ:
        log_inv_h = np.logaddexp(
            log_inv_h, -np.asarray(pair.dist_y.log_density_at_depth(side, ts), dtype=float))
    return 0.5 * log_u_one_minus_u(ts) + log_inv_h


def _edge_bound(pair: PairSpec, delta: float, reads: str, terms: dict) -> float:
    """Bound on what the clipped grid [delta, 1 - delta] leaves out of a
    limit functional of the process ``reads``: the sum over the tails, and
    over the terms (coef, b, log_w) that ``terms[side]`` lists for a tail, of

        coef * int_tail w(u) sigma_bar(u)^b du,

    sigma_bar the bound of ``_log_sigma_bar`` and log w = log_w(t) at tail
    depth t (w = 1 when log_w is None). Terms of one tail with the same
    (b, log_w) are summed and integrated once by ``assess_tail``; the bound
    is inf unless every integral converges. A weighted term is probed on 60
    points to depth min(t0 + 30, 36), t0 = log(1/delta): its weight reads
    tau at u itself, and 1 - u falls below one ulp of 1 past depth 36.7.
    An unweighted term is probed to depth 1e6."""
    t0 = -math.log(delta)
    bound = 0.0
    for side, side_terms in terms.items():
        merged = {}
        for coef, b, log_w in side_terms:
            if coef:
                merged[b, log_w] = merged.get((b, log_w), 0.0) + coef
        for (b, log_w), coef in merged.items():
            probes = {} if log_w is None else dict(t_hi=min(t0 + 30.0, 36.0), n=60)

            def log_g(ts, side=side, b=b, log_w=log_w):
                log_f = b * _log_sigma_bar(pair, side, ts, reads) - ts
                return log_f if log_w is None else log_f + log_w(ts)

            assessment = assess_tail(log_g, t0, **probes)
            bound += coef * assessment.total if assessment.verdict == CONVERGENT else math.inf
    return bound


def _terms_E(cost: CostSpec) -> tuple:
    """The equal-marginals functional per branch: pi E 1_{sign} |N|^b <=
    pi m_b/2 sigma^b."""
    return tuple((pi * abs_moment_normal(b) / 2.0, b, None)
                 for pi, b in ((cost.pi_minus, cost.b_minus), (cost.pi_plus, cost.b_plus)))


def _terms_ED(pair: PairSpec, cost: CostSpec, side: str) -> tuple:
    """The sqrt(n) limit: E|rho'(tau) N| sigma on a D-labeled tail; the
    b = 1 branches' L_pm(0) m_1/2 sigma on an E-labeled one."""
    m1 = abs_moment_normal(1.0)
    label = pair.partition.left_label if side == LEFT else pair.partition.right_label
    if label == "E":
        return tuple((L0 * m1 / 2.0, 1.0, None) for L0, b in
                     ((cost.L0_minus, cost.b_minus), (cost.L0_plus, cost.b_plus)) if b == 1.0)

    def log_w(ts):
        tau = pair.tau(np.clip(depth_u(side, ts), 1e-300, 1.0 - 1e-16))
        w = np.abs(derivative(cost, np.where(tau == 0.0, 1e-300, tau)))
        return np.log(np.maximum(w, 1e-300))
    return ((m1, 1.0, log_w),)


# ---------------------------------------------------------------------------
# limit functionals: (pair, cost, grid) -> reduction of one (m, k) block
# of the process the regime reads
# ---------------------------------------------------------------------------

def _functional_E(pair: PairSpec, cost: CostSpec, grid: BridgeGrid):
    """pi_- int 1_{Bq<0} |Bq|^{b_-} + pi_+ int 1_{Bq>0} |Bq|^{b_+}."""
    w = grid.weights

    def functional(bq):
        # powers masked in place, sharing one array when b_- = b_+; on finite
        # values bit-identical to w @ np.where(bq < 0, |bq|^{b_-}, 0) etc.
        absq = np.abs(bq)
        pow_plus = absq if cost.b_plus == cost.b_minus else absq ** cost.b_plus
        absq **= cost.b_minus
        minus = w @ (absq * (bq < 0))
        pow_plus *= bq > 0
        return cost.pi_minus * minus + cost.pi_plus * (w @ pow_plus)
    return functional


def _functional_W2(pair: PairSpec, cost: Optional[CostSpec], grid: BridgeGrid):
    """int Bq(u)^2 du."""
    return lambda bq: grid.weights @ (bq ** 2)


def _functional_ED(pair: PairSpec, cost: CostSpec, grid: BridgeGrid):
    """The sqrt(n) limit of a partition with D-labeled intervals:

    int_D rho'(tau) Bq du
      + 1_{b_-=1} L_-(0) int_E 1_{Bq<0} |Bq| du
      + 1_{b_+=1} L_+(0) int_E 1_{Bq>0} |Bq| du  (the last two only when b = 1).

    For b > 1 the agreement region contributes nothing at this rate and
    only the Gaussian term remains.
    """
    w_d = _weight_fn(pair, cost, grid.u) * grid.weights
    e_mask = pair.partition.mask(grid.u, "E")
    w_e = grid.weights * e_mask

    def functional(bq):
        vals = w_d @ bq
        if cost.b == 1.0 and e_mask.any():
            absq = np.abs(bq)
            if cost.b_minus == 1.0:
                vals = vals + cost.L0_minus * (w_e @ np.where(bq < 0, absq, 0.0))
            if cost.b_plus == 1.0:
                vals = vals + cost.L0_plus * (w_e @ np.where(bq > 0, absq, 0.0))
        return vals
    return functional


def _functional_one_sample(pair: PairSpec, cost: CostSpec, grid: BridgeGrid):
    """int |B^X(u)/h(u)|^p du for the X marginal, p = cost.b (any coupling:
    the X marginal is a standard bridge)."""
    def functional(bx):
        absx = np.abs(bx)
        absx **= cost.b
        return grid.weights @ absx
    return functional


# ---------------------------------------------------------------------------
# regimes: the limit theorem that a (pair, cost) falls under
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """One limit theorem: whether it ``applies(pair, cost)``, its checker
    ``check(pair, cost)``, the ``rate(n, cost)`` of the statistic, whether
    that is ``centred`` at W(F, G), the process it ``reads`` (READS_BQ or
    READS_X), its limit ``functional(pair, cost, grid)`` of that process and
    the ``edge_terms(pair, cost, side)`` of its truncated-tail bound: the
    (coef, b, log_w) terms that ``_edge_bound`` integrates over each tail
    the delta-clipped grid leaves out; one_sample's exponent p is cost.b."""

    label: str
    applies: Callable
    check: Callable
    rate: Callable
    centred: bool
    reads: str
    functional: Callable
    edge_terms: Callable

    def gate(self, pair: PairSpec, cost: Optional[CostSpec], override: bool = False,
             what: Optional[str] = None) -> tuple:
        """Run the checker once: a verdict other than pass raises
        HypothesisError, or with ``override`` becomes the returned note."""
        report = self.check(pair, cost)
        if report.verdict == PASS:
            return ()
        if not override:
            raise HypothesisError(
                f"{report.condition} checker did not pass ({report.verdict}) for "
                f"{what or _describe(pair, cost)}; fix the configuration or override "
                "the check")
        return (f"checker {report.condition} = {report.verdict} (overridden)",)

    def draw(self, pair: PairSpec, cost: Optional[CostSpec], grid: BridgeGrid, n_sim: int,
             seed: int, tail_frac: Optional[float]) -> LimitDraws:
        """n_sim unchecked draws of this theorem's functional on ``grid``,
        with the tail bound (0 for Bq on a degenerate grid, where it
        vanishes); given ``tail_frac``, the bound must stay below that share
        of the median |draw|, else TruncationError."""
        if n_sim < 1:
            raise ValidationError(f"limit draws require n_sim >= 1; got {n_sim}")
        values = _collect(grid, n_sim, seed, self.reads,
                          self.functional(pair, cost, grid))
        if self.reads == READS_BQ and grid.degenerate:
            bound = 0.0
        else:
            bound = _edge_bound(pair, grid.delta, self.reads,
                                {side: self.edge_terms(pair, cost, side)
                                 for side in (LEFT, RIGHT)})
        if tail_frac is not None:
            med = float(np.median(np.abs(values)))
            if not math.isfinite(bound) or bound > tail_frac * max(med, 1e-300):
                raise TruncationError(
                    f"truncated-tail bound {bound:.3g} exceeds {tail_frac:.0%} of the median "
                    f"draw {med:.3g}; shrink delta below {grid.delta:g} or relax tail_frac")
        meta = dict(grid.summary(), normals_per_draw=_route(grid, self.reads)[0])
        return LimitDraws(values, self.label, meta, seed, bound)

    def simulate(self, pair: PairSpec, cost: Optional[CostSpec], grid_shape: tuple,
                 n_sim: int, seed: int, tail_frac: Optional[float]) -> LimitDraws:
        """Unchecked draws on a fresh (m, delta) grid."""
        return self.draw(pair, cost, build_bridge_grid(pair, *grid_shape), n_sim, seed,
                         tail_frac)


def _describe(pair: PairSpec, cost: Optional[CostSpec]) -> str:
    return pair.fingerprint() + (f" with {cost.name}" if cost is not None else "")


def _bounded(dist: DistSpec) -> bool:
    return all(math.isfinite(x) for x in dist.support)


def _is_quadratic_near_zero(cost: CostSpec) -> bool:
    """b = 2 on both branches with unit slowly varying factor near 0."""
    if cost.b_minus != 2.0 or cost.b_plus != 2.0:
        return False
    x = np.asarray(1e-4 * cost.x0)
    return (abs(float(cost.rho_plus(x)) / float(x) ** 2 - 1.0) < 1e-6
            and abs(float(cost.rho_minus(x)) / float(x) ** 2 - 1.0) < 1e-6)


def _finite_L0(cost: CostSpec) -> bool:
    """L_pm(0) finite on each branch of index 1 ((Lpi))."""
    return all(L0 is not None and math.isfinite(L0) for b, L0 in
               ((cost.b_minus, cost.L0_minus), (cost.b_plus, cost.L0_plus)) if b == 1.0)


def _check_equal(pair: PairSpec, cost: CostSpec):
    if _bounded(pair.dist_x):
        return check_compact(pair.dist_x, cost, max(cost.b_minus, cost.b_plus) + 0.5)
    return check_cfg_e(pair.dist_x, cost)


def _check_one_sample(pair: PairSpec, cost: Optional[CostSpec]):
    if cost is None or cost.params.get("family") != "power_p" or not 1.0 <= cost.b < 2.0:
        raise ValidationError("the one-sample limit requires a power cost |x|^p, "
                              f"1 <= p < 2; got {cost and cost.name}")
    p = cost.b
    return check_pareto_dominance(pair.dist_x, 2.0 * (p + 2.0) / (2.0 - p))


# Checkers and ``_edge_bound`` are called through their module-level names,
# looked up at call time, so a wrapper set on such a name sees every call.
REGIMES = {r.label: r for r in (
    Regime(THEOREM_EQUAL,
           lambda pair, cost: pair.partition.is_all_E and (_bounded(pair.dist_x)
                                                           or cost.b < 2.0),
           _check_equal, lambda n, cost: rate_vn(cost, n), False,
           READS_BQ, _functional_E, lambda pair, cost, side: _terms_E(cost)),
    Regime(THEOREM_QUADRATIC,
           lambda pair, cost: (pair.partition.is_all_E and not _bounded(pair.dist_x)
                               and _is_quadratic_near_zero(cost)),
           lambda pair, cost: check_w2_hypotheses(pair.dist_x),
           lambda n, cost: float(n), False, READS_BQ, _functional_W2,
           lambda pair, cost, side: ((1.0, 2.0, None),)),
    Regime(THEOREM_GAUSSIAN,
           lambda pair, cost: pair.partition.has_D and (
               cost.b > 1.0 or (cost.b == 1.0 and pair.partition.is_all_D)),
           lambda pair, cost: check_cfg_ed(pair, cost),
           lambda n, cost: math.sqrt(n), True,
           READS_BQ, _functional_ED, _terms_ED),
    Regime(THEOREM_MIXED,
           lambda pair, cost: (pair.partition.has_D and pair.partition.has_E
                               and cost.b == 1.0 and _finite_L0(cost)),
           lambda pair, cost: check_cfg_ed(pair, cost),
           lambda n, cost: math.sqrt(n), True,
           READS_BQ, _functional_ED, _terms_ED),
    # chosen only by its label
    Regime(THEOREM_ONE_SAMPLE, lambda pair, cost: False, _check_one_sample,
           lambda n, cost: n ** (cost.b / 2.0), False, READS_X, _functional_one_sample,
           lambda pair, cost, side: ((abs_moment_normal(cost.b), cost.b, None),)),
)}


def select_regime(pair: PairSpec, cost: Optional[CostSpec],
                  theorem: Optional[str] = None) -> Regime:
    """The limit theorem that the pair and the cost fall under. A given
    ``theorem`` label must name it; ``one_sample`` is chosen only by its
    label. A mismatched label, or a pair and cost that no theorem covers,
    raise ValidationError."""
    if theorem == THEOREM_ONE_SAMPLE:
        return REGIMES[theorem]
    derived = next((r for r in REGIMES.values() if r.applies(pair, cost)), None)
    if derived is None:
        raise ValidationError(
            f"no limit theorem covers {_describe(pair, cost)}: agreement everywhere "
            "needs bounded support, b < 2 or a cost quadratic near 0; disagreement "
            "needs b > 1, or b = 1 with a finite L_pm(0)")
    if theorem is not None and theorem != derived.label:
        raise ValidationError(f"theorem {theorem!r} does not match {_describe(pair, cost)},"
                              f" which is {derived.label!r} (one of {tuple(REGIMES)})")
    return derived


# ---------------------------------------------------------------------------
# grid oracles (deterministic expectations of the simulated functionals)
# ---------------------------------------------------------------------------

def bridge_cov_kernel(pair: PairSpec, us: np.ndarray, vs: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Cov(Bq(u), Bq(v)) assembled from the four covariance blocks, the
    cross blocks C(u,v) - uv read from the coupling's copula (exactly 0 for
    an independent pair and the bridge kernel for a comonotone one)."""
    us = np.asarray(us, dtype=float)
    same = vs is None
    vs = us if same else np.asarray(vs, dtype=float)
    hx_u = np.asarray(pair.dist_x.density_quantile(us), dtype=float)
    hy_u = np.asarray(pair.dist_y.density_quantile(us), dtype=float)
    hx_v = np.asarray(pair.dist_x.density_quantile(vs), dtype=float)
    hy_v = np.asarray(pair.dist_y.density_quantile(vs), dtype=float)
    uv = np.outer(us, vs)
    K = np.minimum.outer(us, vs) - uv
    cross_uv = pair.coupling.copula(us[:, None], vs[None, :]) - uv
    # with vs = us, C(v_j, u_i) is cross_uv[j, i]: one copula evaluation
    cross_vu = cross_uv.T if same else pair.coupling.copula(vs[:, None], us[None, :]).T - uv
    return (K / np.outer(hx_u, hx_v) + K / np.outer(hy_u, hy_v)
            - cross_uv / np.outer(hx_u, hy_v) - cross_vu / np.outer(hy_u, hx_v))


def grid_mean_oracle_E(pair: PairSpec, cost: CostSpec, grid: BridgeGrid) -> float:
    """E of the equal-marginals functional on the grid: the sum over its
    edge terms (coef, b) of coef * sigma(u)^b under the exact pointwise
    variance."""
    sd = np.sqrt(grid.var_bridge_diag)
    return sum(coef * float(grid.weights @ sd ** b) for coef, b, _ in _terms_E(cost))


def grid_mean_oracle_W2(pair: PairSpec, grid: BridgeGrid) -> float:
    return float(grid.weights @ grid.var_bridge_diag)


# ---------------------------------------------------------------------------
# sigma^2 of the sqrt(n) CLT: kernel quadrature
# ---------------------------------------------------------------------------

def _weight_fn(pair: PairSpec, cost: CostSpec, us: np.ndarray) -> np.ndarray:
    """rho'(tau(u)) on D-labeled points, 0 elsewhere and where tau = 0
    (the quantiles cross there, and rho' is undefined)."""
    w = np.zeros_like(us)
    d = np.flatnonzero(pair.partition.mask(us, "D"))
    if d.size:
        tau = pair.tau(us[d])
        w[d[tau != 0.0]] = derivative(cost, tau[tau != 0.0])
    return w


def _kernel_quadrature(pair: PairSpec, us: np.ndarray, wv: np.ndarray) -> float:
    """wv^T Cov(Bq(u_i), Bq(u_j)) wv on increasing nodes us. With a = wv/h_X
    and b = wv/h_Y it is a^T K a + b^T K b - 2 a^T C b, K the bridge kernel
    applied in O(n) and C the cross covariance C(u,v) - uv: 0 (independent),
    K (comonotone) or the Mehler features of a Gaussian copula, O(n r), when
    a rank r <= n suffices. Any other copula uses the dense kernel."""
    kind = pair.coupling.kind
    rank = None
    if kind == "gaussian":
        rank, _ = _mehler_rank(pair.coupling.rho, len(us))
    if kind not in ("independent", "comonotone") and rank is None:
        return float(wv @ bridge_cov_kernel(pair, us) @ wv)
    a = wv / np.asarray(pair.dist_x.density_quantile(us), dtype=float)
    b = wv / np.asarray(pair.dist_y.density_quantile(us), dtype=float)
    ka, kb = _kernel_apply(us, np.column_stack((a, b))).T
    if kind == "independent":
        cross = 0.0
    elif kind == "comonotone":
        cross = a @ kb
    else:
        A = _mehler_features(us, rank)
        cross = (A.T @ a) @ (pair.coupling.rho ** np.arange(1.0, rank + 1.0) * (A.T @ b))
    return float(a @ ka + b @ kb - 2.0 * cross)


def sigma2_D(pair: PairSpec, cost: CostSpec, delta: float = 1e-6,
             mc_m: int = 1023, mc_n: int = 40000) -> float:
    """Variance of int_D rho'(tau) Bq du, computed with no random draws and
    no bridge grid: ``tails.quantile_rule`` over [delta, 1 - delta], split
    at the partition breakpoints, of the weighted covariance kernel of the
    true pair, a quadratic form applied in O(n) (independent, comonotone),
    O(n r) (Gaussian copula of Mehler rank r <= n) or through the dense
    kernel (other copulas); clamped at 0, the value of a degenerate coupling.
    ``mc_m`` and ``mc_n`` are accepted and ignored: the call form of the
    perfbench ``Power`` workload still passes them.
    """
    if not pair.partition.has_D:
        raise ValidationError("sigma2_D requires a partition with a D-labeled interval")
    _check_delta(delta, "sigma2_D")
    us, ws = quantile_rule(delta, 1.0 - delta, pair.partition.breaks)
    return max(_kernel_quadrature(pair, us, _weight_fn(pair, cost, us) * ws), 0.0)
