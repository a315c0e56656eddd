import ast
import inspect
import math
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import wcontrast as wc
from wcontrast import limitlaw, tails
from wcontrast.distributions import bvn_cdf
from wcontrast.errors import HypothesisError, NumericalError, TruncationError, ValidationError
from wcontrast.harness import ExperimentConfig, run_clt_study
from wcontrast.limitlaw import (READS_BQ, READS_X, bridge_cov_kernel, grid_mean_oracle_E,
                                grid_mean_oracle_W2, iter_bridge_paths)
from wcontrast.seeding import derive_rng
from wcontrast.tails import quantile_rule


@pytest.fixture(scope="module")
def gauss_grid(gauss_equal_pair):
    return wc.build_bridge_grid(gauss_equal_pair, m=255, delta=1e-4)


def _bridge_blocks(grid, n_sim, seed, block=4000):
    """(B^X, B^Y) of n_sim draws through ``grid.bridges``, ``block`` draws
    at a time; draw j from normals 2mj .. 2m(j+1) - 1 of
    derive_rng(seed, "draws")."""
    rng = derive_rng(seed, "draws")
    for start in range(0, n_sim, block):
        z = rng.standard_normal((min(block, n_sim - start), 2 * grid.m))
        yield grid.bridges(z.T)


def _bridges(grid, n_sim, seed):
    """``_bridge_blocks`` in one block."""
    return next(_bridge_blocks(grid, n_sim, seed, n_sim))


def test_grid_geometry(gauss_grid):
    g = gauss_grid
    assert g.m == 255
    assert g.u[0] == pytest.approx(1e-4)
    assert g.u[-1] == pytest.approx(1 - 1e-4)
    assert np.all(np.diff(g.u) > 0)
    assert g.weights.sum() == pytest.approx(g.u[-1] - g.u[0])


def test_factor_reproduces_covariance(gauss_grid):
    assert gauss_grid.frobenius_rel_err <= 1e-6


def test_single_point_grid_variance(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=1, delta=0.01)
    assert grid.u[0] == 0.5
    vals = _bridges(grid, 20000, seed=1)[0][0]
    assert vals.var() == pytest.approx(0.25, rel=0.05)


def _generator_factor(grid):
    """The 2m x 2m factor the path generator applies, from the unit vectors."""
    return np.vstack(grid.bridges(np.eye(2 * grid.m)))


def _dense_cholesky(pair, grid):
    """Cholesky factor of the 2m x 2m joint covariance, computed densely: the
    oracle of every factor kind.

    A comonotone Sigma = [[K, K], [K, K]] is singular: its Schur complement
    is 0, so its exact factor is [[C, 0], [C, 0]] with C = chol(K). Any
    other copula factorizes [[K, X], [X^T, K]], X = C(u,v) - uv, escalating
    diagonal jitter through 0, 1e-12, 1e-10, 1e-8 until Cholesky succeeds."""
    u, m = grid.u, grid.m
    K = np.minimum.outer(u, u) - np.outer(u, u)
    zero = np.zeros_like(K)
    if pair.coupling.kind == "independent":
        return np.linalg.cholesky(np.block([[K, zero], [zero, K]]))
    if pair.coupling.kind == "comonotone":
        C = np.linalg.cholesky(K)
        factor = np.block([[C, zero], [C, zero]])
        assert np.allclose(factor @ factor.T, np.block([[K, K], [K, K]]), rtol=0, atol=1e-14)
        return factor
    cross = np.asarray(pair.coupling.copula(u[:, None], u[None, :])) - np.outer(u, u)
    sigma = np.block([[K, cross], [cross.T, K]])
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(2 * m))
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("the joint covariance has no Cholesky factor at jitter 1e-8")


@pytest.mark.parametrize("m", [1, 32, 511])
@pytest.mark.parametrize("which", ["independent", "comonotone-bump"])
def test_closed_form_paths_equal_dense_cholesky(m, which, gauss_equal_pair,
                                                bump_pair_comonotone):
    pair = gauss_equal_pair if which == "independent" else bump_pair_comonotone
    grid = wc.build_bridge_grid(pair, m=m, delta=1e-4)
    assert grid.summary()["factor"] == "closed-form"
    z = np.random.default_rng(m).standard_normal((2 * m, 8))
    dense = _dense_cholesky(pair, grid) @ z
    closed = np.vstack(grid.bridges(z))
    assert np.linalg.norm(closed - dense) <= 1e-10 * np.linalg.norm(dense)


def test_summary_records_factor_and_rng(gauss_equal_pair):
    pairs = {
        "closed-form": gauss_equal_pair,
        "mehler": wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.5)),
        "kernel": wc.equal_pair(wc.gaussian(), wc.custom_coupling(_gauss_copula(0.5))),
        "kernel svd": wc.equal_pair(wc.gaussian(), wc.custom_coupling(_marshall_olkin(0.5, 0.3))),
    }
    metas = {}
    for name, pair in pairs.items():
        grid = wc.build_bridge_grid(pair, m=128, delta=1e-3)
        meta = metas[name] = grid.summary()
        assert meta["factor"] == ("closed-form" if name == "closed-form" else "low-rank")
        assert meta["rng"] == "stream-v5"
        assert "jitter" not in meta
        assert meta["frobenius_rel_err"] <= 1e-6
        # every copula grid records the columns its cross map keeps; only a
        # grid built from Mehler features has a Cramer truncation bound
        assert meta.get("rank", -1) == (-1 if grid.cross is None else len(grid.cross[1]))
        assert ("truncation_bound" in meta) == (name == "mehler")
        # h_X = h_Y: Bq draws read m normals unless the cross map is not
        # symmetric (W is not U)
        draws = wc.REGIMES["equal"].draw(pair, wc.power_cost(1.5), grid, 10, 0, None)
        assert draws.grid_meta["normals_per_draw"] == (256 if name == "kernel svd" else 128)
    assert 0 < metas["mehler"]["rank"] <= 46
    assert 0.0 < metas["mehler"]["truncation_bound"] < 1e-16
    assert 0 < metas["kernel"]["rank"] < 128


def _gauss_copula(rho):
    """The Gaussian copula as a plain callable, for the whitened-kernel route."""
    return lambda u, v: bvn_cdf(stats.norm.ppf(u), stats.norm.ppf(v), rho)


def _clayton(theta):
    def copula(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            return (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)
    return copula


def _fgm(theta):
    def copula(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))
    return copula


def _marshall_olkin(a, b):
    """C(u, v) = min(u^(1-a) v, u v^(1-b)): a singular part, not exchangeable."""
    def copula(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.minimum(u ** (1.0 - a) * v, u * v ** (1.0 - b))
    return copula


def _dense_sigma(grid, rho):
    """The 2m x 2m joint covariance, its cross block from Owen's T."""
    u = grid.u
    K = np.minimum.outer(u, u) - np.outer(u, u)
    z = stats.norm.ppf(u)
    cross = bvn_cdf(z[:, None], z[None, :], rho) - np.outer(u, u)
    return np.block([[K, cross], [cross.T, K]])


# the Mehler rank whose Cramer bound first drops below 1e-16
MEHLER_RANKS = {0.5: 46, -0.7: 89, 0.9: 301}


@pytest.mark.parametrize("m", [1, 2, 32, 511])
@pytest.mark.parametrize("rho", [0.5, -0.7, 0.9])
def test_gaussian_copula_sigma_matches_owens_t(rho, m):
    pair = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(rho))
    grid = wc.build_bridge_grid(pair, m=m, delta=1e-4)
    # Mehler features up to rank m, else the whitened Owen's T kernel
    assert (grid.truncation_bound is not None) == (MEHLER_RANKS[rho] <= m)
    factor = _generator_factor(grid)
    sigma = _dense_sigma(grid, rho)
    assert np.linalg.norm(factor @ factor.T - sigma) <= 1e-12 * np.linalg.norm(sigma)
    cross_diag = np.diag(sigma[:m, m:])
    var_q = (2.0 * (grid.u - grid.u ** 2) - 2.0 * cross_diag) / grid.h_x ** 2
    assert np.allclose(grid.var_bridge_diag, var_q, rtol=1e-12, atol=0.0)


def test_gaussian_copula_rank_rule():
    for rho, rank in MEHLER_RANKS.items():
        pair = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(rho))
        grid = wc.build_bridge_grid(pair, m=1023, delta=1e-4)
        # the Mehler features of the Cramer rank, then the cross map's
        # values above 1e-10 of the largest: far fewer columns
        tail = 0.19 * abs(rho) ** (rank + 1) / ((rank + 1) * (1 - abs(rho)))
        assert grid.truncation_bound == pytest.approx(tail, rel=1e-12)
        assert tail < 1e-16 <= 0.19 * abs(rho) ** rank / (rank * (1 - abs(rho)))
        U, s, W, _ = grid.cross
        assert W is U and grid.factor_kind == "low-rank"
        assert grid.rank == len(s) < rank
        assert np.min(np.abs(s)) > 1e-10 * np.max(np.abs(s))
        assert np.allclose(U.T @ U, np.eye(grid.rank), rtol=0, atol=1e-12)
        # the generator's covariance on probe vectors, against the dense one
        factor = _generator_factor(grid)
        x = np.random.default_rng(1).standard_normal((2 * grid.m, 4))
        want = _dense_sigma(grid, rho) @ x
        assert np.linalg.norm(factor @ (factor.T @ x) - want) <= 1e-12 * np.linalg.norm(want)


def test_gaussian_copula_rho_zero_is_independent(gauss_equal_pair):
    pair = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.0))
    grid = wc.build_bridge_grid(pair, m=64, delta=1e-3)
    ref = wc.build_bridge_grid(gauss_equal_pair, m=64, delta=1e-3)
    assert (grid.factor_kind, grid.rank, grid.cross) == ("low-rank", 0, None)
    assert grid.truncation_bound == 0.0
    z = np.random.default_rng(3).standard_normal((128, 40))
    for got, want in zip(grid.bridges(z), ref.bridges(z)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rho", [0.999, -0.999])
def test_gaussian_copula_near_unit_rho_whitens_the_kernel(rho):
    # the Cramer rank is far above m: the whitened Owen's T kernel, a
    # symmetric cross map with |s| < 1, rebuilds the cross block
    pair = wc.make_pair(wc.gaussian(), wc.gaussian(1, 1), wc.gaussian_coupling(rho))
    grid = wc.build_bridge_grid(pair, m=64, delta=1e-3)
    U, s, W, _ = grid.cross
    assert (grid.factor_kind, grid.truncation_bound) == ("low-rank", None)
    assert W is U and grid.rank == len(s) <= 64
    assert 0.99 < np.max(np.abs(s)) < 1.0
    factor = _generator_factor(grid)
    sigma = _dense_sigma(grid, rho)
    assert np.linalg.norm(factor @ factor.T - sigma) <= 1e-12 * np.linalg.norm(sigma)
    draws = wc.REGIMES["gaussian"].draw(pair, wc.power_cost(2), grid, 600, 5, None)
    assert np.all(np.isfinite(draws.values))


def test_low_rank_and_dense_copula_draws_agree_in_distribution():
    # the Mehler-built cross map (rank 16 of 46 features) against draws of
    # the dense 2m x 2m Cholesky factor of the same grid
    pair, cost = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.5)), wc.power_cost(1.5)
    grid = wc.build_bridge_grid(pair, m=255, delta=1e-4)
    assert (grid.factor_kind, grid.rank) == ("low-rank", 16)
    vals = wc.REGIMES["equal"].draw(pair, cost, grid, 4000, 31, None).values
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - grid_mean_oracle_E(pair, cost, grid)) <= 4.0 * se
    ref = _dense_draws(pair, cost, grid, 4000, 32)
    assert stats.ks_2samp(vals, ref).pvalue > 1e-3


def _dense_draws(pair, cost, grid, n, seed, label="equal"):
    """n draws of the regime's Bq functional through the dense Cholesky factor."""
    factor = _dense_cholesky(pair, grid)
    functional = wc.REGIMES[label].functional(pair, cost, grid)
    z = np.random.default_rng(seed).standard_normal((2 * grid.m, n))
    return functional(_process(grid, READS_BQ, *np.split(factor @ z, 2)))


def test_default_gaussian_copula_grid_is_low_rank(monkeypatch):
    # the Mehler route evaluates the copula on the diagonal only: no m x m
    # kernel is assembled, and no grid array has m^2 entries
    shapes = []
    copula = wc.CouplingSpec.copula
    monkeypatch.setattr(wc.CouplingSpec, "copula",
                        lambda self, u, v: shapes.append(np.shape(u)) or copula(self, u, v))
    pair = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.5))
    grid = wc.build_bridge_grid(pair)
    m = grid.m
    assert shapes == [(m,)]
    assert (m, grid.factor_kind) == (2047, "low-rank")
    assert 0 < grid.rank <= 46
    arrays = [grid.u, grid.factor, grid.h_x, grid.h_y, grid.weights,
              grid.var_bridge_diag, *grid.cross]
    assert max(a.size for a in arrays) <= m * grid.rank
    bx, by = _bridges(grid, 3, seed=1)
    assert bx.shape == by.shape == (m, 3)


def test_cross_block_independent_and_comonotone(gauss_equal_pair):
    m = 32
    grid = wc.build_bridge_grid(gauss_equal_pair, m=m, delta=1e-3)
    factor = _generator_factor(grid)
    sigma = factor @ factor.T
    assert np.allclose(sigma[:m, m:], 0.0, atol=1e-9)
    pair_c = wc.equal_pair(wc.gaussian(), wc.comonotone())
    grid_c = wc.build_bridge_grid(pair_c, m=m, delta=1e-3)
    factor_c = _generator_factor(grid_c)
    sigma_c = factor_c @ factor_c.T
    bridge = np.minimum.outer(grid_c.u, grid_c.u) - np.outer(grid_c.u, grid_c.u)
    assert np.allclose(sigma_c[:m, m:], bridge, atol=1e-8)


def test_comonotone_equal_paths_coincide():
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    grid = wc.build_bridge_grid(pair, m=64, delta=1e-3)
    assert grid.degenerate
    bx, by = _bridges(grid, 50, seed=9)
    assert np.array_equal(bx, by)


def test_independent_cross_correlation_near_zero(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=33, delta=1e-3)
    i = 16   # u = 0.5
    bx, by = _bridges(grid, 10000, seed=21)
    r = np.corrcoef(bx[i], by[i])[0, 1]
    assert abs(r) <= 0.03


def test_marginal_normality_moments(gauss_grid):
    bx, _ = _bridges(gauss_grid, 10000, seed=34)
    for i in (10, 127, 240):
        u = gauss_grid.u[i]
        vals = bx[i]
        assert abs(stats.skew(vals)) < 0.1
        assert abs(stats.kurtosis(vals)) < 0.2
        assert vals.var() == pytest.approx(u * (1 - u), rel=0.03)


def test_variance_bound_on_driving_bridge():
    # Var(B^X(u) - B^Y(u)) <= 4 min(u, 1-u) for every coupling
    for coup in (wc.independent(), wc.comonotone(), wc.gaussian_coupling(-0.7)):
        pair = wc.equal_pair(wc.gaussian(), coup)
        grid = wc.build_bridge_grid(pair, m=65, delta=1e-3)
        var_bridge = grid.var_bridge_diag * grid.h_x ** 2   # unscale by h
        bound = 4.0 * np.minimum(grid.u, 1 - grid.u)
        assert np.all(var_bridge <= bound + 1e-9)


def test_kernel_evaluates_copula_once():
    # Marshall-Olkin copula: C(u, v) != C(v, u)
    calls = []

    def marshall_olkin(u, v):
        calls.append(1)
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.minimum(u ** 0.7 * v, u * v ** 0.2)

    pair = wc.make_pair(wc.gaussian(), wc.gaussian(1, 2), wc.custom_coupling(marshall_olkin),
                        wc.Partition.all_D())
    us = np.linspace(0.01, 0.99, 40)
    calls.clear()
    kernel = bridge_cov_kernel(pair, us)
    assert len(calls) == 1
    # the kernel from two evaluations of the copula
    hx = pair.dist_x.density_quantile(us)
    hy = pair.dist_y.density_quantile(us)
    K = np.minimum.outer(us, us) - np.outer(us, us)
    uv = np.outer(us, us)
    cross_uv = marshall_olkin(us[:, None], us[None, :]) - uv
    cross_vu = marshall_olkin(us[:, None], us[None, :]).T - uv
    assert not np.allclose(cross_uv, cross_vu)
    two_eval = (K / np.outer(hx, hx) + K / np.outer(hy, hy)
                - cross_uv / np.outer(hx, hy) - cross_vu / np.outer(hy, hx))
    assert np.max(np.abs(kernel - two_eval)) <= 1e-15 * np.max(np.abs(two_eval))


@pytest.mark.parametrize("given_vs", [False, True])
@pytest.mark.parametrize("kind", ["independent", "comonotone"])
def test_bridge_cov_kernel_reads_structured_copulas_exactly(kind, given_vs):
    # C - uv from the copula is exactly 0 (independent) or the bridge kernel
    # (comonotone), so the kernel is the four blocks written out
    coupling = wc.independent() if kind == "independent" else wc.comonotone()
    pair = wc.make_pair(wc.gaussian(), wc.weibull(3.0), coupling)
    us = np.linspace(0.01, 0.99, 37)
    vs = np.linspace(0.02, 0.97, 23) if given_vs else us
    hx_u, hx_v = pair.dist_x.density_quantile(us), pair.dist_x.density_quantile(vs)
    hy_u, hy_v = pair.dist_y.density_quantile(us), pair.dist_y.density_quantile(vs)
    K = np.minimum.outer(us, vs) - np.outer(us, vs)
    cross = K if kind == "comonotone" else np.zeros_like(K)
    want = (K / np.outer(hx_u, hx_v) + K / np.outer(hy_u, hy_v)
            - cross / np.outer(hx_u, hy_v) - cross / np.outer(hy_u, hx_v))
    got = bridge_cov_kernel(pair, us, vs if given_vs else None)
    assert np.array_equal(got, want)


def test_kernel_symmetry_psd(gauss_shift_pair):
    us = np.linspace(0.01, 0.99, 60)
    K = bridge_cov_kernel(gauss_shift_pair, us)
    assert np.allclose(K, K.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_draw_limit_E_mean_oracle(gauss_equal_pair):
    # symmetric b = 1 cost: E int |Bq| = sqrt(2/pi) int sd(u) du over the grid
    grid = wc.build_bridge_grid(gauss_equal_pair, m=511, delta=1e-4)
    cost = wc.power_cost(1)
    draws = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, 5000, 4, None)
    oracle = grid_mean_oracle_E(gauss_equal_pair, cost, grid)
    hand = math.sqrt(2 / math.pi) * float(
        grid.weights @ (math.sqrt(2) * np.sqrt(grid.u * (1 - grid.u)) / grid.h_x))
    assert oracle == pytest.approx(hand, rel=1e-12)
    assert draws.values.mean() == pytest.approx(oracle, rel=0.03)


def test_draw_limit_E_symmetric_power_is_plain_integral(gauss_equal_pair):
    # pi_pm = 1 and equal branch indices: the functional is int |Bq|^p
    grid = wc.build_bridge_grid(gauss_equal_pair, m=127, delta=1e-3)
    cost = wc.power_cost(1.5)
    draws = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, 64, 5, None)
    vals = []
    for bq, _ in iter_bridge_paths(grid, 64, 5, READS_BQ):
        vals.append(grid.weights @ np.abs(bq) ** 1.5)
    assert np.allclose(np.concatenate([v for v in vals]), draws.values)


def test_draw_limit_W2_uniform_third(gauss_equal_pair):
    pair = wc.equal_pair(wc.uniform())
    grid = wc.build_bridge_grid(pair, m=511, delta=1e-4)
    draws = wc.REGIMES["quadratic"].draw(pair, None, grid, 5000, 6, None)
    assert grid_mean_oracle_W2(pair, grid) == pytest.approx(1 / 3, rel=1e-3)
    assert draws.values.mean() == pytest.approx(1 / 3, rel=0.03)


def test_draw_limit_W2_checker_blocks_gaussian(gauss_equal_pair):
    with pytest.raises(HypothesisError, match="W2H"):
        wc.REGIMES["quadratic"].gate(gauss_equal_pair, None)


def test_draw_limit_one_sample_uniform_mean():
    dist = wc.uniform()
    pair = wc.equal_pair(dist)
    grid = wc.build_bridge_grid(pair, m=511, delta=1e-4)
    draws = wc.REGIMES["one_sample"].draw(pair, wc.power_cost(1.0), grid, 5000, 8, None)
    expected = math.sqrt(2 / math.pi) * math.pi / 8
    assert draws.values.mean() == pytest.approx(expected, rel=0.02)
    assert np.all(draws.values > 0)


def test_draw_limit_one_sample_gaussian_p15_finite_positive(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=255, delta=1e-4)
    one_sample = wc.REGIMES["one_sample"]
    cost = wc.power_cost(1.5)
    assert one_sample.gate(gauss_equal_pair, cost) == ()
    draws = one_sample.draw(gauss_equal_pair, cost, grid, 500, 9, None)
    assert np.all(np.isfinite(draws.values))
    assert np.all(draws.values > 0)


def test_one_sample_delta_stability():
    # shrinking delta changes the mean by less than the sum of tail bounds
    dist = wc.uniform()
    pair = wc.equal_pair(dist)
    means, bounds = [], []
    for delta in (1e-3, 1e-4):
        grid = wc.build_bridge_grid(pair, m=1023, delta=delta)
        draws = wc.REGIMES["one_sample"].draw(pair, wc.power_cost(1.0), grid, 20000, 10,
                                              None)
        means.append(draws.values.mean())
        bounds.append(draws.tail_bound)
    assert abs(means[0] - means[1]) <= sum(bounds) + 3e-3   # MC noise allowance


def test_draw_limit_ED_mixed_shape(bump_pair_comonotone):
    grid = wc.build_bridge_grid(bump_pair_comonotone, m=511, delta=1e-4)
    cost = wc.power_cost(1)
    draws = wc.REGIMES["mixed"].draw(bump_pair_comonotone, cost, grid, 4000, 11, None)
    # comonotone: E-part vanishes, D-part is int_D Bq with variance Var(bump(U))
    var_expected = 0.15 ** 2 * 0.3 * 0.375 - 0.0225 ** 2
    assert draws.values.mean() == pytest.approx(0.0, abs=0.01)
    assert draws.values.var() == pytest.approx(var_expected, rel=0.08)


def test_draw_limit_ED_reduces_to_E_for_same_seed(gauss_equal_pair):
    # all-E partition, b = 1, L(0) = 1: the mixed dispatcher must reproduce
    # the equal-marginals draws exactly (shared path machinery)
    grid = wc.build_bridge_grid(gauss_equal_pair, m=255, delta=1e-4)
    cost = wc.power_cost(1)
    a = wc.REGIMES["mixed"].draw(gauss_equal_pair, cost, grid, 256, 12, None)
    b = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, 256, 12, None)
    assert np.allclose(a.values, b.values, rtol=1e-12)


def test_draw_limit_ED_gaussian_term_variance(gauss_shift_pair):
    # all-D partition with 1 < b < 2: draws are Gaussian with variance sigma2_D
    grid = wc.build_bridge_grid(gauss_shift_pair, m=511, delta=1e-4)
    cost = wc.power_cost(1.5)
    draws = wc.REGIMES["gaussian"].draw(gauss_shift_pair, cost, grid, 5000, 13, None)
    # |rho'(-1)| = 1.5; sigma^2 = 1.5^2 * 2 * Var-type Hoeffding integral = 4.5
    assert draws.values.var() == pytest.approx(1.5 ** 2 * 2.0, rel=0.08)
    assert stats.kstest(draws.values, stats.norm(0, 1.5 * math.sqrt(2)).cdf).statistic < 0.03


def test_draw_limit_ED_signed_weight_crossing_pair():
    # N(0,1) vs N(0,2): tau = -Phi^{-1}(u) changes sign at u = 1/2 (a grid
    # node at m = 1023, where tau = 0 and rho' is undefined); the draws have
    # the variance of int rho'(tau) Bq, not of int |rho'(tau)| Bq
    pair = wc.make_pair(wc.gaussian(0, 1), wc.gaussian(0, 2))
    cost = wc.power_cost(2)
    draws = wc.REGIMES["gaussian"].simulate(pair, cost, (1023, 1e-4), 4000, 5, None)
    assert draws.values.var() == pytest.approx(wc.sigma2_D(pair, cost), rel=0.05)


def test_mixed_study_signed_weight():
    # independent bump pair with pinball(0.1): tau < 0 on D and L_-(0) != L_+(0),
    # so the sign of the D term matters; the study statistics must match the
    # draws in law (KS below the alpha = 1e-3 two-sample critical value)
    warp, dwarp = wc.bump_warp(0.15, 0.2, 0.5)
    base = wc.gaussian()
    pair = wc.PairSpec(base, wc.warped_dist(base, warp, dwarp, (0.2, 0.5)), wc.independent(),
                       wc.Partition((0.0, 0.2, 0.5, 1.0), ("E", "D", "E")))
    config = ExperimentConfig(pair=pair, cost=wc.pinball_cost(0.1), theorem="mixed",
                              n=2000, replications=300, seed=11, grid_m=255, n_sim=2000)
    res = run_clt_study(config)
    r, k = len(res.statistics), res.draws.n_sim
    crit = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) * math.sqrt((r + k) / (r * k))
    assert res.ks_distance < crit
    ratio = np.std(res.draws.values, ddof=1) / np.std(res.statistics, ddof=1)
    assert 0.85 <= ratio <= 1.15


def test_grid_refinement_stability():
    # doubling m moves the mean by < 1% when the edge integrand is bounded
    # (compact-support built-ins); heavy edge spikes converge more slowly
    cost = wc.power_cost(1.5)
    for dist in (wc.uniform(), wc.beta_dist(2, 2)):
        pair = wc.equal_pair(dist)
        means = []
        for m in (255, 511):
            grid = wc.build_bridge_grid(pair, m=m, delta=1e-4)
            draws = wc.REGIMES["equal"].draw(pair, cost, grid, 100_000, 14, None)
            means.append(draws.values.mean())
        assert abs(means[1] / means[0] - 1) < 0.01, dist.name


def test_truncation_error_raised_when_bound_large():
    # Weibull(3) quadratic functional: over a third of the edge-integrability
    # mass sits beyond any feasible clip, so the 5% contract must trip
    pair = wc.equal_pair(wc.weibull(3.0))
    grid = wc.build_bridge_grid(pair, m=255, delta=1e-4)
    with pytest.raises(TruncationError, match="shrink delta"):
        wc.REGIMES["quadratic"].draw(pair, None, grid, 200, 15, tail_frac=0.05)


# Each regime's truncated-tail bound at delta = 1e-4, as the four per-regime
# bound routines gave it before ``_edge_bound`` replaced them:
# (regime, pair, cost, bound). "asym" has pi = (0, 1); the one-sample
# regime reads its exponent p from the power cost.
_EDGE_BOUNDS = [
    ("equal", "gaussian", "power(1.5)", 0.19468767717791627),
    ("equal", "beta", "power(2.5)", 6.581932057383901e-05),
    ("equal", "weibull", "power(1.5)", 0.015928166495814654),
    ("equal", "weibull", "pinball(0.3)", 0.0017848018754245472),
    ("equal", "gaussian", "asym", 0.019845530609135197),
    ("quadratic", "weibull", "power(2)", 0.6384087782587794),
    ("one_sample", "gaussian", "power(1.5)", 0.06883248837298102),
    ("one_sample", "weibull", "power(1)", 0.001249361312797183),
    ("one_sample", "beta", "power(1.5)", 2.8032916038518553e-05),
    ("gaussian", "shift", "power(2)", 0.02930822979103715),
    ("gaussian", "shift", "power(1.5)", 0.021981172343277865),
    ("mixed", "bump", "power(1)", 0.014877913798365332),
    ("mixed", "bump", "pinball(0.3)", 0.007438956899182664),
]
_EDGE_COSTS = {
    "power(1)": lambda: wc.power_cost(1.0),
    "power(1.5)": lambda: wc.power_cost(1.5),
    "power(2)": lambda: wc.power_cost(2.0),
    "power(2.5)": lambda: wc.power_cost(2.5),
    "pinball(0.3)": lambda: wc.pinball_cost(0.3),
    "asym": lambda: wc.asymmetric_power_cost((1.0, 1.0), (2.0, 1.2)),
}


def _edge_id(row) -> str:
    # one-sample rows keep the ids they had when p was a column of its own
    label, pair_name, cost_name = row[:3]
    return f"{label}-{pair_name}-" + (
        str(_EDGE_COSTS[cost_name]().b) if label == "one_sample" else cost_name)


@pytest.mark.parametrize("label, pair_name, cost_name, want", _EDGE_BOUNDS,
                         ids=[_edge_id(c) for c in _EDGE_BOUNDS])
def test_edge_bound_keeps_every_regime_bound(label, pair_name, cost_name, want,
                                             gauss_shift_pair, bump_pair_comonotone):
    pairs = {"gaussian": wc.equal_pair(wc.gaussian()),
             "beta": wc.equal_pair(wc.beta_dist(2, 2)),
             "weibull": wc.equal_pair(wc.weibull(3.0)),
             "shift": gauss_shift_pair, "bump": bump_pair_comonotone}
    pair, cost = pairs[pair_name], _EDGE_COSTS[cost_name]()
    grid = wc.build_bridge_grid(pair, m=16, delta=1e-4)
    got = wc.REGIMES[label].draw(pair, cost, grid, 1, 0, None).tail_bound
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_quadratic_bound_is_the_equal_bound_of_power2():
    # equal under power(2): two branches of m_2/2 = 1/2 at b = 2, one integral
    pair, cost = wc.equal_pair(wc.weibull(3.0)), wc.power_cost(2.0)
    grid = wc.build_bridge_grid(pair, m=16, delta=1e-4)
    quadratic = wc.REGIMES["quadratic"].draw(pair, cost, grid, 1, 0, None).tail_bound
    equal = wc.REGIMES["equal"].draw(pair, cost, grid, 1, 0, None).tail_bound
    assert equal == pytest.approx(quadratic, rel=1e-15, abs=0.0)


def test_degenerate_zero_bound_is_for_bq_only():
    # a comonotone equal pair: Bq = 0, but the one-sample B^X/h_X is not
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    grid = wc.build_bridge_grid(pair, m=16, delta=1e-4)
    assert grid.degenerate
    assert wc.REGIMES["equal"].draw(pair, wc.power_cost(1.5), grid, 1, 0, None).tail_bound == 0.0
    one = wc.REGIMES["one_sample"].draw(pair, wc.power_cost(1.5), grid, 1, 0, None).tail_bound
    assert one == pytest.approx(0.06883248837298102, rel=1e-12, abs=0.0)


def test_edge_bound_is_the_only_tail_integral():
    tree = ast.parse(inspect.getsource(limitlaw))

    def calls(node):
        return sum(isinstance(n, ast.Call) and "assess_tail" in (getattr(n.func, "id", None),
                                                                getattr(n.func, "attr", None))
                   for n in ast.walk(node))

    edge = [f for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "_edge_bound"]
    assert len(edge) == 1 and calls(edge[0]) == calls(tree) >= 1
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not [n for n in names if n.startswith("truncated_tail_bound_")
                or n in ("_one_sided_power_tail", "_tail_bound_ED")]


def test_sigma2_hoeffding_oracle(gauss_shift_pair):
    assert wc.sigma2_D(gauss_shift_pair, wc.power_cost(2)) == pytest.approx(8.0, abs=0.08)


def test_sigma2_pinball(gauss_shift_pair):
    alpha = 0.3
    val = wc.sigma2_D(gauss_shift_pair, wc.pinball_cost(alpha))
    assert val == pytest.approx((1 - alpha) ** 2 * 2.0, abs=0.02)


def test_sigma2_zero_for_degenerate_pair():
    pair = wc.make_pair(wc.gaussian(0, 1), wc.gaussian(1, 1), wc.comonotone())
    val = wc.sigma2_D(pair, wc.power_cost(2))
    assert val == pytest.approx(0.0, abs=1e-10)


def _shift_pair(coupling):
    return wc.make_pair(wc.gaussian(0, 1), wc.gaussian(1, 1), coupling)


def _sigma2_cases(bump_pair_comonotone):
    """(pair, cost) for the sigma^2 oracles, by name."""
    return {
        "independent": (_shift_pair(wc.independent()), wc.power_cost(2)),
        "pinball(0.3)": (_shift_pair(wc.independent()), wc.pinball_cost(0.3)),
        "rho=0.5": (_shift_pair(wc.gaussian_coupling(0.5)), wc.power_cost(2)),
        "rho=-0.7": (_shift_pair(wc.gaussian_coupling(-0.7)), wc.power_cost(2)),
        "rho=0.9": (_shift_pair(wc.gaussian_coupling(0.9)), wc.power_cost(2)),
        "comonotone bump": (bump_pair_comonotone, wc.power_cost(2)),
    }


@pytest.mark.parametrize("case", ["independent", "rho=0.5", "rho=-0.7", "pinball(0.3)",
                                  "comonotone bump"])
def test_sigma2_monte_carlo_oracle(case, bump_pair_comonotone):
    # Monte Carlo oracle: the empirical variance of 40,000 simulated linear
    # functionals agrees with the quadrature and with the exact grid
    # variance q^T Sigma q to 2%
    pair, cost = _sigma2_cases(bump_pair_comonotone)[case]
    grid = wc.build_bridge_grid(pair, m=511, delta=1e-4)
    q = limitlaw._weight_fn(pair, cost, grid.u) * grid.weights
    samples = np.concatenate([q @ _process(grid, READS_BQ, bx, by)
                              for bx, by in _bridge_blocks(grid, 40000, 202406)])
    mc_val = float(np.var(samples))
    assert mc_val == pytest.approx(wc.sigma2_D(pair, cost), rel=0.02)
    assert mc_val == pytest.approx(q @ bridge_cov_kernel(pair, grid.u) @ q, rel=0.02)


@pytest.mark.parametrize("case", ["independent", "comonotone bump", "rho=-0.7", "rho=0.5",
                                  "rho=0.9", "custom"])
def test_sigma2_quadrature_matches_dense_kernel(case, bump_pair_comonotone, monkeypatch):
    # the O(n) / O(n r) quadratic form equals the dense-kernel quadrature;
    # only a copula with no structure evaluates the dense kernel
    if case == "custom":
        pair, cost = _shift_pair(wc.custom_coupling(_gauss_copula(0.5))), wc.power_cost(2)
    else:
        pair, cost = _sigma2_cases(bump_pair_comonotone)[case]
    us, ws = quantile_rule(1e-6, 1.0 - 1e-6, pair.partition.breaks)
    wv = limitlaw._weight_fn(pair, cost, us) * ws
    dense = float(wv @ bridge_cov_kernel(pair, us) @ wv)
    calls = []
    monkeypatch.setattr(limitlaw, "bridge_cov_kernel",
                        lambda *args: calls.append(1) or bridge_cov_kernel(*args))
    assert wc.sigma2_D(pair, cost, mc_m=511) == pytest.approx(dense, rel=1e-12, abs=0)
    assert len(calls) == (case == "custom")


@pytest.mark.parametrize("case", ["independent", "pinball(0.3)", "rho=0.5", "rho=-0.7",
                                  "rho=0.9", "comonotone bump", "comonotone bump p1"])
def test_sigma2_quadrature_accuracy(case, bump_pair_comonotone, monkeypatch):
    # against the same rule at a quarter of the panel width, whose error is
    # 16 times smaller (the kernel's diagonal kink makes it O(width^2))
    if case == "comonotone bump p1":
        pair, cost = bump_pair_comonotone, wc.power_cost(1)
    else:
        pair, cost = _sigma2_cases(bump_pair_comonotone)[case]
    val = wc.sigma2_D(pair, cost)
    monkeypatch.setattr(tails, "_PANEL_WIDTH", tails._PANEL_WIDTH / 4.0)
    ref = wc.sigma2_D(pair, cost)
    assert abs(val - ref) <= (4e-4 if "bump" in case else 1e-4) * ref


def test_sigma2_closed_form_independent(gauss_shift_pair):
    # N(0,1) vs N(1,1), independent, power(2): the functional is
    # 2 (int B dQ_X - int B dQ_Y) over [delta, 1 - delta], so sigma^2 is
    # 8 Var(Z clipped to +-c), c = Phi^{-1}(1 - delta)
    delta = 1e-6
    c = stats.norm.isf(delta)
    exact = 8.0 * (1.0 - 2.0 * delta - 2.0 * c * stats.norm.pdf(c) + 2.0 * c * c * delta)
    assert wc.sigma2_D(gauss_shift_pair, wc.power_cost(2), delta=delta) == \
        pytest.approx(exact, rel=1.2e-5)


@pytest.mark.parametrize("dist_x, dist_y, exact", [
    (wc.gaussian(0, 1), wc.gaussian(0, 2), 2.0 + 8.0),   # tau crosses 0 at u = 1/2
    (wc.pareto(8.0), wc.pareto(8.0, 2.0), 2.0 / 9.0 + 8.0 / 9.0),
])
def test_sigma2_closed_form_var_sum(dist_x, dist_y, exact):
    # independent, power(2), Y = 2 X in law: the functional is linear in
    # the two samples and sigma^2 = Var(X^2) + Var(Y^2 / 2)
    pair, cost = wc.make_pair(dist_x, dist_y), wc.power_cost(2)
    assert wc.sigma2_D(pair, cost, delta=1e-10) == pytest.approx(exact, rel=1e-4)
    assert isinstance(wc.clt_alternative_distribution(pair, cost), float)


def test_sigma2_makes_no_draws(gauss_shift_pair, monkeypatch):
    # no generator and no bridge grid are ever built, and the grid keywords
    # are accepted and ignored
    def refuse(what):
        def fn(*args, **kwargs):
            raise AssertionError(f"sigma2_D called {what}")
        return fn

    monkeypatch.setattr(limitlaw, "derive_rng", refuse("derive_rng"))
    monkeypatch.setattr(limitlaw, "build_bridge_grid", refuse("build_bridge_grid"))
    cost = wc.power_cost(2)
    val = wc.sigma2_D(gauss_shift_pair, cost)
    assert val == pytest.approx(8.0, abs=0.08)
    assert wc.sigma2_D(gauss_shift_pair, cost, mc_m=255, mc_n=40000) == val
    assert wc.sigma2_D(gauss_shift_pair, cost, mc_n=10) == val


def test_grid_validation(gauss_equal_pair):
    with pytest.raises(ValidationError):
        wc.build_bridge_grid(gauss_equal_pair, m=0)
    with pytest.raises(ValidationError):
        wc.build_bridge_grid(gauss_equal_pair, m=16, delta=0.7)
    # 1 - delta rounds to 1 below about 1.1e-16
    with pytest.raises(ValidationError, match="1 - delta < 1"):
        wc.build_bridge_grid(wc.equal_pair(wc.uniform()), m=100, delta=1e-17)
    wc.build_bridge_grid(wc.equal_pair(wc.uniform()), m=100, delta=2e-16)


@pytest.mark.parametrize("delta", [1e-17, 0.0, 0.5, float("nan")])
def test_sigma2_delta_validation(gauss_shift_pair, delta):
    with pytest.raises(ValidationError, match="delta"):
        wc.sigma2_D(gauss_shift_pair, wc.power_cost(2), delta=delta)


def test_draws_reproducible(gauss_equal_pair):
    grid = wc.build_bridge_grid(gauss_equal_pair, m=64, delta=1e-3)
    cost = wc.power_cost(1.5)
    a = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, 40, 77, None)
    b = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, 40, 77, None)
    assert np.array_equal(a.values, b.values)
    # draw j, path and value, is bit-identical for every n_sim > j
    couplings = {"closed-form": wc.independent(), "low-rank": wc.gaussian_coupling(0.5),
                 "kernel svd": wc.custom_coupling(_marshall_olkin(0.5, 0.3))}
    for kind, coupling in couplings.items():
        pair = wc.equal_pair(wc.gaussian(), coupling)
        grid = wc.build_bridge_grid(pair, m=127, delta=1e-4)
        assert grid.factor_kind == ("closed-form" if kind == "closed-form" else "low-rank")
        ref = wc.REGIMES["equal"].draw(pair, cost, grid, 1100, 77, None).values
        ref_paths = np.hstack([bq for bq, _ in iter_bridge_paths(grid, 1100, 77, READS_BQ)])
        for n_sim in (1, 37, 600):
            vals = wc.REGIMES["equal"].draw(pair, cost, grid, n_sim, 77, None).values
            assert np.array_equal(vals, ref[:n_sim]), (kind, n_sim)
            paths = np.hstack([bq for bq, _ in iter_bridge_paths(grid, n_sim, 77, READS_BQ)])
            assert np.array_equal(paths, ref_paths[:, :n_sim]), (kind, n_sim)


def _process(grid, reads, bx, by):
    """The process ``reads`` from the bridge blocks of ``grid.bridges``."""
    if reads == READS_X:
        return bx / grid.h_x[:, None]
    return bx / grid.h_x[:, None] - by / grid.h_y[:, None]


def _one_bridge_cases(bump_pair_comonotone):
    """(pair, cost, regime label, factor kind) of each route that draws
    one scaled bridge from m normals."""
    gauss = wc.equal_pair(wc.gaussian())
    return {
        "equal": (gauss, wc.power_cost(1.5), "equal", "closed-form"),
        "quadratic": (wc.equal_pair(wc.weibull(3.0)), None, "quadratic", "closed-form"),
        "one_sample": (gauss, wc.power_cost(1.5), "one_sample", "closed-form"),
        "one_sample kernel": (wc.equal_pair(wc.gaussian(), wc.custom_coupling(_fgm(0.5))),
                              wc.power_cost(1.5), "one_sample", "low-rank"),
        "mixed comonotone": (bump_pair_comonotone, wc.power_cost(1), "mixed", "closed-form"),
        "equal copula 0.5": (wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.5)),
                             wc.power_cost(1.5), "equal", "low-rank"),
        "equal copula -0.5": (wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(-0.5)),
                              wc.power_cost(1.5), "equal", "low-rank"),
    }


@pytest.mark.parametrize("case", ["equal", "quadratic", "one_sample", "one_sample kernel",
                                  "mixed comonotone", "equal copula 0.5",
                                  "equal copula -0.5"])
def test_one_bridge_draws_keep_the_law(case, bump_pair_comonotone):
    # draws from m normals each against the same functional of both
    # bridges from 2m normals through grid.bridges: the two-sample KS
    # distance stays below its alpha = 1e-3 critical value
    pair, cost, label, kind = _one_bridge_cases(bump_pair_comonotone)[case]
    grid = wc.build_bridge_grid(pair, m=511, delta=1e-4)
    assert grid.factor_kind == kind
    regime, n = wc.REGIMES[label], 20000
    draws = regime.draw(pair, cost, grid, n, 41, None)
    assert draws.grid_meta["normals_per_draw"] == grid.m
    functional = regime.functional(pair, cost, grid)
    ref = np.concatenate([functional(_process(grid, regime.reads, bx, by))
                          for bx, by in _bridge_blocks(grid, n, 42)])
    crit = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) * math.sqrt(2.0 / n)
    assert stats.ks_2samp(draws.values, ref).statistic < crit


def test_one_bridge_stream(gauss_equal_pair):
    # independent, h_X = h_Y: draw j is sqrt(2) L z / h, z normals
    # mj .. m(j+1) - 1 of derive_rng(seed, "draws")
    grid = wc.build_bridge_grid(gauss_equal_pair, m=127, delta=1e-4)
    n, cost = 600, wc.power_cost(1.5)
    z = derive_rng(77, "draws").standard_normal((n, grid.m)).T
    L = np.tril((1.0 - grid.u)[:, None] * grid.factor[None, :])
    bq = math.sqrt(2.0) * (L @ z) / grid.h_x[:, None]
    paths = np.hstack([b for b, _ in iter_bridge_paths(grid, n, 77, READS_BQ)])
    assert np.allclose(paths, bq, rtol=1e-10, atol=1e-12 * np.max(np.abs(bq)))
    draws = wc.REGIMES["equal"].draw(gauss_equal_pair, cost, grid, n, 77, None)
    assert np.allclose(draws.values, grid.weights @ np.abs(bq) ** 1.5, rtol=1e-10)
    assert draws.grid_meta["normals_per_draw"] == grid.m


def test_one_bridge_copula_stream():
    # Gaussian copula, h_X = h_Y: draw j is sqrt(2)/h L(z - U(c1 * U^T z)),
    # c1 = 1 - sqrt(1 - s), z normals mj .. m(j+1) - 1 of
    # derive_rng(seed, "draws")
    pair = wc.equal_pair(wc.gaussian(), wc.gaussian_coupling(0.5))
    grid = wc.build_bridge_grid(pair, m=127, delta=1e-4)
    assert (grid.factor_kind, grid.rank) == ("low-rank", 15)
    n, cost = 600, wc.power_cost(1.5)
    U, s, W, _ = grid.cross
    assert W is U
    c1 = 1.0 - np.sqrt(1.0 - s)
    z = derive_rng(77, "draws").standard_normal((n, grid.m)).T
    L = np.tril((1.0 - grid.u)[:, None] * grid.factor[None, :])
    bq = math.sqrt(2.0) * (L @ (z - U @ (c1[:, None] * (U.T @ z)))) / grid.h_x[:, None]
    paths = np.hstack([b for b, _ in iter_bridge_paths(grid, n, 77, READS_BQ)])
    assert np.allclose(paths, bq, rtol=1e-10, atol=1e-12 * np.max(np.abs(bq)))
    draws = wc.REGIMES["equal"].draw(pair, cost, grid, n, 77, None)
    assert np.allclose(draws.values, grid.weights @ np.abs(bq) ** 1.5, rtol=1e-10)
    assert draws.grid_meta["normals_per_draw"] == grid.m


@pytest.mark.parametrize("case", ["low-rank", "non-symmetric", "unequal h"])
def test_two_bridge_stream(case):
    # grids whose cross map is not symmetric (W is not U: a Marshall-Olkin
    # copula, equal h), and pairs whose h differ (N(0,1) vs N(0,2) under a
    # Gaussian copula; the independent shift pair, in the last bits), map
    # 2m normals through grid.bridges: draw j reads normals
    # 2mj .. 2m(j+1) - 1; the one-sample limit still reads m
    pair, cost, label, kind = {
        "low-rank": (wc.make_pair(wc.gaussian(0, 1), wc.gaussian(0, 2),
                                  wc.gaussian_coupling(0.5)),
                     wc.power_cost(2), "gaussian", "low-rank"),
        "non-symmetric": (wc.equal_pair(wc.gaussian(),
                                        wc.custom_coupling(_marshall_olkin(0.5, 0.3))),
                          wc.power_cost(1.5), "equal", "low-rank"),
        "unequal h": (_shift_pair(wc.independent()), wc.power_cost(2), "gaussian",
                      "closed-form"),
    }[case]
    grid = wc.build_bridge_grid(pair, m=127, delta=1e-4)
    assert grid.factor_kind == kind
    assert np.array_equal(grid.h_x, grid.h_y) == (case == "non-symmetric")
    assert (grid.cross is not None and grid.cross[2] is not grid.cross[0]) == \
        (case == "non-symmetric")
    n = 600
    bq = _process(grid, READS_BQ, *_bridges(grid, n, 77))
    paths = np.hstack([b for b, _ in iter_bridge_paths(grid, n, 77, READS_BQ)])
    assert np.allclose(paths, bq, rtol=1e-10, atol=1e-12 * np.max(np.abs(bq)))
    regime = wc.REGIMES[label]
    draws = regime.draw(pair, cost, grid, n, 77, None)
    assert np.allclose(draws.values, regime.functional(pair, cost, grid)(bq),
                       rtol=1e-10, atol=1e-12)
    assert draws.grid_meta["normals_per_draw"] == 2 * grid.m
    one_sample = wc.REGIMES["one_sample"].draw(pair, wc.power_cost(1.5), grid, 10, 77, None)
    assert one_sample.grid_meta["normals_per_draw"] == grid.m


def test_functional_E_matches_where_form(gauss_grid, gauss_equal_pair):
    # the powers are masked in place (one shared array when b_- = b_+); bit
    # for bit the np.where form, on a block with exact zeros of both signs
    bq = np.random.default_rng(5).standard_normal((gauss_grid.m, 64))
    bq[::7, ::3] = 0.0
    bq[3, 1::5] = -0.0
    w = gauss_grid.weights
    for cost in (wc.power_cost(1.0), wc.power_cost(1.5), wc.power_cost(2.0),
                 wc.asymmetric_power_cost((0.5, 2.0), (1.5, 1.5)),
                 wc.asymmetric_power_cost((1.0, 2.0), (1.0, 2.0)),
                 wc.asymmetric_power_cost((0.5, 2.0), (2.5, 1.0))):
        absq = np.abs(bq)
        ref = (cost.pi_minus * (w @ np.where(bq < 0, absq ** cost.b_minus, 0.0))
               + cost.pi_plus * (w @ np.where(bq > 0, absq ** cost.b_plus, 0.0)))
        got = limitlaw._functional_E(gauss_equal_pair, cost, gauss_grid)(bq)
        assert np.array_equal(got, ref), cost.name


def test_degenerate_grid_draws_no_normals():
    pair = wc.equal_pair(wc.gaussian(), wc.comonotone())
    grid = wc.build_bridge_grid(pair, m=64, delta=1e-3)
    draws = wc.REGIMES["equal"].draw(pair, wc.power_cost(1.5), grid, 600, 3, None)
    assert np.array_equal(draws.values, np.zeros(600))
    assert draws.grid_meta["normals_per_draw"] == 0


ORACLE_COUPLINGS = {
    "clayton(2)": lambda: wc.custom_coupling(_clayton(2.0)),
    "fgm(0.5)": lambda: wc.custom_coupling(_fgm(0.5)),
    "marshall-olkin(0.5, 0.3)": lambda: wc.custom_coupling(_marshall_olkin(0.5, 0.3)),
    "gaussian 0.5": lambda: wc.gaussian_coupling(0.5),
    "gaussian 0.9": lambda: wc.gaussian_coupling(0.9),
    "gaussian -0.95": lambda: wc.gaussian_coupling(-0.95),
}


@pytest.mark.parametrize("case", list(ORACLE_COUPLINGS))
def test_cross_map_draws_match_dense_cholesky(case):
    # equal-regime draws through the truncated cross map (m normals when it
    # is symmetric, 2m for Marshall-Olkin) against the same functional of
    # draws through the dense 2m x 2m Cholesky factor: the two-sample KS
    # distance stays below its alpha = 1e-3 critical value
    pair = wc.equal_pair(wc.gaussian(), ORACLE_COUPLINGS[case]())
    cost, n = wc.power_cost(1.5), 20000
    grid = wc.build_bridge_grid(pair, m=255, delta=1e-4)
    assert grid.factor_kind == "low-rank" and grid.frobenius_rel_err <= 1e-6
    draws = wc.REGIMES["equal"].draw(pair, cost, grid, n, 51, None)
    symmetric = grid.cross[2] is grid.cross[0]
    assert symmetric == (case != "marshall-olkin(0.5, 0.3)")
    assert draws.grid_meta["normals_per_draw"] == (1 if symmetric else 2) * grid.m
    ref = np.concatenate([_dense_draws(pair, cost, grid, n // 4, 52 + i) for i in range(4)])
    crit = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) * math.sqrt(2.0 / n)
    assert stats.ks_2samp(draws.values, ref).statistic < crit


def _over_min(u, v):
    """min(u, v) on the copula validator's probe grid (multiples of 1/64),
    above it, and so no copula, in between."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return np.minimum(u, v) * (1.0 + 1e-8 * (np.sin(64 * np.pi * u) * np.sin(64 * np.pi * v)) ** 2)


def _warped_min(u, v):
    """min(g(u), g(v)), g(u) = u + 1e-4 sin^2(64 pi u): increasing, and u on
    the copula validator's probe grid."""
    def g(x):
        x = np.asarray(x, dtype=float)
        return x + 1e-4 * np.sin(64 * np.pi * x) ** 2
    return np.minimum(g(u), g(v))


def test_cross_map_clamps_rounding_and_raises_past_it():
    # a custom comonotone copula whitens to the identity, |s| = 1 up to
    # rounding (1 + 1e-9 at delta = 1e-9): clamped to 1, its grid is
    # degenerate and its draws are 0
    pair = wc.equal_pair(wc.gaussian(), wc.custom_coupling(np.minimum))
    grid = wc.build_bridge_grid(pair, m=511, delta=1e-9)
    U, s, W, c = grid.cross
    assert W is U and grid.rank == 511
    assert np.max(np.abs(s)) == 1.0 and np.all(np.isfinite(c))
    assert grid.degenerate
    draws = wc.REGIMES["equal"].draw(pair, wc.power_cost(1.5), grid, 600, 3, None)
    assert np.array_equal(draws.values, np.zeros(600))
    # 1e-8 above min(u, v) between the probe nodes passes the copula
    # validator, but not the 2-increasing check on the bridge grid (it would
    # whiten to |s| = 1 + 7e-5): a ValidationError that names the function
    pair = wc.equal_pair(wc.gaussian(), wc.custom_coupling(_over_min))
    with pytest.raises(ValidationError, match="'_over_min' is not 2-increasing"):
        wc.build_bridge_grid(pair, m=255, delta=1e-4)
    # min(g(u), g(v)) with g increasing, g(u) = u on the probe nodes and
    # above u between them, is 2-increasing but has no uniform margins: its
    # cross map reaches |s| = 2.3, which stays a NumericalError
    pair = wc.equal_pair(wc.gaussian(), wc.custom_coupling(_warped_min))
    with pytest.raises(NumericalError, match=r"max \|s\| = 2\.2"):
        wc.build_bridge_grid(pair, m=255, delta=1e-4)


_THREADS_SCRIPT = """
import hashlib, pickle, sys
import wcontrast as wc
from wcontrast.limitlaw import READS_BQ, iter_bridge_paths
grids = pickle.loads(sys.stdin.buffer.read())
gauss, copula = wc.gaussian(), wc.gaussian_coupling(0.5)
built = {"closed-form": wc.equal_pair(gauss),
         "mehler m": wc.equal_pair(gauss, copula),
         "mehler 2m": wc.make_pair(gauss, wc.gaussian(0, 2), copula)}
for name, pair in built.items():
    grids[name] = wc.build_bridge_grid(pair, m=255, delta=1e-4)
for name, grid in sorted(grids.items()):
    digest = hashlib.sha256()
    for _, block in iter_bridge_paths(grid, 3000, 7, READS_BQ):
        digest.update(block.tobytes())
    print(name, digest.hexdigest())
"""


def test_draw_bytes_do_not_depend_on_blas_threads():
    # 3000 draws per route, in fresh processes at 1 and 2 BLAS threads (a
    # product that is not thread-stable may differ in one value of millions):
    # the closed-form and Mehler routes build their grid there too; the
    # whitened-kernel grids (whose eigh / SVD build may differ in the last
    # bits with the thread count) are built here and drawn from there
    kernels = {"kernel symmetric": _clayton(2.0), "kernel svd": _marshall_olkin(0.5, 0.3)}
    grids = {name: wc.build_bridge_grid(wc.equal_pair(wc.gaussian(), wc.custom_coupling(fn)),
                                        m=255, delta=1e-4)
             for name, fn in kernels.items()}
    src = os.path.dirname(os.path.dirname(wc.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src] + sys.path))
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], input=pickle.dumps(grids),
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        outs.append(done.stdout.decode().splitlines())
    assert len(outs[0]) == 5 and outs[0] == outs[1]


def _route_cases(bump_pair_comonotone):
    """(pair, process read, normals per draw / m) of each route of ``_route``."""
    gauss, copula = wc.gaussian(), wc.gaussian_coupling(0.5)
    return {
        "closed-form Bq": (wc.equal_pair(gauss), READS_BQ, 1),
        "B^X/h_X": (wc.make_pair(gauss, wc.gaussian(0, 2), copula), READS_X, 1),
        "comonotone": (bump_pair_comonotone, READS_BQ, 1),
        "mehler m": (wc.equal_pair(gauss, copula), READS_BQ, 1),
        "unequal h 2m": (wc.make_pair(gauss, wc.gaussian(0, 2), copula), READS_BQ, 2),
        "non-exchangeable 2m": (wc.equal_pair(gauss, wc.custom_coupling(
            _marshall_olkin(0.5, 0.3))), READS_BQ, 2),
        "degenerate": (wc.equal_pair(gauss, wc.comonotone()), READS_BQ, 0),
    }


@pytest.mark.parametrize("case", ["closed-form Bq", "B^X/h_X", "comonotone", "mehler m",
                                  "unequal h 2m", "non-exchangeable 2m", "degenerate"])
def test_blocks_equal_serial_reconstruction(case, bump_pair_comonotone):
    # every block kept until the iteration ends, byte for byte against
    # blocks mapped one after another from the documented stream: draw j
    # reads normals wj .. w(j+1) - 1 of derive_rng(seed, "draws"), and the
    # last block is zero-padded to 512 draws. Blocks that shared one buffer,
    # or normals read out of stream order, would differ here
    pair, reads, per_m = _route_cases(bump_pair_comonotone)[case]
    grid = wc.build_bridge_grid(pair, m=63, delta=1e-4)
    width, to_paths = limitlaw._route(grid, reads)
    assert width == per_m * grid.m
    n = 1300
    z = np.zeros((3 * 512, width))
    z[:n] = derive_rng(11, "draws").standard_normal((n, width))
    want = [to_paths(np.array(z[i:i + 512]).T) for i in range(0, n, 512)]
    got = list(iter_bridge_paths(grid, n, 11, reads))
    assert [paths.shape[1] for paths, _ in got] == [512, 512, 276]
    for (paths, block), ref in zip(got, want, strict=True):
        assert block.tobytes() == ref.tobytes(), case
        assert np.shares_memory(paths, block)
    for i, (_, a) in enumerate(got):
        assert not any(np.shares_memory(a, b) for _, b in got[i + 1:])


def test_path_iteration_leaves_no_thread(gauss_equal_pair):
    # at most one worker a call, joined when the draws end, when the caller
    # stops early and when the functional raises between blocks; a call of
    # one block starts none, and n_sim = 0 yields nothing
    grid = wc.build_bridge_grid(gauss_equal_pair, m=63, delta=1e-4)
    start = threading.active_count()
    assert list(iter_bridge_paths(grid, 0, 1, READS_BQ)) == []
    for _ in iter_bridge_paths(grid, 512, 1, READS_BQ):
        assert threading.active_count() == start
    for _ in iter_bridge_paths(grid, 2000, 1, READS_BQ):
        assert threading.active_count() <= start + 1
    regime = wc.REGIMES["equal"]
    regime.draw(gauss_equal_pair, wc.power_cost(1.5), grid, 2000, 1, None)
    assert threading.active_count() == start
    for _ in iter_bridge_paths(grid, 2000, 1, READS_BQ):
        break
    assert threading.active_count() == start

    def failing(pair, cost, grid):
        calls = []

        def functional(bq):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("functional failed")
            return grid.weights @ bq
        return functional
    with pytest.raises(RuntimeError, match="functional failed"):
        replace(regime, functional=failing).draw(gauss_equal_pair, None, grid, 2000, 1, None)
    assert threading.active_count() == start


def test_bridges_leave_their_normals_unchanged(bump_pair_comonotone):
    # _markov_bridge maps in place; grid.bridges copies before it does
    pairs = [wc.equal_pair(wc.gaussian()), bump_pair_comonotone,
             wc.make_pair(wc.gaussian(), wc.gaussian(0, 2), wc.gaussian_coupling(0.5))]
    for pair in pairs:
        grid = wc.build_bridge_grid(pair, m=63, delta=1e-4)
        z = np.random.default_rng(3).standard_normal((64, 2 * grid.m)).T
        before = z.copy()
        grid.bridges(z)
        assert np.array_equal(z, before)
    y = z[:grid.m].copy()
    assert limitlaw._markov_bridge(grid.u, grid.factor, y) is y


def test_functional_one_sample_matches_out_of_place_power(gauss_grid, gauss_equal_pair):
    bx = np.random.default_rng(5).standard_normal((gauss_grid.m, 64))
    bx[::7, ::3] = 0.0
    for p in (1.0, 1.5, 1.9):
        got = limitlaw._functional_one_sample(gauss_equal_pair, wc.power_cost(p),
                                              gauss_grid)(bx)
        assert np.array_equal(got, gauss_grid.weights @ (np.abs(bx) ** p)), p
