import math

import numpy as np
import pytest

import wcontrast as wc
from wcontrast.errors import DomainError


@pytest.fixture(scope="session")
def std_gaussian():
    return wc.gaussian()


@pytest.fixture(scope="session")
def gauss_equal_pair(std_gaussian):
    return wc.equal_pair(std_gaussian)


@pytest.fixture(scope="session")
def gauss_shift_pair():
    return wc.make_pair(wc.gaussian(0, 1), wc.gaussian(1, 1))


@pytest.fixture(scope="session")
def bump_pair_comonotone():
    warp, dwarp = wc.bump_warp(0.15, 0.2, 0.5)
    base = wc.gaussian()
    warped = wc.warped_dist(base, warp, dwarp, (0.2, 0.5))
    partition = wc.Partition((0.0, 0.2, 0.5, 1.0), ("E", "D", "E"))
    return wc.PairSpec(base, warped, wc.comonotone(), partition)


@pytest.fixture(scope="session")
def builtin_dists():
    return {
        "gaussian": wc.gaussian(),
        "exponential": wc.exponential(),
        "pareto": wc.pareto(4.0),
        "weibull": wc.weibull(3.0),
        "beta": wc.beta_dist(2, 2),
        "uniform": wc.uniform(),
    }


def exp_growth_cost(b: float, gamma: float) -> wc.CostSpec:
    """Custom cost x^b exp(x^gamma): power index b at 0, log-cost index gamma."""

    def rho(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return x ** b * np.exp(np.minimum(x ** gamma, 709.0))

    def log_rho(xi):
        xi = np.asarray(xi, dtype=float)
        with np.errstate(over="ignore"):
            return b * xi + np.exp(np.minimum(gamma * xi, 700.0))

    return wc.spliced_cost(
        rho, rho, b=(b, b), gamma=(gamma, gamma),
        log_rho=(log_rho, log_rho), name=f"expcost(b={b},g={gamma})",
    )


def w1_cdf_distance(sample: wc.PairedSample) -> float:
    """Exact integral of |F_n - G_n| over the line: an oracle for the
    order-statistic W1. The two empirical c.d.f.s are piecewise constant
    between merged data points, so the integral is a finite sum with no
    quadrature error."""
    grid = np.sort(np.concatenate([sample.sorted_xs, sample.sorted_ys]))
    if grid[0] == grid[-1]:
        return 0.0
    cuts = grid[:-1]
    fx = np.searchsorted(sample.sorted_xs, cuts, side="right")
    fy = np.searchsorted(sample.sorted_ys, cuts, side="right")
    gaps = np.diff(grid)
    return float(np.sum(np.abs(fx - fy) * gaps)) / sample.n


def empirical_quantile(sorted_vals: np.ndarray, u) -> np.ndarray:
    """Left-continuous generalized inverse: X_(ceil(n u)), clipped to [1, n]."""
    u = np.asarray(u, dtype=float)
    n = len(sorted_vals)
    idx = np.clip(np.ceil(n * u).astype(int), 1, n)
    return sorted_vals[idx - 1]


def quantile_process(sample: wc.PairedSample, pair: wc.PairSpec, grid) -> np.ndarray:
    """Scaled quantile processes sqrt(n) (F_n^{-1} - F^{-1}, G_n^{-1} - G^{-1})
    on ``grid``, shape (len(grid), 2)."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise DomainError("quantile process requires grid values in (0,1)")
    root_n = math.sqrt(sample.n)
    bx = root_n * (empirical_quantile(sample.sorted_xs, grid)
                   - np.asarray(pair.dist_x.quantile(grid), dtype=float))
    by = root_n * (empirical_quantile(sample.sorted_ys, grid)
                   - np.asarray(pair.dist_y.quantile(grid), dtype=float))
    return np.column_stack([bx, by])
