"""Monte Carlo verification suites.

Each check returns a report dict with exactly the keys test, statistic,
bound, and pass.  Moment checks report the largest |z|-score of an
empirical mean against its target, with a 3-standard-error band
(bound 3.0); the Laplace-functional check reports the largest deviation
normalized by its full allowance of 3 standard errors plus the 2/grid_size
trapezoid-bias term (bound 1.0); the symmetry check reports a relative
density discrepancy (bound 1e-9).

All checks are deterministic given their seed.  Checks that need several
independent draws derive distinct master seeds by fixed offsets from the
seed they are given, so running a suite twice with one seed is bit-stable.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import covariance_r, drift_matrix
from .exact import _check_nonnegative
from .sampling import (
    _check_laplace,
    _seed_words,
    closed_form_quadratic_laplace,
    mc_quadratic_laplace_thetas,
    mc_transition_symmetry,
    sample_w_paths,
    sample_x_paths,
)

DEFAULT_PATHS = 100_000
DEFAULT_GRID = 1024
DEFAULT_SEED = 42


def _mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard errors of samples shaped (paths, stats), which it overwrites:
    the bits of mean(axis=0) and std(axis=0, ddof=1) / sqrt(paths), each column summed once."""
    n = samples.shape[0]
    mean = samples.sum(axis=0) / n
    dev = np.subtract(samples, mean, out=samples)
    var = np.square(dev, out=dev).sum(axis=0) / (n - 1)
    return mean, np.sqrt(var) / math.sqrt(n)


def _products(a: np.ndarray, b: np.ndarray, pairs: list, order: str) -> np.ndarray:
    """a[:, i] * b[:, j] for each (i, j) in pairs, one multiply per column, laid out in `order`:
    numpy sums a contiguous ("F") column pairwise and strided ("C") columns row by row."""
    out = np.empty((a.shape[0], len(pairs)), order=order)
    for col, (i, j) in enumerate(pairs):
        np.multiply(a[:, i], b[:, j], out=out[:, col])
    return out


def _max_abs_z(samples: np.ndarray, targets: np.ndarray) -> float:
    mean, se = _mean_and_se(samples)
    return float(np.max(np.abs(mean - targets) / se))


def check_w_covariance(order: int = 3, t: float = 1.0,
                       n_paths: int = DEFAULT_PATHS, seed: int = DEFAULT_SEED) -> dict:
    """Empirical covariance of the state at horizon t against its closed form."""
    w = sample_w_paths(order, (t,), n_paths, seed)[:, 0, :]
    target = covariance_r(order, t)
    rows, cols = np.triu_indices(order + 1)
    z = _max_abs_z(_products(w, w, list(zip(rows, cols)), "F"), target[rows, cols])
    return {"test": f"w-covariance-n{order}", "statistic": z, "bound": 3.0, "pass": z <= 3.0}


def check_x0_autocovariance(taus=(0.5, 1.0, 2.0),
                            n_paths: int = DEFAULT_PATHS, seed: int = DEFAULT_SEED) -> dict:
    """Lag covariance of the stationary order-0 component against e^(-tau/2)."""
    taus = tuple(float(tau) for tau in taus)
    if not taus:
        raise ValueError("need at least one lag")
    times = (0.0,) + taus
    x = sample_x_paths(0, times, n_paths, seed)[:, :, 0]
    products = x[:, 0:1] * x[:, 1:]
    targets = np.exp(-0.5 * np.asarray(taus))
    z = _max_abs_z(products, targets)
    return {"test": "x0-autocovariance", "statistic": z, "bound": 3.0, "pass": z <= 3.0}


def check_quadratic_laplace(thetas=(0.5, 1.0, 2.0), n_paths: int = DEFAULT_PATHS,
                            grid_size: int = DEFAULT_GRID, seed: int = DEFAULT_SEED) -> dict:
    """Laplace functional of the integrated square against its closed form.

    One path set serves every theta (each estimate equals what
    mc_quadratic_laplace returns at its theta for this seed).  The allowance
    per theta is 3 standard errors plus 2/grid_size of quadrature bias.
    """
    thetas = tuple(thetas)
    worst = 0.0
    for theta, est in zip(thetas, mc_quadratic_laplace_thetas(thetas, n_paths, grid_size, seed)):
        allowance = 3.0 * est.std_error + 2.0 / grid_size
        deviation = abs(est.mean - closed_form_quadratic_laplace(theta))
        worst = max(worst, deviation / allowance)
    return {"test": "quadratic-laplace", "statistic": worst, "bound": 1.0, "pass": worst <= 1.0}


def check_renewal_whiteness(order: int = 2, s: float = 1.0, dt: float = 0.5,
                            n_paths: int = DEFAULT_PATHS, seed: int = DEFAULT_SEED) -> dict:
    """The innovation of the step from time s to s+dt is uncorrelated with the
    state at s: every cross-moment of residual and state sits in a 3-SE band
    around zero."""
    w = sample_w_paths(order, (s, s + dt), n_paths, seed)
    residual = w[:, 1, :] - w[:, 0, :] @ drift_matrix(order, dt).T
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1)]
    z = _max_abs_z(_products(residual, w[:, 0, :], pairs, "C"), np.zeros(len(pairs)))
    return {"test": f"renewal-whiteness-n{order}", "statistic": z, "bound": 3.0, "pass": z <= 3.0}


def check_chained_vs_direct(order: int = 2, t: float = 1.0,
                            n_paths: int = DEFAULT_PATHS, seed: int = DEFAULT_SEED) -> dict:
    """Sampling the state at t directly and via an intermediate stop at t/2
    must give the same endpoint law; covariance entries are compared with a
    two-sample z-score."""
    direct = sample_w_paths(order, (t,), n_paths, seed)[:, 0, :]
    chained = sample_w_paths(order, (0.5 * t, t), n_paths, seed + 1)[:, 1, :]
    pairs = list(zip(*np.triu_indices(order + 1)))
    mean_d, se_d = _mean_and_se(_products(direct, direct, pairs, "F"))
    mean_c, se_c = _mean_and_se(_products(chained, chained, pairs, "F"))
    z = float(np.max(np.abs(mean_d - mean_c) / np.hypot(se_d, se_c)))
    return {"test": f"chained-vs-direct-n{order}", "statistic": z, "bound": 3.0, "pass": z <= 3.0}


SUITES = {
    "w-covariance": lambda seed, n_paths, grid_size, thetas: check_w_covariance(
        n_paths=n_paths, seed=seed),
    "x-stationarity": lambda seed, n_paths, grid_size, thetas: check_x0_autocovariance(
        n_paths=n_paths, seed=seed + 1),
    "laplace": lambda seed, n_paths, grid_size, thetas: check_quadratic_laplace(
        thetas=thetas, n_paths=n_paths, grid_size=grid_size, seed=seed + 2),
    "symmetry": lambda seed, n_paths, grid_size, thetas: mc_transition_symmetry(
        2, 1000, seed + 3),
    "whiteness": lambda seed, n_paths, grid_size, thetas: check_renewal_whiteness(
        n_paths=n_paths, seed=seed + 4),
    "chained": lambda seed, n_paths, grid_size, thetas: check_chained_vs_direct(
        n_paths=n_paths, seed=seed + 5),
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str = "all", seed: int = DEFAULT_SEED,
              n_paths: int = DEFAULT_PATHS, grid_size: int = DEFAULT_GRID,
              thetas=None) -> list[dict]:
    """Run one named suite, or all of them in a fixed order.

    `thetas` overrides the laplace suite's default (0.5, 1, 2) triple.
    The master seed, the path count and, when the laplace suite is chosen,
    its thetas and grid are checked here, before any suite runs: the suites
    offset the seed, and a moment needs two paths for its standard error.
    """
    if name == "all":
        names = SUITE_ORDER
    elif name in SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_ORDER}")
    _seed_words(seed)  # the samplers' rule: a non-negative integer
    n_paths = _check_nonnegative(n_paths, "n_paths", 2)
    chosen = (0.5, 1.0, 2.0) if thetas is None else tuple(thetas)
    if "laplace" in names:
        _check_laplace(chosen, n_paths, grid_size)
    return [SUITES[nm](seed, n_paths, grid_size, chosen) for nm in names]
