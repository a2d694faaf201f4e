"""Exact samplers and Monte Carlo estimators: law checks with 3-SE bands."""

import math

import numpy as np
import pytest

from ibrownian import sampling
from ibrownian.densities import covariance_r, drift_matrix
from ibrownian.sampling import (
    MCEstimate,
    PathSample,
    _integrated_w1sq,
    _path_normals,
    closed_form_quadratic_laplace,
    covariance_root,
    mc_quadratic_laplace,
    mc_transition_symmetry,
    path_generator,
    sample_w,
    sample_w_paths,
    sample_x,
    sample_x_paths,
)
from ibrownian.spectral import cross_correlation
from ibrownian import verification

from oracles import sequential_states

SMALL_PATHS = 20_000


def max_z(samples, targets):
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n)
    return np.max(np.abs(mean - np.asarray(targets)) / se)


class TestSeedProtocol:
    def test_same_substream_reproduces(self):
        a = path_generator(123, 5).standard_normal(10)
        b = path_generator(123, 5).standard_normal(10)
        assert np.array_equal(a, b)

    def test_distinct_substreams_differ(self):
        a = path_generator(123, 0).standard_normal(10)
        b = path_generator(123, 1).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            path_generator(1, -1)


def reference_normals(seed, first_path, n_paths, count):
    """The first `count` normals of each path, one path_generator per path."""
    return np.array([
        path_generator(seed, i).standard_normal(count)
        for i in range(first_path, first_path + n_paths)
    ])


class TestBlockSeeding:
    """The samplers' block seeder against numpy's own per-path seeding."""

    def test_many_consecutive_indices(self):
        got = _path_normals(20250808, 0, 100_000, 1, 1)[:, 0, 0]
        assert np.array_equal(got, reference_normals(20250808, 0, 100_000, 1)[:, 0])

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**128, 2**200]
    )
    def test_edge_seeds(self, seed):
        got = _path_normals(seed, 3, 5, 2, 3).reshape(5, 6)
        assert np.array_equal(got, reference_normals(seed, 3, 5, 6))

    def test_block_across_two_index_words(self):
        got = _path_normals(7, 2**32 - 3, 7, 1, 2)[:, 0, :]
        assert np.array_equal(got, reference_normals(7, 2**32 - 3, 7, 2))

    @pytest.mark.parametrize(
        "seed", [True, np.int64(5), np.uint64(2**64 - 1)], ids=["bool", "int64", "uint64-max"]
    )
    def test_numpy_and_bool_seeds_accepted(self, seed):
        # W_0(1) has unit variance and a root of exactly 1.0, so it is the
        # path's first normal.
        w = sample_w_paths(0, (1.0,), 3, seed)[:, 0, 0]
        assert np.array_equal(w, reference_normals(seed, 0, 3, 1)[:, 0])

    @pytest.mark.parametrize(
        "seed,first_path,error,match",
        [
            (-1, 0, ValueError, "expected non-negative integer"),
            (np.int64(-1), 0, ValueError, "expected non-negative integer"),
            (1, -1, ValueError, "non-negative"),
            (1.5, 0, TypeError, None),
            ("3", 0, TypeError, None),
        ],
    )
    def test_rejects_what_path_generator_rejects(self, seed, first_path, error, match):
        with pytest.raises(error):
            path_generator(seed, first_path)
        with pytest.raises(error, match=match):
            sample_w_paths(1, (1.0,), 2, seed, first_path=first_path)

    def test_uneven_batches_concatenate(self):
        times = (0.5, 1.0)
        full = sample_w_paths(1, times, 2500, 13, first_path=5)
        head = sample_w_paths(1, times, 1031, 13, first_path=5)
        tail = sample_w_paths(1, times, 1469, 13, first_path=1036)
        assert np.array_equal(full, np.concatenate([head, tail]))


# Grids for the kernel-vs-recursion checks: the CLI's `sample --t 10 --grid
# 20000`, an irregular grid, and 1e5 steps of 2**-10 (one distinct step, so
# the recursion builds its matrices once).
KERNEL_GRIDS = {
    "cli-20000": np.array([10.0 * j / 20_000 for j in range(1, 20_001)]),
    "random": np.cumsum(np.random.default_rng(2024).exponential(1e-3, 3000)),
    "1e5-steps": np.arange(1, 100_001) * 2.0**-10,
}
KERNEL_RTOL = 1e-12  # of each component's largest magnitude; measured up to 3e-14


def assert_matches_recursion(got, ref):
    """Component 0 bit for bit; the others within KERNEL_RTOL of their scale."""
    assert np.array_equal(got[..., 0], ref[..., 0])
    for m in range(1, ref.shape[-1]):
        scale = np.max(np.abs(ref[..., m]))
        assert np.max(np.abs(got[..., m] - ref[..., m])) <= KERNEL_RTOL * scale, m


class TestStepKernel:
    """The cumulative-sum kernel against the step-by-step recursion."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_recursion(self, n, grid):
        times = KERNEL_GRIDS[grid]
        paths = 1 if times.size > 50_000 else 2
        ref = sequential_states(n, times, _path_normals(17, 4, paths, times.size, n + 1))
        assert_matches_recursion(sample_w_paths(n, times, paths, 17, first_path=4), ref)

    def test_one_step_grid_is_bit_identical(self):
        # With one step there is no drift to reorder: every component is the
        # innovation, summed in covariance_root's column order.
        ref = sequential_states(5, (0.7,), _path_normals(3, 0, 50, 1, 6))
        assert np.array_equal(sample_w_paths(5, (0.7,), 50, 3), ref)

    @pytest.mark.parametrize("n", [0, 2])
    def test_x_paths_match_recursion(self, n):
        times = np.linspace(-4.0, 3.0, 701)
        ref = sequential_states(n, np.exp(times), _path_normals(5, 0, 3, times.size, n + 1))
        ref *= np.exp(-np.multiply.outer(times, np.arange(n + 1) + 0.5))
        assert_matches_recursion(sample_x_paths(n, times, 3, 5), ref)

    def test_uneven_batches_concatenate(self):
        times = np.linspace(0.1, 3.0, 40)
        full = sample_w_paths(2, times, 2500, 21)
        head = sample_w_paths(2, times, 1031, 21)
        tail = sample_w_paths(2, times, 1469, 21, first_path=1031)
        assert np.array_equal(full, np.concatenate([head, tail]))

    def test_laplace_integral_matches_recursion(self):
        grid = 128
        states = sequential_states(1, np.arange(1, grid + 1) / grid, _path_normals(9, 0, 4, grid, 2))
        ref = []
        for w1 in states[:, :, 1].tolist():
            acc, prev_sq = 0.0, 0.0
            for cur in w1:
                acc += 0.5 * (prev_sq + cur * cur) / grid
                prev_sq = cur * cur
            ref.append(acc)
        got = _integrated_w1sq.__wrapped__(4, grid, 9)
        assert got == pytest.approx(ref, rel=KERNEL_RTOL, abs=0)

    @pytest.mark.parametrize("chunk", [7, 333, 2500])
    def test_laplace_chunk_size_does_not_move_bits(self, chunk, monkeypatch):
        default = _integrated_w1sq.__wrapped__(2500, 128, 9)
        monkeypatch.setattr(sampling, "_LAPLACE_CHUNK", chunk)
        assert np.array_equal(_integrated_w1sq.__wrapped__(2500, 128, 9), default)


class TestCovarianceRoot:
    @pytest.mark.parametrize("n,t", [(0, 1.0), (1, 0.25), (3, 2.0), (6, 0.01), (6, 50.0)])
    def test_is_exact_root(self, n, t):
        root = covariance_root(n, t)
        assert root @ root.T == pytest.approx(covariance_r(n, t), rel=1e-12)

    def test_lower_triangular_positive_diagonal(self):
        root = covariance_root(4, 0.7)
        assert np.allclose(root, np.tril(root))
        assert np.all(np.diag(root) > 0)


class TestSampleW:
    def test_determinism(self):
        times = (0.5, 1.0, 2.0)
        assert sample_w(2, times, 99) == sample_w(2, times, 99)

    def test_single_path_matches_batch_head(self):
        times = (0.5, 1.0)
        one = sample_w(3, times, 7)
        batch = sample_w_paths(3, times, 4, 7)
        assert np.array_equal(one.states, batch[0])

    def test_batch_chunks_concatenate(self):
        times = (1.0,)
        full = sample_w_paths(1, times, 6, 11)
        tail = sample_w_paths(1, times, 3, 11, first_path=3)
        assert np.array_equal(full[3:], tail)

    def test_path_sample_invariants(self):
        s = sample_w(2, (0.5, 1.5), 3)
        assert s.states.shape == (2, 3)
        assert not s.states.flags.writeable
        with pytest.raises(ValueError):
            PathSample(order=1, times=np.array([1.0]), states=np.zeros((2, 2)), seed=0)

    def test_caller_times_array_not_frozen(self):
        caller_times = np.array([0.5, 1.0])
        sample_w(1, caller_times, 3)
        caller_times[0] = 0.25  # must still be writable

    @pytest.mark.parametrize(
        "times", [(), (0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.nan)]
    )
    def test_rejects_bad_times(self, times):
        with pytest.raises(ValueError):
            sample_w(1, times, 0)

    def test_brownian_increments(self):
        w = sample_w_paths(0, (0.5, 1.25), SMALL_PATHS, 101)[:, :, 0]
        increments = w[:, 1] - w[:, 0]
        assert max_z(increments[:, None], [0.0]) <= 3.0
        assert max_z((increments**2)[:, None], [0.75]) <= 3.0
        # increment independent of the past
        assert max_z((increments * w[:, 0])[:, None], [0.0]) <= 3.0

    def test_regression_on_past_is_drift(self):
        w = sample_w_paths(2, (1.0, 1.5), SMALL_PATHS, 55)
        cross = np.einsum("pj,pk->pjk", w[:, 1, :], w[:, 0, :])
        target = drift_matrix(2, 0.5) @ covariance_r(2, 1.0)
        assert max_z(cross.reshape(SMALL_PATHS, -1), target.ravel()) <= 3.0

    def test_renewal_step_law_independent_of_base_time(self):
        # the innovation of a step of lag dt has covariance R(dt) no matter
        # where the step starts
        n, dt = 2, 0.5
        rows, cols = np.triu_indices(n + 1)
        target = covariance_r(n, dt)[rows, cols]
        for i, s in enumerate((0.5, 2.0)):
            w = sample_w_paths(n, (s, s + dt), SMALL_PATHS, 120 + i)
            resid = w[:, 1, :] - w[:, 0, :] @ drift_matrix(n, dt).T
            products = resid[:, rows] * resid[:, cols]
            assert max_z(products, target) <= 3.0


class TestSampleX:
    def test_determinism_and_scaling(self):
        times = (-0.5, 0.0, 1.0)
        x = sample_x(2, times, 13)
        w = sample_w(2, np.exp(times), 13)
        k = np.arange(3)
        scale = np.exp(-np.multiply.outer(np.asarray(times), k + 0.5))
        assert np.allclose(x.states, w.states * scale, rtol=0, atol=0)

    def test_unit_variance_everywhere(self):
        x = sample_x_paths(0, (-2.0, 0.0, 3.0), SMALL_PATHS, 77)[:, :, 0]
        assert max_z(x**2, [1.0, 1.0, 1.0]) <= 3.0

    def test_lag_covariance_shift_invariant(self):
        tau = 0.8
        x = sample_x_paths(0, (0.0, tau, 3.0, 3.0 + tau), SMALL_PATHS, 31)[:, :, 0]
        early = x[:, 0] * x[:, 1]
        late = x[:, 2] * x[:, 3]
        se = math.hypot(early.std(ddof=1), late.std(ddof=1)) / math.sqrt(SMALL_PATHS)
        assert abs(early.mean() - late.mean()) <= 3.0 * se

    def test_lag0_cross_covariance_matches_spectral(self):
        n = 2
        x = sample_x_paths(n, (0.7,), 30_000, 19)[:, 0, :]
        rows, cols = np.triu_indices(n + 1)
        products = x[:, rows] * x[:, cols]
        targets = [float(cross_correlation(j, k).at_zero()) for j, k in zip(rows, cols)]
        assert max_z(products, targets) <= 3.0

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            sample_x(1, (1.0, 0.5), 0)
        with pytest.raises(ValueError):
            sample_x(1, (0.0, 800.0), 0)


class TestQuadraticLaplace:
    def test_closed_form_limits(self):
        assert closed_form_quadratic_laplace(0.0) == 1.0
        assert closed_form_quadratic_laplace(2.0) == pytest.approx(
            0.864994874467993, abs=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_quadratic_laplace(0.0, 1000, 128, 0)
        with pytest.raises(ValueError):
            mc_quadratic_laplace(1.0, 1000, 99, 0)
        with pytest.raises(ValueError):
            mc_quadratic_laplace(1.0, 1, 128, 0)
        with pytest.raises(ValueError):
            MCEstimate(0.5, 0.01, 1, 128, 0)

    def test_determinism(self):
        a = mc_quadratic_laplace(1.0, 2000, 128, 5)
        b = mc_quadratic_laplace(1.0, 2000, 128, 5)
        assert a == b

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_estimate_within_band(self, theta):
        est = mc_quadratic_laplace(theta, SMALL_PATHS, 256, 4242)
        allowance = 3.0 * est.std_error + 2.0 / est.grid_size
        assert abs(est.mean - closed_form_quadratic_laplace(theta)) <= allowance


class TestTransitionSymmetryMC:
    def test_order0_is_roundoff_clean(self):
        report = mc_transition_symmetry(0, 200, 1)
        assert report["pass"] and report["statistic"] < 1e-12

    def test_order2_within_bound(self):
        report = mc_transition_symmetry(2, 300, 2)
        assert set(report) == {"test", "statistic", "bound", "pass"}
        assert report["pass"] and report["statistic"] < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_transition_symmetry(7, 10, 0)
        with pytest.raises(ValueError):
            mc_transition_symmetry(2, 0, 0)


class TestVerificationSuites:
    def test_w_covariance_small(self):
        report = verification.check_w_covariance(order=2, n_paths=SMALL_PATHS, seed=42)
        assert report["pass"], report

    def test_x0_autocovariance_small(self):
        report = verification.check_x0_autocovariance(n_paths=SMALL_PATHS, seed=43)
        assert report["pass"], report

    def test_whiteness_small(self):
        report = verification.check_renewal_whiteness(n_paths=SMALL_PATHS, seed=44)
        assert report["pass"], report

    def test_chained_vs_direct_small(self):
        report = verification.check_chained_vs_direct(n_paths=SMALL_PATHS, seed=45)
        assert report["pass"], report

    def test_laplace_small(self):
        report = verification.check_quadratic_laplace(
            n_paths=SMALL_PATHS, grid_size=256, seed=46
        )
        assert report["pass"], report

    def test_suite_runner_shape(self):
        results = verification.run_suite("symmetry", seed=3)
        assert isinstance(results, list) and len(results) == 1
        assert set(results[0]) == {"test", "statistic", "bound", "pass"}
        with pytest.raises(ValueError):
            verification.run_suite("bogus")
