"""Exact samplers and Monte Carlo estimators: law checks with 3-SE bands."""

import ctypes
import math
import re
import tracemalloc

import mpmath
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
        "first_path", [2**33 - 3, 5 * 2**32 - 3, 2**64 - 3, 2**64 + 2**32 - 3]
    )
    def test_block_across_a_multiple_of_2_32(self, first_path):
        # The lowest index word wraps while a higher word steps.
        got = _path_normals(7, first_path, 7, 1, 2)[:, 0, :]
        assert np.array_equal(got, reference_normals(7, first_path, 7, 2))

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



M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def srandom_reference(init, seq):
    """PCG64's srandom in Python ints: (state low, state high, inc low, inc high)."""
    inc = (seq << 1 | 1) & M128
    state = ((inc + init) * PCG64_MULT + inc) & M128
    return [state & M64, state >> 64, inc & M64, inc >> 64]


def as_limbs(values):
    """128-bit ints as 4 uint64 arrays of 32-bit limbs, least significant first."""
    return [np.array([(v >> s) & M32 for v in values], dtype=np.uint64) for s in range(0, 128, 32)]


class TestStreamLoading:
    """PCG64 seeding in 32-bit limbs and the write into the C struct."""

    def check_srandom(self, inits, seqs):
        got = sampling._pcg64_srandom(as_limbs(inits), as_limbs(seqs))
        assert got.dtype == np.uint64 and got.shape == (len(inits), 4)
        assert got.tolist() == [srandom_reference(i, q) for i, q in zip(inits, seqs)]

    def test_srandom_random_inputs(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**32, size=(2, 5000, 4), dtype=np.uint64).tolist()
        inits, seqs = (
            [sum(w << (32 * k) for k, w in enumerate(row)) for row in side] for side in words
        )
        self.check_srandom(inits, seqs)

    def test_srandom_carry_chains(self):
        inv = pow(PCG64_MULT, -1, 2**128)
        edges = [0, 1, M32, 2**32, M64, 2**64, 2**96 - 1, 2**127, M128, PCG64_MULT, inv]
        inits = [a for a in edges for _ in edges]
        seqs = [b for _ in edges for b in edges]
        # inc + init at 0, at all ones and at MULT's inverse (state = 1 + inc).
        for seq in edges:
            inc = (seq << 1 | 1) & M128
            for base in (0, M128, inv, PCG64_MULT):
                inits.append((base - inc) & M128)
                seqs.append(seq)
        self.check_srandom(inits, seqs)

    def test_probe_finds_the_layout_of_this_numpy(self):
        assert sampling._pcg64_word_order() in ((0, 1, 2, 3), (1, 0, 3, 2))

    @pytest.mark.parametrize(
        "read_back,order", [((1, 2, 3, 5), (0, 1, 2, 3)), ((2, 1, 5, 3), (1, 0, 3, 2))],
        ids=["native", "emulated"],
    )
    def test_probe_picks_the_layout_it_reads(self, monkeypatch, read_back, order):
        # The probe sets the words (1, 2, 3, 5); a {high, low} build reads
        # each 128-bit word back with its halves swapped.
        words = (ctypes.c_uint64 * 4)(*read_back)
        monkeypatch.setattr(sampling, "_pcg64_words", lambda bits: words)
        assert sampling._pcg64_word_order.__wrapped__() == order

    def test_probe_rejects_an_unknown_layout(self, monkeypatch):
        garbage = (ctypes.c_uint64 * 4)(7, 7, 7, 7)
        monkeypatch.setattr(sampling, "_pcg64_words", lambda bits: garbage)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}"):
            sampling._pcg64_word_order.__wrapped__()

    def test_loaded_stream_has_the_seeded_state(self):
        # The words written into the struct read back through the public
        # getter as the state path_generator seeds.
        bits = np.random.PCG64(0)
        words = next(sampling._pcg64_states(sampling._seed_words(2**70 + 3), 2**32 - 1, 2**32))
        words = np.ascontiguousarray(words[:, sampling._pcg64_word_order()])
        memoryview(sampling._pcg64_words(bits)).cast("B")[:] = memoryview(words).cast("B")
        assert bits.state == path_generator(2**70 + 3, 2**32 - 1).bit_generator.state

    def test_path_normals_writes_the_words_in_the_probed_order(self, monkeypatch):
        # Loaded in the other layout's order, struct slot p gets word other[p]
        # of each path and is read as word real[p]: the draws are those of
        # that permuted (state, inc), set through the public setter.
        real = sampling._pcg64_word_order()
        other = (1, 0, 3, 2) if real == (0, 1, 2, 3) else (0, 1, 2, 3)
        monkeypatch.setattr(sampling, "_pcg64_word_order", lambda: other)
        got = _path_normals(5, 10, 3, 1, 4)[:, 0, :]
        assert not np.array_equal(got, reference_normals(5, 10, 3, 4))
        for i, row in enumerate(got, start=10):
            ref = path_generator(5, i).bit_generator.state["state"]
            words = [ref["state"] & M64, ref["state"] >> 64, ref["inc"] & M64, ref["inc"] >> 64]
            seen = [0] * 4
            for p in range(4):
                seen[real[p]] = words[other[p]]
            bits = np.random.PCG64(0)
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": seen[1] << 64 | seen[0], "inc": seen[3] << 64 | seen[2]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            assert np.array_equal(row, np.random.Generator(bits).standard_normal(4))

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

    @pytest.mark.parametrize("paths_per_block", [1, 7, 333, 2500])
    def test_laplace_chunk_size_does_not_move_bits(self, paths_per_block, monkeypatch):
        default = _integrated_w1sq.__wrapped__(2500, 128, 9)
        monkeypatch.setattr(sampling, "_LAPLACE_BLOCK_BYTES", paths_per_block * 128 * 2 * 8)
        assert np.array_equal(_integrated_w1sq.__wrapped__(2500, 128, 9), default)

    def test_laplace_grid_beyond_budget_keeps_bits(self, monkeypatch):
        grid = sampling._LAPLACE_BLOCK_BYTES // 16 + 1  # one path per block
        one_per_block = _integrated_w1sq.__wrapped__(3, grid, 9)
        monkeypatch.setattr(sampling, "_LAPLACE_BLOCK_BYTES", 3 * grid * 16)
        assert np.array_equal(_integrated_w1sq.__wrapped__(3, grid, 9), one_per_block)

    def test_laplace_memory_is_bounded_by_the_block_budget(self):
        _integrated_w1sq.__wrapped__(2, 128, 9)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            _integrated_w1sq.__wrapped__(300, 4096, 9)  # 19.7 MB of normals in all
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sampling._LAPLACE_BLOCK_BYTES

    def test_path_normals_fills_out(self):
        buf = np.empty((5, 3, 2))
        assert _path_normals(4, 2, 5, 3, 2, out=buf) is buf
        assert np.array_equal(buf, _path_normals(4, 2, 5, 3, 2))
        with pytest.raises(ValueError, match="shape"):
            _path_normals(4, 2, 5, 3, 2, out=np.empty((4, 3, 2)))


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

    @pytest.mark.parametrize("n", range(9))
    def test_finite_up_to_the_last_time_and_rejected_past_it(self, n):
        # e^t is raised to the power k + 1/2, so the last accepted time is
        # 700 / max(1, n + 1/2); pytest turns an overflow warning into a failure.
        last = 700.0 / max(1.0, n + 0.5)
        for times in [(0.0, last), np.linspace(-5.0, last, 50), (last - 1e-6, last)]:
            assert np.all(np.isfinite(sample_x_paths(n, times, 20, 3)))
        with pytest.raises(ValueError, match="overflow the exponential clock"):
            sample_x(n, (0.0, 1.02 * last), 0)


class TestQuadraticLaplace:
    def test_closed_form_limits(self):
        assert closed_form_quadratic_laplace(0.0) == 1.0
        assert closed_form_quadratic_laplace(2.0) == pytest.approx(
            0.864994874467993, abs=1e-14
        )

    @pytest.mark.parametrize("theta", [2.6e5, 1e6, 1.0096e6, 1e200])
    def test_closed_form_where_cosh_squared_overflows(self, theta):
        # 1.0096e6 gives a subnormal value, 1e200 underflows to 0.0.
        def exact(u):
            return mpmath.sqrt(2 / (mpmath.cosh(u) ** 2 + mpmath.cos(u) ** 2))

        value = closed_form_quadratic_laplace(theta)
        u = math.sqrt(theta / 2.0)
        with mpmath.workdps(60):
            at_double_u = float(exact(mpmath.mpf(u)))
            at_theta = float(exact(mpmath.sqrt(mpmath.mpf(theta) / 2)))
        # Within 2 ulps of the function at the double u that the code forms;
        # rounding u itself moves the value by up to a relative ulp(u) / 2.
        assert abs(value - at_double_u) <= 2 * math.ulp(at_double_u)
        assert value == pytest.approx(at_theta, rel=math.ulp(u), abs=4 * math.ulp(0.0))

    @pytest.mark.parametrize("theta", [math.inf, math.nan, -1.0])
    def test_theta_outside_its_range_is_rejected(self, theta):
        with pytest.raises(ValueError):
            closed_form_quadratic_laplace(theta)
        with pytest.raises(ValueError):
            mc_quadratic_laplace(theta, 1000, 128, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_quadratic_laplace(0.0, 1000, 128, 0)
        with pytest.raises(ValueError):
            mc_quadratic_laplace(1.0, 1000, 99, 0)
        with pytest.raises(ValueError):
            mc_quadratic_laplace(1.0, 1, 128, 0)
        with pytest.raises(ValueError):
            MCEstimate(0.5, 0.01, 1, 128, 0)

    @pytest.mark.parametrize(
        "n_paths,seed", [(2, 0), (3, 1), (17, 5), (1000, 7), (5000, 2**40)]
    )
    def test_variance_matches_scalar_form(self, n_paths, seed):
        # The estimator sums squared deviations from one array; the bits are
        # those of squaring each numpy scalar deviation.
        est = mc_quadratic_laplace(1.5, n_paths, 100, seed)
        vals = np.exp(-(1.5 * 1.5 / 2.0) * _integrated_w1sq(n_paths, 100, seed))
        mean = math.fsum(vals) / n_paths
        var = math.fsum((v - mean) ** 2 for v in vals) / (n_paths - 1)
        assert est.mean == mean and est.std_error == math.sqrt(var / n_paths)

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
