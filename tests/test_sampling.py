"""Exact samplers and Monte Carlo estimators: law checks with 3-SE bands."""

import ctypes
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from ibrownian import sampling
from ibrownian.densities import covariance_r, drift_matrix, log_transition_density, star_vector
from ibrownian.sampling import (
    MCEstimate,
    PathSample,
    _integrated_w1sq,
    _path_normals,
    closed_form_quadratic_laplace,
    covariance_root,
    mc_quadratic_laplace,
    mc_quadratic_laplace_thetas,
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


@pytest.mark.windows
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


def carry_chain_inputs():
    """(inits, seqs) at the carry-chain edges of srandom's 128-bit arithmetic."""
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
    return inits, seqs


@pytest.mark.windows
class TestStreamLoading:
    """PCG64 seeding in one Python integer per block and the write into the C struct."""

    def srandom(self, inits, seqs):
        halves = [[np.array([v >> s & M64 for v in side], dtype=np.uint64) for s in (0, 64)]
                  for side in (inits, seqs)]
        got = sampling._pcg64_srandom(*halves)
        assert got.dtype == np.uint64 and got.shape == (len(inits), 4)
        return got

    def check_srandom(self, inits, seqs):
        got = self.srandom(inits, seqs)
        assert got.tolist() == [srandom_reference(i, q) for i, q in zip(inits, seqs)]

    def test_srandom_random_inputs(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**32, size=(2, 5000, 4), dtype=np.uint64).tolist()
        inits, seqs = (
            [sum(w << (32 * k) for k, w in enumerate(row)) for row in side] for side in words
        )
        self.check_srandom(inits, seqs)

    def test_srandom_carry_chains(self):
        self.check_srandom(*carry_chain_inputs())

    def test_srandom_lanes_do_not_carry_into_each_other(self):
        # Each path's 256-bit lane of the block product equals that path
        # seeded alone, at every carry-chain edge and in either neighbour.
        inits, seqs = carry_chain_inputs()
        block = self.srandom(inits, seqs)
        alone = np.concatenate([self.srandom([i], [q]) for i, q in zip(inits, seqs)])
        assert np.array_equal(block, alone)
        assert np.array_equal(self.srandom(inits[::-1], seqs[::-1]), alone[::-1])

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
        got = _integrated_w1sq(4, grid, 9)
        assert got == pytest.approx(ref, rel=KERNEL_RTOL, abs=0)

    @pytest.mark.parametrize("paths_per_block", [1, 7, 333, 2500])
    def test_laplace_chunk_size_does_not_move_bits(self, paths_per_block, monkeypatch):
        default = _integrated_w1sq(2500, 128, 9)
        monkeypatch.setattr(sampling, "_LAPLACE_BLOCK_BYTES", paths_per_block * 128 * 2 * 8)
        assert np.array_equal(_integrated_w1sq(2500, 128, 9), default)

    def test_laplace_grid_beyond_budget_keeps_bits(self, monkeypatch):
        grid = sampling._LAPLACE_BLOCK_BYTES // 16 + 1  # one path per block
        one_per_block = _integrated_w1sq(3, grid, 9)
        monkeypatch.setattr(sampling, "_LAPLACE_BLOCK_BYTES", 3 * grid * 16)
        assert np.array_equal(_integrated_w1sq(3, grid, 9), one_per_block)

    @pytest.mark.windows
    @pytest.mark.parametrize("steps", [1, 2, 37])
    @pytest.mark.parametrize("n", range(6))
    def test_kernel_scratch_keeps_the_bits(self, n, steps):
        # Irregular steps over six orders of magnitude; the scratch is a view
        # of the first rows of a larger buffer, as for a worker's last block.
        rng = np.random.default_rng(100 * n + steps)
        h = rng.uniform(0.5, 2.0, steps) * 10.0 ** rng.integers(-4, 3, steps)
        zs = rng.standard_normal((7, steps, n + 1))
        plain = zs.copy()
        sampling._states_from_normals(plain, h, np.empty((7, steps)))
        buffer = np.full((11, steps), np.nan)
        for paths in (7, 3):
            got = zs[:paths].copy()
            sampling._states_from_normals(got, h, buffer[:paths])
            assert np.array_equal(got, plain[:paths]), paths

    @pytest.mark.windows
    def test_carried_state_seeds_the_first_step(self):
        # A grid cut in two, the second part started from the first part's
        # last state, is the whole grid in one call, bit for bit.
        rng = np.random.default_rng(5)
        h = rng.uniform(0.5, 2.0, 40) * 10.0 ** rng.integers(-3, 2, 40)
        zs = rng.standard_normal((3, 40, 4))
        whole = zs.copy()
        sampling._states_from_normals(whole, h, np.empty((3, 40)))
        cut = zs.copy()
        sampling._states_from_normals(cut[:, :17], h[:17], np.empty((3, 17)))
        sampling._states_from_normals(cut[:, 17:], h[17:], np.empty((3, 23)), cut[:, 16])
        assert np.array_equal(cut, whole)

    def test_laplace_memory_is_bounded_by_the_block_budget(self):
        _integrated_w1sq(2, 128, 9)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            _integrated_w1sq(300, 4096, 9)  # 19.7 MB of normals in all
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sampling._LAPLACE_BLOCK_BYTES



BLOCK = sampling._BLOCK_PATH_STEPS


@pytest.fixture
def one_block(monkeypatch):
    """Call a sampler with every path and step in a single kernel call."""

    def call(sampler, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_BLOCK_PATH_STEPS", 1 << 62)
            return sampler(*args, **kwargs)

    return call


class TestStepBlocks:
    """sample_w_paths in blocks of path-steps against one block, bit for bit."""

    @pytest.mark.windows
    @pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_long_grid_is_one_block_bit_for_bit(self, steps, one_block):
        times = np.cumsum(np.random.default_rng(steps).exponential(1e-3, steps))
        got = sample_w_paths(2, times, 1, 8)
        assert np.array_equal(got, one_block(sample_w_paths, 2, times, 1, 8))
        assert_matches_recursion(got, sequential_states(2, times, _path_normals(8, 0, 1, steps, 3)))

    @pytest.mark.windows
    @pytest.mark.parametrize("steps", [2, 3, 4])
    def test_many_paths_of_few_steps_are_one_block_bit_for_bit(self, steps, one_block):
        times = np.linspace(0.3, 2.0, steps)
        got = sample_w_paths(3, times, BLOCK + 7, 4)
        assert np.array_equal(got, one_block(sample_w_paths, 3, times, BLOCK + 7, 4))

    @pytest.mark.windows
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_every_order_is_one_block_bit_for_bit(self, n, one_block):
        times = np.linspace(1e-3, 5.0, 2 * BLOCK + 3)
        got = sample_w_paths(n, times, 2, 6, first_path=5)
        assert np.array_equal(got, one_block(sample_w_paths, n, times, 2, 6, first_path=5))

    @pytest.mark.windows
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_x_paths_are_one_block_bit_for_bit(self, n, one_block):
        times = np.linspace(-2.0, 3.0, 2 * BLOCK + 3)
        got = sample_x_paths(n, times, 2, 6, first_path=3)
        assert np.array_equal(got, one_block(sample_x_paths, n, times, 2, 6, first_path=3))

    def test_memory_is_the_output_plus_a_few_blocks(self):
        times = np.arange(1, 200_001) * 5e-5
        sample_w_paths(2, times[:10], 1, 3)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            sample_w_paths(2, times, 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output, block = times.size * 3 * 8, BLOCK * 3 * 8
        assert peak < output + 8 * block, (peak, output)


class BlockFailure(Exception):
    pass


def public_layer_codes():
    """Code objects of what bench/tracer.py wraps: the public functions and
    public methods that each ibrownian layer module defines."""
    codes = set()
    for layer in ("cli", "verification", "sampling", "densities", "exact", "spectral"):
        mod = importlib.import_module(f"ibrownian.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                codes.update(
                    meth.__code__ for meth_name, meth in vars(obj).items()
                    if not meth_name.startswith("_") and inspect.isfunction(meth)
                )
            elif callable(obj):
                codes.add(inspect.unwrap(obj).__code__)
    return codes


@pytest.fixture
def started(monkeypatch):
    """Count the threads the sampling module starts."""
    count = []
    real = threading.Thread

    def spy(*args, **kwargs):
        count.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling.threading, "Thread", spy)
    return count


@pytest.mark.windows
class TestLaplaceWorkers:
    """The Laplace path set on several threads: same bits, one memory budget."""

    # 2500 and 1100 paths divide into no block size of grid 128 (1024, 512,
    # 341 and 128 paths for 1, 2, 3 and 8 workers); a grid beyond the budget
    # makes one path per block.  The worker ranges of 3001 paths (and those
    # of 2049 for 3 workers) start inside a 1024-path seed block and inside
    # a block of the worker before.
    @pytest.mark.parametrize(
        "n_paths,grid", [(2500, 128), (1100, 128), (3, 131_073), (2049, 128), (3001, 128)]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_worker_count_does_not_move_bits(self, workers, n_paths, grid, monkeypatch, started):
        h = np.full(grid, 1.0 / grid)
        states = _path_normals(9, 0, n_paths, grid, 2)
        sampling._states_from_normals(states, h, np.empty((n_paths, grid)))
        sq = np.square(states[:, :, 1])
        direct = (sq.sum(axis=1) - 0.5 * sq[:, -1]) * h[0]
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        assert np.array_equal(_integrated_w1sq(n_paths, grid, 9), direct)
        assert len(started) == min(workers, n_paths) - 1

    def test_worker_count_does_not_move_bits_at_bench_size(self, monkeypatch, started):
        # Blocks of 64, 42 and 16 paths; the ranges start at 5000, 3333 and
        # 1250 k, inside seed blocks and budget blocks alike.
        monkeypatch.setattr(sampling, "_WORKERS", 1)
        one = _integrated_w1sq(10_000, 1024, 9)
        for workers in (2, 3, 8):
            monkeypatch.setattr(sampling, "_WORKERS", workers)
            assert np.array_equal(_integrated_w1sq(10_000, 1024, 9), one), workers
        assert len(started) == 1 + 2 + 7

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_worker_seeds_its_range_once(self, workers, monkeypatch):
        sampling._pcg64_word_order()  # the probe's own PCG64, once per process
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        built, runs = [], []
        real_pcg64, real_states = np.random.PCG64, sampling._pcg64_states

        def pcg64(*args, **kwargs):
            built.append(1)
            return real_pcg64(*args, **kwargs)

        def states(seed_words, start, stop):
            runs.append((start, stop))
            return real_states(seed_words, start, stop)

        monkeypatch.setattr(sampling.np.random, "PCG64", pcg64)
        monkeypatch.setattr(sampling, "_pcg64_states", states)
        # 3001 paths at grid 128: each worker has several budget blocks, and
        # all but the first worker's range cross a multiple of 1024.
        _integrated_w1sq(3001, 128, 9)
        bounds = [k * 3001 // workers for k in range(workers + 1)]
        assert sorted(runs) == list(zip(bounds, bounds[1:]))
        assert len(built) == workers

    def test_worker_count_is_the_usable_cpus_at_most_8(self):
        # Where os.sched_getaffinity is missing (Windows, macOS) the count
        # comes from os.cpu_count(); a fresh interpreter takes that branch.
        code = (
            "import os\n"
            "if hasattr(os, 'sched_getaffinity'): del os.sched_getaffinity\n"
            "from ibrownian import sampling\n"
            "print(sampling._WORKERS)"
        )
        src = os.path.dirname(os.path.dirname(sampling.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == min(8, os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert sampling._WORKERS == min(8, len(os.sched_getaffinity(0)))

    def test_more_workers_than_cpus_under_fast_thread_switching(self, monkeypatch, started):
        monkeypatch.setattr(sampling, "_WORKERS", 1)
        one = _integrated_w1sq(400, 128, 9)
        monkeypatch.setattr(sampling, "_WORKERS", 8)
        monkeypatch.setattr(sampling, "_LAPLACE_BLOCK_BYTES", 8 * 3 * 128 * 16)  # 3 paths per block
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _integrated_w1sq(400, 128, 9)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 7
        assert np.array_equal(got, one)

    @pytest.mark.parametrize("n_paths", [2, 100, 1022])
    def test_run_under_one_block_per_worker_starts_no_thread(self, n_paths, monkeypatch, started):
        monkeypatch.setattr(sampling, "_WORKERS", 3)
        got = _integrated_w1sq(n_paths, 128, 9)
        assert not started
        assert np.array_equal(got, _integrated_w1sq(2500, 128, 9)[:n_paths])

    def test_memory_is_one_budget_across_workers(self, monkeypatch, started):
        monkeypatch.setattr(sampling, "_WORKERS", 3)
        _integrated_w1sq(2, 128, 9)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            _integrated_w1sq(300, 4096, 9)  # 19.7 MB of normals in all
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == 2
        assert peak < 3 * sampling._LAPLACE_BLOCK_BYTES

    def test_workers_use_their_squares_buffer_as_kernel_scratch(self, monkeypatch, started):
        # 2 workers hold 2 MiB of normals and 1 MiB of squares; a worker that
        # allocated the kernel's two (paths, steps) temporaries per block
        # would add 1 MiB each (5.96 MB in all before the scratch).
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        _integrated_w1sq(100, 1024, 7)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            _integrated_w1sq(10_000, 1024, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == 1
        assert peak < 4.5e6, peak

    # 2 workers at grid 128 take paths [0, 1024) and [1024, 2048) in blocks
    # of 512: the block at 512 is worker 0's (the caller's) second, the block
    # at 1024 worker 1's (a thread's) first.  The kernel, called once per
    # block, knows a block by the first normal of its first path.
    @pytest.mark.parametrize("failing_start", [512, 1024])
    def test_failing_worker_fails_the_call(self, failing_start, monkeypatch):
        monkeypatch.setattr(sampling, "_WORKERS", 1)
        expected = _integrated_w1sq(2048, 128, 9)
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        path_of = {z: i for i, z in enumerate(_path_normals(9, 0, 2048, 1, 1)[:, 0, 0].tolist())}
        real, calls, failed = sampling._states_from_normals, [], []

        def fail_once(zs, *args):
            start = path_of[float(zs[0, 0, 0])]
            calls.append(start)
            if start == failing_start and not failed:
                failed.append(threading.current_thread() is threading.main_thread())
                raise BlockFailure(start)
            return real(zs, *args)

        monkeypatch.setattr(sampling, "_states_from_normals", fail_once)
        with pytest.raises(BlockFailure, match=str(failing_start)):
            _integrated_w1sq(2048, 128, 9)
        assert failed == [failing_start == 512]  # in the caller, else in the thread
        del calls[:]
        assert np.array_equal(_integrated_w1sq(2048, 128, 9), expected)
        assert sorted(calls) == list(range(0, 2048, 512))  # recomputed, all blocks

    def test_no_public_function_runs_off_the_main_thread(self, monkeypatch, started):
        # bench/tracer.py wraps every public function in a span and keeps one
        # span stack per process, so only the main thread may call them.
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        public = public_layer_codes()
        main = threading.get_ident()
        off_main = set()

        def profile(frame, event, arg):
            if event == "call" and threading.get_ident() != main:
                off_main.add(frame.f_code)

        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            verification.run_suite("all", n_paths=3000)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        assert started, "the laplace suite ran on one thread"
        assert sampling._w1sq_blocks.__code__ in off_main
        assert not off_main & public, sorted(code.co_name for code in off_main & public)


@pytest.mark.windows
class TestSharedLaplacePathSet:
    """One path set per call serves every theta; nothing is kept between calls.

    3001 paths at grid 128 on 2 workers: the path set is made on a thread too.
    """

    @pytest.fixture
    def path_sets(self, monkeypatch):
        """The arguments of every path set made, on 2 workers."""
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        made, real = [], sampling._integrated_w1sq

        def spy(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(sampling, "_integrated_w1sq", spy)
        return made

    @pytest.mark.parametrize(
        "thetas", [(0.5, 1.0, 2.0), (2.0, 0.5, 1.0), (0.3, 2.5, 1.0, 0.3), (1.0, 1.0)]
    )
    def test_check_estimates_are_separate_calls(self, thetas, path_sets, started, monkeypatch):
        got, real = [], verification.mc_quadratic_laplace_thetas

        def record(*args):
            got.extend(real(*args))
            return got

        monkeypatch.setattr(verification, "mc_quadratic_laplace_thetas", record)
        report = verification.check_quadratic_laplace(thetas, n_paths=3001, grid_size=128, seed=9)
        assert path_sets == [(3001, 128, 9)]
        assert len(started) == 1
        separate = [mc_quadratic_laplace(theta, 3001, 128, 9) for theta in thetas]
        assert len(path_sets) == 1 + len(thetas)
        assert got == separate
        worst = max(
            abs(est.mean - closed_form_quadratic_laplace(theta)) / (3.0 * est.std_error + 2.0 / 128)
            for theta, est in zip(thetas, separate)
        )
        assert report["statistic"] == worst

    def test_each_call_makes_its_own_path_set(self, monkeypatch, started):
        monkeypatch.setattr(sampling, "_WORKERS", 2)
        ranges, real = [], sampling._w1sq_blocks

        def count(seed, h, start, stop, *buffers):
            ranges.append((start, stop))
            return real(seed, h, start, stop, *buffers)

        monkeypatch.setattr(sampling, "_w1sq_blocks", count)
        first = _integrated_w1sq(3001, 128, 9)
        assert sorted(ranges) == [(0, 1500), (1500, 3001)]
        second = _integrated_w1sq(3001, 128, 9)
        assert sorted(ranges) == [(0, 1500), (0, 1500), (1500, 3001), (1500, 3001)]
        assert len(started) == 2
        assert first is not second and np.array_equal(first, second)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_theta_anywhere_raises_before_sampling(self, bad, position, path_sets):
        thetas = [0.5, 1.0, 2.0]
        thetas[position] = bad
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            mc_quadratic_laplace_thetas(thetas, 3001, 128, 9)
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            verification.check_quadratic_laplace(thetas, n_paths=3001, grid_size=128, seed=9)
        assert path_sets == []

    def test_empty_thetas_raise_before_sampling(self, path_sets, monkeypatch):
        with pytest.raises(ValueError, match="at least one theta"):
            mc_quadratic_laplace_thetas((), 3001, 128, 9)
        with pytest.raises(ValueError, match="at least one theta"):
            verification.check_quadratic_laplace((), n_paths=3001, grid_size=128, seed=9)
        for name in verification.SUITES:  # run_suite checks before any suite runs
            monkeypatch.setitem(verification.SUITES, name, None)
        for suite in ("laplace", "all"):
            with pytest.raises(ValueError, match="at least one theta"):
                verification.run_suite(suite, n_paths=3001, grid_size=128, seed=9, thetas=())
        assert path_sets == []


@pytest.mark.parametrize("call", [
    lambda: sample_w_paths(1, (1.0,), 2.5, 7),
    lambda: mc_quadratic_laplace(1.0, 2.5, 100, 7),
    lambda: mc_quadratic_laplace(1.0, 10, 100.5, 7),
    lambda: mc_transition_symmetry(2, 1.5, 1),
], ids=["sample_w_paths-n_paths", "laplace-n_paths", "laplace-grid_size", "symmetry-trials"])
def test_non_integer_count_raises_value_error(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


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

    def test_order_above_170_raises_before_any_stream(self, monkeypatch):
        # 171! does not convert to a float, which the kernel's drift needs.
        def no_streams(*args):
            raise AssertionError("streams seeded for an order that is rejected")

        monkeypatch.setattr(sampling, "_path_normals", no_streams)
        for n in (171, 200):
            with pytest.raises(ValueError, match="at most 170"):
                sample_w_paths(n, (1.0,), 1, 0)
            with pytest.raises(ValueError, match="at most 170"):
                sample_x(n, (0.0,), 0)

    @pytest.mark.parametrize("n, times", [(3, (1e300, 1e301)), (1, (1e300,)), (170, (1e3,))])
    def test_states_beyond_the_float_range_raise_without_warning(self, n, times):
        # A warning would be an error here (filterwarnings in pyproject.toml).
        with pytest.raises(ValueError, match="beyond the float range"):
            sample_w_paths(n, times, 2, 0)

    @pytest.mark.parametrize("n, times", [(0, (1e-300, 1e300)), (2, (0.5, 3.0)), (170, (1.0, 2.0))])
    def test_finite_states_keep_the_kernel_bits(self, n, times):
        states = sample_w_paths(n, times, 3, 5)
        direct = _path_normals(5, 0, 3, len(times), n + 1)
        sampling._states_from_normals(direct, np.diff(np.asarray(times), prepend=0.0),
                                      np.empty((3, len(times))))
        assert np.isfinite(states).all()
        assert states.tobytes() == direct.tobytes()


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

    @pytest.mark.windows
    @pytest.mark.parametrize("n", range(9))
    def test_finite_down_to_the_first_time_and_rejected_before_it(self, n):
        # e^-t is raised to the power k + 1/2 too, so the first accepted time
        # is -700 / max(1, n + 1/2); every warning is an error here.
        first = -700.0 / max(1.0, n + 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(sample_x_paths(n, (first, 0.0), 20, 3)))
        with pytest.raises(ValueError, match="overflow the exponential clock"):
            sample_x(n, (1.02 * first, 0.0), 0)

    @pytest.mark.windows
    def test_early_times_raise_instead_of_nan_or_a_zero_clock(self):
        # e^(2.5 * 300) overflowed into NaN; e^-800 underflowed to a clock
        # time of 0, which was reported as a non-positive first time.
        with pytest.raises(ValueError, match="overflow the exponential clock"):
            sample_x_paths(2, (-300.0, 0.0), 2, 1)
        with pytest.raises(ValueError, match="overflow the exponential clock"):
            sample_x(0, (-800.0, 0.0), 0)


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

    # The report reads 0.0 at seeds like these (forward and flipped agree
    # exactly), so it would not show a drift of the loop from the public
    # functions: each trial's pair is checked against them, bit for bit.
    @pytest.mark.windows
    @pytest.mark.parametrize("seed", [1, 2, 42])
    @pytest.mark.parametrize("n", range(7))
    def test_each_trial_is_the_public_density_pair(self, n, seed, monkeypatch):
        real, got = sampling._log_transition_density, []

        def record(w, a, t):
            got.append(real(w, a, t))
            return got[-1]

        monkeypatch.setattr(sampling, "_log_transition_density", record)
        report = mc_transition_symmetry(n, 200, seed)
        rng = path_generator(seed, 0)
        expected, worst = [], 0.0
        for _ in range(200):
            t = 10.0 ** rng.uniform(-1.0, 1.0)
            root = covariance_root(n, t)
            a = root @ rng.standard_normal(n + 1)
            w = drift_matrix(n, t) @ a + root @ rng.standard_normal(n + 1)
            forward = log_transition_density(w, a, t)
            flipped = log_transition_density(star_vector(a), star_vector(w), t)
            expected += [forward, flipped]
            worst = max(worst, abs(math.expm1(flipped - forward)))
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert report["statistic"] == worst

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

    def test_x0_autocovariance_needs_a_lag(self, monkeypatch):
        monkeypatch.setattr(verification, "sample_x_paths", None)  # must not be called
        with pytest.raises(ValueError, match="at least one lag"):
            verification.check_x0_autocovariance(taus=())

    def test_suite_runner_shape(self):
        results = verification.run_suite("symmetry", seed=3)
        assert isinstance(results, list) and len(results) == 1
        assert set(results[0]) == {"test", "statistic", "bound", "pass"}
        with pytest.raises(ValueError):
            verification.run_suite("bogus")

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError), ("7", TypeError)])
    def test_master_seed_is_checked_before_any_suite(self, seed, error, monkeypatch):
        monkeypatch.setitem(verification.SUITES, "chained", None)  # must not be called
        with pytest.raises(error, match="seed"):
            verification.run_suite("chained", seed=seed)

    # The moment suites build their products one column at a time and sum
    # each column once; their statistics must keep the bits of numpy's
    # gather, broadcast, mean and std forms, which the reports print.
    @pytest.mark.windows
    @pytest.mark.parametrize("seed", [1, 2, 42])
    @pytest.mark.parametrize("n_paths", [2, 3, 1001])
    def test_moment_statistics_keep_the_plain_numpy_bits(self, n_paths, seed):
        def mean_and_se(products):
            return products.mean(axis=0), products.std(axis=0, ddof=1) / math.sqrt(n_paths)

        def max_z(products, targets):
            mean, se = mean_and_se(products)
            return float(np.max(np.abs(mean - targets) / se))

        rows, cols = np.triu_indices(4)
        w = sample_w_paths(3, (1.0,), n_paths, seed)[:, 0, :]
        w_cov = max_z(w[:, rows] * w[:, cols], covariance_r(3, 1.0)[rows, cols])
        x = sample_x_paths(0, (0.0, 0.5, 1.0, 2.0), n_paths, seed)[:, :, 0]
        x0 = max_z(x[:, 0:1] * x[:, 1:], np.exp(-0.5 * np.array([0.5, 1.0, 2.0])))
        w = sample_w_paths(2, (1.0, 1.5), n_paths, seed)
        residual = w[:, 1, :] - w[:, 0, :] @ drift_matrix(2, 0.5).T
        white = max_z((residual[:, :, None] * w[:, 0, None, :]).reshape(n_paths, -1), 0.0)
        rows, cols = np.triu_indices(3)
        direct = sample_w_paths(2, (1.0,), n_paths, seed)[:, 0, :]
        chained = sample_w_paths(2, (0.5, 1.0), n_paths, seed + 1)[:, 1, :]
        mean_d, se_d = mean_and_se(direct[:, rows] * direct[:, cols])
        mean_c, se_c = mean_and_se(chained[:, rows] * chained[:, cols])
        two_sample = float(np.max(np.abs(mean_d - mean_c) / np.hypot(se_d, se_c)))
        got = [
            verification.check_w_covariance(n_paths=n_paths, seed=seed),
            verification.check_x0_autocovariance(n_paths=n_paths, seed=seed),
            verification.check_renewal_whiteness(n_paths=n_paths, seed=seed),
            verification.check_chained_vs_direct(n_paths=n_paths, seed=seed),
        ]
        expected = [w_cov, x0, white, two_sample]
        assert [r["statistic"].hex() for r in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("n_paths", [1, 0, -3])
    def test_path_count_is_checked_before_any_suite(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be at least 2"):
            verification.run_suite("w-covariance", n_paths=n_paths)

    @pytest.mark.parametrize("thetas,grid_size,match", [
        ((-1.0,), 1024, "theta"), ((0.0,), 1024, "theta"), ((math.nan,), 1024, "theta"),
        ((math.inf,), 1024, "theta"), (None, 50, "grid_size must be at least 100"),
    ], ids=["theta-negative", "theta-zero", "theta-nan", "theta-inf", "grid-50"])
    def test_laplace_arguments_are_checked_before_any_suite(self, thetas, grid_size, match,
                                                             monkeypatch):
        for name in verification.SUITES:
            monkeypatch.setitem(verification.SUITES, name, None)  # none may be called
        with pytest.raises(ValueError, match=match):
            verification.run_suite("all", thetas=thetas, grid_size=grid_size)

    # Only the laplace suite reads the grid and the thetas.
    @pytest.mark.parametrize("kwargs", [{"grid_size": 50}, {"thetas": (-1.0,)}])
    def test_other_suites_ignore_the_laplace_arguments(self, kwargs):
        (report,) = verification.run_suite("whiteness", n_paths=100, **kwargs)
        assert set(report) == {"test", "statistic", "bound", "pass"}
