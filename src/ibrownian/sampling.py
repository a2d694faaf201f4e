"""Exact joint path sampling and Monte Carlo verification estimators.

Sampling is exact in law, not a discretization: the state vector is a
Gauss-Markov process, so a path over any strictly increasing time grid is
generated by drawing the first state from its marginal normal law and each
later state from the closed-form conditional normal law given its
predecessor.  There is no step-size error to tune away.

The lower-triangular square root of the covariance comes from the exact
factorization

    chol(R(t)) = T^-1(t) A^-1 Lambda^-1/2

(diagonal scaling times an exact rational triangle times a diagonal), so it
exists and is accurate for every t and order even though R(t) itself is a
Hilbert-type matrix that defeats floating-point Cholesky well before order
ten.  This factored root is the only path-sampling route used here.

Seed protocol (part of the external contract): a run is identified by a
master seed, any non-negative integer, and path number i draws exclusively
from the numpy generator seeded with

    SeedSequence(entropy=master_seed, spawn_key=(i,))

so per-path streams are independent, reproducible, and can be generated in
any order or in parallel.  Accumulations use exact (compensated) summation,
making every estimate independent of chunking and worker scheduling.

Every sampler turns its normals into states with one kernel and no loop
over single time steps.  The drift over a lag h is unit lower-triangular
with entries h^(m-k)/(m-k)!, so component m of the state is one running sum
(numpy cumsum) along the path of its innovation plus the drift of the lower
components, which are computed first.  Each operation is elementwise across
paths or a running sum along one path, so a path's bits do not depend on
how the paths are batched: chunk sizes and first_path splits concatenate to
the same array.  sample_w_paths runs the kernel on blocks of a fixed number
of path-steps, each block of steps started from the last state before it,
so beyond its output a path costs a few blocks of memory.

The samplers do not build that generator once per path.  They compute the
seeded PCG64 (state, inc) of a whole block of paths at once, replaying
SeedSequence's hash mixing (NEP 19) on uint32 arrays and PCG64's seeding
(O'Neill 2014) as one exact integer product, and copy each path's 32 bytes
into the C state of one reused PCG64, found through BitGenerator.ctypes; a
probe checks that state's layout once per process.  path_generator builds
the stream directly; it is the bit-level reference the tests compare with.

The Laplace path set (_integrated_w1sq) is made once per call of
mc_quadratic_laplace_thetas, which evaluates every theta it is given on
it; nothing is kept between calls.  It runs on up to _WORKERS threads,
one per CPU the process may use and at most 8; numpy releases the GIL
while it draws normals and takes cumulative sums.  Each worker seeds one
contiguous range of paths once and makes it block by block in buffers the
calling thread allocated, all within one byte budget, so neither memory
nor the result depends on the thread count.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densities import _drift, _half_powers, _log_transition_density, _readonly, star_vector
from .exact import _check_nonnegative, _check_real, a_inverse_matrix

# Bytes of normals the Laplace suite holds at once, all workers together;
# paths per block follow from the grid and the worker count, so its memory
# does not grow with --paths or --grid.
_LAPLACE_BLOCK_BYTES = 2**21
# Threads that make the Laplace path set: the CPUs this process may run
# on, at most 8.  os.sched_getaffinity exists on Linux only.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = min(8, len(os.sched_getaffinity(0)))
else:
    _WORKERS = min(8, os.cpu_count() or 1)
# exp() overflows past this; sample_x raises exp(t) to the powers +-(k + 1/2).
_MAX_LOG_TIME = 700.0
# The kernel divides by d! as a float for d up to the order; 171! is beyond
# the float range.
_MAX_ORDER = 170


@lru_cache(maxsize=None)
def _a_inverse_float(n: int) -> np.ndarray:
    return _readonly(np.array(a_inverse_matrix(n), dtype=float))


@lru_cache(maxsize=None)
def _lambda_root(n: int) -> np.ndarray:
    return _readonly(np.sqrt(1.0 / np.arange(1, 2 * n + 2, 2, dtype=float)))


def path_generator(seed: int, path_index: int = 0) -> np.random.Generator:
    """Generator for one path substream of a master seed; see the seed protocol above."""
    path_index = _check_nonnegative(path_index, "path index")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.PCG64(ss))


def covariance_root(n: int, t: float) -> np.ndarray:
    """Lower-triangular L with L L' = covariance_r(n, t), positive diagonal.

    Built as T^-1(t) A^-1 Lambda^-1/2 from the exact layer; never a
    floating-point Cholesky of the ill-conditioned covariance itself.
    """
    return _covariance_root(_check_nonnegative(n), _check_real(t, positive=True))


def _covariance_root(n: int, t: float) -> np.ndarray:  # n and t checked
    return (t ** _half_powers(n)[1])[:, None] * _a_inverse_float(n) * _lambda_root(n)


@dataclass(frozen=True, eq=False)
class PathSample:
    """One sampled path: state vectors of a fixed order on a fixed time grid.

    Regeneration contract: identical (order, times, seed) reproduce this
    object bit for bit.
    """

    order: int
    times: np.ndarray
    states: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "order", _check_nonnegative(self.order))
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if self.states.shape != (self.times.size, self.order + 1):
            raise ValueError("need exactly one state of length order+1 per time")
        self.times.setflags(write=False)
        self.states.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, PathSample):
            return NotImplemented
        return (
            self.order == other.order
            and self.seed == other.seed
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.states, other.states)
        )


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and full provenance."""

    mean: float
    std_error: float
    n_paths: int
    grid_size: int
    seed: int

    def __post_init__(self):
        _check_nonnegative(self.n_paths, "n_paths", 2)  # a standard error needs 2 paths


def _validate_times(times: np.ndarray, positive: bool) -> None:
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty one-dimensional array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if positive and times[0] <= 0.0:
        raise ValueError("first sampling time must be positive")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")


# SeedSequence (pool size 4) and PCG64 constants, as published in NEP 19
# and in O'Neill's PCG reference code.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1024


def _int_words(value: int) -> list[int]:
    """32-bit words of a non-negative integer, least significant first, as SeedSequence reads it."""
    return [(value >> shift) & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_words(seed) -> list[np.ndarray]:
    """Entropy words of a master seed, zero-padded to the pool size of 4."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {seed!r}")
    if seed < 0:
        raise ValueError("seed: expected non-negative integer")
    words = _int_words(int(seed))
    return [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]


def _generate_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy words).generate_state(8, uint32) for a block of paths.

    entropy[k] holds the k-th uint32 entropy word of every path: shape (1,)
    for a word all paths share, (paths,) otherwise.  The pool of 4 words is
    mixed as SeedSequence mixes it; uint32 arithmetic wraps mod 2**32 as the
    reference does.  Returns the 8 state words, each of shape (paths,).
    """
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _M32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> 16
        return result

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state hashes the pool words in turn with its own constants.
    hash_const = _INIT_B
    return [hashmix(pool[k % 4], _MULT_B) for k in range(8)]


def _pcg64_srandom(init: tuple, seq: tuple) -> np.ndarray:
    """PCG64's srandom for a block of paths: inc = 2 seq + 1 and
    state = (inc + init) MULT + inc, mod 2**128.

    init and seq are 128-bit numbers as (low, high) pairs of uint64 arrays,
    one value per path.  Path i's init and inc sit in 256-bit lane i of one
    Python int each, so one exact product serves the whole block.  No lane
    carries into the next: inc + init < 2**129 and MULT < 2**126, so a lane's
    result is below 2**256; its low 128 bits are the state.  Lanes go through
    little-endian words ('<u8'), whatever the host's byte order.  Returns a
    (paths, 4) uint64 array: state low, state high, inc low, inc high.
    """
    inc = (seq[0] << 1 | 1, seq[1] << 1 | seq[0] >> 63)
    lanes = np.zeros((len(inc[0]), 4), dtype="<u8")
    lanes[:, 0], lanes[:, 1] = init
    base = int.from_bytes(lanes.tobytes(), "little")
    lanes[:, 0], lanes[:, 1] = inc
    inc_lanes = int.from_bytes(lanes.tobytes(), "little")
    state = ((base + inc_lanes) * _PCG64_MULT + inc_lanes).to_bytes(lanes.nbytes, "little")
    state = np.frombuffer(state, dtype="<u8").reshape(-1, 4)
    return np.column_stack((state[:, 0], state[:, 1], *inc)).astype(np.uint64, copy=False)


def _pcg64_states(seed_words: list[np.ndarray], start: int, stop: int):
    """Yield PCG64(SeedSequence(seed, spawn_key=(i,))) for start <= i < stop as
    (paths, 4) uint64 blocks of (state low, state high, inc low, inc high).

    Blocks hold at most _SEED_BLOCK paths and never cross a multiple of
    2**32, so every path of a block has the same index words but the lowest,
    and the lowest does not wrap.
    """
    while start < stop:
        index_words = _int_words(start)
        end = min(stop, start + _SEED_BLOCK, (start | _M32) + 1)
        low = np.arange(index_words[0], index_words[0] + end - start, dtype=np.uint64)
        shared = [np.array([w], dtype=np.uint32) for w in index_words[1:]]
        w = _generate_state(seed_words + [low.astype(np.uint32)] + shared)
        # generate_state(4, uint64) pairs the uint32 words little-endian; PCG64
        # reads the pairs as (high, low) of its initial state and of its
        # stream selector.
        u = [w[k].astype(np.uint64) | w[k + 1].astype(np.uint64) << 32 for k in range(0, 8, 2)]
        del w, low  # not kept alive through the product below
        yield _pcg64_srandom((u[1], u[0]), (u[3], u[2]))
        start = end


def _pcg64_words(bits: np.random.PCG64):
    """The {state, inc} words of a PCG64, as 4 c_uint64 over its C struct.

    BitGenerator.ctypes.state_address is numpy's pcg64_state, whose first
    field points to the pcg64_random_t that holds state and inc.
    """
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(address)


@lru_cache(maxsize=None)
def _pcg64_word_order() -> tuple[int, ...]:
    """Columns of _pcg64_states' blocks in the order PCG64's C struct holds them.

    numpy stores a 128-bit PCG word as a native __uint128_t (low word
    first) or, without compiler support, as a struct {high, low}.  A known
    state set through the public setter and read back tells which; any
    other layout is an error, not a fallback.  The probe also checks that
    standard_normal leaves no buffered 32-bit half (has_uint32) behind, so
    a path's normals depend on (state, inc) alone.
    """
    bits = np.random.PCG64(0)
    words = (1, 2, 3, 5)  # state low, state high, inc low, inc high; inc odd
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": words[1] << 64 | words[0], "inc": words[3] << 64 | words[2]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    got = list(_pcg64_words(bits))
    np.random.Generator(bits).standard_normal(3)
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        if got == [words[k] for k in order] and not bits.state["has_uint32"]:
            return order
    raise RuntimeError(
        f"unknown PCG64 state layout in numpy {np.__version__}: words {words} read back "
        f"as {got}, has_uint32 {bits.state['has_uint32']}; path streams cannot be loaded"
    )


def _loaded_streams(seed_words: list[np.ndarray], start: int, stop: int):
    """Yield one Generator per path start <= i < stop, loaded with path i's stream.

    It is the same Generator each time: one _pcg64_states run's (state, inc)
    are copied into its PCG64's C struct 32 bytes at a time, in the order
    _pcg64_word_order found (a memoryview copy costs a third of a memmove)."""
    order = _pcg64_word_order()
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    state = memoryview(_pcg64_words(bits)).cast("B")
    for words in _pcg64_states(seed_words, start, stop):
        src = memoryview(np.ascontiguousarray(words[:, order])).cast("B")
        for offset in range(0, len(src), 32):
            state[:] = src[offset : offset + 32]
            yield gen


def _path_normals(seed: int, first_path: int, n_paths: int, steps: int, width: int) -> np.ndarray:
    """Standard normals of paths first_path.., shape (n_paths, steps, width).

    Row i holds the first steps*width normals of path_generator(seed,
    first_path + i), bit for bit.
    """
    start = _check_nonnegative(first_path, "path index")
    out = np.empty((n_paths, steps, width))
    for row, gen in zip(out, _loaded_streams(_seed_words(seed), start, start + n_paths)):
        gen.standard_normal(out=row)
    return out


def _states_from_normals(
    zs: np.ndarray, h: np.ndarray, scratch: np.ndarray, prev: np.ndarray | None = None
) -> None:
    """Turn the normals zs, shape (paths, steps, n+1), into exact states in place.

    Step j has length h[j] and W_j = B(h_j) W_{j-1} + root(h_j) z_j, with
    root(h) = covariance_root(n, h) and B(h) = drift_matrix(n, h), which is
    unit lower-triangular.  W_{-1} is prev, shape (paths, n+1), the state
    before the first step; prev=None is the zero state, h[0] then being the
    first time.  Two passes, each over one component at a time:

    1. innovations: component m becomes sum_{k<=m} root(h)[m, k] z_k, with
       the coefficients and the k order of covariance_root times z, so the
       innovations are bit for bit those of the step-by-step recursion;
       going from m = n down, every z_k is read before it is overwritten;
    2. running sums: from m = 0 up, add sum_{k<m} B(h_j)[m, k] W_k[j-1]
       (the lower components, already states; prev's at j = 0) in order of
       k, add prev's component m to the first step, and take the cumulative
       sum along the steps, which is the recursion with its additions
       reordered.  With prev=None nothing is added to the first step, so a
       -0.0 there stays -0.0.

    Component 0 is the running sum of its innovations, as in the step-by-step
    recursion, bit for bit, and so is every component of a one-step grid
    from the zero state.  Every operation is elementwise across paths or a
    running sum along one path, so a path's bits do not depend on how paths
    are batched, and a grid cut into blocks, each started from the last
    state of the one before, gives the bits of the whole grid in one call.
    scratch, a (paths, steps) float array not overlapping zs, holds the
    accumulator and the drift products; beyond zs and scratch the kernel
    holds (steps,) coefficient vectors and, for n >= 2, one (paths, steps)
    temporary.
    """
    n = zs.shape[2] - 1
    a_inv = _a_inverse_float(n)
    lam_root = _lambda_root(n)
    for m in range(n, -1, -1):
        # An exponent array, as covariance_root passes: numpy evaluates a
        # scalar exponent 0.5 as sqrt, which can differ from pow in the last bit.
        scale = np.power(h, np.full_like(h, m + 0.5))
        coef = [(scale * a_inv[m, k]) * lam_root[k] for k in range(m + 1)]
        e_m = zs[:, :, m]
        e_m *= coef[m]
        if m:
            acc = np.multiply(coef[0], zs[:, :, 0], out=scratch)
            for k in range(1, m):
                acc += coef[k] * zs[:, :, k]
            e_m += acc
    drift = {d: np.power(h, d) / math.factorial(d) for d in range(1, n + 1)}
    lagged = scratch[:, 1:]
    for m in range(n + 1):
        w_m = zs[:, :, m]
        for k in range(m):
            w_m[:, 1:] += np.multiply(drift[m - k][1:], zs[:, :-1, k], out=lagged)
        if prev is not None:
            for k in range(m):
                w_m[:, 0] += drift[m - k][0] * prev[:, k]
            w_m[:, 0] += prev[:, m]
        np.cumsum(w_m, axis=1, out=w_m)


# Path-steps per call of the kernel in sample_w_paths: its temporaries are a
# few of these blocks, whatever the number of paths or steps.  Long paths
# take 1.7x as long at 1024 (the per-call cost shows) and 10-15% less time
# at 16384, which holds 4x the memory.
_BLOCK_PATH_STEPS = 4096


def sample_w_paths(
    n: int, times, n_paths: int, seed: int, first_path: int = 0
) -> np.ndarray:
    """Exact joint paths of the order-n state, shape (n_paths, len(times), n+1).

    Path i uses substream first_path + i of the master seed, so a large run
    can be produced in independent chunks that concatenate exactly.  Orders
    above 170 raise ValueError, and so does a state beyond the float range
    (times so long that a component overflows), instead of returning inf
    or nan.

    The normals are drawn into the returned array, the only array of its
    size made here, and become states in blocks of at most
    _BLOCK_PATH_STEPS path-steps (always one step at least) in one reused
    scratch block.
    """
    n = _check_nonnegative(n)
    if n > _MAX_ORDER:
        raise ValueError(
            f"order must be at most {_MAX_ORDER}, got {n}: {n}! is beyond the float range"
        )
    n_paths = _check_nonnegative(n_paths, "n_paths", 1)
    tgrid = np.asarray(times, dtype=float)
    _validate_times(tgrid, positive=True)

    states = _path_normals(seed, first_path, n_paths, tgrid.size, n + 1)
    steps = min(tgrid.size, _BLOCK_PATH_STEPS)
    paths = min(n_paths, max(1, _BLOCK_PATH_STEPS // steps))
    scratch = np.empty((paths, steps))
    # Overflow gives inf, and inf - inf nan; both are caught below, so warn of
    # neither.  min and max carry any nan or inf without an array of flags.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, tgrid.size, steps):
            h = np.diff(tgrid[lo : lo + steps], prepend=tgrid[lo - 1] if lo else 0.0)
            for first in range(0, n_paths, paths):
                block = states[first : first + paths, lo : lo + steps]
                prev = states[first : first + paths, lo - 1] if lo else None
                _states_from_normals(block, h, scratch[: len(block), : h.size], prev)
        finite = np.isfinite(states.min()) and np.isfinite(states.max())
    if not finite:
        raise ValueError("a sampled state is beyond the float range at this order and these times")
    return states


def sample_w(n: int, times, seed: int) -> PathSample:
    """One exact path of the order-n state over a strictly increasing positive grid."""
    tgrid = np.array(times, dtype=float)  # copy: PathSample freezes its arrays
    states = sample_w_paths(n, tgrid, 1, seed)[0]
    return PathSample(order=n, times=tgrid, states=states, seed=seed)


def sample_x_paths(
    n: int, times, n_paths: int, seed: int, first_path: int = 0
) -> np.ndarray:
    """Exact joint paths of the stationary components, any-sign time grid.

    The integrated motion is sampled on the exponentiated grid and component
    k is scaled by e^{-(k+1/2) t}, which is what makes the result stationary.
    Times outside +-700 / max(1, n + 1/2) raise ValueError: there e^t to the
    power n + 1/2, or its inverse, overflows.
    """
    n = _check_nonnegative(n)
    tgrid = np.asarray(times, dtype=float)
    _validate_times(tgrid, positive=False)
    bound = _MAX_LOG_TIME / max(1.0, n + 0.5)
    if tgrid[0] < -bound or tgrid[-1] > bound:
        raise ValueError(f"times outside +-{bound:g} overflow the exponential clock at order {n}")
    w = sample_w_paths(n, np.exp(tgrid), n_paths, seed, first_path)
    rates = _half_powers(n)[1]
    for lo in range(0, tgrid.size, _BLOCK_PATH_STEPS):
        hi = lo + _BLOCK_PATH_STEPS
        w[:, lo:hi] *= np.exp(-np.multiply.outer(tgrid[lo:hi], rates))
    return w


def sample_x(n: int, times, seed: int) -> PathSample:
    """One exact path of the stationary components over a strictly increasing grid."""
    tgrid = np.array(times, dtype=float)  # copy: PathSample freezes its arrays
    states = sample_x_paths(n, tgrid, 1, seed)[0]
    return PathSample(order=n, times=tgrid, states=states, seed=seed)


def closed_form_quadratic_laplace(theta: float) -> float:
    """Known value of E exp(-(theta^2/2) * integral over [0,1] of W_1^2):

    sqrt(2 / (cosh^2 sqrt(theta/2) + cos^2 sqrt(theta/2)))

    Where cosh^2 overflows (u = sqrt(theta/2) above about 355.6) the value is
    2 sqrt(2) e^-u, exact to double precision there: e^-2u and
    (cos u / cosh u)^2 are both below 1e-300.
    """
    if _check_real(theta, "theta") < 0.0:
        raise ValueError("theta must be finite and non-negative")
    u = math.sqrt(theta / 2.0)
    try:
        return math.sqrt(2.0 / (math.cosh(u) ** 2 + math.cos(u) ** 2))
    except OverflowError:
        return 2.0 * math.sqrt(2.0) * math.exp(-u)


def _w1sq_blocks(seed: int, h: np.ndarray, start: int, stop: int, normals, squares, out) -> None:
    """One worker of _integrated_w1sq: out[i] for start <= i < stop, in blocks of
    len(normals) paths that reuse the normals and squares buffers; the kernel
    uses the squares buffer as its scratch before the squares go there."""
    streams = _loaded_streams(_seed_words(seed), start, stop)
    for lo in range(start, stop, len(normals)):
        zs = normals[: stop - lo]
        # zs first: zip stops there without loading the next block's stream.
        for row, gen in zip(zs, streams):
            gen.standard_normal(out=row)
        sq = squares[: len(zs)]
        _states_from_normals(zs, h, sq)
        # Contiguous rows: one pairwise sum per path.
        np.square(zs[:, :, 1], out=sq)
        out[lo : lo + len(zs)] = (sq.sum(axis=1) - 0.5 * sq[:, -1]) * h[0]


def _integrated_w1sq(n_paths: int, grid_size: int, seed: int) -> np.ndarray:
    """Per-path trapezoid value of the integral over [0,1] of W_1(t)^2.

    Paths of (W_0, W_1) are generated exactly on the uniform grid
    j/grid_size, j = 1..grid_size, with the exact zero state at t = 0
    supplying the left endpoint of the first trapezoid.

    W threads (_WORKERS, lowered until each has a full block) split one
    budget: a block is max(1, _LAPLACE_BLOCK_BYTES // W // (16 * grid_size))
    paths, 64 at grid 1024 on 2 workers.  Worker k seeds paths [k n_paths //
    W, (k + 1) n_paths // W) once and makes them block by block in buffers
    this thread allocates, so memory is a few budgets for any n_paths, W and
    grid_size up to 131072.  This thread is worker 0, then joins the others
    and raises the first exception a worker caught.  Workers call only
    private functions: bench/tracer.py keeps one span stack per process for
    the public ones.  Every path has its own stream and the kernel is
    batch-invariant, so neither W, the block size nor the order in which
    workers finish moves a bit.  Each call makes a new path set.
    """
    per_path = 16 * grid_size
    workers = min(_WORKERS, n_paths)
    while workers > 1 and workers * max(1, _LAPLACE_BLOCK_BYTES // workers // per_path) > n_paths:
        workers -= 1
    block = min(n_paths, max(1, _LAPLACE_BLOCK_BYTES // workers // per_path))
    h = np.full(grid_size, 1.0 / grid_size)
    normals = np.empty((workers, block, grid_size, 2))
    squares = np.empty((workers, block, grid_size))
    out = np.empty(n_paths)
    errors = []

    def work(k: int) -> None:
        try:
            bounds = (k * n_paths // workers, (k + 1) * n_paths // workers)
            _w1sq_blocks(seed, h, *bounds, normals[k], squares[k], out)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def mc_quadratic_laplace(
    theta: float, n_paths: int, grid_size: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of E exp(-(theta^2/2) * integral of W_1^2 over [0,1]).

    Exact joint sampling of (W_0, W_1) on a uniform grid of [0,1] plus
    trapezoid quadrature; the quadrature is the only source of bias, and
    acceptance bands allow 2/grid_size for it on top of 3 standard errors.
    """
    return mc_quadratic_laplace_thetas((theta,), n_paths, grid_size, seed)[0]


def _check_laplace(thetas, n_paths, grid_size) -> tuple[tuple, int, int]:
    """Every Laplace argument rule: thetas, a non-empty tuple of finite positive
    values; grid_size at least 100; n_paths at least 2.  Returns them checked."""
    thetas = tuple(thetas)
    if not thetas:
        raise ValueError("need at least one theta")
    for theta in thetas:
        _check_real(theta, "theta", positive=True)
    grid_size = _check_nonnegative(grid_size, "grid_size", 100)
    return thetas, _check_nonnegative(n_paths, "n_paths", 2), grid_size


# Public, not in __all__: bench/tracer.py spans public functions only (path set = sampling time).
def mc_quadratic_laplace_thetas(
    thetas, n_paths: int, grid_size: int, seed: int
) -> list[MCEstimate]:
    """mc_quadratic_laplace at each theta in turn, all on one path set.

    Every argument is checked before a stream is seeded; the path set is
    then made once, so each estimate equals a separate mc_quadratic_laplace
    call at its theta, bit for bit.
    """
    thetas, n_paths, grid_size = _check_laplace(thetas, n_paths, grid_size)
    q = _integrated_w1sq(n_paths, grid_size, seed)
    estimates = []
    for theta in thetas:
        vals = np.exp(-(theta * theta / 2.0) * q)
        mean = math.fsum(vals) / n_paths
        var = math.fsum(np.square(vals - mean).tolist()) / (n_paths - 1)
        estimates.append(MCEstimate(mean=mean, std_error=math.sqrt(var / n_paths),
                                    n_paths=n_paths, grid_size=grid_size, seed=seed))
    return estimates


def mc_transition_symmetry(n: int, trials: int, seed: int) -> dict:
    """Probe the transition-density symmetry pi_a(w, t) = pi_{w*}(a*, t).

    Random probes are drawn from the process's own law so they sit in the
    density's typical set: a ~ N(0, R(t)) and w a genuine transition from a
    over lag t, with t log-uniform on [0.1, 10].  The statistic, the largest
    relative gap of the two log densities, is exactly 0.0: each side's
    quadratic form is formed exactly from its float inputs and rounded once,
    and the two exact forms are equal, because with T = T(t) and S the sign
    flips, A T S a = S A* T a and S is exact on floats.  It catches a defect
    in the form's sign structure or in the probe loop, not an inaccuracy.
    """
    n = _check_nonnegative(n)
    if n > 6:
        raise ValueError("symmetry probes support order <= 6")
    trials = _check_nonnegative(trials, "trials", 1)
    rng = path_generator(seed, 0)
    signs = star_vector(np.ones(n + 1))
    worst = 0.0
    for _ in range(trials):
        t = 10.0 ** rng.uniform(-1.0, 1.0)
        root = _covariance_root(n, t)
        a = root @ rng.standard_normal(n + 1)
        w = _drift(n, t) @ a + root @ rng.standard_normal(n + 1)
        forward = _log_transition_density(w, a, t)
        flipped = _log_transition_density(a * signs, w * signs, t)
        worst = max(worst, abs(math.expm1(flipped - forward)))
    return {
        "test": f"transition-symmetry-n{n}",
        "statistic": worst,
        "bound": 1e-9,
        "pass": worst < 1e-9,
    }
