"""Output checks for the benchmark workloads.

Each check reads a CLI invocation's stdout and exit code and raises
CheckFailed when the output is wrong.  None of them depends on the exact
byte layout or on the low bits of a float, so a change that legitimately
moves the last digits of the samplers (a new stream-creation or step
kernel) still passes; byte identity is checked separately, between repeats
of one run.  The oracles here use numpy and exact integer arithmetic only,
never the library's own code.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

REPORT_KEYS = {"test", "statistic", "bound", "pass"}
VERIFY_SUITES = 6

# The recomputed path agrees with the CLI's to ~1e-16 of each component's
# largest magnitude (both are exact in law and share the normals); a wrong
# drift, root or normal would differ at order one.
SAMPLE_REL_TOL = 1e-9
# Correlation values are float sums of exact rational terms; measured error
# is below 1.1e-12 relative for every pair up to order 16.
CORRELATE_REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_verify(stdout: bytes, code: int) -> int:
    """Six well-formed reports whose pass flags agree with the exit code.

    Exit 1 with a well-formed report is a statistical outcome, not an error.
    Returns how many suites passed.
    """
    reports = json.loads(stdout)
    _require(isinstance(reports, list) and len(reports) == VERIFY_SUITES,
             f"expected {VERIFY_SUITES} reports")
    for rep in reports:
        _require(isinstance(rep, dict) and set(rep) == REPORT_KEYS, f"report keys {sorted(rep)}")
        _require(isinstance(rep["test"], str) and isinstance(rep["pass"], bool), f"report types {rep}")
        _require(_number(rep["statistic"]) and _number(rep["bound"]), f"report numbers {rep}")
        within = rep["statistic"] <= rep["bound"]
        _require(within or not rep["pass"], f"pass flag disagrees with statistic: {rep}")
        _require(rep["pass"] or rep["statistic"] >= rep["bound"], f"fail flag disagrees: {rep}")
    _require(len({rep["test"] for rep in reports}) == VERIFY_SUITES, "duplicate test names")
    passed = sum(rep["pass"] for rep in reports)
    _require(code == (0 if passed == VERIFY_SUITES else 1), f"exit code {code} with {passed} passed")
    return passed


def _covariance(n: int, t: float) -> np.ndarray:
    """Closed form R(t)[j][k] = t^(j+k+1) / (j! k! (j+k+1))."""
    j = np.arange(n + 1)
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    s = j[:, None] + j[None, :]
    return t ** (s + 1) / (fact[:, None] * fact[None, :] * (s + 1))


def _drift(n: int, t: float) -> np.ndarray:
    """Closed form B(t)[j][k] = t^(j-k) / (j-k)! for j >= k."""
    out = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(j + 1):
            out[j, k] = t ** (j - k) / math.factorial(j - k)
    return out


def reference_path(n: int, times: np.ndarray, seed: int) -> np.ndarray:
    """The order-n path the seed protocol defines, rebuilt from closed forms.

    Path 0 of a master seed draws from PCG64(SeedSequence(seed, spawn_key=(0,)))
    -- what ibrownian.sampling.path_generator(seed, 0) returns -- one row of
    n+1 normals per time; the first state is chol(R(t_0)) z_0 and each later
    one B(dt) w + chol(R(dt)) z.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    z = np.random.Generator(np.random.PCG64(ss)).standard_normal((times.size, n + 1))
    states = np.empty((times.size, n + 1))
    states[0] = np.linalg.cholesky(_covariance(n, float(times[0]))) @ z[0]
    steps = {}
    for j in range(1, times.size):
        dt = float(times[j] - times[j - 1])
        if dt not in steps:
            steps[dt] = (_drift(n, dt), np.linalg.cholesky(_covariance(n, dt)))
        drift, root = steps[dt]
        states[j] = drift @ states[j - 1] + root @ z[j]
    return states


def check_sample(stdout: bytes, code: int, n: int, t: float, grid: int, seed: int) -> None:
    """Header, row count and times, and the path against reference_path."""
    _require(code == 0, f"exit code {code}")
    lines = stdout.decode("ascii").splitlines()
    _require(lines[0] == "time," + ",".join(f"w{k}" for k in range(n + 1)), f"header {lines[0]!r}")
    _require(len(lines) == grid + 1, f"{len(lines) - 1} rows, expected {grid}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _require(data.shape == (grid, n + 2), f"table shape {data.shape}")
    times = np.array([t * j / grid for j in range(1, grid + 1)])
    _require(bool(np.all(np.abs(data[:, 0] - times) <= 1e-12 * t)), "sampling times")
    ref = reference_path(n, times, seed)
    scale = np.max(np.abs(ref), axis=0)
    err = np.max(np.abs(data[:, 1:] - ref), axis=0)
    _require(bool(np.all(err <= SAMPLE_REL_TOL * scale)),
             f"path differs from the closed-form recomputation by {err} (scale {scale})")


def check_rho(stdout: bytes, code: int, n: int) -> None:
    """rho . [1/(j+k+1)] = I exactly, on the JSON fractions."""
    _require(code == 0, f"exit code {code}")
    doc = json.loads(stdout)
    _require(doc.get("dim") == n and len(doc["entries"]) == n + 1, "matrix dimension")
    rho = [[Fraction(v) for v in row] for row in doc["entries"]]
    _require(all(len(row) == n + 1 for row in rho), "ragged matrix")
    # The inverse Hilbert matrix is integral; with L = lcm(1..2n+1) each
    # product entry becomes an integer sum that must equal L on the diagonal.
    _require(all(v.denominator == 1 for row in rho for v in row), "non-integer entry")
    ints = [[v.numerator for v in row] for row in rho]
    lcm = math.lcm(*range(1, 2 * n + 2))
    hilbert_cols = [[lcm // (k + m + 1) for k in range(n + 1)] for m in range(n + 1)]
    for j, row in enumerate(ints):
        for m, col in enumerate(hilbert_cols):
            total = sum(a * b for a, b in zip(row, col))
            _require(total == (lcm if j == m else 0), f"(rho H)[{j}][{m}] != delta")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CORRELATE_REL_TOL * max(abs(a), abs(b))


def check_correlate(stdout: bytes, code: int, n: int, tau_max: float) -> None:
    """c_jk(0) = 1/(j! k! (j+k+1)) and c_jk(tau) = c_kj(-tau) on the CSV table."""
    _require(code == 0, f"exit code {code}")
    lines = stdout.decode("ascii").splitlines()
    width = (n + 1) ** 2
    _require(len(lines[0].split(",")) == width + 1 and lines[0].startswith("tau,"), "header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require(len(rows) >= 3 and all(len(r) == width + 1 for r in rows), "table shape")
    taus = [r[0] for r in rows]
    _require(taus[0] == -tau_max and taus[-1] == tau_max, "lag range")
    _require(all(a < b for a, b in zip(taus, taus[1:])), "lags not increasing")
    zero = [r for r in rows if abs(r[0]) <= 1e-12 * tau_max]
    _require(len(zero) == 1, "no lag at zero")
    for j in range(n + 1):
        for k in range(n + 1):
            exact = 1.0 / (math.factorial(j) * math.factorial(k) * (j + k + 1))
            _require(_close(zero[0][1 + j * (n + 1) + k], exact), f"c{j},{k}(0)")
    for row, mirror in zip(rows, reversed(rows)):
        _require(abs(row[0] + mirror[0]) <= 1e-12 * tau_max, "lag grid not symmetric")
        for j in range(n + 1):
            for k in range(n + 1):
                _require(_close(row[1 + j * (n + 1) + k], mirror[1 + k * (n + 1) + j]),
                         f"c{j},{k}({row[0]}) != c{k},{j}({mirror[0]})")
