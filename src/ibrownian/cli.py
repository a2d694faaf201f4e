"""Command-line front end.

Subcommands:

    matrices    dump one exact matrix family as JSON (fractions as strings)
    density     marginal or transition log-density / density as JSON
    correlate   stationary (cross-)covariance table over a lag grid as CSV
    sample      one exact path as CSV with header time,w0,...,wn
    verify      run the Monte Carlo verification suites, report as JSON

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
domain parameter, 4 I/O failure.  Failures print one machine-readable JSON
line on stderr.  If the environment variable IBROWNIAN_OUT_DIR is set, bare
output file names are written inside that directory.

All output is deterministic given the flags, including the seed.  Floats
are printed in shortest round-trip form, so identical runs are identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import exact, verification
from .densities import log_density_w, log_transition_density
from .sampling import PathSample, sample_w
from .spectral import cross_correlation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

OUT_DIR_ENV = "IBROWNIAN_OUT_DIR"

_MATRIX_BUILDERS = {
    "gamma": exact.gamma_matrix,
    "b": exact.b_matrix,
    "a": exact.a_matrix,
    "a-inverse": exact.a_inverse_matrix,
    "lambda": exact.lambda_matrix,
    "rho": exact.rho_matrix,
    "rho-inverse": exact.rho_inverse_matrix,
}

CORRELATE_GRID_POINTS = 81


@dataclass
class RunConfig:
    """Parsed invocation; one field per flag that any subcommand accepts."""

    subcommand: str
    n: int | None = None
    t: float | None = None
    times: tuple[float, ...] | None = None
    tau_max: float | None = None
    theta: float | None = None
    paths: int = verification.DEFAULT_PATHS
    grid: int | None = None
    seed: int = verification.DEFAULT_SEED
    out: str | None = None
    fmt: str | None = None
    which: str | None = None
    w: tuple[float, ...] | None = None
    a: tuple[float, ...] | None = None
    request: str | None = None
    suite: str = "all"


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibrownian",
        description="Exact matrices, densities, covariances, and exact path "
        "sampling for n-fold integrated Brownian motion and its stationary transform.",
        epilog=f"Set {OUT_DIR_ENV} to redirect bare --out file names into a directory.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("matrices", help="dump one exact matrix family as JSON")
    p.add_argument("--n", type=int, required=True, help="dimension (matrix is (n+1)x(n+1))")
    p.add_argument("--which", required=True, choices=sorted(_MATRIX_BUILDERS))
    p.add_argument("--out")

    p = sub.add_parser("density", help="evaluate a marginal or transition density")
    p.add_argument("--n", type=int, help="order; defaults to len(w)-1")
    p.add_argument("--t", type=float, help="time horizon / lag, > 0")
    p.add_argument("--w", type=_floats_csv, help="target state, comma-separated")
    p.add_argument("--a", type=_floats_csv, help="initial state for a transition density")
    p.add_argument("--request", help="JSON file with keys n?, t, w, a?")
    p.add_argument("--out")

    p = sub.add_parser("correlate", help="stationary covariance table over a lag grid")
    p.add_argument("--n", type=int, required=True, help="largest component order in the table")
    p.add_argument("--tau-max", type=float, required=True, dest="tau_max")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out")

    p = sub.add_parser("sample", help="sample one exact path, CSV time,w0,...,wn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--times", type=_floats_csv, help="explicit strictly increasing times")
    p.add_argument("--t", type=float, help="largest time of a uniform grid (with --grid)")
    p.add_argument("--grid", type=int, help="number of uniform grid points (with --t)")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the Monte Carlo verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + verification.SUITE_ORDER)
    p.add_argument("--paths", type=int, default=verification.DEFAULT_PATHS)
    p.add_argument("--grid", type=int, default=verification.DEFAULT_GRID)
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--theta", type=float,
                   help="run the laplace suite at this single theta instead of 0.5, 1, 2")
    p.add_argument("--out")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    for field in (
        "n", "t", "times", "tau_max", "theta", "paths", "grid",
        "seed", "out", "fmt", "which", "w", "a", "request", "suite",
    ):
        if hasattr(ns, field):
            setattr(cfg, field, getattr(ns, field))
    return cfg


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    base = os.environ.get(OUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_line(code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "code": code}) + "\n")


def write_sample_csv(sample: PathSample) -> str:
    """CSV text for a path: header time,w0,...,wn; shortest round-trip floats."""
    header = "time," + ",".join(f"w{k}" for k in range(sample.order + 1))
    lines = [header]
    for t, state in zip(sample.times, sample.states):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in state]))
    return "\n".join(lines) + "\n"


def read_sample_csv(path: str, seed: int) -> PathSample:
    """Parse a sample CSV back into a PathSample.

    The CSV stores data, not provenance, so the generating seed is supplied
    by the caller; with the right seed the result equals the generating
    PathSample exactly (floats round-trip).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty sample file")
    header = lines[0].split(",")
    order = len(header) - 2
    if order < 0 or header != ["time"] + [f"w{k}" for k in range(order + 1)]:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != order + 2 for row in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(rows, dtype=float).reshape(len(rows), order + 2)
    return PathSample(
        order=order, times=data[:, 0].copy(), states=data[:, 1:].copy(), seed=seed
    )


def _run_matrices(cfg: RunConfig) -> int:
    matrix = _MATRIX_BUILDERS[cfg.which](cfg.n)
    _emit(json.dumps(exact.matrix_to_json(matrix), indent=2), cfg.out)
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_request(path: str, req) -> None:
    """Reject a request document whose shape is not {n?: int, t: number, w: [numbers], a?: [numbers]}."""
    if not isinstance(req, dict):
        raise ValueError(f"{path}: expected a JSON object with keys n?, t, w, a?")
    n, t = req.get("n"), req.get("t")
    if n is not None and not (isinstance(n, int) and not isinstance(n, bool)):
        raise ValueError(f"{path}: n must be an integer, got {n!r}")
    if t is not None and not _is_number(t):
        raise ValueError(f"{path}: t must be a number, got {t!r}")
    for key in ("w", "a"):
        state = req.get(key)
        if state is not None and not (
            isinstance(state, list) and all(_is_number(v) for v in state)
        ):
            raise ValueError(f"{path}: {key} must be a list of numbers, got {state!r}")


def _to_float(name: str, value) -> float:
    """float(value), with a JSON integer beyond the float range a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


def _density_request(cfg: RunConfig) -> tuple[int, float, tuple, tuple | None]:
    n, t, w, a = cfg.n, cfg.t, cfg.w, cfg.a
    if cfg.request is not None:
        with open(cfg.request, "r", encoding="utf-8") as fh:
            try:
                req = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{cfg.request}: invalid JSON ({exc})")
        _check_request(cfg.request, req)
        n = req.get("n", n)
        t = req.get("t", t)
        w = req.get("w", w)
        a = req.get("a", a)
    if t is None or w is None:
        raise ValueError("density needs --t and --w (or a --request file providing them)")
    w = tuple(_to_float("w", v) for v in w)
    if n is None:
        n = len(w) - 1
    if len(w) != n + 1:
        raise ValueError(f"state w has {len(w)} components but order {n} needs {n + 1}")
    if a is not None:
        a = tuple(_to_float("a", v) for v in a)
        if len(a) != len(w):
            raise ValueError("states w and a must have the same length")
    return n, _to_float("t", t), w, a


def _run_density(cfg: RunConfig) -> int:
    _, t, w, a = _density_request(cfg)
    if a is None:
        log_density = log_density_w(w, t)
    else:
        log_density = log_transition_density(w, a, t)
    try:
        density = math.exp(log_density)
    except OverflowError:
        density = math.inf
    result = {"log_density": log_density, "density": density}
    _emit(json.dumps(result), cfg.out)
    return EXIT_OK


def _run_correlate(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 0:
        raise ValueError("correlate needs --n >= 0")
    if cfg.tau_max is None or not (cfg.tau_max > 0):
        raise ValueError("correlate needs --tau-max > 0")
    pairs = [(j, k) for j in range(cfg.n + 1) for k in range(cfg.n + 1)]
    expansions = {pair: cross_correlation(*pair) for pair in pairs}
    if cfg.fmt == "json":
        doc = {
            "order": cfg.n,
            "pairs": [
                {"j": j, "k": k, **expansions[(j, k)].to_json_dict()} for j, k in pairs
            ],
        }
        _emit(json.dumps(doc, indent=2), cfg.out)
        return EXIT_OK
    taus = np.linspace(-cfg.tau_max, cfg.tau_max, CORRELATE_GRID_POINTS)
    header = "tau," + ",".join(f"c{j}{k}" for j, k in pairs)
    lines = [header]
    for tau in taus:
        row = [repr(float(tau))]
        row += [repr(expansions[pair].at(float(tau))) for pair in pairs]
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def _run_sample(cfg: RunConfig) -> int:
    if cfg.times is not None:
        times = cfg.times
    elif cfg.t is not None and cfg.grid is not None:
        if cfg.grid < 1:
            raise ValueError("--grid must be at least 1")
        times = tuple(cfg.t * j / cfg.grid for j in range(1, cfg.grid + 1))
    else:
        raise ValueError("sample needs --times, or --t together with --grid")
    path = sample_w(cfg.n, times, cfg.seed)
    _emit(write_sample_csv(path), cfg.out)
    return EXIT_OK


def _run_verify(cfg: RunConfig) -> int:
    results = verification.run_suite(
        cfg.suite, seed=cfg.seed, n_paths=cfg.paths, grid_size=cfg.grid,
        thetas=None if cfg.theta is None else (cfg.theta,),
    )
    _emit(json.dumps(results, indent=2), cfg.out)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_VERIFY_FAILED


_RUNNERS = {
    "matrices": _run_matrices,
    "density": _run_density,
    "correlate": _run_correlate,
    "sample": _run_sample,
    "verify": _run_verify,
}


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; raises ValueError / OSError on bad input."""
    return _RUNNERS[cfg.subcommand](cfg)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from(ns)
    try:
        return run(cfg)
    except ValueError as exc:
        _error_line(EXIT_DOMAIN, str(exc))
        return EXIT_DOMAIN
    except OSError as exc:
        _error_line(EXIT_IO, str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
