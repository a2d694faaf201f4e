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
import contextlib
import functools
import gc
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import exact, verification
from .densities import log_density_w, log_transition_density
from .sampling import PathSample, sample_w
from .spectral import _correlation_rows, cross_correlation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

OUT_DIR_ENV = "IBROWNIAN_OUT_DIR"

# Characters per write of a long output; stdout may be unbuffered.
_WRITE_CHARS = 1 << 16
# Rows of the sample CSV formatted at once.
_CSV_ROWS = 256

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

# Largest sizes accepted, checked before any work or allocation.  Each cap
# was set where a run took about 10 s on a 2-CPU host: matrices at --n 360
# (then rho, 9.3 s; now a-inverse, the slowest family, 1.6-2.0 s, and rho
# 0.65-0.97 s); correlate at 70: 9.5-10.3 s in CSV or JSON.  The sample and
# verify caps are extrapolated from smaller runs: verify --suite all costs
# about 18 us per path plus 37 ns per Laplace path step, so the worst run
# its caps admit takes about 11 s; sample cost 1.3-1.5 us per CSV value
# (time points x (n + 2) of them) when the cap was set, and now 0.7-1.0 us
# at --n 2 (the cap, --grid 1500000, 4.1-5.8 s) and 1.6-1.7 us at --n 40
# (--grid 140000, 9.2-9.9 s).  The Laplace grid cap is memory: up to 2**17
# steps one path fits the kernel's block budget, beyond it a path holds 24
# bytes per step.
MAX_MATRICES_N = 360
MAX_CORRELATE_N = 70
MAX_SAMPLE_VALUES = 6_000_000
MAX_VERIFY_PATHS = 300_000
MAX_VERIFY_GRID = 1 << 17
MAX_VERIFY_PATH_STEPS = 125_000_000


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
    p.add_argument("--n", type=int, required=True,
                   help=f"dimension (matrix is (n+1)x(n+1)), at most {MAX_MATRICES_N}")
    p.add_argument("--which", required=True, choices=sorted(_MATRIX_BUILDERS))
    p.add_argument("--out")
    p.set_defaults(run=_run_matrices)

    p = sub.add_parser("density", help="evaluate a marginal or transition density")
    p.add_argument("--n", type=int, help="order; defaults to len(w)-1")
    p.add_argument("--t", type=float, help="time horizon / lag, > 0")
    p.add_argument("--w", type=_floats_csv, help="target state, comma-separated")
    p.add_argument("--a", type=_floats_csv, help="initial state for a transition density")
    p.add_argument("--request", help="JSON file with keys n?, t, w, a?")
    p.add_argument("--out")
    p.set_defaults(run=_run_density)

    p = sub.add_parser("correlate", help="stationary covariance table over a lag grid")
    p.add_argument("--n", type=int, required=True,
                   help=f"largest component order in the table, at most {MAX_CORRELATE_N}")
    p.add_argument("--tau-max", type=float, required=True, dest="tau_max")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out")
    p.set_defaults(run=_run_correlate)

    p = sub.add_parser("sample", help="sample one exact path, CSV time,w0,...,wn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--times", type=_floats_csv, help="explicit strictly increasing times")
    p.add_argument("--t", type=float, help="largest time of a uniform grid (with --grid)")
    p.add_argument("--grid", type=int, help="number of uniform grid points (with --t); "
                   f"time points x (n + 2) at most {MAX_SAMPLE_VALUES}")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(run=_run_sample)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + verification.SUITE_ORDER)
    p.add_argument("--paths", type=int, default=verification.DEFAULT_PATHS,
                   help=f"at most {MAX_VERIFY_PATHS}")
    p.add_argument("--grid", type=int, default=verification.DEFAULT_GRID,
                   help=f"laplace suite grid, at most {MAX_VERIFY_GRID}, "
                   f"with --paths x --grid at most {MAX_VERIFY_PATH_STEPS}")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--theta", type=float,
                   help="run the laplace suite at this single theta instead of 0.5, 1, 2")
    p.add_argument("--out")
    p.set_defaults(run=_run_verify)

    return parser


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    base = os.environ.get(OUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    """Consecutive pieces joined into strings of at least _WRITE_CHARS, and the rest."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or the concatenation of an iterable of pieces, to --out or stdout.

    A long output is never held whole: pieces are written in batches of
    about _WRITE_CHARS, so an unbuffered stdout still sees few large writes.
    Both targets get the same bytes: a final newline is added if the text
    does not end with one.
    """
    pieces = [text] if isinstance(text, str) else text
    path = _resolve_out(out)
    target = (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8", newline=""))
    with target as fh:
        last = ""
        for batch in _batches(pieces):
            fh.write(batch)
            last = batch[-1:] or last
        if last != "\n":
            fh.write("\n")


def _error_line(code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "code": code}) + "\n")


def _sample_csv(sample: PathSample) -> Iterator[str]:
    """CSV lines of a path: header time,w0,...,wn, then a row per time in
    shortest round-trip floats."""
    yield "time," + ",".join(f"w{k}" for k in range(sample.order + 1)) + "\n"
    # A block of rows at a time, formatted a column at a time: a whole-array
    # tolist() holds every value as a Python float at once.
    for lo in range(0, len(sample.times), _CSV_ROWS):
        hi = lo + _CSV_ROWS
        columns = [sample.times[lo:hi]] + list(sample.states[lo:hi].T)
        rows = zip(*(map(repr, column.tolist()) for column in columns))
        yield "".join(",".join(row) + "\n" for row in rows)


def _check_cap(n: int, cap: int, subcommand: str, flag: str = "--n") -> None:
    if n > cap:
        raise ValueError(f"{subcommand} accepts {flag} up to {cap}, got {n}")


def _matrix_json(matrix: exact.Matrix) -> Iterator[str]:
    """json.dumps(exact.matrix_to_json(matrix), indent=2), one row at a time.

    Entry strings hold only digits, "-" and "/", which JSON does not escape,
    so each row is quoted and indented by hand, with the bytes of the dump.
    """
    yield f'{{\n  "dim": {len(matrix) - 1},\n  "entries": ['
    for i, row in enumerate(matrix):
        cells = '",\n      "'.join(exact._entry_strings(row))
        yield ("," if i else "") + '\n    [\n      "' + cells + '"\n    ]'
    yield "\n  ]\n}"


def _run_matrices(ns: argparse.Namespace) -> int:
    _check_cap(ns.n, MAX_MATRICES_N, "matrices")
    _emit(_matrix_json(_MATRIX_BUILDERS[ns.which](ns.n)), ns.out)
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


def _density_request(ns: argparse.Namespace) -> tuple[int, float, tuple, tuple | None]:
    n, t, w, a = ns.n, ns.t, ns.w, ns.a
    if ns.request is not None:
        with open(ns.request, "r", encoding="utf-8") as fh:
            try:
                req = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{ns.request}: invalid JSON ({exc})")
        _check_request(ns.request, req)
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


def _run_density(ns: argparse.Namespace) -> int:
    _, t, w, a = _density_request(ns)
    if a is None:
        log_density = log_density_w(w, t)
    else:
        log_density = log_transition_density(w, a, t)
    try:
        density = math.exp(log_density)
    except OverflowError:
        density = math.inf
    result = {"log_density": log_density, "density": density}
    _emit(json.dumps(result), ns.out)
    return EXIT_OK


def _correlate_json(order: int, pairs: list) -> Iterator[str]:
    """json.dumps({"order": order, "pairs": [...]}, indent=2), one pair at a time.

    Each pair is dumped on its own and indented to its depth in the
    document (JSON strings hold no raw newline), so the bytes are those of
    dumping the whole document, without holding it or its chunks at once.
    """
    yield f'{{\n  "order": {order},\n  "pairs": [\n    '
    for i, (j, k) in enumerate(pairs):
        pair = json.dumps({"j": j, "k": k, **cross_correlation(j, k).to_json_dict()}, indent=2)
        yield ("" if i == 0 else ",\n    ") + pair.replace("\n", "\n    ")
    yield "\n  ]\n}"


def _correlate_csv(order: int, pairs: list, taus: list) -> Iterator[str]:
    """The CSV table, header and one row per tau, a line at a time."""
    yield "tau," + ",".join(f"c{j}{k}" for j, k in pairs) + "\n"
    for tau, row in zip(taus, _correlation_rows(order, taus)):
        yield ",".join(map(repr, [tau] + row)) + "\n"


def _run_correlate(ns: argparse.Namespace) -> int:
    exact._check_nonnegative(ns.n, "correlate --n")
    _check_cap(ns.n, MAX_CORRELATE_N, "correlate")
    # The grid spans 2 * tau_max; beyond the float range linspace ends in nan.
    exact._check_real(2.0 * ns.tau_max, "correlate's grid span 2 * --tau-max", positive=True)
    pairs = [(j, k) for j in range(ns.n + 1) for k in range(ns.n + 1)]
    if ns.fmt == "json":
        _emit(_correlate_json(ns.n, pairs), ns.out)
        return EXIT_OK
    taus = np.linspace(-ns.tau_max, ns.tau_max, CORRELATE_GRID_POINTS).tolist()
    _emit(_correlate_csv(ns.n, pairs, taus), ns.out)
    return EXIT_OK


def _run_sample(ns: argparse.Namespace) -> int:
    if ns.times is not None and (ns.t is not None or ns.grid is not None):
        raise ValueError("sample takes --times or --t with --grid, not both")
    if ns.times is not None:
        points = len(ns.times)
    elif ns.t is not None and ns.grid is not None:
        points = exact._check_nonnegative(ns.grid, "--grid", 1)
    else:
        raise ValueError("sample needs --times, or --t together with --grid")
    _check_cap(points * (ns.n + 2), MAX_SAMPLE_VALUES, "sample", "time points x (--n + 2)")
    times = ns.times
    if times is None:
        # The bits of (t * j) / grid for each j; a time that overflows to inf
        # is rejected by the sampler's check that times are finite.
        with np.errstate(over="ignore"):
            times = ns.t * np.arange(1, ns.grid + 1, dtype=float) / ns.grid
    path = sample_w(ns.n, times, ns.seed)
    _emit(_sample_csv(path), ns.out)
    return EXIT_OK


def _run_verify(ns: argparse.Namespace) -> int:
    _check_cap(ns.paths, MAX_VERIFY_PATHS, "verify", "--paths")
    if ns.suite in ("all", "laplace"):
        _check_cap(ns.grid, MAX_VERIFY_GRID, "verify", "--grid")
        _check_cap(ns.paths * ns.grid, MAX_VERIFY_PATH_STEPS, "verify", "--paths x --grid")
    results = verification.run_suite(
        ns.suite, seed=ns.seed, n_paths=ns.paths, grid_size=ns.grid,
        thetas=None if ns.theta is None else (ns.theta,),
    )
    _emit(json.dumps(results, indent=2), ns.out)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_VERIFY_FAILED


@functools.cache
def _freeze_collector() -> None:
    """gc.freeze(), once per process."""
    gc.freeze()


def main(argv=None) -> int:
    """Run the CLI on argv (default sys.argv[1:]) and return the exit code.

    main is meant to run once per process.  Its first call freezes the
    cyclic garbage collector's view of everything allocated so far (numpy's
    import included) for the rest of the process: those objects are never
    collected, so the collector never visits them again, and the
    interpreter skips their cyclic teardown at exit, about 20 ms of numpy's
    import.  Later calls in the same process do not freeze again.  Nothing
    else about exit changes: atexit handlers run and the standard streams
    are flushed.
    """
    _freeze_collector()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except ValueError as exc:
        _error_line(EXIT_DOMAIN, str(exc))
        return EXIT_DOMAIN
    except OSError as exc:
        _error_line(EXIT_IO, str(exc))
        return EXIT_IO
