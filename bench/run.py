"""The ibrownian benchmark: real CLI runs, one fresh process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory
and nothing is installed.  With --trace 0 it times the workload's CLI
invocations for S seconds and prints the end-to-end metrics (wall_rel,
setup_s, peak_rss_mb; reference.py says why wall time is a ratio, and
measure() how setup_s is corrected for the same drift).  With
--trace 1 it alternates untraced runs with runs under bench/tracer.py,
which wraps each layer's public functions in spans, and prints the
per-layer metrics.  Every run's stdout is checked
(checks.py) and must repeat byte for byte.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; error_rate is
failed / attempted.  Details, provenance and the last spans go to bench/out/.

Every timed or traced execution is a fresh interpreter, never a repeat
inside one: lru_caches in the library (the Laplace path set in
sampling._integrated_w1sq, about half of verify-mc; cross_correlation;
the float tables in densities) would otherwise skip the work on the second
call and fake a speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
import layers

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
TRACER = os.path.join(BENCH, "tracer.py")
LAUNCH = os.path.join(BENCH, "launch.py")
REFERENCE = os.path.join(BENCH, "reference.py")

# Workload sizes.  verify-mc keeps the default grid (1024) and thetas and
# scales the path count down from 100k so one execution takes ~2.5 s; the
# laplace chunk is 8192 paths, so 10k paths still runs a full chunk.
VERIFY_PATHS = 10_000
SAMPLE_N, SAMPLE_T, SAMPLE_GRID = 2, "10", 20_000
RHO_N = 100
CORRELATE_N, CORRELATE_TAU_MAX = 16, "4"

MIN_ROUNDS = 3
# setup_s comes from this many adjacent pairs of fresh interpreters, one
# importing ibrownian and one importing numpy only (the yardstick).
SETUP_PAIRS = 20
# The yardstick's wall time on the 2-CPU host the baseline was recorded on;
# setup_s is the median pair ratio times this, so it reads in seconds of
# that host.  Changing it rescales every setup_s figure.
YARDSTICK_S = 0.145
CHILD_TIMEOUT_S = 120.0
MIN_COVERAGE = {"verify-mc": 0.95}

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def invocations(workload: str, seed: int) -> list[tuple[list[str], object]]:
    """CLI argument lists of one execution of a workload, each with its check."""
    if workload == "verify-mc":
        args = ["verify", "--suite", "all", "--paths", str(VERIFY_PATHS), "--seed", str(seed)]
        return [(args, checks.check_verify)]
    if workload == "sample-long":
        args = ["sample", "--n", str(SAMPLE_N), "--t", SAMPLE_T, "--grid", str(SAMPLE_GRID),
                "--seed", str(seed)]
        return [(args, lambda out, code: checks.check_sample(
            out, code, SAMPLE_N, float(SAMPLE_T), SAMPLE_GRID, seed))]
    if workload == "exact-algebra":
        # No randomness: the seed is recorded but changes nothing.
        return [
            (["matrices", "--n", str(RHO_N), "--which", "rho"],
             lambda out, code: checks.check_rho(out, code, RHO_N)),
            (["correlate", "--n", str(CORRELATE_N), "--tau-max", CORRELATE_TAU_MAX],
             lambda out, code: checks.check_correlate(
                 out, code, CORRELATE_N, float(CORRELATE_TAU_MAX))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-mc", "sample-long", "exact-algebra")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("IBROWNIAN_OUT_DIR", None)
    return env


def spawn(argv: list[str]) -> Child:
    """Run one child to completion under launch.py, which measures it."""
    report = os.path.join(OUT, "launch.json")
    t0 = time.perf_counter()
    with tempfile.TemporaryFile(dir=OUT) as err:
        # A new session, so a timeout can kill the launcher and its child together.
        proc = subprocess.Popen([sys.executable, LAUNCH, report, *argv], stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, env=_child_env(), start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0:
        if time.perf_counter() - t0 >= CHILD_TIMEOUT_S:
            raise RuntimeError(f"killed after {CHILD_TIMEOUT_S:.0f} s")
        raise RuntimeError(f"launch.py exited {proc.returncode}: {stderr.decode(errors='replace')}")
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)
    os.remove(report)
    return Child(rep["wall_s"], rep["cpu_s"], rep["maxrss_kb"] / 1024.0, rep["code"], stdout, stderr)


@dataclass
class Expected:
    """What the first checked execution printed; repeats must match it."""

    digests: dict = field(default_factory=dict)  # invocation index -> (code, sha256)
    suites_passed: int = 0


@dataclass
class Execution:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    error: str | None = None
    layer: dict | None = None


def execute(workload: str, seed: int, expected: Expected, traced: bool, run_id: str,
            reference_s: list | None = None) -> Execution:
    """One execution of the workload; with `reference_s`, reference.py runs
    before each CLI invocation and its wall times are appended there."""
    children, error, raw = [], None, Counter()
    for i, (args, check) in enumerate(invocations(workload, seed)):
        spans_path = os.path.join(OUT, f"{workload}-seed{seed}-{i}.spans.jsonl")
        if traced:
            argv = [sys.executable, TRACER, spans_path, f"{run_id}/{i}", *args]
        else:
            argv = [sys.executable, "-m", "ibrownian", *args]
        try:
            if reference_s is not None:
                reference_s.append(reference_time())
            child = spawn(argv)
        except RuntimeError as exc:  # a launcher failure or a child past CHILD_TIMEOUT_S
            error = error or f"{' '.join(args)}: {exc}"
            break
        children.append(child)
        digest = (child.code, hashlib.sha256(child.stdout).hexdigest())
        if i not in expected.digests and not traced:
            try:
                passed = check(child.stdout, child.code)
            except Exception as exc:  # any failure to parse or verify the output is a failed run
                tail = child.stderr.decode(errors="replace")[-500:]
                error = error or f"{' '.join(args)}: {type(exc).__name__}: {exc} {tail}".strip()
                continue
            expected.digests[i] = digest
            expected.suites_passed += passed or 0
        elif expected.digests.get(i) != digest:
            error = error or f"{' '.join(args)}: stdout or exit code differs from the first run"
        if traced and error is None:
            raw += layers.tally(layers.load(spans_path))
    wall = sum(c.wall_s for c in children)
    ex = Execution(traced, wall, sum(c.cpu_s for c in children),
                   max((c.rss_mb for c in children), default=0.0),
                   sum(len(c.stdout) for c in children), error)
    if traced and error is None:
        ex.layer = layers.metrics(raw, wall)
        floor = MIN_COVERAGE.get(workload)
        if floor is not None and ex.layer["trace.coverage_frac"] < floor:
            ex.error = f"trace coverage {ex.layer['trace.coverage_frac']:.3f} below {floor}"
    return ex


def timed(argv: list[str], what: str) -> float:
    child = spawn(argv)
    if child.code != 0:
        raise RuntimeError(f"{what} failed: {child.stderr.decode(errors='replace')}")
    return child.wall_s


def import_time(module: str = "ibrownian") -> float:
    """Wall time of a fresh `python -c "import MODULE"`; for ibrownian, the
    set-up every CLI run pays."""
    return timed([sys.executable, "-c", f"import {module}"], f"import {module}")


def reference_time() -> float:
    """Wall time of the fixed reference program."""
    return timed([sys.executable, REFERENCE], "reference.py")


@dataclass
class Measurement:
    executions: list = field(default_factory=list)
    expected: Expected = field(default_factory=Expected)
    import_s: list = field(default_factory=list)
    yardstick_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Measure set-up, then repeat rounds until the next one would end past
    `seconds` (both inside the window).

    With --trace 0, set-up is SETUP_PAIRS pairs of a fresh `import
    ibrownian` and a fresh `import numpy`.  The host's speed drifts, and
    start-up drifts with it, so setup_s is taken from the ratio within each
    pair, which cancels most of the drift, rather than from raw seconds.  A
    round is then one execution with reference.py run before each of its
    CLI invocations, for the same reason.  With --trace 1 a round is one
    untraced and one traced execution.  A failed set-up counts as one
    failed execution.
    """
    m, durations = Measurement(), []
    start = time.perf_counter()
    if not trace:
        try:
            # warm-ups, not counted: bytecode compiles in a new checkout
            import_time(), import_time("numpy"), reference_time()
            start = time.perf_counter()
            for _ in range(SETUP_PAIRS):
                m.import_s.append(import_time())
                m.yardstick_s.append(import_time("numpy"))
        except RuntimeError as exc:
            m.executions.append(Execution(False, 0.0, 0.0, 0.0, 0, f"set-up: {exc}"))
            return m
    while True:
        t0 = time.perf_counter()
        run_id = f"{workload}/{seed}/{len(durations)}"
        m.executions.append(execute(workload, seed, m.expected, False, run_id,
                                    None if trace else m.reference_s))
        if trace:
            m.executions.append(execute(workload, seed, m.expected, True, run_id))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
            return m


def summary(values: list[float]) -> dict:
    """Median, quartiles and count; all 0 when nothing was measured (the
    run is then reported incorrect)."""
    values = values or [0.0]
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(os.path.join(SRC, "ibrownian", "__init__.py"), encoding="utf-8") as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "ibrownian": version.group(1) if version else None,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": [["python3", "-m", "ibrownian", *args] for args, _ in invocations(workload, seed)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0 or not ns.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "ibrownian", "__init__.py")):
        sys.stderr.write(f"no ibrownian package under {SRC}: run from a full checkout\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    trace = bool(ns.trace)

    prov = provenance(ns.workload, ns.seed, ns.seconds, trace)
    m = measure(ns.workload, ns.seed, ns.seconds, trace)
    runs = m.executions
    failed = [ex for ex in runs if ex.error]
    plain = [ex for ex in runs if not ex.traced]

    stats: dict[str, dict] = {}
    if not trace:
        # Summed over the run, not a median of per-round ratios: the host's
        # speed swings within a second, so one reference run is a noisy
        # yardstick for the execution next to it, while the run's totals
        # see the same mix of fast and slow moments.
        ref = sum(m.reference_s)
        stats["wall_rel"] = summary([sum(ex.wall_s for ex in plain) / ref] if ref else [])
        stats["setup_s"] = summary([YARDSTICK_S * a / b for a, b in zip(m.import_s, m.yardstick_s)])
        stats["peak_rss_mb"] = summary([ex.rss_mb for ex in plain])
        units = END_TO_END
        shown = {**units, "wall_s": "s", "reference_s": "s", "import_s": "s", "yardstick_s": "s"}
        stats["wall_s"] = summary([ex.wall_s for ex in plain])
        stats["reference_s"] = summary(m.reference_s)
        stats["import_s"] = summary(m.import_s)
        stats["yardstick_s"] = summary(m.yardstick_s)
    else:
        traced = [ex for ex in runs if ex.traced and ex.layer is not None]
        for name in layers.METRICS:  # no successful traced execution: zeros, flagged incorrect
            stats[name] = summary([ex.layer[name] for ex in traced if name in ex.layer])
        stats["cli.cpu_s"] = summary([ex.cpu_s for ex in plain])
        stats["cli.stdout_bytes"] = summary([ex.stdout_bytes for ex in plain])
        stats["verification.suites_passed"] = summary([m.expected.suites_passed])
        traced_wall = [ex.wall_s for ex in traced]
        plain_wall = [ex.wall_s for ex in plain if not ex.error]
        stats["trace.overhead_frac"] = summary(
            [statistics.median(traced_wall) / statistics.median(plain_wall) - 1]
            if traced_wall and plain_wall else [])
        units = shown = {name: unit for name, (unit, _) in layers.METRICS.items()}

    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]} for name in units},
    }
    detail = {"provenance": prov, "result": result, "stats": stats,
              "errors": [ex.error for ex in failed],
              "executions": [{"traced": ex.traced, "wall_s": ex.wall_s, "cpu_s": ex.cpu_s,
                              "rss_mb": ex.rss_mb, "error": ex.error} for ex in runs],
              "import_s": m.import_s, "yardstick_s": m.yardstick_s, "reference_s": m.reference_s}
    with open(os.path.join(OUT, f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print("provenance " + json.dumps(prov))
    for ex in failed:
        print(f"FAILED {ex.error}")
    print(f"error_rate {len(failed) / len(runs):.4f} ({len(failed)}/{len(runs)})")
    for name, unit in shown.items():
        s = stats[name]
        print(f"{name:40s} {s['median']:>14.6g} {unit:6s} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
