"""Per-layer metrics from the spans tracer.py writes.

A span's self time is its duration minus the durations of its direct
children (spans nest and never overlap: one thread).  A layer's busy time
is the summed duration of its spans that have no ancestor in the same
layer, so re-entry (sampling -> densities -> sampling) is not counted
twice; its self time is the sum of its spans' self times.

Trace coverage is the share of a traced process's wall time, less the time
tracer.py spends writing the spans, that went to interpreter start-up, the
package import, or the self time of a function in one of the computing
layers (sampling, densities, exact, spectral).  What cli and verification
do themselves (argument parsing, dispatch, output formatting, reductions)
and interpreter teardown count as uncovered, so a computing-layer call
that escapes its wrapper lands in a caller's self time and lowers the
coverage.
"""

from __future__ import annotations

import json
from collections import Counter

LAYERS = ("cli", "verification", "sampling", "densities", "exact", "spectral")
WORK_LAYERS = ("sampling", "densities", "exact", "spectral")
SUITES = ("w-covariance", "x-stationarity", "laplace", "symmetry", "whiteness", "chained")
# Functions whose own time is the sampling step kernel (drawing normals and
# combining states); stream creation and the covariance root have their own
# metrics.
KERNEL = ("sampling.sample_w_paths", "sampling.sample_x_paths", "sampling.sample_w",
          "sampling.sample_x", "sampling.mc_quadratic_laplace")
FLOAT_TABLES = ("exact.a_matrix", "exact.a_inverse_matrix")

# name -> (unit, better)
METRICS: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.busy_s"] = ("s", "lower")
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
METRICS.update({
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.cpu_s": ("s", "lower"),
    **{f"verification.{suite}_s": ("s", "lower") for suite in SUITES},
    "verification.suites_passed": ("count", "higher"),
    "sampling.streams": ("count", "lower"),
    "sampling.stream_s": ("s", "lower"),
    "sampling.stream_us_per_path": ("us", "lower"),
    "sampling.path_steps": ("count", "higher"),
    "sampling.normals": ("count", "higher"),
    "sampling.kernel_self_s": ("s", "lower"),
    "sampling.kernel_ns_per_path_step": ("ns", "lower"),
    "sampling.covariance_root_calls": ("count", "lower"),
    "sampling.covariance_root_s": ("s", "lower"),
    "densities.drift_matrix_calls": ("count", "lower"),
    "densities.drift_matrix_s": ("s", "lower"),
    "densities.log_transition_density_calls": ("count", "lower"),
    "densities.log_transition_density_us": ("us", "lower"),
    "exact.rho_matrix_s": ("s", "lower"),
    "exact.entries": ("count", "higher"),
    "exact.rho_us_per_entry": ("us", "lower"),
    "exact.matrix_to_json_s": ("s", "lower"),
    "exact.float_table_builds": ("count", "lower"),
    "spectral.cross_correlation_calls": ("count", "lower"),
    "spectral.cross_correlation_s": ("s", "lower"),
    "spectral.expansion_at_calls": ("count", "lower"),
    "spectral.expansion_at_s": ("s", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
})


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    if any(s["id"] != i for i, s in enumerate(spans)):
        raise ValueError(f"{path}: span ids out of order")
    return spans


def tally(spans: list[dict]) -> Counter:
    """Additive raw totals (seconds and counts) of one traced process."""
    n = len(spans)
    dur = [(s["end"] - s["start"]) * 1e-9 for s in spans]
    layer = [s["name"].split(".", 1)[0] for s in spans]
    child = [0.0] * n
    outer: list[frozenset] = [frozenset()] * n  # layers of a span and its ancestors
    for i, s in enumerate(spans):
        p = s["parent"]
        if p >= 0:
            child[p] += dur[i]
            outer[i] = outer[p] | {layer[i]}
        else:
            outer[i] = frozenset((layer[i],))
    out: Counter = Counter()
    laplace_keys = set()
    for i, s in enumerate(spans):
        name, lay, p = s["name"], layer[i], s["parent"]
        out[f"n:{name}"] += 1
        out[f"t:{name}"] += dur[i]
        self_time = dur[i] - child[i]
        out[f"{lay}.calls"] += 1
        out[f"{lay}.self_s"] += self_time
        if p < 0 or lay not in outer[p]:
            out[f"{lay}.busy_s"] += dur[i]
        if name in ("tracer.startup", "tracer.import") or lay in WORK_LAYERS:
            out["covered_s"] += self_time
        if name == "tracer.write":
            out["write_s"] += dur[i]
        if name in KERNEL:
            out["kernel_self_s"] += self_time
        if name in FLOAT_TABLES and (p < 0 or layer[p] != "cli"):
            out["float_table_builds"] += 1
        attrs = s.get("attrs")
        if attrs is not None:
            # The Laplace path set is cached per (paths, grid, seed) inside a
            # process, so only the first call with a key does the work.
            key = tuple(attrs["key"]) if "key" in attrs else None
            if key is None or key not in laplace_keys:
                if key is not None:
                    laplace_keys.add(key)
                steps = attrs.get("paths", 0) * attrs.get("steps", 0)
                out["path_steps"] += steps
                out["normals"] += steps * attrs.get("width", 0)
            out["entries"] += attrs.get("entries", 0)
    out["spans"] += n
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def metrics(raw: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution (spans summed over
    its CLI invocations, wall_s their summed process wall time)."""
    def calls(name):
        return raw[f"n:{name}"]

    def secs(name):
        return raw[f"t:{name}"]

    out = {}
    for layer in LAYERS:
        for kind in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{kind}"] = raw[f"{layer}.{kind}"]
    for suite in SUITES:
        out[f"verification.{suite}_s"] = secs(f"verification.SUITES[{suite}]")
    streams = calls("sampling.path_generator")
    out.update({
        "sampling.streams": streams,
        "sampling.stream_s": secs("sampling.path_generator"),
        "sampling.stream_us_per_path": _ratio(secs("sampling.path_generator"), streams, 1e6),
        "sampling.path_steps": raw["path_steps"],
        "sampling.normals": raw["normals"],
        "sampling.kernel_self_s": raw["kernel_self_s"],
        "sampling.kernel_ns_per_path_step": _ratio(raw["kernel_self_s"], raw["path_steps"], 1e9),
        "sampling.covariance_root_calls": calls("sampling.covariance_root"),
        "sampling.covariance_root_s": secs("sampling.covariance_root"),
        "densities.drift_matrix_calls": calls("densities.drift_matrix"),
        "densities.drift_matrix_s": secs("densities.drift_matrix"),
        "densities.log_transition_density_calls": calls("densities.log_transition_density"),
        "densities.log_transition_density_us": _ratio(
            secs("densities.log_transition_density"), calls("densities.log_transition_density"), 1e6),
        "exact.rho_matrix_s": secs("exact.rho_matrix"),
        "exact.entries": raw["entries"],
        "exact.rho_us_per_entry": _ratio(secs("exact.rho_matrix"), raw["entries"], 1e6),
        "exact.matrix_to_json_s": secs("exact.matrix_to_json"),
        "exact.float_table_builds": raw["float_table_builds"],
        "spectral.cross_correlation_calls": calls("spectral.cross_correlation"),
        "spectral.cross_correlation_s": secs("spectral.cross_correlation"),
        "spectral.expansion_at_calls": calls("spectral.CorrelationExpansion.at"),
        "spectral.expansion_at_s": secs("spectral.CorrelationExpansion.at"),
        "trace.coverage_frac": _ratio(raw["covered_s"], wall_s - raw["write_s"]),
        "trace.spans": raw["spans"],
    })
    return out
