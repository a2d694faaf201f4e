"""Run one ibrownian CLI invocation with every layer's public functions traced.

    python3 bench/tracer.py SPANS_FILE RUN_ID CLI_ARG...

The tracing lives here, in the benchmark, not in the library: this script
imports the package, replaces each public function and public method of the
six layer modules with a wrapper that records a span, rebinds every name and
module-level dict entry that refers to a wrapped function (the CLI's
`_MATRIX_BUILDERS`, the verification `SUITES`, names imported with
`from .x import f`), then calls `ibrownian.cli.main` with the CLI arguments.
Stdout is the CLI's own and must match an untraced run byte for byte.

Each span has a name `<layer>.<function>`, a start and end in nanoseconds
on the system-wide monotonic clock (time.perf_counter_ns on Linux), the
index of its parent span (-1 for a root), and the run id.  Spans stay in
memory and are written as JSON lines after the CLI returns.  The roots are
`tracer.startup` (from BENCH_SPAWN_NS, which launch.py sets to its clock
reading just before it started this process, to the import of the
package: interpreter start-up),
`tracer.import`, `cli.main` and `tracer.write`.  layers.py computes the
trace's coverage from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

_perf = time.perf_counter_ns

LAYERS = ("cli", "verification", "sampling", "densities", "exact", "spectral")


def _shape_attrs(n, times, n_paths, *args, **kwargs):
    return {"paths": int(n_paths), "steps": len(times), "width": int(n) + 1}


def _laplace_attrs(theta, n_paths, grid_size, seed, *args, **kwargs):
    return {"paths": int(n_paths), "steps": int(grid_size), "width": 2, "key": [n_paths, grid_size, seed]}


def _rho_attrs(dim, *args, **kwargs):
    return {"entries": (int(dim) + 1) ** 2}


# Work counts are read from the call arguments of these functions, so that
# the library needs no counters of its own.
ATTRS = {
    "sampling.sample_w_paths": _shape_attrs,
    "sampling.mc_quadratic_laplace": _laplace_attrs,
    "exact.rho_matrix": _rho_attrs,
}


class Recorder:
    """In-memory span list; one per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent, start_ns, end_ns, attrs]
        self._stack = [-1]

    def open(self, name: str, start: int | None = None) -> list:
        rec = [name, self._stack[-1], _perf() if start is None else start, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = _perf()
        self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # A signature change makes attrs_of raise TypeError, which fails the
        # traced run rather than silently reading zero work.
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            rec = [name, stack[-1], _perf(), 0, attrs]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = _perf()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        rec = self.open("tracer.write")
        run_id = json.dumps(self.run_id)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                if i == len(self.spans) - 1:  # this span: close it before writing it
                    self.close(rec)
                    end = rec[3]
                extra = "" if attrs is None else f', "attrs": {json.dumps(attrs)}'
                fh.write(f'{{"run": {run_id}, "id": {i}, "parent": {parent}, "name": "{name}", '
                         f'"start": {start}, "end": {end}{extra}}}\n')


def _is_target(obj, module_name: str) -> bool:
    # lru_cache wrappers are not plain functions but carry the module name.
    return callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module_name


def install(recorder: Recorder, package) -> None:
    """Wrap the public functions and methods of each layer."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    layer_of = {mod.__name__: layer for layer, mod in modules.items()}
    wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def wrap(name: str, fn):
        entry = wrapped.get(id(fn))
        if entry is None:
            entry = (fn, recorder.wrap(name, fn))
            wrapped[id(fn)] = entry
        return entry[1]

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name, wrap(f"{layer}.{name}.{meth_name}", meth))
            elif _is_target(obj, mod.__name__):
                wrap(f"{layer}.{name}", obj)

    def rebound(obj):
        entry = wrapped.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    # Callers look functions up in their own namespace or in a dispatch dict,
    # so every binding of a wrapped function is replaced, not just the one in
    # the defining module.  Dispatch-dict values that are not public functions
    # (the verification SUITES lambdas) get a span named after their key.
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            new = rebound(obj)
            if new is not None:
                setattr(mod, name, new)
            elif isinstance(obj, dict) and mod is not package:
                for key, value in list(obj.items()):
                    new = rebound(value)
                    if new is None and isinstance(key, str) and callable(value) \
                            and getattr(value, "__module__", None) in layer_of:
                        new = wrap(f"{layer_of[value.__module__]}.{name}[{key}]", value)
                    if new is not None:
                        obj[key] = new


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        sys.stderr.write("usage: tracer.py SPANS_FILE RUN_ID CLI_ARG...\n")
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(run_id)
    spawn_ns = os.environ.get("BENCH_SPAWN_NS")
    recorder.close(recorder.open("tracer.startup", start=int(spawn_ns) if spawn_ns else None))
    rec = recorder.open("tracer.import")
    package = importlib.import_module("ibrownian")
    importlib.import_module("ibrownian.cli")  # as `python -m ibrownian` does
    recorder.close(rec)
    install(recorder, package)
    code = package.cli.main(cli_args)
    sys.stdout.flush()
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
