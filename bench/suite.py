"""Run the benchmark over several seeds, summarise it, and compare two results.

    python3 bench/suite.py [--seeds 1-10] [--out FILE]
    python3 bench/suite.py --compare OLD.json NEW.json

The first form runs bench/run.py once per workload of BENCHMARK.json and
seed with --trace 0, for BENCHMARK.json's run_seconds (seeds outermost, so
slow drift of the machine hits every workload alike), then once per
workload with --trace 1 on the first seed.  It prints, for
each workload, every end-to-end metric with its unit, its median across
runs and quartiles, the spread (quartile distance over median) against a
third of the metric's bound, and error_rate = failed / attempted.  With
--out it writes every run's result and the provenance to FILE.

The second form is a report, not a gate: for each workload and end-to-end
metric it prints both medians and quartiles and a verdict against the
metric's bound from BENCHMARK.json:
  worse       the new median is worse than the old by more than the bound;
  improved    better by more than the old runs' own quartile distance, and
              the new runs' worse quartile beats the old runs' better one;
  unresolved  the old runs spread wider than the bound, so "unchanged"
              cannot be told apart from a change within it;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCH = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


# Raw seconds printed next to the gated metrics; not bounded, because this
# machine's speed drifts more than any useful bound (see reference.py).
INFORMATIONAL = ("wall_s", "reference_s", "import_s", "yardstick_s")


def load_config() -> dict:
    with open(CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run.py run, and the per-metric stats it saved."""
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        stats = json.load(fh)["stats"]
    return json.loads(lines[-1]), stats


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(doc: dict) -> dict:
    """workload -> metric -> {median, q1, q3, n, unit, values}; plus error_rate."""
    out: dict[str, dict] = {}
    for rec in doc["runs"]:
        if rec["trace"]:
            continue
        wl = out.setdefault(rec["workload"], {"_attempted": 0, "_failed": 0})
        wl["_attempted"] += rec["result"]["attempted"]
        wl["_failed"] += rec["result"]["failed"]
        for name, m in rec["result"]["metrics"].items():
            wl.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name in INFORMATIONAL:
            if name in rec.get("stats", {}):
                wl.setdefault(name, {"unit": "s", "values": []})["values"].append(
                    rec["stats"][name]["median"])
    for wl in out.values():
        for name, m in list(wl.items()):
            if not name.startswith("_"):
                m["q1"], m["median"], m["q3"] = quartiles(m["values"])
                m["n"] = len(m["values"])
        attempted, failed = wl.pop("_attempted"), wl.pop("_failed")
        wl["error_rate"] = {"unit": "ratio", "values": [failed / attempted],
                            "median": failed / attempted, "q1": failed / attempted,
                            "q3": failed / attempted, "n": attempted}
    return out


def print_summary(summary: dict, config: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    print(f"{'workload':14s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'unit':6s} "
          f"{'n':>3s} {'spread':>7s} {'bound/3':>7s}")
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            spread = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
            limit = bounds[name] / 3 if name in bounds else None
            flag = ""
            if limit is not None and spread >= limit:
                flag, steady = "  WIDE", False
            print(f"{workload:14s} {name:12s} {m['median']:10.4f} {m['q1']:10.4f} {m['q3']:10.4f} "
                  f"{m['unit']:6s} {m['n']:3d} {spread:7.4f} "
                  f"{'' if limit is None else f'{limit:7.4f}'}{flag}")
    return steady


def verdict(old: dict, new: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    if not old["median"]:
        return "worse" if sign * (new["median"] - old["median"]) > 0 else "unchanged"
    delta = sign * (new["median"] - old["median"]) / abs(old["median"])
    old_spread = (old["q3"] - old["q1"]) / abs(old["median"])
    old_best, new_worst = (old["q1"], new["q3"]) if better == "lower" else (old["q3"], new["q1"])
    if delta > bound:
        return "worse"
    if delta < -old_spread and sign * (new_worst - old_best) < 0:
        return "improved"
    if old_spread > bound:
        return "unresolved"
    return "unchanged"


def compare(old_doc: dict, new_doc: dict, config: dict) -> None:
    old, new = summarise(old_doc), summarise(new_doc)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    print(f"{'workload':14s} {'metric':12s} {'old median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for workload in new:
        if workload not in old:
            print(f"{workload:14s} (not in the old results)")
            continue
        for name, spec in metrics.items():
            if name not in new[workload] or name not in old[workload]:
                continue
            o, n = old[workload][name], new[workload][name]
            delta = (n["median"] - o["median"]) / o["median"] if o["median"] else 0.0
            v = verdict(o, n, spec["bound"], spec["better"])
            print(f"{workload:14s} {name:12s} "
                  f"{o['median']:10.4f} [{o['q1']:.4f}, {o['q3']:.4f}] "
                  f"{n['median']:10.4f} [{n['q1']:.4f}, {n['q3']:.4f}] "
                  f"{delta:+8.2%} {spec['bound']:6.2f}  {v}")
        for name in INFORMATIONAL:
            if name in new[workload] and name in old[workload]:
                o, n = old[workload][name], new[workload][name]
                print(f"{workload:14s} {name:12s} "
                      f"{o['median']:10.4f} [{o['q1']:.4f}, {o['q3']:.4f}] "
                      f"{n['median']:10.4f} [{n['q1']:.4f}, {n['q3']:.4f}] "
                      f"{(n['median'] - o['median']) / o['median']:+8.2%} {'':6s}  (not gated)")
        o, n = old[workload]["error_rate"], new[workload]["error_rate"]
        print(f"{workload:14s} {'error_rate':12s} {o['median']:32.4f} {n['median']:32.4f} "
              f"{'':8s} {'':6s}  {'worse' if n['median'] > o['median'] else 'unchanged'}")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range a-b or a comma list")
    parser.add_argument("--out", help="write the results document here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ns = parser.parse_args(argv)
    config = load_config()
    if ns.compare:
        docs = []
        for path in ns.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        compare(docs[0], docs[1], config)
        return 0

    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(ns.seeds)
    doc = {"provenance": run.provenance(workloads[0], seeds[0], seconds, False),
           "seconds": seconds, "runs": []}
    del doc["provenance"]["workload"], doc["provenance"]["argv"], doc["provenance"]["trace"]
    doc["provenance"]["argv"] = {wl: run.provenance(wl, seeds[0], seconds, False)["argv"]
                                 for wl in workloads}
    plan = [(wl, seed, 0) for seed in seeds for wl in workloads]
    plan += [(wl, seeds[0], 1) for wl in workloads]
    for workload, seed, trace in plan:
        result, stats = run_once(workload, seed, seconds, trace)
        doc["runs"].append({"workload": workload, "seed": seed, "trace": trace, "result": result,
                            "stats": stats})
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if not trace or k.startswith("trace.")}
        print(f"# {workload} seed={seed} trace={trace} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    steady = print_summary(summarise(doc), config)
    print("steady: every spread below a third of its bound" if steady
          else "NOT steady: some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
