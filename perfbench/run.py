"""vermaext benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload scan-b4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both views
    python3 perfbench/run.py --smoke                 # tiny sizes, schema and gates

Every unit of work runs in a fresh child process (perfbench/child.py), one
client in a closed loop: the next call starts when the previous one returns.
With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric, both checked for
exact outputs.  Run from the root of a checkout that holds src/vermaext.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import percentile
from workloads import seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan-b4", "tables-f4", "point-e6", "query-mix")
# Set-up is sampled in at least this many fresh processes (every unit's
# process is one); the median is reported.
SETUP_SAMPLES = 5
# One run is allowed 180 s.  Children still alive this long after the run
# started are killed and the run fails, so no child outlives its run.
RUN_LIMIT_S = 170
SMOKE_TIMEOUT_S = 600


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, size: str, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise ChildFailed("%s exited %d:\n%s" % (" ".join(cmd[1:]), proc.returncode,
                                                proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """(attempted, failed, problems, notes, metrics) of one benchmark run.

    Untraced, a run repeats units, each in a fresh process, while the next
    process is expected to end within ``seconds`` of the first one's start
    (at least one).  Traced, it runs one untraced and one traced unit."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        base = child(workload, seed, size, "unit", deadline)
        traced = child(workload, seed, size, "trace", deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["unit_s"] - base["unit_s"]
        return (base["attempted"] + traced["attempted"], base["failed"] + traced["failed"],
                base["problems"] + traced["problems"], traced["notes"], metrics)
    units, spent = [], []  # spent: wall time of each unit's whole process
    while not spent or sum(spent) + statistics.median(spent) <= seconds:
        t = time.monotonic()
        units.append(child(workload, seed, size, "unit", deadline))
        spent.append(time.monotonic() - t)
    times = [u["unit_s"] for u in units]
    setups = [u["setup_s"] for u in units]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(workload, seed, size, "setup", deadline)["setup_s"])
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    latencies = [t for u in units for t in u["latencies_s"]] or times
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(times),
        "ops_per_s": (attempted - failed) / sum(times),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "call_p50_ms": percentile(latencies, 50) * 1000,
        "call_p90_ms": percentile(latencies, 90) * 1000,
    }
    return (attempted, failed, [p for u in units for p in u["problems"]], units[0]["notes"],
            metrics)


def load_spec() -> dict:
    """run_seconds, and the unit of every metric by section, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }
    out["run_seconds"] = spec["run_seconds"]
    return out


def result_json(attempted, failed, metrics, units) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def environment() -> str:
    return "python %s, numpy %s, %d cpus" % (
        platform.python_version(), importlib.metadata.version("numpy"), os.cpu_count())


def report(workload, seed, attempted, failed, problems, notes, metrics, units):
    print("# %s seed %d: %s" % (workload, seed, environment()))
    for name, unit in units.items():
        print("%-42s %16.6g %s" % (name, metrics[name], unit))
    print("%-42s %16.6g %s (%d of %d operations)" % (
        "failed_frac", failed / max(attempted, 1), "1", failed, attempted))
    for msg in problems[:10]:
        print("problem:", msg.rstrip())
    for msg in notes:
        print("note:", msg)


def smoke(seed: int) -> int:
    """Every workload at its tiny size through this script's own command
    line, both views; checks the schema of the last line and the gates."""
    spec = load_spec()
    bad = 0
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                   "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT_S)
            errors = []
            try:
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                errors = schema_errors(last, spec[section])
            except (ValueError, IndexError) as exc:
                errors = ["no JSON result (%s); exit %d; %s"
                          % (exc, proc.returncode, proc.stderr[-500:])]
            if proc.returncode != 0:
                errors.append("exit code %d" % proc.returncode)
            bad += bool(errors)
            print("%-10s trace %d: %s" % (workload, trace, "ok" if not errors else "; ".join(errors)))
    return 1 if bad else 0


def schema_errors(result: dict, units: dict) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("keys %s" % sorted(result))
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("correctness gate: correct=%r failed=%r" % (result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted=%r" % result["attempted"])
    if set(result["metrics"]) != set(units):
        errors.append("metric names differ: %s"
                      % sorted(set(result["metrics"]) ^ set(units)))
    for name, entry in result["metrics"].items():
        if (set(entry) != {"value", "unit"} or entry["unit"] != units.get(name)
                or not isinstance(entry["value"], (int, float))):
            errors.append("metric %s is %r" % (name, entry))
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=seeds()["check"],
                    help="input seed (default: the check seed of perfbench/metrics.json)")
    ap.add_argument("--seconds", type=float,
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input size; smoke is the tiny size the self-test uses")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at the smoke size and check schema and gates")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vermaext", "__init__.py")):
        print("error: src/vermaext not found under %s; run from a vermaext checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.workload != "all":
            units = spec["per_layer" if args.trace else "end_to_end"]
            attempted, failed, problems, notes, metrics = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), args.size)
            report(args.workload, args.seed, attempted, failed, problems, notes, metrics, units)
            print(json.dumps(result_json(attempted, failed, metrics, units)))
            return 0
        total_attempted = total_failed = 0
        merged, merged_units = {}, {}
        for workload in WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                units = spec[section]
                attempted, failed, problems, notes, metrics = measure(
                    workload, args.seed, args.seconds, trace, args.size)
                report(workload, args.seed, attempted, failed, problems, notes, metrics, units)
                total_attempted += attempted
                total_failed += failed
                for name, unit in units.items():
                    merged["%s/%s" % (workload, name)] = metrics[name]
                    merged_units["%s/%s" % (workload, name)] = unit
        print(json.dumps(result_json(total_attempted, total_failed, merged, merged_units)))
        return 0
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
