"""One unit of one workload in a fresh interpreter, so that its peak RSS and
its lazily built state are its own.

Modes:
  setup   import the package and set the workload up, report the set-up time
  unit    set up, then run and check one untraced unit
  trace   install the tracer, set up, then run and check one traced unit

The last line of stdout is one JSON object for perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--mode", choices=("setup", "unit", "trace"), required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, "digests.json")) as fh:
        frozen = json.load(fh)[args.workload]
    clock = time.perf_counter
    start = clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import vermaext
    import vermaext.cli  # noqa: F401  (the CLI layer is part of the package under test)

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(vermaext)
    workload = WORKLOADS[args.workload](vermaext, args.size, args.seed, frozen, tracer)
    workload.setup()
    out = {"setup_s": clock() - start}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    workload.prepare()
    error = None
    t0 = clock()
    try:
        result = workload.unit()
    except Exception:  # the program under test raised: a failed unit, reported
        error = traceback.format_exc(limit=3)
    t1 = clock()
    # Peak RSS and the Bruhat count are taken here, before the check and the
    # layer counts, whose own allocations and comparisons are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bruhat_leq_calls = tracer.take_bruhat_leq_calls() if tracer is not None else 0
    if error is None:
        try:
            failed, problems = workload.check(result)
        except Exception:  # output so malformed that checking it raised
            error = traceback.format_exc(limit=3)
    if error is None:
        attempted, latencies = result.ops, result.latencies or []
    else:
        attempted = failed = 1
        problems, latencies = [error], []
    out.update(
        unit_s=t1 - t0,
        latencies_s=latencies,
        attempted=attempted,
        failed=failed,
        problems=problems,
        notes=workload.notes(),
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        extra = {} if error else workload.layer_counts()
        out["layers"] = tracing.layer_metrics(tracer, (t0, t1), bruhat_leq_calls, extra)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
