"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
imports mosaic, runs the workload's set-up, then (unless --mode setup)
the timed section once and the checks, and prints one JSON line of
perf_counter() readings (CLOCK_MONOTONIC, shared between processes on
Linux, so run.py can set them against the moment it started this
process and against its speed samples) and results:

  setup_end    when set-up finished
  wall_begin, wall_end   the timed section
  end          when the timed section and its checks finished
  peak_rss_mb  peak resident memory after the timed section
  attempted, failures   the checks
  layers       with --trace 1: per-layer metrics, in measured seconds
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--max-codim", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import mosaic
    import spans
    import workloads
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(mosaic.__file__).resolve().parents:
        sys.exit(f"mosaic was imported from {mosaic.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup, timed, check = workloads.WORKLOADS[args.workload]
    extra = {} if args.max_codim is None else {"max_codim": args.max_codim}
    state = setup(args.seed, args.scale, **extra)
    result = {"setup_end": time.perf_counter()}
    if args.mode == "run":
        checks = workloads.Checks(args.workload)
        result["wall_begin"] = time.perf_counter()
        outputs = timed(state)
        result["wall_end"] = time.perf_counter()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(state, outputs, checks)
        result["attempted"] = checks.attempted
        result["failures"] = checks.failures
    result["end"] = time.perf_counter()
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
