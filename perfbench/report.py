"""Every workload's end-to-end metrics and tracing overhead, in one table.

    python3 perfbench/report.py --seed 1

Runs each workload once untraced and once traced, exactly as run.py
does with BENCHMARK.json's run_seconds, and prints per workload: wall_s,
peak_rss_mb and setup_s (medians, with their sample counts), fail_ratio,
and the tracing overhead, which is the traced run's wall time
(trace.wall_s) minus the untraced median wall_s.  Takes about five
minutes on a 2-core machine, most of it the n = 8 build, which the
traced run repeats with per-grade prefixes.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    worst = 0
    for workload in run.WORKLOADS:
        records = {}
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            records[trace] = run.measure(run.parser().parse_args(argv))
        untraced, traced = records[0], records[1]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = len(untraced["failures"]) + len(traced["failures"])
        worst = max(worst, failed)
        cells = [f"{name}={m['value']:.4g} {m['unit']} (n={len(untraced['samples'][name])})"
                 for name, m in untraced["metrics"].items()]
        wall = untraced["metrics"]["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall
        print(f"{workload}: " + " ".join(cells)
              + f" fail_ratio={failed / attempted:.4g} ({failed}/{attempted})"
              + f" tracing_overhead={overhead:+.4g} s ({overhead / wall:+.1%})")
        for f in untraced["failures"] + traced["failures"]:
            print(f"  FAIL {f['operation']} input={f['input']}: got {f['got']}, "
                  f"want {f['want']}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
