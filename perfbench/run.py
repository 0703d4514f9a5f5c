"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lookup-n7 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every repetition is a fresh interpreter (perfbench/child.py), so the
diagonal-set cache, the complex cache and peak RSS start cold each time.
One child runs at a time, so the load is a single process.

Times are at a reference speed.  The machine's speed drifts by tens of
percent over seconds to minutes, so run.py samples it (SpeedProbe) while
each child runs, on the CPU the child is pinned to, and rescales each
time by the median speed over its own section.  The measured seconds are
logged too (raw_wall_s, raw_setup_s).

--trace 0 repeats the workload until --seconds have passed (at least
once) and reports the end-to-end metrics, as medians over repetitions:

  wall_s       seconds in the timed section
  peak_rss_mb  peak resident memory of the workload process
  setup_s      interpreter start, `import mosaic`, input generation and
               fixture builds; sampled at least MIN_SETUPS times and
               for at least MIN_SETUP_TOTAL_S seconds

--trace 1 runs the workload once with spans around the public function
of every module and reports the per-layer metrics (see README.md).  On
build-n8 it first times build_complex(8, max_codim=k) for k < 5, each in
its own interpreter, and takes the per-grade cost from the differences.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run is also appended, with
its seed, versions, nproc, git commit and any failures, to
.perfbench/results.jsonl in the checkout.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("build-n8", "lookup-n7", "verify-n7")
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# set-up is sampled at least this often and for at least this long, so
# the short set-ups (interpreter start and imports) get many samples
MIN_SETUPS = 3
MIN_SETUP_TOTAL_S = 2.0
# build-n8 grades below the top one, per scale: n - 3 for the build's n
# in workloads.SCALES (which run.py does not import, as it imports mosaic)
SCALE_GRADES = {"full": 5, "tiny": 2}
# the whole run must end within 180 s; children get what is left of this
DEADLINE_S = 170


class ChildFailed(Exception):
    pass


class SpeedProbe:
    """Samples how fast this CPU runs Python, from outside the program.

    Every INTERVAL_S, while run.py waits for a child, a SIGALRM handler
    in run.py times a fixed dict-and-sort loop.  run.py and its children
    share one CPU (measure() pins them), so the loop runs on the core the
    program runs on, but in run.py's own small heap: the program's memory
    use cannot change the loop's allocator state.  A section's time at
    the reference speed is its measured time times REFERENCE_S over the
    median loop time in that section; the median, because an interrupt
    can stretch a single sample.  REFERENCE_S only fixes the unit
    (seconds at the speed where the loop takes REFERENCE_S); any constant
    compares commits on one machine alike.  The loop takes about 0.6 % of
    the CPU.
    """

    INTERVAL_S = 0.1
    REFERENCE_S = 0.0006

    def __init__(self):
        self.samples = []  # (perf_counter() at the start, loop seconds)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def sample(self):
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i * 7919 % 4099] = i
        sorted(table)
        self.samples.append((start, time.perf_counter() - start))

    def factor(self, begin, end):
        """REFERENCE_S over the median loop time between begin and end.

        A section too short to hold three samples takes the three samples
        nearest its middle.
        """
        inside = [took for at, took in self.samples if begin <= at <= end]
        if len(inside) < 3:
            middle = (begin + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [took for _, took in nearest[:3]]
        return self.REFERENCE_S / statistics.median(inside)


def child(args, probe, mode="run", trace=0, max_codim=None, deadline=None):
    """Run one repetition; return its result with its times added."""
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--mode", mode, "--trace", str(trace)]
    if max_codim is not None:
        command += ["--max-codim", str(max_codim)]
    if trace:
        command += ["--spans-out", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args.workload} {mode}: no result within the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{args.workload} {mode} exited with {proc.returncode}:\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["setup_end"] - start
    result["setup_s"] = result["raw_setup_s"] * probe.factor(start, result["setup_end"])
    if mode == "run":
        begin, end = result["wall_begin"], result["wall_end"]
        result["raw_wall_s"] = end - begin
        result["wall_s"] = result["raw_wall_s"] * probe.factor(begin, end)
    result["speed"] = probe.factor(start, result["end"])
    return result


def timed_run(args, probe, deadline):
    start = time.perf_counter()
    reps = [child(args, probe, deadline=deadline)]
    while time.perf_counter() - start < args.seconds:
        last = reps[-1]
        if time.perf_counter() + last["end"] - last["setup_end"] + last["raw_setup_s"] > deadline:
            break
        reps.append(child(args, probe, deadline=deadline))
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_TOTAL_S:
        setups.append(child(args, probe, mode="setup", deadline=deadline)["setup_s"])
    samples = {"wall_s": [rep["wall_s"] for rep in reps],
               "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
               "setup_s": setups,
               "raw_wall_s": [rep["raw_wall_s"] for rep in reps]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return reps, metrics, samples


def traced_run(args, probe, deadline):
    """The per-layer metrics; on build-n8 also the per-grade cost.

    Grade k costs T(k) - T(k-1), where T(k) is one untraced
    build_complex(8, max_codim=k) in its own interpreter for k < 5, and
    T(5) is the traced full build.  Each is a single sample, so a grade
    carries the noise of two builds and a small one can read below 0.
    """
    reps = []
    prefix = []
    if args.workload == "build-n8":
        for k in range(SCALE_GRADES[args.scale]):
            reps.append(child(args, probe, max_codim=k, deadline=deadline))
            prefix.append(reps[-1]["wall_s"])
    traced = child(args, probe, trace=1, deadline=deadline)
    reps.append(traced)
    units = dict(spans.LAYER_METRICS)
    values = {name: value * traced["speed"] if units[name] in ("s", "us") else value
              for name, value in traced["layers"].items()}
    values["trace.wall_s"] = traced["wall_s"]
    if prefix:
        totals = prefix + [traced["wall_s"]]
        for k, total in enumerate(totals):
            values[f"moduli.build_complex.n8-projective.grade{k}.s"] = \
                total - (totals[k - 1] if k else 0.0)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return reps, metrics, {"trace.wall_s": [traced["wall_s"]]}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(args):
    """Run one workload as run.py does; return the record it logs."""
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    run = traced_run if args.trace else timed_run
    cpus = os.sched_getaffinity(0)
    # the children inherit the pinning, so the probe shares their CPU
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with SpeedProbe() as probe:
            reps, metrics, samples = run(args, probe, deadline)
    finally:
        os.sched_setaffinity(0, cpus)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale,
            "python": platform.python_version(), "numpy": reps[-1]["numpy"],
            "nproc": len(cpus), "commit": git_commit(),
            "samples": samples,
            "attempted": sum(rep.get("attempted", 0) for rep in reps),
            "failures": [f for rep in reps for f in rep.get("failures", ())],
            "metrics": metrics}


def parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALE_GRADES), default="full",
                   help="tiny sizes exist for the harness self-tests")
    return p


def main(argv=None):
    args = parser().parse_args(argv)
    if not (ROOT / "src" / "mosaic" / "__init__.py").is_file():
        print(f"no mosaic package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    attempted, failures, metrics = record["attempted"], record["failures"], record["metrics"]
    for f in failures:
        print(f"FAIL {f['workload']} {f['operation']} input={f['input']}: "
              f"got {f['got']}, want {f['want']}", file=sys.stderr)
    shown = "" if args.trace else " ".join(
        f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    counts = ", ".join(f"{name} n={len(values)}" for name, values in record["samples"].items())
    print(f"{args.workload} seed={args.seed}: {shown} "
          f"fail_ratio={len(failures) / attempted:.6g} ({len(failures)}/{attempted}) [{counts}]")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
