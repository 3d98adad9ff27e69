"""smcensus benchmark: one workload per run, closed loop, single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; smcensus is imported from `src/`.
With `--trace 0` the workload runs pass after pass (one at a time, each
checked against its oracles) for about S seconds and at least two passes,
and the end-to-end metrics of BENCHMARK.json are reported: the mean pass
time and the median set-up time over fresh interpreters, both at a
reference CPU speed, peak RSS and the share of operations that passed.

A shared virtual machine changes speed by a third or more in phases of
seconds to minutes, which swamps run-to-run comparisons of raw times.  So
while a pass runs, a timer signal interrupts it every PROBE_PERIOD seconds
to time a short fixed pure-Python loop, the CPU speed at that moment; the
probes' own time is taken out of the pass time.  `wall_s` is the mean
pass time multiplied by REFERENCE_SECONDS over the mean probe time of the
run: the pass time on a machine where the probe loop takes
REFERENCE_SECONDS.  The raw mean is printed too.  Each set-up time is
rescaled the same way by probes just before and after it.

With `--trace 1` one pass runs untraced and the same pass runs again
traced, and the per-layer metrics of BENCHMARK.json are reported.

The last line of stdout is the JSON result.  The exit code is 1 when an
output disagrees with its oracle and 2 when smcensus is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
PROBE_PERIOD = 0.25
REFERENCE_SECONDS = 0.004  # the probe loop's usual time on a 2-vCPU Xeon virtual machine
MIN_PASSES = 2  # even when one pass outlasts --seconds, as a verify-default pass does
TRACE_DIR = HERE / "traces"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import plus input generation once, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class SpeedProbe:
    """While active, times a fixed pure-Python loop on every SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        table = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import smcensus (through the workload module) and build
    the inputs, rescaled to the reference speed like `wall_s`."""
    probe = SpeedProbe()
    probe.sample()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    elapsed = time.perf_counter() - t0
    probe.sample()
    return elapsed * REFERENCE_SECONDS / statistics.fmean(probe.samples)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, each waited for."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def timed_pass(run_pass, inputs, index):
    t0 = time.perf_counter()
    outcome = run_pass(inputs, index)
    return time.perf_counter() - t0, outcome


def run_untraced(workload, run_pass, inputs, seed, seconds):
    """Closed loop: start another pass while fewer than MIN_PASSES ran or
    one more mean pass still fits in the time budget."""
    times, outcomes = [], []
    probe = SpeedProbe()
    probe.sample()
    start = time.perf_counter()
    with probe:
        while (len(times) < MIN_PASSES
               or time.perf_counter() - start + statistics.fmean(times) <= seconds):
            done = len(probe.samples)
            dt, outcome = timed_pass(run_pass, inputs, len(times))
            times.append((dt - sum(probe.samples[done:])) * outcome.scale)
            outcomes.append(outcome)
    metrics = {
        "wall_s": statistics.fmean(times) * REFERENCE_SECONDS / statistics.fmean(probe.samples),
        "setup_s": setup_seconds(workload, seed),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return times, outcomes, metrics


def run_traced(workload, run_pass, seed, names):
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            inputs = workloads.WORKLOADS[workload][0](seed)
    finally:
        tracer.uninstall()
    plain_s, plain = timed_pass(run_pass, inputs, 0)
    tracer.install()
    try:
        with tracer.span("pass"):
            traced_s, traced = timed_pass(run_pass, inputs, 0)
    finally:
        tracer.uninstall()
    outcomes = [plain, traced]
    if plain.output != traced.output:
        traced.wrong.append("traced pass output differs from the untraced pass")

    metrics = tracing.layer_metrics(tracer, names)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["verify.sweep_threads2_s"] = 0.0
    if workload == "sweep-small":
        # the process pool, timed untraced on the same plan
        t0 = time.perf_counter()
        rows = workloads.verify.run_sweep(workloads.sweep_config(inputs, 0, threads=2))
        metrics["verify.sweep_threads2_s"] = time.perf_counter() - t0
        pooled = workloads.check_sweep(rows)
        if pooled.output != plain.output:
            pooled.wrong.append("threads=2 sweep differs from threads=1")
        outcomes.append(pooled)

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.jsonl")
    return [plain_s, traced_s], outcomes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smcensus" / "__init__.py").is_file():
        print(f"smcensus sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed)}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    if args.trace:
        times, outcomes, metrics = run_traced(args.workload, run_pass, args.seed,
                                              list(units))
    else:
        times, outcomes, metrics = run_untraced(args.workload, run_pass, setup(args.seed),
                                                args.seed, args.seconds)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = [w for o in outcomes for w in o.wrong]
    if not args.trace:
        metrics["ops_passed_frac"] = (attempted - failed) / attempted
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times)} passes, raw pass seconds {[round(t, 4) for t in times]}, "
          f"mean {statistics.fmean(times)}")
    print(f"ops attempted {attempted} failed {failed} "
          f"ops_failed_frac {failed / attempted:.6g}")
    if args.workload == "verify-default":
        digests = sorted({workloads.report_digest(o) for o in outcomes if o.output})
        print(f"verify report sha256 {' '.join(digests)}")
        if len(digests) > 1:
            wrong.append("verify reports of one argv differ between passes")
    for problem in wrong[:20]:
        print(f"WRONG: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
