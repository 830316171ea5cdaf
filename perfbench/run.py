"""Seeded end-to-end benchmark of ordspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the package source in ../src,
checks every answer, and prints one JSON object as the last line of
standard output: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, import_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def setup(workload, seed):
    """Import the modules the workload calls and make its inputs; returns
    (modules, inputs, seconds taken)."""
    t0 = time.perf_counter()
    modules = import_modules(workload.modules)
    inputs = workload.load(seed)
    return modules, inputs, time.perf_counter() - t0


def setup_seconds(args):
    """Median set-up time of fresh interpreters, each timed from inside."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Phase:
    """What a timed phase did; results holds the first pass, by input index."""

    elapsed: float = 0.0
    durations: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    units: int = 0
    failed: int = 0
    repeats_differ: int = 0


def timed_phase(workload, modules, inputs, seconds):
    """Whole passes over the inputs, so every run attempts the same calls in
    the same order: one pass, then more while the next is expected to end
    within `seconds`. The first pass's results are kept for the checks;
    later passes are compared with them, so memory does not grow with the
    number of passes."""
    phase = Phase()
    passes = 0
    start = time.perf_counter()
    while True:
        for index, inp in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                result = workload.call(modules, inp)
            except Exception:
                phase.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                phase.durations.append(time.perf_counter() - t0)
            phase.units += workload.units(result)
            for stage, sec in workload.stages(result).items():
                phase.stages[stage] = phase.stages.get(stage, 0.0) + sec
            if passes == 0:
                phase.results[index] = result
            elif index not in phase.results or (
                workload.answer(result) != workload.answer(phase.results[index])
            ):
                phase.repeats_differ += 1
        passes += 1
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed * (passes + 1) / passes > seconds:
            return phase


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ordspace" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ordspace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup(workload, args.seed)[2])
        return 0

    modules, inputs, _ = setup(workload, args.seed)
    package = sys.modules["ordspace"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ordspace from {package.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    phase = timed_phase(workload, modules, inputs, args.seconds)
    if tracer:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(modules, inputs, list(phase.results.items()), args.seed)
    if phase.repeats_differ:
        problems.append(f"{phase.repeats_differ} repeated calls answered unlike the first pass")
    for p in problems[:20]:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    calls = len(phase.durations)
    items_per_s = phase.units / phase.elapsed
    median_ms = 1000 * statistics.median(phase.durations)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={calls} passes={calls // len(inputs)} elapsed={phase.elapsed:.3f}s "
          f"items_per_s={items_per_s:.4f} median_ms={median_ms:.4f} "
          f"problems={len(problems)}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(calls, phase.stages)
    else:
        metrics = {
            "setup_s": {"value": setup_seconds(args), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "median_ms": {"value": median_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": calls,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
