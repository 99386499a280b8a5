"""End-to-end benchmark of the jscthermo CLI: phase-sweep, oracle, wiretap.

Usage:
    python3 perfbench/run.py --workload phase-sweep --seed 1 --seconds 20 --trace 0

One client, one operation in flight (a closed loop).  Each operation goes
in-process through ``jscthermo.cli.main``.  The run times operations in
whole rounds until ``--seconds`` have passed, checks every output against
references computed apart from the program (checks.py), reruns the first
operation untimed and requires byte-identical output, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and the metrics.  With
``--trace 0`` those are the end-to-end metrics; with ``--trace 1`` the run
times the same kind of rounds untraced and then traced, and reports the
per-layer metrics of the traced part plus the tracing overhead.

End-to-end times are in reference seconds: wall seconds scaled by how fast
the host ran a fixed kernel around the same rounds (calib.py), so that the
host's drift cancels and the program's own changes show.  Per-layer span
times are wall seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread for the benchmark and its set-up probes, set before numpy
# loads: on two cores OpenBLAS thread wake-ups turned 0.1 s table builds
# into 0.4-0.6 s outliers.  The closed loop keeps one operation in flight.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"        # spec files of a running benchmark
RESULTS = HERE / "results"   # result and trace files
SETUP_PROBES = 7


def _program():
    """Import the CLI from this checkout's source tree, or stop."""
    if not (SRC / "jscthermo" / "cli.py").is_file():
        sys.exit(f"perfbench: no jscthermo source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import jscthermo.cli
    return jscthermo.cli


def measure_setup(workload: str, seed: int) -> tuple:
    """Median spawn-to-ready time in reference seconds, and import time.

    The set-up kernel is timed before the first probe and after each one;
    a probe is scaled by the two kernel times around it.
    """
    gauge = calib.Gauge("setup")
    ready, imports = [], []
    gauge.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               workload, str(seed)],
                              cwd=HERE.parent, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
        gauge.sample()
        ready.append(seconds * gauge.factor())
    return statistics.median(ready), statistics.median(imports)


def run_op(main, argvs: list) -> tuple:
    """Run one operation's CLI calls in order: (ok, outputs, seconds)."""
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:      # argparse rejects the arguments
            code = exc.code
        except Exception:              # a fault in the program: count, go on
            traceback.print_exc()
            code = -1
        outputs.append(buf.getvalue())
        if code != 0:
            print(f"perfbench: {argv} exited with {code}", file=sys.stderr)
            return False, outputs, time.perf_counter() - start
    return True, outputs, time.perf_counter() - start


def _analysis_cache():
    """The analysis cache of jscthermo.phases, if the program has one."""
    return getattr(sys.modules["jscthermo.phases"], "_combined_entropy", None)


def cache_counts() -> tuple:
    info = getattr(_analysis_cache(), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


class Runner:
    """Feeds one workload's seeded inputs through the CLI, one at a time."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.inputs = iter(workload.inputs(seed))
        self.warmup = workload.warmup(seed)

    def argvs(self, op) -> list:
        return workloads.argvs_for(op, workloads.write_spec(op, self.workdir))

    def timed(self, seconds: float, tracer=None) -> tuple:
        """Whole rounds until ``seconds`` pass: ([(op, ok, outputs, s)], ref, gauge).

        The workload's kernel is timed before the first round and after
        each one.  ``ref`` holds each operation's time in reference seconds,
        scaled by the two kernel times around its round: the host's speed
        moves from one second to the next, and a run-wide factor would
        miss that.
        """
        main = self.cli.main if tracer is None else tracer.span(spans.ROOT, self.cli.main)
        gauge = calib.Gauge(self.workload.name)
        done, ref = [], []
        start = time.perf_counter()
        gauge.sample()
        while not done or time.perf_counter() - start < seconds:
            first = len(done)
            for _ in range(self.workload.round_size):
                op = next(self.inputs, None)
                if op is None:
                    sys.exit("perfbench: ran out of generated inputs")
                argvs = self.argvs(op)
                if tracer is not None:
                    tracer.op = op.index
                done.append((op,) + run_op(main, argvs))
            gauge.sample()
            factor = gauge.factor()
            ref.extend(t * factor for _, _, _, t in done[first:])
        return done, ref, gauge

    def check(self, done: list) -> bool:
        correct = True
        for op, ok, outputs, _ in done:
            if not ok:
                continue
            try:
                problems = self.workload.check(op, [json.loads(o) for o in outputs])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            for problem in problems:
                print(f"perfbench: {self.workload.name} input {op.index}: {problem}",
                      file=sys.stderr)
            correct = correct and not problems
        return correct

    def rerun_identical(self, op, outputs: list) -> bool:
        """Recompute one operation from a cold analysis cache; same bytes?"""
        clear = getattr(_analysis_cache(), "cache_clear", None)
        if clear is not None:
            clear()
        ok, again, _ = run_op(self.cli.main, self.argvs(op))
        if not ok or again != outputs:
            print(f"perfbench: rerun of input {op.index} is not byte-identical",
                  file=sys.stderr)
            return False
        return True


def latency_metrics(ref: list, round_size: int) -> dict:
    """Operation latency and throughput from times in reference seconds.

    ``op_p50_s`` is the median over rounds of a round's mean operation
    time.  With one operation a round that is the median operation; on
    phase-sweep, whose rounds hold four channel families of distinct cost
    in equal numbers, a per-operation median would fall in the gap between
    two families and swing with their extreme members.
    """
    rounds = [statistics.fmean(ref[i:i + round_size])
              for i in range(0, len(ref), round_size)]
    p90 = statistics.quantiles(ref, n=10, method="inclusive")[8] if len(ref) > 1 else ref[0]
    return {"op_p50_s": (statistics.median(rounds), "s"),
            "op_p90_s": (p90, "s"),
            "ops_per_s": (len(ref) / math.fsum(ref), "1/s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _program()
    setup_s, import_s = measure_setup(args.workload, args.seed)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, workloads.WORKLOADS[args.workload], args.seed, workdir)
        ok, _, _ = run_op(cli.main, runner.argvs(runner.warmup))
        if not ok:
            sys.exit("perfbench: warm-up operation failed")
        done, ref, gauge = runner.timed(args.seconds)
        traced = None
        if args.trace:
            with spans.Tracer() as tracer:
                hits0, misses0 = cache_counts()
                traced, traced_ref, _ = runner.timed(args.seconds, tracer)
                hits1, misses1 = cache_counts()
        first_op, _, first_outputs, _ = done[0]
        identical = runner.rerun_identical(first_op, first_outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = done + (traced or [])
    correct = runner.check(everything) and identical
    failed = sum(1 for _, ok, _, _ in everything if not ok)
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update(latency_metrics(ref, runner.workload.round_size))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
    else:
        ops = [op.index for op, _, _, _ in traced]
        metrics = {"cli.import_s": (import_s, "s")}
        metrics.update(spans.layer_metrics(tracer.spans, ops))
        lookups = (hits1 - hits0) + (misses1 - misses0)
        metrics["phases.combined_entropy.hit_ratio"] = (
            (hits1 - hits0) / lookups if lookups else 0.0, "ratio")
        metrics["trace.overhead_s"] = (statistics.median(traced_ref)
                                       - statistics.median(ref), "s")
        metrics["trace.spans_per_op"] = (len(tracer.spans) / len(traced), "count")
        metrics["calib.kernel_s"] = (gauge.median(), "s")
        metrics["wall.op_p50_s"] = (statistics.median(t for _, _, _, t in done), "s")

    result = {"correct": correct, "attempted": len(everything), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.records()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
