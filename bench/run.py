"""spatq benchmark: one workload per run, stdlib plus spatq's own dependencies.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the `src` directory beside this one, never
from an installed copy; without it the run exits with code 2.  A run

1. repeats the workload's pass (its fixed op list, see workloads.py) until
   `--seconds` have elapsed, checking every op's output;
2. with `--trace 0`, times `setup_s`: the median, over several fresh
   interpreters, of the time from interpreter start until the workload's
   first ops are built;
3. prints a JSON line with the environment, seed, raw times, named
   throughputs and failures, then the result line: the end-to-end metrics of
   BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

The end-to-end times are calibrated.  Shared virtual machines change speed
by up to 1.5x in phases that last from seconds to minutes, so an untraced
run keeps a speed gauge (gauge.py) beside it and scales every pass and
set-up probe by the machine speed the gauge saw meanwhile: `cal_wall_s` and
`setup_s` are seconds at the gauge's reference speed.  The raw times are on
the JSON line before the result (`raw`), with the median speed.

A traced run runs every op twice, untraced and traced, in alternating order;
the two outputs must match bit for bit, and their time ratio gives
`trace.overhead`.  Its per-layer times are raw.  Spans are written to
.bench_out/spans-<workload>.json.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# BLAS and OpenMP pools are pinned to one thread: the benchmark is one
# single-threaded process, and pool start-up would otherwise add noise
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# glibc's malloc thresholds, fixed at the largest values its dynamic scheme
# reaches on 64-bit systems (mmap 32 MiB, trim twice that).  Left dynamic,
# they rise at moments that depend on the order and sizes of the blocks
# freed: one mc-oracles pass then peaked at 145-150 MB over three seeds,
# against 141-143 MB with them fixed.  A low fixed mmap threshold steadies
# peak RSS too, but makes mc-oracles 40% slower through page faults.
MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))  # (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD)


def pin_malloc() -> bool:
    """Fix glibc's malloc thresholds; False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOPT)


def import_spatq():
    """Put ROOT/src first on sys.path and import spatq from there."""
    src = ROOT / "src"
    if not (src / "spatq" / "__init__.py").is_file():
        raise ImportError(f"no spatq sources under {src}")
    sys.path.insert(0, str(src))
    import spatq

    if not Path(spatq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"spatq imported from {spatq.__file__}, not {src}")
    return spatq


def nearest_rank(values, percent: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * percent / 100) - 1)]


class Run:
    """Op outcomes of one measured run, untraced and traced kept apart."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times = {False: [], True: []}
        self.pass_times = {False: [], True: []}
        # start and end (time.monotonic) of each untraced pass
        self.windows: list[tuple[float, float]] = []
        self.work = defaultdict(float)
        self.work_time = defaultdict(float)
        self.labels: list[str] = []

    def record(self, op, traced: bool, seconds: float, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            mode = " (traced)" if traced else ""
            self.failures.append(f"{op.label}{mode}: {'; '.join(problems)}")
        self.op_times[traced].append(seconds)
        if not traced:
            for kind, units in op.work.items():
                self.work[kind] += units
                self.work_time[kind] += seconds

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_op(op, tracer=None, op_id=None):
    """Call and check one op; returns (seconds, key, problems)."""
    clock = time.perf_counter
    start = clock()
    try:
        with tracer.active(op_id) if tracer else contextlib.nullcontext():
            start = clock()
            result = op.call()
            seconds = clock() - start
        key, problems = op.check(result)
    except Exception:
        # an op that raises is a failed op; the run goes on
        traceback.print_exc()
        return clock() - start, None, [f"raised {sys.exc_info()[0].__name__}"]
    return seconds, key, problems


def measure(workload, seed: int, seconds: float, tracer=None) -> Run:
    """Repeat the workload's pass for about `seconds` (at least once).

    A pass starts only if at least half of it, judged by the previous one,
    fits before the deadline, so a run ends within half a pass of it.
    """
    run = Run()
    clock = time.perf_counter
    deadline = clock() + seconds
    pass_index, last = 0, 0.0
    while pass_index == 0 or clock() + last / 2 < deadline:
        started, window_start = clock(), time.monotonic()
        totals = {False: 0.0, True: 0.0}
        for op in workload.ops(seed, pass_index):
            if tracer is None:
                elapsed, _, problems = run_op(op)
                run.record(op, False, elapsed, problems)
                totals[False] += elapsed
                continue
            outcomes = {}
            for traced in (False, True) if pass_index % 2 == 0 else (True, False):
                op_id = len(run.labels)
                run.labels.append(op.label)
                outcomes[traced] = run_op(op, tracer if traced else None, op_id)
            if outcomes[True][1] != outcomes[False][1]:
                outcomes[True][2].append("traced output differs from untraced")
            for traced, (elapsed, _, problems) in outcomes.items():
                run.record(op, traced, elapsed, problems)
                totals[traced] += elapsed
        for traced in (False, True) if tracer else (False,):
            run.pass_times[traced].append(totals[traced])
        if tracer is None:
            run.windows.append((window_start, time.monotonic()))
        pass_index, last = pass_index + 1, clock() - started
    return run


def end_to_end(run: Run, setup_s: float, gauge) -> dict[str, float]:
    passes = zip(run.pass_times[False], run.windows)
    return {
        "setup_s": setup_s,
        "cal_wall_s": statistics.median(gauge.scale(s, *window) for s, window in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, tracer) -> dict[str, float]:
    """Tracer totals per traced pass, plus ratios and the tracer's own cost."""
    passes = len(run.pass_times[True])
    out = {name: value / passes for name, value in tracer.summary().items()}
    counts = tracer.counts
    out.update({name: value / passes for name, value in counts.items()})
    if counts["simulator.station_slots"]:
        out["simulator.busy_ratio"] = counts["simulator.attempts"] / counts["simulator.station_slots"]
    if counts["simulator.attempts"]:
        out["simulator.success_ratio"] = counts["simulator.successes"] / counts["simulator.attempts"]
    # the traced and untraced runs of a pass alternate op by op, so their
    # ratio is taken pass by pass, before the machine's speed can change much
    out["trace.overhead"] = statistics.median(
        traced / plain for traced, plain in zip(run.pass_times[True], run.pass_times[False])
    ) - 1.0
    out["trace.coverage"] = sum(tracer.root_times().values()) / sum(run.op_times[True])
    return out


def write_spans(path: Path, run: Run, tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[index[n], s - t0, e - t0, own, parent, op]
             for (n, s, e, parent, op), own in zip(tracer.spans, tracer.self_times())]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"columns": ["name", "start", "end", "self", "parent", "op"], "names": names,
                   "ops": run.labels, "spans": spans}, fh, separators=(",", ":"))


def setup_time(workload: str, seed: int) -> tuple[float, float, float]:
    """Seconds from starting a fresh interpreter until its probe is ready,
    with the start and end of that interval on time.monotonic."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    window_start = time.monotonic()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        window_end = time.monotonic()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return ready, window_start, window_end


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spatq benchmark (one workload per run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    malloc_pinned = pin_malloc()
    try:
        spatq = import_spatq()
        import tracer as tracing
        import workloads
        from gauge import SpeedGauge
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, scratch)
    if args.setup_probe:
        workload.ops(args.seed, 0)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer(spatq) if args.trace else None
    gauge = SpeedGauge()
    try:
        with contextlib.nullcontext() if tracer else gauge:
            run = measure(workload, args.seed, args.seconds, tracer)
            if tracer is None:
                probes = [setup_time(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    raw = {"wall_s": statistics.median(run.pass_times[False])}
    if tracer is None:
        raw["setup_s"] = statistics.median(ready for ready, _, _ in probes)
        raw["speed"] = statistics.median(speed for _, speed in gauge.samples)
        setup_s = statistics.median(gauge.scale(*probe) for probe in probes)
        values, wanted = end_to_end(run, setup_s, gauge), spec["end_to_end"]
    else:
        values, wanted = per_layer(run, tracer), spec["per_layer"]
        write_spans(OUT / f"spans-{args.workload}.json", run, tracer)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**environment(), "malloc_thresholds_pinned": malloc_pinned},
        "passes": len(run.pass_times[False]),
        "raw": raw,
        "op_s": {"n": len(run.op_times[False]), "p50": nearest_rank(run.op_times[False], 50),
                 "p90": nearest_rank(run.op_times[False], 90)},
        "fail_frac": run.failed / run.attempted,
        "failures": run.failures[:20],
        "throughput": {f"{kind}_per_s": units / run.work_time[kind]
                       for kind, units in run.work.items() if units},
        "info": workload.info,
    }
    print(json.dumps(details))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
