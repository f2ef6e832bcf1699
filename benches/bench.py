"""efeplan benchmark: three closed-loop workloads, one caller each.

    python3 benches/bench.py --workload NAME --seed N --seconds S --trace 0|1

NAME is maze-sweep, scaled-loop, maze-out (see workloads.py), or ``all`` to
run the three one after another in child processes. BENCHMARK.json gates
scaled-loop and maze-out. maze-sweep is the same maze loop as maze-out
without the CLI and the writes; it stays for reports, because on a 2-vCPU VM
whose speed drifts its run-to-run spread exceeded a 0.25 bound. The workload
seed makes the inputs; the program receives only those inputs.

--trace 0 measures end to end. After WARMUP_OPS untimed operations, operations
run in rounds, one round being the workload's full list of operations, until S
seconds have passed and at least MIN_ROUNDS rounds are done. Only the call into
efeplan is timed. Reported: trials_per_s (trials over the summed time of the
timed calls), op_ms_p50 (printed only, see REPORT_ONLY), op_ms_tail (the
sample with ten samples beyond it), setup_s (median over SETUP_PROBES fresh
interpreters, spread over the run, of import + model build or load_spec +
validate), peak_rss_mb, and error_rate.

--trace 1 ignores S. After the warm-up it runs the set-up and then each
operation of one round twice, untraced and then traced, so counts repeat
exactly for a seed. It reports the per-layer metrics of tracer.PER_LAYER, the
traced wall time being the summed time of the traced steps, and writes the
spans to .bench_work/ at the end.

Every operation is checked against goldens; a failure counts in error_rate
and makes the exit code 1. The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics. BLAS runs on one thread.
Exit code 2 means the benchmark could not measure at all, for instance when
too few operations passed the gate to give a tail; no result is printed then.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import; child processes inherit it

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens.json"
# the keys of workloads.WORKLOADS, known before efeplan can be imported
WORKLOAD_NAMES = ("maze-sweep", "scaled-loop", "maze-out")

MIN_ROUNDS = 3
WARMUP_OPS = 3
SETUP_PROBES = 9
TAIL_BEYOND = 10             # the tail sample has this many samples above it
CHILD_TIMEOUT_S = 900

# the metrics of the result line, which BENCHMARK.json bounds
END_TO_END = [
    ("trials_per_s", "1/s"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed with them but left out of the result line: on a host whose speed
# switches between two levels, a run's median lands on whichever level held
# most of the run, and its run-to-run spread exceeded any allowed bound
REPORT_ONLY = [("op_ms_p50", "ms")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "assertions": __debug__,
    }


class Outcomes:
    """Attempted and failed operation counts, plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, workload, key) -> float | None:
        """Prepare, time and check one operation; its seconds, or None if it failed."""
        self.attempted += 1
        call = workload.prepare(key)
        start = perf_counter()
        try:
            result = call()
            elapsed = perf_counter() - start
            problem = workload.check(key, result)
        except Exception:  # an operation that raises is a failed operation
            problem = f"{key}: {traceback.format_exc()}"
        if problem is None:
            return elapsed
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(problem)
        return None


def probe_setup(workload) -> float:
    """Seconds one fresh interpreter takes to import efeplan and build or load and validate the model."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload.probe_arg]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout)


def timed_run(workload, seconds: int, outcomes: Outcomes) -> tuple[dict, list[str]]:
    workload.setup()
    for key in workload.keys[:WARMUP_OPS]:
        outcomes.run(workload, key)

    latencies: list[float] = []
    trials, rounds = 0, 0
    setup_samples: list[float] = []
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for key in workload.keys:
            elapsed = outcomes.run(workload, key)
            if elapsed is not None:
                latencies.append(elapsed)
                trials += workload.trials(key)
        rounds += 1
        # probes are spread over the run, so that they meet the host as the operations do
        if perf_counter() - start >= len(setup_samples) * seconds / SETUP_PROBES:
            setup_samples.append(probe_setup(workload))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(workload))

    if len(latencies) <= TAIL_BEYOND:
        raise BenchError(f"only {len(latencies)} of {outcomes.attempted} operations passed the "
                         f"correctness gate; the tail needs more than {TAIL_BEYOND}")
    n = len(latencies)
    tail = sorted(latencies)[-TAIL_BEYOND - 1]
    metrics = {
        "trials_per_s": trials / math.fsum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": tail * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "trials_per_s": f"{trials} trials in {rounds} rounds of {len(workload.keys)} operations",
        "op_ms_p50": f"n={n}",
        "op_ms_tail": f"p{100 * (n - TAIL_BEYOND) / n:.1f}: {TAIL_BEYOND} of n={n} beyond it",
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "peak_rss_mb": "whole process",
    }
    return metrics, [f"  {name:<14} {metrics[name]:>12.4f} {unit:<5} ({notes[name]})"
                     for name, unit in END_TO_END + REPORT_ONLY]


def traced_run(workload, outcomes: Outcomes, spans_path: Path) -> tuple[dict, list[str]]:
    from tracer import PER_LAYER, Tracer, layer_metrics

    workload.setup()
    for key in workload.keys[:WARMUP_OPS]:
        outcomes.run(workload, key)
    steps = [workload.setup] + [functools.partial(outcomes.run, workload, key)
                                for key in workload.keys]
    tracer = Tracer()
    untraced = traced = 0.0
    # each step runs untraced and then traced, back to back, so that a change
    # in host speed reaches both sides of trace.overhead_ratio alike
    for op, step in enumerate(steps):
        start = perf_counter()
        step()
        untraced += perf_counter() - start
        tracer.op = op
        with tracer:
            start = perf_counter()
            step()
            traced += perf_counter() - start
    metrics = layer_metrics(tracer, traced, untraced)

    groups = sorted({span[2] for span in tracer.spans})
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    spans_path.write_text(json.dumps({
        "columns": ["op", "parent", "group", "start_s", "end_s"],
        "groups": groups,
        "spans": [[op, parent, groups.index(group), start - origin, end - origin]
                  for op, parent, group, start, end in tracer.spans],
    }))
    return metrics, [f"  {name:<44} {metrics[name]:>14.6g} {unit}" for name, unit in PER_LAYER]


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    goldens = json.loads(GOLDENS.read_text())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcomes = Outcomes()
    try:
        workload = WORKLOADS[args.workload].from_seed(args.seed, workdir, goldens[args.workload])
        try:
            if args.trace:
                spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
                metrics, lines = traced_run(workload, outcomes, spans_path)
                units = dict(PER_LAYER)
            else:
                metrics, lines = timed_run(workload, args.seconds, outcomes)
                units = dict(END_TO_END)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for message in outcomes.messages:
            print(f"correctness gate failed: {message}", file=sys.stderr)
    correct = outcomes.failed == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcomes.attempted} operations, {outcomes.failed} failed, "
          f"error_rate={outcomes.failed / outcomes.attempted:.4g}")
    print("\n".join(lines))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with code {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        code = max(code, done.returncode)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under -O: it drops the debug recheck of "
                             "information gain and so measures a different program")
        if not (SRC / "efeplan" / "__init__.py").is_file():
            raise BenchError(f"no efeplan sources at {SRC}")
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
