"""Benchmark of the mladder command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.py) runs ``python -m mladder.cli ...`` as a
fresh process against this checkout's ``src/``, again and again for about
S seconds, one process at a time (a closed loop with one client).  Every
output is checked, outside the timed region, against values derived
without importing mladder; an invocation fails on a wrong exit code, a
failed check or a timeout.

``--trace 0`` reports the end-to-end metrics that BENCHMARK.json lists.
Other tenants of a shared machine move its speed by 10-20% over minutes,
so invocation times are reported as multiples of the time of a fixed
reference task (:data:`REFERENCE_COMMAND`), run as a fresh process between
invocations; the ratio cancels most of that drift.  The raw seconds are
in the line before the result.

``--trace 1`` spends half the time on untraced invocations and the rest on
the same command run in process under tracer.py, and reports the per-layer
metrics that BENCHMARK.json lists: exact counts, which must repeat between
traced runs, and median self times.  The line before the result holds
every metric tracer.py computes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives every
timing's sample count and quartiles and the workload's inputs, and both
are saved under bench/out/.  Bytecode is written to bench/out/pycache
(warmed before timing), never under src/.  Without ``src/mladder`` the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.pycache_prefix = str(OUT / "pycache")

import tracer  # noqa: E402  (after the bytecode policy is set)
import workloads  # noqa: E402

MIN_RUNS = 3          # untraced invocations per run, whatever --seconds says
MIN_TRACED = 2        # traced runs, so that counts can be compared
SETUP_PER_RUN = 2     # setup and reference samples taken after each untraced invocation
TIMEOUT_S = 60.0
SETUP_COMMAND = ["-c", "import mladder.cli"]
# Work of the program's kind (tuples, a set, sorting, small Fractions) that
# does not depend on mladder; about 0.12 s on a 2.1 GHz Xeon.
REFERENCE_COMMAND = ["-c", "from fractions import Fraction\n"
                     "edges = sorted({(k % 1009, k * 7 % 1013) for k in range(30000)})\n"
                     "sum((Fraction(u % 7 + 1, v % 5 + 1) for u, v in edges[:12000]), Fraction(0))"]


@dataclass(frozen=True)
class Sample:
    """One child process: its exit status, stdout, and resource use."""

    status: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def spawn(args: list[str], env: dict) -> Sample:
    """Run ``python ARGS`` to completion; wall time runs from spawn until exit,
    with stdout fully drained, and CPU and peak RSS come from ``os.wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, wall >= TIMEOUT_S)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


class Runner:
    """Runs one workload's invocations, checks each, and keeps their samples."""

    def __init__(self, case: workloads.Case, env: dict):
        self.case, self.env = case, env
        self.samples: list[Sample] = []
        self.setup_s: list[float] = []
        self.reference: list[Sample] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, sample: Sample, problems: list[str]) -> None:
        """Count one invocation; it failed if it timed out or has problems."""
        problems = problems + workloads.problems(self.case, sample.status, sample.stdout)
        if sample.timed_out:
            problems.insert(0, f"timed out after {TIMEOUT_S:.0f} s")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def untraced(self, seconds: float, setup: bool) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.samples) < MIN_RUNS or \
                time.perf_counter() + statistics.median(s.wall_s for s in self.samples) < deadline:
            sample = spawn(["-m", "mladder.cli", *self.case.argv], self.env)
            self.record(sample, [])
            self.samples.append(replace(sample, stdout=b""))
            for _ in range(SETUP_PER_RUN if setup else 0):
                self.setup_s.append(spawn(SETUP_COMMAND, self.env).wall_s)
                self.reference.append(spawn(REFERENCE_COMMAND, self.env))

    def traced(self, seconds: float) -> tuple[list[dict], list[float], int]:
        """Traced runs: per-run layer metrics, wall times, and the output size."""
        deadline = time.perf_counter() + seconds
        spans_path = OUT / f"spans-{self.case.name}.json"
        layers, walls, out_bytes = [], [], 0
        while len(walls) < MIN_TRACED or time.perf_counter() + statistics.median(walls) < deadline:
            spans_path.unlink(missing_ok=True)
            sample = spawn([str(BENCH / "tracer.py"), str(spans_path), *self.case.argv], self.env)
            walls.append(sample.wall_s)
            out_bytes = len(sample.stdout)
            try:
                layers.append(tracer.layer_metrics(json.loads(spans_path.read_text())))
                self.record(sample, [])
            except (OSError, ValueError) as exc:
                self.record(sample, [f"traced run left no span list: {exc}"])
        return layers, walls, out_bytes


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    series = {
        "wall_s": [s.wall_s for s in runner.samples],
        "cpu_s": [s.cpu_s for s in runner.samples],
        "peak_rss_mb": [s.peak_rss_mb for s in runner.samples],
        "setup_s": runner.setup_s,
        "reference_wall_s": [s.wall_s for s in runner.reference],
        "reference_cpu_s": [s.cpu_s for s in runner.reference],
    }
    medians = {name: statistics.median(v) for name, v in series.items()}
    values = {
        "wall_rel": medians["wall_s"] / medians["reference_wall_s"],
        "cpu_rel": medians["cpu_s"] / medians["reference_cpu_s"],
        "peak_rss_mb": medians["peak_rss_mb"],
        "setup_s": medians["setup_s"],
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    return values, {name: summary(v) for name, v in series.items()}


def per_layer(runner: Runner, layers: list[dict], walls: list[float],
              out_bytes: int) -> tuple[dict, dict]:
    values, timings = {}, {}
    for name, unit in tracer.PER_LAYER.items():
        if name in ("cli.out_bytes", "trace.overhead_s"):
            continue
        series = [run[name] for run in layers]
        if unit in tracer.TIMING_UNITS:
            values[name] = statistics.median(series)
            timings[name] = summary(series)
        else:
            values[name] = series[0]
            if len(set(series)) != 1:
                runner.problems.append(f"{name} differs between traced runs: {series}")
    values["cli.out_bytes"] = out_bytes
    untraced = [s.wall_s for s in runner.samples]
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    timings["traced_wall_s"] = summary(walls)
    timings["untraced_wall_s"] = summary(untraced)
    return values, timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mladder" / "cli.py").is_file():
        print(f"bench: no mladder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = child_env()
    case = workloads.prepare(args.workload, args.seed, OUT)
    warm = spawn(SETUP_COMMAND, env)    # compiles bytecode into the prefix
    if warm.status != 0:
        print(f"bench: importing mladder.cli failed with status {warm.status}", file=sys.stderr)
        return 2

    runner = Runner(case, env)
    if args.trace:
        runner.untraced(args.seconds / 2, setup=False)
        layers, walls, out_bytes = runner.traced(args.seconds / 2)
        if not layers:
            print(f"bench: no traced run left a span list: {runner.problems[:3]}", file=sys.stderr)
            return 1
        values, timings = per_layer(runner, layers, walls, out_bytes)
        listed = spec["per_layer"]
    else:
        runner.untraced(args.seconds, setup=True)
        values, timings = end_to_end(runner)
        listed = spec["end_to_end"]
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    detail = {"workload": case.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": case.argv, "inputs": case.params,
              "python": sys.version.split()[0], "timings": timings,
              "values": values, "problems": runner.problems[:20]}
    lines = json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    (OUT / f"result-{case.name}-{args.seed}-trace{args.trace}.json").write_text(lines, encoding="ascii")
    sys.stdout.write(lines)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
