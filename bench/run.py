"""Outside-in benchmark of the primeshift CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload pipeline|search|verify --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's job list pass after pass,
one job at a time, each job a fresh ``python -m primeshift.cli``
process on inputs generated from ``--seed``, until ``--seconds`` have
passed.  The child environment has PRIMESHIFT_THREADS removed and no
``--threads`` flag, so every run uses the user default.  After timing,
every job's stdout is checked by the oracles in ``oracles.py``; a job
fails on a non-zero exit code, an oracle mismatch, or stdout bytes that
differ from the first pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced passes with passes run through
``trace_child.py`` and reports the per-layer metrics.  Human-readable
lines (machine, settings, every metric with its unit and sample count)
come first; the last line of stdout is one JSON object.  The full
record, spans included, is written to .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from oracles import OracleError
from trace_child import COUNTERS, HOT_NAMES, SPAN_NAMES
from workloads import WORKLOADS, Job

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_CHILD = BENCH_DIR / "trace_child.py"
WORK_DIR = ROOT / ".bench_build" / "bench"

# setup_s samples taken before each pass, so they spread over the run.
SETUP_PER_PASS = 3
# Jobs still running this long after start are killed and count as
# failed, so a run ends within its 180 s limit even on a hung program.
JOB_BUDGET_S = 150.0
CHECK_ERRORS = (OracleError, ValueError, KeyError, TypeError, IndexError, AttributeError,
                ArithmeticError)
# Every per-layer metric the traced run can report.
LAYER_METRICS = frozenset(
    ("import.s", "cli.stdout_bytes", "trace.accounted_share", "trace.overhead",
     "prune.step_us", "representation.fallback_share")
    + COUNTERS
    + tuple(f"{n}.{k}" for n in SPAN_NAMES + HOT_NAMES for k in ("s", "self_s", "calls"))
)


@dataclass
class JobRun:
    job: str
    traced: bool
    rc: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None
    problem: str | None = None


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list[JobRun]


class Spawner:
    """Starts children one at a time and collects each one's own rusage."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PRIMESHIFT_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.count = 0

    def spawn(self, argv: list[str], traced: bool = False):
        """Run argv to completion; returns (rc, stdout, wall_s, rusage).

        A traced child gets its spawn time in BENCH_SPAWN_T, on the same
        system-wide monotonic clock, so it can time its own start-up.
        """
        self.count += 1
        err_path = self.workdir / f"stderr-{self.count}.txt"
        start = time.monotonic()
        env = {**self.env, "BENCH_SPAWN_T": repr(start)} if traced else self.env
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                timer.cancel()
        wall = time.monotonic() - start
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"# {' '.join(argv[1:])!r} exited {proc.returncode}: {tail}", file=sys.stderr)
        return proc.returncode, out, wall, usage

    def run_job(self, job: Job, traced: bool, label: str) -> JobRun:
        if traced:
            trace_path = self.workdir / f"trace-{label.replace('/', '-')}.json"
            argv = [sys.executable, str(TRACE_CHILD), str(trace_path), label, "--", *job.args]
        else:
            argv = [sys.executable, "-m", "primeshift.cli", *job.args]
        rc, out, wall, usage = self.spawn(argv, traced)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return JobRun(job.name, traced, rc, out, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, trace)

    def setup_time(self) -> float:
        """Wall time to spawn the interpreter and `import primeshift.cli`."""
        rc, _, wall, _ = self.spawn([sys.executable, "-c", "import primeshift.cli"])
        if rc != 0:
            raise RuntimeError(f"`import primeshift.cli` failed with exit code {rc}")
        return wall


def run_passes(
    jobs: list[Job], spawner: Spawner, seconds: float, trace: bool
) -> tuple[list[Pass], list[float]]:
    """Closed loop: passes back to back until `seconds` have elapsed.

    With tracing, untraced and traced passes alternate and the loop runs
    until it has at least one of each.  Returns the passes and the
    setup_s samples; a first import, which may compile bytecode, is a
    warm-up and is not kept.
    """
    passes: list[Pass] = []
    setup: list[float] = []
    spawner.setup_time()
    t0 = time.monotonic()
    while True:
        now = time.monotonic()
        have_traced = any(p.traced for p in passes)
        if passes and now - t0 >= seconds and (have_traced or not trace):
            break
        if passes and now + max(p.wall_s for p in passes) > spawner.deadline:
            break
        traced = trace and len(passes) % 2 == 1
        setup += [spawner.setup_time() for _ in range(SETUP_PER_PASS)]
        start = time.monotonic()
        runs = [spawner.run_job(job, traced, f"pass{len(passes)}/{job.name}") for job in jobs]
        passes.append(Pass(traced, time.monotonic() - start, runs))
    return passes, setup


def judge(jobs: list[Job], passes: list[Pass]) -> list[str]:
    """Set JobRun.problem for every failed job; return the unchecked jobs.

    The first pass's stdout of each job is its reference; the oracles
    check each reference once, in job order, and every later run must
    repeat the reference bytes exactly.  A job that needs a job whose
    oracle failed is not checked, rather than failed a second time for
    the same defect.
    """
    reference = {run.job: run.stdout for run in passes[0].runs}
    verdict: dict[str, str | None] = {}
    done: dict[str, object] = {}
    unchecked = []
    for job in jobs:
        verdict[job.name] = None
        if any(need not in done for need in job.needs):
            unchecked.append(job.name)
            continue
        try:
            done[job.name] = job.check(json.loads(reference[job.name]), done)
        except CHECK_ERRORS as exc:
            verdict[job.name] = f"oracle: {type(exc).__name__}: {exc}"
    for p in passes:
        for run in p.runs:
            if run.rc != 0:
                run.problem = f"exit code {run.rc}"
            elif run.stdout != reference[run.job]:
                run.problem = "stdout differs from the first pass"
            else:
                run.problem = verdict[run.job]
    return unchecked


def end_to_end_metrics(setup: list[float], passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count); jobs are numbered in workload order."""
    plain = [p for p in passes if not p.traced]
    n = len(plain)
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "pass_s": (median(p.wall_s for p in plain), n),
        "cpu_s": (median(sum(r.cpu_s for r in p.runs) for p in plain), n),
        "peak_rss_mb": (median(max(r.rss_mb for r in p.runs) for p in plain), n),
    }
    for i in range(len(plain[0].runs)):
        metrics[f"job{i + 1}_s"] = (median(p.runs[i].wall_s for p in plain), n)
    return metrics


def layer_values(runs: list[JobRun]) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its jobs.

    A job killed before it wrote its spans contributes nothing; it is
    already counted as failed.
    """
    runs = [run for run in runs if run.trace is not None]
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    accounted = []
    for run in runs:
        t = run.trace
        for span in t["spans"]:
            inclusive[span["name"]] += span["end"] - span["start"]
            self_s[span["name"]] += span["self_s"]
            calls[span["name"]] += 1
        for name, agg in t["hot"].items():
            inclusive[name] += agg["s"]
            self_s[name] += agg["self_s"]
            calls[name] += agg["calls"]
        counters.update(t["counters"])
        job_self = sum(s["self_s"] for s in t["spans"]) + sum(a["self_s"] for a in t["hot"].values())
        accounted.append((t["import_s"] + job_self) / run.wall_s)
    values = {
        "import.s": sum(run.trace["import_s"] for run in runs),
        "cli.stdout_bytes": sum(len(run.stdout) for run in runs),
        "trace.accounted_share": min(accounted, default=0.0),
        "prune.step_us": (
            1e6 * self_s["prune.greedy_prune"] / counters["prune.steps"]
            if counters["prune.steps"] else 0.0
        ),
        "representation.fallback_share": (
            calls["primes.is_prime"] / counters["representation.cells"]
            if counters["representation.cells"] else 0.0
        ),
    }
    for name, count in counters.items():
        values[name] = count
    for name in inclusive:
        values[f"{name}.s"] = inclusive[name]
        values[f"{name}.self_s"] = self_s[name]
        values[f"{name}.calls"] = calls[name]
    return values


def per_layer_metrics(passes: list[Pass], names: list[str]) -> dict[str, tuple[float, int]]:
    """Medians over traced passes; layers a workload never enters read 0."""
    unknown = set(names) - LAYER_METRICS
    if unknown:
        raise ValueError(f"no such per-layer metric: {sorted(unknown)}")
    traced = [layer_values(p.runs) for p in passes if p.traced]
    plain = [p.wall_s for p in passes if not p.traced]
    metrics = {}
    for name in names:
        if name == "trace.overhead":
            overhead = median(p.wall_s for p in passes if p.traced) / median(plain) - 1
            metrics[name] = (overhead, len(passes))
        else:
            metrics[name] = (median(v.get(name, 0.0) for v in traced), len(traced))
    return metrics


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def commit_hash() -> str:
    """HEAD of the checkout; git is not allowed to search above ROOT."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info() -> dict:
    model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    llc = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(caches.glob("index*")) if caches.is_dir() else []:
        level, size = _read(index / "level"), _read(index / "size")
        if level and size:
            levels.append((int(level), size))
    if levels:
        llc = "L{} {}".format(*max(levels))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit_hash(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primeshift" / "cli.py").is_file():
        print(f"error: {SRC / 'primeshift'} not found; run from a primeshift checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    started = time.monotonic()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        jobs = WORKLOADS[args.workload].build(np.random.default_rng(args.seed), Path(tmp))
        spawner = Spawner(Path(tmp), started + JOB_BUDGET_S)
        passes, setup = run_passes(jobs, spawner, args.seconds, bool(args.trace))
        unchecked = judge(jobs, passes)

    if args.trace:
        metrics = per_layer_metrics(passes, list(units))
    else:
        metrics = end_to_end_metrics(setup, passes)
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    runs = [run for p in passes for run in p.runs]
    failed = [run for run in runs if run.problem]
    settings = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples": len(setup), "passes": len(passes),
        "client": "closed loop, 1 client, 1 job at a time",
        "env": "PRIMESHIFT_THREADS removed, no --threads",
        "jobs": {job.name: ["primeshift", *job.args] for job in jobs},
    }
    machine = machine_info()

    print(f"# primeshift benchmark: {json.dumps(settings['jobs'])}")
    print(f"# machine: {json.dumps(machine)}")
    print(f"# settings: {json.dumps({k: v for k, v in settings.items() if k != 'jobs'})}")
    for run in failed:
        print(f"# FAILED {run.job} ({'traced' if run.traced else 'plain'}): {run.problem}")
    for name in unchecked:
        print(f"# NOT CHECKED {name}: a job it needs failed its oracle")
    labels = {f"job{i + 1}_s": f"job_s.{job.name}" for i, job in enumerate(jobs)}
    for name, (value, samples) in metrics.items():
        label = f"{labels[name]} ({name})" if name in labels else name
        print(f"{label:<44} {value:>16.6f} {units[name]:<6} n={samples}")
    print(f"{'error_rate':<44} {len(failed) / len(runs):>16.6f} {'ratio':<6} "
          f"n={len(runs)} ({len(failed)} of {len(runs)} jobs failed)")

    record = {
        "machine": machine,
        "settings": settings,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "setup_s": setup,
        "unchecked": unchecked,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "jobs": [
                {"job": r.job, "rc": r.rc, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "rss_mb": r.rss_mb, "stdout_bytes": len(r.stdout), "problem": r.problem,
                 "trace": r.trace}
                for r in p.runs]}
            for p in passes
        ],
    }
    out = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
