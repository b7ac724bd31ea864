"""Run one workload of the hsiscale benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload correct-bench --seed 1 --seconds 30 --trace 0

The workloads are ``correct-bench``, ``correct-noisy`` and ``cli-loop``
(see perfbench/README.md). hsiscale is imported from the ``src`` directory of
the checkout that holds this file; without it the run stops with exit code 2.

``--trace 0`` times jobs untraced for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs one untraced job, then traced jobs
until ``--seconds`` is used, and reports the per-layer metrics and the
tracing overhead. Each metric is printed on its own line with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-run"
# one BLAS thread: the quality metrics repeat bit for bit only at a fixed
# pool size, and two threads measured no faster than one on the bench scene
BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set-ups per run: this process's own, plus the rest in fresh child processes
SETUP_SAMPLES = 3
# the quality metrics average the first jobs only, so they repeat exactly
# however many jobs fit in the run
QUALITY_JOBS = 2
MIN_JOBS = 2
UNITS = {n: u for n, u, *_ in spec.END_TO_END} | {n: u for n, u, _ in spec.per_layer()}


def pin_blas_threads() -> int:
    """Fix the BLAS pool size; it only takes effect before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS pool size was set")
    count = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(count)
    return count


def import_workloads():
    """Import hsiscale from this checkout's src, then the workload module."""
    package = SRC / "hsiscale" / "__init__.py"
    if not package.is_file():
        raise ImportError(f"no hsiscale package at {package}")
    sys.path.insert(0, str(SRC))
    import hsiscale

    if Path(hsiscale.__file__).resolve() != package.resolve():
        raise ImportError(f"hsiscale was imported from {hsiscale.__file__}, not {package}")
    import workloads

    return workloads


def timed_job(workload, state, seed: int, job: int, jobdir: Path, tracer=None) -> dict:
    """Run one job (traced when a tracer is given), then check it untimed."""
    span = nullcontext if tracer is None else tracer.span
    if tracer is not None:
        tracer.job = job
        tracer.install()
    start, start_usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    try:
        result = workload.run(state, seed, job, jobdir, span)
        seconds = time.perf_counter() - start
        end_usage = resource.getrusage(resource.RUSAGE_SELF)
        # user and system seconds and minor page faults, printed next to the
        # wall times: the system share shows what page faults cost a job
        usage = (
            round(end_usage.ru_utime - start_usage.ru_utime, 3),
            round(end_usage.ru_stime - start_usage.ru_stime, 3),
            end_usage.ru_minflt - start_usage.ru_minflt,
        )
    except Exception as exc:  # a failed job is counted and the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return {"job": job, "seconds": seconds, "usage": None, "quality": {}, "problems": [f"raised {exc!r}"]}
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = -1
    try:
        quality, problems = workload.check(state, result, job < QUALITY_JOBS)
    except Exception as exc:  # an output that cannot be checked fails the job
        traceback.print_exc()
        quality, problems = {}, [f"check raised {exc!r}"]
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
    return {"job": job, "seconds": seconds, "usage": usage, "quality": quality, "problems": problems}


def job_loop(workload, state, seed, seconds, workdir, tracer=None, spent=0.0, min_jobs=MIN_JOBS):
    """Closed loop: start the next job while it is expected to end near the deadline."""
    jobs = []
    while True:
        job = len(jobs)
        jobs.append(timed_job(workload, state, seed, job, workdir / f"job{job}", tracer))
        spent += jobs[-1]["seconds"]
        typical = statistics.median(j["seconds"] for j in jobs)
        if len(jobs) >= min_jobs and spent + 0.5 * typical > seconds:
            return jobs


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, which pays import and first calls again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def quality_means(jobs: list[dict]) -> dict[str, float]:
    first = [j["quality"] for j in jobs if j["job"] < QUALITY_JOBS]
    names = {name for q in first for name in q}
    return {
        name: statistics.fmean(q[name] for q in first if name in q)
        for name in sorted(names)
    }


def measure(args, workload, state, setup_s: float, workdir: Path) -> tuple[dict, list[dict]]:
    """Untraced run: the end-to-end metrics."""
    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    jobs = job_loop(workload, state, args.seed, args.seconds, workdir)
    times = [j["seconds"] for j in jobs]
    print(f"# job_s is the median of {len(jobs)} jobs; setup_s the median of {setups!r}")
    print(f"# job wall s {times!r}; (user s, sys s, minor faults) {[j['usage'] for j in jobs]!r}")
    metrics = {
        "job_s": statistics.median(times),
        "mpx_per_s": workload.pixels * len(jobs) / sum(times) / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    metrics.update(quality_means(jobs))
    return metrics, jobs


def trace(args, workload, state, workdir: Path) -> tuple[dict, list[dict]]:
    """One untraced job, then traced jobs: the per-layer metrics."""
    from tracing import Tracer

    untraced = timed_job(workload, state, args.seed, 0, workdir / "untraced")
    tracer = Tracer()
    traced = job_loop(
        workload, state, args.seed, args.seconds, workdir, tracer, untraced["seconds"], min_jobs=1
    )
    if untraced["quality"] != traced[0]["quality"]:
        traced[0]["problems"].append(
            f"traced job differs from untraced: {traced[0]['quality']} vs {untraced['quality']}"
        )
    traced_s = sum(j["seconds"] for j in traced)
    metrics = tracer.layer_metrics(len(traced), traced_s)
    metrics["trace.overhead_frac"] = traced[0]["seconds"] / untraced["seconds"] - 1.0
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans over {len(traced)} traced jobs written to {spans_path}")
    print(f"# untraced job {untraced['seconds']!r} s, first traced job {traced[0]['seconds']!r} s")
    for name in tracer.absent:
        print(f"# absent layer: {name}")
    for name, error in tracer.hook_errors.items():
        print(f"# stat of {name} unavailable: {error}")
    return metrics, [untraced] + traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    threads = pin_blas_threads()
    try:
        bench = import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import hsiscale: {exc}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        state = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"# workload {args.workload}, seed {args.seed}, blas_threads = {threads}")
        if args.trace:
            metrics, jobs = trace(args, workload, state, workdir)
        else:
            metrics, jobs = measure(args, workload, state, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [j for j in jobs if j["problems"]]
    for j in failed:
        print(f"# job {j['job']} failed: {'; '.join(j['problems'])}")
    print(f"# failed_fraction = {len(failed)}/{len(jobs)}")
    for name, value in workload.notes(state).items():
        print(f"# {name} = {value!r} (reference, not gated)")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {UNITS[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
