"""Closed-loop benchmark of the zonal package: one caller, no concurrency.

Run from the repository root:

    python3 bench/run.py --workload kernel --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` of the same tree, with the BLAS
thread count fixed to one and ``ZONAL_THREADS`` unset.  Every task runs on
a seed derived from ``--seed``; every output is checked and digested.

``--trace 0`` reports the end-to-end metrics.  For ``--seconds`` it starts
fresh processes one after another, never two at once; each imports the
package, runs task 0 (the cold task, the same seed in every process, so
their digests must agree) and then steady tasks with indices that continue
from one process to the next, for about ``PROCESS_SECONDS`` of its own
time.  ``--trace 1`` runs tasks in this process, each untraced and then
traced on the same seed, and reports the per-layer metrics.

Task times are reported by their slow end (the slowest cold task, the
90th percentile of steady tasks), which repeats from run to run on a
shared host where the median does not; see ``end_to_end``.

Human-readable lines come first; the last line of stdout is one JSON
object.  A record of the run (machine, tasks, digests, metrics) and, when
traced, the spans are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# an untraced run's fresh processes each run the cold task and then steady
# tasks for about this many seconds of their own time, import included
PROCESS_SECONDS = 10.0

# end-to-end metric name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "cold_task_s": "s",
    "task_s.p90": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
# printed and recorded beside them, not reported: on a shared host these
# follow the run's share of slow periods (see ``end_to_end``)
INFO_UNITS = {"task_s.p10": "s", "task_s.p50": "s", "tasks_per_s": "1/s"}


def task_seed(seed: int, index: int) -> int:
    """Seed of task ``index`` in a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"zonal-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _configure_process() -> None:
    """Fix BLAS threads and the package path before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("ZONAL_THREADS", None)
    sys.path.insert(0, str(SRC))


def _import_package() -> float:
    """Import the package and its dependencies; seconds taken."""
    t0 = time.perf_counter()
    import zonal.cli  # noqa: F401  (imports zonal, numpy and scipy too)

    return time.perf_counter() - t0


def run_task(workload, seed: int, index: int, tracer=None) -> dict:
    """Run, check and digest task ``index``; only the workload call is timed."""
    tseed = task_seed(seed, index)
    task = workload.make_task(tseed)
    failures: list[str] = []
    digest = None
    if tracer is not None:
        tracer.task = index
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.run(task)
    except Exception:  # a task that raises is a failed task; the loop goes on
        elapsed = time.perf_counter() - t0
        failures.append(traceback.format_exc())
    else:
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not failures:
        failures = workload.check(task, out)
        digest = workload.digest(out)
    return {
        "index": index,
        "task_seed": tseed,
        "traced": tracer is not None,
        "seconds": elapsed,
        "digest": digest,
        "failures": failures,
    }


def process_tasks(workload, seed: int, first: int, seconds: float, started: float) -> list[dict]:
    """Cold task 0, then steady tasks ``first``, ``first + 1``, ... (``--process``).

    Steady tasks go on, at least one, while the next one is expected to end
    within ``seconds`` of ``started``.
    """
    records = [dict(run_task(workload, seed, 0), cold=True)]
    index = first
    while True:
        records.append(dict(run_task(workload, seed, index), cold=False))
        index += 1
        if time.perf_counter() - started + records[-1]["seconds"] > seconds:
            return records


def fresh_process(workload_name: str, seed: int, first: int) -> dict:
    """Import time, peak memory and task records of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--seconds", str(PROCESS_SECONDS), "--process", str(first)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def process_loop(workload_name: str, seed: int, seconds: float) -> list[dict]:
    """Fresh processes one after another, at least two, for about ``seconds``.

    Another process starts only if one as long as the last is expected to
    end within ``seconds``; steady task indices continue across processes.
    """
    started = time.perf_counter()
    processes: list[dict] = []
    first = 1
    while True:
        t0 = time.perf_counter()
        processes.append(fresh_process(workload_name, seed, first))
        first += len(processes[-1]["records"]) - 1
        last = time.perf_counter() - t0
        if len(processes) >= 2 and time.perf_counter() - started + last > seconds:
            return processes


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Tasks back to back in this process for ``seconds`` of loop time, at least two.

    With a tracer, each task runs untraced and then traced on the same seed,
    and a traced digest that differs from the untraced one fails the task.
    """
    records = []
    loop_s = 0.0
    index = 0
    while index < 2 or loop_s < seconds:
        t0 = time.perf_counter()
        plain = run_task(workload, seed, index)
        records.append(plain)
        if tracer is not None:
            traced = run_task(workload, seed, index, tracer)
            if plain["digest"] != traced["digest"]:
                traced["failures"].append("traced digest differs from untraced digest")
            records.append(traced)
        loop_s += time.perf_counter() - t0
        index += 1
    return records


def quantile(values: list[float], share: float) -> float:
    """The value at rank ``floor(share * len)`` of the sorted values, 0 the smallest."""
    ordered = sorted(values)
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def end_to_end(processes: list[dict]) -> tuple[dict, dict, dict, list]:
    """End-to-end metrics of an untraced run, values printed beside them, notes, all task records.

    ``processes`` are the fresh processes' results.  Every cold task ran the
    same seed, so their digests must agree.

    On a shared host the CPU's speed can swing between a fast and a slow
    state (1.5-1.8x apart) for seconds to minutes, in CPU time as much as in
    wall time.  A run's median then follows its share of slow time and its
    fastest task the luck of a fast moment, and both spread by 20-40% from
    run to run; slow periods come in every run, so the slow end of the task
    times is what repeats.  Task times are therefore reported as the
    slowest cold task and the 90th percentile of steady tasks; the median,
    the fastest tenth and the throughput are printed beside them.
    """
    records = [r for p in processes for r in p["records"]]
    cold = [r for r in records if r["cold"]]
    steady = [r["seconds"] for r in records if not r["cold"]]
    for r in cold[1:]:
        if r["digest"] != cold[0]["digest"]:
            r["failures"].append("cold-task digest differs between processes")
    failed = sum(1 for r in records if r["failures"])
    metrics = {
        "setup_s": statistics.median(p["import_s"] for p in processes),
        "cold_task_s": max(r["seconds"] for r in cold),
        "task_s.p90": quantile(steady, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in processes),
        "pass_ratio": 1.0 - failed / len(records),
    }
    info = {
        "task_s.p10": quantile(steady, 0.1),
        "task_s.p50": statistics.median(steady),
        "tasks_per_s": len(steady) / sum(steady),
    }
    notes = {
        "setup_s": f"median over {len(processes)} fresh processes",
        "cold_task_s": f"slowest of {len(cold)} fresh processes' first task",
        "task_s.p90": f"{len(steady)} steady tasks",
        "peak_rss_mb": f"median over {len(processes)} fresh processes",
        "pass_ratio": f"fail_ratio {failed / len(records):.4g} ({failed} of {len(records)} tasks)",
        "tasks_per_s": "one caller",
    }
    return metrics, info, notes, records


def overhead_ratio(records: list[dict]) -> float:
    """Median traced task time over median untraced, leaving out the cold pair if others exist."""
    indices = sorted({r["index"] for r in records})
    if len(indices) > 1:
        indices = indices[1:]
    plain = [r["seconds"] for r in records if not r["traced"] and r["index"] in indices]
    traced = [r["seconds"] for r in records if r["traced"] and r["index"] in indices]
    return statistics.median(traced) / statistics.median(plain)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zonal").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the tree's own git repository; None in an exported tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "ZONAL_THREADS": os.environ.get("ZONAL_THREADS"),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:.6g} {units[name]}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--process", type=int, default=None, metavar="FIRST",
                        help="run as one fresh process of an untraced run, its steady tasks "
                             "numbered from FIRST, and print its records")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zonal" / "__init__.py").is_file():
        print(f"error: no zonal package under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    started = time.perf_counter()
    _configure_process()
    import_s = _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.process is not None:
        records = process_tasks(workload, args.seed, args.process, args.seconds, started)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"import_s": import_s, "peak_rss_mb": peak_rss_mb, "records": records}))
        return 0

    if args.trace:
        tracer = spans.Tracer()
        records = closed_loop(workload, args.seed, args.seconds, tracer)
        metrics = spans.layer_metrics(tracer.spans, overhead_ratio(records))
        info = {}
        notes = {"trace.overhead_ratio": "median traced task over median untraced, same seeds"}
        units = spans.LAYER_UNITS
    else:
        processes = process_loop(workload.name, args.seed, args.seconds)
        metrics, info, notes, records = end_to_end(processes)
        units = E2E_UNITS
    failed = sum(1 for r in records if r["failures"])

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "tasks": len(records),
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "notes": notes,
        "records": records,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} tasks, {failed} failed, record in {OUT_DIR.name}/{stem}.json")
    for r in records:
        for failure in r["failures"]:
            print(f"  task {r['index']} (seed {r['task_seed']}) failed: {failure.strip()}")
    _print_metrics(metrics, units, notes)
    if info:
        print("  not reported:")
        _print_metrics(info, INFO_UNITS, notes)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
