"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/sweep.py --runs 10 --trace 0
    python3 bench/sweep.py --runs 1 --trace 0,1      # every metric, every workload

Each run is ``bench/run.py`` in a fresh process.  For every workload and
metric the table gives the median, the quartiles of
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json; a spread above a
third of its bound is marked.  Digests recorded by the runs are compared
across runs: a task seed that gave two different digests is reported and
makes the exit code 1, as does any failed task.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8")
    )
    return result, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    digests: dict[tuple[str, int], set] = defaultdict(set)
    failed = 0
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            values: dict[str, list[float]] = defaultdict(list)
            units = {}
            for seed in range(args.first_seed, args.first_seed + args.runs):
                result, record = run_once(workload, seed, args.seconds, trace)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                    units[name] = metric["unit"]
                for r in record["records"]:
                    digests[workload, r["task_seed"]].add(r["digest"])
                print(f"# {workload} trace {trace} seed {seed}: {result['attempted']} tasks, "
                      f"{result['failed']} failed", flush=True)
            print(f"{workload} (trace {trace}, {args.runs} runs of {args.seconds} s)")
            for name, vals in values.items():
                med, q1, q3, spread = _spread(vals)
                bound = bounds.get(name)
                mark = " <-- above bound/3" if bound and name != "setup_s" and spread > bound / 3 else ""
                bound_text = f"bound {bound:g}" if bound is not None else ""
                print(f"  {name:<48} {med:12.6g} {units[name]:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.4f} {bound_text}{mark}")
    clashes = [key for key, ds in digests.items() if len(ds) > 1]
    print(f"digests: {len(digests)} (workload, task seed) pairs, {len(clashes)} with differing digests"
          + (f": {clashes[:10]}" if clashes else ""))
    print(f"failed tasks: {failed}")
    return 1 if clashes or failed else 0


if __name__ == "__main__":
    sys.exit(main())
