"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zonal  # noqa: E402
from zonal import quadric, quadrature, special  # noqa: E402

# small enough for a test, same checks as the real workloads
SMALL_KERNEL = workloads.KernelWorkload(point_k=500, window_k=256, grid=1024)
SMALL_ORACLE = workloads.OracleWorkload(
    "small", ("--ks", "2,3", "--pairs", "3", "--samples", "30000")
)


def test_task_generation_is_a_pure_function_of_the_seed():
    seeds = [run.task_seed(7, i) for i in range(5)]
    assert seeds == [run.task_seed(7, i) for i in range(5)]
    assert len(set(seeds)) == 5
    assert run.task_seed(8, 0) != seeds[0]
    for workload in workloads.WORKLOADS.values():
        assert workload.make_task(seeds[0]) == workload.make_task(seeds[0])
        assert workload.make_task(seeds[0]) != workload.make_task(seeds[1])


def test_self_time_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [
        S("a", 0, 100, -1, 0, 0, True),
        S("b", 10, 40, 0, 0, 0, True),
        S("c", 50, 90, 0, 0, 0, True),
        S("d", 60, 70, 2, 0, 0, True),
        # recursion: the inner span of the same name is not counted twice
        S("r", 200, 250, -1, 0, 0, True),
        S("r", 210, 230, 4, 0, 0, False),
        S("a", 300, 310, -1, 1, 5, True),
    ]
    stats = spans.summarize(tree)
    first = stats[0]
    assert first["a"] == spans.Stat(calls=1, inclusive_ns=100, self_ns=30, work=0)
    assert first["b"].self_ns == 30
    assert first["c"].self_ns == 30
    assert first["d"].self_ns == 10
    assert first["r"] == spans.Stat(calls=2, inclusive_ns=50, self_ns=50, work=0)
    assert stats[1]["a"] == spans.Stat(calls=1, inclusive_ns=10, self_ns=10, work=5)


@pytest.mark.parametrize("workload", [SMALL_KERNEL, SMALL_ORACLE], ids=["kernel", "oracle"])
def test_traced_and_untraced_tasks_give_identical_digests(workload):
    originals = (special.legendre_normalized, quadrature.sphere_rule,
                 quadric.fiber_rule, quadric.ConeBasis.__dict__["evaluate"])
    tracer = spans.Tracer()
    records = run.closed_loop(workload, seed=3, seconds=0.0, tracer=tracer)
    assert len(records) == 4
    assert all(not r["failures"] for r in records), records
    for plain, traced in zip(records[::2], records[1::2]):
        assert plain["digest"] == traced["digest"]
        assert not plain["traced"] and traced["traced"]
    # every wrapper is gone afterwards
    assert (special.legendre_normalized, quadrature.sphere_rule,
            quadric.fiber_rule, quadric.ConeBasis.__dict__["evaluate"]) == originals
    assert zonal.legendre_normalized is special.legendre_normalized
    names = {s.name for s in tracer.spans}
    if workload is SMALL_ORACLE:
        assert {"cli.main", "quadrature.fiber_rule", "quadrature.sphere_rule",
                "quadric.ConeBasis.evaluate", "rng.substream"} <= names
        metrics = spans.layer_metrics(tracer.spans, run.overhead_ratio(records))
        assert metrics["quadrature.fiber_rule.calls"] > 0
        assert metrics["quadric.build_cone_basis.s_per_1e6_samples"] > 0
    else:
        assert {"special.legendre_normalized.point", "special.legendre_normalized.window",
                "asymptotics.legendre_leading", "harness.bracket_errors_on_grid"} <= names


def test_a_wrong_value_is_counted_as_failed(monkeypatch):
    good = special.legendre_normalized

    def off_by_a_little(idx, t):
        return good(idx, t) + 1e-6

    monkeypatch.setattr(special, "legendre_normalized", off_by_a_little)
    records = run.process_tasks(SMALL_KERNEL, seed=3, first=1, seconds=0.0, started=time.perf_counter())
    metrics, _, _, records = run.end_to_end([{"import_s": 1.0, "peak_rss_mb": 1.0, "records": records}])
    assert [r["cold"] for r in records] == [True, False]
    assert all(r["failures"] for r in records)
    assert metrics["pass_ratio"] == 0.0


def test_cold_tasks_of_a_run_must_agree():
    def process(digest):
        cold = {"index": 0, "seconds": 1.0, "digest": digest, "failures": [], "cold": True}
        steady = {"index": 1, "seconds": 1.0, "digest": "s", "failures": [], "cold": False}
        return {"import_s": 1.0, "peak_rss_mb": 1.0, "records": [cold, steady]}

    metrics, _, _, _ = run.end_to_end([process("a"), process("a")])
    assert metrics["pass_ratio"] == 1.0
    metrics, _, _, records = run.end_to_end([process("a"), process("b")])
    assert metrics["pass_ratio"] == 0.75
    assert records[2]["failures"] == ["cold-task digest differs between processes"]


def test_oracle_check_rejects_a_large_residual():
    argv = SMALL_ORACLE.make_task(5)
    code, text = SMALL_ORACLE.run(argv)
    assert SMALL_ORACLE.check(argv, (code, text)) == []
    doc = json.loads(text)
    doc["degrees"][0]["max_residual"] = 0.06
    assert SMALL_ORACLE.check(argv, (code, json.dumps(doc)))
    assert SMALL_ORACLE.check(argv, (2, text)) == ["exit code 2"]


def test_closed_forms_match_the_recurrence_at_low_degree():
    theta = [0.3, 1.1, 2.9]
    for n in (1, 2, 3):
        idx = special.ZonalIndex(n=n, k=9)
        ref = workloads.closed_form(n, 9, np.array(theta))
        got = special.legendre_normalized(idx, np.cos(theta))
        assert np.max(np.abs(got - ref)) < 1e-14


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(spans.task_metrics({})) | {"trace.overhead_ratio"} == set(spans.LAYER_UNITS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
