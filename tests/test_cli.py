import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zonal import harness
from zonal.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_requires_degree(capsys):
    code, _, _ = run_cli(["eval"], capsys)
    assert code == 2


def test_eval_circle_value(capsys):
    code, out, _ = run_cli(["eval", "--n", "1", "--k", "3", "--theta", "1.5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,theta,legendre,projector"
    cells = lines[1].split(",")
    assert cells[0] == "1" and cells[1] == "3"
    np.testing.assert_allclose(float(cells[3]), math.cos(3 * 1.5), rtol=1e-12)


def test_eval_legendre_spot_value(capsys):
    code, out, _ = run_cli(
        ["eval", "--n", "2", "--k", "2", "--theta", str(math.pi / 2)], capsys
    )
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[3])
    np.testing.assert_allclose(value, -0.5, atol=1e-9)


def test_eval_json_document(capsys):
    code, out, _ = run_cli(["eval", "--k", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "eval"
    assert doc["config"]["n"] == 2 and doc["config"]["k"] == 4
    assert "seed" in doc["config"]
    assert len(doc["rows"]) == 3  # default angle list


def test_eval_rejects_bad_angle(capsys):
    code, _, _ = run_cli(["eval", "--k", "2", "--theta", "3.5"], capsys)
    assert code == 2


def test_eval_rejects_degree_out_of_range(capsys):
    code, _, err = run_cli(["eval", "--n", "200", "--k", "25000"], capsys)
    assert code == 2
    assert "outside the evaluated range" in err


def test_eval_rejects_foreign_flag(capsys):
    code, _, _ = run_cli(["eval", "--k", "2", "--delta", "0.1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--k", "2", "--samples", "1000"], capsys)
    assert code == 2


def test_compare_csv_schema_and_determinism(capsys):
    argv = ["compare", "--n", "1", "--k", "64", "--grid", "16"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    lines = first.strip().split("\n")
    assert lines[0] == "n,k,delta,C,theta,exact,asymptotic,abs_err,rel_err"
    assert len(lines) == 17
    for line in lines[1:]:
        assert float(line.split(",")[8]) <= 1e-12  # circle bracket closes
    code, second, _ = run_cli(argv, capsys)
    assert code == 0
    assert second == first


def test_compare_json_config_echo(capsys):
    code, out, _ = run_cli(
        ["compare", "--k", "32", "--grid", "8", "--format", "json", "--window-c", "0.8"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "compare"
    assert doc["config"]["C"] == 0.8
    assert doc["config"]["seed"] == 20250819
    assert len(doc["rows"]) == 8


def test_scaling_csv_doubling_grid(capsys):
    code, out, _ = run_cli(
        ["scaling", "--k-min", "64", "--k-max", "256", "--grid", "64"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,k,delta,C")
    assert [line.split(",")[1] for line in lines[1:]] == ["64", "128", "256"]


def test_scaling_csv_measures_each_degree_once(capsys, monkeypatch):
    calls = []
    original = harness.bracket_errors_on_grid

    def counted(idx, *args, **kwargs):
        calls.append(idx.k)
        return original(idx, *args, **kwargs)

    monkeypatch.setattr(harness, "bracket_errors_on_grid", counted)
    code, _, _ = run_cli(["scaling", "--k-min", "64", "--k-max", "256", "--grid", "32"], capsys)
    assert code == 0
    assert calls == [64, 128, 256]


def test_scaling_json_fit(capsys):
    code, out, _ = run_cli(
        ["scaling", "--k-min", "64", "--k-max", "512", "--grid", "64", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "scaling"
    assert doc["config"]["k_min"] == 64 and doc["config"]["k_max"] == 512
    assert doc["config"]["ks"] == [64, 128, 256, 512]
    assert -1.4 < doc["slope"] < -0.6
    assert doc["r_squared"] > 0.9
    assert len(doc["points"]) == 4
    assert not doc["exact"]


def test_scaling_json_circle_is_exact(capsys):
    # the second input is the CLI defaults, k = 64..4096 on 512 angles
    for extra in (["--k-min", "64", "--k-max", "128", "--grid", "32"], []):
        code, out, _ = run_cli(["scaling", "--n", "1", *extra, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["slope"] is None and doc["intercept"] is None


def test_scaling_rejects_reversed_range(capsys):
    code, _, err = run_cli(["scaling", "--k-min", "64", "--k-max", "32"], capsys)
    assert code == 2
    assert "--k-max" in err


def test_oracle_rejects_csv_and_bad_dimension(capsys):
    assert run_cli(["oracle", "--format", "csv"], capsys)[0] == 2
    assert run_cli(["oracle", "--format", "json"], capsys)[0] == 2
    assert run_cli(["oracle", "--n", "5", "--samples", "2000"], capsys)[0] == 2
    assert run_cli(["oracle", "--ks", "13", "--samples", "2000"], capsys)[0] == 2


def test_oracle_small_report(capsys):
    code, out, _ = run_cli(
        ["oracle", "--ks", "2,3", "--pairs", "2", "--samples", "5000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "oracle"
    assert doc["schema_version"] == 1
    assert doc["config"]["samples"] == 5000 and doc["config"]["seed"] == 3
    assert [d["k"] for d in doc["degrees"]] == [2, 3]
    assert all(len(d["pairs"]) == 2 for d in doc["degrees"])
    assert "decay" in doc


def test_oracle_residuals_shrink_with_samples(capsys):
    reports = []
    for samples in ("30000", "120000"):
        code, out, _ = run_cli(
            ["oracle", "--ks", "2,3", "--pairs", "6", "--samples", samples, "--seed", "123"],
            capsys,
        )
        assert code == 0
        reports.append(json.loads(out))
    means = [
        sum(d["mean_residual"] for d in doc["degrees"]) / len(doc["degrees"])
        for doc in reports
    ]
    assert means[1] < means[0]


def test_bench_small_report(capsys):
    code, out, _ = run_cli(
        ["bench", "--ks", "4", "--batch", "100000", "--reps", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bench"
    assert doc["config"]["budget"] == 1e-2
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["k"] == 4
    assert doc["rows"][0]["max_rel_err"] > 0.0


def test_bench_rejects_bad_arguments(capsys):
    assert run_cli(["bench", "--ks", "4", "--batch", "50000"], capsys)[0] == 2
    assert run_cli(["bench", "--ks", "4", "--budget", "0"], capsys)[0] == 2
    assert run_cli(["bench", "--ks", "4", "--format", "json"], capsys)[0] == 2


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"k": 32, "theta": [0.5], "n": 1}))
    code, out, _ = run_cli(["eval", "--config", str(config)], capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "1" and row[1] == "32"
    np.testing.assert_allclose(float(row[3]), math.cos(32 * 0.5), rtol=1e-12)
    # explicit flags beat config values
    code, out, _ = run_cli(["eval", "--config", str(config), "--k", "4"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[1] == "4"


def test_config_file_rejections(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"delta": 0.1}))
    assert run_cli(["eval", "--config", str(bad_key)], capsys)[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["eval", "--config", str(broken)], capsys)[0] == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert run_cli(["eval", "--config", str(not_object)], capsys)[0] == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["eval", "--k", "2", "--config", str(missing)], capsys)[0] == 2


def test_out_writes_file_only(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["eval", "--k", "2", "--theta", "1.0", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    data = target.read_bytes()
    assert data.endswith(b"\n")
    assert data.decode().split("\n")[0] == "n,k,theta,legendre,projector"


def test_thread_count_never_changes_bytes(tmp_path):
    # determinism contract: identical output for any ZONAL_THREADS setting
    outputs = []
    for threads in ("1", "4"):
        target = tmp_path / f"oracle_{threads}.json"
        env = dict(os.environ, ZONAL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "zonal.cli", "oracle", "--ks", "2", "--pairs", "2",
             "--samples", "30000", "--seed", "11", "--out", str(target)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_warm_caches_match_a_fresh_process(tmp_path):
    # quadrature rules persist between calls in one process; a cold call, a
    # warm call and a fresh process must give the same bytes
    from zonal import quadrature

    quadrature.sphere_rule.cache_clear()
    config = {"n": 3, "ks": [2, 4], "samples": 20000, "pairs": 2, "seed": 13}
    texts = [
        harness.json_summary("oracle", config, harness.geometric_oracle(3, (2, 4), 20000, 2, 13))
        for _ in range(2)
    ]
    target = tmp_path / "oracle.json"
    proc = subprocess.run(
        [sys.executable, "-m", "zonal.cli", "oracle", "--n", "3", "--ks", "2,4", "--pairs", "2",
         "--samples", "20000", "--seed", "13", "--out", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert texts[0].encode() == texts[1].encode() == target.read_bytes()
