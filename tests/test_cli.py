import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zonal import harness, quadric
from zonal.cli import MAX_GRID, build_parser, main
from zonal.quadric import build_cone_basis
from zonal.special import ZonalIndex, legendre_normalized

# the BLAS thread variables the package defaults to 1 when none is set
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    assert "seed" not in doc["config"]  # eval draws no random numbers
    assert len(doc["rows"]) == 3  # default angle list


def test_eval_rejects_bad_angle(capsys):
    code, _, _ = run_cli(["eval", "--k", "2", "--theta", "3.5"], capsys)
    assert code == 2


def test_eval_rejects_degree_out_of_range(capsys):
    code, _, err = run_cli(["eval", "--n", "200", "--k", "25000"], capsys)
    assert code == 2
    assert "outside the evaluated range" in err
    # on the circle float(k) is exact up to 2^53
    assert run_cli(["eval", "--n", "1", "--k", str(2**53)], capsys)[0] == 0
    code, _, err = run_cli(["eval", "--n", "1", "--k", str(2**53 + 1)], capsys)
    assert code == 2
    assert "outside the evaluated range" in err and "2^53" in err


def test_eval_rejects_dimension_out_of_range(capsys):
    # past n = 2^53, L = (n - 1)/2 is no exact double, and 10^400 is no double at all
    for n in (2**53 + 1, 10**400):
        code, _, err = run_cli(["eval", "--n", str(n), "--k", "0"], capsys)
        assert code == 2
        assert "outside the evaluated range" in err and "2^53" in err


def test_leading_forms_reject_dimension_out_of_range(capsys):
    # from n = 270 the amplitude's constant 4^L (1/2)_L is no double, and it is
    # refused before any factorial is formed, even at n = 10^8
    for argv in (
        ["compare", "--n", "400", "--k", "4"],
        ["compare", "--n", "1000", "--k", "4"],
        ["compare", "--n", "100000000", "--k", "4"],
        ["scaling", "--n", "1000", "--k-min", "4", "--k-max", "8"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "not a finite positive double" in err


def test_eval_circle_at_a_huge_degree(capsys):
    # the closed form's cost does not grow with k; a k-step loop never returns here
    import mpmath as mp

    k = 10**12
    code, out, _ = run_cli(["eval", "--n", "1", "--k", str(k), "--theta", "1.0"], capsys)
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[3])
    with mp.workdps(50):
        ref = float(mp.cos(k * mp.acos(mp.mpf(math.cos(1.0)))))
    assert abs(value - ref) <= k * np.finfo(float).eps


def test_eval_rejects_foreign_flag(capsys):
    code, _, _ = run_cli(["eval", "--k", "2", "--delta", "0.1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--k", "2", "--samples", "1000"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--k", "2", "--seed", "1"], capsys)
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
    assert "seed" not in doc["config"]
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
    # degree 0 and repeated degrees are refused by the parser, before any basis build
    for ks in ("0,2", "2,2", "4,2,4"):
        code, out, err = run_cli(["oracle", "--ks", ks], capsys)
        assert code == 2 and out == "" and "argument --ks" in err


def test_oracle_refuses_outside_its_domain_before_any_basis(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("basis build reached")

    monkeypatch.setattr(quadric, "build_cone_basis", no_build)
    for argv, reason in (
        (["oracle", "--n", "4"], "the dimensions tests/oracles has sphere rules for"),
        (["oracle", "--ks", "13"], "the last degree at which tests/oracles.C_EXACT checks c_k"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert reason in err


def test_oracle_rejects_a_basis_with_gram_error_at_least_half(capsys):
    # 1690 frames for the 169 sections at k=12 read gram_error 0.548, where
    # the decay bound gram_error (1 + v) / (1 - gram_error) exceeds 1 + v
    code, out, err = run_cli(["oracle", "--n", "3", "--ks", "12", "--samples", "1690"], capsys)
    assert code == 2 and out == ""
    assert "gram_error 0.548" in err


IMPORT_FOOTPRINT = """
import json, sys
import numpy as np
import zonal.cli
from zonal import harness, special
from zonal.asymptotics import AngleWindow
from zonal.special import ZonalIndex

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

imported = scipy_modules()
t = np.cos(np.array([0.3, 1.2, 2.9]))
for n in (1, 2, 3):
    idx = ZonalIndex(n, 25_013)
    special.legendre_normalized(idx, t)
    special.projector_kernel(idx, t)
    harness.bracket_errors_on_grid(ZonalIndex(n, 256), AngleWindow(), 1 << 17)
called = scipy_modules()
low = special.legendre_normalized(ZonalIndex(3, 8), t)
print(json.dumps({"imported": imported, "called": called, "low": low.tolist(),
                  "special": "scipy.special" in sys.modules}))
"""


def test_import_and_kernel_calls_load_no_scipy():
    # the closed form (n = 1) and the expansion (n >= 2, k >= K_EXPANSION, away
    # from the poles) run on numpy alone; only the recurrence imports scipy
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["imported"] == [] and doc["called"] == []
    assert doc["special"]
    t = np.cos(np.array([0.3, 1.2, 2.9]))
    low = legendre_normalized(ZonalIndex(3, 8), t)
    assert doc["low"] == low.tolist()
    np.testing.assert_allclose(low, np.sin(9 * np.arccos(t)) / (9 * np.sqrt(1 - t * t)), rtol=0, atol=1e-14)


ORACLE_FOOTPRINT = """
import contextlib, io, json, sys
from zonal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["oracle", "--n", "3", "--ks", "2,4,8", "--samples", "2000"])
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_oracle_loads_no_scipy_linalg():
    # the sphere rules' Gauss-Jacobi nodes come from numpy's eigh; scipy.special
    # stays, for the predicted projector values at k < 32
    proc = subprocess.run([sys.executable, "-c", ORACLE_FOOTPRINT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    assert "scipy.special" in doc["modules"]
    assert not [m for m in doc["modules"] if m == "scipy.linalg" or m.startswith("scipy.linalg.")]


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
    # the basis Gram noise alone sets the residuals; 16x samples cuts it about 4x
    reports = []
    for samples in ("30000", "480000"):
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


def test_grid_and_batch_caps_reject_at_parse(capsys):
    # parse only: a run at the cap would allocate hundreds of MB
    parser, _ = build_parser()
    assert parser.parse_args(["compare", "--grid", str(MAX_GRID)]).grid == MAX_GRID
    for argv, message in (
        (["compare", "--grid", str(MAX_GRID + 1)], f"must be <= {MAX_GRID}"),
        (["scaling", "--grid", str(MAX_GRID + 1)], f"must be <= {MAX_GRID}"),
        (["bench"], "invalid choice"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert message in err


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


@pytest.mark.parametrize("value", [None, True, {"k": 3}, [1, None], [[1]]],
                         ids=["null", "bool", "object", "list-with-null", "nested-list"])
def test_config_file_refuses_values_no_flag_takes(tmp_path, monkeypatch, capsys, value):
    # str() would turn null into the file name "None"; no flag takes a
    # boolean, an object or a nested list either
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out": value, "k": 3}))
    code, out, err = run_cli(["eval", "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert "--config: key 'out'" in err
    assert list(tmp_path.iterdir()) == [config]


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
    # determinism contract: identical output whether or not the caller pins
    # BLAS threads.  At n=3, k=8 the basis has 81 members, where threaded
    # Gram products and section evaluations round differently per thread count
    outputs = []
    for threads in (None, "1"):
        target = tmp_path / f"oracle_{threads}.json"
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "zonal.cli", "oracle", "--n", "3", "--ks", "8", "--pairs", "2",
             "--samples", "20000", "--seed", "11", "--out", str(target)],
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
    texts = []
    for _ in range(2):
        stream = io.StringIO()
        payload = harness.geometric_oracle(build_cone_basis(3, (2, 4), 20000, 13), 2, 13)
        harness.json_summary("oracle", config, payload, stream)
        texts.append(stream.getvalue())
    target = tmp_path / "oracle.json"
    proc = subprocess.run(
        [sys.executable, "-m", "zonal.cli", "oracle", "--n", "3", "--ks", "2,4", "--pairs", "2",
         "--samples", "20000", "--seed", "13", "--out", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert texts[0].encode() == texts[1].encode() == target.read_bytes()


FLAG_DEFAULTS = {
    "eval": [("config", None), ("format", "csv"), ("k", None), ("n", 2), ("out", None),
             ("theta", [0.5, 1.0, 1.5])],
    "compare": [("config", None), ("delta", 0.0), ("format", "csv"), ("grid", 512), ("k", 256),
                ("n", 2), ("out", None), ("window_c", 1.0)],
    "scaling": [("config", None), ("delta", 0.0), ("format", "csv"), ("grid", 512),
                ("k_max", 4096), ("k_min", 64), ("n", 2), ("out", None), ("window_c", 1.0)],
    "oracle": [("config", None), ("ks", [2, 4, 8]), ("n", 2), ("out", None), ("pairs", 8),
               ("samples", 1000000), ("seed", 20250819)],
}


def test_each_subcommand_keeps_its_flags_and_defaults():
    # shared flags come from parent parsers, so a flag added to or dropped
    # from one subcommand shows here
    _, commands = build_parser()
    assert sorted(commands) == sorted(FLAG_DEFAULTS)
    for name, sub in commands.items():
        pairs = sorted((a.dest, a.default) for a in sub._actions if a.dest != "help")
        assert pairs == FLAG_DEFAULTS[name], name


def test_config_keys_must_equal_a_flag_of_the_subcommand(tmp_path, capsys):
    # on the command line --k abbreviates oracle's --ks; a config key must match exactly
    parser, _ = build_parser()
    assert parser.parse_args(["oracle", "--k", "2,4"]).ks == [2, 4]
    for command, key in (("oracle", "k"), ("eval", "ks"), ("eval", "help"), ("oracle", "format")):
        config = tmp_path / f"{command}_{key}.json"
        config.write_text(json.dumps({key: 3}))
        code, out, err = run_cli([command, "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert f"unknown key {key!r} for subcommand {command!r}" in err


ECHO_KEYS = {
    "eval": (["eval", "--k", "3"], ["k", "n", "theta"]),
    "compare": (["compare", "--k", "32", "--grid", "8"], ["C", "delta", "grid", "k", "n"]),
    "scaling": (["scaling", "--k-min", "64", "--k-max", "128", "--grid", "8"],
                ["C", "delta", "grid", "k_max", "k_min", "ks", "n"]),
    "oracle": (["oracle", "--ks", "2", "--pairs", "1", "--samples", "3000"],
               ["ks", "n", "pairs", "samples", "seed"]),
}


@pytest.mark.parametrize("command", sorted(ECHO_KEYS))
def test_json_config_echo_holds_every_flag_but_out_config_and_format(command, capsys):
    # the echo is read from the parsed flags, so a new flag shows up here
    argv, keys = ECHO_KEYS[command]
    if command != "oracle":
        argv = [*argv, "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert sorted(json.loads(out)["config"]) == keys


def test_config_flag_abbreviations_and_the_last_config_win(tmp_path, capsys):
    first = tmp_path / "first.json"
    first.write_text(json.dumps({"n": 3}))
    second = tmp_path / "second.json"
    second.write_text(json.dumps({"k": 5}))
    for flag in ("--conf", "--co"):
        code, out, _ = run_cli(["eval", "--k", "3", "--theta", "1", flag, str(first)], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[:2] == ["3", "3"]
    # argparse keeps the last of two --config flags, and so does the loader
    argv = ["eval", "--theta", "1", "--config", str(first), "--config", str(second)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[:2] == ["2", "5"]


def test_config_value_may_begin_with_a_dash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out": "-r.csv", "k": 3, "theta": [0.5, 1.0]}))
    code, out, err = run_cli(["eval", "--config", str(config)], capsys)
    assert code == 0 and out == "" and err == ""
    assert (tmp_path / "-r.csv").read_text().count("\n") == 3
    # a negative number still reaches the flag's own check
    config.write_text(json.dumps({"n": -3, "k": 3}))
    code, out, err = run_cli(["eval", "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert "argument --n: must be >= 1, got -3" in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["eval", "--k", "3", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --out: ")
    # the file opens only once the work is done, so a refused run leaves none
    target = tmp_path / "x.json"
    code, out, _ = run_cli(["oracle", "--n", "5", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["eval", "--k", "3", "--out"], "zonal eval: error: argument --out: expected one argument"),
    (["oracle", "--conf"], "zonal oracle: error: argument --config: expected one argument"),
    (["eval", "--k", "3", "--=x"], "zonal eval: error: ambiguous option: --=x"),
], ids=["out", "conf", "ambiguous"])
def test_malformed_flags_return_2_from_the_subcommand_parser(argv, message, capsys):
    # the --config pre-parse neither prints nor exits; main reports the error once
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: zonal ") and err.count("usage:") == 1
    assert message in err
