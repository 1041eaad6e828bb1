"""The bytes per SIMD target, and how far two targets may differ.

numpy picks one kernel per SIMD target when it starts, and
NPY_DISABLE_CPU_FEATURES switches targets off, so one machine can run
several: AVX-512, AVX2 (the AVX-512 group off) and the SSE baseline (X86_V3
off as well).  arcsin, arccos, exp, log, power and a few more ufuncs round
differently per target; sin, cos, sqrt, divide and sum do not.  Each target
below runs the same library calls and CLI commands in a fresh process.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_baseline__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_baseline__

# NPY_DISABLE_CPU_FEATURES per target; numpy at most warns about a name it
# does not dispatch
TARGETS = {
    "all": "",
    "AVX-512 off": "X86_V4 AVX512_ICL AVX512_SPR",
    "AVX-512 and AVX2 off": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}
# (n, k, window C) of bracket_errors_on_grid on SIZE angles: the closed form
# (n = 1), the expansion (n >= 2, k >= 32), the recurrence (k = 16) and, at
# C = 0.02, chunks that mix the expansion with the recurrence
CASES = [(1, 257, 1.0), (2, 256, 1.0), (2, 256, 0.02), (3, 1000, 1.0), (4, 40, 1.0),
         (5, 300, 0.02), (10, 500, 1.0), (2, 16, 1.0)]
SIZE = 1 << 16
# largest envelope-relative difference between two targets, in units of k eps.
# On an AVX-512 Xeon with numpy 2.4.6, AVX-512 against AVX2 or the SSE
# baseline read 2.00 at n = 2, k = 256 (through arccos in the expansion's
# phase), 1.68 at n = 5, k = 300, 1.51 at n = 4, k = 40, 1.02 at n = 3,
# k = 1000 and 0.50 at n = 1, k = 257 (through arcsin)
BOUND_K_EPS = 3.0
# CLI runs whose bytes are compared: compare --n 2 --k 16 takes the
# recurrence alone, and the oracle's ufuncs give equal bits under AVX-512 and
# AVX2 (but not on the SSE baseline, where 46 of its 145 numbers move in
# their last digits)
CLI_RUNS = {
    "compare.csv": ["compare", "--n", "2", "--k", "16"],
    "oracle.json": ["oracle", "--n", "3", "--ks", "2,4,8", "--samples", "200000"],
}
ORACLE_IDENTICAL = ("all", "AVX-512 off")

CHILD = r"""
import json, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from zonal import AngleWindow, ZonalIndex, bracket_errors_on_grid
from zonal.cli import main

out, cases, size, runs = sys.argv[1], *map(json.loads, sys.argv[2:])
arrays = {}
for n, k, c in cases:
    _, exact, lead, rel = bracket_errors_on_grid(ZonalIndex(n, k), AngleWindow(c), size)
    for name, arr in (("exact", exact), ("leading", lead.value), ("amplitude", lead.amplitude), ("rel", rel)):
        arrays[f"{n}-{k}-{c}-{name}"] = arr
np.savez(out + "/values.npz", **arrays)
for name, argv in runs.items():
    assert main([*argv, "--out", out + "/" + name]) == 0, argv
print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each offered target's active features, library values and CLI bytes."""
    found = {}
    for name, disabled in TARGETS.items():
        if set(disabled.split()) & set(__cpu_baseline__):
            continue  # part of this numpy build's baseline, so not a target to switch off
        out = tmp_path_factory.mktemp("simd")
        env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(out), json.dumps(CASES), str(SIZE), json.dumps(CLI_RUNS)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        active = tuple(json.loads(proc.stdout.splitlines()[-1]))
        # a machine without AVX-512 runs "all" and "AVX-512 off" on one target
        if active not in {run["active"] for run in found.values()}:
            with np.load(out / "values.npz") as values:
                found[name] = {"active": active, "values": dict(values),
                               "bytes": {f: (out / f).read_bytes() for f in CLI_RUNS}}
    if len(found) < 2:
        pytest.skip(f"one SIMD target on this machine and numpy build: {sorted(found)}")
    return found


def test_values_agree_across_simd_targets_within_the_error_model(runs):
    eps = np.finfo(float).eps
    (first, ref), *others = runs.items()
    for name, run in others:
        worst = {}
        for n, k, c in CASES:
            key = f"{n}-{k}-{c}"
            envelope = ref["values"][f"{key}-amplitude"]
            diffs = [np.abs(run["values"][f"{key}-{f}"] - ref["values"][f"{key}-{f}"]) / envelope
                     for f in ("exact", "leading", "amplitude")]
            diffs.append(np.abs(run["values"][f"{key}-rel"] - ref["values"][f"{key}-rel"]))
            worst[key] = max(float(d.max()) for d in diffs) / (k * eps)
        assert max(worst.values()) <= BOUND_K_EPS, (first, name, worst)


def test_dispatch_stable_paths_are_byte_identical_across_simd_targets(runs):
    (first, ref), *others = runs.items()
    for name, run in others:
        assert run["bytes"]["compare.csv"] == ref["bytes"]["compare.csv"], (first, name)
        if {first, name} <= set(ORACLE_IDENTICAL):
            assert run["bytes"]["oracle.json"] == ref["bytes"]["oracle.json"], (first, name)
