"""Smoke test of the benchmark itself (about three minutes on two cores).

    python3 -m pytest -q perfbench/test_smoke.py

One short untraced and one traced run per workload: every metric named in
BENCHMARK.json is emitted with its unit and nothing fails.  A corrupted
reference value must be caught, and a tree without src/ must not run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refcheck  # noqa: E402
import run as runner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def test_runner_declares_the_benchmark_json_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(runner.WORKLOAD_NAMES)
    assert _units(BENCH["end_to_end"]) == runner.END_TO_END
    assert _units(BENCH["per_layer"]) == runner.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", runner.WORKLOAD_NAMES)
def test_short_run(workload, trace):
    out = _run("--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    *_, detail, last = out.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(detail)["failed_frac"] == 0
    expected = _units(BENCH["per_layer"] if trace else BENCH["end_to_end"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_reference_is_detected(tmp_path):
    ref = runner.load_reference(runner.REFERENCE)
    ref["workloads"]["cli_defaults"]["sergeraert"]["report"]["ratio_unit_scale"] *= 1 + 1e-4
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    out = _run("--workload", "cli_defaults", "--seed", str(ref["seed"]),
               "--seconds", "1", "--trace", "0", "--reference", str(path))
    result = json.loads(out.stdout.splitlines()[-1])
    assert out.returncode == 1
    assert not result["correct"] and result["failed"] == 1
    assert "cli_defaults/sergeraert: $.report.ratio_unit_scale" in out.stderr


def test_float_tolerances():
    ref = {"value": 0.5, "uncertainty": 1e-3, "x": 2.0, "q": "1/4", "k": 3}
    assert refcheck.compare(ref, dict(ref, value=0.5009), 1e-6, 1e-9) == []
    assert refcheck.compare(ref, dict(ref, value=0.502), 1e-6, 1e-9)
    assert refcheck.compare(ref, dict(ref, x=2.0 + 1e-6), 1e-6, 1e-9) == []
    assert refcheck.compare(ref, dict(ref, x=2.0 + 1e-5), 1e-6, 1e-9)
    assert refcheck.compare(ref, dict(ref, q="1/3"), 1e-6, 1e-9)
    assert refcheck.compare(ref, dict(ref, k=3.0), 1e-6, 1e-9)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "cli_defaults", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
