"""Smoke tests for the end-to-end benchmark (not tier-1; run them with
``python -m pytest benchmarks/e2e``).

They check ``BENCHMARK.json`` against its schema, run every workload at
``--scale 0.05`` with two seeds — the oracle must pass, every declared
metric must be printed with its declared unit, and the counts taken over
the first pass must not depend on the seed — run every workload traced, and
check that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DETERMINISTIC = ("pages_per_query", "bytes_per_user_byte")


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str, dict]:
    """Exit code, the last line's JSON, stderr, and the ``info:`` values."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    info = {}
    for line in lines[:-1]:
        _, metric, value, _ = line.split()
        if metric.startswith("info:"):
            info[metric[5:]] = float(value)
    return proc.returncode, result, proc.stderr, info


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        if m["name"] in DETERMINISTIC:
            assert m["bound"] == 0, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def assert_declared(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_counts_do_not_depend_on_seed(workload):
    runs = [
        run("--workload", workload, "--seed", seed, "--seconds", "1", "--scale", "0.05")
        for seed in ("3", "4")
    ]
    for code, result, stderr, info in runs:
        assert code == 0, stderr
        assert_declared(result, SPEC["end_to_end"])
        assert all(item["value"] > 0 for item in result["metrics"].values())
        if "file_bytes_per_user_byte" in info:
            # The mixed workload's log bytes count: the sample is taken
            # before a checkpoint folds the log into the file.
            stored = result["metrics"]["bytes_per_user_byte"]["value"]
            assert stored > info["file_bytes_per_user_byte"]
    first, second = (r[1]["metrics"] for r in runs)
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    code, result, stderr, _ = run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "0.05",
        "--trace", "1",
    )
    assert code == 0, stderr
    assert_declared(result, SPEC["per_layer"])
    if workload == "colhist32-wal-mixed":
        assert result["metrics"]["wal.checkpoint_ms"]["value"] > 0
    assert (HERE / ".out" / f"trace-{workload}-seed3.json").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"),
    )
    code, result, _, _ = run(
        "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", cwd=tmp_path
    )
    assert code != 0 and result is None
