"""Tiny-size self-check of the benchmark harness.

Every metric BENCHMARK.json names is printed with its unit, on every workload,
traced and untraced; the catalog documents each metric; and without the
program's sources the benchmark fails without printing a result.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOG = json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))
MACHINE_KEYS = {"nproc", "cpu_model", "loadavg_at_start", "python", "numpy", "blas",
                "blas_threads", "git_commit", "source_sha256", "seed"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name

    assert set(detail["machine"]) == MACHINE_KEYS
    assert detail["machine"]["seed"] == 3
    named = CATALOG["workload_metrics"]
    for name, metric in detail["workload_metrics"].items():
        if name in named:
            assert metric["unit"] == named[name]["unit"], name
    if not trace:
        expected = {n for n, m in named.items()
                    if workload in m["workloads"] or m["workloads"] == ["all"]}
        assert expected <= set(detail["workload_metrics"])


def test_all_runs_every_workload_in_turn():
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [d["workload"] for d in lines[0::2]] == [w["name"] for w in SPEC["workloads"]]
    assert all(r["correct"] for r in lines[1::2])


def test_catalog_documents_every_metric():
    for level in ("end_to_end", "per_layer"):
        assert set(CATALOG[level]) == {m["name"] for m in SPEC[level]}
    assert {w for m in CATALOG["workload_metrics"].values() for w in m["workloads"]} == \
        {w["name"] for w in SPEC["workloads"]} | {"all"}


def test_fails_without_program_sources():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
