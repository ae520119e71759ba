"""Self-check of the benchmark at tiny sizes (kept out of the tier-1 suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import GENERATORS  # noqa: E402

WORKLOADS = sorted(GENERATORS)


def bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def fingerprint(workload: str, seed: int) -> dict:
    path = HERE / "out" / "tiny" / f"fingerprint-{workload}-{seed}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def tree_digest() -> str:
    """Hash of everything outside the benchmark that it must not touch."""
    h = hashlib.sha256()
    paths = [ROOT / "README.md", ROOT / "pyproject.toml"]
    for top in ("src", "tests", ".github"):
        paths.extend(sorted(p for p in (ROOT / top).rglob("*")
                            if p.is_file() and "__pycache__" not in p.parts))
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_fingerprints_and_determinism(workload):
    before = tree_digest()
    first, text = bench(workload, 1)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["attempted"] >= 1
    assert {k: v["unit"] for k, v in first["metrics"].items()} == dict(run.END_TO_END)
    for name, unit in run.END_TO_END + [("error_rate", "ratio")]:
        assert any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in text.splitlines()), name
    fp1 = fingerprint(workload, 1)

    again, _ = bench(workload, 1)
    assert fingerprint(workload, 1) == fp1
    for key in ("bytes_per_query", "requests_per_query"):
        assert again["metrics"][key]["value"] == first["metrics"][key]["value"]
    assert again["failed"] * first["attempted"] == first["failed"] * again["attempted"]

    bench(workload, 2)
    assert fingerprint(workload, 2)["digest"] != fp1["digest"]
    assert tree_digest() == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, text = bench(workload, 1, trace=1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, *_ in run.PER_LAYER}
    spans = HERE / "out" / "tiny" / f"spans-{workload}-1.jsonl"
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent", "op"}


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == ["plan-heavy", "exec-heavy", "cold-cli"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in run.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
