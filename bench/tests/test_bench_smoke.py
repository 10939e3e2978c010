"""Smoke test of the benchmark harness: a tiny A1-only pass, both modes.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check(trace, declared):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert last["failed"] == 0
    assert {n: m["unit"] for n, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))
    return last


def test_end_to_end_schema():
    last = _check(0, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in last["metrics"].values())
    record = json.loads((ROOT / "bench/results/smoke-seed3.json").read_text())
    for key in ("python", "nproc", "git_revision", "source_sha256", "seed"):
        assert key in record
    assert record["seed"] == 3
    assert all(m["samples"] >= 1 for m in record["end_to_end"].values())
    assert all(d["samples"] >= 1 for d in record["details"].values())


def test_per_layer_schema():
    last = _check(1, SPEC["per_layer"])
    metrics = last["metrics"]
    assert metrics["hecke.HeckeAlgebra.multiply.calls"]["value"] > 0
    assert metrics["modules.induce.calls"]["value"] > 0
    record = json.loads(
        (ROOT / "bench/results/smoke-seed3-trace.json").read_text())
    assert record["span_count"] > 0
    assert "trace.overhead_s" in record["per_layer"]
    spans = json.loads(
        (ROOT / "bench/results/smoke-seed3-trace-spans.json").read_text())
    assert spans["fields"] == ["id", "name", "start", "end", "parent", "op"]
    assert all(s[3] >= s[2] for s in spans["spans"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
