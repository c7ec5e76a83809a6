"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

A tiny run of every workload, untraced and traced, must print every metric
that BENCHMARK.json names, with its unit; a corrupted expected answer must
make a run fail; two runs with the same seed must attempt the same
operations and fail the same ones; and the benchmark must fail without the
package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in section})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    cpus = os.sched_getaffinity(0)  # run.main pins the process to one CPU
    yield run, workloads
    os.sched_setaffinity(0, cpus)


def test_wrong_gamma_fails_the_run(bench_modules, monkeypatch, capsys):
    run, workloads = bench_modules
    wrong = {**workloads.EXPECTED_GAMMA["X4"], 6: Fraction(1, 647)}
    monkeypatch.setitem(workloads.EXPECTED_GAMMA, "X4", wrong)
    code = run.main(["--workload", "symbolic", "--seed", "1", "--seconds", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "wrong answer" in err and "gamma" in err
    assert '"metrics"' not in out


def test_wrong_anchor_fails_the_run(bench_modules, monkeypatch, capsys):
    run, workloads = bench_modules
    monkeypatch.setitem(workloads.X96_ANCHORS, 3, 71)
    code = run.main(["--workload", "symbolic", "--seed", "1", "--seconds", "0.1"])
    assert code == 1
    assert "I3" in capsys.readouterr().err


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "symbolic", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_operations():
    runs = [json.loads(_bench("--workload", "certify", "--seed", "3", "--seconds", "1",
                              "--trace", "0").stdout.splitlines()[-1])
            for _ in range(2)]
    assert [(r["attempted"], r["failed"]) for r in runs] == [(36, runs[0]["failed"])] * 2
