"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture
def workdir():
    path = REPO / ".bench_work" / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)
    if not any(path.parent.iterdir()):
        path.parent.rmdir()


@pytest.fixture
def run(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(REPO / "src"))
    return importlib.reload(importlib.import_module("run"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_a_unit(workload, trace):
    proc = bench_run(REPO, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_emit_identical_outputs(run, workload,
                                                         workdir):
    import sgcorona.cli as cli
    import tracer
    jobs = run.WORKLOADS[workload](random.Random(5), run.Inputs(workdir),
                                   True)
    plain = [run.run_job(cli, job) for job in jobs]
    tr = tracer.Tracer()
    tr.install()
    try:
        spans = [run.run_job(cli, job) for job in jobs]
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert sum(tr.calls.values()) > len(jobs)
    for a, b in zip(plain, spans):
        assert a.code == b.code == 0
        assert run.normalised(a.stdout) == run.normalised(b.stdout)


def test_gate_rejects_wrong_outputs(run, workdir):
    import sgcorona.cli as cli
    job = run.spectrum_job(run.Inputs(workdir), run.C3, run.P2, "a",
                           "theorem")
    good = run.run_job(cli, job)
    assert run.check(job, good) is None
    doc = json.loads(good.stdout)
    doc["spectrum"][0]["value"] += 1e-3
    off = run.Outcome(good.seconds, 0, json.dumps(doc))
    assert "oracle" in run.check(job, off)
    doc["discrepancies"] = [{"check": "x"}]
    assert "flagged" in run.check(job, run.Outcome(0.0, 0, json.dumps(doc)))
    assert "JSON" in run.check(job, run.Outcome(0.0, 0, good.stdout * 2))
    assert "exit code" in run.check(job, run.Outcome(0.0, 2, good.stdout))
    del doc["spectrum"]
    doc["discrepancies"] = []
    assert "field" in run.check(job, run.Outcome(0.0, 0, json.dumps(doc)))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = bench_run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_rejects_a_wrong_corona_file(run, workdir):
    import sgcorona.cli as cli
    job = run.corona_products(random.Random(5), run.Inputs(workdir),
                              True)[0]
    assert job.argv[0] == "corona"
    good = run.run_job(cli, job)
    assert run.check(job, good) is None
    out = run.ROOT / job.argv[job.argv.index("-o") + 1]
    text = out.read_text(encoding="utf-8")
    flipped = text.replace(" +\n", " -\n", 1)
    assert flipped != text
    out.write_text(flipped, encoding="utf-8")
    doc = json.loads(good.stdout)
    doc["graph"] = flipped
    assert "corona" in run.check(job, run.Outcome(0.0, 0, json.dumps(doc)))
