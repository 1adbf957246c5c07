"""Seeded benchmark of sgcorona through its public CLI entry point.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact_ladder --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each job is a ``sgcorona.cli.run``
call made in process after the previous one returned.  Inputs are made
from ``--seed`` before timing starts; every run of a job is checked
against the benchmark's own oracles outside its timing.  The job list
runs once; short jobs are repeated (see run_jobs) and a job's time is
the median of its runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
list once with spans wrapped around every layer (see tracer.py), re-runs
jobs for up to ``--seconds`` untraced (tracing overhead) and up to
``--seconds`` under tracemalloc (heap peak), and reports the per-layer
metrics.

A human-readable report (a JSON object) comes first on stdout; the last
line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
SPECTRUM_TOL = 1e-6
SETUP_SAMPLES = 11
REPEATS = 8

# The pair from ROADMAP item 1: its A charpoly (degree 56, squarefree,
# 54-bit coefficients) defeats the fast root isolation path.
ROADMAP_G1 = (8, [(0, 1, 1), (0, 4, -1), (1, 5, -1), (1, 6, 1), (1, 7, -1),
                  (2, 7, 1), (3, 4, -1), (3, 5, -1), (3, 7, 1), (4, 6, 1),
                  (5, 7, -1)])
ROADMAP_G2 = (6, [(0, 1, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, -1),
                  (1, 3, 1), (1, 5, 1), (2, 5, 1), (4, 5, 1)])
# the 3x2 worked example: all-positive triangle with a positive edge
C3 = (3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
P2 = (2, [(0, 1, 1)])


@dataclass
class Job:
    argv: list
    nodes: int = 0                 # corona order, 0 when no corona
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    code: object
    stdout: str
    failure: object = None         # why the output failed its check


class Inputs:
    """Writes graph files into the work directory, once per graph."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def write(self, g) -> str:
        self.count += 1
        path = self.dir / f"g{self.count}.sg"
        path.write_text(inputs.graph_text(g), encoding="utf-8")
        return str(path.relative_to(ROOT))

    def output(self) -> str:
        self.count += 1
        return str((self.dir / f"out{self.count}.sg").relative_to(ROOT))


def spectrum_job(files: Inputs, g1, g2, matrix: str, method: str) -> Job:
    cor = inputs.corona_adjacency(g1, g2)
    return Job(["spectrum", "--matrix", matrix, "--method", method,
                files.write(g1), files.write(g2)], nodes=len(cor),
               expect={"spectrum": inputs.spectrum(cor, matrix)})


# ---------------------------------------------------------------------------
# workloads

def exact_ladder(rng, files: Inputs, smoke: bool):
    """Exact theorem route on a ladder of sizes, then the ROADMAP pair.
    The random rungs stop at degree 25: from degree 24-30 up, Sturm
    fallbacks strike random instances and the seed would decide the
    times (README.md)."""
    a_sizes = [(3, 2), (4, 3)] if smoke else \
        [(3, 2), (4, 2), (4, 3), (5, 3), (4, 4), (6, 3), (4, 5), (5, 4)]
    ql_sizes = [(5, 1, 2)] if smoke else \
        [(5, 1, 2), (6, 2, 2), (5, 1, 3), (4, 1, 4)]
    reps = 1 if smoke else 5
    jobs = []
    for n1, n2 in a_sizes:
        for _ in range(reps):
            g1 = inputs.random_graph(rng, n1)
            g2 = inputs.random_graph(rng, n2)
            jobs.append(spectrum_job(files, g1, g2, "a", "theorem"))
    for n1, offsets, n2 in ql_sizes:
        for matrix in "ql":
            for _ in range(1 if smoke else 3):
                g1 = inputs.circulant(rng, n1, offsets, sign_per_offset=False)
                g2 = inputs.random_graph(rng, n2)
                jobs.append(spectrum_job(files, g1, g2, matrix, "theorem"))
    if not smoke:
        jobs.append(spectrum_job(files, ROADMAP_G1, ROADMAP_G2, "a",
                                 "theorem"))
    return jobs


# (base nodes, base offsets, copy factor family, copy factor nodes).
# Mostly stars: the Jacobi cross-check on these products varies 3-7 %
# between random instances, against 15-30 % with circulant copy
# factors on 7-9 nodes (README.md).
CLOSED_FORM_PAIRS = [(24, 4, "star", 5), (22, 4, "circulant", 5),
                     (18, 5, "star", 7), (16, 4, "star", 8),
                     (24, 4, "circulant", 5), (18, 4, "star", 7),
                     (24, 5, "star", 5), (16, 5, "star", 8)]
# Products of 600-800 nodes for the commands that skip the spectra.
# Their layers scale about linearly with the product, so at this size
# the layers, not the per-call overhead, set the job times (5-60 ms).
PRODUCT_PAIRS = [(60, 5, "star", 11), (50, 6, "circulant", 11),
                 (80, 5, "star", 9), (64, 5, "star", 10),
                 (72, 6, "circulant", 9), (66, 5, "star", 11),
                 (75, 5, "star", 9), (56, 6, "circulant", 11),
                 (60, 5, "star", 12), (70, 6, "star", 10),
                 (80, 5, "circulant", 9), (72, 5, "star", 10)]
FAMILY_SMOKE = [(6, 1, "circulant", 4), (5, 2, "star", 3)]


def family_pair(rng, n1, offsets, family, n2):
    """A regular-circulant base with a circulant or star copy factor."""
    g1 = inputs.circulant(rng, n1, offsets, sign_per_offset=False)
    g2 = inputs.circulant(rng, n2, 1, sign_per_offset=True) \
        if family == "circulant" else inputs.star(rng, n2 - 1)
    return g1, g2


def closed_form_large(rng, files: Inputs, smoke: bool):
    """Closed-form a/q/l spectra of each family pair."""
    jobs = []
    for pair in FAMILY_SMOKE if smoke else CLOSED_FORM_PAIRS:
        g1, g2 = family_pair(rng, *pair)
        f1, f2 = files.write(g1), files.write(g2)
        cor = inputs.corona_adjacency(g1, g2)
        for matrix in "aql":
            jobs.append(Job(["spectrum", "--matrix", matrix, "--method",
                             "proposition", f1, f2], nodes=len(cor),
                            expect={"spectrum": inputs.spectrum(cor, matrix)}))
    return jobs


def corona_products(rng, files: Inputs, smoke: bool):
    """Per family pair: corona -o, stats --triads and balance."""
    jobs = []
    for pair in FAMILY_SMOKE if smoke else PRODUCT_PAIRS:
        g1, g2 = family_pair(rng, *pair)
        f1, f2 = files.write(g1), files.write(g2)
        cor = inputs.corona_adjacency(g1, g2)
        n = len(cor)
        jobs.append(Job(["corona", f1, f2, "-o", files.output()], nodes=n,
                        expect={"corona": inputs.digest(
                            inputs.edges_of(cor))}))
        upper = np.triu(cor)
        jobs.append(Job(["stats", "--triads", f1, f2], nodes=n,
                        expect={"edges": (int((upper > 0).sum()),
                                          int((upper < 0).sum()))}))
        jobs.append(Job(["balance", f1, f2], nodes=n,
                        expect={"balanced": inputs.is_balanced(cor)}))
    return jobs


def verify_suite(rng, files: Inputs, smoke: bool):
    """Back-to-back default verify runs over derived seeds."""
    if smoke:
        return [Job(["verify", "--trials", "4", "--seed",
                     str(rng.randrange(2**31))])]
    return [Job(["verify", "--seed", str(rng.randrange(2**31))])
            for _ in range(5)]


WORKLOADS = {"exact_ladder": exact_ladder,
             "closed_form_large": closed_form_large,
             "corona_products": corona_products,
             "verify_suite": verify_suite}


# ---------------------------------------------------------------------------
# running and checking jobs

def run_job(cli, job: Job) -> Outcome:
    if "-o" in job.argv:
        # a fresh file each run: overwriting one just written can stall
        # on filesystems that flush on truncate
        (ROOT / job.argv[job.argv.index("-o") + 1]).unlink(missing_ok=True)
    out = io.StringIO()
    gc.collect()    # start every job from a clean heap, outside its timing
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback breaks the CLI contract
        code = f"raised {type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - t0, code, out.getvalue())


def _flagged(doc, path="$"):
    """Paths in doc where discrepancies are listed or agree/ok is false."""
    bad = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == "discrepancies" and v:
                bad.append(f"{path}.{k}")
            elif k in ("agree", "ok") and v is False:
                bad.append(f"{path}.{k}")
            else:
                bad += _flagged(v, f"{path}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            bad += _flagged(v, f"{path}[{i}]")
    return bad


def check(job: Job, outcome: Outcome):
    """None when the job kept the CLI contract and matched the oracle,
    else the reason it failed."""
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    try:
        doc = json.loads(outcome.stdout)
    except ValueError:
        return "stdout is not exactly one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    flagged = _flagged(doc)
    if flagged:
        return "flagged: " + ", ".join(flagged[:5])
    try:
        return _against_oracle(job, doc)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"output lacks an expected field or file: {exc!r}"


def _against_oracle(job: Job, doc: dict):
    want = job.expect
    if "spectrum" in want:
        got = np.array(sorted(v for row in doc["spectrum"]
                              for v in [row["value"]] * row["multiplicity"]))
        if got.shape != want["spectrum"].shape:
            return f"spectrum has {got.size} values, oracle {job.nodes}"
        err = float(np.max(np.abs(got - want["spectrum"])))
        if err > SPECTRUM_TOL:
            return f"spectrum off the eigvalsh oracle by {err:.3g}"
    if "corona" in want:
        path = ROOT / job.argv[job.argv.index("-o") + 1]
        text = path.read_text(encoding="utf-8")
        written = inputs.digest(inputs.parse_text(text))
        if text != doc["graph"] or written != want["corona"]:
            return "written corona differs from the oracle"
    if "edges" in want:
        direct = doc["edge_census"]["direct"]
        if (direct["positive"], direct["negative"]) != want["edges"]:
            return "edge census differs from the oracle"
    if "balanced" in want and doc["oracle"] != want["balanced"]:
        return "balance differs from the oracle"
    return None


def normalised(stdout: str):
    """Job output with wall-clock fields removed, for comparing runs."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k != "elapsed_s"}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    try:
        return strip(json.loads(stdout))
    except ValueError:
        return stdout


def run_checked(cli, job: Job) -> Outcome:
    outcome = run_job(cli, job)
    outcome.failure = check(job, outcome)     # outside the job's timing
    return outcome


def run_jobs(cli, jobs, seconds: float, repeat: bool = True):
    """Run the job list once, then re-run its short jobs (under
    seconds/100 the first time) in up to REPEATS more interleaved
    passes, so that a short burst of machine noise cannot decide a
    short job's time.  Repeat passes stop when the next one would end
    more than seconds/4 after max(seconds, first pass).  Returns one
    list of outcomes per job."""
    start = time.perf_counter()
    runs = [[run_checked(cli, job)] for job in jobs]
    deadline = max(seconds, time.perf_counter() - start) + seconds / 4
    short = [i for i, r in enumerate(runs) if r[0].seconds <= seconds / 100]
    last = 0.0
    for _ in range(REPEATS if repeat and short else 0):
        if time.perf_counter() - start + last > deadline:
            break
        t0 = time.perf_counter()
        for i in short:
            runs[i].append(run_checked(cli, jobs[i]))
        last = time.perf_counter() - t0
    return runs


def tail(times):
    """(value, percentile, jobs): the highest percentile with at least
    ten jobs beyond it.  With ten jobs or fewer none qualifies, and the
    slowest job is reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n


# ---------------------------------------------------------------------------
# set-up time

SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sgcorona.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(["spectrum", "--matrix", "a", "--method", "theorem",
                sys.argv[2], sys.argv[3]])
print(time.perf_counter() - t0 if code == 0 else -1.0)
"""


def setup_times(example):
    """Seconds a fresh interpreter takes to import sgcorona and run the
    worked example, measured inside the child."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                               *example], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        value = float(proc.stdout.strip() or -1.0)
        if proc.returncode != 0 or value < 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        samples.append(value)
    return samples


# ---------------------------------------------------------------------------

def environment():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "sgcorona").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "src_sgcorona_lines": lines}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_properties(jobs):
    nodes = [j.nodes for j in jobs if j.nodes]
    theorem = [j.nodes for j in jobs if "theorem" in j.argv]
    return {"jobs": len(jobs),
            "corona_nodes_range": [min(nodes), max(nodes)] if nodes else None,
            "charpoly_degree_range":
                [min(theorem), max(theorem)] if theorem else None}


def untraced(cli, jobs, seconds, example):
    setup = setup_times(example)
    runs = run_jobs(cli, jobs, seconds)
    times = [statistics.median(o.seconds for o in r) for r in runs]
    tail_s, pct, count = tail(times)
    metrics = {
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"runs_per_job": [len(r) for r in runs],
             "job_tail": {"percentile": pct, "jobs": count},
             "setup_samples_s": setup}
    return metrics, [o for r in runs for o in r], extra


def traced(cli, jobs, seconds):
    """One run of each job with layer spans, then two budgeted re-runs in
    job order.  The first re-runs each job untraced and traced, in
    alternating order so that neither side is always the warmer one:
    the tracing overhead, and a check that tracing leaves the output
    alone.  The second runs jobs under tracemalloc, for the Python heap
    peak of a job; tracemalloc slows numpy-heavy jobs about tenfold, so
    it takes only jobs that ran under seconds/200 with spans."""
    import tracer
    tr = tracer.Tracer()
    tr.install()
    try:
        outcomes = [r[0] for r in run_jobs(cli, jobs, seconds, repeat=False)]
    finally:
        tr.uninstall()
    twin = tracer.Tracer()      # its own counters, so tr's stay one pass
    spent, pairs = 0.0, []
    for i, (job, out) in enumerate(zip(jobs, outcomes)):
        if pairs and spent + 2 * out.seconds > seconds:
            break
        times = {}
        for on in (i % 2 == 0, i % 2 != 0):
            if on:
                twin.install()
            try:
                result = run_job(cli, job)
            finally:
                if on:
                    twin.uninstall()
            times[on] = result.seconds
            if not on and normalised(result.stdout) != normalised(out.stdout):
                out.failure = out.failure \
                    or "traced and untraced outputs differ"
        spent += times[True] + times[False]
        pairs.append((times[True], times[False]))
    spent, peak, mem_jobs = 0.0, 0, 0
    for job, out in zip(jobs, outcomes):
        if out.seconds > seconds / 200 or spent > seconds:
            continue
        tracemalloc.start()
        try:
            spent += run_job(cli, job).seconds
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        mem_jobs += 1
    metrics = tr.metrics()
    verify_s = {}
    for out in outcomes:
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            continue
        for chk in doc.get("checks", []) if isinstance(doc, dict) else []:
            verify_s[chk["name"]] = verify_s.get(chk["name"], 0.0) \
                + chk["elapsed_s"]
    for name in VERIFY_CHECKS:
        metrics[f"verify.{name}_s"] = (verify_s.get(name, 0.0), "s")
    metrics["mem.traced_peak_mb"] = (peak / 2**20, "MB")
    metrics["trace.overhead_frac"] = (
        sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0, "frac")
    extra = {"overhead_jobs": len(pairs), "mem_jobs": mem_jobs,
             "unwrapped": tr.missing}
    return metrics, outcomes, extra


VERIFY_CHECKS = ("worked_example", "theorem_identities", "block_identity",
                 "edge_census", "triad_census", "balance_criterion",
                 "coronal_forms", "cospectral_invariance", "eigensolver")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for testing the benchmark itself")
    args = ap.parse_args(argv)
    if not (SRC / "sgcorona" / "__init__.py").is_file():
        print(f"bench: no sgcorona sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgcorona.cli as cli

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        files = Inputs(workdir)
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = WORKLOADS[args.workload](rng, files, args.smoke)
        example = (files.write(C3), files.write(P2))
        warm = run_job(cli, Job(["spectrum", "--matrix", "a", "--method",
                                 "theorem", *example]))
        if warm.code != 0:
            raise RuntimeError(f"warm-up job failed: {warm.code}")
        warm_rss_mb = peak_rss_mb()
        if args.trace:
            metrics, outcomes, extra = traced(cli, jobs, args.seconds)
        else:
            metrics, outcomes, extra = untraced(cli, jobs, args.seconds,
                                                example)
        reasons = [o.failure for o in outcomes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed = sum(r is not None for r in reasons)
    attempted = len(reasons)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "failures": sorted({r for r in reasons if r})[:10],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "peak_rss_after_warmup_mb": warm_rss_mb,
        **extra,
        "inputs": input_properties(jobs),
        "environment": environment(),
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
