"""Compare two source checkouts with this copy of the benchmark.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload exact_ladder

Both checkouts are measured by the same benchmark code (this
directory's run.py, run with each checkout as its working directory),
in alternating pairs: pair i uses seed base+i on both sides, and which
side runs first alternates.  Every run is as long as ``run_seconds`` in
BENCHMARK.json.  For every metric it prints each side's median and
quartiles and how many pairs the change won, in the direction the
metric's ``better`` gives (ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def measure(checkout: str, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed}: {result['failed']} of "
              f"{result['attempted']} jobs failed", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair; pair i uses seed+i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need at least two pairs for quartiles")
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(measure(getattr(args, side), args.workload,
                                      args.seed + i, args.trace))
    print(f"{args.workload}: {args.pairs} alternating pairs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':28s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'change wins':>12s}")
    better = {m["name"]: m["better"]
              for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for name in runs["parent"][0]:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        qp, qc = (statistics.quantiles(v, n=4) for v in (p, c))
        print(f"{name:28s} {'/'.join(f'{x:.4g}' for x in qp):>30s} "
              f"{'/'.join(f'{x:.4g}' for x in qc):>30s} "
              f"{wins:>6d}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
