import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_script_runs_every_route():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "scripts/demo_c3_p2.py"],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # one section per matrix, one line per route in each
    sections = {}
    label = None
    for line in proc.stdout.splitlines():
        if line.endswith(" spectrum:"):
            label = line[:-len(" spectrum:")]
            sections[label] = []
        elif label and line.startswith("  "):
            sections[label].append(line.split()[0])
    assert sections == {
        label: ["numeric", "theorem", "proposition"]
        for label in ("adjacency", "signless Laplacian", "Laplacian")}
