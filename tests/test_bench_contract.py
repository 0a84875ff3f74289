"""The benchmark's contract with the program.

bench/tracer.py times each layer by replacing oppwalk functions with
wrappers at their module attributes, after oppwalk.cli is imported.  A CLI
that called a layer through a reference taken at import time would hide
that layer from the tracer.  Each workload runs one tiny traced pass in a
subprocess, so the tracer's patches never reach the other tests.
"""
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oppwalk

ROOT = Path(__file__).resolve().parents[1]

# Counts that must be nonzero in each workload's traced pass.
LAYERS = {
    "lattice-oracle": ("spectral.closed_form_values", "graphs.build_calls"),
    "wireless-ensemble": ("wireless.placements", "wireless.build_calls"),
    "walk-mc": ("walker.batches",),
}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_tiny_traced_pass(tmp_path, workload):
    subprocess.run(
        [sys.executable, "bench/onepass.py", "--workload", workload,
         "--seed", "7", "--out-dir", str(tmp_path),
         "--t0", str(time.monotonic()), "--tiny", "--trace"],
        cwd=ROOT, check=True, timeout=300)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["steps"]
    assert all(step["rc"] == 0 for step in result["steps"]), result["steps"]
    for metric in LAYERS[workload]:
        assert result["layers"][metric] > 0, metric


def test_traced_names_exist():
    # every point the tracer patches must be a name its owner defines; a
    # removed or renamed function fails here by name, not as a KeyError
    # inside the traced subprocess
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer._points(oppwalk)
               if attr not in owner.__dict__]
    assert missing == []
