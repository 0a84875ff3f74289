"""The benchmark's contract with the program.

bench/tracer.py times each layer by replacing oppwalk functions with
wrappers at their module attributes, after oppwalk.cli is imported.  A CLI
that called a layer through a reference taken at import time would hide
that layer from the tracer.  Each workload runs one tiny traced pass per
seed in a subprocess, so the tracer's patches never reach the other tests.
"""
import csv
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oppwalk
from oppwalk import cli, graphs, walker
from oppwalk.graphs import TorusSpec, build_cycle, build_torus
from test_graphs import assert_valid_lattice

ROOT = Path(__file__).resolve().parents[1]

# Counts that must be nonzero in each workload's traced pass.
LAYERS = {
    "lattice-oracle": ("spectral.closed_form_values", "graphs.build_calls"),
    "wireless-ensemble": ("wireless.placements", "wireless.build_calls"),
    "walk-mc": ("walker.batches",),
}


def bench_module(name):
    """bench/<name>.py, loaded as module bench_<name> without putting
    bench/ on sys.path (a dataclass needs its module in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """The output directory of one tiny traced pass of a workload at a
    seed, run once per module."""
    done = {}

    def run(workload, seed=7):
        if (workload, seed) not in done:
            out = tmp_path_factory.mktemp(workload)
            subprocess.run(
                [sys.executable, "bench/onepass.py", "--workload", workload,
                 "--seed", str(seed), "--out-dir", str(out),
                 "--t0", str(time.monotonic()), "--tiny", "--trace"],
                cwd=ROOT, check=True, timeout=300)
            done[workload, seed] = out
        return done[workload, seed]
    return run


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_tiny_traced_pass(traced_pass, workload):
    result = json.loads((traced_pass(workload) / "result.json").read_text())
    assert result["steps"]
    assert all(step["rc"] == 0 for step in result["steps"]), result["steps"]
    for metric in LAYERS[workload]:
        assert result["layers"][metric] > 0, metric


def test_each_built_lattice_counted_once(traced_pass):
    # the tracer counts graph builds in Graph.__post_init__, so every
    # construction, Graph._from_csr included, must run it exactly once; a
    # lattice is built for each row with an oracle cell
    out = traced_pass("lattice-oracle")
    result = json.loads((out / "result.json").read_text())
    built = 0
    for step in result["steps"]:
        with open(out / f"{step['label']}.csv", newline="") as f:
            built += sum(row["oracle"] not in ("", "skipped")
                         for row in csv.DictReader(f))
    assert built > 0
    assert result["layers"]["graphs.build_calls"] == built


def test_wireless_builds_follow_the_sparsest_first_schedule(traced_pass):
    # every EPD goes through the traced eigensolver, one per row and seed;
    # an accepted placement builds the graph of every sweep point, and a
    # rejected one only the graph of its smallest link radius.  The tiny
    # pass at seed 2 redraws 6 of its 12 placements.
    seed = 2
    out = traced_pass("wireless-ensemble", seed)
    result = json.loads((out / "result.json").read_text())
    layers = result["layers"]
    argvs = dict(bench_module("workloads").steps("wireless-ensemble", seed,
                                                 tiny=True))
    accepted = graphs = 0
    for step in result["steps"]:
        assert step["rc"] == 0, step  # every ensemble seed was accepted
        argv = argvs[step["label"]]
        seeds = int(argv[argv.index("--seeds") + 1])
        with open(out / f"{step['label']}.csv", newline="") as f:
            rows = sum(1 for _ in csv.DictReader(f))
        accepted += seeds
        graphs += rows * seeds
    placed = layers["wireless.placements"]
    assert placed > accepted > 0
    assert layers["spectral.eig_calls"] == graphs
    assert layers["wireless.build_calls"] == graphs + (placed - accepted)
    assert layers["wireless.accept_ratio"] == pytest.approx(accepted / placed)


# sha256 of the family,params,analytic,lower,upper,oracle columns of each
# tiny step's CSV at seed 7, one "a,b,...\n" line per row.  These columns
# must not move by a byte; the Monte-Carlo columns may change on purpose
# and are left out.
FROZEN_COLUMNS = ("family", "params", "analytic", "lower", "upper", "oracle")
GOLDEN = {
    "fig4": "c68ce5d74289403ec53740fa565f8c910b84a6851f02751cd96b574a003b0ce3",
    "fig6": "7eb8cd95b9b4e2528448edc841cc4cdc3dfd06fefd944bfff5661315c1a2cd0f",
    "fig7": "a39ded40e6ffcecc358d1d9c62ed63718e477da6e4269be75f8cd4c32a795056",
    "bounds-check": "55f4dda1a5109e8df59f75b4d821e60f08e4132cb82464b70eb5807b0857878e",
    "fig10": "8ba0e26734675587fc9463070b61ffda3ccae631dc7fedda67f9d1e091a223d0",
    "fig11": "eace12ac82010e89673582c5c06702e852de62c524769b7dcfe5898b6d0b87af",
    "fig12": "cbffc31e9113a9274b78f133e2861823deceecc8e7562a3134b7013165b5f733",
    "walk-validate": "a5af24f2158357f8c3fecad42e2c988fc820b3642733b17423285c94a290d808",
    "eta-mc": "83ceb1f53982f1c51656497eaca86d173d9e28df77ccbf03484784d2509361e5",
    "cycle-sweep-mc": "0502b8eee93d1016fa2fcc235a2603fc6532ae2fe6c3d34a3aeb3724e7a42de4",
}
# The same digests of the full lattice-oracle steps at seed 7, whose fig6
# torus of 10**6 nodes sums its spectrum over many leaves.
GOLDEN_FULL = {
    "fig4": "6941ad32aa7d25c598848087c92ae0fcf873f2dde08b07aa8f933a348b179c13",
    "fig5": "7b89532c8b1d62e5cef67ddc998ba7598f9f24793c488913045ceb6579216c0e",
    "fig6": "2ad4b0c4ddc314e02d3d4506c8cdb7c27fb09e1e57cf5319e9e6c14d945a0cea",
    "fig7": "457e444f36ca6889bf0c76fd21ddafb993d0106c054c25d8df258390680d24c6",
    "fig8": "6f8bb3b950b2a9e2f9b4aa58e89b0b0c93ac5ceba4b4b9e753f9340a53a4df54",
    "bounds-check": "666f24b766a610305f9d0f7acbb7d139879fe9dcc579b150fa9c38229a1e46b0",
}


def frozen_digest(path) -> str:
    """sha256 of the FROZEN_COLUMNS of the CSV at path."""
    with open(path, newline="") as f:
        text = "".join(",".join(row[c] for c in FROZEN_COLUMNS) + "\n"
                       for row in csv.DictReader(f))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_frozen_columns_match_golden_digests(tmp_path, workload):
    steps = bench_module("workloads").steps(workload, 7, tiny=True)
    assert steps
    for label, argv in steps:
        out = tmp_path / f"{label}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert frozen_digest(out) == GOLDEN[label], label


def test_every_lattice_oracle_graph_is_valid(monkeypatch, tmp_path):
    # build_torus's rows are trusted unchecked and stored as connected;
    # every lattice the full lattice-oracle pass builds (one per row with
    # an oracle cell) passes the row checks and scipy's component count.
    # The same pass checks each step's frozen columns against GOLDEN_FULL.
    built = []

    def checked(spec):
        g = build_torus(spec)
        assert_valid_lattice(g)
        built.append(spec)
        return g

    monkeypatch.setattr(graphs, "build_torus", checked)
    oracle_rows = 0
    for label, argv in bench_module("workloads").steps("lattice-oracle", 7):
        out = tmp_path / f"{label}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert frozen_digest(out) == GOLDEN_FULL[label], label
        with open(out, newline="") as f:
            oracle_rows += sum(row["oracle"] not in ("", "skipped")
                               for row in csv.DictReader(f))
    assert len(built) == oracle_rows == 46


def test_traced_names_exist():
    # every point the tracer patches must be a name its owner defines; a
    # removed or renamed function fails here by name, not as a KeyError
    # inside the traced subprocess
    tracer = bench_module("tracer")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer._points(oppwalk)
               if attr not in owner.__dict__]
    assert missing == []


def test_walk_batch_totals_are_what_the_tracer_counts(monkeypatch):
    # bench/tracer.py::_count_walks counts a batch's walks, hops and cut
    # walks as trials_used, round(mean * trials_used) and truncated; over a
    # batch of several graphs these must be the totals of its estimates
    # and of the kernel's walks
    kernel = walker._run_walks
    walked = []

    def spy(*args, **kwargs):
        steps, cut = kernel(*args, **kwargs)
        walked.append((int(steps.sum()), steps.size, int(cut.sum())))
        return steps, cut

    monkeypatch.setattr(walker, "_run_walks", spy)
    monkeypatch.setattr(walker, "_step_cap", lambda n: 6 * n)
    gs = [build_cycle(16, 1), build_torus(TorusSpec([4, 5], 1)),
          build_cycle(7, 2)]
    b = walker.estimate_mean_latency(gs, 1500, 2)
    ests = b.estimates
    assert len(walked) == 1
    hops, walks, cut = walked[0]
    assert round(b.mean * b.trials_used) == hops == sum(
        round(e.mean * e.trials_used) for e in ests)
    assert b.trials_used == walks == sum(e.trials_used for e in ests)
    assert b.truncated == cut == sum(e.truncated for e in ests) > 0
