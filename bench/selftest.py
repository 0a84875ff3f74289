"""Self-test of the benchmark at tiny sizes.

Usage, from the root of an oppwalk checkout:  python3 bench/selftest.py

Asserts that
* every metric named in BENCHMARK.json is emitted, with its unit, by the
  run mode that owns it, and no other;
* the exact counts and the analytic digest repeat across two runs at one
  seed, and the layer self times account for the traced wall time;
* at this commit the only failed checks are the documented known defects;
* the output checks catch planted mismatches (oracle, bounds, Monte-Carlo,
  a CSV that differs between passes, a perturbed analytic digest), and a
  known defect explains only the rows and the sign it names;
* outside an oppwalk checkout the benchmark exits nonzero without a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import run as bench
import workloads

EXACT_COUNTS = ("graphs.dense_mb", "spectral.eig_n3", "latency.linsys_solves",
                "walker.walks", "walker.hops", "wireless.placements", "cli.rows")
SEED = 3


def bench_run(workload: str, trace: int, cwd: str = ".") -> tuple[int, dict | None, dict]:
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = {}
    path = os.path.join(cwd, bench.WORK_DIR,
                        f"{workload}-seed{SEED}-trace{trace}.json")
    if result is not None:
        with open(path) as f:
            record = json.load(f)
    return proc.returncode, result, record


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, record = bench_run(workload, trace)
            assert code == 0 and result is not None, (workload, trace, code)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            unexpected = {k for k, (_, bad, known) in record["checks"].items()
                          if bad > known}
            assert not unexpected, (workload, unexpected)
            if trace:
                metrics = result["metrics"]
                assert 0.95 < metrics["trace.accounted_frac"]["value"] < 1.0001
                _, again, record2 = bench_run(workload, 1)
                for name in EXACT_COUNTS:
                    assert again["metrics"][name] == metrics[name], (workload, name)
                assert record2["analytic_digest"] == record["analytic_digest"]
        print(f"ok: {workload} emits every metric with its unit")
    _, result, record = bench_run("walk-mc", 1)
    assert result["metrics"]["check_fail_frac"]["value"] > 0
    print("ok: the known cycle-sweep unit defect shows in check_fail_frac")


def check_planted() -> None:
    row = ["cycle", "n=8;r=1", "2.5", "1", "4", "2.5", "2.6", "0.2", "100"]
    assert all(ok for _, ok, _ in checks.row_checks(row))
    for column, value, kind in ((5, "2.5000001", "oracle"), (4, "2.4", "bounds"),
                                (6, "3.5", "mc_z")):
        bad = list(row)
        bad[column] = value
        results = {k: ok for k, ok, _ in checks.row_checks(bad)}
        assert results[kind] is False, (kind, results)

    header = ",".join(checks.header())
    text = f"{header}\n{','.join(row)}\n"
    perturbed = text.replace("2.5,1,4", "2.50000000001,1,4")
    rows, rows_p = checks.parse(text), checks.parse(perturbed)
    assert checks.analytic_digest(rows) != checks.analytic_digest(rows_p)

    run = bench.Run("lattice-oracle", SEED, tiny=True)
    out_dir = os.path.join(bench.WORK_DIR, "selftest-planted")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        for body in (text, perturbed):
            with open(os.path.join(out_dir, "fig4.csv"), "w") as f:
                f.write(body)
            run._check_step({"label": "fig4", "rc": 0}, out_dir)
        run._check_step({"label": "fig7", "rc": 1}, out_dir)
    finally:
        shutil.rmtree(out_dir)
    assert run.tally.failed["fig4", "digest"] == 1
    assert run.tally.failed["fig7", "exit"] == 1 and run.ops_failed == 1
    print("ok: planted oracle, bounds, MC, digest and exit mismatches are caught")

    label, kind = "cycle-sweep-mc", "mc_z"
    tally = checks.Tally(known={(label, kind): workloads.KNOWN_DEFECTS[
        "walk-mc", label, kind]})
    rows = ["cycle,n=16;r=1,2.8,0.8,13.1,2.8,43.8,2.1,2000",  # the defect
            "cycle,n=16;r=1,2.8,0.8,13.1,2.8,1.0,0.1,2000",   # wrong sign
            "cycle,n=20;r=1,3.5,0.8,20.0,3.5,60.0,2.1,2000"]  # other row
    tally.check_csv(label, "\n".join([header, *rows]) + "\n")
    assert tally.failed[label, kind] == 3 and tally.known_failed[label, kind] == 1
    assert tally.known_rows[label, kind] == 2
    assert tally.unexpected() == {(label, kind): 2}
    print("ok: a known defect explains only its own rows and sign")


def check_outside_checkout() -> None:
    bare = os.path.join(bench.WORK_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench_run("walk-mc", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and result is None, code
    print("ok: outside a checkout the benchmark exits nonzero without a result")


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_planted()
    check_outside_checkout()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
