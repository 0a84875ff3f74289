"""oppwalk benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of an oppwalk checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's CLI commands (see workloads.py) in a fresh
Python process, so every pass pays the interpreter and import cost a CLI
user pays.  Passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics over untraced passes:
``wall_s`` (median pass time, set-up excluded), ``setup_s`` (median time
from process start until oppwalk is imported and the argv lists are built)
and ``peak_rss_mb`` (median peak resident memory of a pass process).  The
report line of ``wall_s`` also gives the highest percentile with ten
samples beyond it and the sample count.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, medians over the traced passes, plus
``trace.overhead_frac`` (traced wall / untraced wall - 1) and
``trace.accounted_frac`` (layer self times plus cli.self_s over the traced
wall).  Metric units are those BENCHMARK.json declares.

Every pass's CSVs are checked outside the timed region (checks.py);
``check_fail_frac`` is failed checks over checks attempted.  Checks listed
in ``workloads.KNOWN_DEFECTS`` fail at this commit because of a documented
program defect: the failures they explain count in ``check_fail_frac`` but
do not make the run incorrect.  ``attempted``/``failed`` in the result
line count CLI command invocations and those that exited nonzero or did
not finish.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name every metric with its unit, the
environment and the digest of the analytic CSV columns.  A JSON record of
the run is written to ``.bench_work/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
HARD_LIMIT_S = 170.0  # every run must end well within 180 s
MIN_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def pass_env() -> dict:
    """Environment of a pass: the checkout's src on the path and one BLAS
    thread.  With two BLAS threads on a 2-core machine, a pass that took 4 s
    with one thread took 31 s while one other process ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    if not os.path.exists(".git"):  # git would look in parent directories
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_pass(workload, seed, trace, tiny, out_dir, env, timeout):
    """One pass in a fresh process; returns its result dict, or None if it
    crashed or timed out."""
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"),
           "--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    with open(os.path.join(out_dir, "stderr.txt"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    path = os.path.join(out_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        with open(os.path.join(out_dir, "stderr.txt")) as err:
            sys.stderr.write(f"pass failed (exit {proc.returncode}):\n{err.read()}")
        return None
    with open(path) as f:
        return json.load(f)


def tail(values: list[float]) -> tuple[str, float | None]:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "n/a", None
    return f"p{100 * (n - 10) / n:.0f}", sorted(values)[n - 11]


class Run:
    """Passes of one benchmark run and the checks on their outputs."""

    def __init__(self, workload, seed, tiny):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        known = {(label, kind): defect for (w, label, kind), defect
                 in workloads.KNOWN_DEFECTS.items() if w == workload}
        self.tally = checks.Tally(known=known)
        self.labels = [label for label, _ in workloads.steps(workload, seed, tiny)]
        self.passes = {0: [], 1: []}
        self.ops = self.ops_failed = 0
        self.csv_digest = {}       # label -> sha256 of the first pass's CSV
        self.analytic = {}         # label -> sha256 of its analytic columns
        self.rows = {}             # label -> data rows written
        self.last_spans = None

    def record(self, result, out_dir, trace) -> None:
        self.ops += len(self.labels)
        if result is None:
            self.ops_failed += len(self.labels)
            for label in self.labels:
                self.tally.add(label, "exit", False, "pass process failed",
                               self.rows.get(label, 1))
            return
        self.passes[trace].append(result)
        if trace:
            self.last_spans = result.pop("spans")
        for step in result["steps"]:
            self._check_step(step, out_dir)

    def _check_step(self, step, out_dir) -> None:
        label = step["label"]
        path = os.path.join(out_dir, f"{label}.csv")
        if step["rc"] != 0 or not os.path.exists(path):
            self.ops_failed += 1
            self.tally.add(label, "exit", False, f"exit code {step['rc']}",
                           self.rows.get(label, 1))
            return
        with open(path, newline="") as f:
            text = f.read()
        rows = self.tally.check_csv(label, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if label in self.csv_digest:
            self.tally.add(label, "digest", digest == self.csv_digest[label],
                           "CSV differs from the first pass of this run")
        else:
            self.csv_digest[label] = digest
            self.analytic[label] = checks.analytic_digest(rows)
            self.rows[label] = len(rows)

    def check_oracle_subset(self) -> None:
        """Wireless ensembles: the linear-system oracle on a fixed subset of
        the graphs, the first ensemble member at every sweep point
        (``--seeds 1 --oracle`` rebuilds exactly that member)."""
        if self.workload != "wireless-ensemble":
            return
        from oppwalk import cli
        for label, argv in workloads.steps(self.workload, self.seed, self.tiny):
            argv = [*argv, "--seeds", "1", "--oracle"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                self.tally.add(f"{label}-oracle", "exit", False, f"exit code {rc}")
                continue
            self.tally.check_csv(f"{label}-oracle", buf.getvalue())

    def check_counts(self) -> None:
        """Counts of every traced pass repeat those of the first."""
        traced = [p["layers"] for p in self.passes[1]]
        for layers in traced[1:]:
            same = all(layers[k] == traced[0][k] for k in tracer.COUNT_METRICS)
            self.tally.add("trace", "counts", same, "counts differ between traced passes")

    def workload_digest(self) -> str:
        text = "\n".join(f"{label} {self.analytic[label]}"
                         for label in sorted(self.analytic))
        return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(run: Run) -> dict:
    passes = run.passes[0]
    walls = [p["wall_s"] for p in passes]
    label, value = tail(walls)
    n = f"median of {len(passes)} passes"
    return {
        "wall_s": (statistics.median(walls), f"{n}; {label} {value!r}"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), n),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), n),
    }


def per_layer(run: Run) -> dict:
    traced = [p["layers"] for p in run.passes[1]]
    out = {}
    for key in sorted(traced[0]):
        if key in tracer.COUNT_METRICS:
            value, note = traced[0][key], "count of the first traced pass"
        else:
            value = statistics.median(t[key] for t in traced)
            note = f"median of {len(traced)} traced passes"
        out[key] = (value, note)
    for label in workloads.all_labels():
        out.setdefault(f"cli.{label}_s", (0.0, "not in this workload"))
    out["cli.rows"] = (sum(run.rows.values()), "CSV data rows per pass")
    plain = statistics.median(p["wall_s"] for p in run.passes[0])
    traced_wall = statistics.median(p["wall_s"] for p in run.passes[1])
    out["trace.overhead_frac"] = (
        traced_wall / plain - 1,
        f"traced {traced_wall:.4f} s / untraced {plain:.4f} s - 1")
    accounted = statistics.median(
        sum(t[k] for k in tracer.SELF_TIMES) / p["wall_s"]
        for t, p in zip(traced, run.passes[1]))
    out["trace.accounted_frac"] = (
        accounted, "(layer self times + cli.self_s) / traced wall")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "oppwalk", "cli.py")):
        print("error: src/oppwalk not found; run from the root of an oppwalk "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    compileall.compile_dir(os.path.join("src", "oppwalk"), quiet=1)
    units = load_units()
    env = pass_env()

    run = Run(args.workload, args.seed, args.tiny)
    base = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)
    # Untraced passes only, or untraced and traced passes alternating.
    min_passes = 4 if args.trace else MIN_PASSES
    stop_at = min(args.seconds, HARD_LIMIT_S / 2)
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= min_passes and elapsed >= stop_at:
            break
        trace = int(args.trace and i % 2 == 1)
        out_dir = os.path.join(base, f"pass{i}")
        result = run_pass(args.workload, args.seed, trace, args.tiny, out_dir,
                          env, HARD_LIMIT_S - elapsed)
        run.record(result, out_dir, trace)
        shutil.rmtree(out_dir)
        i += 1
    measured_s = time.monotonic() - start
    run.check_oracle_subset()
    if args.trace:
        run.check_counts()

    metrics = {}
    if run.passes[0] and (run.passes[1] or not args.trace):
        metrics = per_layer(run) if args.trace else end_to_end(run)
    attempted, failed = run.tally.total()
    fail_frac = failed / attempted if attempted else 1.0
    checked = (fail_frac, f"{failed} of {attempted} checks failed")
    if args.trace:
        metrics["check_fail_frac"] = checked
    # The report names every metric: in a traced run the end-to-end ones come
    # from its untraced passes.
    report = {"check_fail_frac": checked, **metrics}
    if args.trace and run.passes[0]:
        report.update(end_to_end(run))
    correct = bool(metrics) and not run.tally.unexpected() and run.ops_failed == 0

    done = run.passes[0] + run.passes[1]
    info = {"nproc": _nproc(), "python": platform.python_version(),
            **(done[0]["env"] if done else {}), "commit": git_commit()}
    digest = run.workload_digest()
    result = {k: {"value": v, "unit": units[k]} for k, (v, _) in sorted(metrics.items())}
    with open(base + ".json", "w") as f:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "tiny": args.tiny, "env": info, "analytic_digest": digest,
            "step_digests": run.analytic, "passes": run.passes,
            "checks": {f"{label}/{kind}": [n, run.tally.failed[label, kind],
                                           run.tally.known_failed[label, kind]]
                       for (label, kind), n in run.tally.attempted.items()},
            "metrics": result, "spans": run.last_spans,
        }, f)
    shutil.rmtree(base, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={i} measured_s={measured_s:.1f}")
    print("env: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, note) in sorted(report.items()):
        print(f"  {name:<28} {value!r:>24} {units[name]:<6} {note}")
    tally = run.tally
    for (label, kind), count in sorted(tally.failed.items()):
        known = tally.known_failed[label, kind]
        tags = [f"{known} known defect: {tally.known[label, kind].why}"] if known else []
        tags += [f"{count - known} UNEXPECTED"] if count > known else []
        print(f"    failed {kind} x{count} in {label}: {'; '.join(tags)}; "
              f"e.g. {tally.examples[label, kind]}")
    for (label, kind), defect in tally.known.items():
        covered, explained = tally.known_rows[label, kind], tally.known_failed[label, kind]
        if explained < covered:
            print(f"    known defect no longer shows on {covered - explained} of "
                  f"{covered} rows in {label} ({kind}): {defect.why}")
    print(f"analytic digest {args.workload} seed={args.seed}: {digest}")
    print(json.dumps({"correct": correct, "attempted": run.ops,
                      "failed": run.ops_failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
