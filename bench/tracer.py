"""Layer tracing from outside the program.

The tracer replaces public oppwalk functions with timing wrappers at the
place where their callers look them up: a module attribute for module-level
functions (``latency`` imported ``symmetric_eigendecomposition`` by name, so
``latency.symmetric_eigendecomposition`` is wrapped as well as
``spectral.symmetric_eigendecomposition``), and the class attribute for
``Graph`` methods.  ``src/`` is not modified.

Each call becomes a span ``[name, metric, command, parent, start, end]``
kept in memory.  A span's self time is its duration minus the durations of
its child spans; summing self times per metric partitions the time of every
CLI command, so the layer self times plus ``cli.self_s`` add up to the
traced wall time.  Counts are recorded at the same boundaries.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Metrics whose self time is reported as "<metric>_s".
TIME_METRICS = (
    "graphs.build", "graphs.connect", "spectral.eig", "spectral.closed_form",
    "latency.closed_form", "latency.pinv", "latency.hitting",
    "latency.linsys", "wireless.place", "wireless.build", "walker.mc",
)

# Self times that partition the time of every traced CLI command.
SELF_TIMES = tuple(f"{m}_s" for m in TIME_METRICS) + ("cli.self_s",)

# Counts that must repeat exactly across runs at a fixed seed.
COUNT_METRICS = (
    "graphs.build_calls", "graphs.nodes", "graphs.edges", "graphs.dense_mb",
    "graphs.connect_calls", "spectral.eig_calls", "spectral.eig_n3",
    "spectral.closed_form_values", "latency.pinv_calls",
    "latency.linsys_solves", "wireless.placements", "wireless.build_calls",
    "wireless.accept_ratio", "walker.batches", "walker.walks", "walker.hops",
    "walker.truncated",
)


def _count_graph(tr, args, result):
    g = args[0]
    tr.counts["graphs.build_calls"] += 1
    tr.counts["graphs.nodes"] += g.n
    tr.counts["graphs.edges"] += int(np.count_nonzero(g.weights)) // 2
    tr.counts["graphs.dense_mb"] += 8 * g.n * g.n / 1e6


def _count_connect(tr, args, result):
    tr.counts["graphs.connect_calls"] += 1


def _count_eig(tr, args, result):
    n = np.shape(args[0])[0]
    tr.counts["spectral.eig_calls"] += 1
    tr.counts["spectral.eig_n3"] += n ** 3


def _count_closed_form(tr, args, result):
    if tr.outermost:
        tr.counts["spectral.closed_form_values"] += np.size(result)


def _count_pinv(tr, args, result):
    tr.counts["latency.pinv_calls"] += 1


def _count_linsys(tr, args, result):
    tr.counts["latency.linsys_solves"] += args[0].n  # one solve per target


def _count_placement(tr, args, result):
    tr.counts["wireless.placements"] += 1
    tr.placements[id(result)] = [result, True]


def _count_wireless_build(tr, args, result):
    tr.counts["wireless.build_calls"] += 1
    # A placement is accepted when every graph built on it is connected.
    entry = tr.placements.get(id(result.placement))
    if entry is not None and not result.connected:
        entry[1] = False


def _count_walks(tr, args, result):
    tr.counts["walker.batches"] += 1
    tr.counts["walker.walks"] += result.trials_used
    tr.counts["walker.hops"] += round(result.mean * result.trials_used)
    tr.counts["walker.truncated"] += result.truncated


def _points(oppwalk):
    """(owner, attribute, metric, counter) for every traced call site."""
    g, s, lat = oppwalk.graphs, oppwalk.spectral, oppwalk.latency
    w, k = oppwalk.walker, oppwalk.wireless
    return [
        (g, "build_cycle", "graphs.build", None),
        (g, "build_torus", "graphs.build", None),
        (g, "cartesian_product", "graphs.build", None),
        (g.Graph, "__post_init__", "graphs.build", _count_graph),
        (g.Graph, "is_connected", "graphs.connect", _count_connect),
        (s, "symmetric_eigendecomposition", "spectral.eig", _count_eig),
        (lat, "symmetric_eigendecomposition", "spectral.eig", _count_eig),
        (s, "cycle_laplacian_eigenvalues", "spectral.closed_form", _count_closed_form),
        (lat, "cycle_laplacian_eigenvalues", "spectral.closed_form", _count_closed_form),
        (s, "torus_laplacian_eigenvalues", "spectral.closed_form", _count_closed_form),
        (lat, "torus_laplacian_eigenvalues", "spectral.closed_form", _count_closed_form),
        (lat, "mean_latency_cycle", "latency.closed_form", None),
        (lat, "mean_latency_torus", "latency.closed_form", None),
        (lat, "cycle_latency_bounds", "latency.closed_form", None),
        (lat, "torus_latency_bounds", "latency.closed_form", None),
        (lat, "mean_latency_pinv", "latency.pinv", _count_pinv),
        (lat, "expected_packet_delay", "latency.hitting", None),
        (lat, "hitting_times", "latency.hitting", None),
        (lat, "hitting_times_linear_system", "latency.linsys", _count_linsys),
        (k, "place_nodes", "wireless.place", _count_placement),
        (k, "build_wireless_graph", "wireless.build", _count_wireless_build),
        (w, "estimate_mean_latency", "walker.mc", _count_walks),
    ]


class Tracer:
    """Spans and counts of one traced pass; install() patches oppwalk."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.placements: dict[int, list] = {}
        self.outermost = False
        self._stack: list[int] = []
        self._command = -1

    def install(self, oppwalk) -> None:
        for owner, attr, metric, counter in _points(oppwalk):
            name = f"{getattr(owner, '__name__', owner)}.{attr}".replace("oppwalk.", "")
            setattr(owner, attr, self._wrap(owner.__dict__[attr], name, metric, counter))

    def _open(self, name: str, metric: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, self._command, parent,
                           time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, metric, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                parent = self.spans[idx][3]
                self.outermost = parent < 0 or self.spans[parent][1] != metric
                counter(self, args, result)
            return result
        return traced

    @contextmanager
    def command(self, label: str):
        """Root span of one CLI command; its spans share the command id."""
        self._command += 1
        idx = self._open(label, "cli")
        try:
            yield
        finally:
            self._close(idx)

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, per-command times and counts."""
        dur = [end - start for *_, start, end in self.spans]
        self_time = list(dur)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                self_time[span[3]] -= dur[i]
        out = {f"{m}_s": 0.0 for m in TIME_METRICS}
        out["cli.self_s"] = 0.0
        for i, (name, metric, *_rest) in enumerate(self.spans):
            if metric == "cli":
                out["cli.self_s"] += self_time[i]
                out[f"cli.{name}_s"] = dur[i]
            else:
                out[f"{metric}_s"] += self_time[i]
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        placed = self.counts.get("wireless.placements", 0)
        accepted = sum(ok for _, ok in self.placements.values())
        out["wireless.accept_ratio"] = accepted / placed if placed else 0.0
        mc_s = out["walker.mc_s"]
        out["walker.hops_per_s"] = out["walker.hops"] / mc_s if mc_s > 0 else 0.0
        return out
