"""Monte-Carlo simulator of stateless opportunistic routing.

A packet at node u hops to one of u's neighbors uniformly at random until
it first reaches its destination: a simple random walk on a connected 0/1
graph.  Walk length counts hops, matching the hitting-time convention
h[s][s] = 0.

Every walk runs on one kernel over the graph's CSR rows (Graph.csr, built
once per graph and cached).  A walk at u with uniform draw x moves to the
neighbor in column floor(x * deg(u)) of row u, so each hop costs O(1)
whatever the degree.

Randomness comes from numpy's PCG64 seeded through SeedSequence, so results
are platform-independent for a fixed seed.  The draw schedule is fixed: each
step draws one uniform per still-active walk, in ascending walk order.

estimate_mean_latency spreads its walks over the P = n(n-1) ordered pairs
s != t by one rule: with trials >= P, walk i takes pair i mod P in row-major
order, so every pair gets floor(trials/P) or ceil(trials/P) walks; with
trials < P, the walks take distinct pairs drawn uniformly without
replacement from the off-pair substream (spawn key n*n), so a short run
starts at nodes spread over the whole graph, not only the first few.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, EstimationError, ParameterError
from .graphs import Graph

__all__ = [
    "WalkEstimate",
    "estimate_mean_latency",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class WalkEstimate:
    """Sample mean with 95% normal-approximation CI halfwidth.

    truncated counts walks that hit the step cap; those walks enter the
    mean at the cap value and are never silently dropped.
    """

    mean: float
    ci_halfwidth: float
    trials_used: int
    truncated: int


def _step_cap(n: int) -> int:
    """Steps after which a walk on n nodes is cut: far above the worst
    expected hitting time for the families in scope."""
    return 100 * n * n


def _run_walks(g: Graph, starts, targets, cap: int, rng):
    """Batch of independent walks; returns (steps, truncated).

    Each step draws one uniform per active walk, in ascending walk order,
    and moves every active walk one hop.  The active set (ids, cur, tgt)
    is compacted only on steps where some walk arrives.
    """
    indptr, indices = g.csr
    deg = np.diff(indptr).astype(float)
    starts = np.asarray(starts, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    steps = np.where(starts == targets, 0, cap)
    ids = np.flatnonzero(starts != targets)
    cur, tgt = starts[ids], targets[ids]
    step = 0
    while ids.size and step < cap:
        step += 1
        u = rng.random(ids.size)
        cur = indices[indptr[cur] + (u * deg[cur]).astype(np.intp)]
        hit = cur == tgt
        if np.count_nonzero(hit):  # much cheaper than hit.any() on short arrays
            steps[ids[hit]] = step
            miss = ~hit
            ids, cur, tgt = ids[miss], cur[miss], tgt[miss]
    return steps, int(ids.size)


def _estimate(steps: np.ndarray, truncated: int) -> WalkEstimate:
    if truncated == steps.size:
        raise EstimationError("every walk was truncated at the step cap")
    mean = float(steps.mean())
    if steps.size > 1:
        ci = _Z95 * float(steps.std(ddof=1)) / np.sqrt(steps.size)
    else:
        ci = 0.0
    return WalkEstimate(mean=mean, ci_halfwidth=ci,
                        trials_used=int(steps.size), truncated=truncated)


def _pair_rng(seed: int, pair_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pair_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _pair_schedule(n: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and target of each of trials walks.

    Ordered pairs with s != t are numbered k = 0..P-1 in row-major order,
    P = n(n-1).  With trials >= P, walk i takes k = i mod P; with trials < P,
    the walks take trials distinct k drawn uniformly from the off-pair
    substream of seed.  Pair k is s, j = divmod(k, n - 1), t = j + (j >= s),
    found without listing the pairs.
    """
    pairs = n * (n - 1)
    if trials >= pairs:
        k = np.arange(trials) % pairs
    else:
        k = _pair_rng(seed, n * n).choice(pairs, trials, replace=False)
    s, j = np.divmod(k, n - 1)
    return s, j + (j >= s)


def estimate_mean_latency(g: Graph, trials: int, seed: int) -> WalkEstimate:
    """Monte-Carlo mean latency in hops: trials walks spread over the
    ordered pairs (each pair in turn when trials >= n(n-1), else distinct
    pairs drawn uniformly), all simulated in one vectorized batch.
    Comparable to the analytic expected packet delay.  The graph must be
    connected, 0/1 and have n >= 2 nodes."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if g.n < 2:
        raise ParameterError("mean latency needs n >= 2")
    if not g.is_binary:
        raise ParameterError(
            "the walker moves uniformly over neighbors; it needs a 0/1 graph")
    if not g.is_connected():
        raise DisconnectedGraphError(
            "graph is disconnected; walks between components never arrive")
    starts, targets = _pair_schedule(g.n, trials, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    steps, truncated = _run_walks(g, starts, targets, _step_cap(g.n), rng)
    return _estimate(steps, truncated)
