"""Monte-Carlo simulator of stateless opportunistic routing.

A packet at node u hops to neighbor v with probability w(u,v)/deg(u)
(uniform over neighbors for binary graphs) until it first reaches its
destination.  Walk length counts hops, matching the hitting-time convention
h[s][s] = 0.

Every walk runs on one kernel over the graph's CSR rows (Graph.csr, built
once per graph and cached).  A walk at u with uniform draw x moves to the
neighbor in column floor(x * deg(u)) of row u; on weighted graphs the
fractional part of x * deg(u) then picks between that neighbor and its Vose
alias (Graph.alias_table), so each hop costs O(1) whatever the degree.

Randomness comes from numpy's PCG64 seeded through SeedSequence, so results
are platform-independent for a fixed seed.  The draw schedule is fixed: each
step draws one uniform per still-active walk, in ascending walk order, and
simulate_walk is a one-walk batch (one uniform per hop).  Binary graphs keep
the digits of the earlier cumulative-table pick; weighted graphs changed
theirs once, when the alias tables replaced it.

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

from .errors import EstimationError, ParameterError
from .graphs import Graph

__all__ = [
    "WalkConfig",
    "WalkEstimate",
    "simulate_walk",
    "estimate_mean_latency",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class WalkConfig:
    """Simulation parameters.

    max_steps None means the default cap 100 * n^2, far above the worst
    expected hitting time for the families in scope.  For a mean latency,
    trials walks cover every ordered pair in turn when trials >= n(n-1),
    and otherwise go to trials distinct pairs drawn from seed.
    """

    trials: int
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1 when given")

    def resolved_max_steps(self, n: int) -> int:
        return 100 * n * n if self.max_steps is None else self.max_steps


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


@dataclass(frozen=True)
class _WalkTables:
    """Next-hop tables of one graph: CSR rows plus, for weighted graphs,
    the Vose alias table (prob and alias are None for binary graphs)."""

    indptr: np.ndarray
    indices: np.ndarray
    deg: np.ndarray  # row lengths as floats, scaled by the uniform draw
    prob: np.ndarray | None
    alias: np.ndarray | None

    def next_hops(self, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next node of each walk at cur, given one uniform u per walk.

        The column floor(u * deg) picks the CSR slot; on weighted graphs
        the fractional part then chooses between the slot's neighbor and
        its alias.
        """
        x = u * self.deg[cur]
        col = x.astype(np.intp)
        slot = self.indptr[cur] + col
        nxt = self.indices[slot]
        if self.prob is None:
            return nxt
        return np.where(x - col < self.prob[slot], nxt, self.alias[slot])


def _walk_tables(g: Graph) -> _WalkTables:
    indptr, indices = g.csr
    deg = np.diff(indptr).astype(float)
    if not deg.all():
        raise ParameterError("graph has an isolated node; walks cannot leave it")
    prob, alias = (None, None) if g.is_binary else g.alias_table
    return _WalkTables(indptr, indices, deg, prob, alias)


def _validate_nodes(g: Graph, s: int, t: int) -> None:
    if not (0 <= s < g.n) or not (0 <= t < g.n):
        raise ParameterError(f"node index out of range: s={s}, t={t}, n={g.n}")


def simulate_walk(g: Graph, s: int, t: int, rng: np.random.Generator,
                  max_steps: int | None = None) -> int:
    """Single walk from s until first arrival at t; returns hops taken.

    A one-walk batch of the same kernel, drawing one uniform per hop.
    Returns max_steps if the cap is reached first; callers needing the
    truncation flag compare against the cap.
    """
    _validate_nodes(g, s, t)
    cap = WalkConfig(trials=1, max_steps=max_steps).resolved_max_steps(g.n)
    steps, _ = _run_walks(g, [s], [t], cap, rng)
    return int(steps[0])


def _run_walks(g: Graph, starts, targets, cap: int, rng):
    """Batch of independent walks; returns (steps, truncated).

    Each step draws one uniform per active walk, in ascending walk order,
    and moves every active walk one hop.  The active set (ids, cur, tgt)
    is compacted only on steps where some walk arrives.
    """
    tables = _walk_tables(g)
    starts = np.asarray(starts, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    steps = np.where(starts == targets, 0, cap)
    ids = np.flatnonzero(starts != targets)
    cur, tgt = starts[ids], targets[ids]
    step = 0
    while ids.size and step < cap:
        step += 1
        cur = tables.next_hops(cur, rng.random(ids.size))
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


def estimate_mean_latency(g: Graph, config: WalkConfig) -> WalkEstimate:
    """Monte-Carlo mean latency: config.trials walks spread over the ordered
    pairs (each pair in turn when trials >= n(n-1), else distinct pairs drawn
    uniformly), all simulated in one vectorized batch.  Comparable to the
    analytic expected packet delay (hop units)."""
    if g.n < 2:
        raise ParameterError("mean latency needs n >= 2")
    starts, targets = _pair_schedule(g.n, config.trials, config.seed)
    cap = config.resolved_max_steps(g.n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    steps, truncated = _run_walks(g, starts, targets, cap, rng)
    return _estimate(steps, truncated)
