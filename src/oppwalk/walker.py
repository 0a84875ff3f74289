"""Monte-Carlo simulator of stateless opportunistic routing.

A packet at node u hops to one of u's neighbors uniformly at random until
it first reaches its destination: a simple random walk on a connected 0/1
graph.  Walk length counts hops, matching the hitting-time convention
h[s][s] = 0.

estimate_mean_latency walks every graph it is given in one batch.  It joins
the graphs' CSR rows (Graph.csr) into one block-diagonal union, graph i's
nodes numbered from o_i = n_0 + ... + n_{i-1}, and runs all walks of all
graphs on one kernel over that union.  A walk at u with uniform draw x
moves to the neighbor in column floor(x * deg(u)) of row u, so each hop
costs O(1) whatever the degree, and it never leaves its graph's block.
A walk on graph i still running after 100 n_i^2 steps is cut there.

Randomness comes from numpy's PCG64 seeded through SeedSequence, so results
are platform-independent for a fixed seed.  The draw schedule is fixed: the
walk stream is SeedSequence(seed), and walks move in blocks of steps.
After t steps with m walks active, in ascending union order (graph by
graph, walk by walk), the next block runs k = min(256, max(1, 32768 // m),
c - t) steps, c the smallest step cap above t, on one rng.random((k, m)):
row i holds step t + i + 1, column j the j-th active walk.  A walk stops
at its first arrival, the rest of its column unused, and the walks that
arrived leave after the block.  Up to each block's first arrival this is
the stream of one uniform per active walk per step.  The blocks of a
batch share one draw buffer and one buffer of arrival marks, each of
max(32768, walks) entries, and one of the active walks' degrees,
allocated once: a block fills a (k, m) view with rng.random(out=...), the
same numbers as rng.random((k, m)), so a long batch does not grow the
heap block by block.

The kernel holds each walk as its node's row start in the union, its slot,
and a table of indptr[indices] gives the slot of each neighbor.  No node
of a connected graph with n >= 2 has an empty row, so slots are distinct
and a walk arrives when its slot is its target's.  On a graph whose nodes
all have one degree d, as on every cycle and torus, a walk's column
floor(x * d) does not depend on where it stands, so while every active
walk is on such a graph a block takes all its columns at once: the draws
times each walk's d, cast to intp in place in the draw buffer.  A hop is
then one add and one gather.  While any active walk is on a graph whose
degrees differ, as a wireless one, a hop first gathers its row's length
from a slot table, which only a batch holding such a graph makes.

With more than _TAIL = 16 walks active, numpy moves all of them one row
per step, arrived walks too, and scans the block for first arrivals
once: in the benchmark's Monte-Carlo batches that simulates 3.3% more
hops than the walks use.  A step on precomputed columns is two numpy
calls, about 0.7-1.4 us at m = 8-100 walks; a step that reads row
lengths is six, about 1.8-2.7 us.  With at most 16, Python walks each
column in turn and stops a walk where it arrives, about 0.07-0.08 us a
hop on precomputed columns and 0.17 us on row lengths (2-core Xeon,
Python 3.11, numpy 2.4).  On walks that do not arrive within the block
numpy wins from about 10 walks in both loops, and a walk that arrives
early skips the rest of its column in Python, so one _TAIL of 16 is
about the break-even of both.  Every regime gives the same results.

Each graph gets trials walks spread over its P = n(n-1) ordered pairs
s != t by one rule: with trials >= P, walk i takes pair i mod P in
row-major order, so every pair gets floor(trials/P) or ceil(trials/P)
walks; with trials < P, the walks take distinct pairs drawn uniformly
without replacement, so a short run starts at nodes spread over the whole
graph, not only the first few.  The pair draws of all graphs come in graph
order from one off-pair substream (spawn key N*N, N the union's node
count).  A batch of one graph therefore draws exactly what that graph
draws alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ParameterError
from .graphs import Graph, _integer, _require_walkable, _seed

__all__ = [
    "WalkBatch",
    "WalkEstimate",
    "estimate_mean_latency",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_BLOCK = 256  # most steps in one block of _run_walks
_DRAWS = 32768  # most uniforms one block draws, unless one step needs more
_TAIL = 16  # active walks at or below which a block is walked in Python


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
class WalkBatch:
    """The walks of one estimate_mean_latency call: one WalkEstimate per
    graph, in the order given, and the totals over all walks (the pooled
    mean hops, the number of walks and the number truncated)."""

    estimates: tuple[WalkEstimate, ...]
    mean: float
    trials_used: int
    truncated: int


def _step_cap(n: int) -> int:
    """Steps after which a walk on n nodes is cut: far above the worst
    expected hitting time for the families in scope."""
    return 100 * n * n


def _run_walks(indptr, indices, starts, targets, caps, rng, degree=0):
    """Batch of independent walks on the CSR rows (indptr, indices), walk i
    cut after caps[i] steps (caps may be one number for all); returns
    (steps, cut), cut marking the walks that were cut.  Every node must
    have a neighbor, as on a connected graph with n >= 2.  degree[i] is
    the degree every node of walk i's graph has, or 0 where the degrees
    differ (one number for all walks, 0 by default).

    A walk is held as its slot, its node's row start: slot j of row u hops
    to nxt[j], the slot of u's neighbor in column j - indptr[u].  After t
    steps with m walks active (ids, cur, tgt), the next block runs k =
    min(_BLOCK, max(1, _DRAWS // m), c - t) steps, c the smallest cap
    above t, on u = rng.random((k, m)): walk j takes u[i, j] for step t +
    i + 1 until it arrives.  u, the marks hits and lat, the m walks'
    degrees, are views of buffers allocated once for the batch;
    rng.random(out=...) fills u with the numbers rng.random((k, m))
    returns.  path is the memory of u read as intp.

    If every active walk has a degree, its column floor(x * d) does not
    depend on where it stands: the block scales u by lat and casts it
    onto path, each row then holding a step's columns.  Otherwise a hop
    reads its row's length from deg, a slot table made only when some
    walk has degree 0.  With more than _TAIL walks, numpy moves them all
    a row at a time, arrived walks too: on columns, a step adds the
    slots of the row before to its row and gathers nxt in place, and one
    comparison of the block marks the arrivals in hits; on row lengths, a
    step takes six calls and marks its own.  With _TAIL walks or fewer,
    Python walks each column up to its walk's arrival and marks that
    alone.  The first mark of a column is its walk's arrival, and the
    walks that arrived leave the active set after the block.  At a cap,
    the walks still active with that cap are cut.
    """
    nxt = indptr[indices]
    starts = np.asarray(starts, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    steps = np.where(starts == targets, 0, caps)
    cut = np.zeros(steps.shape, dtype=bool)
    ids = np.flatnonzero(starts != targets)
    cur, tgt = indptr[starts[ids]], indptr[targets[ids]]
    degree = np.ascontiguousarray(np.broadcast_to(degree, starts.shape),
                                  dtype=float)
    regular = False
    if not degree.all():
        deg = np.zeros(indices.size)
        deg[indptr[:-1]] = np.diff(indptr)
        deg_v = memoryview(deg)
    nxt_v = memoryview(nxt)
    # one buffer each for the batch: a block draws k * m <= size uniforms
    size = max(_DRAWS, ids.size)
    draws = np.empty(size)
    marks = np.empty(size, dtype=bool)
    lats = np.empty(ids.size)
    step = 0
    # np.unique would import numpy.ma, 1.3 MB of resident memory
    for cap in sorted(set(steps[ids].tolist())):
        while ids.size and step < cap:
            m = ids.size
            # take writes out in place in mode "wrap"; "raise" buffers it
            lat = degree.take(ids, out=lats[:m], mode="wrap")
            regular = regular or lat.all()
            k = min(_BLOCK, max(1, _DRAWS // m), cap - step)
            flat = draws[:k * m]
            u = rng.random(out=flat.reshape(k, m))
            hits = marks[:k * m].reshape(k, m)
            cols = flat.view(np.intp)
            path = cols.reshape(k, m)
            if regular:
                u *= lat
                cols[...] = flat  # 1-D onto its own memory: no copy
            if m <= _TAIL:
                hits.fill(False)
                for j, col in enumerate((path if regular else u).T.tolist()):
                    c, t = int(cur[j]), int(tgt[j])
                    for i, x in enumerate(col):
                        c = nxt_v[c + (x if regular else int(x * deg_v[c]))]
                        if c == t:
                            hits[i, j] = True
                            break
                    cur[j] = c
            elif regular:
                prev = cur
                for row in path:
                    row += prev
                    nxt.take(row, out=row, mode="wrap")
                    prev = row
                np.equal(path, tgt, out=hits)
                cur[...] = prev  # path is refilled by the next block
            else:
                for x, off, h in zip(u, path, hits):
                    x *= deg[cur]
                    off[...] = x
                    off += cur
                    cur = nxt[off]
                    np.equal(cur, tgt, out=h)
            hit = hits.any(axis=0)
            if hit.any():
                # argmax along axis 0 runs column by column, so only over
                # the columns that arrived
                steps[ids[hit]] = step + 1 + hits[:, hit].argmax(axis=0)
                miss = ~hit
                ids, cur, tgt = ids[miss], cur[miss], tgt[miss]
            step += k
        # a walk still active keeps its cap in steps
        live = steps[ids] != cap
        cut[ids[~live]] = True
        ids, cur, tgt = ids[live], cur[live], tgt[live]
    return steps, cut


def _estimate(steps: np.ndarray, truncated: int) -> WalkEstimate:
    """Mean and CI halfwidth of at least 2 walks' steps."""
    if truncated == steps.size:
        raise EstimationError("every walk was truncated at the step cap")
    mean = float(steps.mean())
    ci = _Z95 * float(steps.std(ddof=1)) / math.sqrt(steps.size)
    return WalkEstimate(mean=mean, ci_halfwidth=ci,
                        trials_used=int(steps.size), truncated=truncated)


def _pair_rng(seed: int, pair_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pair_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _pair_schedule(n: int, trials: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Start and target of each of trials walks on n nodes.

    Ordered pairs with s != t are numbered k = 0..P-1 in row-major order,
    P = n(n-1).  With trials >= P, walk i takes k = i mod P and rng is not
    used; with trials < P, the walks take trials distinct k drawn uniformly
    from rng.  Pair k is s, j = divmod(k, n - 1), t = j + (j >= s), found
    without listing the pairs.
    """
    pairs = n * (n - 1)
    if trials >= pairs:
        k = np.arange(trials) % pairs
    else:
        k = rng.choice(pairs, trials, replace=False)
    s, j = np.divmod(k, n - 1)
    return s, j + (j >= s)


def _checked_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """g's CSR rows, once g is known to be walkable."""
    return _require_walkable(g, "Monte-Carlo latency").csr


def _union(blocks):
    """Block-diagonal union (indptr, indices, nodes) of the CSR rows of
    blocks: block i's rows are rows nodes[i]..nodes[i+1]-1 of the union,
    its indptr shifted by the slots of the blocks before it and its indices
    by nodes[i], each written straight into the union's arrays."""
    nodes = np.cumsum([0, *(ip.size - 1 for ip, _ in blocks)])
    slots = np.cumsum([0, *(ix.size for _, ix in blocks)])
    indptr = np.zeros(nodes[-1] + 1, dtype=np.intp)
    indices = np.empty(slots[-1], dtype=np.intp)
    for (ip, ix), a, b, s in zip(blocks, nodes, nodes[1:], slots):
        np.add(ip[1:], s, out=indptr[a + 1:b + 1])
        np.add(ix, a, out=indices[s:s + ix.size])
    return indptr, indices, nodes


def _one_degree(indptr) -> int:
    """The degree every row of indptr has, or 0 if the rows differ."""
    d = int(indptr[1])
    if indptr[-1] != d * (indptr.size - 1) or (np.diff(indptr) != d).any():
        return 0
    return d


def estimate_mean_latency(graphs, trials: int, seed: int) -> WalkBatch:
    """Monte-Carlo mean latency in hops of each graph of the iterable
    graphs: trials >= 2 walks per graph (one walk has no CI), spread over
    its ordered pairs (each pair in turn when trials >= n(n-1), else
    distinct pairs drawn uniformly), all simulated in one vectorized batch.
    Comparable to the analytic expected packet delay.  Every graph must be
    connected and have n >= 2 nodes; each is checked before any walk.
    Only its CSR rows are kept, and only until they are written into the
    union, so an iterable that builds its graphs lazily holds at most one
    dense matrix at a time, and the walks hold one copy of the rows, and
    a slot table of neighbors beside it."""
    trials, seed = _integer(trials, "trials"), _seed(seed)
    if trials < 2:
        raise ParameterError("trials must be >= 2: one walk has no CI")
    blocks = list(map(_checked_csr, graphs))
    if not blocks:
        raise ParameterError("estimate_mean_latency needs at least one graph")
    degrees = [_one_degree(ip) for ip, _ in blocks]
    indptr, indices, nodes = _union(blocks)
    del blocks  # the union holds the rows now
    sizes = np.diff(nodes).tolist()
    pair_rng = _pair_rng(seed, int(nodes[-1]) ** 2)
    starts = np.empty((len(sizes), trials), dtype=np.intp)
    targets = np.empty_like(starts)
    for n, o, s, t in zip(sizes, nodes, starts, targets):
        first, last = _pair_schedule(n, trials, pair_rng)
        np.add(first, o, out=s)
        np.add(last, o, out=t)
    caps = np.repeat([_step_cap(n) for n in sizes], trials)
    degree = np.repeat(np.array(degrees, dtype=float), trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    steps, cut = _run_walks(indptr, indices, starts.ravel(), targets.ravel(),
                            caps, rng, degree=degree)
    steps, cut = steps.reshape(-1, trials), cut.reshape(-1, trials)
    estimates = tuple(_estimate(row, int(c))
                      for row, c in zip(steps, cut.sum(axis=1)))
    return WalkBatch(estimates=estimates, mean=float(steps.mean()),
                     trials_used=int(steps.size), truncated=int(cut.sum()))
