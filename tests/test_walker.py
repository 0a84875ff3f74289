import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppwalk.errors import DisconnectedGraphError, EstimationError, ParameterError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import (
    expected_packet_delay,
    hitting_times,
    hitting_times_linear_system,
)
from oppwalk import walker
from oppwalk.walker import (
    _estimate,
    _pair_rng,
    _pair_schedule,
    _run_walks,
    _step_cap,
    _union,
    estimate_mean_latency,
)
from oppwalk.wireless import WirelessConfig, generate_topology


def estimate_one(g, trials, seed):
    """The estimate of a batch of the one graph g."""
    return estimate_mean_latency([g], trials, seed).estimates[0]


def path2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def two_edges():
    """0-1 and 2-3: two components, so 0 never reaches 2."""
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return Graph(w)


def estimate_hitting(g, s, t, trials, seed):
    """Monte-Carlo hitting time of one ordered pair: trials walks from s to
    t in one batch of the walker's kernel, drawn from the pair's own
    substream (spawn key s * n + t)."""
    steps, cut = _run_walks(
        *g.csr, np.full(trials, s), np.full(trials, t), _step_cap(g.n),
        _pair_rng(seed, s * g.n + t))
    return _estimate(steps, int(cut.sum()))


class TestWalkConfig:
    """The walk's settings: trials and seed, and the step cap."""

    def test_rejects_bad_trials(self):
        # one walk has no CI
        for trials in 0, 1, 2.5:
            with pytest.raises(ParameterError):
                estimate_mean_latency([build_cycle(5, 1)], trials, 0)

    @pytest.mark.parametrize("seed", [None, -1, 2.5, "3"])
    def test_rejects_bad_seed(self, seed):
        # None would draw fresh OS entropy: no two runs would agree
        with pytest.raises(ParameterError, match="seed"):
            estimate_mean_latency([build_cycle(12, 1)], 200, seed)

    def test_seed_has_no_upper_bound(self):
        g = build_cycle(5, 1)
        big = estimate_mean_latency([g], 50, 2**70)
        assert big == estimate_mean_latency([g], 50, 2**70)

    def test_default_cap(self):
        assert _step_cap(30) == 90_000


class TestGraphChecks:
    """estimate_mean_latency takes connected graphs only."""

    def test_rejects_disconnected_graph(self):
        # two disjoint triangles: walks across components would run to the
        # 100 n^2 step cap; the estimate is refused before any walk
        w = np.zeros((6, 6))
        for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            w[a, b] = w[b, a] = 1.0
        with pytest.raises(DisconnectedGraphError):
            estimate_mean_latency([Graph(w)], 200, 0)


class TestSimulateWalk:
    """Single simulated walks through _run_walks, the one kernel behind
    every estimate."""

    def test_two_node_path_always_one_step(self):
        steps, cut = _run_walks(*path2().csr, np.zeros(20), np.ones(20),
                                _step_cap(2), np.random.default_rng(0))
        assert steps.tolist() == [1] * 20 and not cut.any()

    def test_same_node_returns_zero(self):
        steps, _ = _run_walks(*build_cycle(5, 1).csr, [2], [2], _step_cap(5),
                              np.random.default_rng(0))
        assert steps.tolist() == [0]

    def test_cap_respected(self):
        # s can never reach t across components; the walk stops at the cap
        # and counts as truncated
        steps, cut = _run_walks(*two_edges().csr, [0], [2], 50,
                                np.random.default_rng(1))
        assert steps.tolist() == [50] and cut.tolist() == [True]


def test_uniform_next_hop_frequencies():
    # cap 1 from node 0 towards t: a walk arrives iff its first hop is t,
    # which happens with probability 1/deg(0) for a neighbor (within
    # 3-sigma binomial bounds over 1e5 draws) and never otherwise
    g = build_torus(TorusSpec([5, 6], 2))
    indptr, indices = g.csr
    neighbors = indices[indptr[0]:indptr[1]].tolist()
    p = 1.0 / len(neighbors)
    draws = 100000
    for t in [*neighbors, 7]:
        _, cut = _run_walks(indptr, indices, np.zeros(draws),
                            np.full(draws, t), 1, np.random.default_rng(123 + t))
        count = draws - np.count_nonzero(cut)
        if t in neighbors:
            sigma = np.sqrt(draws * p * (1 - p))
            assert abs(count - draws * p) <= 3 * sigma
        else:
            assert count == 0


class TestEstimateHitting:
    """Per-pair walks of the kernel against exact hitting times."""

    def test_k3_sample_mean(self):
        est = estimate_hitting(build_cycle(3, 1), 0, 1, 100000, 42)
        assert 1.96 <= est.mean <= 2.04
        assert est.truncated == 0

    def test_c4_antipodal(self):
        est = estimate_hitting(build_cycle(4, 1), 0, 2, 100000, 42)
        assert est.mean == pytest.approx(4.0, rel=0.02)

    def test_seeded_determinism(self):
        g = build_cycle(3, 1)
        a = estimate_hitting(g, 0, 1, 5000, 42)
        b = estimate_hitting(g, 0, 1, 5000, 42)
        assert a == b

    def test_all_truncated_raises(self):
        with pytest.raises(EstimationError):
            estimate_hitting(two_edges(), 0, 2, 10, 1)

    def test_ci_calibration_c8_2(self):
        # 95% CI should cover the analytic value in >= 90 of 100 seeds
        g = build_cycle(8, 2)
        target = hitting_times(g)[0, 5]
        hits = 0
        for seed in range(100):
            est = estimate_hitting(g, 0, 5, 2000, seed)
            if abs(est.mean - target) <= est.ci_halfwidth:
                hits += 1
        assert hits >= 90

    def test_convergence_with_trials(self):
        g = build_cycle(6, 1)
        target = hitting_times_linear_system(g)[0, 3]
        errors, cis = [], []
        for trials in (1000, 10000, 100000):
            est = estimate_hitting(g, 0, 3, trials, 3)
            errors.append(abs(est.mean - target))
            cis.append(est.ci_halfwidth)
        assert cis[0] > cis[1] > cis[2]
        assert errors[2] <= cis[2] * 3


class TestEstimateMeanLatency:
    def test_k3_close_to_epd(self):
        est = estimate_one(build_cycle(3, 1), 100000, 42)
        assert est.mean == pytest.approx(2.0, rel=0.02)

    def test_c4_close_to_epd(self):
        est = estimate_one(build_cycle(4, 1), 100000, 42)
        assert est.mean == pytest.approx(10 / 3, rel=0.02)

    def test_seeded_determinism(self):
        g = build_torus(TorusSpec([4, 4], 1))
        assert (estimate_mean_latency([g], 20000, 7)
                == estimate_mean_latency([g], 20000, 7))

    def test_no_truncation_on_connected_graphs(self):
        for g in (build_cycle(5, 1), build_cycle(12, 2),
                  build_torus(TorusSpec([3, 3], 1))):
            est = estimate_one(g, 5000, 11)
            assert est.truncated == 0

    def test_sampled_pair_mode(self):
        # fewer trials than the 4032 ordered pairs: the walks go to distinct
        # sampled pairs, and the mean still lands on EPD
        g = build_torus(TorusSpec([8, 8], 1))
        est = estimate_one(g, 2000, 5)
        assert est.trials_used == 2000
        epd = expected_packet_delay(g)
        assert abs(est.mean - epd) <= 4 * est.ci_halfwidth / 1.96


def schedule(n, trials, seed):
    """The pair schedule of a batch of one n-node graph at seed."""
    return _pair_schedule(n, trials, _pair_rng(seed, n * n))


def enumerated_schedule(n, trials, seed):
    """Reference schedule: list every ordered pair (row-major, s != t), then
    take pair i mod n(n-1) for walk i, or, for fewer trials than pairs, the
    pairs at the indices drawn without replacement from the off-pair
    substream."""
    s, t = np.divmod(np.arange(n * n), n)
    keep = s != t
    pairs = np.column_stack([s[keep], t[keep]])
    if trials >= len(pairs):
        k = np.arange(trials) % len(pairs)
    else:
        k = _pair_rng(seed, n * n).choice(len(pairs), trials, replace=False)
    return pairs[k, 0], pairs[k, 1]


def wireless_n30(seed):
    return generate_topology(WirelessConfig(n=30, eta=4), seed=seed).graph


class TestPairSchedule:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_all_pairs_matches_enumeration(self, n):
        pairs = n * (n - 1)
        for trials in (1, pairs - 1 or 1, pairs, 3 * pairs + 5):
            for seed in (0, 9):
                got = schedule(n, trials, seed)
                want = enumerated_schedule(n, trials, seed)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n,trials", [(3, 5), (5, 1), (17, 100),
                                          (30, 100), (64, 4031)])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_short_run_pairs_distinct(self, n, trials, seed):
        starts, targets = schedule(n, trials, seed)
        assert starts.size == targets.size == trials
        assert np.all((0 <= starts) & (starts < n))
        assert np.all((0 <= targets) & (targets < n))
        assert np.all(starts != targets)
        assert np.unique(starts * n + targets).size == trials

    @pytest.mark.parametrize("seed", range(5))
    def test_short_run_starts_spread(self, seed):
        # 100 walks on 30 nodes: row-major order would start them all at
        # nodes 0-3
        starts, _ = schedule(30, 100, seed)
        assert np.unique(starts).size >= 20

    @pytest.mark.parametrize("placement_seed", [1, 4, 5])
    def test_short_run_mean_of_exact_hitting_times_is_epd(self,
                                                          placement_seed):
        # exact H averaged over the scheduled pairs of 200 seeds at 100 of
        # 870 pairs; the first 100 pairs in row-major order miss EPD by
        # about 3% on these graphs
        g = wireless_n30(placement_seed)
        h = hitting_times_linear_system(g)
        means = [h[schedule(g.n, 100, seed)].mean()
                 for seed in range(200)]
        assert np.mean(means) == pytest.approx(expected_packet_delay(g),
                                               rel=0.015)

    def test_all_pairs_memory_does_not_grow_with_n(self):
        # at the 4096-node cap a list of all ordered pairs takes ~0.8 GB
        n, trials = 4096, 10_000
        tracemalloc.start()
        try:
            starts, targets = schedule(n, trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.all(starts != targets)
        assert np.unique(starts * n + targets).size == trials


def batch_graphs():
    """Graphs of several sizes and degrees for one batch."""
    return [build_cycle(5, 1), path2(), build_torus(TorusSpec([3, 4], 1)),
            wireless_n30(1), build_cycle(12, 2)]


class TestBatch:
    """Every graph of a batch walks in one kernel call on the
    block-diagonal union of the graphs' CSR rows."""

    def test_union_blocks_stay_in_their_graph(self):
        gs = batch_graphs()
        indptr, indices, nodes = _union([g.csr for g in gs])
        assert nodes.tolist() == np.cumsum([0] + [g.n for g in gs]).tolist()
        assert indptr[-1] == indices.size
        for g, o in zip(gs, nodes):
            ip, ix = g.csr
            rows = indices[indptr[o]:indptr[o + g.n]]
            assert np.all((o <= rows) & (rows < o + g.n))
            assert np.array_equal(rows, ix + o)
            assert np.array_equal(np.diff(indptr[o:o + g.n + 1]), np.diff(ip))

    def test_caps_are_per_graph(self, monkeypatch):
        # a cap of 2 steps on the 20-node cycle cuts every walk between
        # nodes more than 2 hops apart; the 3-cycle's cap of 60 cuts none
        monkeypatch.setattr(walker, "_step_cap",
                            lambda n: 60 if n == 3 else 2)
        batch = estimate_mean_latency([build_cycle(3, 1), build_cycle(20, 1)],
                                      380, 4)
        small, large = batch.estimates
        assert small.truncated == 0
        assert large.truncated >= 380 - 4 * 20  # at most 4 targets per start
        assert batch.truncated == large.truncated
        assert batch.trials_used == 760

    def test_kernel_cuts_each_walk_at_its_own_cap(self):
        # walks 0 -> 2 on two_edges never arrive; walk 0 -> 1 arrives
        steps, cut = _run_walks(*two_edges().csr, [0, 0, 0, 3], [2, 2, 1, 3],
                                [5, 9, 7, 4], np.random.default_rng(2))
        assert steps.tolist() == [5, 9, 1, 0]
        assert cut.tolist() == [True, True, False, False]

    def test_disconnected_graph_raises_before_any_walk(self, monkeypatch):
        def no_walks(*args):
            raise AssertionError("walked a batch holding a disconnected graph")

        monkeypatch.setattr(walker, "_run_walks", no_walks)
        with pytest.raises(DisconnectedGraphError):
            estimate_mean_latency([build_cycle(5, 1), two_edges(), path2()],
                                  100, 0)

    def test_rejects_empty_batch_and_single_node(self):
        with pytest.raises(ParameterError):
            estimate_mean_latency([], 100, 0)
        with pytest.raises(ParameterError):
            estimate_mean_latency([path2(), Graph(np.zeros((1, 1)))], 100, 0)

    def test_multi_graph_batch_is_deterministic(self):
        a = estimate_mean_latency(batch_graphs(), 700, 3)
        b = estimate_mean_latency(iter(batch_graphs()), 700, 3)
        assert a == b
        assert len(a.estimates) == 5
        assert all(e.trials_used == 700 for e in a.estimates)
        assert a != estimate_mean_latency(batch_graphs(), 700, 4)

    def test_each_graph_near_its_epd(self):
        gs = batch_graphs()
        batch = estimate_mean_latency(gs, 20000, 8)
        for g, est in zip(gs, batch.estimates):
            epd = expected_packet_delay(g)
            assert abs(est.mean - epd) <= 4 * est.ci_halfwidth / 1.96
            assert est.truncated == 0
            assert type(est.ci_halfwidth) is float

    def test_one_graph_batch_totals_are_its_estimate(self):
        batch = estimate_mean_latency([build_cycle(12, 2)], 3000, 1)
        (est,) = batch.estimates
        assert (batch.mean, batch.trials_used, batch.truncated) == (
            est.mean, est.trials_used, est.truncated)


class TestGoldenStream:
    """Seeded MC values on binary graphs, pinned across kernel rewrites:
    blocks of steps, each one rng.random((k, m)) over the m active walks in
    ascending walk order, which for a lone walk is one uniform per step."""

    def test_mean_latency_torus(self):
        est = estimate_mean_latency([build_torus(TorusSpec([4, 4], 1))],
                                    20000, 7).estimates[0]
        assert est.mean == 18.11675
        assert est.ci_halfwidth == 0.2470506449455637

    def test_hitting_cycle(self):
        est = estimate_hitting(build_cycle(12, 2), 0, 5, 5000, 3)
        assert est.mean == 18.2802

    def test_simulate_walk(self):
        steps, _ = _run_walks(*build_cycle(9, 1).csr, [0], [4], _step_cap(9),
                              np.random.default_rng(11))
        assert steps.tolist() == [18]


class CountingRng:
    """A generator that records the shape of every random() call, given as
    a size or as the shape of an out array."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, size=None, out=None):
        self.shapes.append(size if out is None else out.shape)
        return self.rng.random(size, out=out)


class TestGoldenBatch:
    """The walk-validate batch of cycle:64:1, torus:16x16:1 and wireless:0
    at 3000 trials and seed 7: three graphs in one kernel call, with a long
    tail of few active walks."""

    def test_walk_validate_batch(self, monkeypatch):
        kernel, rngs = walker._run_walks, []

        def spy(*args, **kwargs):
            rngs.append(CountingRng(args[-1]))
            return kernel(*args[:-1], rngs[-1], **kwargs)

        monkeypatch.setattr(walker, "_run_walks", spy)
        wireless_0 = generate_topology(WirelessConfig(n=30), seed=0).graph
        batch = estimate_mean_latency(
            [build_cycle(64, 1), build_torus(TorusSpec([16, 16], 1)),
             wireless_0], 3000, 7)
        assert [(e.mean, e.ci_halfwidth) for e in batch.estimates] == [
            (686.027, 28.210896223871067),
            (494.21133333333336, 17.968717761091924),
            (30.109666666666666, 1.102279089115778)]
        assert batch.truncated == 0
        # one draw per block, not one per step of the 6,100 the longest
        # walk takes
        (rng,) = rngs
        assert len(rng.shapes) == 130


class TestDrawBuffer:
    """The blocks of a batch draw into buffers allocated once per batch."""

    def test_memory_does_not_grow_with_blocks(self):
        # 128 walks on a 1000-node cycle draw 256 x 128 uniforms a block
        # (256 KB).  Fresh arrays per block would hold two blocks' draws
        # and marks at every change of block.
        indptr, indices = build_cycle(1000, 1).csr
        starts = np.arange(128)
        peaks = []
        for cap in 256, 40 * 256:
            rng = CountingRng(np.random.default_rng(0))
            tracemalloc.start()
            try:
                _run_walks(indptr, indices, starts, starts + 500, cap, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(rng.shapes) == 40
        assert peaks[1] - peaks[0] < 16_000


def reference_walks(indptr, indices, starts, targets, caps, rng):
    """Reference of the block rule, walk by walk on node ids.  After t
    steps with m walks active, in ascending walk order, it draws
    rng.random((k, m)) with k = min(256, max(1, 32768 // m), c - t), c the
    smallest cap above t of the walks not started at their target.  Walk j
    takes column j, one uniform per step, moving to the neighbor in column
    floor(x * deg) of its node's row, until it arrives.  After the block
    the arrived walks leave, and active walks at their cap are cut."""
    starts = np.asarray(starts, dtype=np.intp).tolist()
    targets = np.asarray(targets, dtype=np.intp).tolist()
    caps = np.broadcast_to(caps, len(starts)).tolist()
    steps = [0] * len(starts)
    cut = [False] * len(starts)
    active = [i for i, (s, t) in enumerate(zip(starts, targets)) if s != t]
    stops = {caps[i] for i in active}
    node = list(starts)
    t = 0
    while active:
        m = len(active)
        k = min(256, max(1, 32768 // m), min(c for c in stops if c > t) - t)
        u = rng.random((k, m))
        left = []
        for j, i in enumerate(active):
            for row in range(k):
                row_start = int(indptr[node[i]])
                degree = int(indptr[node[i] + 1]) - row_start
                node[i] = int(indices[row_start + int(u[row, j] * degree)])
                if node[i] == targets[i]:
                    steps[i] = t + row + 1
                    break
            else:
                left.append(i)
        t += k
        for i in left:
            if caps[i] == t:
                steps[i], cut[i] = t, True
        active = [i for i in left if caps[i] != t]
    return np.array(steps), np.array(cut)


def random_connected_csr(n, density, rng):
    """CSR rows of a random connected n-node graph: a path through the
    nodes in random order plus each other pair with probability density."""
    w = np.triu(rng.random((n, n)) < density, 1)
    order = rng.permutation(n)
    a, b = order[:-1], order[1:]
    w[np.minimum(a, b), np.maximum(a, b)] = True
    return Graph((w | w.T).astype(float)).csr


def one_degree(indptr):
    """The degree of every row of indptr, or 0 where the rows differ."""
    d = np.diff(indptr)
    return float(d[0]) if (d == d[0]).all() else 0.0


def assert_kernel_is_reference(indptr, indices, starts, targets, caps, seed,
                               degree=0):
    """_run_walks gives the reference's steps and cut, and leaves the
    generator at the reference's next draw, whether it switches regime at
    the default _TAIL or keeps one regime throughout, and whether it is
    told the walks' degrees or reads every row's length."""
    args = (indptr, indices, starts, targets, caps)
    ref_rng = np.random.default_rng(seed)
    want = reference_walks(*args, ref_rng)
    after = ref_rng.random()
    for tail in (walker._TAIL, 0, len(starts) + 1):
        for told in (0, degree):
            rng = np.random.default_rng(seed)
            with mock.patch.object(walker, "_TAIL", tail):
                got = _run_walks(*args, rng, degree=told)
            assert np.array_equal(got[0], want[0]), tail
            assert np.array_equal(got[1], want[1]), tail
            assert rng.random() == after, tail
    return want


LATTICES = st.one_of(
    st.builds(lambda r, extra: TorusSpec((2 * r + 1 + extra,), r),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=0, max_value=3)),
    st.builds(lambda a, b: TorusSpec((a, b), 1),
              st.integers(min_value=3, max_value=5),
              st.integers(min_value=3, max_value=5)))


class TestBlockRule:
    """_run_walks against reference_walks, bit for bit, in every regime:
    numpy blocks (_TAIL patched to 0), Python walks by column (_TAIL above
    the walk count), and numpy blocks that hand over to Python ones; numpy
    blocks on precomputed columns where every active walk's graph has one
    degree, and on each node's row length otherwise."""

    @settings(max_examples=120, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=2, max_value=12),
                          max_size=4),
           lattices=st.lists(LATTICES, max_size=3),
           density=st.floats(min_value=0.0, max_value=1.0),
           walks=st.integers(min_value=1, max_value=300),
           max_cap=st.integers(min_value=1, max_value=600),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_kernel_is_reference(self, sizes, lattices, density, walks,
                                 max_cap, seed):
        # mixed-degree graphs in one union, random ones and lattices (cycles
        # at r = 1..3, 2-D tori) in any order, one cap per graph (so caps
        # end blocks early), walks that may start at their target, and more
        # than 128 walks (blocks of 32768 // m steps) or fewer (256 steps)
        assume(sizes or lattices)
        rng = np.random.default_rng(seed)
        blocks = [random_connected_csr(n, density, rng) for n in sizes]
        blocks += [build_torus(spec).csr for spec in lattices]
        blocks = [blocks[i] for i in rng.permutation(len(blocks))]
        indptr, indices, nodes = _union(blocks)
        block = rng.integers(0, len(blocks), walks)
        offset, size = nodes[block], np.diff(nodes)[block]
        starts = offset + rng.integers(0, size)
        targets = offset + rng.integers(0, size)
        caps = rng.integers(1, max_cap + 1, len(blocks))[block]
        degree = np.array([one_degree(ip) for ip, _ in blocks])[block]
        assert_kernel_is_reference(indptr, indices, starts, targets, caps,
                                   seed, degree)

    def test_walks_at_their_target(self):
        steps, cut = assert_kernel_is_reference(
            *build_cycle(5, 1).csr, [0, 1, 2, 3], [0, 3, 2, 1], 100, 6)
        assert steps[[0, 2]].tolist() == [0, 0] and not cut.any()

    def test_caps_end_blocks_early(self):
        # the 20-cycle's cap of 7 ends the first block; walks on the
        # triangle (cap 300) go on in the next
        indptr, indices, _ = _union([build_cycle(20, 1).csr,
                                     build_cycle(3, 1).csr])
        starts = np.array([0] * 30 + [20] * 30)
        targets = np.array([10] * 30 + [22] * 30)
        caps = np.repeat([7, 300], 30)
        rng = CountingRng(np.random.default_rng(1))
        _run_walks(indptr, indices, starts, targets, caps, rng)
        assert rng.shapes[0] == (7, 60)
        _, cut = assert_kernel_is_reference(indptr, indices, starts, targets,
                                            caps, 1)
        assert cut[:30].all() and not cut[30:].any()

    def test_block_size_crosses_128_walks(self):
        # 200 walks on a 30-cycle: 32768 // m steps per block while more
        # than 128 walks are active, then 256
        s, t = schedule(30, 200, 3)
        rng = CountingRng(np.random.default_rng(3))
        _run_walks(*build_cycle(30, 1).csr, s, t, _step_cap(30), rng)
        assert rng.shapes[0] == (163, 200)
        assert all(k == min(256, 32768 // m) for k, m in rng.shapes)
        assert {k < 256 for k, _ in rng.shapes} == {True, False}
        assert_kernel_is_reference(*build_cycle(30, 1).csr, s, t,
                                   _step_cap(30), 3)

    def test_one_step_blocks_past_32768_walks(self):
        s, t = schedule(5, 40000, 2)
        rng = CountingRng(np.random.default_rng(2))
        _run_walks(*build_cycle(5, 1).csr, s, t, 60, rng)
        assert rng.shapes[0] == (1, 40000)
        assert_kernel_is_reference(*build_cycle(5, 1).csr, s, t, 60, 2)

    def test_one_step_blocks_past_32768_walks_on_a_torus(self):
        indptr, indices = build_torus(TorusSpec((3, 4), 1)).csr
        s, t = schedule(12, 40000, 6)
        rng = CountingRng(np.random.default_rng(6))
        _run_walks(indptr, indices, s, t, 60, rng, degree=4)
        assert rng.shapes[0] == (1, 40000)
        assert_kernel_is_reference(indptr, indices, s, t, 60, 6, degree=4)

    def test_last_irregular_walk_leaves_mid_run(self):
        # 40 walks between the ends of a 3-node path (degrees 1, 2, 1)
        # beside 200 walks on a 30-cycle: the first block of 136 steps
        # moves on row lengths until the path's walks have all arrived,
        # and the next blocks, with more than _TAIL walks on the cycle
        # alone, on precomputed columns
        path3 = Graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        indptr, indices, _ = _union([path3.csr, build_cycle(30, 1).csr])
        s, t = schedule(30, 200, 8)
        starts = np.concatenate([np.zeros(40, dtype=int), s + 3])
        targets = np.concatenate([np.full(40, 2), t + 3])
        degree = np.repeat([0.0, 2.0], [40, 200])
        rng = CountingRng(np.random.default_rng(8))
        _run_walks(indptr, indices, starts, targets, _step_cap(30), rng,
                   degree=degree)
        (k, m), (_, later) = rng.shapes[:2]
        steps, _ = assert_kernel_is_reference(indptr, indices, starts,
                                              targets, _step_cap(30), 8,
                                              degree)
        assert (k, m) == (136, 240)
        assert steps[:40].max() <= k and later > walker._TAIL
        assert (steps[40:] > k).sum() == later

    def test_short_row_length_blocks_beside_lattices(self):
        # 2,400 walks on random graphs mixed with lattices, some at their
        # target: the first blocks run 32768 // m <= 16 steps on row
        # lengths, the random graphs' walks still active are cut at 24,
        # and the lattice walks go on to 64 on precomputed columns
        rng = np.random.default_rng(12)
        blocks = [random_connected_csr(n, 0.3, rng) for n in (6, 9, 12)]
        blocks += [build_torus(spec).csr
                   for spec in (TorusSpec((9,), 2), TorusSpec((4, 5), 1))]
        indptr, indices, nodes = _union(blocks)
        block = rng.integers(0, len(blocks), 2400)
        offset, size = nodes[block], np.diff(nodes)[block]
        starts = offset + rng.integers(0, size)
        targets = offset + rng.integers(0, size)
        degree = np.array([one_degree(ip) for ip, _ in blocks])[block]
        caps = np.where(degree == 0, 24, 64)
        counting = CountingRng(np.random.default_rng(12))
        _run_walks(indptr, indices, starts, targets, caps, counting,
                   degree=degree)
        steps, cut = assert_kernel_is_reference(indptr, indices, starts,
                                                targets, caps, 12, degree)
        k, m = counting.shapes[0]
        assert k == 32768 // m <= 16 and (steps[degree == 0] > k).any()
        assert cut[degree == 0].any() and (steps[degree > 0] > 24).any()

    def test_lattice_block_without_arrivals(self):
        # 20 walks 100 hops from their targets on a 200-cycle: none
        # arrives in the first block of 256 steps, so the slots it ends on
        # must outlive the draw buffer that the next block refills
        indptr, indices = build_cycle(200, 1).csr
        starts = np.arange(20)
        steps, cut = assert_kernel_is_reference(indptr, indices, starts,
                                                starts + 100, 2000, 9, 2)
        assert steps.min() > 256 and not cut.all()

    def test_every_walk_arrives_in_one_block(self):
        # every walk on the 2-node path arrives at its first step; the
        # block still draws its full k rows
        rng = CountingRng(np.random.default_rng(4))
        steps, _ = _run_walks(*path2().csr, np.zeros(40), np.ones(40), 500,
                              rng)
        assert steps.tolist() == [1] * 40 and rng.shapes == [(256, 40)]
        assert_kernel_is_reference(*path2().csr, np.zeros(40), np.ones(40),
                                   500, 4)

    def test_many_walks_in_python(self):
        # 3000 walks on the triangle, every block walked by column, some
        # walks cut at the cap of 4
        s, t = schedule(3, 3000, 5)
        _, cut = assert_kernel_is_reference(*build_cycle(3, 1).csr, s, t, 4, 5)
        assert cut.any() and not cut.all()


@pytest.mark.parametrize("k,m", [(1, 1), (3, 1024), (17, 5), (1024, 1024)])
def test_pcg64_split_draws_are_one_stream(k, m):
    # PCG64 gives random(k) then random(m) as the same numbers as
    # random(k + m): that is why one block's random((k, m)) equals k
    # per-step draws of m uniforms in a row
    def fresh():
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))

    split = fresh()
    assert np.array_equal(np.concatenate([split.random(k), split.random(m)]),
                          fresh().random(k + m))
