import tracemalloc

import numpy as np
import pytest

from oppwalk.errors import DisconnectedGraphError, EstimationError, ParameterError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import (
    expected_packet_delay,
    hitting_times,
    hitting_times_linear_system,
)
from oppwalk.walker import (
    _estimate,
    _pair_rng,
    _pair_schedule,
    _run_walks,
    _step_cap,
    estimate_mean_latency,
)
from oppwalk.wireless import WirelessConfig, generate_topology


def path2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def weighted4():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 2.0
    w[0, 3] = w[3, 0] = 3.0
    w[1, 2] = w[2, 1] = 1.0
    return Graph(w)


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
    steps, truncated = _run_walks(
        g, np.full(trials, s), np.full(trials, t), _step_cap(g.n),
        _pair_rng(seed, s * g.n + t))
    return _estimate(steps, truncated)


class TestWalkConfig:
    """The walk's settings: trials and seed, and the step cap."""

    def test_rejects_bad_trials(self):
        with pytest.raises(ParameterError):
            estimate_mean_latency(build_cycle(5, 1), 0, 0)

    def test_default_cap(self):
        assert _step_cap(30) == 90_000


class TestGraphChecks:
    """estimate_mean_latency takes connected 0/1 graphs only."""

    def test_rejects_weighted_graph(self):
        with pytest.raises(ParameterError, match="uniformly"):
            estimate_mean_latency(weighted4(), 1000, 0)

    def test_rejects_disconnected_graph(self):
        # two disjoint triangles: walks across components would run to the
        # 100 n^2 step cap; the estimate is refused before any walk
        w = np.zeros((6, 6))
        for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            w[a, b] = w[b, a] = 1.0
        with pytest.raises(DisconnectedGraphError):
            estimate_mean_latency(Graph(w), 200, 0)


class TestSimulateWalk:
    """Single simulated walks through _run_walks, the one kernel behind
    every estimate."""

    def test_two_node_path_always_one_step(self):
        steps, truncated = _run_walks(path2(), np.zeros(20), np.ones(20),
                                      _step_cap(2), np.random.default_rng(0))
        assert steps.tolist() == [1] * 20 and truncated == 0

    def test_same_node_returns_zero(self):
        steps, _ = _run_walks(build_cycle(5, 1), [2], [2], _step_cap(5),
                              np.random.default_rng(0))
        assert steps.tolist() == [0]

    def test_cap_respected(self):
        # s can never reach t across components; the walk stops at the cap
        # and counts as truncated
        steps, truncated = _run_walks(two_edges(), [0], [2], 50,
                                      np.random.default_rng(1))
        assert steps.tolist() == [50] and truncated == 1


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
        _, truncated = _run_walks(g, np.zeros(draws), np.full(draws, t),
                                  1, np.random.default_rng(123 + t))
        count = draws - truncated
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
        est = estimate_mean_latency(build_cycle(3, 1), 100000, 42)
        assert est.mean == pytest.approx(2.0, rel=0.02)

    def test_c4_close_to_epd(self):
        est = estimate_mean_latency(build_cycle(4, 1), 100000, 42)
        assert est.mean == pytest.approx(10 / 3, rel=0.02)

    def test_seeded_determinism(self):
        g = build_torus(TorusSpec([4, 4], 1))
        assert (estimate_mean_latency(g, 20000, 7)
                == estimate_mean_latency(g, 20000, 7))

    def test_no_truncation_on_connected_graphs(self):
        for g in (build_cycle(5, 1), build_cycle(12, 2),
                  build_torus(TorusSpec([3, 3], 1))):
            est = estimate_mean_latency(g, 5000, 11)
            assert est.truncated == 0

    def test_sampled_pair_mode(self):
        # fewer trials than the 4032 ordered pairs: the walks go to distinct
        # sampled pairs, and the mean still lands on EPD
        g = build_torus(TorusSpec([8, 8], 1))
        est = estimate_mean_latency(g, 2000, 5)
        assert est.trials_used == 2000
        epd = expected_packet_delay(g)
        assert abs(est.mean - epd) <= 4 * est.ci_halfwidth / 1.96


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
    return generate_topology(WirelessConfig(n=30, eta=4), seed=seed,
                             resample_until_connected=100).graph


class TestPairSchedule:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_all_pairs_matches_enumeration(self, n):
        pairs = n * (n - 1)
        for trials in (1, pairs - 1 or 1, pairs, 3 * pairs + 5):
            for seed in (0, 9):
                got = _pair_schedule(n, trials, seed)
                want = enumerated_schedule(n, trials, seed)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n,trials", [(3, 5), (5, 1), (17, 100),
                                          (30, 100), (64, 4031)])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_short_run_pairs_distinct(self, n, trials, seed):
        starts, targets = _pair_schedule(n, trials, seed)
        assert starts.size == targets.size == trials
        assert np.all((0 <= starts) & (starts < n))
        assert np.all((0 <= targets) & (targets < n))
        assert np.all(starts != targets)
        assert np.unique(starts * n + targets).size == trials

    @pytest.mark.parametrize("seed", range(5))
    def test_short_run_starts_spread(self, seed):
        # 100 walks on 30 nodes: row-major order would start them all at
        # nodes 0-3
        starts, _ = _pair_schedule(30, 100, seed)
        assert np.unique(starts).size >= 20

    @pytest.mark.parametrize("placement_seed", [1, 4, 5])
    def test_short_run_mean_of_exact_hitting_times_is_epd(self,
                                                          placement_seed):
        # exact H averaged over the scheduled pairs of 200 seeds at 100 of
        # 870 pairs; the first 100 pairs in row-major order miss EPD by
        # about 3% on these graphs
        g = wireless_n30(placement_seed)
        h = hitting_times_linear_system(g)
        means = [h[_pair_schedule(g.n, 100, seed)].mean()
                 for seed in range(200)]
        assert np.mean(means) == pytest.approx(expected_packet_delay(g),
                                               rel=0.015)

    def test_all_pairs_memory_does_not_grow_with_n(self):
        # at the 4096-node cap a list of all ordered pairs takes ~0.8 GB
        n, trials = 4096, 10_000
        tracemalloc.start()
        try:
            starts, targets = _pair_schedule(n, trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.all(starts != targets)
        assert np.unique(starts * n + targets).size == trials


class TestGoldenStream:
    """Seeded MC values on binary graphs, pinned across kernel rewrites:
    one uniform per active walk per step, in ascending walk order."""

    def test_mean_latency_torus(self):
        est = estimate_mean_latency(build_torus(TorusSpec([4, 4], 1)),
                                    20000, 7)
        assert est.mean == 18.29895
        assert est.ci_halfwidth == 0.25444183905803996

    def test_hitting_cycle(self):
        est = estimate_hitting(build_cycle(12, 2), 0, 5, 5000, 3)
        assert est.mean == 18.1266

    def test_simulate_walk(self):
        steps, _ = _run_walks(build_cycle(9, 1), [0], [4], _step_cap(9),
                              np.random.default_rng(11))
        assert steps.tolist() == [18]
