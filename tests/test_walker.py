import tracemalloc

import numpy as np
import pytest

from oppwalk.errors import EstimationError, ParameterError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import (
    expected_packet_delay,
    hitting_times,
    hitting_times_linear_system,
)
from oppwalk.walker import (
    WalkConfig,
    _estimate,
    _pair_rng,
    _pair_schedule,
    _run_walks,
    _walk_tables,
    estimate_mean_latency,
    simulate_walk,
)
from oppwalk.wireless import WirelessConfig, generate_topology


def path2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def estimate_hitting(g, s, t, config):
    """Monte-Carlo hitting time of one ordered pair: config.trials walks
    from s to t in one batch of the walker's kernel, drawn from the pair's
    own substream (spawn key s * n + t)."""
    steps, truncated = _run_walks(
        g, np.full(config.trials, s), np.full(config.trials, t),
        config.resolved_max_steps(g.n), _pair_rng(config.seed, s * g.n + t))
    return _estimate(steps, truncated)


class TestWalkConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ParameterError):
            WalkConfig(trials=0)

    def test_default_cap(self):
        assert WalkConfig(trials=1).resolved_max_steps(30) == 100 * 30 * 30


class TestSimulateWalk:
    def test_two_node_path_always_one_step(self):
        g = path2()
        rng = np.random.default_rng(0)
        assert all(simulate_walk(g, 0, 1, rng) == 1 for _ in range(20))

    def test_same_node_returns_zero(self):
        rng = np.random.default_rng(0)
        assert simulate_walk(build_cycle(5, 1), 2, 2, rng) == 0

    def test_invalid_node_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            simulate_walk(build_cycle(5, 1), 0, 9, rng)

    def test_cap_respected(self):
        # s can never reach t across components; walk stops at the cap
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = Graph(w)
        rng = np.random.default_rng(1)
        assert simulate_walk(g, 0, 2, rng, max_steps=50) == 50

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_rejects_bad_cap(self, max_steps):
        rng = np.random.default_rng(11)
        with pytest.raises(ParameterError):
            simulate_walk(build_cycle(9, 1), 0, 4, rng, max_steps=max_steps)


class TestEstimateHitting:
    """Per-pair walks of the kernel against exact hitting times."""

    def test_k3_sample_mean(self):
        est = estimate_hitting(build_cycle(3, 1), 0, 1,
                               WalkConfig(trials=100000, seed=42))
        assert 1.96 <= est.mean <= 2.04
        assert est.truncated == 0

    def test_c4_antipodal(self):
        est = estimate_hitting(build_cycle(4, 1), 0, 2,
                               WalkConfig(trials=100000, seed=42))
        assert est.mean == pytest.approx(4.0, rel=0.02)

    def test_seeded_determinism(self):
        cfg = WalkConfig(trials=5000, seed=42)
        g = build_cycle(3, 1)
        a = estimate_hitting(g, 0, 1, cfg)
        b = estimate_hitting(g, 0, 1, cfg)
        assert a == b

    def test_all_truncated_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(EstimationError):
            estimate_hitting(Graph(w), 0, 2,
                             WalkConfig(trials=10, seed=1, max_steps=20))

    def test_ci_calibration_c8_2(self):
        # 95% CI should cover the analytic value in >= 90 of 100 seeds
        g = build_cycle(8, 2)
        target = hitting_times(g)[0, 5]
        hits = 0
        for seed in range(100):
            est = estimate_hitting(g, 0, 5, WalkConfig(trials=2000, seed=seed))
            if abs(est.mean - target) <= est.ci_halfwidth:
                hits += 1
        assert hits >= 90

    def test_convergence_with_trials(self):
        g = build_cycle(6, 1)
        target = hitting_times_linear_system(g)[0, 3]
        errors, cis = [], []
        for trials in (1000, 10000, 100000):
            est = estimate_hitting(g, 0, 3, WalkConfig(trials=trials, seed=3))
            errors.append(abs(est.mean - target))
            cis.append(est.ci_halfwidth)
        assert cis[0] > cis[1] > cis[2]
        assert errors[2] <= cis[2] * 3


class TestEstimateMeanLatency:
    def test_k3_close_to_epd(self):
        est = estimate_mean_latency(build_cycle(3, 1),
                                    WalkConfig(trials=100000, seed=42))
        assert est.mean == pytest.approx(2.0, rel=0.02)

    def test_c4_close_to_epd(self):
        est = estimate_mean_latency(build_cycle(4, 1),
                                    WalkConfig(trials=100000, seed=42))
        assert est.mean == pytest.approx(10 / 3, rel=0.02)

    def test_seeded_determinism(self):
        g = build_torus(TorusSpec([4, 4], 1))
        cfg = WalkConfig(trials=20000, seed=7)
        assert estimate_mean_latency(g, cfg) == estimate_mean_latency(g, cfg)

    def test_no_truncation_on_connected_graphs(self):
        for g in (build_cycle(5, 1), build_cycle(12, 2),
                  build_torus(TorusSpec([3, 3], 1))):
            est = estimate_mean_latency(g, WalkConfig(trials=5000, seed=11))
            assert est.truncated == 0

    def test_sampled_pair_mode(self):
        # fewer trials than the 4032 ordered pairs: the walks go to distinct
        # sampled pairs, and the mean still lands on EPD
        g = build_torus(TorusSpec([8, 8], 1))
        est = estimate_mean_latency(g, WalkConfig(trials=2000, seed=5))
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


def weighted4():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 2.0
    w[0, 3] = w[3, 0] = 3.0
    w[1, 2] = w[2, 1] = 1.0
    return Graph(w)


def test_uniform_next_hop_frequencies():
    # empirical next-hop distribution from a fixed node, drawn through the
    # alias table, matches P's row within 3-sigma multinomial bounds over
    # 1e5 draws
    g = weighted4()
    tables = _walk_tables(g)
    assert tables.prob is not None
    rng = np.random.default_rng(123)
    draws = 100000
    chosen = tables.next_hops(np.zeros(draws, dtype=np.intp), rng.random(draws))
    probs = g.weights[0] / g.degrees[0]
    for node in (1, 2, 3):
        count = int((chosen == node).sum())
        expected = draws * probs[node]
        sigma = np.sqrt(draws * probs[node] * (1 - probs[node]))
        assert abs(count - expected) <= 3 * sigma
    assert set(np.unique(chosen)) == {1, 2, 3}


def test_alias_table_reproduces_transition_rows():
    # column c of row u sends prob/d to its own neighbor and the rest to
    # its alias; summed over the row this is exactly P[u]
    g = weighted4()
    indptr, indices = g.csr
    prob, alias = g.alias_table
    for u in range(g.n):
        d = indptr[u + 1] - indptr[u]
        row = np.zeros(g.n)
        for k in range(indptr[u], indptr[u + 1]):
            row[indices[k]] += prob[k] / d
            row[alias[k]] += (1.0 - prob[k]) / d
        np.testing.assert_allclose(row, g.weights[u] / g.degrees[u],
                                   atol=1e-15)


def test_weighted_hitting_matches_linear_system():
    g = weighted4()
    target = hitting_times_linear_system(g)
    for s, t in ((0, 1), (1, 3), (3, 2)):
        est = estimate_hitting(g, s, t, WalkConfig(trials=40000, seed=9))
        assert abs(est.mean - target[s, t]) <= 4 * est.ci_halfwidth / 1.96


class TestGoldenStream:
    """Seeded MC values on binary graphs, pinned across kernel rewrites:
    one uniform per active walk per step, in ascending walk order."""

    def test_mean_latency_torus(self):
        est = estimate_mean_latency(build_torus(TorusSpec([4, 4], 1)),
                                    WalkConfig(trials=20000, seed=7))
        assert est.mean == 18.29895
        assert est.ci_halfwidth == 0.25444183905803996

    def test_hitting_cycle(self):
        est = estimate_hitting(build_cycle(12, 2), 0, 5,
                               WalkConfig(trials=5000, seed=3))
        assert est.mean == 18.1266

    def test_simulate_walk(self):
        assert simulate_walk(build_cycle(9, 1), 0, 4,
                             np.random.default_rng(11)) == 18
