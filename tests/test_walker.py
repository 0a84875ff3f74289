import tracemalloc

import numpy as np
import pytest

from oppwalk.errors import EstimationError, ParameterError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import hitting_times, hitting_times_linear_system
from oppwalk.walker import (
    WalkConfig,
    _pair_rng,
    _pair_schedule,
    _walk_tables,
    estimate_hitting,
    estimate_mean_latency,
    simulate_walk,
)


def path2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestWalkConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(ParameterError):
            WalkConfig(trials=0)

    def test_rejects_bad_pair_mode(self):
        with pytest.raises(ParameterError):
            WalkConfig(trials=1, pair_mode="some-pairs")

    def test_sampled_needs_count(self):
        with pytest.raises(ParameterError):
            WalkConfig(trials=1, pair_mode="sampled")

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


class TestEstimateHitting:
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

    def test_pair_substreams_differ(self):
        cfg = WalkConfig(trials=5000, seed=42)
        g = build_cycle(6, 1)
        assert estimate_hitting(g, 0, 1, cfg) != estimate_hitting(g, 1, 2, cfg)

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
        target = hitting_times(g).h[0, 5]
        hits = 0
        for seed in range(100):
            est = estimate_hitting(g, 0, 5, WalkConfig(trials=2000, seed=seed))
            if abs(est.mean - target) <= est.ci_halfwidth:
                hits += 1
        assert hits >= 90

    def test_convergence_with_trials(self):
        g = build_cycle(6, 1)
        target = hitting_times_linear_system(g).h[0, 3]
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
        g = build_cycle(10, 1)
        cfg = WalkConfig(trials=20000, seed=5, pair_mode="sampled",
                         sample_pairs=30)
        est = estimate_mean_latency(g, cfg)
        assert est.trials_used == 20000
        assert est.mean > 0


def enumerated_schedule(n, config):
    """Reference schedule: list every ordered pair (row-major, s != t), or
    the sampled pairs, then take pair i mod len(pairs) for walk i."""
    if config.pair_mode == "all-pairs":
        s, t = np.divmod(np.arange(n * n), n)
        keep = s != t
        pairs = np.column_stack([s[keep], t[keep]])
    else:
        rng = _pair_rng(config.seed, n * n)
        s = rng.integers(0, n, size=config.sample_pairs)
        shift = rng.integers(1, n, size=config.sample_pairs)
        pairs = np.column_stack([s, (s + shift) % n])
    reps = np.arange(config.trials) % pairs.shape[0]
    return pairs[reps, 0], pairs[reps, 1]


class TestPairSchedule:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_all_pairs_matches_enumeration(self, n):
        pairs = n * (n - 1)
        for trials in (1, pairs - 1 or 1, pairs, 3 * pairs + 5):
            cfg = WalkConfig(trials=trials)
            got = _pair_schedule(n, cfg)
            want = enumerated_schedule(n, cfg)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n,trials,sample_pairs",
                             [(2, 5, 1), (10, 200, 30), (64, 1000, 2000)])
    def test_sampled_matches_enumeration(self, n, trials, sample_pairs):
        cfg = WalkConfig(trials=trials, seed=5, pair_mode="sampled",
                         sample_pairs=sample_pairs)
        got = _pair_schedule(n, cfg)
        want = enumerated_schedule(n, cfg)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.all(got[0] != got[1])

    def test_all_pairs_memory_does_not_grow_with_n(self):
        # at the 4096-node cap a list of all ordered pairs takes ~0.8 GB
        n, trials = 4096, 10_000
        tracemalloc.start()
        try:
            starts, targets = _pair_schedule(n, WalkConfig(trials=trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # walk 9999 is pair 2 * 4095 + 1809: s = 2, t = 1809 + 1 (skips s)
        assert (starts[-1], targets[-1]) == (2, 1810)


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
    target = hitting_times_linear_system(g).h
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
