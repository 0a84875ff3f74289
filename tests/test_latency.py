import mpmath
import numpy as np
import pytest

from oppwalk.errors import DisconnectedGraphError, ParameterError, ValidationError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import (
    cycle_latency_bounds,
    expected_packet_delay,
    hitting_times,
    hitting_times_linear_system,
    mean_latency_circulant,
    mean_latency_cycle,
    mean_latency_pinv,
    mean_latency_torus,
    torus_latency_bounds,
)
from oppwalk.spectral import cycle_laplacian_eigenvalues, pinv_trace
from oppwalk.wireless import WirelessConfig, generate_topology
from test_acceptance import ORACLE_CYCLE_CASES, ORACLE_TORUS_CASES


def two_component_graph():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return Graph(w)


def complete_graph(n):
    return Graph(np.ones((n, n)) - np.eye(n))


def mean_latency_spectral(g):
    """T = 2/(n-1) * Tr(L+) from the numeric Laplacian spectrum."""
    return 2.0 / (g.n - 1) * pinv_trace(np.linalg.eigvalsh(g.laplacian()))


def numeric_bounds(g):
    """(2/((n-1) lam_1), 2/lam_1) from the numeric algebraic connectivity."""
    lam1 = np.linalg.eigvalsh(g.laplacian())[1]
    return 2.0 / ((g.n - 1) * lam1), 2.0 / lam1


class TestMeanLatencySpectral:
    def test_k3(self):
        assert mean_latency_spectral(build_cycle(3, 1)) == pytest.approx(
            2 / 3, abs=1e-12)

    def test_c4(self):
        assert mean_latency_spectral(build_cycle(4, 1)) == pytest.approx(
            5 / 6, abs=1e-12)

    @pytest.mark.parametrize("n,r", [(6, 1), (15, 3), (40, 5)])
    def test_matches_pseudoinverse_oracle(self, n, r):
        g = build_cycle(n, r)
        assert mean_latency_spectral(g) == pytest.approx(
            mean_latency_pinv(g), abs=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            mean_latency_spectral(two_component_graph())


class TestMeanLatencyCycle:
    def test_k3(self):
        assert mean_latency_cycle(3, 1) == pytest.approx(2 / 3, abs=1e-12)

    def test_c4(self):
        assert mean_latency_cycle(4, 1) == pytest.approx(5 / 6, abs=1e-12)

    @pytest.mark.parametrize("n,r", [(10, 1), (25, 4), (64, 10), (101, 2)])
    def test_matches_spectral_route(self, n, r):
        assert mean_latency_cycle(n, r) == pytest.approx(
            mean_latency_spectral(build_cycle(n, r)), abs=1e-9)

    def test_decreasing_in_r_n300(self):
        vals = [mean_latency_cycle(300, r) for r in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_n_fixed_r(self):
        vals = [mean_latency_cycle(n, 1) for n in range(10, 200, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMeanLatencyTorus:
    def test_3x3(self):
        assert mean_latency_torus(TorusSpec([3, 3], 1)) == pytest.approx(
            0.5, abs=1e-12)
        g = build_torus(TorusSpec([3, 3], 1))
        assert mean_latency_pinv(g) == pytest.approx(0.5, abs=1e-9)

    def test_m1_equals_cycle(self):
        assert mean_latency_torus(TorusSpec([11], 2)) == pytest.approx(
            mean_latency_cycle(11, 2), abs=1e-12)

    @pytest.mark.parametrize("dims,r", [([4, 4], 1), ([5, 7], 1),
                                        ([9, 9], 2), ([4, 5, 6], 1)])
    def test_matches_spectral_route(self, dims, r):
        spec = TorusSpec(dims, r)
        assert mean_latency_torus(spec) == pytest.approx(
            mean_latency_spectral(build_torus(spec)), abs=1e-9)

    def test_decreases_with_dimension_and_r(self):
        dims = [16, 18, 20, 22]
        for r in range(1, 5):
            series = [mean_latency_torus(TorusSpec(dims[:m], r))
                      for m in range(1, 5)]
            assert all(a > b for a, b in zip(series, series[1:]))
        for m in range(1, 5):
            series = [mean_latency_torus(TorusSpec(dims[:m], r))
                      for r in range(1, 5)]
            assert all(a > b for a, b in zip(series, series[1:]))


class TestLatencyBounds:
    def test_k3_hits_upper(self):
        lower, upper = cycle_latency_bounds(3, 1)
        assert (lower, upper) == pytest.approx(numeric_bounds(build_cycle(3, 1)),
                                               abs=1e-12)
        assert (lower, upper) == pytest.approx((1 / 3, 2 / 3), abs=1e-12)
        assert mean_latency_cycle(3, 1) == pytest.approx(upper, abs=1e-12)

    def test_sandwich_c300(self):
        lower, upper = cycle_latency_bounds(300, 1)
        t = mean_latency_cycle(300, 1)
        assert lower <= t <= upper

    @pytest.mark.parametrize("n,r", [(12, 1), (30, 3), (64, 9), (300, 5)])
    def test_closed_form_equals_spectrum_route(self, n, r):
        lam1 = np.sort(cycle_laplacian_eigenvalues(n, r))[1]
        lower, upper = cycle_latency_bounds(n, r)
        assert upper == pytest.approx(2 / lam1, abs=1e-9)
        assert lower == pytest.approx(2 / ((n - 1) * lam1), abs=1e-9)

    def test_torus_bounds_sandwich(self):
        spec = TorusSpec([6, 8], 1)
        lower, upper = torus_latency_bounds(spec)
        t = mean_latency_torus(spec)
        assert lower <= t <= upper
        assert (lower, upper) == pytest.approx(
            numeric_bounds(build_torus(spec)), rel=1e-12)

    def test_wireless_graph_sandwich(self):
        topo = generate_topology(WirelessConfig(n=20), seed=9,
                                 resample_until_connected=50)
        lower, upper = numeric_bounds(topo.graph)
        assert lower <= mean_latency_pinv(topo.graph) <= upper


class TestHittingTimes:
    def test_k3_all_two(self):
        h = hitting_times(build_cycle(3, 1))
        off = h[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0, atol=1e-10)
        assert np.allclose(np.diag(h), 0.0)
        assert not h.flags.writeable

    def test_c4_adjacent_and_antipodal(self):
        h = hitting_times(build_cycle(4, 1))
        assert h[0, 1] == pytest.approx(3.0, abs=1e-10)
        assert h[0, 2] == pytest.approx(4.0, abs=1e-10)

    def test_weighted_two_node_graph(self):
        for w in (0.1, 1.0, 7.3):
            g = Graph(np.array([[0.0, w], [w, 0.0]]))
            h = hitting_times(g)
            assert h[0, 1] == pytest.approx(1.0, abs=1e-10)
            assert h[1, 0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("builder", [
        lambda: build_cycle(7, 1),
        lambda: build_cycle(12, 3),
        lambda: build_torus(TorusSpec([4, 4], 1)),
        lambda: generate_topology(WirelessConfig(n=12), seed=2,
                                  resample_until_connected=50).graph,
    ])
    def test_spectral_matches_linear_system(self, builder):
        g = builder()
        a = hitting_times(g)
        b = hitting_times_linear_system(g)
        assert np.abs(a - b).max() <= 1e-8 * b.max()

    def test_nonnegative_and_asymmetric_ok(self):
        g = build_cycle(9, 2)
        h = hitting_times(g)
        assert h.min() >= -1e-10

    def test_commute_symmetry_under_rotation(self):
        g = build_cycle(8, 2)
        h = hitting_times(g)
        commute = h + h.T
        perm = (np.arange(8) + 1) % 8
        assert np.abs(commute - commute[np.ix_(perm, perm)]).max() < 1e-8

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            hitting_times(two_component_graph())

    @pytest.mark.parametrize("route", [hitting_times,
                                       hitting_times_linear_system])
    def test_single_node_rejected(self, route):
        with pytest.raises(ParameterError, match="n >= 2"):
            route(Graph(np.zeros((1, 1))))


class TestExpectedPacketDelay:
    def test_k3(self):
        assert expected_packet_delay(build_cycle(3, 1)) == pytest.approx(
            2.0, abs=1e-10)

    def test_c4(self):
        assert expected_packet_delay(build_cycle(4, 1)) == pytest.approx(
            10 / 3, abs=1e-10)

    def test_linear_system_route(self):
        g = build_cycle(4, 1)
        assert expected_packet_delay(g, "linear-system") == pytest.approx(
            10 / 3, abs=1e-10)

    @pytest.mark.parametrize("builder", [
        lambda: build_cycle(3, 1),
        lambda: build_cycle(4, 1),
        lambda: build_cycle(10, 2),
        lambda: build_torus(TorusSpec([4, 4], 1)),
    ])
    def test_regular_graph_relation_to_pinv_trace(self, builder):
        # the commute-time identity EPD = vol * Tr(L+) / (n-1), here against
        # the mean-latency route T = 2 * Tr(L+) / (n-1)
        g = builder()
        two_m = g.degrees.sum()
        expected = two_m * mean_latency_spectral(g) / 2
        assert expected_packet_delay(g) == pytest.approx(expected, rel=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            expected_packet_delay(build_cycle(4, 1), "guesswork")


def pinv_trace_reference(g):
    """Tr(L+) from the SVD-based Moore-Penrose pseudoinverse."""
    return float(np.trace(np.linalg.pinv(g.laplacian())))


def first_step_reference(g):
    """Hitting times from one first-step solve per target t:
    (I - P restricted to s != t) h = 1 with P = D^{-1} W."""
    n = g.n
    P = g.weights / g.degrees[:, None]
    h = np.zeros((n, n))
    for t in range(n):
        idx = np.flatnonzero(np.arange(n) != t)
        A = np.eye(n - 1) - P[np.ix_(idx, idx)]
        h[idx, t] = np.linalg.solve(A, np.ones(n - 1))
    return h


def weighted_random_graph(n=25, seed=3):
    """Connected graph with random positive weights: a ring plus random
    chords."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < 0.2), 1)
    w = w + w.T
    ring, nxt = np.arange(n), (np.arange(n) + 1) % n
    w[ring, nxt] = w[nxt, ring] = rng.uniform(0.1, 5.0, n)
    return Graph(w)


ORACLE_GRAPHS = [
    lambda: build_cycle(7, 1),
    lambda: build_cycle(40, 5),
    lambda: build_torus(TorusSpec([4, 4], 1)),
    lambda: build_torus(TorusSpec([5, 7], 2)),
    lambda: build_torus(TorusSpec([3, 4, 5], 1)),
    lambda: generate_topology(WirelessConfig(n=20), seed=9,
                              resample_until_connected=50).graph,
    weighted_random_graph,
]


class TestDenseOracles:
    @pytest.mark.parametrize("builder", ORACLE_GRAPHS)
    def test_mean_latency_pinv_matches_pseudoinverse(self, builder):
        g = builder()
        expected = 2.0 / (g.n - 1) * pinv_trace_reference(g)
        assert mean_latency_pinv(g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("builder", ORACLE_GRAPHS)
    def test_hitting_times_match_first_step_solves(self, builder):
        g = builder()
        h = hitting_times_linear_system(g)
        np.testing.assert_allclose(h, first_step_reference(g),
                                   rtol=1e-12, atol=0.0)
        assert not np.diag(h).any()
        assert not h.flags.writeable

    @pytest.mark.parametrize("oracle", [mean_latency_pinv,
                                        hitting_times_linear_system])
    def test_disconnected_rejected(self, oracle):
        with pytest.raises(DisconnectedGraphError):
            oracle(two_component_graph())


def circulant_graph(n, weights):
    """Cycle with weight weights[d-1] between nodes at circular distance d."""
    w = np.zeros((n, n))
    nodes = np.arange(n)
    for d, weight in enumerate(weights, 1):
        w[nodes, (nodes + d) % n] = w[(nodes + d) % n, nodes] = weight
    return Graph(w)


def cycle_reweighted(n, u, weight):
    """The n-cycle with weight `weight` on the edge (u, u+1); 0 removes it."""
    w = build_cycle(n, 1).weights.copy()
    w[u, u + 1] = w[u + 1, u] = weight
    return Graph(w)


class TestCirculantOracle:
    """The FFT of the built graph against the closed forms and the dense
    inverse."""

    @pytest.mark.parametrize("n,r", ORACLE_CYCLE_CASES)
    def test_cycle(self, n, r):
        g = build_cycle(n, r)
        t = mean_latency_circulant(g, (n,))
        assert t == pytest.approx(mean_latency_cycle(n, r), rel=1e-12)
        assert t == pytest.approx(mean_latency_pinv(g), rel=1e-12)

    @pytest.mark.parametrize("dims,r", ORACLE_TORUS_CASES)
    def test_torus(self, dims, r):
        spec = TorusSpec(dims, r)
        g = build_torus(spec)
        t = mean_latency_circulant(g, dims)
        assert t == pytest.approx(mean_latency_torus(spec), rel=1e-12)
        assert t == pytest.approx(mean_latency_pinv(g), rel=1e-12)

    def test_weighted_circulant(self):
        g = circulant_graph(11, [1.0, 2.0])
        assert mean_latency_circulant(g, (11,)) == pytest.approx(
            mean_latency_spectral(g), rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: (cycle_reweighted(10, 3, 0.0), (10,)),
        lambda: (cycle_reweighted(10, 3, 2.0), (10,)),
        lambda: (generate_topology(WirelessConfig(n=20), seed=9,
                                   resample_until_connected=50).graph, (20,)),
        lambda: (build_torus(TorusSpec((10, 8), 1)), (8, 10)),
        lambda: (build_cycle(10, 1), (5, 3)),
    ], ids=["edge-removed", "edge-reweighted", "wireless", "swapped-axes",
            "size-mismatch"])
    def test_not_circulant_rejected(self, make):
        g, dims = make()
        with pytest.raises(ValidationError):
            mean_latency_circulant(g, dims)

    def test_disconnected_rejected(self):
        # offsets +-2 on 8 nodes: the even and the odd nodes
        with pytest.raises(DisconnectedGraphError):
            mean_latency_circulant(circulant_graph(8, [0.0, 1.0]), (8,))


def irregular_weighted_graph():
    """Nine nodes, random weights in [0, 1), uneven degrees."""
    rng = np.random.default_rng(0)
    w = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.6), 1)
    w = w + w.T
    w[w.sum(axis=1) == 0, 0] = 1.0  # keep every node attached
    w[0, w.sum(axis=1) == 0] = 1.0
    return Graph(0.5 * (w + w.T))


EPD_GRAPHS = ORACLE_GRAPHS + [
    lambda: build_cycle(64, 10),
    lambda: build_torus(TorusSpec([8, 8], 2)),
    lambda: complete_graph(10),
    irregular_weighted_graph,
    lambda: weighted_random_graph(n=40, seed=11),
] + [
    lambda seed=seed: generate_topology(WirelessConfig(n=30), seed=seed,
                                        resample_until_connected=100).graph
    for seed in range(5)
]


class TestCommuteTimeIdentity:
    """EPD = vol * Tr(L+) / (n-1): the sum of H_st over ordered pairs is
    vol * n * Tr(L+) (Chandra et al. 1989; Tetali 1991)."""

    @pytest.mark.parametrize("builder", EPD_GRAPHS)
    def test_spectral_epd_equals_mean_hitting_time(self, builder):
        g = builder()
        n = g.n
        epd = expected_packet_delay(g)
        per_pair = hitting_times(g).sum() / (n * (n - 1))
        assert epd == pytest.approx(per_pair, rel=1e-10)
        assert epd == pytest.approx(expected_packet_delay(g, "linear-system"),
                                    rel=1e-10)

    @pytest.mark.parametrize("n,r", [(3, 1), (10, 2), (64, 1), (101, 7),
                                     (300, 5)])
    def test_cycle_epd_is_edge_count_times_t(self, n, r):
        assert expected_packet_delay(build_cycle(n, r)) == pytest.approx(
            n * r * mean_latency_cycle(n, r), rel=1e-11)

    @pytest.mark.parametrize("dims,r", [((4, 4), 1), ((5, 7), 2),
                                        ((3, 4, 5), 1), ((16, 18), 1)])
    def test_torus_epd_is_edge_count_times_t(self, dims, r):
        spec = TorusSpec(dims, r)
        expected = spec.n * len(dims) * r * mean_latency_torus(spec)
        assert expected_packet_delay(build_torus(spec)) == pytest.approx(
            expected, rel=1e-11)

    @pytest.mark.parametrize("method", ["spectral", "linear-system"])
    def test_disconnected_rejected(self, method):
        with pytest.raises(DisconnectedGraphError):
            expected_packet_delay(two_component_graph(), method)

    def test_single_node_rejected(self):
        with pytest.raises(ParameterError):
            expected_packet_delay(Graph(np.zeros((1, 1))))


def mp_cycle_eigenvalues(n, r):
    """Cycle Laplacian eigenvalues j = 0..n-1 at 40 significant digits."""
    with mpmath.workdps(40):
        return [2 * r - 2 * mpmath.fsum(mpmath.cos(2 * mpmath.pi * i * j / n)
                                        for i in range(1, r + 1))
                for j in range(n)]


def mp_mean_latency(eigenvalues):
    """2/(n-1) * sum of 1/lam over the nonzero eigenvalues, at 40 digits."""
    with mpmath.workdps(40):
        return 2 * mpmath.fsum(1 / lam for lam in eigenvalues[1:]) / (
            len(eigenvalues) - 1)


class TestCycleClosedFormExact:
    """The sin^2 form of the cycle spectrum against exact references."""

    # T = (n+1)/6 at r = 1, from the cycle's Kirchhoff index n(n^2-1)/12
    # (Klein & Randic 1993).  Each bound is twice the gap measured with the
    # sin^2 form summed in numpy: 7.7e-14, 4.4e-13, 9.5e-12 and 2.8e-11.
    @pytest.mark.parametrize("n,bound", [(10**3, 1.5e-13), (10**4, 9e-13),
                                         (10**5, 1.9e-11), (10**6, 5.6e-11)])
    def test_r1_is_n_plus_1_over_6(self, n, bound):
        assert abs(mean_latency_cycle(n, 1) - (n + 1) / 6) <= bound

    @pytest.mark.parametrize("n,r", [(7, 1), (30, 4), (257, 3), (1000, 7),
                                     (4096, 1)])
    def test_matches_mpmath(self, n, r):
        exact = mp_cycle_eigenvalues(n, r)
        vals = cycle_laplacian_eigenvalues(n, r)
        assert vals[0] == 0.0
        np.testing.assert_allclose(vals[1:], [float(v) for v in exact[1:]],
                                   rtol=1e-14, atol=0.0)
        t = float(mp_mean_latency(exact))
        assert mean_latency_cycle(n, r) == pytest.approx(t, rel=1e-14)
        lam1 = float(min(exact[1:]))
        lower, upper = cycle_latency_bounds(n, r)
        assert lower == pytest.approx(2 / ((n - 1) * lam1), rel=1e-14)
        assert upper == pytest.approx(2 / lam1, rel=1e-14)

    @pytest.mark.parametrize("dims,r", [((3, 4, 5), 1), ((16, 18), 2),
                                        ((1000,), 1)])
    def test_torus_matches_mpmath(self, dims, r):
        exact = [mpmath.mpf(0)]
        for k in dims:
            axis = mp_cycle_eigenvalues(k, r)
            exact = [a + b for a in exact for b in axis]
        spec = TorusSpec(dims, r)
        t = float(mp_mean_latency(exact))
        assert mean_latency_torus(spec) == pytest.approx(t, rel=1e-14)
        lam1 = float(min(exact[1:]))
        assert torus_latency_bounds(spec)[1] == pytest.approx(2 / lam1,
                                                              rel=1e-14)

    @pytest.mark.parametrize("n,r", [(8, 1), (40, 5), (200, 1), (301, 10),
                                     (500, 1), (500, 3)])
    def test_cycle_dense_oracle(self, n, r):
        assert mean_latency_pinv(build_cycle(n, r)) == pytest.approx(
            mean_latency_cycle(n, r), rel=1e-11)

    @pytest.mark.parametrize("dims,r", [((4, 4), 1), ((5, 7), 2),
                                        ((10, 8), 1), ((20, 30), 2),
                                        ((3, 4, 5), 1)])
    def test_torus_dense_oracle(self, dims, r):
        spec = TorusSpec(dims, r)
        assert mean_latency_pinv(build_torus(spec)) == pytest.approx(
            mean_latency_torus(spec), rel=1e-11)
