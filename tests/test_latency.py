import gc
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oppwalk import cli, latency, walker
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
from oppwalk.spectral import (
    cycle_laplacian_eigenvalues,
    symmetric_eigendecomposition,
    torus_laplacian_eigenvalues,
)
from oppwalk.wireless import WirelessConfig, generate_topology
from test_acceptance import ORACLE_CYCLE_CASES, ORACLE_TORUS_CASES

# Relative threshold below which pinv_trace counts an eigenvalue as the
# zero mode.
ZERO_EIGENVALUE_RTOL = 1e-9


def pinv_trace(vals) -> float:
    """Trace of the Laplacian pseudoinverse from its eigenvalues, by the
    rule the program used before it took the zero mode by index: the sum
    of reciprocal eigenvalues above a relative tolerance.  Requires exactly
    one zero mode (connected graph)."""
    vals = np.asarray(vals, dtype=float)
    size = np.abs(vals)
    zero = size <= ZERO_EIGENVALUE_RTOL * size.max()
    nzero = np.count_nonzero(zero)
    if nzero > 1:
        raise DisconnectedGraphError(
            f"{nzero} near-zero eigenvalues: graph is disconnected")
    if nzero == 0:
        raise ValidationError("no zero eigenvalue: not a Laplacian spectrum")
    return float(np.sum(1.0 / vals[~zero]))


def two_component_graph():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return Graph(w)


def complete_graph(n):
    return Graph(np.ones((n, n)) - np.eye(n))


def linear_system_epd(g):
    """EPD as the mean off-diagonal fundamental-matrix hitting time."""
    h = hitting_times_linear_system(g)
    n = g.n
    return h.sum() / (n * (n - 1))


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

    @pytest.mark.parametrize("dims,r", [([11], 2), ([300], 5), ([4, 5, 6], 1),
                                        ([1000, 1000], 5), ([16, 18, 20], 4)])
    def test_bit_identical_to_sum_of_reciprocals(self, dims, r):
        # the reciprocals are taken in place; same values, same order
        spec = TorusSpec(dims, r)
        vals = torus_laplacian_eigenvalues(spec)
        expected = 2.0 / (spec.n - 1) * float(np.sum(1.0 / vals[1:]))
        assert mean_latency_torus(spec) == expected

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


def full_array_latency(spec):
    """T from the whole spectrum at once, summed by one np.sum."""
    vals = torus_laplacian_eigenvalues(spec)
    return 2.0 / (spec.n - 1) * float(np.sum(1.0 / vals[1:]))


def traced_peak(f, *args):
    """tracemalloc peak in bytes of one call f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLeafByLeafSum:
    """mean_latency_torus sums at most latency._LEAF eigenvalues at a time,
    in np.sum's own pairwise order, so its result is the whole-array sum's
    double in O(m * _LEAF) memory."""

    @pytest.mark.parametrize("leaf", [128, latency._LEAF])
    def test_leaf_replay_is_numpy_sum(self, monkeypatch, leaf):
        # Canary for the summation order: a numpy that splits its pairwise
        # sum by another rule fails here, by name, before any analytic
        # byte moves.
        monkeypatch.setattr(latency, "_LEAF", leaf)
        rng = np.random.default_rng(18)
        lengths = {c + d for c in (8, 128, leaf, 2 * leaf)
                   for d in (-8, -1, 0, 1, 8)}
        for size in sorted(lengths):
            # magnitudes over 16 decades make every order give its own sum
            a = rng.random(size) * 10.0 ** rng.integers(-8, 8, size)
            replay = latency._pairwise_sum(
                lambda start, count: a[start:start + count], 0, size)
            assert replay == np.sum(a), size
        assert np.cumsum(a)[-1] != np.sum(a)  # the data tells orders apart

    @pytest.mark.parametrize("dims,r", [
        ((3, 200003), 1),        # last axis longer than a leaf
        ((7, 70001), 3),         # ... with leaves that span two rows
        ((200003, 3), 1),        # many rows per leaf
        ((300, 301), 2),
        ((8, 9, 10, 100), 1),    # 4-D
        ((65536,), 1),           # n - 1 = 65535: one leaf, one value short
        ((65537,), 1),           # n - 1 = 65536: exactly one leaf
        ((65538,), 1),           # n - 1 = 65537: one value over one leaf
        ((256, 256), 1),         # n - 1 = 65535 on a torus
        ((3, 21846), 1),         # n - 1 = 65537 on a torus
        ((1024, 128), 1),        # leaves end on row boundaries
        ((70001, 3, 4), 1),      # a long axis first in 3-D
        ((3, 70001, 4), 1),      # ... and in the middle
    ])
    def test_bit_identical_across_leaves(self, dims, r):
        spec = TorusSpec(dims, r)
        assert mean_latency_torus(spec) == full_array_latency(spec)

    @pytest.mark.parametrize("dims,r", [
        ((129,), 1), ((1000,), 4), ((5, 200), 2), ((200, 5), 1),
        ((13, 17), 1), ((3, 5, 7, 11), 1), ((9, 9, 9), 4),
        ((300, 3, 4), 1)])
    def test_bit_identical_with_small_leaves(self, monkeypatch, dims, r):
        # a 128-value leaf puts many leaf boundaries into small tori
        monkeypatch.setattr(latency, "_LEAF", 128)
        spec = TorusSpec(dims, r)
        assert mean_latency_torus(spec) == full_array_latency(spec)

    def test_fig6_torus_memory(self):
        # the 1000 x 1000 spectrum alone is 8 MB
        spec = TorusSpec((1000, 1000), 5)
        assert traced_peak(mean_latency_torus, spec) < 2e6

    def test_long_cycle_memory(self):
        # 4e6 eigenvalues would take 32 MB
        assert traced_peak(mean_latency_cycle, 4 * 10**6, 1) < 4e6

    def test_small_cycle_memory(self):
        # a leaf holds at most n - 1 values, so a 10-node cycle's buffer is
        # sized by n, not by _LEAF (a 512 KB buffer for 9 values)
        assert traced_peak(mean_latency_cycle, 10, 1) < 64 * 1024

    def test_no_cyclic_garbage(self):
        # a reference cycle per call (a self-recursive closure) waits for
        # the cyclic collector, whose extra full passes slowed the
        # bounds-check step of a fresh process by over a millisecond
        gc.collect()
        mean_latency_torus(TorusSpec((5, 6, 7), 1))
        assert gc.collect() == 0

    def test_long_first_axis_memory(self):
        # the first axis's spectrum alone is 16 MB, the whole one 48 MB
        spec = TorusSpec((2_000_000, 3), 1)
        assert traced_peak(mean_latency_torus, spec) < 2e6

    @pytest.mark.parametrize("n", [4 * 10**6, 10**7])
    def test_long_cycle_is_n_plus_1_over_6(self, n):
        assert mean_latency_cycle(n, 1) == pytest.approx((n + 1) / 6,
                                                         rel=1e-12)


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
        topo = generate_topology(WirelessConfig(n=20), seed=9)
        lower, upper = numeric_bounds(topo.graph)
        assert lower <= mean_latency_pinv(topo.graph) <= upper


def direct_bounds(spec):
    """The bounds by their direct rule: lam_1 of each axis from its own
    j = 1 evaluation, the smallest over the axes."""
    lam1 = min(float(cycle_laplacian_eigenvalues(k, spec.r, [1])[0])
               for k in spec.dims)
    return 2.0 / ((spec.n - 1) * lam1), 2.0 / lam1


@pytest.fixture
def cold_axis_cache():
    latency._axis_spectrum.cache_clear()
    yield latency._axis_spectrum
    latency._axis_spectrum.cache_clear()


class TestAxisSpectrumCache:
    """Each axis spectrum (k <= _LEAF) is evaluated once per (k, r) while it
    stays in a small cache; mean_latency_torus sums from it and
    torus_latency_bounds reads lam_1 as its element 1."""

    def test_bounds_match_the_direct_rule_bit_for_bit(self):
        # every valid (k, r) up to k = 100 and, up to k = 300, the radii
        # 1..3 and the largest (2r + 1 = k or k - 1); all 22,350 valid
        # pairs up to k = 300 also matched, in 17 s
        pairs = {(k, r) for k in range(3, 301)
                 for r in {1, 2, 3, (k - 1) // 2} if 2 * r + 1 <= k}
        pairs |= {(k, r) for k in range(3, 101)
                  for r in range(1, (k - 1) // 2 + 1)}
        specs = [TorusSpec((k,), r) for k, r in sorted(pairs)] + [
            TorusSpec((1000, 1000), 5), TorusSpec((300, 7), 3),
            TorusSpec((16, 18, 20), 4), TorusSpec((9, 5, 7), 2),
            # an axis above _LEAF keeps its j = 1 evaluation
            TorusSpec((3, 70001), 1), TorusSpec((200003,), 7)]
        for spec in specs:
            assert torus_latency_bounds(spec) == direct_bounds(spec), spec

    def test_cached_spectra_are_fresh_and_read_only(self, cold_axis_cache):
        for k, r in [(3, 1), (150, 10), (1000, 5), (latency._LEAF, 2)]:
            vals = cold_axis_cache(k, r)
            assert not vals.flags.writeable
            with pytest.raises(ValueError):
                vals[0] = 1.0
            assert vals.tobytes() == cycle_laplacian_eigenvalues(k, r).tobytes()
            assert cold_axis_cache(k, r) is vals

    def test_sweep_leaves_the_cache_at_its_bound(self, cold_axis_cache):
        # 100 distinct (k, r); the docstring's bound is 32 entries of at
        # most _LEAF values, 16 MiB
        for k in range(3, 103):
            mean_latency_torus(TorusSpec((k,), 1))
        info = cold_axis_cache.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (100, 32, 32)
        assert info.maxsize * latency._LEAF * 8 == 16 * 2**20

    @pytest.mark.parametrize("dims,r", [
        ((1000, 1000), 5),           # fig6: its two axes are one
        ((16, 18, 20, 22), 1),
        ((3, 70001), 1),             # the long axis is never made whole
    ])
    def test_each_axis_evaluated_once(self, monkeypatch, cold_axis_cache,
                                      dims, r):
        # the cache calls cycle_laplacian_eigenvalues by its name in
        # latency, so a wrapper there, as the bench tracer's, sees every
        # evaluation
        whole = []

        def counted(k, r, j=None):
            if j is None:
                whole.append(k)
            return cycle_laplacian_eigenvalues(k, r, j)
        monkeypatch.setattr(latency, "cycle_laplacian_eigenvalues", counted)
        spec = TorusSpec(dims, r)
        for _ in range(2):
            mean_latency_torus(spec)
            torus_latency_bounds(spec)
        assert sorted(whole) == sorted({k for k in dims
                                        if k <= latency._LEAF})


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

    @pytest.mark.parametrize("builder", [
        lambda: build_cycle(7, 1),
        lambda: build_cycle(12, 3),
        lambda: build_torus(TorusSpec([4, 4], 1)),
        lambda: generate_topology(WirelessConfig(n=12), seed=2).graph,
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
        assert linear_system_epd(g) == pytest.approx(10 / 3, abs=1e-10)
        # the CLI's oracle column is the same double
        assert cli._oracle_epd(g) == linear_system_epd(g)

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
    """Connected irregular 0/1 graph: a ring plus random chords.  The name
    is the id of its parametrized test cases."""
    rng = np.random.default_rng(seed)
    w = np.triu((rng.random((n, n)) < 0.2).astype(float), 1)
    w = w + w.T
    ring, nxt = np.arange(n), (np.arange(n) + 1) % n
    w[ring, nxt] = w[nxt, ring] = 1.0
    return Graph(w)


ORACLE_GRAPHS = [
    lambda: build_cycle(7, 1),
    lambda: build_cycle(40, 5),
    lambda: build_torus(TorusSpec([4, 4], 1)),
    lambda: build_torus(TorusSpec([5, 7], 2)),
    lambda: build_torus(TorusSpec([3, 4, 5], 1)),
    lambda: generate_topology(WirelessConfig(n=20), seed=9).graph,
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


def fundamental_matrix_reference(g):
    """The oracle in its first form: Z = inv(eye - W/d + pi) from fresh
    matrices, then H = (Z_tt - Z_st) / pi_t with a zero diagonal."""
    d = g.degrees
    pi = d / d.sum()
    z = np.linalg.inv(np.eye(g.n) - g.weights / d[:, None] + pi[None, :])
    h = (np.diag(z)[None, :] - z) / pi[None, :]
    np.fill_diagonal(h, 0.0)
    return h


def dense_units(f, n):
    """tracemalloc peak of one call f(), in units of one n x n float matrix
    (8 n^2 bytes)."""
    return traced_peak(f) / (8 * n * n)


# Slack in bytes a dense_units bound allows beside its n x n matrices.
SLACK = 1e6


class TestFundamentalMatrixBuffers:
    """hitting_times_linear_system builds I - P + 1 pi^T in the Laplacian's
    buffer and H in its inverse's: the first form's bytes, in two n x n
    arrays."""

    @pytest.mark.parametrize("builder", [
        lambda: build_cycle(64, 1),
        lambda: build_cycle(9, 3),
        lambda: build_torus(TorusSpec([16, 16], 1)),
        lambda: build_torus(TorusSpec([3, 4, 5], 1)),
        lambda: generate_topology(WirelessConfig(n=30), seed=0).graph,
        lambda: generate_topology(WirelessConfig(n=30), seed=1).graph,
        lambda: generate_topology(WirelessConfig(n=100), seed=0).graph,
        lambda: generate_topology(WirelessConfig(n=100), seed=2).graph,
        weighted_random_graph,
    ])
    def test_bit_equal_to_first_form(self, builder):
        g = builder()
        h = hitting_times_linear_system(g)
        assert h.tobytes() == fundamental_matrix_reference(g).tobytes()
        n = g.n
        assert cli._oracle_epd(g) == (
            float(fundamental_matrix_reference(g).sum()) / (n * (n - 1)))

    def test_two_matrices_at_most(self):
        # 20.5 MB per matrix at 1600 nodes; the first form held three
        g = build_torus(TorusSpec([40, 40], 1))
        n = g.n
        units = dense_units(lambda: hitting_times_linear_system(g), n)
        assert units <= 2 + SLACK / (8 * n * n)


# Every random-walk route.
WALK_ROUTES = {
    "mean_latency_pinv": mean_latency_pinv,
    "mean_latency_circulant": lambda g: mean_latency_circulant(g, (g.n,)),
    "hitting_times": hitting_times,
    "hitting_times_linear_system": hitting_times_linear_system,
    "epd-spectral": expected_packet_delay,
    "estimate_mean_latency": lambda g: walker.estimate_mean_latency([g], 10, 0),
}


class TestWalkableRule:
    """One rule, graphs._require_walkable, decides which graphs the walk
    routes take: n >= 2 nodes, connected."""

    @pytest.mark.parametrize("route", WALK_ROUTES.values(), ids=WALK_ROUTES)
    def test_single_node(self, route):
        with pytest.raises(ParameterError, match="needs n >= 2"):
            route(Graph(np.zeros((1, 1))))

    @pytest.mark.parametrize("route", WALK_ROUTES.values(), ids=WALK_ROUTES)
    def test_disconnected(self, route):
        with pytest.raises(DisconnectedGraphError,
                           match="undefined on a disconnected graph"):
            route(two_component_graph())

    @pytest.mark.parametrize("route", WALK_ROUTES.values(), ids=WALK_ROUTES)
    def test_one_rule_once(self, monkeypatch, route):
        seen = []

        def rule(g, quantity):
            seen.append(quantity)
            return g

        monkeypatch.setattr(latency, "_require_walkable", rule)
        monkeypatch.setattr(walker, "_require_walkable", rule)
        route(build_cycle(5, 1))
        assert len(seen) == 1


def circulant_graph(n, offsets):
    """n nodes, each joined to the nodes at the given circular offsets."""
    w = np.zeros((n, n))
    nodes = np.arange(n)
    for d in offsets:
        w[nodes, (nodes + d) % n] = w[(nodes + d) % n, nodes] = 1.0
    return Graph(w)


def cycle_without_edge(n, u):
    """The n-cycle with the edge (u, u+1) removed."""
    w = build_cycle(n, 1).weights.copy()
    w[u, u + 1] = w[u + 1, u] = 0.0
    return Graph(w)


def relabeled_cycle(n, a, b):
    """The n-cycle with nodes a and b swapped: the same graph, not
    circulant in its node order."""
    perm = np.arange(n)
    perm[[a, b]] = b, a
    return Graph(build_cycle(n, 1).weights[np.ix_(perm, perm)])


NOT_CIRCULANT = [
    lambda: (cycle_without_edge(10, 3), (10,)),
    lambda: (generate_topology(WirelessConfig(n=20), seed=9).graph, (20,)),
    lambda: (build_torus(TorusSpec((10, 8), 1)), (8, 10)),
    lambda: (build_cycle(10, 1), (5, 3)),
]
NOT_CIRCULANT_IDS = ["edge-removed", "wireless", "swapped-axes",
                     "size-mismatch"]


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

    @pytest.mark.parametrize("make", NOT_CIRCULANT, ids=NOT_CIRCULANT_IDS)
    def test_not_circulant_rejected(self, make):
        g, dims = make()
        with pytest.raises(ValidationError):
            mean_latency_circulant(g, dims)

    @pytest.mark.parametrize("make", [
        *NOT_CIRCULANT,
        # rows 0-6 are those of the circulant 12-cycle
        lambda: (relabeled_cycle(12, 8, 10), (12,))],
        ids=[*NOT_CIRCULANT_IDS, "late-rows"])
    def test_not_circulant_rejected_in_chunks(self, monkeypatch, make):
        # rows are checked latency._LEAF at a time
        monkeypatch.setattr(latency, "_LEAF", 3)
        g, dims = make()
        with pytest.raises(ValidationError):
            mean_latency_circulant(g, dims)

    def test_check_memory_in_chunks(self):
        # 512 x 512, r = 2: four chunks.  Checked whole, the shifted rows
        # and their temporaries took three n x degree int64 arrays (50 MB).
        g = build_torus(TorusSpec((512, 512), 2))
        table = 8 * g.csr[1].size
        assert g.n > 3 * latency._LEAF
        assert traced_peak(mean_latency_circulant, g, (512, 512)) < 1.5 * table

    def test_fft_step_memory(self):
        # 1024 x 1024, r = 1.  Row 0 cast to complex, the transform scaled
        # into a new complex array, its real parts copied and their
        # reciprocals took 7.4 float64 arrays of n beside the graph; the
        # real parts copied once, scaled and inverted in place, take 5.4.
        g = build_torus(TorusSpec((1024, 1024), 1))
        assert traced_peak(mean_latency_circulant, g, (1024, 1024)) < (
            6.4 * 8 * g.n)

    def test_disconnected_rejected(self):
        # offsets +-2 on 8 nodes: the even and the odd nodes
        with pytest.raises(DisconnectedGraphError):
            mean_latency_circulant(circulant_graph(8, [2]), (8,))

    def test_long_cycle(self):
        # lambda_1 = 4 sin^2(pi/n) = 2.7e-9 is below 1e-9 of the largest
        # eigenvalue, so a relative tolerance found three zero modes on this
        # connected cycle; the FFT's roundoff grows as n^2
        n = 120000
        spec = TorusSpec((n,), 1)
        exact = (n + 1) / 6
        t = mean_latency_circulant(build_torus(spec), (n,))
        assert t == pytest.approx(exact, rel=1e-7)
        assert mean_latency_torus(spec) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_exact_cycle_identity(self, n):
        # T = (n + 1) / 6 for r = 1, in exact rational arithmetic
        spec = TorusSpec((n,), 1)
        exact = Fraction(n + 1, 6)
        for t in (mean_latency_torus(spec),
                  mean_latency_circulant(build_torus(spec), (n,))):
            assert abs(Fraction(t) - exact) <= Fraction(1, 10**13) * exact


def exact_pinv_trace(g) -> Fraction:
    """Tr(L+) of a connected graph in exact rational arithmetic, with no
    float and no eigenvalue: Tr(L+) = Tr(A^-1) - 1^T A^-1 1 / n, where A is
    the Laplacian grounded at node 0 (row and column 0 deleted).

    A is an integer matrix (every entry converted with int()), positive
    definite, so fraction-free Gauss-Jordan elimination (Bareiss) runs on
    [A | I] without row swaps.  Each division is exact; at the end every
    pivot equals det A and the right half is adj A = det A * A^-1.
    """
    lap = g.laplacian()
    m = g.n - 1
    rows = [[int(x) for x in row[1:]] + [int(i == j) for j in range(m)]
            for i, row in enumerate(lap[1:])]
    det = 1
    for k in range(m):
        pivot = rows[k]
        p = pivot[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // det for x, y in zip(row, pivot)]
        det = p
    adj = [row[m:] for row in rows]
    trace = sum(adj[i][i] for i in range(m))
    return Fraction(trace, det) - Fraction(sum(map(sum, adj)), det * g.n)


# Every cycle of up to 40 nodes at r <= 3, and three tori.
EXACT_CASES = [((n,), r) for n in range(3, 41) for r in (1, 2, 3)
               if 2 * r + 1 <= n] + [((6, 6), 2), ((5, 7), 2), ((3, 4, 5), 1)]


class TestExactReference:
    """Both lattice routes against T = 2/(n-1) * Tr(L+) in exact rational
    arithmetic.  Over EXACT_CASES the largest relative error is 1.7 eps
    for the closed form and 22.6 eps for the FFT (eps = 2**-52); the bound
    1e-13 is 450 eps."""

    @pytest.mark.parametrize("n", [3, 4, 7, 30])
    def test_reference_on_the_unit_cycle(self, n):
        # T = (n + 1) / 6 for r = 1
        exact = Fraction(2, n - 1) * exact_pinv_trace(build_cycle(n, 1))
        assert exact == Fraction(n + 1, 6)

    @pytest.mark.parametrize("dims,r", EXACT_CASES)
    def test_lattice_routes(self, dims, r):
        spec = TorusSpec(dims, r)
        g = build_torus(spec)
        exact = Fraction(2, spec.n - 1) * exact_pinv_trace(g)
        for t in (mean_latency_torus(spec), mean_latency_circulant(g, dims)):
            assert abs(Fraction(t) - exact) <= Fraction(1, 10**13) * exact


def assert_dense_routes_exact(g):
    """The eigvalsh EPD and the fundamental-matrix EPD against
    vol * Tr(L+) / (n-1), and pinv against T = 2 * Tr(L+) / (n-1), each
    within 1e-13 of the exact value."""
    trace = exact_pinv_trace(g)
    epd = int(g.degrees.sum()) * trace / (g.n - 1)
    for got, exact in ((expected_packet_delay(g), epd),
                       (cli._oracle_epd(g), epd),
                       (mean_latency_pinv(g), 2 * trace / (g.n - 1))):
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact


class TestExactDenseRoutes:
    """The dense routes against exact rational arithmetic.  The largest
    relative errors, in eps = 2**-52, are 11.3 (eigvalsh EPD), 1.1 (LU
    EPD) and 8.8 (pinv) on the wireless graphs, and 131.9, 18.8 and 16.0
    over EXACT_CASES; the bound 1e-13 is 450 eps."""

    @pytest.mark.parametrize("eta", [2, 4, 6])
    @pytest.mark.parametrize("seed", range(5))
    def test_wireless_graphs(self, seed, eta):
        assert_dense_routes_exact(
            generate_topology(WirelessConfig(n=30, eta=eta), seed=seed).graph)

    @pytest.mark.parametrize("dims,r", EXACT_CASES)
    def test_lattices(self, dims, r):
        assert_dense_routes_exact(build_torus(TorusSpec(dims, r)))


def circulant_latency_reference(g, dims):
    """mean_latency_circulant's FFT spectrum of row 0, the complex
    transform scaled by n before its real part is taken, summed by the
    tolerance rule of pinv_trace."""
    indptr, indices = g.csr
    width = int(indptr[1])
    row = np.zeros(g.n)
    row[indices[:width]] = -1.0
    row[0] = width
    vals = (np.fft.ifftn(row.reshape(dims)) * g.n).real.ravel()
    return 2.0 / (g.n - 1) * pinv_trace(vals)


class TestZeroModeByIndex:
    """The zero mode taken as element 0 gives the same doubles as the
    tolerance rule it replaced."""

    @pytest.mark.parametrize("n", [30, 100])
    @pytest.mark.parametrize("eta", [2, 3, 4, 5, 6])
    def test_epd_on_wireless_graphs(self, n, eta):
        for seed in range(10):
            g = generate_topology(WirelessConfig(n=n, eta=eta), seed=seed).graph
            vals = symmetric_eigendecomposition(g.laplacian())
            vol = float(g.degrees.sum())
            assert expected_packet_delay(g) == vol * pinv_trace(vals) / (g.n - 1)

    @pytest.mark.parametrize("n,r", ORACLE_CYCLE_CASES)
    def test_circulant_cycle(self, n, r):
        g = build_cycle(n, r)
        assert (mean_latency_circulant(g, (n,))
                == circulant_latency_reference(g, (n,)))

    @pytest.mark.parametrize("dims,r", ORACLE_TORUS_CASES)
    def test_circulant_torus(self, dims, r):
        g = build_torus(TorusSpec(dims, r))
        assert (mean_latency_circulant(g, dims)
                == circulant_latency_reference(g, dims))


def irregular_weighted_graph():
    """Nine nodes, random 0/1 edges, uneven degrees.  The name is the id of
    its parametrized test cases."""
    rng = np.random.default_rng(0)
    w = np.triu((rng.random((9, 9)) < 0.4).astype(float), 1)
    return Graph(w + w.T)


EPD_GRAPHS = ORACLE_GRAPHS + [
    lambda: build_cycle(64, 10),
    lambda: build_torus(TorusSpec([8, 8], 2)),
    lambda: complete_graph(10),
    irregular_weighted_graph,
    lambda: weighted_random_graph(n=40, seed=11),
] + [
    lambda seed=seed: generate_topology(WirelessConfig(n=30), seed=seed).graph
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
        assert epd == pytest.approx(linear_system_epd(g), rel=1e-10)

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

    @pytest.mark.parametrize("route", [expected_packet_delay,
                                       linear_system_epd],
                             ids=["spectral", "linear-system"])
    def test_disconnected_rejected(self, route):
        with pytest.raises(DisconnectedGraphError):
            route(two_component_graph())

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
