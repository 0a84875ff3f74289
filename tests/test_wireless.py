import dataclasses
import math
import pathlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oppwalk import wireless
from oppwalk.errors import DisconnectedGraphError, ParameterError, ValidationError
from oppwalk.wireless import (
    Placement,
    WirelessConfig,
    build_wireless_graph,
    generate_topologies,
    generate_topology,
    load_config,
    place_nodes,
    reference_distance,
    save_positions,
)
from test_latency import SLACK, dense_units


# Scalar reference forms of the link model.  build_wireless_graph is the
# package's one implementation; these plain formulas check it pair by pair.

def received_power(p_ij, r_ij, r_0, eta):
    """Power received at distance r_ij: p_ij / (1 + (r_ij/r_0)^eta)."""
    return p_ij / (1.0 + (r_ij / r_0) ** eta)


def coverage_radius(p_ij, p_min, r_0, eta):
    """Distance at which received power falls to p_min (needs p_ij >= p_min):
    r_c = r_0 * (p_ij/p_min - 1)^(1/eta)."""
    return r_0 * (p_ij / p_min - 1.0) ** (1.0 / eta)


def topology_coefficient(r_ij, r_c, alpha):
    """Soft link quality a = 1 / (1 + (r_ij/r_c)^alpha); 0 when r_c = 0."""
    if r_c == 0.0:
        return 0.0
    return 1.0 / (1.0 + (r_ij / r_c) ** alpha)


def topology_coefficient_from_powers(p_ij, p_min, r_0, r_ij, alpha, eta):
    """Power form: a = r0^a (p - pmin)^(a/eta) /
    (r0^a (p - pmin)^(a/eta) + r^a pmin^(a/eta)); 0 at or below minimum
    power, where r_c = 0 (the form reads 0/0 there at r = 0)."""
    if p_ij <= p_min:
        return 0.0
    num = r_0 ** alpha * (p_ij - p_min) ** (alpha / eta)
    return num / (num + r_ij ** alpha * p_min ** (alpha / eta))


class TestWirelessConfig:
    def test_defaults_valid(self):
        cfg = WirelessConfig(n=30)
        assert cfg.threshold == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(n=1), dict(n=5, eta=0.5), dict(n=5, alpha=0.0),
        dict(n=5, p_min=0.0), dict(n=5, threshold=1.0),
        dict(n=5, power=-1.0), dict(n=5, area_side=0.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            WirelessConfig(**kwargs)

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(["area_side", "eta", "alpha", "p_min",
                                  "c_n", "power"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValidationError, match="finite"):
            WirelessConfig(n=5, **{field: bad})

    def test_rejects_power_matrix(self):
        with pytest.raises(ValidationError, match="^power must be finite"):
            WirelessConfig(n=3, power=np.full((3, 3), 2.0))

    @pytest.mark.parametrize("n", [30.5, 30.0, "30", np.float64(30.0)],
                             ids=["30.5", "30.0", "str", "float64"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ParameterError, match=re.escape(f"(got {n!r})")):
            WirelessConfig(n=n)

    def test_accepts_numpy_integer_n(self):
        cfg = WirelessConfig(n=np.int64(30))
        assert cfg.n == 30 and type(cfg.n) is int
        assert generate_topology(cfg, seed=0).graph.n == 30


class TestPlaceNodes:
    def test_positions_inside_area(self):
        cfg = WirelessConfig(n=50, area_side=2.0)
        pl = place_nodes(cfg, 1)
        assert pl.positions.shape == (50, 2)
        assert pl.positions.min() >= 0.0
        assert pl.positions.max() <= 2.0

    def test_seeded_determinism(self):
        cfg = WirelessConfig(n=20)
        assert np.array_equal(place_nodes(cfg, 9).positions,
                              place_nodes(cfg, 9).positions)

    @pytest.mark.parametrize("seed", [None, -1, 2.5, "3"])
    def test_rejects_bad_seed(self, seed):
        # None would draw fresh OS entropy: no two runs would agree
        cfg = WirelessConfig(n=20)
        for place in (lambda: place_nodes(cfg, seed),
                      lambda: generate_topology(cfg, seed),
                      lambda: generate_topologies(cfg, [cfg], seed)):
            with pytest.raises(ParameterError, match="seed"):
                place()

    def test_quadrant_uniformity_chi_square(self):
        cfg = WirelessConfig(n=10000)
        pl = place_nodes(cfg, 12345)
        qx = (pl.positions[:, 0] >= 0.5).astype(int)
        qy = (pl.positions[:, 1] >= 0.5).astype(int)
        counts = np.bincount(qx * 2 + qy, minlength=4)
        _, p = stats.chisquare(counts)
        assert p > 0.001


class TestPlacementValidation:
    @settings(max_examples=40, deadline=None)
    @given(row=st.integers(min_value=0, max_value=2),
           col=st.integers(min_value=0, max_value=1),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejects_non_finite(self, row, col, bad):
        pos = np.array([[0.1, 0.5], [0.2, 0.3], [0.4, 0.4]])
        pos[row, col] = bad
        with pytest.raises(ValidationError, match="finite"):
            Placement(pos)

    @pytest.mark.parametrize("pos", [
        [["a", "b"]], [[0.1, 0.2], [0.3]], [[{}, 0.1]], [0.1, 0.2],
    ])
    def test_rejects_non_numbers_and_bad_shapes(self, pos):
        with pytest.raises(ValidationError, match=r"\(n, 2\) array"):
            Placement(pos)

    @pytest.mark.parametrize("side", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_area_side(self, side):
        pos = np.array([[0.1, 0.5], [0.2, 0.3]])
        with pytest.raises(ValidationError, match="area_side"):
            Placement(pos, area_side=side)


class TestPlacementDistances:
    def test_cached_and_read_only(self):
        pl = place_nodes(WirelessConfig(n=20), 4)
        r = pl.distances()
        assert pl.distances() is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 1] = 1.0

    @pytest.mark.parametrize("n,seed", [(2, 0), (30, 1), (100, 2), (257, 3)])
    def test_bit_equal_to_summed_squares(self, n, seed):
        pl = place_nodes(WirelessConfig(n=n), seed)
        diff = pl.positions[:, None, :] - pl.positions[None, :, :]
        reference = np.sqrt((diff ** 2).sum(axis=-1))
        assert pl.distances().tobytes() == reference.tobytes()
        x, y = pl.positions.T
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        assert pl.distances().tobytes() == np.sqrt(dx * dx + dy * dy).tobytes()

    def test_shared_and_corner_positions(self):
        # repeated nodes give +0.0, the area's corners its side and diagonal
        pl = Placement(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                                 [0.0, 0.0]]))
        r = pl.distances()
        assert r.tobytes() == np.array([
            [0.0, math.sqrt(2.0), 1.0, 0.0],
            [math.sqrt(2.0), 0.0, 1.0, math.sqrt(2.0)],
            [1.0, 1.0, 0.0, 1.0],
            [0.0, math.sqrt(2.0), 1.0, 0.0]]).tobytes()

    def test_two_matrices_at_most(self):
        # 32 MB per matrix at 2000 nodes; the first form held four
        n = 2000
        pl = place_nodes(WirelessConfig(n=n), 0)
        assert dense_units(pl.distances, n) <= 2 + SLACK / (8 * n * n)


class TestReferenceDistance:
    def test_algebraic_inversion_to_one(self):
        n = 40
        c_n = math.pi * n - math.log(n)
        assert reference_distance(n, c_n) == pytest.approx(1.0, abs=1e-12)

    def test_n30_direct(self):
        assert reference_distance(30, 0.0) == pytest.approx(
            math.sqrt(math.log(30) / (30 * math.pi)), abs=1e-15)

    def test_decreasing_in_n(self):
        vals = [reference_distance(n, 0.5) for n in range(3, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(ParameterError):
            reference_distance(3, -5.0)


class TestReceivedPower:
    def test_zero_distance(self):
        assert received_power(1.7, 0.0, 0.2, 2.0) == 1.7

    def test_reference_distance_halves(self):
        assert received_power(1.0, 0.2, 0.2, 3.0) == pytest.approx(0.5)

    def test_far_field_asymptote(self):
        p, r0, eta = 2.0, 0.1, 2.5
        r = 1000 * r0
        got = received_power(p, r, r0, eta)
        farfield = p * (r0 / r) ** eta
        assert got / farfield == pytest.approx(1.0, rel=1e-6)


class TestCoverageRadius:
    def test_at_minimum_power(self):
        assert coverage_radius(0.1, 0.1, 0.2, 2.0) == 0.0

    def test_double_minimum_gives_r0(self):
        assert coverage_radius(0.2, 0.1, 0.37, 4.0) == pytest.approx(0.37)

    @pytest.mark.parametrize("p,pmin,r0,eta", [
        (1.0, 0.1, 0.19, 2.0), (2.0, 0.5, 0.3, 4.0), (0.7, 0.2, 0.1, 3.3)])
    def test_round_trip_identity(self, p, pmin, r0, eta):
        rc = coverage_radius(p, pmin, r0, eta)
        assert received_power(p, rc, r0, eta) == pytest.approx(pmin, abs=1e-12)


class TestTopologyCoefficient:
    def test_half_at_coverage_radius(self):
        assert topology_coefficient(0.3, 0.3, 2.0) == 0.5

    def test_zero_coverage_radius(self):
        assert topology_coefficient(0.2, 0.0, 2.0) == 0.0

    def test_monotone_decreasing_in_distance(self):
        vals = [topology_coefficient(r, 0.4, 3.0)
                for r in np.linspace(0, 2, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_power_form_equivalence(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pmin = rng.uniform(0.05, 0.5)
            p = pmin + rng.uniform(0.01, 3.0)
            r0 = rng.uniform(0.05, 1.0)
            r = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.5, 5.0)
            eta = rng.uniform(1.0, 6.0)
            rc = coverage_radius(p, pmin, r0, eta)
            via_radius = topology_coefficient(r, rc, alpha)
            via_power = topology_coefficient_from_powers(
                p, pmin, r0, r, alpha, eta)
            assert via_radius == pytest.approx(via_power, abs=1e-12)

    def test_power_form_below_minimum_is_zero(self):
        assert topology_coefficient_from_powers(
            0.05, 0.1, 0.2, 0.3, 2.0, 2.0) == 0.0


class TestBuildWirelessGraph:
    def test_symmetry(self):
        cfg = WirelessConfig(n=25)
        topo = build_wireless_graph(cfg, place_nodes(cfg, 3))
        assert np.array_equal(topo.graph.weights, topo.graph.weights.T)

    def test_tiny_threshold_gives_complete_graph(self):
        cfg = WirelessConfig(n=10, threshold=1e-12, power=5.0)
        topo = build_wireless_graph(cfg, place_nodes(cfg, 7))
        assert np.count_nonzero(topo.graph.weights) == 10 * 9

    def test_half_threshold_is_coverage_radius_cut(self):
        cfg = WirelessConfig(n=15, threshold=0.5)
        pl = place_nodes(cfg, 21)
        topo = build_wireless_graph(cfg, pl)
        rc = coverage_radius(2.0, cfg.p_min,
                             reference_distance(cfg.n, cfg.c_n), cfg.eta)
        dist = pl.distances()
        expect = (dist <= rc).astype(float)
        np.fill_diagonal(expect, 0.0)
        assert np.array_equal(topo.graph.weights, expect)

    def test_threshold_monotonicity(self):
        pl = place_nodes(WirelessConfig(n=30), 5)
        prev_edges = None
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = WirelessConfig(n=30, threshold=tau)
            topo = build_wireless_graph(cfg, pl)
            edges = set(map(tuple, np.argwhere(topo.graph.weights > 0)))
            if prev_edges is not None:
                assert edges <= prev_edges
            prev_edges = edges

    def test_disconnected_flagged_not_raised(self):
        # two far-apart clusters in a large area with tiny coverage radius
        cfg = WirelessConfig(n=4, area_side=100.0, power=0.11)
        pos = np.array([[0.0, 0.0], [0.01, 0.0], [99.0, 99.0], [99.01, 99.0]])
        topo = build_wireless_graph(cfg, Placement(pos, area_side=100.0))
        assert not topo.connected

    def test_generate_topology_resampling_deterministic(self):
        cfg = WirelessConfig(n=30)
        a = generate_topology(cfg, seed=6)
        b = generate_topology(cfg, seed=6)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert a.connected

    def test_generate_topologies_share_one_placement(self):
        base = WirelessConfig(n=30)
        configs = [base, dataclasses.replace(base, eta=4.0)]
        topos = list(generate_topologies(base, configs, seed=3, prefix=(1,)))
        assert all(t.connected for t in topos)
        assert topos[0].placement is topos[1].placement

    def test_generate_topologies_raises_when_no_attempt_connects(
            self, monkeypatch):
        # power at p_min links no pair, so every attempt is rejected; attempt
        # k places the nodes from spawn key (*prefix, k)
        cfg = WirelessConfig(n=50, power=0.1, p_min=0.1)
        placed = []
        place = wireless.place_nodes

        def spy(config, rng):
            placed.append(place(config, rng))
            return placed[-1]

        monkeypatch.setattr(wireless, "_ATTEMPTS", 3)
        monkeypatch.setattr(wireless, "place_nodes", spy)
        with pytest.raises(DisconnectedGraphError,
                           match=r"3 attempts for seed 1, prefix \(4,\)"):
            generate_topologies(cfg, [cfg], seed=1, prefix=(4,))
        assert len(placed) == 3
        for k, placement in enumerate(placed):
            ss = np.random.SeedSequence(entropy=1, spawn_key=(4, k))
            want = place(cfg, np.random.Generator(np.random.PCG64(ss)))
            assert np.array_equal(placement.positions, want.positions)

    def test_generate_topology_gives_up_after_100_attempts(self):
        cfg = WirelessConfig(n=12, power=0.1, p_min=0.1)
        with pytest.raises(DisconnectedGraphError,
                           match="100 attempts for seed 3"):
            generate_topology(cfg, seed=3)

    def test_rejected_attempt_stops_at_first_disconnected(self, monkeypatch):
        # every attempt builds the graph of the smallest link radius first
        # and stops there when it is disconnected; seed 4's first two
        # placements are rejected and its third builds every graph
        base = WirelessConfig(n=30)
        hard = dataclasses.replace(base, eta=4.0, threshold=0.7)
        built = []
        build = wireless.build_wireless_graph

        def spy(cfg, placement):
            topo = build(cfg, placement)
            built.append((placement, cfg, topo.connected))
            return topo

        monkeypatch.setattr(wireless, "_ATTEMPTS", 3)
        monkeypatch.setattr(wireless, "build_wireless_graph", spy)
        topos = list(generate_topologies(base, [base, hard, base], seed=4))
        # built keeps every placement alive, so their ids are distinct
        attempts = list(dict.fromkeys(id(p) for p, *_ in built))
        assert len(attempts) == 3
        per_attempt = [[(cfg, ok) for p, cfg, ok in built if id(p) == a]
                       for a in attempts]
        assert per_attempt[:2] == [[(hard, False)], [(hard, False)]]
        assert per_attempt[2] == [(hard, True), (base, True), (base, True)]
        assert [id(t.placement) for t in topos] == [attempts[2]] * 3
        assert [t.connected for t in topos] == [True, True, True]


def reference_topologies(base, configs, seed, attempts, prefix):
    """The in-order rule: every attempt builds its configs in order and
    stops at its first disconnected topology; None if no attempt of
    `attempts` connects."""
    for attempt in range(attempts):
        topos = []
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, attempt))
        placement = place_nodes(base, np.random.Generator(np.random.PCG64(ss)))
        for cfg in configs:
            topos.append(build_wireless_graph(cfg, placement))
            if not topos[-1].connected:
                break
        if all(t.connected for t in topos):
            return topos
    return None


# eta, tau and p_min of one sweep point (power 2.0): p_min >= 2.0 links no
# pair, and p_min = 1e-300 with eta = 1 makes the coverage radius overflow
_POINTS = st.tuples(
    st.one_of(st.floats(1.0, 8.0), st.just(1.0)),
    st.floats(1e-3, 1 - 1e-3),
    st.one_of(st.floats(0.01, 3.0), st.sampled_from([2.0, 1e-300])))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
       points=st.lists(_POINTS, max_size=5),
       attempts=st.integers(1, 4), prefix=st.tuples(st.integers(0, 9)))
def test_sparsest_first_matches_in_order_rule(n, seed, points, attempts,
                                              prefix):
    base = WirelessConfig(n=n)
    configs = [dataclasses.replace(base, eta=eta, threshold=tau, p_min=p_min)
               for eta, tau, p_min in points]
    with mock.patch.object(wireless, "_ATTEMPTS", attempts):
        try:
            got = list(generate_topologies(base, configs, seed, prefix))
        except DisconnectedGraphError:
            got = None
    want = reference_topologies(base, configs, seed, attempts, prefix)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert len(got) == len(want) == len(configs)
    for g, w in zip(got, want):
        assert np.array_equal(g.placement.positions, w.placement.positions)
        assert np.array_equal(g.graph.weights, w.graph.weights)
        assert g.connected


def reference_coefficients(cfg, placement):
    """Both scalar reference forms at every pair i != j, diagonal 1."""
    n, r, p = cfg.n, placement.distances(), cfg.power
    r0 = reference_distance(n, cfg.c_n)
    via_radius = np.ones((n, n))
    via_power = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if p >= cfg.p_min:
                rc = coverage_radius(p, cfg.p_min, r0, cfg.eta)
                via_radius[i, j] = topology_coefficient(r[i, j], rc, cfg.alpha)
            else:
                via_radius[i, j] = 0.0
            via_power[i, j] = topology_coefficient_from_powers(
                p, cfg.p_min, r0, r[i, j], cfg.alpha, cfg.eta)
    return via_radius, via_power


def assert_graph_is_thresholded_reference(topo, cfg):
    """The graph links i != j exactly where both reference coefficients
    clear the threshold."""
    off_diagonal = ~np.eye(cfg.n, dtype=bool)
    for reference in reference_coefficients(cfg, topo.placement):
        expect = ((reference >= cfg.threshold) & off_diagonal).astype(float)
        assert np.array_equal(topo.graph.weights, expect)


class TestCoefficientsMatchReferences:
    """The graph against the thresholded scalar reference coefficients."""

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 3.3, 5.0])
    @pytest.mark.parametrize("eta", [1.0, 2.0, 3.5, 6.0])
    def test_scalar_and_matrix_power(self, alpha, eta):
        n = 20
        # p_min = 0.1: power above, at and below it
        for seed, power in ((1, 2.0), (2, 0.35), (3, 0.1), (4, 0.05)):
            for tau in (0.05, 0.3, 0.5, 0.7, 0.95):
                cfg = WirelessConfig(n=n, eta=eta, alpha=alpha, power=power,
                                     threshold=tau)
                topo = build_wireless_graph(cfg, place_nodes(cfg, seed))
                assert_graph_is_thresholded_reference(topo, cfg)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           eta=st.floats(1.0, 8.0), alpha=st.floats(0.05, 20.0),
           tau=st.floats(1e-3, 1 - 1e-3), p_min=st.floats(0.01, 1.0),
           ratio=st.one_of(st.floats(0.01, 1.0), st.floats(1 + 1e-6, 1e3)),
           c_n=st.floats(-0.5, 3.0))
    def test_graph_is_thresholded_reference(self, n, seed, eta, alpha, tau,
                                            p_min, ratio, c_n):
        pos = np.random.default_rng(seed).random((n, 2))
        pos[1] = pos[0]  # one coincident pair
        cfg = WirelessConfig(n=n, eta=eta, alpha=alpha, threshold=tau,
                             p_min=p_min, power=p_min * ratio, c_n=c_n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            topo = build_wireless_graph(cfg, Placement(pos))
        assert_graph_is_thresholded_reference(topo, cfg)

    def test_coincident_nodes(self):
        pos = np.array([[0.3, 0.3], [0.3, 0.3], [0.6, 0.7], [0.9, 0.1]])
        pl = Placement(pos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linked = build_wireless_graph(WirelessConfig(n=4), pl)
            at_min = build_wireless_graph(WirelessConfig(n=4, power=0.1), pl)
        assert linked.graph.weights[0, 1] == linked.graph.weights[1, 0] == 1.0
        assert not at_min.graph.weights.any()

    @pytest.mark.parametrize("tau,p_min,power,linked", [
        (0.1, 0.1, 2.0, "all"),         # (1/tau - 1)^(1/alpha) overflows
        (0.9, 0.1, 2.0, "coincident"),  # (1/tau - 1)^(1/alpha) underflows
        (0.9, 1e-300, 1e10, "all"),     # ... and r_c overflows: a_ij = 1
    ])
    def test_tiny_alpha_extremes(self, tau, p_min, power, linked):
        pos = np.random.default_rng(11).random((12, 2))
        pos[1] = pos[0]
        cfg = WirelessConfig(n=12, alpha=1e-3, threshold=tau, p_min=p_min,
                             power=power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            topo = build_wireless_graph(cfg, Placement(pos))
        expect = np.ones((12, 12)) if linked == "all" else np.zeros((12, 12))
        expect[0, 1] = expect[1, 0] = 1.0
        np.fill_diagonal(expect, 0.0)
        assert np.array_equal(topo.graph.weights, expect)


class TestConfigFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text(
            "# wireless test config\n"
            "n = 12\n"
            "eta = 3.5\n"
            "alpha = 2.5\n"
            "p_min = 0.2\n"
            "c_n = 0.1\n"
            "threshold = 0.4\n"
            "power = 1.5\n"
        )
        cfg = load_config(str(path))
        assert cfg.n == 12
        assert cfg.eta == 3.5
        assert cfg.threshold == 0.4
        assert cfg.power == 1.5

    def test_every_field_loads(self, tmp_path):
        # every WirelessConfig field is a key, each off its default
        cfg = WirelessConfig(n=17, area_side=2.5, eta=3.25, alpha=1.5,
                             p_min=0.125, c_n=0.75, threshold=0.3, power=4.0)
        names = [f.name for f in dataclasses.fields(WirelessConfig)]
        assert all(getattr(cfg, k) != getattr(WirelessConfig(n=2), k)
                   for k in names)
        path = tmp_path / "w.cfg"
        path.write_text("".join(f"{k} = {getattr(cfg, k)!r}\n"
                                for k in names))
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("n=5\nbogus=1\n")
        with pytest.raises(ValidationError):
            load_config(str(path))

    def test_missing_n_rejected(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("eta=2\n")
        with pytest.raises(ValidationError):
            load_config(str(path))

    @pytest.mark.parametrize("text,error", [
        ("n=10\nn=20\n", "w.cfg:2: repeated key 'n'"),
        ("# sweep\nn = 3.5\n", "w.cfg:2: bad value for n: '3.5'"),
        ("n=10\n\neta=fast\n", "w.cfg:3: bad value for eta: 'fast'"),
        ("n=10\npower = inf\n", "w.cfg:2: bad value for power: 'inf'"),
        ("n=10\n# c\nradius=3\n", "w.cfg:3: unknown key 'radius'"),
        ("eta=2\nn=10\neta=3\n", "w.cfg:3: repeated key 'eta'"),
        ("n = 9223372036854775808\n",
         "w.cfg:1: bad value for n: '9223372036854775808'"),
        ("n = -9223372036854775809\n",
         "w.cfg:1: bad value for n: '-9223372036854775809'"),
        (f"n = {10 ** 400}\n", f"w.cfg:1: bad value for n: '{10 ** 400}'"),
    ], ids=["repeated-key", "float-n", "text-eta", "inf-power", "unknown-key",
            "repeated-float-key", "n-beyond-int64", "negative-n-beyond-int64",
            "n-beyond-float"])
    def test_bad_line_names_path_and_line(self, tmp_path, text, error):
        path = tmp_path / "w.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(error)):
            load_config(str(path))

    def test_int64_bound_on_n_only(self, tmp_path):
        # n is a count numpy takes as int64; a float takes any finite value
        path = tmp_path / "w.cfg"
        path.write_text("n = 9223372036854775807\npower = 1e19\n")
        cfg = load_config(path)
        assert (cfg.n, cfg.power) == (2 ** 63 - 1, 1e19)


def test_save_positions_csv(tmp_path):
    cfg = WirelessConfig(n=3)
    pl = place_nodes(cfg, 1)
    for as_path in (str, pathlib.Path):
        path = tmp_path / f"pos-{as_path.__name__}.csv"
        save_positions(pl, as_path(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "i,x,y"
        assert len(lines) == 4
        i, x, y = lines[1].split(",")
        assert i == "0"
        assert float(x) == pl.positions[0, 0]
