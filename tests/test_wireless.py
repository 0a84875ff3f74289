import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oppwalk.errors import (
    BelowMinimumPowerError,
    DegenerateInputError,
    ParameterError,
    ValidationError,
)
from oppwalk.wireless import (
    Placement,
    WirelessConfig,
    build_wireless_graph,
    coverage_radius,
    generate_topologies,
    generate_topology,
    load_config,
    place_nodes,
    received_power,
    reference_distance,
    save_positions,
    topology_coefficient,
    topology_coefficient_from_powers,
)


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

    def test_rejects_non_finite_power_matrix(self):
        p = np.full((3, 3), 2.0)
        p[0, 1] = p[1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            WirelessConfig(n=3, power=p)

    def test_rejects_asymmetric_power_matrix(self):
        p = np.full((3, 3), 2.0)
        p[0, 1] = 5.0
        with pytest.raises(ValidationError):
            WirelessConfig(n=3, power=p)

    def test_accepts_symmetric_power_matrix(self):
        p = np.full((3, 3), 2.0)
        p[0, 1] = p[1, 0] = 4.0
        cfg = WirelessConfig(n=3, power=p)
        assert cfg.power_matrix()[1, 0] == 4.0


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

    def test_quadrant_uniformity_chi_square(self):
        cfg = WirelessConfig(n=10000)
        pl = place_nodes(cfg, 12345)
        qx = (pl.positions[:, 0] >= 0.5).astype(int)
        qy = (pl.positions[:, 1] >= 0.5).astype(int)
        counts = np.bincount(qx * 2 + qy, minlength=4)
        _, p = stats.chisquare(counts)
        assert p > 0.001


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

    def test_below_minimum_rejected(self):
        with pytest.raises(BelowMinimumPowerError):
            coverage_radius(0.05, 0.1, 0.2, 2.0)

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

    def test_degenerate_both_zero(self):
        with pytest.raises(DegenerateInputError):
            topology_coefficient(0.0, 0.0, 2.0)

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
        assert np.array_equal(topo.coefficients, topo.coefficients.T)
        assert np.array_equal(topo.graph.weights, topo.graph.weights.T)

    def test_coefficients_in_unit_interval(self):
        cfg = WirelessConfig(n=25, eta=4.0, alpha=3.0)
        topo = build_wireless_graph(cfg, place_nodes(cfg, 3))
        assert topo.coefficients.min() >= 0.0
        assert topo.coefficients.max() <= 1.0

    def test_tiny_threshold_gives_complete_graph(self):
        cfg = WirelessConfig(n=10, threshold=1e-12, power=5.0)
        topo = build_wireless_graph(cfg, place_nodes(cfg, 7))
        assert topo.graph.edge_count == 10 * 9 // 2

    def test_half_threshold_is_coverage_radius_cut(self):
        cfg = WirelessConfig(n=15, threshold=0.5)
        pl = place_nodes(cfg, 21)
        topo = build_wireless_graph(cfg, pl)
        rc = coverage_radius(2.0, cfg.p_min, cfg.reference_distance(), cfg.eta)
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

    def test_below_minimum_power_pairs_get_zero(self):
        p = np.full((5, 5), 2.0)
        p[0, 1] = p[1, 0] = 0.01  # below p_min
        cfg = WirelessConfig(n=5, power=p)
        topo = build_wireless_graph(cfg, place_nodes(cfg, 2))
        assert topo.coefficients[0, 1] == 0.0
        assert topo.graph.weights[0, 1] == 0.0

    def test_disconnected_flagged_not_raised(self):
        # two far-apart clusters in a large area with tiny coverage radius
        cfg = WirelessConfig(n=4, area_side=100.0, power=0.11)
        pos = np.array([[0.0, 0.0], [0.01, 0.0], [99.0, 99.0], [99.01, 99.0]])
        topo = build_wireless_graph(cfg, Placement(pos, area_side=100.0))
        assert not topo.connected

    def test_generate_topology_resampling_deterministic(self):
        cfg = WirelessConfig(n=30)
        a = generate_topology(cfg, seed=6, resample_until_connected=50)
        b = generate_topology(cfg, seed=6, resample_until_connected=50)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert a.connected

    def test_generate_topologies_share_one_placement(self):
        base = WirelessConfig(n=30)
        configs = [base, dataclasses.replace(base, eta=4.0)]
        topos = generate_topologies(base, configs, seed=3,
                                    resample_until_connected=50, prefix=(1,))
        assert all(t.connected for t in topos)
        assert topos[0].placement is topos[1].placement

    def test_generate_topologies_returns_last_attempt(self):
        cfg = WirelessConfig(n=50, eta=6.0, threshold=0.9)
        topo, = generate_topologies(cfg, [cfg], seed=1,
                                    resample_until_connected=3, prefix=(4,))
        assert not topo.connected
        ss = np.random.SeedSequence(entropy=1, spawn_key=(4, 2))
        last = place_nodes(cfg, np.random.Generator(np.random.PCG64(ss)))
        assert np.array_equal(topo.placement.positions, last.positions)


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


def test_save_positions_csv(tmp_path):
    cfg = WirelessConfig(n=3)
    pl = place_nodes(cfg, 1)
    path = tmp_path / "pos.csv"
    save_positions(pl, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,x,y"
    assert len(lines) == 4
    i, x, y = lines[1].split(",")
    assert i == "0"
    assert float(x) == pl.positions[0, 0]
