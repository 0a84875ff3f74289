import csv
import dataclasses
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

import pytest

from oppwalk import cli, graphs, latency, walker, wireless
from oppwalk.cli import (
    CSV_HEADER,
    _row,
    build_parser,
    main,
    parse_graph_spec,
    parse_range,
)
from oppwalk.errors import ParameterError
from oppwalk.graphs import TorusSpec
from oppwalk.spectral import (
    cycle_laplacian_eigenvalues,
    torus_laplacian_eigenvalues,
)
from test_bench_contract import bench_module


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows
    return rows


class TestRow:
    def test_csv_row_full(self):
        row = _row("torus", "dims=3x3;r=1", analytic=0.5, lower=0.25,
                   upper=1.0, oracle=0.5, mc_mean=0.49, mc_ci=0.01,
                   trials=1000)
        assert row == "torus,dims=3x3;r=1,0.5,0.25,1,0.5,0.49,0.01,1000"

    def test_csv_row_optional_fields_empty(self):
        row = _row("cycle", "n=3;r=1", analytic=2.0, lower=1.0, upper=3.0)
        assert row == "cycle,n=3;r=1,2,1,3,,,,"


class TestParseRange:
    def test_int_range_inclusive(self):
        assert parse_range("1:10", int) == list(range(1, 11))

    def test_step(self):
        assert parse_range("10:100:30", int) == [10, 40, 70, 100]

    def test_float_range(self):
        assert parse_range("2:6:0.5", float) == pytest.approx(
            [2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6])

    def test_comma_list(self):
        assert parse_range("2,4", float) == [2.0, 4.0]

    def test_single_value(self):
        assert parse_range("300", int) == [300]

    def test_inconsistent_step_sign(self):
        with pytest.raises(ParameterError):
            parse_range("5:1:1", int)

    def test_empty(self):
        with pytest.raises(ParameterError):
            parse_range(",", float)


class TestCycleSweep:
    def test_fig4_shape_and_monotonicity(self, capsys):
        code, out, _ = run_cli(
            ["cycle-sweep", "--n", "300", "--r", "1:10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        analytic = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(a > b for a, b in zip(analytic, analytic[1:]))

    def test_oracle_column_below_cap(self, capsys):
        code, out, _ = run_cli(
            ["cycle-sweep", "--n", "20", "--r", "1"], capsys)
        row = out.strip().split("\n")[1].split(",")
        assert abs(float(row[2]) - float(row[5])) < 1e-9

    def test_oracle_skipped_above_cap(self, capsys):
        code, out, _ = run_cli(
            ["cycle-sweep", "--n", "4097", "--r", "1"], capsys)
        assert out.strip().split("\n")[1].split(",")[5] == "skipped"

    @pytest.mark.parametrize("sweep,at_cap,above_cap", [
        ("cycle-sweep", ["--n", "4096", "--r", "64"],
         ["--n", "4097", "--r", "64"]),
        ("torus-sweep", ["--dims", "64x64", "--r", "1"],
         ["--dims", "17x241", "--r", "1"]),
    ])
    def test_node_cap_is_4096(self, capsys, sweep, at_cap, above_cap):
        mc = ["--trials", "10", "--seed", "3"]
        (row,) = csv_rows(run_cli([sweep, *at_cap, *mc], capsys)[1])
        assert float(row["oracle"]) == pytest.approx(float(row["analytic"]),
                                                     rel=1e-9)
        assert float(row["mc_mean"]) > 0 and float(row["mc_ci"]) > 0
        assert row["trials"] == "10"
        (row,) = csv_rows(run_cli([sweep, *above_cap, *mc], capsys)[1])
        assert [row[k] for k in ("oracle", "mc_mean", "mc_ci", "trials")] == [
            "skipped", "skipped", "skipped", ""]

    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["cycle-sweep", "--n", "10", "--r", "1:2", "--out", str(path)],
            capsys)
        assert code == 0
        assert path.read_text().startswith(CSV_HEADER)


# 10**20, an integer numpy's int64 cannot hold
BEYOND_INT64 = "100000000000000000000"
# a directory that no test creates
MISSING_DIR = "/nonexistent-oppwalk-dir"


class TestUsageErrors:
    def test_zero_length_range_exit_2(self, capsys):
        code, _, err = run_cli(
            ["epd-eta-sweep", "--etas", "6:2:1", "--seeds", "2"], capsys)
        assert code == 2
        assert "usage error" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["no-such-kind"], capsys)
        assert exc.value.code == 2

    def test_bad_cycle_params_exit_2(self, capsys):
        code, _, err = run_cli(["cycle-sweep", "--n", "4", "--r", "5"], capsys)
        assert code == 2

    def test_negative_node_cap_flag_exit_2(self, capsys):
        # the node cap is fixed; no value of --node-cap is taken
        with pytest.raises(SystemExit) as exc:
            run_cli(["torus-sweep", "--dims", "10x8", "--r", "1",
                     "--node-cap", "-5"], capsys)
        assert exc.value.code == 2
        assert "--node-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cycle-sweep", "--n", "10:abc", "--r", "1"],
        ["epd-eta-sweep", "--etas", "2,nan", "--seeds", "2"],
        ["walk-validate", "--graphs", "cycle:abc:1"],
        ["spectrum-export", "--dims", "3xabc", "--r", "1"],
        # an empty item of a comma list is a bad value, not skipped
        ["dimension-sweep", "--dims", "16,,18", "--r", "1"],
        ["epd-eta-sweep", "--etas", "2,,4", "--seeds", "1"],
        ["cycle-sweep", "--n", "10,", "--r", "1"],
        ["walk-validate", "--graphs", "cycle:4:1,", "--trials", "10"],
        # a range whose count overflows, or is too large to list
        ["epd-eta-sweep", "--etas=-1e308:1e308", "--seeds", "1"],
        ["epd-eta-sweep", "--etas", "0:1e12:1e-3", "--seeds", "1"],
        ["cycle-sweep", "--n", "1:1000000000000", "--r", "1"],
        # an integer beyond int64
        ["cycle-sweep", "--n", BEYOND_INT64, "--r", "1"],
        ["cycle-sweep", "--n", "10", "--r", BEYOND_INT64],
        ["walk-validate", "--graphs", f"wireless:{BEYOND_INT64}"],
        ["walk-validate", "--graphs", f"torus:4x{BEYOND_INT64}:1"],
        ["spectrum-export", "--dims", BEYOND_INT64, "--r", "1"],
        # a negative wireless seed
        ["walk-validate", "--graphs", "wireless:-1"],
        # a torus of more nodes than int64 holds, each axis within it
        ["walk-validate", "--graphs", "torus:4000000000x4000000000:1",
         "--trials", "2"],
    ])
    def test_bad_number_exit_2(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv,message", [
        (["torus-sweep", "--dims", "4x", "--r", "1"], "bad value '' in '4x'"),
        (["torus-sweep", "--dims", "4xa", "--r", "1"],
         "bad value 'a' in '4xa'"),
        (["walk-validate", "--graphs", "torus:4x:1"],
         "bad value '' in 'torus:4x:1'"),
    ])
    def test_bad_axis_quotes_the_whole_argument(self, capsys, argv, message):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv,flag", [
        (["epd-eta-sweep", "--etas", "2", "--seeds", "0"], "--seeds"),
        (["cycle-sweep", "--n", "10", "--r", "1", "--trials", "0"], "--trials"),
        (["epd-eta-sweep", "--etas", "2", "--trials", "-5"], "--trials"),
        (["walk-validate", "--graphs", "cycle:4:1", "--trials", "0"], "--trials"),
        (["epd-eta-sweep", "--etas", "2", "--resample-until-connected", "-1"],
         "--resample-until-connected"),
        (["walk-validate", "--graphs", "wireless:1",
          "--resample-until-connected", "-1"], "--resample-until-connected"),
        (["cycle-sweep", "--n", "10", "--r", "1", "--oracle"], "--oracle"),
        (["bounds-check", "--n", "10", "--r", "1", "--node-cap", "5"],
         "--node-cap"),
        (["epd-eta-sweep", "--etas", "2", "--node-cap", "5"], "--node-cap"),
        (["walk-validate", "--graphs", "cycle:4:1", "--node-cap", "5"],
         "--node-cap"),
        (["walk-validate", "--graphs", "cycle:5:1", "--trials", "10",
          "--seed", "-1"], "--seed"),
        (["epd-eta-sweep", "--etas", "2", "--seeds", "1", "--seed", "-1"],
         "--seed"),
        (["cycle-sweep", "--n", "10", "--r", "1", "--trials", "10",
          "--seed", "-3"], "--seed"),
        (["wireless-export", "--n", "10", "--seed", "-2",
          "--out-prefix", "unused"], "--seed"),
        (["cycle-sweep", "--n", "10", "--r", "1", "--node-cap", "5"],
         "--node-cap"),
        (["torus-sweep", "--dims", "4x5", "--r", "1", "--node-cap", "5"],
         "--node-cap"),
        (["dimension-sweep", "--node-cap", "5"], "--node-cap"),
        (["spectrum-export", "--dims", "3", "--r", "1", "--node-cap", "5"],
         "--node-cap"),
        (["wireless-export", "--out-prefix", "unused", "--node-cap", "5"],
         "--node-cap"),
        # a cycle's spectrum is --dims N
        (["spectrum-export", "--family", "cycle", "--dims", "5", "--r", "1"],
         "--family"),
        (["spectrum-export", "--dims", "3", "--n", "99", "--r", "1"], "--n"),
        # an integer beyond int64
        (["walk-validate", "--graphs", "cycle:8:1", "--trials", BEYOND_INT64],
         "--trials"),
        (["wireless-export", "--n", BEYOND_INT64, "--out-prefix", "unused"],
         "--n"),
        (["epd-eta-sweep", "--n", BEYOND_INT64], "--n"),
        # one walk has no CI
        (["cycle-sweep", "--n", "10", "--r", "1", "--trials", "1"], "--trials"),
        (["epd-eta-sweep", "--etas", "2", "--trials", "1"], "--trials"),
        (["walk-validate", "--graphs", "cycle:4:1", "--trials", "1"], "--trials"),
        # an output path in a missing directory, refused before any row
        (["torus-sweep", "--dims", "4x5", "--r", "1",
          "--out", f"{MISSING_DIR}/t.csv"], "--out"),
        (["walk-validate", "--graphs", "cycle:4:1",
          "--out", f"{MISSING_DIR}/w.csv"], "--out"),
        (["spectrum-export", "--dims", "5", "--r", "1",
          "--out", f"{MISSING_DIR}/s.csv"], "--out"),
        (["wireless-export", "--n", "10",
          "--out-prefix", f"{MISSING_DIR}/topo"], "--out-prefix"),
    ])
    def test_bad_count_or_flag_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, capsys)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_missing_out_directory_runs_no_walk(self, monkeypatch, tmp_path,
                                                capsys):
        def walked(*args, **kwargs):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(walker, "estimate_mean_latency", walked)
        with pytest.raises(SystemExit) as exc:
            run_cli(["walk-validate", "--graphs", "cycle:64:1,torus:16x16:1",
                     "--out", str(tmp_path / "missing" / "x.csv")], capsys)
        assert exc.value.code == 2
        assert "--out: no such directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cycle-sweep", "--n", "10", "--r", "1"],
        ["epd-eta-sweep", "--etas", "2", "--seeds", "1"],
        ["spectrum-export", "--dims", "5", "--r", "1"],
    ])
    def test_out_directory_exit_2_before_any_row(self, monkeypatch, tmp_path,
                                                 capsys, argv):
        # an --out naming a directory is refused when parsed, not after
        # every row is computed
        def computed(*args, **kwargs):
            raise AssertionError("a row was computed")

        for name in ("mean_latency_torus", "expected_packet_delay"):
            monkeypatch.setattr(latency, name, computed)
        monkeypatch.setattr(cli.spectral, "torus_laplacian_eigenvalues",
                            computed)
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--out", str(tmp_path)], capsys)
        assert exc.value.code == 2
        assert "--out: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_prefix_may_name_a_directory(self, tmp_path, capsys):
        # an --out-prefix is a prefix: topo.edges beside the directory topo
        (tmp_path / "topo").mkdir()
        code, _, err = run_cli(["wireless-export", "--n", "10", "--out-prefix",
                                str(tmp_path / "topo")], capsys)
        assert (code, err) == (0, "")
        assert (tmp_path / "topo.edges").is_file()

    def test_int64_bounds(self):
        # an integer argument may be any int64; --seed any integer >= 0
        top = 2 ** 63 - 1
        assert parse_range(str(top), int) == [top]
        assert parse_range(f"{-top},{top}", int) == [-top, top]
        with pytest.raises(ParameterError, match="beyond int64"):
            parse_range(str(top + 1), int)
        argv = ["walk-validate", "--graphs", "cycle:8:1"]
        assert build_parser().parse_args(
            [*argv, "--trials", str(top)]).trials == top
        assert build_parser().parse_args(
            [*argv, "--seed", BEYOND_INT64]).seed == 10 ** 20
        for bad in ([*argv, "--trials", str(top + 1)],
                    ["epd-eta-sweep", "--seeds", str(top + 1)]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(bad)

    def test_seed_beyond_int64_is_taken(self, capsys):
        code, out, err = run_cli(["walk-validate", "--graphs", "cycle:8:1",
                                  "--trials", "10", "--seed", BEYOND_INT64],
                                 capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == (
            "walk-validate,cycle:8:1,12,,,,10.5,5.09632513832,10")

    @pytest.mark.parametrize("text", [
        None, "n=20\neta=nan\n", "n=abc\n", "n=20\nradius=3\n", "eta=2\n",
        "n=20\nn=10\n", f"n={BEYOND_INT64}\n",
    ], ids=["missing-file", "nan", "bad-int", "unknown-key", "no-n",
            "repeated-key", "n-beyond-int64"])
    @pytest.mark.parametrize("argv", [
        ["epd-eta-sweep", "--etas", "2", "--seeds", "1"],
        ["wireless-export", "--out-prefix", "unused"],
    ], ids=["sweep", "export"])
    def test_bad_config_file_exit_2(self, tmp_path, monkeypatch, capsys,
                                    argv, text):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "w.cfg"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(argv + ["--config", str(path)], capsys)
        assert code == 2
        assert err.startswith("usage error: bad --config file:"), err
        assert out == ""
        assert list(tmp_path.iterdir()) == ([] if text is None else [path])

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_wireless_nodes_exit_2(self, capsys, n):
        code, _, err = run_cli(
            ["epd-eta-sweep", "--etas", "2", "--seeds", "1", "--n", n], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "n >= 2" in err


class TestTorusSweeps:
    def test_fig6_large_closed_form_with_skips(self, capsys):
        code, out, _ = run_cli(
            ["torus-sweep", "--dims", "1000x1000", "--r", "1:3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 3
        analytic = [float(ln.split(",")[2]) for ln in lines]
        assert all(a > b for a, b in zip(analytic, analytic[1:]))
        assert lines[0].split(",")[5] == "skipped"

    def test_fig7_axis_range(self, capsys):
        code, out, _ = run_cli(
            ["torus-sweep", "--dims", "10:30:10x8", "--r", "1"], capsys)
        lines = out.strip().split("\n")[1:]
        assert [ln.split(",")[1] for ln in lines] == [
            "dims=10x8;r=1", "dims=20x8;r=1", "dims=30x8;r=1"]

    def test_dimension_sweep_fig8(self, capsys):
        code, out, _ = run_cli(
            ["dimension-sweep", "--dims", "16,18,20,22", "--r", "1:4"], capsys)
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 16
        # within each r block, latency decreases as dimension grows
        for block in range(4):
            vals = [float(ln.split(",")[2])
                    for ln in lines[4 * block: 4 * block + 4]]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBoundsCheck:
    def test_builds_no_graph(self, capsys, monkeypatch):
        def build(spec):
            raise AssertionError(f"bounds-check built {spec}")
        monkeypatch.setattr(graphs, "build_torus", build)
        code, out, _ = run_cli(
            ["bounds-check", "--n", "10:100:10", "--r", "2", "--seed", "7"],
            capsys)
        assert code == 0
        for row in csv_rows(out):
            assert row["analytic"] and row["lower"] and row["upper"]
            assert not (row["oracle"] or row["mc_mean"] or row["trials"])

    def test_sandwich_rows(self, capsys):
        code, out, _ = run_cli(
            ["bounds-check", "--n", "10:60:10", "--r", "2"], capsys)
        for ln in out.strip().split("\n")[1:]:
            cells = ln.split(",")
            lower, analytic, upper = (float(cells[3]), float(cells[2]),
                                      float(cells[4]))
            assert lower <= analytic <= upper


class TestWalkValidate:
    def test_mc_within_ci_of_analytic(self, capsys):
        code, out, _ = run_cli(
            ["walk-validate", "--graphs", "cycle:3:1,cycle:4:1",
             "--trials", "100000", "--seed", "42"], capsys)
        assert code == 0
        for ln in out.strip().split("\n")[1:]:
            cells = ln.split(",")
            analytic, mc, ci = float(cells[2]), float(cells[6]), float(cells[7])
            assert abs(mc - analytic) <= ci

    def test_graph_descriptor_parsing(self):
        config = cli._wireless_base(None)
        spec, g = parse_graph_spec("torus:4x4:1", config)
        assert spec == TorusSpec((4, 4), 1) and g.n == 16
        spec, g = parse_graph_spec("cycle:9:2", config)
        assert spec == TorusSpec((9,), 2) and g.n == 9
        spec, g = parse_graph_spec("wireless:3", config)
        assert spec is None and g.n == 30
        with pytest.raises(ParameterError):
            parse_graph_spec("hypercube:4", config)

    def test_lattice_analytic_is_edges_times_closed_form(self, capsys):
        # the paper's closed form, cross-checked by the FFT oracle
        code, out, _ = run_cli(
            ["walk-validate", "--graphs",
             "cycle:64:1,torus:16x16:1,cycle:11:5,torus:3x4x5:1",
             "--trials", "200", "--oracle"], capsys)
        assert code == 0
        specs = [TorusSpec((64,), 1), TorusSpec((16, 16), 1),
                 TorusSpec((11,), 5), TorusSpec((3, 4, 5), 1)]
        for row, spec in zip(csv_rows(out), specs, strict=True):
            epd = spec.n * spec.m * spec.r * latency.mean_latency_torus(spec)
            assert row["analytic"] == f"{epd:.12g}"
            assert float(row["oracle"]) == pytest.approx(epd, rel=1e-11)

    def test_lattice_analytic_uses_no_dense_route(self, capsys, monkeypatch):
        def dense(g):
            raise AssertionError("dense EPD on a lattice")
        monkeypatch.setattr(latency, "expected_packet_delay", dense)
        monkeypatch.setattr(latency, "hitting_times_linear_system", dense)
        # a 64 x 64 torus: one dense matrix is 134 MB
        for oracle in [], ["--oracle"]:
            peak = traced_peak(["walk-validate", "--graphs", "torus:64x64:1",
                                "--trials", "2", *oracle], capsys)
            assert peak < 8 * 4096 ** 2 / 16

    def test_lattice_oracle_is_the_fundamental_matrix_epd(self, capsys):
        # the FFT oracle of a lattice row against the dense oracle of
        # wireless rows: the commute-time identity EPD = (vol/2) * T
        texts = ["cycle:4:1", "cycle:12:3", "torus:4x5:1", "torus:3x4x5:1"]
        code, out, _ = run_cli(["walk-validate", "--graphs", ",".join(texts),
                                "--trials", "2", "--oracle"], capsys)
        assert code == 0
        for row, text in zip(csv_rows(out), texts, strict=True):
            _, g = parse_graph_spec(text, None)
            assert float(row["oracle"]) == pytest.approx(cli._oracle_epd(g),
                                                         rel=1e-9)


class TestMonteCarloAgreesWithAnalytic:
    """Every sweep kind that writes MC columns writes them in the units of
    its analytic column: |z| <= 4 per row, z = |mc - analytic| / (ci / 1.96)."""

    @pytest.mark.parametrize("argv", [
        ["cycle-sweep", "--n", "12:24:12", "--r", "1:2", "--trials", "2000"],
        ["torus-sweep", "--dims", "4x5", "--r", "1", "--trials", "2000"],
        ["dimension-sweep", "--dims", "4,5", "--r", "1", "--trials", "2000"],
        ["epd-eta-sweep", "--etas", "2,4", "--n", "12", "--seeds", "2",
         "--trials", "1000"],
        ["epd-pmin-sweep", "--pmins", "0.1,0.2", "--etas", "2", "--n", "12",
         "--seeds", "2", "--trials", "1000"],
        ["epd-threshold-sweep", "--taus", "0.3,0.5", "--etas", "2",
         "--n", "12", "--seeds", "2", "--trials", "1000"],
        ["walk-validate", "--graphs", "cycle:8:1,torus:4x4:1,wireless:0",
         "--trials", "2000"],
    ])
    def test_z_within_4(self, capsys, argv):
        code, out, _ = run_cli(argv + ["--seed", "5"], capsys)
        assert code == 0
        for row in csv_rows(out):
            analytic, mc = float(row["analytic"]), float(row["mc_mean"])
            z = abs(mc - analytic) / (float(row["mc_ci"]) / 1.96)
            assert z <= 4.0, row


class TestEnsembleCI:
    def test_mc_ci_is_ci_of_ensemble_mean(self, capsys, monkeypatch):
        # one walker batch holds the 4 ensemble graphs of the sweep point
        calls = []
        estimate = walker.estimate_mean_latency

        def spy(gs, trials, seed):
            gs = list(gs)
            calls.append((len(gs), trials, seed, estimate(gs, trials, seed)))
            return calls[-1][-1]

        monkeypatch.setattr(walker, "estimate_mean_latency", spy)
        code, out, _ = run_cli(
            ["epd-eta-sweep", "--etas", "2", "--n", "12", "--seeds", "4",
             "--trials", "500", "--seed", "5"], capsys)
        assert code == 0 and len(calls) == 1
        count, trials, seed, batch = calls[0]
        assert (count, trials, seed) == (4, 500, 5)
        ests = batch.estimates
        row = csv_rows(out)[0]
        assert float(row["mc_mean"]) == pytest.approx(
            np.mean([e.mean for e in ests]), rel=1e-11)
        assert float(row["mc_ci"]) == pytest.approx(
            np.sqrt(sum(e.ci_halfwidth ** 2 for e in ests)) / 4, rel=1e-11)
        assert int(row["trials"]) == sum(e.trials_used for e in ests)


def traced_peak(argv, capsys):
    """tracemalloc peak in bytes of one CLI run that succeeds."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return peak


class TestMemory:
    """Sweeps hold one graph at a time; a wireless ensemble seed also holds
    its placement's sparsest graph until that graph's turn."""

    @pytest.mark.parametrize("mc", [[], ["--trials", "100"]])
    def test_lattice_sweep_holds_one_dense_graph(self, capsys, mc):
        # four tori of 992-1088 nodes, 7.9-9.5 MB dense each (34.6 MB in
        # all).  Lattices are built from their CSR rows and never made
        # dense, so the whole sweep stays below a quarter of one matrix
        # (0.6 MB without MC, 1.4 MB with).
        peak = traced_peak(["torus-sweep", "--dims", "31:34x32", "--r", "1",
                            *mc], capsys)
        assert peak < 8 * 1088 ** 2 / 4

    @pytest.mark.parametrize("mc", [[], ["--trials", "10"]])
    def test_lattice_graph_dropped_before_the_next(self, capsys, monkeypatch,
                                                   mc):
        # with or without --trials, every graph is built and none is kept
        alive = []
        build = graphs.build_torus

        def spy(spec):
            assert all(ref() is None for ref in alive)
            g = build(spec)
            alive.append(weakref.ref(g))
            return g

        monkeypatch.setattr(graphs, "build_torus", spy)
        code, out, _ = run_cli(
            ["cycle-sweep", "--n", "10:40:10", "--r", "1", *mc], capsys)
        assert code == 0 and len(alive) == 4
        assert "skipped" not in out

    @pytest.mark.parametrize("mc", [[], ["--trials", "10"]])
    def test_each_graph_dropped_before_the_next_is_built(self, capsys,
                                                         monkeypatch, mc):
        # eta 6 gives the smallest link radius, so each placement's first
        # graph is the last sweep point's and is held until its turn.  Every
        # other graph, a rejected placement's too, is dead before the next
        # graph is built, with or without --trials.  3 of the 6 placements
        # are rejected.
        built = []  # (placement, graph) weak references, in build order
        build = wireless.build_wireless_graph

        def spy(cfg, placement):
            held = next((g for p, g in built if p() is placement), None)
            assert all(g() is None or g is held for _, g in built)
            topo = build(cfg, placement)
            built.append((weakref.ref(placement), weakref.ref(topo.graph)))
            return topo

        monkeypatch.setattr(wireless, "build_wireless_graph", spy)
        code, _, _ = run_cli(["epd-eta-sweep", "--etas", "2,4,6", "--n", "12",
                              "--seeds", "3", *mc], capsys)
        assert code == 0 and len(built) == 3 * 3 + 3

    def test_no_walk_above_the_cap(self, capsys, monkeypatch):
        # --trials on a sweep whose every graph is above the node cap walks
        # nothing and builds nothing
        def no_walks(*args):
            raise AssertionError("walked a sweep with no graph to walk")

        monkeypatch.setattr(walker, "estimate_mean_latency", no_walks)
        monkeypatch.setattr(graphs, "build_torus", no_walks)
        code, out, _ = run_cli(["cycle-sweep", "--n", "5000", "--r", "1",
                                "--trials", "10"], capsys)
        assert code == 0
        assert csv_rows(out)[0]["mc_mean"] == "skipped"

    def test_walk_validate_holds_one_copy_of_the_rows(self, capsys):
        # 512 x 512, r = 2: the built rows take 18.9 MB.  The walker
        # writes them straight into its union and drops them, a lattice
        # walks without a slot table of row lengths, and the FFT oracle
        # scales and inverts its eigenvalues in place, so the peak is two
        # copies of the rows: the graph's and the union's while the union
        # is built, then the union and its slot table of neighbors, 2.0
        # times the rows (2.9 while the union was joined from shifted
        # copies and the walker kept row lengths per slot, 3.9 while it
        # also held the graph's own rows).
        spec = graphs.TorusSpec((512, 512), 2)
        rows = 8 * (spec.n + 1 + 2 * spec.edges)
        peak = traced_peak(["walk-validate", "--graphs", "torus:512x512:2",
                            "--trials", "2", "--oracle"], capsys)
        assert peak < 2.3 * rows

    def test_ensemble_memory_does_not_grow_with_points(self, capsys):
        # n=400: one dense n x n matrix takes 1.28 MB.  A seed holds its
        # placement's distances and sparsest graph, and the graph in hand
        # and its Laplacian while its EPD is taken, however many points
        # (before, the 12 graphs of the default pmin sweep were alive at
        # once: 18.2 MB).  A 1-point sweep's only graph is its sparsest,
        # so 12 points may peak one matrix above it.  The 1-point sweep
        # runs first, so one-time allocations land in its peak, not in the
        # others'.
        matrix = 8 * 400 ** 2
        argv = ["epd-pmin-sweep", "--n", "400", "--seeds", "1"]
        one = traced_peak([*argv, "--etas", "2", "--pmins", "0.05"], capsys)
        two = traced_peak([*argv, "--etas", "4", "--pmins", "0.25,0.3"],
                          capsys)
        twelve = traced_peak(argv, capsys)
        assert twelve < two + matrix / 8
        assert twelve < one + 1.25 * matrix

    @pytest.mark.parametrize("oracle,bound", [([], 2.6), (["--oracle"], 3.5)])
    def test_wireless_sweep_peak_in_float_matrices(self, capsys, oracle,
                                                   bound):
        # n=400, in units of one n x n float64 matrix (1.28 MB): the
        # distances, the Laplacian and eigvalsh's copy, beside the sparsest
        # and the current graph, n^2 bytes each as bool (2.44; 3.27 with
        # the fundamental-matrix buffers of --oracle).  With each graph
        # held as float64 the sweep peaked at 4.19 (5.02 with --oracle).
        # A small sweep runs first, so that one-time allocations (1.3 MB)
        # land in its peak.
        argv = ["epd-pmin-sweep", "--seeds", "1", *oracle]
        traced_peak([*argv, "--n", "30"], capsys)
        peak = traced_peak([*argv, "--n", "400"], capsys)
        assert peak <= bound * 8 * 400 ** 2

    def test_ensemble_memory_does_not_grow_with_seeds(self, capsys):
        # n=200: one seed's graphs of the 9 sweep points would take 2.9 MB
        # as float64 and take 0.36 MB as the bool each graph keeps, so
        # keeping every seed's would add 2.2 MB from 2 seeds to 8, three
        # times the margin below (17 MB while graphs were float64).  One of
        # the 8 seeds redraws its placement; the rejected attempt stops at
        # its first disconnected graph and is released before the redraw,
        # so its graphs are never alive beside the new ones.
        one_seed = 9 * 8 * 200 ** 2
        argv = ["epd-eta-sweep", "--n", "200", "--seed", "3", "--seeds"]
        two = traced_peak([*argv, "2"], capsys)
        eight = traced_peak([*argv, "8"], capsys)
        assert eight < two + one_seed / 4


@pytest.mark.parametrize("argv", [
    *(argv for workload in ("lattice-oracle", "wireless-ensemble", "walk-mc")
      for _, argv in bench_module("workloads").steps(workload, 7, tiny=True)),
    ["walk-validate", "--graphs", "wireless:0,cycle:8:1", "--trials", "50",
     "--oracle"],
    ["epd-eta-sweep", "--etas", "2,4", "--n", "20", "--seeds", "2",
     "--trials", "10", "--oracle"],
    ["wireless-export", "--n", "20", "--out-prefix", "topo"],
], ids=shlex.join)
def test_cli_reads_no_float_weights(capsys, monkeypatch, tmp_path, argv):
    # a dense graph is read as its bool store: its connectivity sweep and
    # its CSR rows make no float64 copy of the adjacency
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(graphs.Graph, "weights", property(
        lambda g: pytest.fail("a CLI path read Graph.weights")))
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")


class TestTruncationWarning:
    CASES = [
        (["cycle-sweep", "--n", "12", "--r", "1", "--trials", "200"],
         "warning: cycle n=12;r=1: "),
        (["epd-eta-sweep", "--etas", "2", "--n", "12", "--seeds", "1",
          "--trials", "200"], "warning: wireless-eta eta=2 seed 0: "),
        (["walk-validate", "--graphs", "cycle:12:1", "--trials", "200"],
         "warning: walk-validate cycle:12:1: "),
    ]

    @pytest.mark.parametrize("argv,prefix", CASES)
    def test_warns_on_stderr_only(self, capsys, monkeypatch, argv, prefix):
        _, plain, err = run_cli(argv, capsys)
        assert err == ""
        monkeypatch.setattr(walker, "_step_cap", lambda n: 3)
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err.startswith(prefix) and "walks hit the step cap" in err
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == len(plain.splitlines())


class TestConfigOverride:
    @pytest.mark.parametrize("argv,swept", [
        (["epd-eta-sweep", "--etas", "2,3"], {"eta"}),
        (["epd-pmin-sweep", "--pmins", "0.1,0.2", "--etas", "2"],
         {"eta", "p_min"}),
        (["epd-threshold-sweep", "--taus", "0.3,0.4", "--etas", "2"],
         {"eta", "threshold"}),
    ])
    def test_n_override_keeps_every_field(self, tmp_path, capsys,
                                          monkeypatch, argv, swept):
        path = tmp_path / "w.cfg"
        path.write_text("n=20\nc_n=1.5\nthreshold=0.35\nalpha=3.0\n"
                        "p_min=0.15\npower=2.5\n")
        expected = dataclasses.replace(wireless.load_config(path), n=14)
        seen = []
        build = wireless.build_wireless_graph

        def spy(cfg, placement):
            seen.append(cfg)
            return build(cfg, placement)

        monkeypatch.setattr(wireless, "build_wireless_graph", spy)
        code, _, err = run_cli(argv + ["--config", str(path), "--n", "14",
                                       "--seeds", "1"], capsys)
        assert code == 0, err
        assert seen
        for cfg in seen:
            for f in dataclasses.fields(cfg):
                if f.name not in swept:
                    assert getattr(cfg, f.name) == getattr(expected, f.name), f.name


class TestDeterminism:
    def test_byte_identical_rerun_walk_validate(self, capsys):
        argv = ["walk-validate", "--graphs", "cycle:4:1,wireless:1",
                "--trials", "20000", "--seed", "9"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_byte_identical_rerun_epd_sweep(self, capsys):
        argv = ["epd-eta-sweep", "--etas", "2:4:1", "--seeds", "3",
                "--seed", "1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    # sha256 of the whole CSV at seed 7, Monte-Carlo and oracle columns
    # included: the walker batch takes each ensemble's graphs one at a time,
    # seed-major, and its draws follow that order.  The first command is
    # the benchmark's tiny eta-mc step.  The third was pinned on the
    # float64 dense store, so it checks that the bool store writes the
    # same bytes.  The last two are the benchmark's other tiny walk-mc
    # steps; its own digests leave the MC columns out, so only these catch
    # a drift of the walker's stream.
    @pytest.mark.parametrize("argv,digest", [
        (["epd-eta-sweep", "--etas", "2,4", "--seeds", "2", "--trials", "200"],
         "f2ffb7810a507fbc9d515466f6d0639a2b2e616fb7fe94abfa44294be3a85626"),
        (["epd-threshold-sweep", "--n", "30", "--seeds", "2", "--trials", "20",
          "--oracle"],
         "5b75482d097268c42f636fd877ec647bd1d724a9a77b5db1d9da01fb85c801ca"),
        (["epd-pmin-sweep", "--n", "120", "--seeds", "2", "--trials", "50",
          "--oracle"],
         "17c4e05a967261b49787b99d88120203caa5dbc4bb4b8ef3e37ce08032355d9d"),
        (["walk-validate", "--graphs", "cycle:16:1,torus:4x4:1,wireless:0",
          "--trials", "2000", "--oracle"],
         "364c44e126e1470fc7027e29c39aff5cc3f010c56abe776d313b7d137fc84b38"),
        (["cycle-sweep", "--n", "16", "--r", "1", "--trials", "200"],
         "6ab231e01f22be0e9056946e96fadd242e3ecd2ad2ed5bfcf3491c76f7f88c0c"),
    ], ids=["eta-mc", "threshold-oracle", "pmin-oracle", "walk-validate",
            "cycle-sweep-mc"])
    def test_golden_ensemble_csv(self, capsys, argv, digest):
        code, out, err = run_cli([*argv, "--seed", "7"], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the whole CSV of each full-size benchmark walk-mc step at
    # seed 7, MC columns included.  These reach blocks of a few steps over
    # thousands of walks, which the tiny steps above never do.  The pass
    # runs twice in one process, as a benchmark pass repeats its steps, so
    # a block that read a stale entry of a buffer reused across blocks or
    # batches would show as a second pass that differs from the first.
    def test_full_walk_mc_pass_twice(self, capsys):
        want = {
            "walk-validate":
                "f1606b6176b24f8575bc5d9babc5dd78c13800da870c0397ecc8d03f3084c258",
            "eta-mc":
                "27b1e96a9ab75f3528ffe68cfadf89c2f124d8ea357aeeea6a45e79a0371d0fe",
            "cycle-sweep-mc":
                "03efa06875afb784e6c4dfc416b57b36c91445711b3f7abf75d45e1a28871a97",
        }
        steps = bench_module("workloads").steps("walk-mc", 7)
        assert [label for label, _ in steps] == list(want)
        for _ in range(2):
            for label, argv in steps:
                code, out, err = run_cli(argv, capsys)
                assert (code, err) == (0, ""), label
                assert hashlib.sha256(out.encode()).hexdigest() == want[label]


class TestWirelessSweepsSmall:
    def test_eta_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            ["epd-eta-sweep", "--etas", "2,4", "--seeds", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert [ln.split(",")[1] for ln in lines] == ["eta=2", "eta=4"]
        assert float(lines[0].split(",")[2]) > 0

    def test_pmin_sweep_with_config_file(self, tmp_path, capsys,
                                         monkeypatch):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n=20\npower=2.0\n")
        seen = []
        build = wireless.build_wireless_graph

        def spy(config, placement):
            seen.append(config.n)
            return build(config, placement)

        monkeypatch.setattr(wireless, "build_wireless_graph", spy)
        code, out, _ = run_cli(
            ["epd-pmin-sweep", "--pmins", "0.1,0.2", "--etas", "2",
             "--seeds", "2", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 3
        assert seen and set(seen) == {20}


class TestExports:
    def test_spectrum_export_cycle(self, tmp_path, capsys):
        # a cycle is one axis: the sorted closed form of the cycle, byte
        # for byte
        path = tmp_path / "spec.csv"
        for n, r in [(4, 1), (50, 3), (5000, 7)]:
            code, _, _ = run_cli(
                ["spectrum-export", "--dims", str(n), "--r", str(r),
                 "--out", str(path)], capsys)
            assert code == 0
            vals = np.sort(cycle_laplacian_eigenvalues(n, r))
            assert path.read_text() == "".join(f"{v:.17g}\n" for v in vals)
        vals = [float(v) for v in run_cli(
            ["spectrum-export", "--dims", "4", "--r", "1"], capsys)[1].split()]
        assert vals == pytest.approx([0, 2, 2, 4], abs=1e-12)

    def test_spectrum_export_torus_stdout(self, capsys):
        code, out, _ = run_cli(
            ["spectrum-export", "--dims", "3x3", "--r", "1"], capsys)
        vals = sorted(float(v) for v in out.split())
        assert vals == pytest.approx([0, 3, 3, 3, 3, 6, 6, 6, 6], abs=1e-12)

    def test_spectrum_export_streams_same_text(self, tmp_path, capsys):
        # 4200 lines: more than one chunk of formatted eigenvalues
        path = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            ["spectrum-export", "--dims", "60x70", "--r", "2",
             "--out", str(path)], capsys)
        assert code == 0
        vals = torus_laplacian_eigenvalues(TorusSpec((60, 70), 2))
        assert path.read_text() == "".join(f"{v:.17g}\n"
                                           for v in np.sort(vals))

    def test_spectrum_export_memory(self, tmp_path, capsys):
        # one string per eigenvalue, all joined, took 13 times the 8n bytes
        # of the spectrum
        n = 300 * 300
        peak = traced_peak(
            ["spectrum-export", "--dims", "300x300", "--r", "1",
             "--out", str(tmp_path / "spec.csv")], capsys)
        assert peak < 3 * 8 * n

    def test_wireless_export(self, tmp_path, capsys):
        prefix = str(tmp_path / "topo")
        code, _, _ = run_cli(
            ["wireless-export", "--n", "15", "--seed", "2",
             "--out-prefix", prefix],
            capsys)
        assert code == 0
        edges = (tmp_path / "topo.edges").read_text()
        assert edges.startswith("n 15")
        positions = (tmp_path / "topo.positions.csv").read_text()
        assert positions.startswith("i,x,y")

    def test_wireless_export_n_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n=12\n")
        prefix = str(tmp_path / "topo")
        code, _, _ = run_cli(
            ["wireless-export", "--config", str(cfg), "--out-prefix", prefix],
            capsys)
        assert code == 0
        assert (tmp_path / "topo.edges").read_text().startswith("n 12\n")

    def test_wireless_export_writes_the_walked_graph(self, tmp_path, capsys):
        # seed 1's first placement is disconnected at this config; export
        # and walk-validate both take the first connected one
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n=30\neta=4\nthreshold=0.7\n")
        prefix = str(tmp_path / "topo")
        code, _, _ = run_cli(
            ["wireless-export", "--config", str(cfg), "--seed", "1",
             "--out-prefix", prefix], capsys)
        assert code == 0
        _, g = parse_graph_spec("wireless:1", wireless.load_config(cfg))
        want = tmp_path / "want.edges"
        graphs.save_edge_list(g, want)
        assert (tmp_path / "topo.edges").read_text() == want.read_text()


class TestNoConnectedPlacement:
    # transmit power at p_min links no pair, so no placement connects
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("n=12\npower=0.1\np_min=0.1\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["epd-eta-sweep", "--etas", "2", "--seeds", "1", "--seed", "3"],
        ["walk-validate", "--graphs", "wireless:3", "--trials", "10"],
        ["wireless-export", "--seed", "3", "--out-prefix", "topo"],
    ])
    def test_exit_1_names_attempts_and_seed(self, argv, config, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv + ["--config", config], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: no connected placement in 100 attempts "
                              "for seed 3")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.cfg"]


def test_parser_builds():
    assert build_parser().prog == "oppwalk"
    assert build_parser() is not build_parser()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run_cli(["cycle-sweep", "--n", "5", "--r", "1"], capsys)[0] == 0
        code, out, _ = run_cli(["torus-sweep", "--dims", "3x4", "--r", "1"],
                               capsys)
    finally:
        cli._parser.cache_clear()
    assert code == 0 and out.startswith(CSV_HEADER)
    assert len(built) == 1


class TestModuleEntryPoint:
    """`python -m oppwalk` is the same CLI as the `oppwalk` script."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run([sys.executable, "-m", "oppwalk", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_writes_csv(self):
        proc = self.run_module("cycle-sweep", "--n", "10", "--r", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize("argv", [
        ("--no-such-flag",),
        ("spectrum-export", "--dims", "3xabc", "--r", "1"),
    ])
    def test_bad_argument_exit_2(self, argv):
        proc = self.run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
