"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import numpy as np
import pytest

from oppwalk import cli, graphs, latency, spectral, walker, wireless

MC_SEED = 7
MC_TRIALS = 100_000
WIRELESS_BASE = wireless.WirelessConfig(n=30, p_min=0.1)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _cycle_cases():
    cases = []
    for n in range(4, 65):
        for r in range(1, (n - 1) // 2 + 1):
            cases.append((n, r))
    return cases


TORUS_CASES_2D3D = [
    ((4, 4), 1), ((5, 7), 1), ((8, 8), 1), ((9, 9), 2), ((12, 10), 2),
    ((16, 16), 3), ((25, 20), 4), ((40, 40), 5), ((64, 64), 1),
    ((4, 4, 4), 1), ((5, 6, 7), 1), ((8, 8, 8), 2), ((7, 9, 11), 3),
    ((10, 12, 14), 2), ((16, 16, 16), 2),
]


def test_criterion_1_spectrum_equivalence():
    worst = 0.0
    for n, r in _cycle_cases():
        closed = np.sort(spectral.cycle_laplacian_eigenvalues(n, r))
        numeric = np.linalg.eigvalsh(graphs.build_cycle(n, r).laplacian())
        worst = max(worst, float(np.abs(closed - numeric).max()))
    for dims, r in TORUS_CASES_2D3D:
        spec = graphs.TorusSpec(dims, r)
        assert spec.n <= 4096
        closed = np.sort(spectral.torus_laplacian_eigenvalues(spec))
        numeric = np.linalg.eigvalsh(graphs.build_torus(spec).laplacian())
        worst = max(worst, float(np.abs(closed - numeric).max()))
    _report(1, f"closed-form vs numeric spectra, max |diff| = {worst:.2e}",
            worst <= 1e-9)


# The lattices of criterion 2: (n, r) cycles and (dims, r) tori.
ORACLE_CYCLE_CASES = [(n, r) for n in range(5, 45, 5)
                      for r in range(1, (n - 1) // 2 + 1, 2)]
ORACLE_TORUS_CASES = [
    ((4, 4), 1), ((5, 5), 1), ((6, 8), 1), ((7, 7), 2), ((9, 12), 3),
    ((3, 3, 3), 1), ((4, 5, 6), 1), ((7, 7, 7), 2),
]


def test_criterion_2_latency_oracle_equivalence():
    # two oracles on the built graph: the dense inverse and its FFT
    combos = 0
    worst = 0.0
    for n, r in ORACLE_CYCLE_CASES:
        analytic = latency.mean_latency_cycle(n, r)
        g = graphs.build_cycle(n, r)
        for oracle in (latency.mean_latency_pinv(g),
                       latency.mean_latency_circulant(g, (n,))):
            worst = max(worst, abs(analytic - oracle))
        combos += 1
    for dims, r in ORACLE_TORUS_CASES:
        spec = graphs.TorusSpec(dims, r)
        analytic = latency.mean_latency_torus(spec)
        g = graphs.build_torus(spec)
        for oracle in (latency.mean_latency_pinv(g),
                       latency.mean_latency_circulant(g, dims)):
            worst = max(worst, abs(analytic - oracle))
        combos += 1
    _report(2, f"closed-form latency vs dense pseudoinverse and FFT oracles "
               f"over {combos} combinations, max |diff| = {worst:.2e}",
            combos >= 50 and worst <= 1e-9)


def _hitting_test_graphs():
    out = [graphs.build_cycle(n, r) for n, r in
           [(3, 1), (4, 1), (8, 2), (12, 3), (20, 1), (33, 5), (64, 10)]]
    out += [graphs.build_torus(graphs.TorusSpec(d, r)) for d, r in
            [((4, 4), 1), ((5, 7), 1), ((8, 8), 2), ((3, 4, 5), 1)]]
    out.append(graphs.Graph(np.ones((10, 10)) - np.eye(10)))
    rng = np.random.default_rng(0)
    w = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.6), 1)
    w = w + w.T
    w[w.sum(axis=1) == 0, 0] = 1.0  # keep every node attached
    w[0, w.sum(axis=1) == 0] = 1.0
    out.append(graphs.Graph(0.5 * (w + w.T)))
    for seed in range(20):
        topo = wireless.generate_topology(WIRELESS_BASE, seed=seed,
                                          resample_until_connected=100)
        assert topo.connected
        out.append(topo.graph)
    return [g for g in out if g.is_connected() and g.n <= 64]


def test_criterion_3_hitting_time_double_oracle():
    worst = 0.0
    count = 0
    for g in _hitting_test_graphs():
        a = latency.hitting_times(g)
        b = latency.hitting_times_linear_system(g)
        worst = max(worst, float(np.abs(a - b).max() / b.max()))
        count += 1
    _report(3, f"spectral vs first-step hitting times on {count} graphs "
               f"(incl. 20 wireless), max rel |diff| = {worst:.2e}",
            worst <= 1e-8)


def _mc_validation_graphs():
    cases = [("cycle:3:1", graphs.build_cycle(3, 1)),
             ("cycle:4:1", graphs.build_cycle(4, 1)),
             ("cycle:8:2", graphs.build_cycle(8, 2)),
             ("torus:4x4:1", graphs.build_torus(graphs.TorusSpec([4, 4], 1)))]
    for seed in range(5):
        topo = wireless.generate_topology(WIRELESS_BASE, seed=seed,
                                          resample_until_connected=100)
        cases.append((f"wireless:{seed}", topo.graph))
    return cases


def test_criterion_4_monte_carlo_agreement():
    ok = True
    details = []
    for label, g in _mc_validation_graphs():
        epd = latency.expected_packet_delay(g)
        est = walker.estimate_mean_latency(g, MC_TRIALS, MC_SEED)
        covered = abs(est.mean - epd) <= est.ci_halfwidth
        tight = est.ci_halfwidth <= 0.02 * est.mean
        ok = ok and covered and tight and est.truncated == 0
        details.append(f"{label}:{'ok' if covered and tight else 'FAIL'}")
    _report(4, "MC mean latency within 95% CI of analytic EPD, CI <= 2% "
               f"({'; '.join(details)})", ok)


def test_criterion_5_bound_sandwich():
    ok = True
    worst = 0.0
    for n, r in _cycle_cases():
        lower, upper = latency.cycle_latency_bounds(n, r)
        t = latency.mean_latency_cycle(n, r)
        ok = ok and lower <= t * (1 + 1e-12) and t <= upper * (1 + 1e-12)
        lam1 = np.sort(spectral.cycle_laplacian_eigenvalues(n, r))[1]
        worst = max(worst, abs(upper - 2.0 / lam1),
                    abs(lower - 2.0 / ((n - 1) * lam1)))
    for dims, r in TORUS_CASES_2D3D:
        spec = graphs.TorusSpec(dims, r)
        lower, upper = latency.torus_latency_bounds(spec)
        t = latency.mean_latency_torus(spec)
        ok = ok and lower <= t * (1 + 1e-12) and t <= upper * (1 + 1e-12)
    for g in _hitting_test_graphs():
        if g.n < 2:
            continue
        lam1 = np.linalg.eigvalsh(g.laplacian())[1]
        lower, upper = 2.0 / ((g.n - 1) * lam1), 2.0 / lam1
        t = latency.mean_latency_pinv(g)
        ok = ok and lower <= t * (1 + 1e-12) and t <= upper * (1 + 1e-12)
    _report(5, "lower <= T <= upper everywhere; closed-form bounds vs "
               f"2/lambda_1, max |diff| = {worst:.2e}",
            ok and worst <= 1e-9)


def _sweep_csv(argv):
    """CSV text of one sweep command, parsed as the CLI parses it."""
    return cli.run(cli.build_parser().parse_args(argv))


def test_criterion_6_cycle_and_dimension_sweeps():
    rows = _sweep_csv(["cycle-sweep", "--n", "300", "--r", "1:10"])
    rows = rows.strip().split("\n")[1:]
    cyc = [float(r.split(",")[2]) for r in rows]
    fig4 = all(a > b for a, b in zip(cyc, cyc[1:]))

    dims = [16, 18, 20, 22]
    fig8 = True
    for r in range(1, 5):
        series = [latency.mean_latency_torus(graphs.TorusSpec(dims[:m], r))
                  for m in range(1, 5)]
        fig8 = fig8 and all(a > b for a, b in zip(series, series[1:]))
    for m in range(1, 5):
        series = [latency.mean_latency_torus(graphs.TorusSpec(dims[:m], r))
                  for r in range(1, 5)]
        fig8 = fig8 and all(a > b for a, b in zip(series, series[1:]))
    _report(6, "T(n=300) strictly decreasing in r; T decreasing in "
               "dimension and in r on [16,18,20,22] prefixes", fig4 and fig8)


def _epd_sweep_outputs():
    argv_sets = {
        "eta": ["epd-eta-sweep", "--etas", "2:6:0.5", "--seeds", "20",
                "--seed", "0"],
        "pmin": ["epd-pmin-sweep", "--pmins", "0.05:0.3:0.05",
                 "--etas", "2,4", "--seeds", "20", "--seed", "0"],
        "tau": ["epd-threshold-sweep", "--taus", "0.1:0.7:0.1",
                "--etas", "2,4", "--seeds", "20", "--seed", "0"],
    }
    return {key: _sweep_csv(argv) for key, argv in argv_sets.items()}


def _column(csv_text, col=2):
    return [float(ln.split(",")[col])
            for ln in csv_text.strip().split("\n")[1:]]


def test_criterion_7_wireless_epd_trends():
    outputs = _epd_sweep_outputs()
    eta_vals = _column(outputs["eta"])
    eta_ok = all(a <= b for a, b in zip(eta_vals, eta_vals[1:]))

    pmin_vals = _column(outputs["pmin"])
    eta2, eta4 = pmin_vals[:6], pmin_vals[6:]
    pmin_ok = (all(a <= b for a, b in zip(eta2, eta2[1:]))
               and all(a <= b for a, b in zip(eta4, eta4[1:]))
               and all(h >= l for l, h in zip(eta2, eta4)))

    tau_vals = _column(outputs["tau"])
    tau2, tau4 = tau_vals[:7], tau_vals[7:]
    tau_ok = (all(a <= b for a, b in zip(tau2, tau2[1:]))
              and all(a <= b for a, b in zip(tau4, tau4[1:])))
    _report(7, "ensemble EPD nondecreasing in eta, p_min and threshold; "
               "eta=4 curve >= eta=2 curve", eta_ok and pmin_ok and tau_ok)


def test_criterion_8_determinism():
    argv = ["walk-validate",
            "--graphs", "cycle:3:1,cycle:4:1,cycle:8:2,torus:4x4:1,"
                        "wireless:0,wireless:1,wireless:2,wireless:3,"
                        "wireless:4",
            "--trials", str(MC_TRIALS), "--seed", str(MC_SEED)]
    first = _sweep_csv(argv)
    second = _sweep_csv(argv)
    mc_ok = first == second
    sweeps1 = _epd_sweep_outputs()
    sweeps2 = _epd_sweep_outputs()
    epd_ok = sweeps1 == sweeps2
    _report(8, "MC validation and wireless ensemble CSVs byte-identical "
               "across reruns", mc_ok and epd_ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
