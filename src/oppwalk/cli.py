"""Experiment runner: sweeps the analytic, oracle and Monte-Carlo latency
paths over parameter ranges and writes one CSV per run.

Every sweep row uses the fixed column schema

    family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials

and one unit per row: cycle, torus and dimension sweeps and bounds-check
write the mean latency T (resistance units), with Monte-Carlo hops divided
by the total edge weight vol/2 (EPD = (vol/2) * T); wireless sweeps and
walk-validate write the expected packet delay in hops.

Numeric-oracle and Monte-Carlo columns are skipped (marker "skipped") for
graphs above the node cap, so large closed-form sweeps stay honest about
what was cross-checked.  Reruns with identical arguments and seed produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import graphs, latency, spectral, walker, wireless
from .errors import ParameterError

DEFAULT_NODE_CAP = 4096
NODE_CAP_ENV = "OPPWALK_NODE_CAP"

CSV_HEADER = "family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials"

KINDS = (
    "cycle-sweep",
    "torus-sweep",
    "dimension-sweep",
    "bounds-check",
    "epd-eta-sweep",
    "epd-pmin-sweep",
    "epd-threshold-sweep",
    "walk-validate",
)


@dataclass
class ExperimentSpec:
    """One experiment run: a kind plus its swept/fixed parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    out: str = "-"
    seed: int = 0
    trials: int | None = None
    node_cap: int = DEFAULT_NODE_CAP
    oracle: bool = False
    resample: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


def _row(family, params, analytic=None, lower=None, upper=None,
         oracle=None, mc_mean=None, mc_ci=None, trials=None) -> str:
    cells = [family, params] + [_fmt(v) for v in
                                (analytic, lower, upper, oracle,
                                 mc_mean, mc_ci, trials)]
    return ",".join(cells)


def _parse_value(token: str, kind, text: str):
    """One number of the argument text; anything else is a usage error."""
    try:
        value = kind(token)
    except ValueError:
        raise ParameterError(f"bad value {token!r} in {text!r}") from None
    if not np.isfinite(value):
        raise ParameterError(f"non-finite value {token!r} in {text!r}")
    return value


def parse_range(text: str, kind=float) -> list:
    """Inclusive start:stop[:step] range, or comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ParameterError(f"bad range {text!r}; use start:stop[:step]")
        start, stop = (_parse_value(v, kind, text) for v in parts[:2])
        step = kind(1)
        if len(parts) == 3:
            step = _parse_value(parts[2], kind, text)
        if step == 0 or (stop - start) * step < 0:
            raise ParameterError(
                f"range {text!r} is empty or step sign inconsistent"
            )
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        vals = [start + i * step for i in range(count)]
    else:
        vals = [_parse_value(v, kind, text) for v in text.split(",") if v != ""]
    if not vals:
        raise ParameterError(f"range {text!r} is empty")
    if kind is int:
        vals = [int(v) for v in vals]
    else:
        vals = [round(float(v), 12) for v in vals]
    return vals


def _mc_estimate(g, trials: int, seed: int, label: str) -> walker.WalkEstimate:
    """Seeded Monte-Carlo mean latency of g in hops.  Walks cut at the step
    cap enter the mean at the cap; a row with any gets a stderr warning,
    never a CSV change."""
    est = walker.estimate_mean_latency(
        g, walker.WalkConfig(trials=trials, seed=seed))
    if est.truncated:
        print(f"warning: {label}: {est.truncated} of {est.trials_used} "
              "walks hit the step cap", file=sys.stderr)
    return est


def _mc_columns(g, spec: ExperimentSpec, label: str):
    """(mc_mean, mc_ci, trials) cells for one graph in the units of the
    mean latency T, honoring the cap; g is None when the sweep skipped
    building it."""
    if not spec.trials:
        return None, None, None
    if g is None or g.n > spec.node_cap:
        return "skipped", "skipped", None
    est = _mc_estimate(g, spec.trials, spec.seed, label)
    # Walks count hops; the commute-time identity EPD = (vol/2) * T turns
    # them into the resistance units of the analytic column.
    edge_weight = g.degrees.sum() / 2
    return est.mean / edge_weight, est.ci_halfwidth / edge_weight, est.trials_used


def _oracle_latency(g, spec: ExperimentSpec):
    if g is None or g.n > spec.node_cap:
        return "skipped"
    return latency.mean_latency_pinv(g)


# ---------------------------------------------------------------------------
# family sweeps


def _run_cycle_sweep(spec: ExperimentSpec, rows: list[str]) -> None:
    for n, r in spec.params["points"]:
        g = graphs.build_cycle(n, r) if n <= spec.node_cap else None
        lower, upper = latency.cycle_latency_bounds(n, r)
        params = f"n={n};r={r}"
        mc = _mc_columns(g, spec, f"cycle {params}")
        rows.append(_row(
            "cycle", params,
            analytic=latency.mean_latency_cycle(n, r),
            lower=lower, upper=upper,
            oracle=_oracle_latency(g, spec),
            mc_mean=mc[0], mc_ci=mc[1], trials=mc[2],
        ))


def _run_torus_sweep(spec: ExperimentSpec, rows: list[str]) -> None:
    for dims, r in spec.params["points"]:
        tspec = graphs.TorusSpec(dims, r)
        g = graphs.build_torus(tspec) if tspec.n <= spec.node_cap else None
        lower, upper = latency.torus_latency_bounds(tspec)
        dims_txt = "x".join(str(k) for k in dims)
        params = f"dims={dims_txt};r={r}"
        mc = _mc_columns(g, spec, f"torus {params}")
        rows.append(_row(
            "torus", params,
            analytic=latency.mean_latency_torus(tspec),
            lower=lower, upper=upper,
            oracle=_oracle_latency(g, spec),
            mc_mean=mc[0], mc_ci=mc[1], trials=mc[2],
        ))


def _run_bounds_check(spec: ExperimentSpec, rows: list[str]) -> None:
    for n, r in spec.params["points"]:
        lower, upper = latency.cycle_latency_bounds(n, r)
        rows.append(_row(
            "cycle", f"n={n};r={r}",
            analytic=latency.mean_latency_cycle(n, r),
            lower=lower, upper=upper,
        ))


# ---------------------------------------------------------------------------
# wireless ensembles


def _ensemble_topologies(base: wireless.WirelessConfig, configs,
                         spec: ExperimentSpec, n_seeds: int):
    """Per seed: one placement that is connected at every sweep point.

    A single placement serves the whole sweep so nested sweep points stay
    comparable; placements are redrawn (deterministic sub-seeds) until all
    sweep-point graphs are connected.
    """
    per_seed = []
    for seed_idx in range(n_seeds):
        chosen = None
        for attempt in range(spec.resample):
            ss = np.random.SeedSequence(entropy=spec.seed,
                                        spawn_key=(seed_idx, attempt))
            rng = np.random.Generator(np.random.PCG64(ss))
            placement = wireless.place_nodes(base, rng)
            topos = [wireless.build_wireless_graph(cfg, placement)
                     for cfg in configs]
            if all(t.connected for t in topos):
                chosen = topos
                break
        if chosen is None:
            raise RuntimeError(
                f"no connected placement found for ensemble seed {seed_idx} "
                f"within {spec.resample} attempts"
            )
        per_seed.append(chosen)
    return per_seed


def _epd_rows(family: str, labels, configs, base, spec: ExperimentSpec,
              rows: list[str]) -> None:
    n_seeds = spec.params.get("seeds", 20)
    per_seed = _ensemble_topologies(base, configs, spec, n_seeds)
    for j, label in enumerate(labels):
        epds, oracles, mc_means, mc_cis, trials_used = [], [], [], [], []
        for seed_idx in range(n_seeds):
            g = per_seed[seed_idx][j].graph
            epds.append(latency.expected_packet_delay(g))
            if spec.oracle:
                oracles.append(
                    latency.expected_packet_delay(g, "linear-system"))
            if spec.trials:
                est = _mc_estimate(g, spec.trials, spec.seed + seed_idx,
                                   f"{family} {label} seed {seed_idx}")
                mc_means.append(est.mean)
                mc_cis.append(est.ci_halfwidth)
                trials_used.append(est.trials_used)
        rows.append(_row(
            family, label,
            analytic=float(np.mean(epds)),
            oracle=float(np.mean(oracles)) if oracles else None,
            mc_mean=float(np.mean(mc_means)) if mc_means else None,
            mc_ci=float(np.mean(mc_cis)) if mc_cis else None,
            trials=sum(trials_used) if trials_used else None,
        ))


def _run_epd_eta_sweep(spec: ExperimentSpec, rows: list[str]) -> None:
    base = spec.params["config"]
    etas = spec.params["etas"]
    configs = [replace(base, eta=e) for e in etas]
    labels = [f"eta={_fmt(e)}" for e in etas]
    _epd_rows("wireless-eta", labels, configs, base, spec, rows)


def _run_epd_pmin_sweep(spec: ExperimentSpec, rows: list[str]) -> None:
    base = spec.params["config"]
    pmins = spec.params["pmins"]
    etas = spec.params["etas"]
    configs, labels = [], []
    for e in etas:
        for p in pmins:
            configs.append(replace(base, eta=e, p_min=p))
            labels.append(f"eta={_fmt(e)};p_min={_fmt(p)}")
    _epd_rows("wireless-pmin", labels, configs, base, spec, rows)


def _run_epd_threshold_sweep(spec: ExperimentSpec, rows: list[str]) -> None:
    base = spec.params["config"]
    taus = spec.params["taus"]
    etas = spec.params["etas"]
    configs, labels = [], []
    for e in etas:
        for tau in taus:
            configs.append(replace(base, eta=e, threshold=tau))
            labels.append(f"eta={_fmt(e)};tau={_fmt(tau)}")
    _epd_rows("wireless-threshold", labels, configs, base, spec, rows)


# ---------------------------------------------------------------------------
# walk validation


def parse_graph_spec(text: str, base_config=None, seed: int = 0,
                     resample: int = 100):
    """Graph descriptors: cycle:N:R, torus:K1xK2[x..]:R, wireless:SEED."""
    parts = text.split(":")
    if parts[0] == "cycle" and len(parts) == 3:
        n, r = (_parse_value(v, int, text) for v in parts[1:])
        return text, graphs.build_cycle(n, r)
    if parts[0] == "torus" and len(parts) == 3:
        dims = [_parse_value(k, int, text) for k in parts[1].split("x")]
        r = _parse_value(parts[2], int, text)
        return text, graphs.build_torus(graphs.TorusSpec(dims, r))
    if parts[0] == "wireless" and len(parts) == 2:
        cfg = base_config or wireless.WirelessConfig(n=30)
        topo = wireless.generate_topology(
            cfg, seed=_parse_value(parts[1], int, text),
            resample_until_connected=resample)
        if not topo.connected:
            raise RuntimeError(f"wireless graph {text} is disconnected")
        return text, topo.graph
    raise ParameterError(f"bad graph descriptor {text!r}")


def _run_walk_validate(spec: ExperimentSpec, rows: list[str]) -> None:
    trials = spec.trials or 100000
    for text in spec.params["graphs"]:
        label, g = parse_graph_spec(text, spec.params.get("config"),
                                    spec.seed, spec.resample)
        analytic = latency.expected_packet_delay(g)
        oracle = (latency.expected_packet_delay(g, "linear-system")
                  if spec.oracle else None)
        est = _mc_estimate(g, trials, spec.seed, f"walk-validate {label}")
        rows.append(_row(
            "walk-validate", label, analytic=analytic, oracle=oracle,
            mc_mean=est.mean, mc_ci=est.ci_halfwidth, trials=est.trials_used,
        ))


_RUNNERS = {
    "cycle-sweep": _run_cycle_sweep,
    "torus-sweep": _run_torus_sweep,
    "dimension-sweep": _run_torus_sweep,  # same row shape, points differ
    "bounds-check": _run_bounds_check,
    "epd-eta-sweep": _run_epd_eta_sweep,
    "epd-pmin-sweep": _run_epd_pmin_sweep,
    "epd-threshold-sweep": _run_epd_threshold_sweep,
    "walk-validate": _run_walk_validate,
}


def run(spec: ExperimentSpec) -> str:
    """Execute one experiment and return the CSV text (also written to
    spec.out unless it is '-')."""
    rows = [CSV_HEADER]
    _RUNNERS[spec.kind](spec, rows)
    text = "\n".join(rows) + "\n"
    if spec.out != "-":
        with open(spec.out, "w", newline="") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, mc: bool = True) -> None:
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-cap", type=int, default=None,
                   help="skip numeric-oracle/MC columns above this size "
                        f"(default ${NODE_CAP_ENV}, else {DEFAULT_NODE_CAP})")
    p.add_argument("--oracle", action="store_true",
                   help="write the linear-system EPD oracle column of wireless "
                        "sweeps and walk-validate; cycle, torus and dimension "
                        "sweeps write their latency oracle below the node cap "
                        "without it")
    if mc:
        p.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo walks per sweep point")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oppwalk",
        description="Latency experiments for random-walk routing",
    )
    sub = ap.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("cycle-sweep", help="mean latency over cycles")
    p.add_argument("--n", required=True, help="node count or range")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_common(p)

    p = sub.add_parser("torus-sweep", help="mean latency over 2-D tori")
    p.add_argument("--dims", required=True,
                   help="axis sizes K1xK2[x..]; one axis may be a range a:b[:c]")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_common(p)

    p = sub.add_parser("dimension-sweep",
                       help="mean latency over torus dimension prefixes")
    p.add_argument("--dims", default="16,18,20,22",
                   help="comma axis sizes; prefixes of length 1..m are swept")
    p.add_argument("--r", default="1:4", help="neighbor radius or range")
    _add_common(p)

    p = sub.add_parser("bounds-check", help="closed-form bounds vs latency")
    p.add_argument("--n", required=True)
    p.add_argument("--r", required=True)
    _add_common(p, mc=False)

    for kind, extra in (
        ("epd-eta-sweep", (("--etas", "2:6:0.5"),)),
        ("epd-pmin-sweep", (("--pmins", "0.05:0.3:0.05"), ("--etas", "2,4"))),
        ("epd-threshold-sweep", (("--taus", "0.1:0.7:0.1"), ("--etas", "2,4"))),
    ):
        p = sub.add_parser(kind, help="wireless ensemble EPD sweep")
        for flag, default in extra:
            p.add_argument(flag, default=default)
        p.add_argument("--config", default=None,
                       help="key=value wireless config file")
        p.add_argument("--n", type=int, default=30)
        p.add_argument("--seeds", type=int, default=20,
                       help="ensemble size (placements per sweep point)")
        p.add_argument("--resample-until-connected", type=int, default=100)
        _add_common(p)

    p = sub.add_parser("walk-validate",
                       help="Monte-Carlo agreement with analytic EPD")
    p.add_argument("--graphs", required=True,
                   help="comma list: cycle:N:R, torus:K1xK2:R, wireless:SEED")
    p.add_argument("--config", default=None)
    p.add_argument("--resample-until-connected", type=int, default=100)
    _add_common(p)

    p = sub.add_parser("spectrum-export",
                       help="closed-form spectrum CSV, one eigenvalue per line")
    p.add_argument("--family", choices=("cycle", "torus"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("wireless-export",
                       help="generate one topology; write edge list + positions")
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resample-until-connected", type=int, default=0)
    p.add_argument("--out-prefix", required=True)

    return ap


def _wireless_base(args) -> wireless.WirelessConfig:
    if args.config:
        cfg = wireless.load_config(args.config)
        if getattr(args, "n", None) and args.n != cfg.n:
            cfg = replace(cfg, n=args.n)
        return cfg
    return wireless.WirelessConfig(n=getattr(args, "n", 30) or 30)


def _node_cap(args) -> int:
    if args.node_cap is not None:
        return args.node_cap
    text = os.environ.get(NODE_CAP_ENV)
    if text is None:
        return DEFAULT_NODE_CAP
    try:
        return int(text)
    except ValueError:
        raise ParameterError(
            f"{NODE_CAP_ENV} must be an integer, got {text!r}") from None


def _spec_from_args(args) -> ExperimentSpec:
    spec = ExperimentSpec(
        kind=args.kind,
        out=args.out,
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", None),
        node_cap=_node_cap(args),
        oracle=getattr(args, "oracle", False),
        resample=getattr(args, "resample_until_connected", 100),
    )
    if args.kind in ("cycle-sweep", "bounds-check"):
        ns = parse_range(args.n, int)
        rs = parse_range(args.r, int)
        spec.params["points"] = [(n, r) for n in ns for r in rs]
    elif args.kind == "torus-sweep":
        axes = []
        for part in args.dims.split("x"):
            axes.append(parse_range(part, int))
        rs = parse_range(args.r, int)
        dim_combos = [[]]
        for axis in axes:
            dim_combos = [combo + [k] for combo in dim_combos for k in axis]
        spec.params["points"] = [(tuple(d), r) for d in dim_combos for r in rs]
    elif args.kind == "dimension-sweep":
        dims = parse_range(args.dims, int)
        rs = parse_range(args.r, int)
        spec.params["points"] = [
            (tuple(dims[:m]), r)
            for r in rs for m in range(1, len(dims) + 1)
        ]
    elif args.kind == "epd-eta-sweep":
        spec.params["config"] = _wireless_base(args)
        spec.params["etas"] = parse_range(args.etas, float)
        spec.params["seeds"] = args.seeds
    elif args.kind == "epd-pmin-sweep":
        spec.params["config"] = _wireless_base(args)
        spec.params["pmins"] = parse_range(args.pmins, float)
        spec.params["etas"] = parse_range(args.etas, float)
        spec.params["seeds"] = args.seeds
    elif args.kind == "epd-threshold-sweep":
        spec.params["config"] = _wireless_base(args)
        spec.params["taus"] = parse_range(args.taus, float)
        spec.params["etas"] = parse_range(args.etas, float)
        spec.params["seeds"] = args.seeds
    elif args.kind == "walk-validate":
        spec.params["graphs"] = [s for s in args.graphs.split(",") if s]
        if not spec.params["graphs"]:
            raise ParameterError("--graphs must list at least one graph")
        spec.params["config"] = _wireless_base(args) if args.config else None
    return spec


def _run_spectrum_export(args) -> int:
    if args.family == "cycle":
        if args.n is None:
            raise ParameterError("--n is required for family=cycle")
        vals = spectral.cycle_laplacian_spectrum(args.n, args.r).values
    else:
        if not args.dims:
            raise ParameterError("--dims is required for family=torus")
        dims = [int(k) for k in args.dims.split("x")]
        vals = spectral.torus_laplacian_spectrum(
            graphs.TorusSpec(dims, args.r)).values
    text = "".join(f"{v:.17g}\n" for v in vals)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    return 0


def _run_wireless_export(args) -> int:
    cfg = _wireless_base(args)
    topo = wireless.generate_topology(
        cfg, seed=args.seed,
        resample_until_connected=args.resample_until_connected)
    graphs.save_edge_list(topo.graph, args.out_prefix + ".edges")
    wireless.save_positions(topo.placement, args.out_prefix + ".positions.csv")
    if not topo.connected:
        print("warning: generated topology is disconnected", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.kind == "spectrum-export":
            return _run_spectrum_export(args)
        if args.kind == "wireless-export":
            return _run_wireless_export(args)
        spec = _spec_from_args(args)
        text = run(spec)
        if spec.out == "-":
            sys.stdout.write(text)
        return 0
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
