"""Experiment runner: sweeps the analytic, oracle and Monte-Carlo latency
paths over parameter ranges and writes one CSV per run.

Every sweep row uses the fixed column schema

    family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials

and one unit per row: cycle, torus and dimension sweeps and bounds-check
write the mean latency T (resistance units), with Monte-Carlo hops divided
by the total edge weight vol/2 (EPD = (vol/2) * T); wireless sweeps and
walk-validate write the expected packet delay in hops.  The mc_ci of a
wireless ensemble row is the 95% CI halfwidth of the ensemble mean.

Each sweep subcommand's parser sets `rows`, the function that turns the
parsed arguments into CSV rows; `run` writes the header and those rows.
The oracle column of cycle, torus and dimension sweeps is the mean latency
from the FFT of the built graph (latency.mean_latency_circulant), not from
the closed forms.  It and the Monte-Carlo columns are skipped (marker
"skipped") for graphs above the node cap, so large closed-form sweeps stay
honest about what was cross-checked.
Reruns with identical arguments and seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace

import numpy as np

from . import graphs, latency, spectral, walker, wireless
from .errors import ParameterError

CSV_HEADER = "family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials"

# Wireless ensemble sweeps: subcommand -> (family, axes).  Each axis is
# (flag, default range, WirelessConfig field, label key); rows run over the
# product of the axes, the first (eta) outermost.
_EPD_SWEEPS = {
    "epd-eta-sweep": ("wireless-eta", (
        ("--etas", "2:6:0.5", "eta", "eta"),)),
    "epd-pmin-sweep": ("wireless-pmin", (
        ("--etas", "2,4", "eta", "eta"),
        ("--pmins", "0.05:0.3:0.05", "p_min", "p_min"))),
    "epd-threshold-sweep": ("wireless-threshold", (
        ("--etas", "2,4", "eta", "eta"),
        ("--taus", "0.1:0.7:0.1", "threshold", "tau"))),
}


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
    est = walker.estimate_mean_latency(g, trials, seed)
    if est.truncated:
        print(f"warning: {label}: {est.truncated} of {est.trials_used} "
              "walks hit the step cap", file=sys.stderr)
    return est


# ---------------------------------------------------------------------------
# cycle and torus sweeps


def _lattice_row(args, family, params, spec) -> str:
    """One row of the lattice spec (a cycle is the one-axis torus) in the
    units of T: the closed-form mean latency and bounds, then the FFT
    oracle of the built graph and, with --trials, the Monte-Carlo columns.
    Above the node cap the graph is never built and those columns read
    "skipped"; bounds-check takes no node cap and writes only the closed
    forms."""
    cells = {"analytic": latency.mean_latency_torus(spec)}
    cells["lower"], cells["upper"] = latency.torus_latency_bounds(spec)
    if "node_cap" not in vars(args):
        pass  # bounds-check: the closed forms only
    elif spec.n > args.node_cap:
        cells["oracle"] = "skipped"
        if args.trials:
            cells["mc_mean"] = cells["mc_ci"] = "skipped"
    else:
        g = graphs.build_torus(spec)
        cells["oracle"] = latency.mean_latency_circulant(g, spec.dims)
        if args.trials:
            est = _mc_estimate(g, args.trials, args.seed, f"{family} {params}")
            # Walks count hops; the commute-time identity EPD = (vol/2) * T
            # turns them into the resistance units of the analytic column.
            edge_weight = g.degrees.sum() / 2
            cells.update(mc_mean=est.mean / edge_weight,
                         mc_ci=est.ci_halfwidth / edge_weight,
                         trials=est.trials_used)
    return _row(family, params, **cells)


def _cycle_rows(args):
    for n, r in itertools.product(parse_range(args.n, int),
                                  parse_range(args.r, int)):
        yield _lattice_row(args, "cycle", f"n={n};r={r}",
                           graphs.TorusSpec((n,), r))


def _torus_row(args, dims, r) -> str:
    spec = graphs.TorusSpec(dims, r)
    params = f"dims={'x'.join(str(k) for k in dims)};r={r}"
    return _lattice_row(args, "torus", params, spec)


def _torus_rows(args):
    axes = [parse_range(part, int) for part in args.dims.split("x")]
    for *dims, r in itertools.product(*axes, parse_range(args.r, int)):
        yield _torus_row(args, dims, r)


def _dimension_rows(args):
    dims = parse_range(args.dims, int)
    for r in parse_range(args.r, int):
        for m in range(1, len(dims) + 1):
            yield _torus_row(args, dims[:m], r)


# ---------------------------------------------------------------------------
# wireless ensembles


def _wireless_base(args) -> wireless.WirelessConfig:
    """The --config file (else the defaults at n=30), at --n nodes if given.
    An unreadable or invalid file is a usage error."""
    n = getattr(args, "n", None)
    if not args.config:
        return wireless.WirelessConfig(n=30 if n is None else n)
    try:
        cfg = wireless.load_config(args.config)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"bad --config file: {exc}") from None
    return cfg if n is None else replace(cfg, n=n)


def _epd_rows(args):
    """Ensemble mean EPD per sweep point.  Each ensemble seed places its
    nodes once for the whole sweep, so nested sweep points stay comparable;
    the placement is redrawn until the graph of every point is connected."""
    family, axes = _EPD_SWEEPS[args.kind]
    base = _wireless_base(args)
    ranges = [parse_range(getattr(args, flag[2:]), float)
              for flag, *_ in axes]
    fields = [field for _, _, field, _ in axes]
    keys = [key for *_, key in axes]
    configs, labels = [], []
    for values in itertools.product(*ranges):
        configs.append(replace(base, **dict(zip(fields, values))))
        labels.append(";".join(f"{k}={_fmt(v)}" for k, v in zip(keys, values)))
    per_seed = []
    for s in range(args.seeds):
        topos = wireless.generate_topologies(
            base, configs, args.seed, args.resample_until_connected,
            prefix=(s,))
        if not all(t.connected for t in topos):
            raise RuntimeError(
                f"no connected placement found for ensemble seed {s} within "
                f"{max(1, args.resample_until_connected)} attempts")
        per_seed.append(topos)
    for j, label in enumerate(labels):
        gs = [topos[j].graph for topos in per_seed]
        analytic = float(np.mean([latency.expected_packet_delay(g) for g in gs]))
        oracle = mc_mean = mc_ci = trials = None
        if args.oracle:
            oracle = float(np.mean([
                latency.expected_packet_delay(g, "linear-system") for g in gs]))
        if args.trials:
            ests = [_mc_estimate(g, args.trials, args.seed + s,
                                 f"{family} {label} seed {s}")
                    for s, g in enumerate(gs)]
            mc_mean = float(np.mean([e.mean for e in ests]))
            # The per-seed means are independent, so the CI of their mean
            # adds the per-seed halfwidths in quadrature.
            mc_ci = float(np.sqrt(sum(e.ci_halfwidth ** 2 for e in ests))
                          / len(ests))
            trials = sum(e.trials_used for e in ests)
        yield _row(family, label, analytic=analytic, oracle=oracle,
                   mc_mean=mc_mean, mc_ci=mc_ci, trials=trials)


# ---------------------------------------------------------------------------
# walk validation


def parse_graph_spec(text: str, base_config=None, resample: int = 100):
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


def _walk_validate_rows(args):
    texts = [s for s in args.graphs.split(",") if s]
    if not texts:
        raise ParameterError("--graphs must list at least one graph")
    config = _wireless_base(args)
    for text in texts:
        label, g = parse_graph_spec(text, config, args.resample_until_connected)
        oracle = (latency.expected_packet_delay(g, "linear-system")
                  if args.oracle else None)
        est = _mc_estimate(g, args.trials, args.seed, f"walk-validate {label}")
        yield _row("walk-validate", label,
                   analytic=latency.expected_packet_delay(g), oracle=oracle,
                   mc_mean=est.mean, mc_ci=est.ci_halfwidth,
                   trials=est.trials_used)


def run(args) -> str:
    """Write CSV_HEADER and the rows of one parsed sweep command to
    args.out ('-' is stdout) and return the CSV text."""
    text = "\n".join([CSV_HEADER, *args.rows(args)]) + "\n"
    _write(args.out, text)
    return text


def _write(out: str, text: str) -> None:
    """Write text to the path out, or to stdout when out is '-'."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _count(minimum: int):
    """argparse type: an integer of at least `minimum`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "integer"
    return parse


def _sweep(sub, kind: str, rows, help: str):
    """Subparser of a CSV sweep whose rows come from rows(args)."""
    p = sub.add_parser(kind, help=help)
    p.set_defaults(command=run, rows=rows)
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.add_argument("--seed", type=_count(0), default=0)
    return p


def _add_trials(p, default=None) -> None:
    p.add_argument("--trials", type=_count(1), default=default,
                   help="Monte-Carlo walks per sweep point")


def _add_mc(p) -> None:
    p.add_argument("--node-cap", type=_count(0), default=4096,
                   help="skip the FFT-oracle and MC columns above this size "
                        "(default 4096)")
    _add_trials(p)


def _add_oracle(p) -> None:
    p.add_argument("--oracle", action="store_true",
                   help="write the fundamental-matrix EPD oracle column")


def _add_resample(p, default: int) -> None:
    p.add_argument("--resample-until-connected", type=_count(0),
                   default=default,
                   help="placement attempts per seed (0 or 1: one attempt)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oppwalk",
        description="Latency experiments for random-walk routing",
    )
    sub = ap.add_subparsers(dest="kind", required=True)

    p = _sweep(sub, "cycle-sweep", _cycle_rows, "mean latency over cycles")
    p.add_argument("--n", required=True, help="node count or range")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_mc(p)

    p = _sweep(sub, "torus-sweep", _torus_rows, "mean latency over m-D tori")
    p.add_argument("--dims", required=True,
                   help="axis sizes K1xK2[x..]; each axis may be a range a:b[:c]")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_mc(p)

    p = _sweep(sub, "dimension-sweep", _dimension_rows,
               "mean latency over torus dimension prefixes")
    p.add_argument("--dims", default="16,18,20,22",
                   help="comma axis sizes; prefixes of length 1..m are swept")
    p.add_argument("--r", default="1:4", help="neighbor radius or range")
    _add_mc(p)

    p = _sweep(sub, "bounds-check", _cycle_rows,
               "closed-form bounds vs latency")
    p.add_argument("--n", required=True)
    p.add_argument("--r", required=True)

    for kind, (_family, axes) in _EPD_SWEEPS.items():
        p = _sweep(sub, kind, _epd_rows, "wireless ensemble EPD sweep")
        for flag, default, *_ in axes:
            p.add_argument(flag, default=default)
        p.add_argument("--config", default=None,
                       help="key=value wireless config file")
        p.add_argument("--n", type=int, default=None,
                       help="node count (default: the --config file, else 30)")
        p.add_argument("--seeds", type=_count(1), default=20,
                       help="ensemble size (placements per sweep point)")
        _add_resample(p, 100)
        _add_trials(p)
        _add_oracle(p)

    p = _sweep(sub, "walk-validate", _walk_validate_rows,
               "Monte-Carlo agreement with analytic EPD")
    p.add_argument("--graphs", required=True,
                   help="comma list: cycle:N:R, torus:K1xK2:R, wireless:SEED")
    p.add_argument("--config", default=None)
    _add_resample(p, 100)
    _add_trials(p, default=100000)
    _add_oracle(p)

    p = sub.add_parser("spectrum-export",
                       help="closed-form spectrum CSV, one eigenvalue per line")
    p.set_defaults(command=_run_spectrum_export)
    p.add_argument("--family", choices=("cycle", "torus"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("wireless-export",
                       help="generate one topology; write edge list + positions")
    p.set_defaults(command=_run_wireless_export)
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=int, default=None,
                   help="node count (default: the --config file, else 30)")
    p.add_argument("--seed", type=_count(0), default=0)
    _add_resample(p, 0)
    p.add_argument("--out-prefix", required=True)

    return ap


def _run_spectrum_export(args) -> None:
    if args.family == "cycle":
        if args.n is None:
            raise ParameterError("--n is required for family=cycle")
        dims = [args.n]
    else:
        if not args.dims:
            raise ParameterError("--dims is required for family=torus")
        dims = [_parse_value(k, int, args.dims) for k in args.dims.split("x")]
    vals = spectral.torus_laplacian_eigenvalues(graphs.TorusSpec(dims, args.r))
    _write(args.out, "".join(f"{v:.17g}\n" for v in np.sort(vals)))


def _run_wireless_export(args) -> None:
    cfg = _wireless_base(args)
    topo = wireless.generate_topology(
        cfg, seed=args.seed,
        resample_until_connected=args.resample_until_connected)
    graphs.save_edge_list(topo.graph, args.out_prefix + ".edges")
    wireless.save_positions(topo.placement, args.out_prefix + ".positions.csv")
    if not topo.connected:
        print("warning: generated topology is disconnected", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.command(args)
        return 0
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
