"""Experiment runner: sweeps the analytic, oracle and Monte-Carlo latency
paths over parameter ranges and writes one CSV per run.

Every sweep row uses the fixed column schema

    family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials

and one unit per row: cycle, torus and dimension sweeps and bounds-check
write the mean latency T (resistance units), with Monte-Carlo hops divided
by the edge count vol/2 (EPD = (vol/2) * T); wireless sweeps and
walk-validate write the expected packet delay in hops.  The mc_ci of a
wireless ensemble row is the 95% CI halfwidth of the ensemble mean.

Each sweep subcommand's parser sets `rows`, the function that turns the
parsed arguments into CSV rows; `run` writes the header and those rows.
Every lattice is a TorusSpec (a cycle is the one-axis torus).  A wireless
seed with no connected placement (wireless.generate_topologies) exits 1.
bounds-check writes its closed forms only.  The oracle column of cycle,
torus and dimension sweeps is the mean latency from the FFT of the built
graph (latency.mean_latency_circulant), not from the closed forms.  It and
the Monte-Carlo columns are skipped (marker "skipped") for graphs above
_NODE_CAP nodes, so large closed-form sweeps stay honest about what was
cross-checked.  --oracle takes a lattice's EPD from the same FFT in
walk-validate, and the fundamental-matrix EPD (a dense n x n inverse) of
wireless graphs only, so no lattice is ever made dense.
The Monte-Carlo columns of one command come from one walker batch over
every graph it walks, at --seed; the graphs are built as the walker takes
them, after their analytic and oracle cells are computed.
Reruns with identical arguments and seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import collections
import functools
import itertools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import graphs, latency, spectral, walker, wireless
from .errors import ParameterError
from .graphs import _INT_MAX  # largest integer argument but --seed

CSV_HEADER = "family,params,analytic,lower,upper,oracle,mc_mean,mc_ci,trials"

# Eigenvalues spectrum-export formats into one string before writing it.
_EXPORT_LINES = 4096

# Lattice sweeps build, FFT-check and walk graphs of at most this many nodes.
_NODE_CAP = 4096

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
    if kind is int and abs(value) > _INT_MAX:
        raise ParameterError(f"value {token!r} beyond int64 in {text!r}")
    if not np.isfinite(value):
        raise ParameterError(f"non-finite value {token!r} in {text!r}")
    return value


def _parse_dims(sizes: str, text: str) -> list:
    """The axis sizes of K1xK2[x..] text, one int each, within the argument
    text."""
    return [_parse_value(k, int, text) for k in sizes.split("x")]


def parse_range(text: str, kind=float) -> list:
    """Inclusive start:stop[:step] range, or comma list of values; an
    empty item is a bad value."""
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
                f"range {text!r} is empty or step sign inconsistent")
        count = np.floor((stop - start) / step + 1e-9) + 1
        if not count <= 10**6:  # also an infinite or NaN count
            raise ParameterError(f"range {text!r} has over 10**6 values")
        vals = [start + i * step for i in range(int(count))]
    else:
        vals = [_parse_value(v, kind, text) for v in text.split(",")]
    return [int(v) if kind is int else round(float(v), 12) for v in vals]


def _mc_estimates(args, gs, labels) -> list:
    """Seeded Monte-Carlo mean latency in hops of each graph of gs, one
    label each, in one walker batch; without --trials (or labels) each
    graph is built and dropped, and no estimate returned.  Walks cut at the
    step cap enter the mean at the cap; a graph with any gets a stderr
    warning under its label, never a CSV change."""
    if not (args.trials and labels):
        collections.deque(gs, maxlen=0)
        return []
    batch = walker.estimate_mean_latency(gs, args.trials, args.seed)
    for label, est in zip(labels, batch.estimates):
        if est.truncated:
            print(f"warning: {label}: {est.truncated} of {est.trials_used} "
                  "walks hit the step cap", file=sys.stderr)
    return batch.estimates


# ---------------------------------------------------------------------------
# cycle and torus sweeps


def _closed_forms(spec) -> dict:
    """The closed-form cells of the lattice spec: mean latency T and its
    bounds."""
    cells = {"analytic": latency.mean_latency_torus(spec)}
    cells["lower"], cells["upper"] = latency.torus_latency_bounds(spec)
    return cells


def _lattice_rows(args, points):
    """Rows of the lattice specs of points, (family, params, spec) each, in
    the units of T: the closed forms, then the FFT oracle of the built graph
    and, with --trials, the Monte-Carlo columns from one walker batch over
    every built graph.  Above _NODE_CAP nodes the graph is never built and
    those columns read "skipped"."""
    rows, built = [], []
    for family, params, spec in points:
        cells = _closed_forms(spec)
        rows.append((family, params, cells))
        if spec.n <= _NODE_CAP:
            built.append((f"{family} {params}", spec, cells))
        else:
            cells["oracle"] = "skipped"
            if args.trials:
                cells["mc_mean"] = cells["mc_ci"] = "skipped"
    # The graphs are built as the walker takes them, and it keeps only
    # their CSR rows.
    ests = _mc_estimates(
        args, (_with_oracle(spec, cells) for _, spec, cells in built),
        [label for label, *_ in built])
    for (_, spec, cells), est in zip(built, ests):
        # Walks count hops; the commute-time identity EPD = (vol/2) * T,
        # vol/2 the edge count, turns them into the units of T.
        cells.update(mc_mean=est.mean / spec.edges,
                     mc_ci=est.ci_halfwidth / spec.edges,
                     trials=est.trials_used)
    return [_row(family, params, **cells) for family, params, cells in rows]


def _with_oracle(spec, cells):
    """The graph of spec, with its FFT oracle written into cells."""
    g = graphs.build_torus(spec)
    cells["oracle"] = latency.mean_latency_circulant(g, spec.dims)
    return g


def _cycle_points(args):
    return (("cycle", f"n={n};r={r}", graphs.TorusSpec((n,), r))
            for n, r in itertools.product(parse_range(args.n, int),
                                          parse_range(args.r, int)))


def _cycle_rows(args):
    return _lattice_rows(args, _cycle_points(args))


def _bounds_rows(args):
    """bounds-check: the closed forms of each cycle; no graph is built."""
    return [_row(family, params, **_closed_forms(spec))
            for family, params, spec in _cycle_points(args)]


def _torus_point(dims, r):
    params = f"dims={'x'.join(str(k) for k in dims)};r={r}"
    return "torus", params, graphs.TorusSpec(dims, r)


def _torus_rows(args):
    axes = [parse_range(part, int) for part in args.dims.split("x")]
    return _lattice_rows(args, (
        _torus_point(dims, r)
        for *dims, r in itertools.product(*axes, parse_range(args.r, int))))


def _dimension_rows(args):
    dims = parse_range(args.dims, int)
    return _lattice_rows(args, (
        _torus_point(dims[:m], r)
        for r in parse_range(args.r, int) for m in range(1, len(dims) + 1)))


# ---------------------------------------------------------------------------
# wireless ensembles


def _wireless_base(config_path, n=None) -> wireless.WirelessConfig:
    """The config file at config_path (else the defaults at n=30), at n
    nodes if given.  An unreadable or invalid file is a usage error."""
    if not config_path:
        return wireless.WirelessConfig(n=30 if n is None else n)
    try:
        cfg = wireless.load_config(config_path)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"bad --config file: {exc}") from None
    return cfg if n is None else replace(cfg, n=n)


def _epd_rows(args):
    """Ensemble mean EPD per sweep point.  Each ensemble seed places its
    nodes once for the whole sweep, so nested sweep points stay comparable;
    the placement is redrawn until the graph of every point is connected.
    Each seed's EPD (and oracle) values are taken as its graphs are built;
    with --trials the walker then keeps only each graph's CSR rows, so the
    sweep holds one seed's graphs at a time, whatever --seeds."""
    family, axes = _EPD_SWEEPS[args.kind]
    base = _wireless_base(args.config, args.n)
    ranges = [parse_range(getattr(args, flag[2:]), float)
              for flag, *_ in axes]
    fields = [field for _, _, field, _ in axes]
    keys = [key for *_, key in axes]
    configs, labels = [], []
    for values in itertools.product(*ranges):
        configs.append(replace(base, **dict(zip(fields, values))))
        labels.append(";".join(f"{k}={_fmt(v)}" for k, v in zip(keys, values)))
    epd = [[] for _ in configs]  # epd[j][s]: point j, ensemble seed s
    oracle = [[] for _ in configs]

    def seed_graphs(s):
        """Ensemble seed s's graph of every point, its EPD (and oracle)
        noted."""
        topos = wireless.generate_topologies(base, configs, args.seed,
                                             prefix=(s,))
        for j, topo in enumerate(topos):
            epd[j].append(latency.expected_packet_delay(topo.graph))
            if args.oracle:
                oracle[j].append(_oracle_epd(topo.graph))
        return [topo.graph for topo in topos]

    seeds = range(args.seeds)
    ests = _mc_estimates(
        args, itertools.chain.from_iterable(map(seed_graphs, seeds)),
        [f"{family} {label} seed {s}" for s in seeds for label in labels])
    for j, label in enumerate(labels):
        cells = {"analytic": float(np.mean(epd[j]))}
        if args.oracle:
            cells["oracle"] = float(np.mean(oracle[j]))
        if args.trials:
            point = ests[j::len(labels)]  # the batch is seed-major
            cells["mc_mean"] = float(np.mean([e.mean for e in point]))
            # The per-seed means are independent, so the CI of their mean
            # adds the per-seed halfwidths in quadrature.
            cells["mc_ci"] = float(np.sqrt(sum(e.ci_halfwidth ** 2
                                               for e in point)) / len(point))
            cells["trials"] = sum(e.trials_used for e in point)
        yield _row(family, label, **cells)


# ---------------------------------------------------------------------------
# walk validation


def parse_graph_spec(text: str, config):
    """Graph descriptors: cycle:N:R, torus:K1xK2[x..]:R and wireless:SEED,
    the topology of a nonnegative seed at the WirelessConfig config.

    Returns (spec, graph): the TorusSpec of a cycle or torus (a cycle is
    the one-axis torus), None for a wireless graph."""
    parts = text.split(":")
    if parts[0] in ("cycle", "torus") and len(parts) == 3:
        dims = (_parse_dims(parts[1], text) if parts[0] == "torus"
                else [_parse_value(parts[1], int, text)])
        spec = graphs.TorusSpec(dims, _parse_value(parts[2], int, text))
        return spec, graphs.build_torus(spec)
    if parts[0] == "wireless" and len(parts) == 2:
        seed = _parse_value(parts[1], int, text)
        if seed < 0:
            raise ParameterError(f"negative seed {parts[1]!r} in {text!r}")
        return None, wireless.generate_topology(config, seed).graph
    raise ParameterError(f"bad graph descriptor {text!r}")


def _walk_validate_rows(args):
    """EPD rows of the --graphs descriptors.  A lattice's analytic EPD is
    its edge count n*m*r times the closed-form mean latency; a wireless
    graph's comes from its Laplacian eigenvalues.  --oracle adds an
    independent EPD: the edge count times the FFT mean latency of a built
    lattice, the fundamental-matrix EPD of a wireless graph."""
    texts = args.graphs.split(",")
    config = _wireless_base(args.config)
    cells = []

    def analysed(text):
        """The graph of text, its EPD (and oracle) noted in cells."""
        spec, g = parse_graph_spec(text, config)
        cells.append({
            "analytic": (latency.expected_packet_delay(g) if spec is None else
                         spec.edges * latency.mean_latency_torus(spec)),
            "oracle": _oracle_epd(g, spec) if args.oracle else None})
        return g

    ests = _mc_estimates(args, map(analysed, texts),
                         [f"walk-validate {t}" for t in texts])
    for text, c, est in zip(texts, cells, ests):
        yield _row("walk-validate", text, **c, mc_mean=est.mean,
                   mc_ci=est.ci_halfwidth, trials=est.trials_used)


def _oracle_epd(g, spec=None) -> float:
    """An EPD of g computed without its analytic route: for the lattice
    spec, the edge count times the FFT mean latency of g; else the
    fundamental-matrix EPD, the mean of g's hitting times over ordered
    pairs."""
    if spec is not None:
        return spec.edges * latency.mean_latency_circulant(g, spec.dims)
    n = g.n
    return float(latency.hitting_times_linear_system(g).sum()) / (n * (n - 1))


def run(args) -> str:
    """Write CSV_HEADER and the rows of one parsed sweep command to
    args.out ('-' is stdout) and return the CSV text."""
    text = "\n".join([CSV_HEADER, *args.rows(args)]) + "\n"
    _write(args.out, [text])
    return text


def _write(out: str, chunks) -> None:
    """Write the strings of chunks to the path out, or to stdout when out
    is '-'."""
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="") as f:
            f.writelines(chunks)


# ---------------------------------------------------------------------------
# argument parsing


def _count(minimum=-_INT_MAX, maximum=_INT_MAX):
    """argparse type: an integer from `minimum` to `maximum`."""
    def parse(text: str) -> int:
        value = int(text)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"must lie in [{minimum}, {maximum}], got {value}")
        return value
    parse.__name__ = "integer"
    return parse


def _out_path(text: str) -> str:
    """argparse type: '-' (stdout) or a path in an existing directory."""
    if text != "-" and not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(
            f"no such directory: {os.path.dirname(text)!r}")
    return text


def _sweep(sub, kind: str, rows, help: str):
    """Subparser of a CSV sweep whose rows come from rows(args)."""
    p = sub.add_parser(kind, help=help)
    p.set_defaults(command=run, rows=rows)
    p.add_argument("--out", type=_out_path, default="-",
                   help="output CSV path ('-' = stdout)")
    p.add_argument("--seed", type=_count(0, math.inf), default=0)
    return p


def _add_trials(p, default=None) -> None:
    p.add_argument("--trials", type=_count(2), default=default,
                   help="Monte-Carlo walks per sweep point (at least 2)")


def _add_oracle(p) -> None:
    p.add_argument("--oracle", action="store_true",
                   help="write the EPD oracle column: the FFT of a built "
                   "lattice, the fundamental matrix of a wireless graph")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oppwalk",
        description="Latency experiments for random-walk routing",
    )
    sub = ap.add_subparsers(dest="kind", required=True)

    p = _sweep(sub, "cycle-sweep", _cycle_rows, "mean latency over cycles")
    p.add_argument("--n", required=True, help="node count or range")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_trials(p)

    p = _sweep(sub, "torus-sweep", _torus_rows, "mean latency over m-D tori")
    p.add_argument("--dims", required=True,
                   help="axis sizes K1xK2[x..]; each axis may be a range a:b[:c]")
    p.add_argument("--r", required=True, help="neighbor radius or range")
    _add_trials(p)

    p = _sweep(sub, "dimension-sweep", _dimension_rows,
               "mean latency over torus dimension prefixes")
    p.add_argument("--dims", default="16,18,20,22",
                   help="comma axis sizes; prefixes of length 1..m are swept")
    p.add_argument("--r", default="1:4", help="neighbor radius or range")
    _add_trials(p)

    p = _sweep(sub, "bounds-check", _bounds_rows,
               "closed-form bounds vs latency")
    p.add_argument("--n", required=True)
    p.add_argument("--r", required=True)

    for kind, (_family, axes) in _EPD_SWEEPS.items():
        p = _sweep(sub, kind, _epd_rows, "wireless ensemble EPD sweep")
        for flag, default, *_ in axes:
            p.add_argument(flag, default=default)
        p.add_argument("--config", default=None,
                       help="key=value wireless config file")
        p.add_argument("--n", type=_count(), default=None,
                       help="node count (default: the --config file, else 30)")
        p.add_argument("--seeds", type=_count(1), default=20,
                       help="ensemble size (placements per sweep point)")
        _add_trials(p)
        _add_oracle(p)

    p = _sweep(sub, "walk-validate", _walk_validate_rows,
               "Monte-Carlo agreement with analytic EPD")
    p.add_argument("--graphs", required=True,
                   help="comma list: cycle:N:R, torus:K1xK2:R, wireless:SEED")
    p.add_argument("--config", default=None)
    _add_trials(p, default=100000)
    _add_oracle(p)

    p = sub.add_parser("spectrum-export",
                       help="closed-form spectrum CSV, one eigenvalue per line")
    p.set_defaults(command=_run_spectrum_export)
    p.add_argument("--dims", required=True,
                   help="axis sizes K1[xK2..]; one axis is a cycle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", type=_out_path, default="-")

    p = sub.add_parser("wireless-export",
                       help="generate one topology; write edge list + positions")
    p.set_defaults(command=_run_wireless_export)
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=_count(), default=None,
                   help="node count (default: the --config file, else 30)")
    p.add_argument("--seed", type=_count(0, math.inf), default=0)
    p.add_argument("--out-prefix", type=_out_path, required=True)

    return ap


def _run_spectrum_export(args) -> None:
    vals = spectral.torus_laplacian_eigenvalues(
        graphs.TorusSpec(_parse_dims(args.dims, args.dims), args.r))
    vals.sort()
    _write(args.out, ("".join(f"{v:.17g}\n" for v in vals[i:i + _EXPORT_LINES])
                      for i in range(0, vals.size, _EXPORT_LINES)))


def _run_wireless_export(args) -> None:
    topo = wireless.generate_topology(_wireless_base(args.config, args.n),
                                      seed=args.seed)
    graphs.save_edge_list(topo.graph, args.out_prefix + ".edges")
    wireless.save_positions(topo.placement, args.out_prefix + ".positions.csv")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: a process that calls
    main once per command builds its ten subparsers once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
