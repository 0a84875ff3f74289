"""Wireless topology generation from a static path-loss propagation model.

Nodes are placed uniformly at random in a square deployment area.  Received
power follows p / (1 + (r/r0)^eta); the coverage radius is the distance at
which received power drops to the minimum required power p_min.  Each pair
gets a topology coefficient in [0, 1],

    a_ij = 1 / (1 + (r_ij / r_c_ij)^alpha),

and the binary network graph keeps an edge wherever the coefficient clears
the connectivity threshold.  Only symmetric transmit powers (p_ij = p_ji)
are supported, so coefficients and the graph are symmetric by construction.
Pairs with transmit power at or below p_min get coefficient 0 (no link
possible).  build_wireless_graph is the one implementation of these
formulas: it evaluates r_c and a_ij for scalar or per-pair power in one
broadcast expression.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .graphs import Graph, _text_file

__all__ = [
    "WirelessConfig",
    "Placement",
    "WirelessTopology",
    "place_nodes",
    "reference_distance",
    "build_wireless_graph",
    "generate_topology",
    "generate_topologies",
    "load_config",
    "save_positions",
]


@dataclass(frozen=True)
class WirelessConfig:
    """Propagation and topology parameters.

    power is either a scalar transmit power used for every pair or a full
    symmetric n x n matrix of per-pair powers.
    """

    n: int
    area_side: float = 1.0
    eta: float = 2.0
    alpha: float = 2.0
    p_min: float = 0.1
    c_n: float = 0.0
    threshold: float = 0.5
    power: float | np.ndarray = 2.0

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("wireless topology needs n >= 2 nodes")
        for name in ("area_side", "eta", "alpha", "p_min", "c_n"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.area_side <= 0:
            raise ParameterError("area_side must be positive")
        if self.eta < 1:
            raise ParameterError("path-loss exponent eta must be >= 1")
        if self.alpha <= 0:
            raise ParameterError("coefficient exponent alpha must be positive")
        if self.p_min <= 0:
            raise ParameterError("p_min must be positive")
        if not (0.0 < self.threshold < 1.0):
            raise ParameterError("connectivity threshold must lie in (0, 1)")
        if isinstance(self.power, np.ndarray):
            p = np.asarray(self.power, dtype=float)
            if p.shape != (self.n, self.n):
                raise ValidationError("per-pair power matrix must be n x n")
            if not np.isfinite(p).all():
                raise ValidationError("transmit powers must be finite")
            if np.abs(p - p.T).max() > 1e-12 * max(np.abs(p).max(), 1.0):
                raise ValidationError(
                    "per-pair power matrix must be symmetric (p_ij == p_ji)"
                )
            if np.any(p <= 0):
                raise ValidationError("transmit powers must be positive")
            p = 0.5 * (p + p.T)
            p.setflags(write=False)
            object.__setattr__(self, "power", p)
        elif not math.isfinite(self.power):
            raise ValidationError(f"transmit power must be finite, got {self.power}")
        elif self.power <= 0:
            raise ParameterError("transmit power must be positive")


@dataclass(frozen=True)
class Placement:
    """Node coordinates in the square deployment area."""

    positions: np.ndarray
    area_side: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValidationError("positions must be an (n, 2) array")
        if not (math.isfinite(self.area_side) and self.area_side > 0):
            raise ValidationError(
                f"area_side must be finite and positive, got {self.area_side}")
        if not np.isfinite(pos).all():
            raise ValidationError("positions must be finite (no NaN or inf)")
        if np.any(pos < 0) or np.any(pos > self.area_side):
            raise ValidationError("positions must lie within the area")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def distances(self) -> np.ndarray:
        """Pairwise Euclidean distances, computed on the first call and
        shared read-only by every topology built on this placement."""
        r = self.__dict__.get("_distances")
        if r is None:
            x, y = self.positions.T
            dx = x[:, None] - x[None, :]
            dy = y[:, None] - y[None, :]
            r = np.sqrt(dx * dx + dy * dy)
            r.setflags(write=False)
            object.__setattr__(self, "_distances", r)
        return r


@dataclass(frozen=True)
class WirelessTopology:
    """Generated topology: soft coefficients, binary graph, connectivity flag."""

    coefficients: np.ndarray
    graph: Graph
    connected: bool
    placement: Placement | None = field(default=None, compare=False)


def place_nodes(config: WirelessConfig, rng) -> Placement:
    """n i.i.d. uniform positions in the square; rng is a numpy Generator
    or an integer seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    pos = rng.random((config.n, 2)) * config.area_side
    return Placement(positions=pos, area_side=config.area_side)


def reference_distance(n: int, c_n: float) -> float:
    """r0 = sqrt((log(n) + c_n) / (pi * n)), natural logarithm."""
    if n < 2:
        raise ParameterError("reference distance needs n >= 2")
    radicand = math.log(n) + c_n
    if radicand <= 0:
        raise ParameterError(
            f"log(n) + c_n must be positive (got {radicand:.6g})"
        )
    return math.sqrt(radicand / (math.pi * n))


def build_wireless_graph(config: WirelessConfig,
                         placement: Placement) -> WirelessTopology:
    """Coefficient matrix plus thresholded binary graph.

    One broadcast expression serves scalar and per-pair power: the coverage
    radius r_c = r0 * max(p/p_min - 1, 0)^(1/eta) is a scalar or an n x n
    matrix, and coefficients[i][j] = 1 / (1 + (r_ij/r_c)^alpha) where
    r_c > 0, else 0 (power at or below p_min).  The diagonal is 1 by the
    r_ij = 0 limit.  The graph has an edge for i != j iff coefficient >=
    threshold.  A disconnected result is returned with connected=False, not
    raised.
    """
    if placement.n != config.n:
        raise ValidationError("placement size does not match config.n")
    r = placement.distances()
    # np.power, not **: ** on a float64 scalar calls the C library pow,
    # while the ufunc runs the same (SIMD) loop as a power matrix does, so
    # scalar and per-pair power give bit-equal radii.
    rc = reference_distance(config.n, config.c_n) * np.power(
        np.maximum(config.power / config.p_min - 1.0, 0.0), 1.0 / config.eta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coeff = np.where(rc > 0, 1.0 / (1.0 + (r / rc) ** config.alpha), 0.0)
    np.fill_diagonal(coeff, 1.0)
    adjacency = (coeff >= config.threshold).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    graph = Graph(adjacency)
    return WirelessTopology(coefficients=coeff, graph=graph,
                            connected=graph.is_connected(),
                            placement=placement)


def generate_topologies(base: WirelessConfig, configs, seed: int,
                        resample_until_connected: int = 0,
                        prefix: tuple[int, ...] = ()) -> list[WirelessTopology]:
    """One topology per config, all built on one placement of `base`.

    Attempt k places the nodes from SeedSequence(seed, spawn_key=(*prefix,
    k)).  Up to max(1, resample_until_connected) attempts are made; the
    first whose topologies are all connected is returned, else the last.
    """
    for attempt in range(max(1, resample_until_connected)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, attempt))
        placement = place_nodes(base, np.random.Generator(np.random.PCG64(ss)))
        topos = [build_wireless_graph(cfg, placement) for cfg in configs]
        if all(t.connected for t in topos):
            break
    return topos


def generate_topology(config: WirelessConfig, seed: int,
                      resample_until_connected: int = 0) -> WirelessTopology:
    """Place nodes and build the topology for one seed, redrawing the
    placement until it is connected (see generate_topologies)."""
    return generate_topologies(config, [config], seed,
                               resample_until_connected)[0]


_CONFIG_FIELDS = {
    "n": int,
    "area_side": float,
    "eta": float,
    "alpha": float,
    "p_min": float,
    "c_n": float,
    "threshold": float,
    "power": float,
}


def load_config(path) -> WirelessConfig:
    """Read a WirelessConfig from a flat key=value text file.

    Lines starting with '#' and blank lines are ignored; keys mirror the
    WirelessConfig field names (scalar power only in file form).  A
    malformed line, an unknown or repeated key and an unparsable or
    non-finite value raise ValidationError naming path:line.
    """
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_FIELDS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = _CONFIG_FIELDS[key](raw)
                if not math.isfinite(values[key]):
                    raise ValueError
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad value for {key}: {raw!r}"
                ) from None
    if "n" not in values:
        raise ValidationError(f"{path}: missing required key 'n'")
    return WirelessConfig(**values)


def save_positions(placement: Placement, path_or_buf) -> None:
    """Write positions as CSV rows `i,x,y`."""
    with _text_file(path_or_buf, "w") as buf:
        buf.write("i,x,y\n")
        for i, (x, y) in enumerate(placement.positions):
            buf.write(f"{i},{x:.17g},{y:.17g}\n")
