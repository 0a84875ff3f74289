"""Wireless topology generation from a static path-loss propagation model.

Nodes are placed uniformly at random in a square deployment area.  Received
power follows p / (1 + (r/r0)^eta); the coverage radius is the distance at
which received power drops to the minimum required power p_min.  Each pair
gets a topology coefficient in [0, 1],

    a_ij = 1 / (1 + (r_ij / r_c_ij)^alpha),

and the binary network graph keeps an edge wherever the coefficient clears
the connectivity threshold.  Only symmetric transmit powers (p_ij = p_ji)
are supported, so coefficients and the graph are symmetric by construction.
Pairs with transmit power below p_min get coefficient 0 (no link possible).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BelowMinimumPowerError,
    DegenerateInputError,
    ParameterError,
    ValidationError,
)
from .graphs import Graph

__all__ = [
    "WirelessConfig",
    "Placement",
    "WirelessTopology",
    "place_nodes",
    "reference_distance",
    "received_power",
    "coverage_radius",
    "topology_coefficient",
    "topology_coefficient_from_powers",
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

    def power_matrix(self) -> np.ndarray:
        if isinstance(self.power, np.ndarray):
            return self.power
        return np.full((self.n, self.n), float(self.power))

    def reference_distance(self) -> float:
        return reference_distance(self.n, self.c_n)


@dataclass(frozen=True)
class Placement:
    """Node coordinates in the square deployment area."""

    positions: np.ndarray
    area_side: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValidationError("positions must be an (n, 2) array")
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


def received_power(p_ij: float, r_ij: float, r_0: float, eta: float) -> float:
    """Power received at distance r_ij: p_ij / (1 + (r_ij/r_0)^eta)."""
    if p_ij <= 0 or r_0 <= 0 or r_ij < 0:
        raise ParameterError("need p_ij > 0, r_0 > 0, r_ij >= 0")
    return p_ij / (1.0 + (r_ij / r_0) ** eta)


def coverage_radius(p_ij: float, p_min: float, r_0: float, eta: float) -> float:
    """Distance at which received power falls to p_min:
    r_c = r_0 * (p_ij/p_min - 1)^(1/eta)."""
    if p_ij < p_min:
        raise BelowMinimumPowerError(
            f"transmit power {p_ij:.6g} below minimum {p_min:.6g}: no link"
        )
    return r_0 * (p_ij / p_min - 1.0) ** (1.0 / eta)


def topology_coefficient(r_ij: float, r_c: float, alpha: float) -> float:
    """Soft link quality a = 1 / (1 + (r_ij/r_c)^alpha) in [0, 1]."""
    if r_ij < 0 or r_c < 0 or alpha <= 0:
        raise ParameterError("need r_ij >= 0, r_c >= 0, alpha > 0")
    if r_c == 0.0:
        if r_ij == 0.0:
            raise DegenerateInputError(
                "coefficient undefined at r_ij = r_c = 0"
            )
        return 0.0
    return 1.0 / (1.0 + (r_ij / r_c) ** alpha)


def topology_coefficient_from_powers(p_ij: float, p_min: float, r_0: float,
                                     r_ij: float, alpha: float,
                                     eta: float) -> float:
    """Equivalent power-coefficient form:
    a = r0^a (p - pmin)^(a/eta) / (r0^a (p - pmin)^(a/eta) + r^a pmin^(a/eta)).
    Pairs below minimum power get coefficient 0."""
    if p_ij < p_min:
        return 0.0
    num = r_0 ** alpha * (p_ij - p_min) ** (alpha / eta)
    den = num + r_ij ** alpha * p_min ** (alpha / eta)
    if den == 0.0:
        raise DegenerateInputError("coefficient undefined at r_ij = 0, p = p_min")
    return num / den


def build_wireless_graph(config: WirelessConfig,
                         placement: Placement) -> WirelessTopology:
    """Coefficient matrix plus thresholded binary graph.

    coefficients[i][j] follows the coefficient formula at the pairwise
    Euclidean distance (diagonal is 1 by the r_ij = 0 limit); the graph has
    an edge for i != j iff coefficient >= threshold.  A disconnected result
    is returned with connected=False, not raised.
    """
    if placement.n != config.n:
        raise ValidationError("placement size does not match config.n")
    r = placement.distances()
    p = config.power_matrix()
    r0 = config.reference_distance()
    coeff = np.zeros((config.n, config.n))
    feasible = p >= config.p_min
    base = np.zeros_like(p)
    base[feasible] = (p[feasible] / config.p_min - 1.0) ** (1.0 / config.eta)
    rc = r0 * base
    pos_rc = feasible & (rc > 0)
    coeff[pos_rc] = 1.0 / (1.0 + (r[pos_rc] / rc[pos_rc]) ** config.alpha)
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
    WirelessConfig field names (scalar power only in file form).
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
            key = key.strip()
            if key not in _CONFIG_FIELDS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_FIELDS[key](raw.strip())
    if "n" not in values:
        raise ValidationError(f"{path}: missing required key 'n'")
    return WirelessConfig(**values)


def save_positions(placement: Placement, path_or_buf) -> None:
    """Write positions as CSV rows `i,x,y`."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w") as f:
            save_positions(placement, f)
        return
    buf = path_or_buf
    buf.write("i,x,y\n")
    for i, (x, y) in enumerate(placement.positions):
        buf.write(f"{i},{x:.17g},{y:.17g}\n")
