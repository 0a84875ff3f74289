"""Wireless topology generation from a static path-loss propagation model.

Nodes are placed uniformly at random in a square deployment area.  Received
power follows p / (1 + (r/r0)^eta); the coverage radius is the distance at
which received power drops to the minimum required power p_min,

    r_c = r0 * (p/p_min - 1)^(1/eta).

The paper links i and j when the topology coefficient
a_ij = 1 / (1 + (r_ij / r_c)^alpha) clears the connectivity threshold tau.
Every node transmits with one power, so r_c is one number, and
a_ij >= tau holds exactly when r_ij <= r_c * (1/tau - 1)^(1/alpha): the
binary network graph links every pair within that one link radius.  Power
at or below p_min links no pair.  _link_radius is the one implementation of
this rule; build_wireless_graph thresholds a placement's distances with it.

Every graph on one placement compares the same distance matrix with its
own radius, so a larger radius gives a supergraph, and the graphs of a
sweep are all connected exactly when the one with the smallest radius is.
generate_topologies therefore judges a placement by that graph alone; a
seed's topology is its first connected placement of _ATTEMPTS.  It builds
the other graphs of that placement one at a time, as its caller takes
them, so a sweep of any number of points holds the placement's distances,
the sparsest graph and the graph in hand.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DisconnectedGraphError, ParameterError, ValidationError
from .graphs import Graph, _INT_MAX, _integer, _seed

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
    """Propagation and topology parameters; one transmit power for every node."""

    n: int
    area_side: float = 1.0
    eta: float = 2.0
    alpha: float = 2.0
    p_min: float = 0.1
    c_n: float = 0.0
    threshold: float = 0.5
    power: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "node count n"))
        if self.n < 2:
            raise ParameterError("wireless topology needs n >= 2 nodes")
        for name in ("area_side", "eta", "alpha", "p_min", "c_n", "power"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite, got {value!r}")
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
        if self.power <= 0:
            raise ParameterError("transmit power must be positive")


@dataclass(frozen=True)
class Placement:
    """Node coordinates in the square deployment area."""

    positions: np.ndarray
    area_side: float = 1.0

    def __post_init__(self):
        try:
            pos = np.asarray(self.positions, dtype=float)
        except (TypeError, ValueError):  # a non-number or a ragged row
            pos = np.empty(0)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValidationError("positions must be an (n, 2) array of numbers")
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
            # sqrt(dx*dx + dy*dy), same operations, in two n x n buffers
            x, y = self.positions.T
            r = x[:, None] - x[None, :]
            r *= r
            dy = y[:, None] - y[None, :]
            dy *= dy
            r += dy
            np.sqrt(r, out=r)
            r.setflags(write=False)
            object.__setattr__(self, "_distances", r)
        return r


@dataclass(frozen=True)
class WirelessTopology:
    """Generated topology: binary graph, connectivity flag, node placement."""

    graph: Graph
    connected: bool
    placement: Placement


def place_nodes(config: WirelessConfig, rng) -> Placement:
    """n i.i.d. uniform positions in the square; rng is a numpy Generator
    or an integer seed >= 0."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_seed(rng))
    pos = rng.random((config.n, 2)) * config.area_side
    return Placement(positions=pos, area_side=config.area_side)


def reference_distance(n: int, c_n: float) -> float:
    """r0 = sqrt((log(n) + c_n) / (pi * n)), natural logarithm."""
    if n < 2:
        raise ParameterError("reference distance needs n >= 2")
    radicand = math.log(n) + c_n
    if radicand <= 0:
        raise ParameterError(
            f"log(n) + c_n must be positive (got {radicand:.6g})")
    return math.sqrt(radicand / (math.pi * n))


def _link_radius(config: WirelessConfig) -> float:
    """The link radius r_c * (1/tau - 1)^(1/alpha), with the coverage
    radius r_c = r0 * (p/p_min - 1)^(1/eta).  Power at or below p_min gives
    -inf, which links no pair; an infinite r_c gives inf, which links every
    pair.  Computed on the first call and kept on the (immutable) config."""
    radius = config.__dict__.get("_radius")
    if radius is None:
        r0 = reference_distance(config.n, config.c_n)
        gain = config.power / config.p_min - 1.0
        radius = -math.inf
        if gain > 0:
            # np.power, not **: where the radius overflows, ** raises and
            # the ufunc gives inf.  An infinite r_c links every pair
            # (a_ij = 1), also where the threshold factor underflows to 0.
            with np.errstate(over="ignore"):
                rc = r0 * np.power(gain, 1.0 / config.eta)
                radius = math.inf if np.isinf(rc) else rc * np.power(
                    1.0 / config.threshold - 1.0, 1.0 / config.alpha)
        object.__setattr__(config, "_radius", radius)
    return radius


def build_wireless_graph(config: WirelessConfig,
                         placement: Placement) -> WirelessTopology:
    """Binary graph linking every pair i != j within the link radius of
    config (see _link_radius).  A disconnected result is returned with
    connected=False, not raised.
    """
    if placement.n != config.n:
        raise ValidationError("placement size does not match config.n")
    adjacency = placement.distances() <= _link_radius(config)
    np.fill_diagonal(adjacency, False)
    graph = Graph(adjacency)
    return WirelessTopology(graph=graph, connected=graph.is_connected(),
                            placement=placement)


# Placements tried per seed before generate_topologies gives up.
_ATTEMPTS = 100


def generate_topologies(base: WirelessConfig, configs, seed: int,
                        prefix: tuple[int, ...] = ()
                        ) -> Iterator[WirelessTopology]:
    """One connected topology per config, in config order, all built on one
    placement of `base`.

    Attempt k places the nodes from SeedSequence(seed, spawn_key=(*prefix,
    k)); the first of _ATTEMPTS attempts that connects is taken.  Each
    attempt builds the graph of the smallest link radius first: every other
    graph is a supergraph of it, so all are connected exactly when it is,
    and a disconnected one rejects the attempt.  The search runs when this
    is called, and raises DisconnectedGraphError if no attempt connects.
    The returned iterator then builds each config's graph as it is taken,
    and gives the sparsest graph, already built and held until then, in its
    own config's turn; no graph is built twice.  seed is an integer >= 0.
    """
    seed = _seed(seed)
    if not configs:
        return iter(())
    radii = [_link_radius(cfg) for cfg in configs]
    sparsest = radii.index(min(radii))
    for attempt in range(_ATTEMPTS):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, attempt))
        placement = place_nodes(base, np.random.Generator(np.random.PCG64(ss)))
        first = build_wireless_graph(configs[sparsest], placement)
        if first.connected:
            return (first if j == sparsest
                    else build_wireless_graph(cfg, placement)
                    for j, cfg in enumerate(configs))
        del first  # a rejected attempt's graph is dead before the redraw
    raise DisconnectedGraphError(
        f"no connected placement in {_ATTEMPTS} attempts for seed {seed}, "
        f"prefix {prefix}")


def generate_topology(config: WirelessConfig, seed: int) -> WirelessTopology:
    """The connected topology of one seed (see generate_topologies)."""
    return next(generate_topologies(config, [config], seed))


# The parser of each load_config key: a WirelessConfig field name.
_CONFIG_FIELDS = {f.name: int if f.name == "n" else float
                  for f in fields(WirelessConfig)}


def load_config(path) -> WirelessConfig:
    """Read a WirelessConfig from a flat key=value text file.

    Lines starting with '#' and blank lines are ignored; keys mirror the
    WirelessConfig field names.  A malformed line, an unknown or repeated
    key, an unparsable or non-finite value and an n beyond int64 raise
    ValidationError naming path:line.
    """
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_FIELDS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = _CONFIG_FIELDS[key](raw)
                # numpy takes n as an int64; a float takes any finite value
                if not (abs(values[key]) <= _INT_MAX
                        if key == "n" else math.isfinite(values[key])):
                    raise ValueError
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad value for {key}: {raw!r}"
                ) from None
    if "n" not in values:
        raise ValidationError(f"{path}: missing required key 'n'")
    return WirelessConfig(**values)


def save_positions(placement: Placement, path) -> None:
    """Write positions as CSV rows `i,x,y`."""
    with open(path, "w") as f:
        f.write("i,x,y\n")
        for i, (x, y) in enumerate(placement.positions):
            f.write(f"{i},{x:.17g},{y:.17g}\n")
