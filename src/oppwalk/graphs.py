"""Graph families used by the latency analysis.

Nodes are indexed 0..n-1. Torus nodes are indexed row-major over their
coordinate tuples (numpy ravel order), so for dims [k_1, ..., k_m] the node
with coordinates (c_1, ..., c_m) has index
c_1 * k_2 * ... * k_m + ... + c_{m-1} * k_m + c_m.  Eigenvalue index tuples
use the same convention.
"""
from __future__ import annotations

import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ValidationError

__all__ = [
    "Graph",
    "TorusSpec",
    "build_cycle",
    "cartesian_product",
    "build_torus",
    "torus_neighbors",
    "save_edge_list",
    "load_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: symmetric 0/1 weights with zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValidationError("weights must be a square matrix")
        bad = w[(w != 0.0) & (w != 1.0)]
        if bad.size:
            raise ValidationError(f"weights must be finite 0/1, not {bad[0]:g}")
        if not np.array_equal(w, w.T):
            raise ValidationError("weight matrix must be symmetric")
        if w.diagonal().any():
            raise ValidationError("weight matrix must have zero diagonal")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        d = self.weights.sum(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows (indptr, indices): the neighbors of u are
        indices[indptr[u]:indptr[u+1]], in ascending order."""
        rows, indices = np.nonzero(self.weights)
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees) - self.weights

    def is_connected(self) -> bool:
        """Breadth-first sweep from node 0, one whole frontier per step,
        run on the first call; the graph is immutable, so later calls
        return the stored answer."""
        connected = self.__dict__.get("_connected")
        if connected is None:
            seen = np.zeros(self.n, dtype=bool)
            frontier = seen.copy()
            frontier[0] = True
            while frontier.any():
                seen |= frontier
                frontier = self.weights[frontier].any(axis=0) & ~seen
            connected = bool(seen.all())
            object.__setattr__(self, "_connected", connected)
        return connected


def _integer(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer; anything else,
    such as 7.9, is a ParameterError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer (got {value!r})") from None


@dataclass(frozen=True)
class TorusSpec:
    """An m-dimensional torus: per-axis sizes and neighbor radius r."""

    dims: tuple[int, ...]
    r: int

    def __init__(self, dims, r: int):
        object.__setattr__(self, "dims",
                           tuple(_integer(k, "axis size") for k in dims))
        object.__setattr__(self, "r", _integer(r, "neighbor radius r"))
        if len(self.dims) < 1:
            raise ParameterError("dims must contain at least one axis size")
        k = min(self.dims)
        got = f"(got r={self.r}, min k={k})"
        if k < 3:
            raise ParameterError(f"every axis size k_i must be >= 3 {got}")
        if self.r < 1:
            raise ParameterError(f"neighbor radius r must be >= 1 {got}")
        if 2 * self.r + 1 > k:
            raise ParameterError(
                f"2r+1 must not exceed the smallest axis size {got}")

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)


def build_cycle(n: int, r: int) -> Graph:
    """r-nearest-neighbor cycle: i ~ j iff circular distance in [1, r].

    Adjacency is circulant and 2r-regular: the one-axis torus.
    """
    return build_torus(TorusSpec((n,), r))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (u1,u2) ~ (v1,v2) iff equal in one coordinate and
    adjacent in the other.  Node index is row-major over (index1, index2)."""
    i1 = np.eye(g1.n)
    i2 = np.eye(g2.n)
    weights = np.kron(g1.weights, i2) + np.kron(i1, g2.weights)
    return Graph(weights)


def build_torus(spec: TorusSpec) -> Graph:
    """m-dimensional r-nearest-neighbor torus, the Cartesian product of
    r-nearest-neighbor cycles, filled row by row from torus_neighbors."""
    nodes = np.arange(spec.n)
    weights = np.zeros((spec.n, spec.n))
    weights[nodes[:, None], torus_neighbors(spec, nodes)] = 1.0
    return Graph(weights)


def torus_neighbors(spec: TorusSpec, index) -> np.ndarray:
    """Neighbor indices of torus nodes from coordinate arithmetic, without
    materializing the adjacency matrix: along each axis the neighbors are
    the nodes at circular distance 1..r.  For an int index, the 2mr sorted
    distinct neighbors; for an index array, one such row per node."""
    index = np.asarray(index)
    bad = index[(index < 0) | (index >= spec.n)]
    if bad.size:
        raise ParameterError(
            f"node index {bad[0]} out of range for n={spec.n}")
    coords = np.unravel_index(index, spec.dims)
    stride = spec.n
    out = []
    for c, k in zip(coords, spec.dims):
        stride //= k
        # 2r+1 <= k, so the 2r shifts along one axis reach distinct nodes
        for step in range(1, spec.r + 1):
            for shift in (step, -step):
                out.append(index + ((c + shift) % k - c) * stride)
    return np.sort(np.stack(out, axis=-1), axis=-1)


@contextmanager
def _text_file(path_or_buf, mode: str):
    """A path (str, bytes or os.PathLike) opened in mode for the body of
    the with block, or an open text buffer as it is."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, mode) as f:
            yield f
    else:
        yield path_or_buf


def save_edge_list(g: Graph, path_or_buf) -> None:
    """Write the plain-text edge list: `n <count>` header then `i j 1` rows."""
    rows, cols = np.nonzero(np.triu(g.weights))
    with _text_file(path_or_buf, "w") as buf:
        buf.write(f"n {g.n}\n")
        for i, j in zip(rows, cols):
            buf.write(f"{i} {j} 1\n")


def _fields(no: int, line: str, kinds) -> list:
    """The whitespace-separated fields of one edge-list line, one per type
    in kinds; a wrong count or an unparsable field names the line."""
    parts = line.split()
    try:
        if len(parts) != len(kinds):
            raise ValueError
        return [kind(p) for kind, p in zip(kinds, parts)]
    except ValueError:
        raise ValidationError(f"malformed line {no}: {line!r}") from None


def load_edge_list(path_or_buf) -> Graph:
    """Read a graph from the edge-list format written by save_edge_list.
    Every line is checked before the n x n matrix is allocated."""
    with _text_file(path_or_buf, "r") as f:
        lines = [(no, ln.strip()) for no, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1].split()[0] != "n":
        raise ValidationError("edge list must start with a 'n <count>' header")
    _, n = _fields(*lines[0], (str, int))
    if n < 1:
        raise ValidationError("node count must be positive")
    pairs = set()
    for no, ln in lines[1:]:
        i, j, w = _fields(no, ln, (int, int, float))
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"node index out of range on line {no}: {ln!r}")
        if i == j:
            raise ValidationError(f"self-loop on line {no}: {ln!r}")
        if w != 1.0:
            raise ValidationError(f"weight must be 1 on line {no}: {ln!r}")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise ValidationError(f"pair listed twice on line {no}: {ln!r}")
        pairs.add(pair)
    weights = np.zeros((n, n))
    for i, j in pairs:
        weights[i, j] = weights[j, i] = 1.0
    return Graph(weights)
