"""Graph families used by the latency analysis.

Nodes are indexed 0..n-1. Torus nodes are indexed row-major over their
coordinate tuples (numpy ravel order), so for dims [k_1, ..., k_m] the node
with coordinates (c_1, ..., c_m) has index
c_1 * k_2 * ... * k_m + ... + c_{m-1} * k_m + c_m.  Eigenvalue index tuples
use the same convention.
"""
from __future__ import annotations

import io
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
    "complete_graph",
    "save_edge_list",
    "load_edge_list",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted graph with zero diagonal, immutable after creation."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValidationError("weights must be a square matrix")
        scale = np.abs(w).max()
        if not np.isfinite(scale):
            raise ValidationError("weights must be finite (no NaN or inf)")
        if scale > np.finfo(float).max / w.shape[0]:
            # keeps w + w.T and every degree (n - 1 terms) finite
            raise ValidationError("weights too large: degrees would overflow")
        if scale > 0 and np.abs(w - w.T).max() > _SYM_TOL * scale:
            raise ValidationError("weight matrix must be symmetric")
        w = 0.5 * (w + w.T)
        if np.any(np.diag(w) != 0.0):
            raise ValidationError("weight matrix must have zero diagonal")
        if np.any(w < 0.0):
            raise ValidationError("weights must be nonnegative")
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
    def is_binary(self) -> bool:
        return bool(np.all((self.weights == 0.0) | (self.weights == 1.0)))

    @cached_property
    def edge_count(self) -> int:
        """Number of undirected edges (nonzero weight pairs)."""
        return int(np.count_nonzero(self.weights)) // 2

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

    @cached_property
    def alias_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Vose alias table of the transition rows P[u] = w[u] / deg(u),
        aligned with the CSR slots.

        For a uniform column c of row u and slot k = indptr[u] + c, the next
        hop is indices[k] with probability prob[k], else alias[k] (a node
        index).  Exact up to rounding: each column contributes
        prob / d to its own neighbor and the remainder to its alias.
        """
        indptr, indices = self.csr
        prob = np.ones(indices.size)
        alias = indices.copy()
        for u in range(self.n):
            lo, hi = indptr[u], indptr[u + 1]
            w = self.weights[u, indices[lo:hi]]
            p = list(w * (hi - lo) / w.sum())
            small = [c for c, x in enumerate(p) if x < 1.0]
            large = [c for c, x in enumerate(p) if x >= 1.0]
            while small and large:
                c, big = small.pop(), large.pop()
                prob[lo + c] = p[c]
                alias[lo + c] = indices[lo + big]
                p[big] -= 1.0 - p[c]
                (small if p[big] < 1.0 else large).append(big)
            # leftovers are 1 up to rounding and keep prob 1, alias self
        prob.setflags(write=False)
        alias.setflags(write=False)
        return prob, alias

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


@dataclass(frozen=True)
class TorusSpec:
    """An m-dimensional torus: per-axis sizes and neighbor radius r."""

    dims: tuple[int, ...]
    r: int

    def __init__(self, dims, r: int):
        object.__setattr__(self, "dims", tuple(int(k) for k in dims))
        object.__setattr__(self, "r", int(r))
        if len(self.dims) < 1:
            raise ParameterError("dims must contain at least one axis size")
        if any(k < 3 for k in self.dims):
            raise ParameterError("every axis size k_i must be >= 3")
        if self.r < 1:
            raise ParameterError("neighbor radius r must be >= 1")
        if 2 * self.r + 1 > min(self.dims):
            raise ParameterError(
                "2r+1 must not exceed the smallest axis size "
                f"(got r={self.r}, min k={min(self.dims)})"
            )

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        out = 1
        for k in self.dims:
            out *= k
        return out


def build_cycle(n: int, r: int) -> Graph:
    """r-nearest-neighbor cycle: i ~ j iff circular distance in [1, r].

    Adjacency is circulant and 2r-regular: the one-axis torus.
    """
    n, r = int(n), int(r)
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3 nodes, got n={n}")
    if r < 1:
        raise ParameterError(f"neighbor radius must be >= 1, got r={r}")
    if 2 * r + 1 > n:
        raise ParameterError(
            f"2r+1 <= n required to avoid duplicate wrap-around edges "
            f"(got n={n}, r={r})"
        )
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


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ParameterError(f"complete graph needs n >= 2, got n={n}")
    return Graph(np.ones((n, n)) - np.eye(n))


def save_edge_list(g: Graph, path_or_buf) -> None:
    """Write the plain-text edge list: `n <count>` header then `i j w` rows."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w") as f:
            save_edge_list(g, f)
        return
    buf = path_or_buf
    buf.write(f"n {g.n}\n")
    rows, cols = np.nonzero(np.triu(g.weights))
    for i, j in zip(rows, cols):
        w = g.weights[i, j]
        buf.write(f"{i} {j} {w:.17g}\n")


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
    """Read a graph from the edge-list format written by save_edge_list."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf) as f:
            return load_edge_list(f)
    lines = [(no, ln.strip()) for no, ln in enumerate(path_or_buf, 1)
             if ln.strip()]
    if not lines or lines[0][1].split()[0] != "n":
        raise ValidationError("edge list must start with a 'n <count>' header")
    _, n = _fields(*lines[0], (str, int))
    if n < 1:
        raise ValidationError("node count must be positive")
    weights = np.zeros((n, n))
    seen = set()
    for no, ln in lines[1:]:
        i, j, w = _fields(no, ln, (int, int, float))
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"node index out of range on line {no}: {ln!r}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValidationError(f"pair listed twice on line {no}: {ln!r}")
        seen.add(pair)
        weights[i, j] = w
        weights[j, i] = w
    return Graph(weights)


def edge_list_str(g: Graph) -> str:
    buf = io.StringIO()
    save_edge_list(g, buf)
    return buf.getvalue()
