"""Graph families used by the latency analysis.

A Graph is built one of two ways.  Graph(weights) takes a dense square,
symmetric 0/1 matrix with zero diagonal of any dtype, checks it as it is
and keeps a frozen bool copy, one byte per entry; its CSR rows (Graph.csr)
are derived on first use.  build_torus builds cycles and tori from their
CSR rows alone, which are valid and connected by construction, so they
never allocate an n x n matrix.  csr and is_connected read the bool store;
laplacian() (for eigvalsh and the fundamental-matrix oracle) and weights
(for library callers) build a new float64 matrix per call, none cached.

Nodes are indexed 0..n-1. Torus nodes are indexed row-major over their
coordinate tuples (numpy ravel order), so for dims [k_1, ..., k_m] the node
with coordinates (c_1, ..., c_m) has index
c_1 * k_2 * ... * k_m + ... + c_{m-1} * k_m + c_m.  Eigenvalue index tuples
use the same convention.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError, ParameterError, ValidationError

# Largest integer numpy takes as a count or an index (int64): the bound on
# integer arguments, config values and torus node counts.
_INT_MAX = np.iinfo(np.int64).max

__all__ = [
    "Graph",
    "TorusSpec",
    "build_cycle",
    "cartesian_product",
    "build_torus",
    "save_edge_list",
]


class Graph:
    """Undirected simple graph: symmetric 0/1 adjacency with zero diagonal,
    held as a dense bool matrix (Graph(weights)) or as CSR rows (a lattice
    of build_torus).  Immutable; every construction runs __post_init__,
    which freezes its input: a checked bool copy of a dense matrix, the CSR
    arrays themselves."""

    def __init__(self, weights):
        self.__dict__["_dense"] = weights
        self.__post_init__()

    @classmethod
    def _from_csr(cls, indptr, indices) -> Graph:
        """The graph whose neighbors of u are indices[indptr[u]:indptr[u+1]].
        It takes over the two intp arrays as they are, without a copy, and
        makes them read-only, so the caller hands it arrays of its own.
        The rows must be simple and undirected: every row strictly
        increasing, no self-loops, and v in the row of u exactly when u is
        in the row of v.  They are not checked."""
        g = cls.__new__(cls)
        g.__dict__.update(_dense=None, csr=(indptr, indices))
        g.__post_init__()
        return g

    def __post_init__(self):
        """Freeze the input of either constructor: a dense matrix is checked
        and copied as bool, CSR arrays are made read-only in place."""
        if self._dense is None:
            for a in self.csr:
                a.setflags(write=False)
        else:
            self.__dict__["_dense"] = _frozen_dense(self._dense)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    @property
    def n(self) -> int:
        if self._dense is None:
            return self.csr[0].size - 1
        return self._dense.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The 0/1 adjacency as a new, read-only float64 matrix on every
        call, whichever the storage."""
        w = (self._fill_csr(1.0) if self._dense is None
             else self._dense.astype(float))
        w.setflags(write=False)
        return w

    def _fill_csr(self, value) -> np.ndarray:
        """A new n x n matrix of value's type, value at every CSR slot."""
        indptr, indices = self.csr
        m = np.zeros((self.n, self.n), dtype=type(value))
        m[_row_of_slot(indptr), indices] = value
        return m

    @cached_property
    def degrees(self) -> np.ndarray:
        if self._dense is None:
            d = np.diff(self.csr[0]).astype(float)
        else:
            d = self._dense.sum(axis=1, dtype=float)
        d.setflags(write=False)
        return d

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows (indptr, indices): the neighbors of u are
        indices[indptr[u]:indptr[u+1]], in ascending order.  Derived once
        from the flat indices u*n + v of a dense graph's store; read-only."""
        flat = np.flatnonzero(self._dense)
        indptr = np.searchsorted(flat, np.arange(self.n + 1) * self.n)
        indices = flat % self.n
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def laplacian(self) -> np.ndarray:
        """L = D - W as a new, writable dense matrix, built in one buffer:
        0 - W from the bool store (a CSR-built graph writes -1.0 at its
        slots of a zeroed matrix), then the degrees on the diagonal; bit
        for bit diag(D) - W."""
        if self._dense is None:
            lap = self._fill_csr(-1.0)
        else:
            lap = np.subtract(0.0, self._dense)
        np.fill_diagonal(lap, self.degrees)
        return lap

    def is_connected(self) -> bool:
        """Sweep from node 0: the reached set takes in all its neighbors,
        the union of its rows of the bool adjacency, at each step until its
        count stops growing.  Run on the first call; the graph is immutable,
        so later calls return the stored answer.  build_torus stores True
        on every lattice it makes, so the sweep runs on dense graphs."""
        connected = self.__dict__.get("_connected")
        if connected is None:
            adj = self._fill_csr(True) if self._dense is None else self._dense
            seen = np.zeros(self.n, dtype=bool)
            seen[0] = True
            count = 1
            while count < seen.size:
                seen |= adj.compress(seen, axis=0).any(axis=0)
                grown = np.count_nonzero(seen)
                if grown == count:
                    break
                count = grown
            connected = self.__dict__["_connected"] = bool(count == seen.size)
        return connected


def _row_of_slot(indptr: np.ndarray) -> np.ndarray:
    """The row of each CSR slot."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _frozen_dense(weights) -> np.ndarray:
    """A read-only bool copy of a symmetric 0/1 matrix with zero diagonal;
    anything else raises a ValidationError.  An entry is 0/1 when it
    equals its bool copy in its own dtype; after that check the copy's
    symmetry and diagonal are the input's."""
    try:
        w = np.asarray(weights)
    except ValueError:  # a ragged nesting of rows
        w = np.empty(0)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
        raise ValidationError("weights must be a square matrix")
    adj = w.astype(bool)
    bad = w[w != adj]
    if bad.size:
        raise ValidationError(f"weights must be finite 0/1, not {bad.item(0)!r}")
    if not np.array_equal(adj, adj.T):
        raise ValidationError("weight matrix must be symmetric")
    if adj.diagonal().any():
        raise ValidationError("weight matrix must have zero diagonal")
    adj.setflags(write=False)
    return adj


def _require_walkable(g: Graph, quantity: str) -> Graph:
    """g, once it is connected with n >= 2 nodes, as every random-walk
    quantity needs; else an error naming quantity."""
    if g.n < 2:
        raise ParameterError(f"{quantity} needs n >= 2")
    if not g.is_connected():
        raise DisconnectedGraphError(
            f"{quantity} is undefined on a disconnected graph")
    return g


def _integer(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer; anything else,
    such as 7.9, is a ParameterError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer (got {value!r})") from None


def _seed(value) -> int:
    """value as a seed, any integer >= 0; None (fresh OS entropy) is not."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0 (got {seed})")
    return seed


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
        if self.n > _INT_MAX:
            raise ParameterError(f"node count n={self.n} is beyond int64")

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @property
    def edges(self) -> int:
        """Edge count n*m*r: every node has 2mr neighbors."""
        return self.n * self.m * self.r


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
    r-nearest-neighbor cycles, built from CSR rows by coordinate
    arithmetic: along each axis the neighbors of a node are the nodes at
    circular distance 1..r, so every node has 2mr neighbors and no n x n
    matrix is made.

    The 2mr shifted columns are written into one flat intp buffer viewed
    as (n, 2mr), each axis's 2r columns by one in-place whole-array step,
    each row sorted in place, and the graph takes that buffer over as its
    indices: the rows are made once.

    The torus is connected by construction: r >= 1 and every k >= 3, so
    the +-1 steps along every axis reach every coordinate tuple.  The graph
    stores that answer, and is_connected never sweeps it.
    """
    r = spec.r
    width = 2 * spec.m * r
    flat = np.empty(spec.n * width, dtype=np.intp)
    rows = flat.reshape(spec.n, width)
    index = np.arange(spec.n)
    # 2r+1 <= k, so the 2r shifts along one axis reach distinct nodes
    shifts = np.array([[s] for i in range(1, r + 1) for s in (i, -i)])
    outer, stride = 1, spec.n
    for axis, k in enumerate(spec.dims):
        stride //= k
        # node (q, c, s) of shape (outer, k, stride) moves by
        # ((c + shift) % k - c) * stride, the same for every q and s
        c = np.arange(k)
        step = ((c + shifts) % k - c) * stride
        # into the axis's 2r columns viewed as (2r, outer, k, stride):
        # order="C" runs each inner loop over nodes, not over 2r shifts
        block = rows.reshape(outer, k, stride, width)[
            ..., 2 * r * axis:2 * r * (axis + 1)]
        np.add(index.reshape(outer, k, stride), step[:, None, :, None],
               out=block.transpose(3, 0, 1, 2), order="C")
        outer *= k
    rows.sort(axis=-1)
    g = Graph._from_csr(np.arange(0, flat.size + 1, width), flat)
    g.__dict__["_connected"] = True
    return g


def save_edge_list(g: Graph, path) -> None:
    """Write the plain-text edge list: `n <count>` header then `i j 1` rows,
    one per edge i < j in row-major order, from the CSR rows."""
    indptr, indices = g.csr
    rows = _row_of_slot(indptr)
    upper = rows < indices
    with open(path, "w") as f:
        f.write(f"n {g.n}\n")
        for i, j in zip(rows[upper], indices[upper]):
            f.write(f"{i} {j} 1\n")
