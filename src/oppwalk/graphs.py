"""Graph families used by the latency analysis.

A Graph is built one of two ways.  Graph(weights) takes a dense square,
symmetric 0/1 matrix with zero diagonal and keeps a frozen copy; its CSR
rows (Graph.csr) are derived on first use.  Graph.from_csr(indptr,
indices) takes the CSR rows alone and keeps only those; cycles, tori and
loaded edge lists are built this way, so they never allocate an n x n
matrix.  On a CSR-built graph, weights and laplacian() build a new dense
matrix on every call, for the dense consumers (eigvalsh, the
fundamental-matrix oracle); nothing dense is cached beside the rows.

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


class Graph:
    """Undirected simple graph: symmetric 0/1 adjacency with zero diagonal,
    held as a dense matrix (Graph(weights)) or as CSR rows
    (Graph.from_csr).  Immutable; every construction runs __post_init__,
    which checks the input and freezes a copy of it."""

    def __init__(self, weights):
        self.__dict__["_dense"] = weights
        self.__post_init__()

    @classmethod
    def from_csr(cls, indptr, indices) -> Graph:
        """The graph whose neighbors of u are indices[indptr[u]:indptr[u+1]]:
        every row strictly increasing, no self-loops, and v in the row of u
        exactly when u is in the row of v.  Checked in O(nnz log nnz)."""
        g = cls.__new__(cls)
        g.__dict__.update(_dense=None, csr=(indptr, indices))
        g.__post_init__()
        return g

    def __post_init__(self):
        """Check the input of either constructor and freeze a copy of it."""
        if self._dense is None:
            self.__dict__["csr"] = _frozen_csr(*self.csr)
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
        """The dense 0/1 matrix, read-only: Graph(weights)'s own copy, or a
        new matrix per call for a CSR-built graph."""
        if self._dense is not None:
            return self._dense
        w = self._fill_csr(1.0)
        w.setflags(write=False)
        return w

    def _fill_csr(self, value: float) -> np.ndarray:
        """A new n x n matrix of +0.0 with value at every CSR slot."""
        indptr, indices = self.csr
        m = np.zeros((self.n, self.n))
        m[_row_of_slot(indptr), indices] = value
        return m

    @cached_property
    def degrees(self) -> np.ndarray:
        if self._dense is None:
            d = np.diff(self.csr[0]).astype(float)
        else:
            d = self._dense.sum(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows (indptr, indices): the neighbors of u are
        indices[indptr[u]:indptr[u+1]], in ascending order.  Derived once
        from a dense graph's matrix; both arrays compact and read-only."""
        rows, cols = np.nonzero(self._dense)
        indptr = np.searchsorted(rows, np.arange(self.n + 1))
        # nonzero's arrays are strided views of one (nnz, 2) array
        indices = cols.copy()
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def laplacian(self) -> np.ndarray:
        """L = D - W as a new, writable dense matrix, built in one buffer:
        0 - W (a CSR-built graph writes -1.0 at its slots of a zeroed
        matrix), then the degrees on the diagonal; bit for bit diag(D) - W."""
        if self._dense is None:
            lap = self._fill_csr(-1.0)
        else:
            lap = np.subtract(0.0, self._dense)
        np.fill_diagonal(lap, self.degrees)
        return lap

    def is_connected(self) -> bool:
        """Breadth-first sweep from node 0, one whole frontier per step,
        run on the first call; the graph is immutable, so later calls
        return the stored answer.  A dense graph takes one matrix-vector
        product per step, which at wireless sizes costs less than deriving
        its CSR rows; a CSR-built graph sweeps its rows, O(n + nnz) per
        step."""
        connected = self.__dict__.get("_connected")
        if connected is None:
            if self._dense is None:
                connected = _sweep_csr(*self.csr)
            else:
                connected = _sweep_dense(self._dense)
            self.__dict__["_connected"] = connected
        return connected


def _row_of_slot(indptr: np.ndarray) -> np.ndarray:
    """The row of each CSR slot."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _frozen_dense(weights) -> np.ndarray:
    """A read-only float copy of a symmetric 0/1 matrix with zero
    diagonal; anything else raises a ValidationError.  A bool matrix is
    0/1 by its type: it is checked as it is and converted once."""
    w = np.asarray(weights)
    binary = w.dtype == bool
    if not binary:
        w = w.astype(float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
        raise ValidationError("weights must be a square matrix")
    if not binary:
        bad = w[(w != 0.0) & (w != 1.0)]
        if bad.size:
            raise ValidationError(f"weights must be finite 0/1, not {bad[0]:g}")
    if not np.array_equal(w, w.T):
        raise ValidationError("weight matrix must be symmetric")
    if w.diagonal().any():
        raise ValidationError("weight matrix must have zero diagonal")
    if binary:
        w = w.astype(float)
    w.setflags(write=False)
    return w


def _frozen_csr(indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp copies of the CSR rows of a simple undirected graph;
    anything else raises a ValidationError that names the fault."""
    out = []
    for name, a in (("indptr", indptr), ("indices", indices)):
        a = np.asarray(a)
        if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
            raise ValidationError(f"CSR {name} must be a 1-D integer array")
        out.append(a)
    indptr, indices = out
    n = indptr.size - 1
    if (n < 1 or indptr[0] != 0 or indptr[-1] != indices.size
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValidationError(
            "CSR indptr must start at 0, never decrease and end at the "
            "number of indices")
    bad = indices[(indices < 0) | (indices >= n)]
    if bad.size:
        raise ValidationError(f"CSR index {bad[0]} out of range for n={n}")
    indptr, indices = indptr.astype(np.intp), indices.astype(np.intp)
    rows = _row_of_slot(indptr)
    step = np.diff(indices)[rows[1:] == rows[:-1]]  # within one row
    if np.any(step < 0):
        raise ValidationError("CSR rows must be sorted in ascending order")
    if np.any(step == 0):
        raise ValidationError("CSR row lists a neighbor twice")
    if np.any(indices == rows):
        raise ValidationError("CSR rows must have no self-loops")
    # (row, col) slots are in ascending row * n + col order; the graph is
    # symmetric exactly when the transposed slots sort to the same keys
    if not np.array_equal(np.sort(indices * n + rows), rows * n + indices):
        raise ValidationError("CSR rows must be symmetric")
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _sweep_dense(w: np.ndarray) -> bool:
    # a node is reached when a reached node is its neighbor: w @ seen
    # counts them, and integer sums below 2**53 are exact in float
    seen = np.zeros(w.shape[0], dtype=bool)
    seen[0] = True
    count = 1
    while count < seen.size:
        seen |= (w @ seen) > 0
        grown = np.count_nonzero(seen)
        if grown == count:
            break
        count = grown
    return bool(count == seen.size)


def _sweep_csr(indptr: np.ndarray, indices: np.ndarray) -> bool:
    rows = _row_of_slot(indptr)
    seen = np.zeros(indptr.size - 1, dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        # the nodes in the slots of the frontier rows
        reached = np.zeros_like(seen)
        reached[indices[frontier[rows]]] = True
        frontier = reached & ~seen
    return bool(seen.all())


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
    r-nearest-neighbor cycles, built from the CSR rows torus_neighbors
    gives: every node has 2mr neighbors, so no n x n matrix is made."""
    rows = torus_neighbors(spec, np.arange(spec.n))
    width = rows.shape[1]
    return Graph.from_csr(np.arange(0, rows.size + 1, width), rows.ravel())


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
    """Write the plain-text edge list: `n <count>` header then `i j 1` rows,
    one per edge i < j in row-major order, from the CSR rows."""
    indptr, indices = g.csr
    rows = _row_of_slot(indptr)
    upper = rows < indices
    with _text_file(path_or_buf, "w") as buf:
        buf.write(f"n {g.n}\n")
        for i, j in zip(rows[upper], indices[upper]):
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
    Every line is checked before the graph is built from its CSR rows, in
    O(n + edges) memory."""
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
    # both slots of every edge, sorted by (row, column): the CSR rows
    i, j = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T
    rows, cols = np.divmod(np.sort(np.concatenate([i * n + j, j * n + i])), n)
    return Graph.from_csr(np.searchsorted(rows, np.arange(n + 1)), cols)
