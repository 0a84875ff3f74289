"""Analytic latency quantities for uniform random-walk routing.

Mean latency of a connected graph is T = 2/(n-1) * Tr(L+), the trace of the
Laplacian pseudoinverse scaled over node pairs.  For cycle and torus
families T evaluates through the closed-form spectra.  The oracle route
uses no eigensolver: on a connected graph L+ = (L + J/n)^{-1} - J/n with J
the all-ones matrix, so

    Tr(L+) = Tr((L + J/n)^{-1}) - 1

from one dense inverse (Ghosh, Boyd & Saberi 2008).  Cycles and tori are
multi-level circulants, so their oracle diagonalizes the built graph
instead: once every row is checked to be row 0 shifted, the n Laplacian
eigenvalues are one m-dimensional FFT of row 0, in O(n log n) and
independent of the closed-form sin^2 spectra.

Expected packet delay (EPD) is the average hitting time over all ordered
pairs.  By the commute-time identity H_st + H_ts = vol * R_st (Chandra et
al. 1989; Tetali 1991), with vol = sum of degrees and the resistances
summing to n * Tr(L+) over unordered pairs,

    EPD = vol * Tr(L+) / (n-1) = (vol/2) * T,

so EPD needs only the Laplacian eigenvalues.  All-pairs hitting times come
from the eigendecomposition of the normalized Laplacian D^{-1/2} L D^{-1/2}

    H_st = 2m * sum_{lam_k > 0} (1/lam_k) * (v_kt^2 / d_t - v_ks v_kt / sqrt(d_s d_t))

and, as the independent oracle for them and for EPD, from the fundamental
matrix of the walk (Kemeny & Snell 1960, section 4.4)

    Z = (I - P + 1 pi^T)^{-1},   H_st = (Z_tt - Z_st) / pi_t,

with P = D^{-1} W and stationary distribution pi = d / vol.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DisconnectedGraphError, ParameterError, ValidationError
from .graphs import Graph, TorusSpec
from .spectral import (
    ZERO_EIGENVALUE_RTOL,
    circulant_eigenvalues,
    cycle_laplacian_eigenvalues,
    pinv_trace,
    symmetric_eigendecomposition,
    torus_laplacian_eigenvalues,
)

__all__ = [
    "mean_latency_pinv",
    "mean_latency_circulant",
    "mean_latency_cycle",
    "mean_latency_torus",
    "cycle_latency_bounds",
    "torus_latency_bounds",
    "hitting_times",
    "hitting_times_linear_system",
    "expected_packet_delay",
]


def _require_connected(g: Graph, quantity: str) -> None:
    """Raise unless g has n >= 2 nodes and is connected."""
    if g.n < 2:
        raise ParameterError(f"{quantity} needs n >= 2")
    if not g.is_connected():
        raise DisconnectedGraphError(
            "latency quantities are undefined on disconnected graphs"
        )


def mean_latency_pinv(g: Graph) -> float:
    """Oracle route, independent of eigh: T = 2/(n-1) * (Tr((L + J/n)^{-1}) - 1).

    Exact only on a connected graph, where J/n shifts the single zero
    eigenvalue of L to 1 and leaves the rest of the spectrum alone.
    """
    _require_connected(g, "mean latency")
    shifted = g.laplacian()
    shifted += 1.0 / g.n
    return 2.0 / (g.n - 1) * (float(np.trace(np.linalg.inv(shifted))) - 1.0)


def mean_latency_circulant(g: Graph, dims) -> float:
    """Oracle route for lattices, independent of eigh and of the closed
    forms: T = 2/(n-1) * Tr(L+) from the FFT of the built graph.

    g must be the m-level circulant over the axis sizes dims (row-major
    node order): the neighbors of every node u are row 0's neighbor
    coordinates shifted by the coordinates of u, modulo dims, with row 0's
    weights.  This is checked in O(n * degree) and a graph that fails it
    raises ValidationError; a disconnected one raises
    DisconnectedGraphError from its extra zero modes.
    """
    dims = tuple(int(k) for k in dims)
    n = g.n
    if math.prod(dims) != n:
        raise ValidationError(f"axis sizes {dims} do not multiply to n={n}")
    if n < 2:
        raise ParameterError("mean latency needs n >= 2")
    indptr, indices = g.csr
    width = int(indptr[1])
    if np.any(np.diff(indptr) != width):
        raise ValidationError("not circulant: row lengths differ")
    rows = np.arange(n)
    coords = np.unravel_index(rows, dims)
    offsets = np.unravel_index(indices[:width], dims)
    shifted = np.ravel_multi_index(
        [(c[:, None] + o) % k for c, o, k in zip(coords, offsets, dims)], dims)
    w0 = g.weights[0, indices[:width]]
    if not (np.array_equal(np.sort(shifted, axis=1),
                           indices.reshape(n, width))
            and (g.weights[rows[:, None], shifted] == w0).all()):
        raise ValidationError(
            f"graph is not circulant over axis sizes {dims}")
    row = np.zeros(n)
    row[indices[:width]] = -w0
    row[0] = w0.sum()
    vals = circulant_eigenvalues(row.reshape(dims)).real.ravel()
    return 2.0 / (n - 1) * pinv_trace(vals)


def mean_latency_cycle(n: int, r: int) -> float:
    """Closed-form mean latency of the r-nearest-neighbor cycle, the
    one-axis torus."""
    return mean_latency_torus(TorusSpec((n,), r))


def mean_latency_torus(spec: TorusSpec) -> float:
    """Closed-form mean latency of the m-dimensional torus.

    Sums 1/lambda over every index tuple except the all-zero one and scales
    by 2/(n-1) with n = prod(k_i).
    """
    vals = torus_laplacian_eigenvalues(spec)
    return 2.0 / (spec.n - 1) * float(np.sum(1.0 / vals[1:]))


def cycle_latency_bounds(n: int, r: int) -> tuple[float, float]:
    """Sandwich bounds of the r-nearest-neighbor cycle, the one-axis torus."""
    return torus_latency_bounds(TorusSpec((n,), r))


def torus_latency_bounds(spec: TorusSpec) -> tuple[float, float]:
    """Sandwich bounds 2/((n-1) lam_1) <= T <= 2/lam_1 from the smallest
    nonzero closed-form eigenvalue lam_1.  Along an axis of size k that is
    the j = 1 value 4 * sum_{i=1..r} sin^2(pi i / k), and the torus takes
    the smallest over its axes."""
    lam1 = min(float(cycle_laplacian_eigenvalues(k, spec.r, [1])[0])
               for k in spec.dims)
    return 2.0 / ((spec.n - 1) * lam1), 2.0 / lam1


def hitting_times(g: Graph) -> np.ndarray:
    """All-pairs expected hitting times h[s, t] (read-only, zero diagonal)
    from the eigendecomposition of the normalized Laplacian."""
    _require_connected(g, "hitting-time matrix")
    d = g.degrees
    inv_sqrt = 1.0 / np.sqrt(d)
    vals, vecs = np.linalg.eigh(
        np.eye(g.n) - inv_sqrt[:, None] * g.weights * inv_sqrt[None, :])
    keep = vals > ZERO_EIGENVALUE_RTOL * np.abs(vals).max()
    w = 1.0 / vals[keep]
    # U[i, k] = v_k(i) / sqrt(d_i); H[s, t] = 2m * (q_t - (U W U^T)[s, t])
    U = vecs[:, keep] * inv_sqrt[:, None]
    M = (U * w) @ U.T
    q = np.einsum("ik,k,ik->i", U, w, U)
    h = float(d.sum()) * (q[None, :] - M)
    np.fill_diagonal(h, 0.0)
    h.setflags(write=False)
    return h


def hitting_times_linear_system(g: Graph) -> np.ndarray:
    """Fundamental-matrix oracle, independent of eigh: one dense inverse
    Z = (I - P + 1 pi^T)^{-1} gives H_st = (Z_tt - Z_st) / pi_t, with
    P = D^{-1} W and pi = d / vol.  Returns h[s, t] like hitting_times.

    It solves the first-step equations h_st = 1 + sum_u P_su h_ut for every
    target at once; Z exists only on a connected graph.
    """
    _require_connected(g, "hitting-time matrix")
    d = g.degrees
    pi = d / d.sum()
    z = np.linalg.inv(np.eye(g.n) - g.weights / d[:, None] + pi[None, :])
    h = (np.diag(z)[None, :] - z) / pi[None, :]
    np.fill_diagonal(h, 0.0)
    h.setflags(write=False)
    return h


def expected_packet_delay(g: Graph, method: str = "spectral") -> float:
    """Average hitting time over all ordered pairs i != j (hops).

    "spectral": vol * Tr(L+) / (n-1) from the Laplacian eigenvalues (the
    commute-time identity; weighted graphs too).  "linear-system": the mean
    off-diagonal entry of the fundamental-matrix hitting times, the oracle.
    """
    n = g.n
    if method == "linear-system":
        return float(hitting_times_linear_system(g).sum()) / (n * (n - 1))
    if method != "spectral":
        raise ParameterError(f"unknown hitting-time method {method!r}")
    _require_connected(g, "expected packet delay")
    vol = float(g.degrees.sum())
    return vol * pinv_trace(symmetric_eigendecomposition(g.laplacian())) / (n - 1)
