"""Analytic latency quantities for uniform random-walk routing.

Mean latency of a connected graph is T = 2/(n-1) * Tr(L+), the trace of the
Laplacian pseudoinverse scaled over node pairs.  For cycles and tori T
sums the closed-form spectra in bounded memory.  The oracle route uses no
eigensolver: on a connected graph L+ = (L + J/n)^{-1} - J/n, J all ones, so

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

and, as the independent oracle for them and (by their mean over ordered
pairs) for EPD, from the fundamental matrix of the walk (Kemeny & Snell
1960, section 4.4)

    Z = (I - P + 1 pi^T)^{-1},   H_st = (Z_tt - Z_st) / pi_t,

with P = D^{-1} W and stationary distribution pi = d / vol.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError
from .graphs import Graph, TorusSpec, _integer, _require_walkable
# torus_laplacian_eigenvalues is not called here; it stays importable as
# latency.torus_laplacian_eigenvalues, a name the benchmark tracer wraps
from .spectral import (
    cycle_laplacian_eigenvalues,
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

# Most torus eigenvalues mean_latency_torus sums at once (512 KB), and
# most rows mean_latency_circulant checks at once.
_LEAF = 1 << 16


@functools.lru_cache(maxsize=32)
def _axis_spectrum(k: int, r: int) -> np.ndarray:
    """The closed-form spectrum of one axis of size k <= _LEAF at radius r,
    read-only, evaluated once while it stays among the 32 most recently
    used (k, r): a sweep's points share their axes, and a torus's lam_1 is
    element 1.  So the cache holds at most 32 * _LEAF values (16 MiB); a
    lattice sweep's axes take a few thousand values, tens of KB.  It calls
    cycle_laplacian_eigenvalues by its name here, which the benchmark
    tracer wraps, so every evaluation is counted."""
    vals = cycle_laplacian_eigenvalues(k, r)
    vals.setflags(write=False)
    return vals


def mean_latency_pinv(g: Graph) -> float:
    """Oracle route, independent of eigh: T = 2/(n-1) * (Tr((L + J/n)^{-1}) - 1).

    Exact only on a connected graph, where J/n shifts the single zero
    eigenvalue of L to 1 and leaves the rest of the spectrum alone.
    """
    _require_walkable(g, "mean latency")
    shifted = g.laplacian()
    shifted += 1.0 / g.n
    return 2.0 / (g.n - 1) * (float(np.trace(np.linalg.inv(shifted))) - 1.0)


def mean_latency_circulant(g: Graph, dims) -> float:
    """Oracle route for lattices, independent of eigh and of the closed
    forms: T = 2/(n-1) * Tr(L+) from the FFT of the built graph.

    g must be the m-level circulant over the axis sizes dims (row-major
    node order): the neighbors of every node u are row 0's neighbor
    coordinates shifted by the coordinates of u, modulo dims.  This is
    checked in O(n * degree) time, _LEAF rows at a time so that the check
    holds O(_LEAF * degree) memory beside the graph, and a graph that
    fails it raises ValidationError.  g must be walkable
    (graphs._require_walkable), so the zero mode is element 0 of the FFT,
    the all-zero frequency, and the sum of 1/lambda leaves out that element
    alone.
    """
    dims = tuple(_integer(k, "axis size") for k in dims)
    n = g.n
    if math.prod(dims) != n:
        raise ValidationError(f"axis sizes {dims} do not multiply to n={n}")
    _require_walkable(g, "mean latency")
    indptr, indices = g.csr
    width = int(indptr[1])
    if np.any(np.diff(indptr) != width):
        raise ValidationError("not circulant: row lengths differ")
    offsets = np.unravel_index(indices[:width], dims)
    rows = indices.reshape(n, width)
    for lo in range(0, n, _LEAF):
        coords = np.unravel_index(np.arange(lo, min(lo + _LEAF, n)), dims)
        shifted = np.ravel_multi_index(
            [(c[:, None] + o) % k for c, o, k in zip(coords, offsets, dims)],
            dims)
        shifted.sort(axis=1)
        if not np.array_equal(shifted, rows[lo:lo + _LEAF]):
            raise ValidationError(
                f"graph is not circulant over axis sizes {dims}")
    row = np.zeros(n)
    row[indices[:width]] = -1.0
    row[0] = width
    # lam_j = n * ifftn(row)[j], real as row 0 is even; the real parts
    # are copied once, then scaled and inverted in place
    vals = np.fft.ifftn(row.reshape(dims)).real.ravel()
    vals *= n
    inv = np.divide(1.0, vals[1:], out=vals[1:])
    return 2.0 / (n - 1) * float(np.sum(inv))


def mean_latency_cycle(n: int, r: int) -> float:
    """Closed-form mean latency of the r-nearest-neighbor cycle, the
    one-axis torus."""
    return mean_latency_torus(TorusSpec((n,), r))


def mean_latency_torus(spec: TorusSpec) -> float:
    """Closed-form mean latency of the m-dimensional torus.

    Sums 1/lambda over every index tuple except the all-zero one and scales
    by 2/(n-1) with n = prod(k_i).  The sum is np.sum over the raveled
    spectrum, element 0 dropped, taken leaf by leaf (_pairwise_sum), so
    memory is O(m * _LEAF) for any n and axis order: under 2 MB for a
    1000 x 1000 torus, whose spectrum takes 8 MB, or for 2,000,000 x 3.
    The result is the same double as the whole-array sum.
    """
    total = _pairwise_sum(_reciprocal_leaves(spec), 1, spec.n - 1)
    return 2.0 / (spec.n - 1) * float(total)


def _pairwise_sum(leaf, start: int, count: int) -> float:
    """np.sum of the values start..start+count-1 of a sequence, with
    leaf(start, count) giving at most _LEAF of them as an array.

    np.sum of a contiguous float64 array is a pairwise sum whose splits
    depend on the length alone: a run of more than 128 values splits at
    half its length rounded down to a multiple of 8, and the two halves'
    sums are added.  Splitting by the same rule down to runs of at most
    _LEAF (>= 128) values repeats every addition of np.sum over the whole
    run.
    """
    if count <= _LEAF:
        return np.sum(leaf(start, count))
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(leaf, start, half)
            + _pairwise_sum(leaf, start + half, count - half))


def _reciprocal_leaves(spec: TorusSpec):
    """leaf(start, count) for _pairwise_sum: 1/lambda of the raveled torus
    eigenvalues start..start+count-1, count <= _LEAF, from _axis_sums with
    each axis of at most _LEAF values from _axis_spectrum and one buffer
    reused."""
    r = spec.r
    axes = [(k, _axis_spectrum(k, r) if k <= _LEAF else None)
            for k in spec.dims]
    k, last = axes[-1]
    # a leaf's whole rows of the last axis hold at most count + 2k - 2
    # values, and a leaf at most min(_LEAF, n - 1)
    buf = np.empty(min(_LEAF, spec.n) + 2 * k) if last is not None else None

    def leaf(start: int, count: int) -> np.ndarray:
        out = _axis_sums(axes, r, start, start + count, buf)
        return np.reciprocal(out, out=out)
    return leaf


def _axis_sums(axes, r: int, lo: int, hi: int, out=None) -> np.ndarray:
    """Torus eigenvalues lo..hi-1 (hi - lo <= _LEAF) over axes, (k, its
    spectrum or None if k > _LEAF) pairs, in out if given: the values over
    all axes but the last at rows lo // k .. (hi-1) // k, each plus the
    last axis's spectrum; over no axes the one value 0.  That is the order
    torus_laplacian_eigenvalues adds in, so every value is the same double.
    A long axis is evaluated where needed, in at most two rows."""
    if not axes:
        return np.zeros(1)
    *head, (k, axis) = axes
    row, col = divmod(lo, k)
    rows = _axis_sums(head, r, row, (hi - 1) // k + 1)
    if axis is None:
        # the spectrum reduces an index j >= k to j - k itself
        j = np.arange(col, col + hi - lo)
        block = cycle_laplacian_eigenvalues(k, r, j)
        block[:k - col] += rows[0]
        block[k - col:] += rows[-1]
        return block
    if out is None:
        out = np.empty(rows.size * k)
    # the axis copied into each row, then its head value added in place:
    # the doubles of rows[:, None] + axis, faster than that broadcast add
    block = out[:rows.size * k].reshape(-1, k)
    np.copyto(block, axis)
    np.add(block, rows[:, None], out=block)
    return out[col:col + hi - lo]


def cycle_latency_bounds(n: int, r: int) -> tuple[float, float]:
    """Sandwich bounds of the r-nearest-neighbor cycle, the one-axis torus."""
    return torus_latency_bounds(TorusSpec((n,), r))


def torus_latency_bounds(spec: TorusSpec) -> tuple[float, float]:
    """Sandwich bounds 2/((n-1) lam_1) <= T <= 2/lam_1 from the smallest
    nonzero closed-form eigenvalue lam_1.  Along an axis of size k that is
    the j = 1 value 4 * sum_{i=1..r} sin^2(pi i / k), element 1 of the
    cached spectrum of an axis of at most _LEAF values, and the torus takes
    the smallest over its axes."""
    lam1 = min(float(_axis_spectrum(k, spec.r)[1] if k <= _LEAF else
                     cycle_laplacian_eigenvalues(k, spec.r, [1])[0])
               for k in spec.dims)
    return 2.0 / ((spec.n - 1) * lam1), 2.0 / lam1


def hitting_times(g: Graph) -> np.ndarray:
    """All-pairs expected hitting times h[s, t] (read-only, zero diagonal)
    from the eigendecomposition of the normalized Laplacian.  The graph is
    connected, so its one zero mode is the first of eigh's ascending
    eigenvalues."""
    _require_walkable(g, "hitting-time matrix")
    d = g.degrees
    inv_sqrt = 1.0 / np.sqrt(d)
    vals, vecs = np.linalg.eigh(
        np.eye(g.n) - inv_sqrt[:, None] * g.weights * inv_sqrt[None, :])
    w = 1.0 / vals[1:]
    # U[i, k] = v_k(i) / sqrt(d_i); H[s, t] = 2m * (q_t - (U W U^T)[s, t])
    U = vecs[:, 1:] * inv_sqrt[:, None]
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
    _require_walkable(g, "hitting-time matrix")
    d = g.degrees
    pi = d / d.sum()
    # I - P + 1 pi^T in the Laplacian's buffer, bit for bit ((D - W)/d is 1,
    # -(1/d) or a zero, and 0 + pi = pi); H then in the inverse's buffer.
    m = g.laplacian()
    m /= d[:, None]
    m += pi
    h = np.linalg.inv(m)
    del m
    np.subtract(h.diagonal().copy(), h, out=h)
    h /= pi
    np.fill_diagonal(h, 0.0)
    h.setflags(write=False)
    return h


def expected_packet_delay(g: Graph) -> float:
    """Average hitting time over all ordered pairs i != j (hops), as
    vol * Tr(L+) / (n-1) from the Laplacian eigenvalues (the commute-time
    identity).  The graph is connected, so Tr(L+) sums 1/lambda over every
    ascending eigenvalue but the first, the zero mode.
    hitting_times_linear_system is its oracle."""
    _require_walkable(g, "expected packet delay")
    vol = float(g.degrees.sum())
    vals = symmetric_eigendecomposition(g.laplacian())
    return vol * float(np.sum(1.0 / vals[1:])) / (g.n - 1)
