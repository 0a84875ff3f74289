"""Laplacian spectra: closed forms for cycle/torus families plus a numeric
symmetric eigensolver used as the cross-check oracle for arbitrary graphs.

The closed form for the r-nearest-neighbor cycle Laplacian is

    lam_j = 2r - 2 * sum_{i=1..r} cos(2 pi i j / n)
          = 4 * sum_{i=1..r} sin^2(pi i j / n),   j = 0..n-1,

evaluated in the sin^2 form (2 - 2 cos 2x = 4 sin^2 x), which has no small
denominator and no cancellation: every term is nonnegative.  The argument
i j mod n is reduced in integers and folded into [0, n/2], so sin is only
ever evaluated on [0, pi/2].  Torus spectra are the sumsets of the
component cycle spectra over all index tuples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DisconnectedGraphError,
    ParameterError,
    ValidationError,
)
from .graphs import Graph, TorusSpec

__all__ = [
    "Spectrum",
    "circulant_eigenvalues",
    "cycle_laplacian_eigenvalues",
    "cycle_laplacian_spectrum",
    "torus_laplacian_eigenvalues",
    "torus_laplacian_spectrum",
    "symmetric_eigendecomposition",
    "normalized_laplacian",
    "pinv_trace",
    "laplacian_spectrum",
    "algebraic_connectivity",
]

# Relative threshold below which an eigenvalue counts as the zero mode.
ZERO_EIGENVALUE_RTOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted ascending, optionally with eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.vectors is not None:
            vecs = np.asarray(self.vectors, dtype=float)
            vecs.setflags(write=False)
            object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        return self.values.size


def circulant_eigenvalues(first_row) -> np.ndarray:
    """Eigenvalues of the (multi-level) circulant matrix with the given
    first row.

    lam_j = sum_k row[k] * w^(k j) with w = exp(2 pi i / n), j = 0..n-1;
    this is exactly n * ifft(row).  An m-dimensional first_row is row 0 of
    an m-level circulant reshaped to its axis sizes (row-major node order);
    its eigenvalue at frequency tuple j is n * ifftn(row)[j], from one
    transform over all axes.  Complex in general; for symmetric rows the
    imaginary parts vanish up to roundoff.
    """
    row = np.asarray(first_row, dtype=complex)
    if row.ndim < 1 or row.size < 1:
        raise ParameterError("first_row must be a nonempty array")
    return np.fft.ifftn(row) * row.size


def cycle_laplacian_eigenvalues(n: int, r: int, j=None) -> np.ndarray:
    """Closed-form Laplacian eigenvalues of the r-nearest-neighbor cycle.

    j may be an index array; default is 0..n-1 (unsorted, natural order).
    """
    n, r = int(n), int(r)
    if n < 3 or r < 1 or 2 * r + 1 > n:
        raise ParameterError(
            f"cycle spectrum needs n >= 3, r >= 1, 2r+1 <= n (got n={n}, r={r})"
        )
    j = np.arange(n) if j is None else np.asarray(j)
    out = np.zeros(j.shape)
    for i in range(1, r + 1):
        k = (i * j) % n
        out += np.sin(np.pi * np.minimum(k, n - k) / n) ** 2
    return 4.0 * out


def cycle_laplacian_spectrum(n: int, r: int) -> Spectrum:
    vals = np.sort(cycle_laplacian_eigenvalues(n, r))
    return Spectrum(values=vals)


def torus_laplacian_eigenvalues(spec: TorusSpec) -> np.ndarray:
    """All torus Laplacian eigenvalues as sums over index tuples, returned
    raveled in row-major tuple order (the all-zero tuple is element 0)."""
    vals = cycle_laplacian_eigenvalues(spec.dims[0], spec.r)
    for k in spec.dims[1:]:
        axis = cycle_laplacian_eigenvalues(k, spec.r)
        vals = (vals[:, None] + axis[None, :]).ravel()
    return vals


def torus_laplacian_spectrum(spec: TorusSpec) -> Spectrum:
    return Spectrum(values=np.sort(torus_laplacian_eigenvalues(spec)))


def symmetric_eigendecomposition(M, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a real symmetric matrix, ascending.

    If want_vectors, the orthonormal eigenvector columns are attached and
    satisfy M v_k = lam_k v_k within solver tolerance.  The solver reads one
    triangle of M, so M is only checked for symmetry, not re-symmetrized.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("input must be a square matrix")
    scale = np.abs(M).max() if M.size else 0.0
    if scale > 0 and np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    if want_vectors:
        vals, vecs = np.linalg.eigh(M)
        return Spectrum(values=vals, vectors=vecs)
    return Spectrum(values=np.linalg.eigvalsh(M))


def normalized_laplacian(g: Graph) -> np.ndarray:
    """N = D^{-1/2} (D - A) D^{-1/2}; requires every degree positive."""
    d = g.degrees
    if np.any(d <= 0):
        raise DegenerateInputError(
            "normalized Laplacian undefined for zero-degree nodes"
        )
    inv_sqrt = 1.0 / np.sqrt(d)
    N = -(inv_sqrt[:, None] * g.weights * inv_sqrt[None, :])
    np.fill_diagonal(N, 1.0)
    return 0.5 * (N + N.T)


def pinv_trace(spectrum) -> float:
    """Trace of the Laplacian pseudoinverse: sum of reciprocal nonzero
    eigenvalues.  Requires exactly one zero mode (connected graph)."""
    vals = spectrum.values if isinstance(spectrum, Spectrum) else np.asarray(
        spectrum, dtype=float)
    tol = ZERO_EIGENVALUE_RTOL * np.abs(vals).max()
    zero = np.abs(vals) <= tol
    nzero = int(zero.sum())
    if nzero > 1:
        raise DisconnectedGraphError(
            f"{nzero} near-zero eigenvalues: graph is disconnected"
        )
    if nzero == 0:
        raise ValidationError("no zero eigenvalue: not a Laplacian spectrum")
    return float(np.sum(1.0 / vals[~zero]))


def laplacian_spectrum(g: Graph) -> Spectrum:
    """Numeric spectrum of the combinatorial Laplacian of g."""
    return symmetric_eigendecomposition(g.laplacian())


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; raises if the graph is
    disconnected (eigenvalue indistinguishable from zero)."""
    vals = laplacian_spectrum(g).values
    lam1 = float(vals[1])
    if lam1 <= ZERO_EIGENVALUE_RTOL * np.abs(vals).max():
        raise DisconnectedGraphError("algebraic connectivity is zero")
    return lam1
