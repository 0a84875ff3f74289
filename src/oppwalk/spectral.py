"""Laplacian spectra: closed forms for cycle/torus families, the eigenvalues
of a multi-level circulant from its first row, and the numeric eigenvalues
of a symmetric matrix, from which pinv_trace gives Tr(L+) on any graph.

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

import numpy as np

from .errors import DisconnectedGraphError, ParameterError, ValidationError
from .graphs import TorusSpec

__all__ = [
    "circulant_eigenvalues",
    "cycle_laplacian_eigenvalues",
    "torus_laplacian_eigenvalues",
    "symmetric_eigendecomposition",
    "pinv_trace",
]

# Relative threshold below which an eigenvalue counts as the zero mode.
ZERO_EIGENVALUE_RTOL = 1e-9


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
    n and r are checked as the one-axis torus TorusSpec((n,), r).
    """
    spec = TorusSpec((n,), r)
    n, r = spec.n, spec.r
    j = np.arange(n) if j is None else np.asarray(j)
    out = np.zeros(j.shape)
    for i in range(1, r + 1):
        k = (i * j) % n
        out += np.sin(np.pi * np.minimum(k, n - k) / n) ** 2
    return 4.0 * out


def torus_laplacian_eigenvalues(spec: TorusSpec) -> np.ndarray:
    """All torus Laplacian eigenvalues as sums over index tuples, returned
    raveled in row-major tuple order (the all-zero tuple is element 0)."""
    vals = cycle_laplacian_eigenvalues(spec.dims[0], spec.r)
    for k in spec.dims[1:]:
        axis = cycle_laplacian_eigenvalues(k, spec.r)
        vals = (vals[:, None] + axis[None, :]).ravel()
    return vals


def symmetric_eigendecomposition(M) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending and read-only.

    The solver reads one triangle of M, so M is only checked for symmetry,
    not re-symmetrized.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("input must be a square matrix")
    scale = np.abs(M).max() if M.size else 0.0
    if scale > 0 and np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    vals = np.linalg.eigvalsh(M)
    vals.setflags(write=False)
    return vals


def pinv_trace(vals) -> float:
    """Trace of the Laplacian pseudoinverse from its eigenvalues: the sum
    of reciprocal nonzero eigenvalues.  Requires exactly one zero mode
    (connected graph)."""
    vals = np.asarray(vals, dtype=float)
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
