"""Laplacian spectra: closed forms for cycle/torus families and the numeric
eigenvalues of a symmetric matrix, ascending, so that on a connected
graph's Laplacian the zero mode is element 0.  (The FFT spectrum of a
built lattice is latency.mean_latency_circulant's own.)

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

from .errors import ValidationError
from .graphs import TorusSpec

__all__ = [
    "cycle_laplacian_eigenvalues",
    "torus_laplacian_eigenvalues",
    "symmetric_eigendecomposition",
]


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

    The solver reads one triangle of M, so M must equal its transpose bit
    for bit (a NaN never does); it is not re-symmetrized.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("input must be a square matrix")
    if not np.array_equal(M, M.T):
        raise ValidationError("matrix is not exactly symmetric")
    vals = np.linalg.eigvalsh(M)
    vals.setflags(write=False)
    return vals
