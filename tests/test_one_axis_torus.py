"""A cycle is the one-axis torus: every cycle quantity equals the torus
quantity of TorusSpec((n,), r) exactly, bit for bit, in every layer from
the built graph to the CLI row."""
import numpy as np
import pytest

from oppwalk import cli
from oppwalk.errors import ParameterError
from oppwalk.graphs import TorusSpec, build_cycle, build_torus
from oppwalk.latency import (
    cycle_latency_bounds,
    mean_latency_cycle,
    mean_latency_torus,
    torus_latency_bounds,
)
from oppwalk.spectral import (
    cycle_laplacian_eigenvalues,
    torus_laplacian_eigenvalues,
)

# (8, 3), (17, 8) and (399, 199) are near-complete lattices where the j = 1
# eigenvalue ties with others and differs from their minimum by rounding.
CASES = [(3, 1), (5, 2), (8, 3), (10, 1), (16, 2), (17, 8), (30, 4),
         (64, 1), (101, 7), (150, 10), (399, 199)]


@pytest.mark.parametrize("n,r", CASES)
def test_spectra_equal(n, r):
    assert np.array_equal(cycle_laplacian_eigenvalues(n, r),
                          torus_laplacian_eigenvalues(TorusSpec((n,), r)))


@pytest.mark.parametrize("n,r", CASES)
def test_mean_latency_equal(n, r):
    assert mean_latency_cycle(n, r) == mean_latency_torus(TorusSpec((n,), r))


@pytest.mark.parametrize("n,r", CASES)
def test_bounds_equal(n, r):
    assert cycle_latency_bounds(n, r) == torus_latency_bounds(TorusSpec((n,), r))


@pytest.mark.parametrize("n,r", CASES)
def test_built_graphs_equal(n, r):
    assert np.array_equal(build_cycle(n, r).weights,
                          build_torus(TorusSpec((n,), r)).weights)


def test_j1_is_smallest_nonzero_eigenvalue():
    """The bound rule takes lam_1 at j = 1 on every axis; it is the smallest
    nonzero eigenvalue up to rounding at the ties of near-complete lattices."""
    for n in range(3, 101):
        for r in range(1, (n - 1) // 2 + 1):
            vals = cycle_laplacian_eigenvalues(n, r)
            assert vals[1] <= vals[1:].min() * (1 + 1e-14), (n, r)
    vals = cycle_laplacian_eigenvalues(399, 199)
    assert vals[1] <= vals[1:].min() * (1 + 1e-14)


def rows(argv, capsys):
    assert cli.main(argv) == 0
    return [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]


@pytest.mark.parametrize("n,r", [(8, 3), (17, 8), (30, 2), (399, 199)])
def test_cli_rows_equal(n, r, capsys):
    flags = ["--r", str(r), "--trials", "40", "--seed", "5"]
    (cycle,) = rows(["cycle-sweep", "--n", str(n), *flags], capsys)
    (torus,) = rows(["torus-sweep", "--dims", str(n), *flags], capsys)
    assert cycle[:2] == ["cycle", f"n={n};r={r}"]
    assert torus[:2] == ["torus", f"dims={n};r={r}"]
    assert cycle[2:] == torus[2:]
    assert "" not in cycle[2:]


@pytest.mark.parametrize("n,r,shown", [
    (4, 5, "r=5, min k=4"), (2, 1, "r=1, min k=2"), (5, 0, "r=0, min k=5")])
def test_bad_cycle_names_its_n_and_r(n, r, shown):
    for call in (lambda: build_cycle(n, r),
                 lambda: cycle_laplacian_eigenvalues(n, r),
                 lambda: mean_latency_cycle(n, r),
                 lambda: cycle_latency_bounds(n, r)):
        with pytest.raises(ParameterError, match=shown):
            call()
