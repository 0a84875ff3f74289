from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppwalk.errors import DisconnectedGraphError, ParameterError, ValidationError
from oppwalk.graphs import Graph, TorusSpec, build_cycle, build_torus
from oppwalk.latency import hitting_times
from oppwalk.spectral import (
    circulant_eigenvalues,
    cycle_laplacian_eigenvalues,
    pinv_trace,
    symmetric_eigendecomposition,
    torus_laplacian_eigenvalues,
)
from oppwalk.wireless import WirelessConfig, generate_topology
from test_acceptance import TORUS_CASES_2D3D


def cycle_spectrum(n, r):
    """Closed-form cycle eigenvalues, ascending."""
    return np.sort(cycle_laplacian_eigenvalues(n, r))


def torus_spectrum(spec):
    """Closed-form torus eigenvalues, ascending."""
    return np.sort(torus_laplacian_eigenvalues(spec))


def numeric_spectrum(g):
    return symmetric_eigendecomposition(g.laplacian())


class TestCirculantEigenvalues:
    def test_c4_adjacency_row(self):
        vals = circulant_eigenvalues([0, 1, 0, 1])
        assert sorted(np.real(vals)) == pytest.approx([-2, 0, 0, 2], abs=1e-12)
        assert np.abs(np.imag(vals)).max() < 1e-12

    def test_scaled_identity(self):
        vals = circulant_eigenvalues([3.5, 0, 0, 0, 0])
        assert np.allclose(vals, 3.5)

    def test_matches_numeric_eigensolver(self):
        rng = np.random.default_rng(5)
        n = 8
        a0, b1, b2, b3, c4 = rng.random(5)
        # symmetric circulant needs row[k] == row[n-k]
        row = np.array([a0, b1, b2, b3, c4, b3, b2, b1])
        mat = np.array([np.roll(row, k) for k in range(n)])
        assert np.abs(mat - mat.T).max() < 1e-12
        closed = np.sort(np.real(circulant_eigenvalues(row)))
        numeric = np.linalg.eigvalsh(mat)
        assert np.abs(closed - numeric).max() < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            circulant_eigenvalues([])

    @pytest.mark.parametrize("dims,r", TORUS_CASES_2D3D)
    def test_multilevel_matches_torus_closed_form(self, dims, r):
        # row 0 of the built torus Laplacian, reshaped to the axis sizes
        spec = TorusSpec(dims, r)
        row = build_torus(spec).laplacian()[0].reshape(dims)
        vals = np.sort(np.real(circulant_eigenvalues(row)).ravel())
        closed = np.sort(torus_laplacian_eigenvalues(spec))
        assert np.abs(vals - closed).max() < 1e-12 * closed.max()


class TestCycleSpectrum:
    def test_c4(self):
        assert cycle_spectrum(4, 1) == pytest.approx(
            [0, 2, 2, 4], abs=1e-12)

    def test_k3(self):
        assert cycle_spectrum(3, 1) == pytest.approx(
            [0, 3, 3], abs=1e-12)

    def test_zero_mode_exact(self):
        assert cycle_laplacian_eigenvalues(17, 3)[0] == 0.0

    def test_n300_j1_term(self):
        vals = cycle_laplacian_eigenvalues(300, 1)
        assert vals[1] == pytest.approx(2 - 2 * np.cos(2 * np.pi / 300),
                                        abs=1e-12)

    def test_sine_ratio_matches_cosine_sum(self):
        # the sin^2 evaluation agrees with the cosine-sum form
        for n, r in [(30, 4), (64, 7), (301, 10)]:
            j = np.arange(1, n)
            x = np.pi * j / n
            cosine = 2 * r - 2 * sum(np.cos(2 * i * x) for i in range(1, r + 1))
            assert np.abs(cycle_laplacian_eigenvalues(n, r, j) - cosine
                          ).max() < 1e-10

    @pytest.mark.parametrize("n,r", [(8, 1), (12, 2), (31, 5), (64, 9)])
    def test_matches_numeric(self, n, r):
        closed = cycle_spectrum(n, r)
        numeric = numeric_spectrum(build_cycle(n, r))
        assert np.abs(closed - numeric).max() < 1e-9


class TestTorusSpectrum:
    def test_3x3_multiset(self):
        vals = torus_spectrum(TorusSpec([3, 3], 1))
        counts = Counter(np.round(vals, 9))
        assert counts == {0.0: 1, 3.0: 4, 6.0: 4}

    def test_4x4_min_nonzero(self):
        vals = torus_spectrum(TorusSpec([4, 4], 1))
        numeric = numeric_spectrum(build_torus(TorusSpec([4, 4], 1)))
        assert vals[1] == pytest.approx(2.0, abs=1e-12)
        assert np.abs(vals - numeric).max() < 1e-9

    def test_m1_reduces_to_cycle(self):
        t = torus_spectrum(TorusSpec([9], 2))
        c = cycle_spectrum(9, 2)
        assert np.array_equal(t, c)

    def test_exactly_one_zero(self):
        vals = torus_spectrum(TorusSpec([5, 7, 9], 1))
        assert vals[0] == 0.0
        assert vals[1] > 1e-3

    def test_sumset_rule(self):
        # torus multiset == sumset of the component cycle multisets
        spec = TorusSpec([4, 6], 1)
        a = cycle_laplacian_eigenvalues(4, 1)
        b = cycle_laplacian_eigenvalues(6, 1)
        sumset = np.sort((a[:, None] + b[None, :]).ravel())
        assert np.abs(torus_spectrum(spec) - sumset).max() < 1e-12


class TestSymmetricEigendecomposition:
    def test_analytic_2x2(self):
        vals = symmetric_eigendecomposition([[2.0, -1.0], [-1.0, 2.0]])
        assert vals == pytest.approx([1.0, 3.0], abs=1e-12)
        assert not vals.flags.writeable

    def test_k3_laplacian(self):
        vals = symmetric_eigendecomposition(build_cycle(3, 1).laplacian())
        assert vals == pytest.approx([0, 3, 3], abs=1e-12)

    def test_cross_check_c8_2(self):
        numeric = numeric_spectrum(build_cycle(8, 2))
        closed = cycle_spectrum(8, 2)
        assert np.abs(numeric - closed).max() < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_eigendecomposition([[0.0, 1.0], [0.0, 0.0]])

    def test_package_matrices_are_exactly_symmetric(self):
        # the solver reads one triangle, so every matrix the package hands
        # it must be symmetric bit for bit, not only within tolerance
        w = np.triu(np.random.default_rng(6).random((9, 9)), 1)
        w = w + w.T * (1 + 1e-14)  # asymmetric within Graph's tolerance
        wireless = generate_topology(WirelessConfig(n=30, eta=4), seed=1,
                                     resample_until_connected=100).graph
        for g in (Graph(w), build_cycle(10, 2),
                  build_torus(TorusSpec([4, 5], 1)), wireless):
            M = g.laplacian()
            assert np.array_equal(M, M.T)
            assert np.array_equal(symmetric_eigendecomposition(M),
                                  np.linalg.eigvalsh(M))


class TestNormalizedLaplacian:
    """D^{-1/2} L D^{-1/2} is formed only inside latency.hitting_times."""

    def test_zero_degree_node(self):
        # undefined for a zero degree; such a graph is disconnected and is
        # refused before the division
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(DisconnectedGraphError):
            hitting_times(Graph(w))


class TestPinvTrace:
    def test_k3_spectrum(self):
        assert pinv_trace(np.array([0.0, 3.0, 3.0])) == pytest.approx(2 / 3)

    def test_c4_spectrum(self):
        assert pinv_trace(np.array([0.0, 2.0, 2.0, 4.0])) == pytest.approx(5 / 4)

    def test_matches_explicit_pseudoinverse(self):
        g = build_torus(TorusSpec([4, 4], 1))
        explicit = float(np.trace(np.linalg.pinv(g.laplacian())))
        assert pinv_trace(numeric_spectrum(g)) == pytest.approx(explicit, abs=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            pinv_trace(np.array([0.0, 1e-15, 2.0]))

    def test_no_zero_mode_rejected(self):
        with pytest.raises(ValidationError):
            pinv_trace(np.array([1.0, 2.0]))


class TestLaplacianProperties:
    @pytest.mark.parametrize("n,r", [(7, 1), (16, 3), (40, 6)])
    def test_row_sums_zero_and_nonnegative_spectrum(self, n, r):
        g = build_cycle(n, r)
        L = g.laplacian()
        assert np.abs(L.sum(axis=1)).max() < 1e-12
        assert numeric_spectrum(g).min() > -1e-10

    def test_algebraic_connectivity_disconnected(self):
        # two components: lambda_1 is zero to roundoff in the numeric
        # spectrum, and Tr(L+) refuses it as a second zero mode
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        vals = numeric_spectrum(Graph(w))
        assert abs(vals[1]) <= 1e-12
        with pytest.raises(DisconnectedGraphError):
            pinv_trace(vals)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(min_value=1, max_value=12),
       x=st.floats(min_value=0.05, max_value=2 * np.pi - 0.05))
def test_dirichlet_kernel_identity(r, x):
    lhs = 1 + 2 * sum(np.cos(j * x) for j in range(1, r + 1))
    rhs = np.sin((r + 0.5) * x) / np.sin(x / 2)
    assert lhs == pytest.approx(rhs, abs=1e-12)
