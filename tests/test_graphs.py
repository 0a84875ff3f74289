import io
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oppwalk.errors import ParameterError, ValidationError
from oppwalk.graphs import (
    Graph,
    TorusSpec,
    build_cycle,
    build_torus,
    cartesian_product,
    load_edge_list,
    save_edge_list,
    torus_neighbors,
)


def edge_count(g):
    """Undirected edges: nonzero weight pairs."""
    return int(np.count_nonzero(g.weights)) // 2


class TestGraphInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            Graph(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_weights_immutable(self):
        g = build_cycle(4, 1)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_rejects_nan_weights(self):
        with pytest.raises(ValidationError):
            Graph(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_weighted_graph_not_binary(self):
        g = Graph(np.array([[0.0, 2.5], [2.5, 0.0]]))
        assert not g.is_binary
        assert g.degrees.tolist() == [2.5, 2.5]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_rejects_non_finite_weights(n, seed, bad, data):
    w = np.random.default_rng(seed).random((n, n))
    w = np.triu(w, 1) + np.triu(w, 1).T
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    w[i, j] = w[j, i] = bad
    with pytest.raises(ValidationError, match="finite"):
        Graph(w)


def complete_weights(n, weight):
    return weight * (np.ones((n, n)) - np.eye(n))


FLOAT_MAX = np.finfo(float).max


@pytest.mark.parametrize("n,weight", [
    (2, 1e308),  # w + w.T overflows
    (4, 0.8e308),  # pair sums stay finite; degrees 2.4e308 overflow
    (4, np.nextafter(FLOAT_MAX / 4, np.inf)),  # just above the bound
])
def test_rejects_finite_weights_whose_sums_overflow(n, weight):
    # finite input that would store inf weights or degrees; warnings are
    # errors in this suite, so an overflow warning fails the test too
    with pytest.raises(ValidationError, match="overflow"):
        Graph(complete_weights(n, weight))


@pytest.mark.parametrize("n", [2, 3, 64])
def test_accepts_largest_weights_with_finite_degrees(n):
    g = Graph(complete_weights(n, FLOAT_MAX / n))
    assert np.isfinite(g.weights).all()
    assert np.isfinite(g.degrees).all()
    assert np.isfinite(g.laplacian()).all()


class TestCsr:
    def test_rows_match_dense_neighbors(self):
        g = build_torus(TorusSpec([3, 4], 1))
        indptr, indices = g.csr
        for u, row in enumerate(g.weights):
            assert (indices[indptr[u]:indptr[u + 1]].tolist()
                    == np.flatnonzero(row).tolist())

    def test_cached(self):
        g = build_cycle(6, 1)
        assert g.csr is g.csr


class TestBuildCycle:
    def test_c4_adjacency(self):
        g = build_cycle(4, 1)
        assert g.n == 4
        assert set(np.flatnonzero(g.weights[0])) == {1, 3}
        assert np.all(g.degrees == 2)
        assert g.is_binary

    def test_triangle_boundary(self):
        # 2r+1 == n: complete graph K_3
        g = build_cycle(3, 1)
        off = g.weights[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_edge_count_large(self):
        g = build_cycle(300, 5)
        assert edge_count(g) == 300 * 5
        assert np.all(g.degrees == 10)

    def test_circulant_rows(self):
        g = build_cycle(11, 3)
        for i in range(10):
            assert np.array_equal(np.roll(g.weights[i], 1), g.weights[i + 1])

    @pytest.mark.parametrize("n,r", [(2, 1), (4, 0), (4, 2), (7, 3.0 + 1)])
    def test_rejects_bad_parameters(self, n, r):
        with pytest.raises(ParameterError):
            build_cycle(n, int(r))


class TestCartesianProduct:
    def test_k3_square(self):
        g = cartesian_product(build_cycle(3, 1), build_cycle(3, 1))
        assert g.n == 9
        assert np.all(g.degrees == 4)

    def test_c4_square_is_torus(self):
        g = cartesian_product(build_cycle(4, 1), build_cycle(4, 1))
        assert g.n == 16
        assert np.all(g.degrees == 4)
        assert np.array_equal(g.weights,
                              build_torus(TorusSpec([4, 4], 1)).weights)

    def test_edge_count_rule_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n1, n2 = rng.integers(2, 7, size=2)
            w1 = (rng.random((n1, n1)) < 0.5).astype(float)
            w1 = np.triu(w1, 1)
            w1 = w1 + w1.T
            w2 = (rng.random((n2, n2)) < 0.5).astype(float)
            w2 = np.triu(w2, 1)
            w2 = w2 + w2.T
            g1, g2 = Graph(w1), Graph(w2)
            prod = cartesian_product(g1, g2)
            assert edge_count(prod) == (g1.n * edge_count(g2)
                                        + g2.n * edge_count(g1))

    def test_row_major_indexing(self):
        # node (i1, i2) -> i1 * n2 + i2
        g1 = build_cycle(3, 1)
        g2 = build_cycle(5, 1)
        prod = cartesian_product(g1, g2)
        # (0,0) ~ (0,1): same g1 coordinate, adjacent in g2
        assert prod.weights[0, 1] == 1.0
        # (0,0) ~ (1,0): adjacent in g1, same g2 coordinate
        assert prod.weights[0, 5] == 1.0
        # (0,0) !~ (1,1): differs in both coordinates
        assert prod.weights[0, 6] == 0.0


class TestTorus:
    def test_m1_degenerates_to_cycle(self):
        g = build_torus(TorusSpec([4], 1))
        assert np.array_equal(g.weights, build_cycle(4, 1).weights)

    def test_2d_regularity(self):
        g = build_torus(TorusSpec([4, 4], 1))
        assert g.n == 16
        assert np.all(g.degrees == 4)

    def test_axis_transposition_isomorphism(self):
        a = build_torus(TorusSpec([3, 5], 1))
        b = build_torus(TorusSpec([5, 3], 1))
        # relabel b's nodes by transposing coordinates
        i, j = np.unravel_index(np.arange(15), (3, 5))
        perm = j * 3 + i
        assert np.array_equal(a.weights, b.weights[np.ix_(perm, perm)])

    def test_spec_invariants(self):
        with pytest.raises(ParameterError):
            TorusSpec([], 1)
        with pytest.raises(ParameterError):
            TorusSpec([2, 4], 1)
        with pytest.raises(ParameterError):
            TorusSpec([4, 4], 2)  # 2r+1 > min k

    def test_neighbor_enumeration_matches_dense(self):
        spec = TorusSpec([4, 5, 6], 1)
        g = build_torus(spec)
        for idx in [0, 7, 59, 100]:
            assert np.array_equal(torus_neighbors(spec, idx),
                                  np.flatnonzero(g.weights[idx]))
        rows = torus_neighbors(spec, np.arange(spec.n))
        assert rows.shape == (spec.n, 2 * spec.m * spec.r)
        for idx, row in enumerate(rows):
            assert np.array_equal(row, np.flatnonzero(g.weights[idx]))
        assert np.array_equal(torus_neighbors(spec, [100, 7]),
                              rows[[100, 7]])

    @pytest.mark.parametrize("index", [-1, 120, [0, 120]])
    def test_neighbor_index_out_of_range(self, index):
        with pytest.raises(ParameterError, match="out of range"):
            torus_neighbors(TorusSpec([4, 5, 6], 1), index)

    def test_large_4d_torus_degrees(self):
        # 126720-node case: spot-check degrees via neighbor enumeration
        spec = TorusSpec([16, 18, 20, 22], 4)
        assert spec.n == 126720
        rng = np.random.default_rng(3)
        for idx in rng.integers(0, spec.n, size=25):
            assert torus_neighbors(spec, int(idx)).size == 2 * 4 * 4


def reference_cycle(k, r):
    """Dense circular-distance adjacency of the r-nearest-neighbor cycle."""
    idx = np.arange(k)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, k - dist)
    return Graph(((dist >= 1) & (dist <= r)).astype(float))


@pytest.mark.parametrize("dims", [
    (3,), (4,), (5,), (7,), (9,), (3, 4), (5, 5), (6, 7), (7, 5),
    (3, 4, 5), (5, 5, 5), (7, 3, 7),
])
def test_builders_match_product_of_reference_cycles(dims):
    # every radius up to the boundary case 2r+1 == min(dims)
    for r in range(1, (min(dims) - 1) // 2 + 1):
        ref = reference_cycle(dims[0], r)
        for k in dims[1:]:
            ref = cartesian_product(ref, reference_cycle(k, r))
        assert np.array_equal(build_torus(TorusSpec(dims, r)).weights,
                              ref.weights)
        if len(dims) == 1:
            assert np.array_equal(build_cycle(dims[0], r).weights,
                                  ref.weights)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=9),
                      min_size=1, max_size=3),
       isolated=st.integers(min_value=0, max_value=3),
       density=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_is_connected_matches_scipy(sizes, isolated, density, seed):
    # disjoint union of random blocks plus isolated nodes, relabeled
    rng = np.random.default_rng(seed)
    n = sum(sizes) + isolated
    w = np.zeros((n, n))
    start = 0
    for k in sizes:
        block = np.triu(rng.random((k, k)) < density, 1)
        w[start:start + k, start:start + k] = block + block.T
        start += k
    perm = rng.permutation(n)
    w = w[np.ix_(perm, perm)]
    assert 1 <= n <= 30
    expected = connected_components(w, directed=False)[0] == 1
    g = Graph(w)
    assert g.is_connected() == expected
    assert g.is_connected() == expected  # the stored answer


class TestConnectivity:
    def test_connected_cycle(self):
        assert build_cycle(9, 2).is_connected()

    def test_disconnected_union(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert not Graph(w).is_connected()

    def test_single_node(self):
        assert Graph(np.zeros((1, 1))).is_connected()


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = build_cycle(7, 2)
        for as_path in (str, pathlib.Path):
            path = as_path(tmp_path / f"g-{as_path.__name__}.edges")
            save_edge_list(g, path)
            loaded = load_edge_list(path)
            assert np.array_equal(loaded.weights, g.weights)

    def test_header_and_rows(self):
        g = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        buf = io.StringIO()
        save_edge_list(g, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n 2"
        assert lines[1].split() == ["0", "1", "0.5"]

    def test_rejects_missing_header(self):
        with pytest.raises(ValidationError):
            load_edge_list(io.StringIO("0 1 1.0\n"))

    @pytest.mark.parametrize("text,line", [
        ("n x\n", "line 1: 'n x'"),
        ("n 3\n0 x 1\n", "line 2: '0 x 1'"),
        ("n 3\n0 1 a\n", "line 2: '0 1 a'"),
        ("n 3\n\n0 1\n", "line 3: '0 1'"),
        ("n 2\n0 1 1\n0 1 2\n", "line 3: '0 1 2'"),
        ("n 3\n0 1 1\n1 2 1\n1 0 1\n", "line 4: '1 0 1'"),
        ("n 3\n0 1 1\n2 2 1\n", "self-loop on line 3: '2 2 1'"),
        ("n 3\n0 1 -1\n", "line 2: '0 1 -1'"),
        ("n 3\n0 1 nan\n", "line 2: '0 1 nan'"),
        ("n 3\n1 2 inf\n", "line 2: '1 2 inf'"),
    ], ids=["bad-count", "bad-index", "bad-weight", "short-row",
            "duplicate", "duplicate-reversed", "self-loop",
            "negative-weight", "nan-weight", "inf-weight"])
    def test_bad_line_names_the_line(self, text, line):
        with pytest.raises(ValidationError, match=line):
            load_edge_list(io.StringIO(text))
