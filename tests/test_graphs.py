import io
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oppwalk.errors import ParameterError, ValidationError
from oppwalk.latency import mean_latency_circulant
from oppwalk.spectral import cycle_laplacian_eigenvalues
from oppwalk.graphs import (
    Graph,
    TorusSpec,
    _sweep_dense,
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
        # the graph freezes its own copy, never the caller's array
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = Graph(w)
        w[0, 1] = w[1, 0] = 0.0
        assert g.weights[0, 1] == 1.0

    def test_rejects_nan_weights(self):
        with pytest.raises(ValidationError):
            Graph(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    @pytest.mark.parametrize("weight", [0.5, 2.0, 2.5, 1e-300])
    def test_rejects_weights_other_than_0_or_1(self, weight):
        with pytest.raises(ValidationError, match=f"{weight:g}"):
            Graph(np.array([[0.0, weight], [weight, 0.0]]))


class TestBoolWeights:
    """A bool matrix is 0/1 by its type: Graph checks it as it is."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=24),
           density=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bool_and_float_agree_bit_for_bit(self, n, density, seed):
        block = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
        mask = block | block.T
        a, b = Graph(mask), Graph(mask.astype(float))
        assert a.weights.dtype == b.weights.dtype == np.float64
        assert not a.weights.flags.writeable
        for x, y in ((a.weights, b.weights), (a.degrees, b.degrees),
                     (a.laplacian(), b.laplacian()), *zip(a.csr, b.csr)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
            assert np.array_equal(np.signbit(x), np.signbit(y))

    def test_bool_input_is_copied(self):
        mask = np.array([[False, True], [True, False]])
        g = Graph(mask)
        mask[0, 1] = mask[1, 0] = False
        assert g.weights[0, 1] == 1.0

    @pytest.mark.parametrize("w,message", [
        ([[False, True], [False, False]], "must be symmetric"),
        ([[True, False], [False, False]], "zero diagonal"),
        ([[False, True, False]], "square matrix"),
        ([[0.0, 0.5], [0.5, 0.0]], "finite 0/1, not 0.5"),
        ([[0.0, np.nan], [np.nan, 0.0]], "finite 0/1, not nan"),
        ([[0.0, np.inf], [np.inf, 0.0]], "finite 0/1, not inf"),
        ([[0.0, 1.0], [0.0, 0.0]], "must be symmetric"),
        ([[1.0, 0.0], [0.0, 0.0]], "zero diagonal"),
    ])
    def test_messages(self, w, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            Graph(np.array(w))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       density=st.floats(min_value=0.0, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_dense_sweep_matches_scipy(n, density, seed):
    block = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    w = (block | block.T).astype(float)
    expected = bool(connected_components(w, directed=False)[0] == 1)
    assert _sweep_dense(w) is expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_rejects_non_finite_weights(n, seed, bad, data):
    w = (np.random.default_rng(seed).random((n, n)) < 0.5).astype(float)
    w = np.triu(w, 1) + np.triu(w, 1).T
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    w[i, j] = w[j, i] = bad
    with pytest.raises(ValidationError, match="finite"):
        Graph(w)


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

    @pytest.mark.parametrize("make", [
        lambda: Graph(reference_cycle(7, 2).weights),
        lambda: build_torus(TorusSpec([3, 4], 1)),
        lambda: load_edge_list(io.StringIO("n 3\n0 2 1\n")),
    ], ids=["dense", "lattice", "edge-list"])
    def test_rows_compact_and_frozen(self, make):
        # np.nonzero's column array is a strided view of one (nnz, 2) array
        # that holds the row numbers too; the graph keeps a compact copy
        for a in make().csr:
            assert a.base is None or a.base.ndim == 1
            assert a.flags.c_contiguous and not a.flags.writeable


def csr_of(w):
    """CSR rows of a dense 0/1 matrix, row by row, without Graph."""
    rows = [np.flatnonzero(row) for row in w]
    return (np.cumsum([0] + [r.size for r in rows]),
            np.concatenate([np.zeros(0, dtype=int), *rows]))


class TestFromCsr:
    GOOD = (np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1]))  # K3

    def test_triangle(self):
        g = Graph.from_csr(*self.GOOD)
        assert g.n == 3
        assert np.array_equal(g.weights, 1.0 - np.eye(3))
        assert np.array_equal(g.degrees, [2.0, 2.0, 2.0])
        assert g.is_connected()

    @pytest.mark.parametrize("indptr,indices,message", [
        ([0], [], "indptr must start at 0"),
        ([1, 2, 4, 6], [1, 2, 0, 2, 0, 1], "indptr must start at 0"),
        ([0, 3, 2, 6], [1, 2, 0, 2, 0, 1], "never decrease"),
        ([0, 2, 4, 5], [1, 2, 0, 2, 0, 1], "end at the number of indices"),
        ([[0, 2], [4, 6]], [1, 2, 0, 2, 0, 1], "indptr must be a 1-D integer"),
        ([0, 2, 4, 6], [1.0, 2, 0, 2, 0, 1], "indices must be a 1-D integer"),
        ([0, 2, 4, 6], [1, 3, 0, 2, 0, 1], "index 3 out of range for n=3"),
        ([0, 2, 4, 6], [1, -1, 0, 2, 0, 1], "index -1 out of range"),
        ([0, 2, 4, 6], [2, 1, 0, 2, 0, 1], "sorted in ascending order"),
        ([0, 2, 4, 6], [1, 1, 0, 2, 0, 1], "lists a neighbor twice"),
        ([0, 2, 4, 6], [0, 1, 0, 2, 0, 1], "no self-loops"),
        ([0, 2, 3, 5], [1, 2, 0, 0, 1], "symmetric"),
        ([0, 1, 1], [1], "symmetric"),
    ], ids=["empty-indptr", "indptr-start", "indptr-decreasing", "indptr-end",
            "indptr-2d", "float-indices", "index-too-large",
            "index-negative", "unsorted-row", "duplicate", "self-loop",
            "asymmetric", "one-way-edge"])
    def test_rejects_malformed_rows(self, indptr, indices, message):
        with pytest.raises(ValidationError, match=message):
            Graph.from_csr(np.array(indptr), np.array(indices))

    def test_rows_are_copied(self):
        indptr, indices = (a.copy() for a in self.GOOD)
        g = Graph.from_csr(indptr, indices)
        indices[:] = 0
        assert indptr.flags.writeable and indices.flags.writeable
        assert np.array_equal(g.csr[1], self.GOOD[1])

    def test_dense_views_are_new_read_only_matrices(self):
        g = build_cycle(6, 1)
        w = g.weights
        assert w is not g.weights  # never cached beside the rows
        with pytest.raises(ValueError):
            w[0, 1] = 0.0
        lap = g.laplacian()
        lap += 1.0  # the caller's own matrix
        assert np.array_equal(g.laplacian(), np.diag(g.degrees) - w)

    def test_immutable(self):
        g = build_cycle(6, 1)
        with pytest.raises(AttributeError):
            g.csr = None
        with pytest.raises(AttributeError):
            Graph(np.zeros((2, 2))).weights = np.zeros((2, 2))

    def test_single_node(self):
        g = Graph.from_csr(np.zeros(2, dtype=int), np.zeros(0, dtype=int))
        assert g.n == 1 and g.is_connected()
        assert np.array_equal(g.weights, [[0.0]])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=24),
       density=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_csr_construction_matches_dense(n, density, seed):
    block = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    w = (block | block.T).astype(float)
    dense = Graph(w)
    sparse = Graph.from_csr(*dense.csr)
    assert np.array_equal(sparse.weights, dense.weights)
    assert np.array_equal(sparse.degrees, dense.degrees)
    assert np.array_equal(sparse.laplacian(), dense.laplacian())
    for a, b, ref in zip(sparse.csr, dense.csr, csr_of(w)):
        assert np.array_equal(a, b) and np.array_equal(b, ref)
    expected = connected_components(w, directed=False)[0] == 1
    assert sparse.is_connected() == dense.is_connected() == expected


@pytest.mark.parametrize("make", [
    lambda: build_cycle(7, 2),
    lambda: build_torus(TorusSpec([3, 4], 1)),
    lambda: Graph.from_csr(*TestFromCsr.GOOD),
    lambda: Graph(np.array([[0.0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1],
                            [0, 0, 1, 0]])),
    lambda: Graph(np.zeros((3, 3))),
], ids=["cycle", "torus", "from-csr", "dense-path", "dense-empty"])
def test_laplacian_is_diag_minus_weights_bit_for_bit(make):
    # built in one buffer, 0 - W with the degrees on the diagonal: the same
    # bits as diag(D) - W, +0.0 (never -0.0) off the diagonal included
    g = make()
    lap = g.laplacian()
    want = np.diag(g.degrees) - g.weights
    assert lap.flags.writeable and lap is not g.laplacian()
    assert np.array_equal(lap, want)
    assert np.array_equal(np.signbit(lap), np.signbit(want))
    assert not np.signbit(lap[lap == 0.0]).any()


def test_csr_laplacian_takes_one_matrix():
    # -1.0 at the CSR slots of one zeroed matrix, then the degrees: no
    # dense weights beside it (20.5 MB per matrix at 1600 nodes)
    g = build_torus(TorusSpec([40, 40], 1))
    tracemalloc.start()
    try:
        lap = g.laplacian()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * lap.nbytes


def test_lattice_build_allocates_no_dense_matrix():
    # the dense 4096-node cycle would take 134 MB; the rows take 98 kB
    tracemalloc.start()
    try:
        g = build_cycle(4096, 1)
        t = mean_latency_circulant(g, (4096,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert t == pytest.approx((4096 + 1) / 6, rel=1e-9)


class TestBuildCycle:
    def test_c4_adjacency(self):
        g = build_cycle(4, 1)
        assert g.n == 4
        assert set(np.flatnonzero(g.weights[0])) == {1, 3}
        assert np.all(g.degrees == 2)

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

    @pytest.mark.parametrize("dims,r", [
        ((3,), 1), ((11,), 5), ((64,), 3), ((4, 4), 1), ((3, 4, 5), 1),
        ((7, 9), 3), ((5, 6, 7, 8), 2)])
    def test_edges_counts_built_edges(self, dims, r):
        spec = TorusSpec(dims, r)
        assert spec.edges == build_torus(spec).csr[1].size // 2

    @pytest.mark.parametrize("make,bad", [
        (lambda: build_cycle(7.9, 2), "7.9"),
        (lambda: build_cycle(7, 2.0), "2.0"),
        (lambda: TorusSpec([5.5, 6], 1), "5.5"),
        (lambda: TorusSpec(np.array([5.0, 6.0]), 1), "5.0"),
        (lambda: cycle_laplacian_eigenvalues(8, 1.5), "1.5"),
        (lambda: mean_latency_circulant(build_cycle(10, 1), (10.5,)), "10.5"),
    ], ids=["cycle-n", "cycle-r", "torus-dims", "numpy-float-dims",
            "spectrum-r", "circulant-dims"])
    def test_non_integer_sizes_rejected(self, make, bad):
        # int() would truncate 7.9 to 7 and build the wrong lattice
        with pytest.raises(ParameterError, match=re.escape(bad)):
            make()
        # numpy integers are integers
        spec = TorusSpec(np.array([5, 6]), np.int64(2))
        assert spec.dims == (5, 6) and spec.r == 2

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
        g = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        buf = io.StringIO()
        save_edge_list(g, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n 2"
        assert lines[1].split() == ["0", "1", "1"]

    def test_rejects_missing_header(self):
        with pytest.raises(ValidationError):
            load_edge_list(io.StringIO("0 1 1.0\n"))

    @pytest.mark.parametrize("text,line", [
        ("n x\n", "line 1: 'n x'"),
        ("n 3\n0 x 1\n", "line 2: '0 x 1'"),
        ("n 3\n0 1 a\n", "line 2: '0 1 a'"),
        ("n 3\n\n0 1\n", "line 3: '0 1'"),
        ("n 2\n0 1 1\n0 1 1.0\n", "line 3: '0 1 1.0'"),
        ("n 3\n0 1 1\n1 2 1\n1 0 1\n", "line 4: '1 0 1'"),
        ("n 3\n0 1 1\n2 2 1\n", "self-loop on line 3: '2 2 1'"),
        ("n 3\n0 1 -1\n", "line 2: '0 1 -1'"),
        ("n 3\n0 1 nan\n", "line 2: '0 1 nan'"),
        ("n 3\n1 2 inf\n", "line 2: '1 2 inf'"),
        ("n 3\n0 1 1\n1 2 0\n", "weight must be 1 on line 3: '1 2 0'"),
        ("n 3\n0 1 2.5\n", "weight must be 1 on line 2: '0 1 2.5'"),
    ], ids=["bad-count", "bad-index", "bad-weight", "short-row",
            "duplicate", "duplicate-reversed", "self-loop",
            "negative-weight", "nan-weight", "inf-weight", "zero-weight",
            "fractional-weight"])
    def test_bad_line_names_the_line(self, text, line):
        with pytest.raises(ValidationError, match=line):
            load_edge_list(io.StringIO(text))

    def test_large_node_count_loads_in_linear_memory(self):
        # a dense matrix of this header would take 8 TB
        tracemalloc.start()
        try:
            g = load_edge_list(io.StringIO("n 1000000\n0 999999 1\n5 3 1\n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert g.n == 10**6
        indptr, indices = g.csr
        assert indices.tolist() == [999999, 5, 3, 0]
        assert indptr[[0, 1, 3, 4, 5, 6, -1]].tolist() == [0, 1, 1, 2, 2, 3, 4]
        assert not g.is_connected()

    def test_bad_line_found_before_the_matrix_is_allocated(self):
        # the header alone would size a 5000 x 5000 matrix (200 MB)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="line 2: '0 1 x'"):
                load_edge_list(io.StringIO("n 5000\n0 1 x\n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
