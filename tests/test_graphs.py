import io
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from oppwalk.errors import ParameterError, ValidationError
from oppwalk.latency import mean_latency_circulant
from oppwalk.spectral import cycle_laplacian_eigenvalues
from oppwalk.wireless import WirelessConfig, generate_topology
from oppwalk.graphs import (
    Graph,
    TorusSpec,
    build_cycle,
    build_torus,
    cartesian_product,
    save_edge_list,
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
    """Graph checks a 0/1 matrix of any dtype and keeps it as bool; every
    float64 view it builds is the same whatever the input's dtype."""

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

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8, float])
    def test_weights_is_a_new_float_matrix_per_call(self, dtype):
        w = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=dtype)
        g = Graph(w)
        a, b = g.weights, g.weights
        assert a is not b and not np.shares_memory(a, b)
        for x in (a, b):
            assert x.dtype == np.float64 and not x.flags.writeable
            assert np.array_equal(x, w)

    def test_negative_zero_comes_back_positive(self):
        # the store is bool, so an input -0.0 is read back as +0.0
        w = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert not np.signbit(Graph(w).weights).any()

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
        # outside arrays: the entry is named, not formatted as a number
        ([["0", "1"], ["1", "0"]], "finite 0/1, not '0'"),
        ([[0, None], [None, 0]], "finite 0/1, not None"),
        ([[0, 1], [1]], "square matrix"),
    ])
    def test_messages(self, w, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            Graph(w)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       density=st.floats(min_value=0.0, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_dense_sweep_matches_scipy(n, density, seed):
    block = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    w = (block | block.T).astype(float)
    expected = bool(connected_components(w, directed=False)[0] == 1)
    # the dense matrix-vector step, also on the dense view of a CSR twin
    assert Graph(w).is_connected() is expected
    assert Graph._from_csr(*Graph(w).csr).is_connected() is expected


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
        lambda: read_edge_list(io.StringIO("n 3\n0 2 1\n")),
    ], ids=["dense", "lattice", "edge-list"])
    def test_rows_compact_and_frozen(self, make):
        # no CSR array is a view of a wider index array, which would keep
        # more memory alive than the rows need
        for a in make().csr:
            assert a.base is None or a.base.ndim == 1
            assert a.flags.c_contiguous and not a.flags.writeable

    def test_dense_rows_from_one_flat_scan(self):
        # one flat scan of the store: the flat indices and the columns
        # made from them, two nnz-long index arrays at most
        g = fresh_wireless_graph()
        nnz = int(np.count_nonzero(g.weights))
        assert traced_peak(lambda: g.csr) <= 2.3 * 8 * nnz


def csr_of(w):
    """CSR rows of a dense 0/1 matrix, row by row, without Graph."""
    rows = [np.flatnonzero(row) for row in w]
    return (np.cumsum([0] + [r.size for r in rows]),
            np.concatenate([np.zeros(0, dtype=int), *rows]))


def assert_simple_csr(indptr, indices):
    """The CSR rows (indptr, indices) are those of a simple undirected
    graph: indptr starts at 0, never decreases and ends at the number of
    indices; every index is in range; every row is strictly increasing and
    free of self-loops; and v is in the row of u exactly when u is in the
    row of v.  Graph._from_csr trusts build_torus for all of this."""
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    for name, a in (("indptr", indptr), ("indices", indices)):
        assert a.ndim == 1 and (a.size == 0 or a.dtype.kind in "iu"), (
            f"CSR {name} must be a 1-D integer array")
    n = indptr.size - 1
    assert (n >= 1 and indptr[0] == 0 and indptr[-1] == indices.size
            and np.all(indptr[1:] >= indptr[:-1])), (
        "CSR indptr must start at 0, never decrease and end at the number "
        "of indices")
    bad = indices[(indices < 0) | (indices >= n)]
    assert not bad.size, f"CSR index {bad[0]} out of range for n={n}"
    rows = np.repeat(np.arange(n), np.diff(indptr))
    step = np.diff(indices)[rows[1:] == rows[:-1]]  # within one row
    assert np.all(step > 0), "CSR rows must be strictly increasing"
    assert not np.any(indices == rows), "CSR rows must have no self-loops"
    # (row, col) slots are in ascending row * n + col order; the graph is
    # symmetric exactly when the transposed slots sort to the same keys
    assert np.array_equal(np.sort(indices * n + rows), rows * n + indices), (
        "CSR rows must be symmetric")


def assert_valid_lattice(g):
    """g's rows pass assert_simple_csr, and scipy finds the one component
    that build_torus stores as g.is_connected() without a sweep."""
    indptr, indices = g.csr
    assert_simple_csr(indptr, indices)
    ones = np.ones(indices.size)
    assert connected_components(csr_matrix((ones, indices, indptr)),
                                directed=False)[0] == 1
    assert g.is_connected() is True


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(min_value=3, max_value=12),
                     min_size=1, max_size=3),
       data=st.data())
def test_built_lattices_are_simple_and_connected(dims, data):
    r = data.draw(st.integers(min_value=1, max_value=(min(dims) - 1) // 2))
    assert_valid_lattice(build_torus(TorusSpec(dims, r)))


class TestFromCsr:
    """Graph._from_csr, and the row checks it leaves to its caller."""

    GOOD = (np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1]))  # K3

    def test_triangle(self):
        assert_simple_csr(*self.GOOD)
        g = Graph._from_csr(*self.GOOD)
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
        ([0, 2, 4, 6], [2, 1, 0, 2, 0, 1], "strictly increasing"),
        ([0, 2, 4, 6], [1, 1, 0, 2, 0, 1], "strictly increasing"),
        ([0, 2, 4, 6], [0, 1, 0, 2, 0, 1], "no self-loops"),
        ([0, 2, 3, 5], [1, 2, 0, 0, 1], "symmetric"),
        ([0, 1, 1], [1], "symmetric"),
    ], ids=["empty-indptr", "indptr-start", "indptr-decreasing", "indptr-end",
            "indptr-2d", "float-indices", "index-too-large",
            "index-negative", "unsorted-row", "duplicate", "self-loop",
            "asymmetric", "one-way-edge"])
    def test_rejects_malformed_rows(self, indptr, indices, message):
        # the checks that guard every lattice's rows catch each fault
        with pytest.raises(AssertionError, match=message):
            assert_simple_csr(np.array(indptr), np.array(indices))

    def test_rows_are_taken_over_and_frozen(self):
        # the graph keeps the very arrays it is handed, made read-only,
        # with no copy beside them
        indptr, indices = (a.copy() for a in self.GOOD)
        g = Graph._from_csr(indptr, indices)
        assert g.csr[0] is indptr and g.csr[1] is indices
        assert not (indptr.flags.writeable or indices.flags.writeable)
        with pytest.raises(ValueError):
            indices[0] = 0

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
        g = Graph._from_csr(np.zeros(2, dtype=int), np.zeros(0, dtype=int))
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
    sparse = Graph._from_csr(*dense.csr)
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
    lambda: Graph._from_csr(*TestFromCsr.GOOD),
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


def test_torus_build_makes_its_rows_once():
    # 512 x 512, r = 2: the rows (indptr and indices) take 18.9 MB.  Built
    # as a list of columns, stacked, sorted into a copy and copied into the
    # graph, they peaked at 3.2 times that; written into one buffer that is
    # sorted in place and taken over by the graph, at 1.4 times.
    tracemalloc.start()
    try:
        g = build_torus(TorusSpec((512, 512), 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = sum(a.nbytes for a in g.csr)
    assert peak < 2 * rows


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

    def test_node_count_within_int64(self):
        # numpy counts and indexes nodes in int64: 2**63 - 1 nodes (7 * 7 *
        # 73 * 127 * 337 * 92737 * 649657) is a spec, 2**63 nodes is not
        top = TorusSpec([7, 7, 73, 127, 337, 92737, 649657], 1)
        assert top.n == np.iinfo(np.int64).max
        for dims, n in (([8] * 21, 2 ** 63), ([4 * 10**9] * 2, 16 * 10**18)):
            with pytest.raises(ParameterError,
                               match=f"n={n} is beyond int64"):
                TorusSpec(dims, 1)

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
        indptr, indices = build_torus(spec).csr
        rows = indices.reshape(spec.n, 2 * spec.m * spec.r)
        assert np.array_equal(indptr, np.arange(0, indices.size + 1, 6))
        for idx, row in enumerate(rows):
            assert np.array_equal(row, coordinate_neighbors(spec, idx))

    def test_large_4d_torus_degrees(self):
        # 126720-node case: every degree, and a spot-check of rows
        spec = TorusSpec([16, 18, 20, 22], 4)
        assert spec.n == 126720
        indptr, indices = build_torus(spec).csr
        assert np.all(np.diff(indptr) == 2 * 4 * 4)
        rng = np.random.default_rng(3)
        for idx in rng.integers(0, spec.n, size=25):
            assert np.array_equal(indices[indptr[idx]:indptr[idx + 1]],
                                  coordinate_neighbors(spec, idx))


def coordinate_neighbors(spec, idx):
    """The sorted nodes at circular distance 1..r from node idx along one
    axis, from its coordinate tuple, one neighbor at a time."""
    coords = np.unravel_index(idx, spec.dims)
    out = []
    for axis, k in enumerate(spec.dims):
        for shift in range(-spec.r, spec.r + 1):
            if shift:
                c = list(coords)
                c[axis] = (c[axis] + shift) % k
                out.append(np.ravel_multi_index(c, spec.dims))
    return np.sort(out)


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


def per_shift_rows(spec):
    """The torus rows as build_torus once made them, one shift column at a
    time: node index + ((c + shift) % k - c) * stride along each axis, from
    the coordinates c of every node, then each row sorted."""
    width = 2 * spec.m * spec.r
    rows = np.empty((spec.n, width), dtype=np.intp)
    index = np.arange(spec.n)
    coords = np.unravel_index(index, spec.dims)
    stride = spec.n
    column = iter(rows.T)
    for c, k in zip(coords, spec.dims):
        stride //= k
        for step in range(1, spec.r + 1):
            for shift in (step, -step):
                np.add(index, ((c + shift) % k - c) * stride, out=next(column))
    rows.sort(axis=-1)
    return rows


@pytest.mark.parametrize("dims", [
    (3,), (4,), (9,), (40,), (5, 7), (8, 5), (9, 13), (3, 4, 5),
    (7, 5, 9), (9, 11, 7), (5, 3, 4, 6), (5, 9, 7, 5), (7, 8, 9, 7),
])
def test_torus_rows_match_the_per_shift_build(dims):
    # every radius up to (min k - 1) // 2, where an odd smallest axis has
    # k = 2r + 1; (7, 5, 9) has it in the middle at r = 2
    for r in range(1, (min(dims) - 1) // 2 + 1):
        spec = TorusSpec(dims, r)
        indptr, indices = build_torus(spec).csr
        width = 2 * spec.m * r
        assert np.array_equal(indptr, np.arange(0, spec.n * width + 1, width))
        assert np.array_equal(indices.reshape(spec.n, width),
                              per_shift_rows(spec))


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

    def test_dense_sweep_reads_the_bool_store(self):
        # the reached set gathers bool rows of the store: no float copy
        # of the matrix (8 n^2 bytes), at most one n^2 bool gather
        g = fresh_wireless_graph()
        assert traced_peak(g.is_connected) <= 2 * g.n ** 2
        assert g.is_connected() is True


def fresh_wireless_graph(n=400):
    """A dense graph of a connected wireless topology, built anew so that
    neither its CSR rows nor its connectivity are stored yet."""
    return Graph(generate_topology(WirelessConfig(n=n), 1).graph.weights > 0)


def traced_peak(call):
    """tracemalloc peak in bytes of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_edge_list(buf):
    """The graph in save_edge_list's format, a `n <count>` header then one
    `i j 1` line per edge, rebuilt from a dense matrix."""
    header, *lines = buf.read().splitlines()
    tag, n = header.split()
    assert tag == "n"
    w = np.zeros((int(n), int(n)))
    for line in lines:
        i, j, weight = line.split()
        assert weight == "1"
        w[int(i), int(j)] = w[int(j), int(i)] = 1.0
    return Graph(w)


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = build_cycle(7, 2)
        for as_path in (str, pathlib.Path):
            path = as_path(tmp_path / f"g-{as_path.__name__}.edges")
            save_edge_list(g, path)
            with open(path) as f:
                loaded = read_edge_list(f)
            assert np.array_equal(loaded.weights, g.weights)
            assert all(map(np.array_equal, loaded.csr, g.csr))

    def test_header_and_rows(self, tmp_path):
        g = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n 2"
        assert lines[1].split() == ["0", "1", "1"]
