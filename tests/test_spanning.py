"""Layered spanning graph construction."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spanning_reference import _pair_rank as reference_pair_rank
from spanning_reference import reference_kmst, reference_mst

from ecdkit import (
    DisconnectedError,
    DistanceMatrix,
    FeatureSet,
    InvalidK,
    degree_statistic,
    kmst,
    mst,
    pairwise_distances,
)
from ecdkit import spanning
from ecdkit.metricspace import _BandedDistances, _pooled_distances
from ecdkit.spanning import _integer_order, _no_exclusions, _pair_rank, _prim, _with_excluded


def dmat(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    raw = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    upper = np.triu(raw, 1)
    return DistanceMatrix(upper + upper.T)


def excluded_mst(d, excluded):
    """The MST of `d` minus the `excluded` pairs, either orientation, by
    `_prim` on an exclusion index that `_with_excluded` builds, as the
    k-MST's later layers are."""
    lo, hi = np.array(excluded, dtype=np.int64).reshape(-1, 2).T
    lo, hi, weight = _prim(d, *_with_excluded(*_no_exclusions(d.n_points), lo, hi))
    return list(zip(lo.tolist(), hi.tolist(), weight.tolist()))


def pairs(triples):
    return {(i, j) for i, j, _ in triples}


def edge_set(g, layer=None):
    if layer is None:
        return {(i, j) for i, j, _, _ in g.edges}
    return {(i, j) for i, j, _, lay in g.edges if lay == layer}


class TestSingleTree:
    def test_line_graph_path(self):
        tree = mst(dmat([0.0, 1.0, 2.0, 3.0]))
        assert pairs(tree) == {(0, 1), (1, 2), (2, 3)}
        assert sum(w for _, _, w in tree) == pytest.approx(3.0)

    def test_weights_match_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((9, 2))
        d = dmat(pts)
        for i, j, w in mst(d):
            assert w == d.values[i, j]
            assert i < j

    def test_exclusion_forces_detour(self):
        tree = excluded_mst(dmat([0.0, 1.0, 2.0, 3.0]), ((0, 1),))
        assert pairs(tree) == {(0, 2), (1, 2), (2, 3)}
        assert sum(w for _, _, w in tree) == pytest.approx(4.0)

    def test_exclusion_can_disconnect(self):
        # removing both edges at node 0 in a 3-node graph strands it
        with pytest.raises(DisconnectedError):
            excluded_mst(dmat([0.0, 1.0, 2.0]), ((0, 1), (0, 2)))


def spanning_trees_brute(n):
    """All spanning trees of K_n as edge sets, via Pruefer sequences."""
    nodes = range(n)
    for seq in itertools.product(nodes, repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        deg = degree[:]
        for v in seq:
            leaf = min(u for u in nodes if deg[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            deg[leaf] -= 1
            deg[v] -= 1
        last = [u for u in nodes if deg[u] == 1]
        edges.append((min(last), max(last)))
        yield frozenset(edges)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("trial", range(4))
    def test_minimum_weight(self, n, trial):
        rng = np.random.default_rng(100 * n + trial)
        pts = rng.standard_normal((n, 3))
        d = dmat(pts)
        got = sum(w for _, _, w in mst(d))
        best = min(
            sum(d.values[i, j] for i, j in tree) for tree in spanning_trees_brute(n)
        )
        assert got == pytest.approx(best, rel=1e-12)

    def test_minimum_weight_n7_once(self):
        rng = np.random.default_rng(700)
        pts = rng.standard_normal((7, 2))
        d = dmat(pts)
        got = sum(w for _, _, w in mst(d))
        best = min(
            sum(d.values[i, j] for i, j in tree) for tree in spanning_trees_brute(7)
        )
        assert got == pytest.approx(best, rel=1e-12)


class TestLayers:
    def test_line_graph_two_layers(self):
        g = kmst(dmat([0.0, 1.0, 2.0, 3.0]), k=2)
        assert edge_set(g, layer=1) == {(0, 1), (1, 2), (2, 3)}
        assert edge_set(g, layer=2) == {(0, 2), (0, 3), (1, 3)}
        assert g.n_edges == 6

    def test_line_graph_three_layers_impossible(self):
        # K4 has 6 edges; two trees exhaust them all
        with pytest.raises(DisconnectedError) as exc:
            kmst(dmat([0.0, 1.0, 2.0, 3.0]), k=3)
        assert exc.value.layer == 3

    def test_layers_are_edge_disjoint(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((12, 4))
        g = kmst(dmat(pts), k=3)
        seen = set()
        for i, j, _, _ in g.edges:
            assert (i, j) not in seen
            seen.add((i, j))
        assert g.n_edges == 3 * 11

    def test_layer_weights_monotone(self):
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((15, 3))
        g = kmst(dmat(pts), k=4)
        totals = [
            sum(w for _, _, w, lay in g.edges if lay == layer)
            for layer in range(1, 5)
        ]
        for lighter, heavier in zip(totals, totals[1:]):
            assert lighter <= heavier + 1e-12

    def test_degrees_consistent(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((10, 2))
        g = kmst(dmat(pts), k=2)
        counts = np.zeros(10, dtype=int)
        for i, j, _, _ in g.edges:
            counts[i] += 1
            counts[j] += 1
        assert np.array_equal(counts, g.degrees)
        assert (g.degrees >= 2).all()
        assert g.degrees.sum() == 2 * g.n_edges


class TestDeterminism:
    def test_equal_weights_reproducible(self):
        # every off-diagonal distance ties; the hash order must still give
        # one fixed answer
        n = 6
        vals = np.ones((n, n)) - np.eye(n)
        d = DistanceMatrix(vals)
        first = kmst(d, k=2)
        second = kmst(d, k=2)
        assert first.edges == second.edges
        assert first.n_edges == 2 * (n - 1)

    def test_rerun_identical_on_random_input(self):
        rng = np.random.default_rng(31)
        pts = rng.integers(0, 2, size=(20, 6)).astype(float)
        d = dmat(pts)
        assert kmst(d, k=3).edges == kmst(d, k=3).edges

    def test_monotone_transform_preserves_shape(self):
        # squaring distances reorders nothing, so the edge sets per layer
        # must agree even though the weights differ
        rng = np.random.default_rng(37)
        pts = rng.standard_normal((11, 3))
        d = dmat(pts)
        d2 = DistanceMatrix(d.values**2)
        g = kmst(d, k=2)
        h = kmst(d2, k=2)
        assert [(i, j, lay) for i, j, _, lay in g.edges] == [
            (i, j, lay) for i, j, _, lay in h.edges
        ]


class TestDegreeStatistic:
    def test_path(self):
        g = kmst(dmat([0.0, 1.0, 2.0]), k=1)
        # degrees 1,2,1 -> half sum of squares is 3, minus 2 edges
        assert degree_statistic(g) == 1.0

    def test_four_point_path(self):
        g = kmst(dmat([0.0, 1.0, 2.0, 3.0]), k=1)
        assert degree_statistic(g) == 2.0

    def test_k4(self):
        g = kmst(dmat([0.0, 1.0, 2.0, 3.0]), k=2)
        # all six edges present: degrees are 3,3,3,3
        assert degree_statistic(g) == 12.0

    def test_single_edge(self):
        g = kmst(dmat([0.0, 1.0]), k=1)
        assert degree_statistic(g) == 0.0


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_invalid_k(self, bad):
        d = dmat([0.0, 1.0, 2.0])
        with pytest.raises(InvalidK):
            kmst(d, k=bad)

    def test_bool_k_rejected(self):
        with pytest.raises(InvalidK):
            kmst(dmat([0.0, 1.0, 2.0]), k=True)


# --- equality gate against the frozen dense-copy construction ---------------

# quantised: features on a 0.1 grid, whose equal exact distances may differ
# in the last bit of their float entries; such a matrix is never keyed
KINDS = ("gaussian", "binary", "ternary", "duplicate", "mixed", "quantised")
# integer features beside binary and ternary: sparse occupancy, and counts
# whose squared distances may pass 2^16, beyond which no key is built
INTEGER_KINDS = ("occupancy", "counts")


def pooled_matrix(kind, n, dim, seed, duplicates=False, signed_zeros=False):
    """Pooled matrix of n points of `kind`. With `duplicates` the points are
    drawn with replacement from a third of them; with `signed_zeros` about
    half of the zero entries become -0.0, which DistanceMatrix accepts."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        pts = rng.standard_normal((n, dim))
    elif kind == "binary":
        pts = rng.choice([-1.0, 1.0], size=(n, dim))
    elif kind == "ternary":
        pts = rng.integers(0, 3, size=(n, dim)).astype(float)
    elif kind == "mixed":
        pts = np.concatenate((rng.standard_normal((n // 2, dim)),
                              rng.choice([-1.0, 1.0], size=(n - n // 2, dim))))
    elif kind == "quantised":
        pts = rng.integers(-20, 21, size=(n, dim)) / 10.0
    elif kind == "occupancy":
        pts = (rng.random((n, dim)) < 0.1).astype(float)
    elif kind == "counts":
        pts = rng.integers(0, 150, size=(n, dim)).astype(float)
    else:
        pts = np.zeros((n, dim))
    if duplicates:
        pts = pts[rng.integers(0, max(1, n // 3), n)]
    half = n // 2
    d = pairwise_distances(FeatureSet(pts[:half]), FeatureSet(pts[half:]))
    if not signed_zeros:
        return d
    values = d.values.copy()
    values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
    return DistanceMatrix(values)


def outcome(build, *args):
    """The graph `build` returns, or the layer and message of its DisconnectedError."""
    try:
        return build(*args)
    except DisconnectedError as exc:
        return exc.layer, str(exc)


def assert_same_graph(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.edges == want.edges
    assert [np.float64(e[2]).tobytes() for e in got.edges] == [
        np.float64(e[2]).tobytes() for e in want.edges
    ]
    assert got.degrees.dtype == want.degrees.dtype
    assert np.array_equal(got.degrees, want.degrees)
    assert (got.n_nodes, got.k) == (want.n_nodes, want.k)


def constructed(case):
    """A matrix and k that steer the Prim loop through one named path.

    undercut: node 1 is picked first from node 0; the runner-up is node 2
    at 5.5, but node 3's key drops to 4 in the same step, so node 3 comes
    next. three_way_tie: nodes 1, 2 and 3 tie at the minimum from node 0,
    so after the rank tie-break the next pick is one of the other two.
    hub: node 5 is nearest to every node, so layer 1 is a star on it and
    in layer 2 it is the last frontier node, with every edge excluded.
    """
    if case == "undercut":
        return dmat([0.0, 5.0, -5.5, 9.0]), 1
    if case == "three_way_tie":
        values = np.full((6, 6), 2.0)
        values[0, 1:4] = values[1:4, 0] = 1.0
        values[0, 4:] = values[4:, 0] = 3.0
        values[1:4, 4] = values[4, 1:4] = 1.5, 2.5, 1.5
    else:
        values = 10.0 + np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
        values[5, :] = values[:, 5] = 1.0 + 0.1 * np.arange(6)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values), 2


class TestMatchesReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, dim, k", [(40, 3, 5), (61, 8, 10), (12, 2, 6), (9, 1, 5)])
    def test_kmst(self, kind, n, dim, k):
        d = pooled_matrix(kind, n, dim, seed=n * dim + k)
        assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))

    @pytest.mark.parametrize("kind", KINDS)
    def test_infeasible_k_fails_on_the_same_layer(self, kind):
        d = pooled_matrix(kind, 10, 2, seed=5)
        got = outcome(kmst, d, 6)  # 6 trees need 54 of K10's 45 edges
        assert isinstance(got, tuple)
        assert got == outcome(reference_kmst, d, 6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mst_with_exclusions(self, kind):
        d = pooled_matrix(kind, 30, 4, seed=9)
        rng = np.random.default_rng(17)
        excluded = [tuple(int(v) for v in rng.integers(0, 30, 2)) for _ in range(60)]
        assert excluded_mst(d, excluded) == reference_mst(d, excluded)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mst_disconnected_by_exclusions(self, kind):
        d = pooled_matrix(kind, 8, 2, seed=3)
        excluded = [(3, j) for j in range(8)]
        assert outcome(excluded_mst, d, excluded) == outcome(reference_mst, d, excluded)

    def test_signed_zeros(self):
        d = pooled_matrix("ternary", 40, 2, seed=8, duplicates=True, signed_zeros=True)
        off_diagonal = ~np.eye(40, dtype=bool)
        assert np.signbit(d.values[off_diagonal & (d.values == 0.0)]).any()
        for k in (5, 21):
            assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))

    @pytest.mark.parametrize("kind", ["gaussian", "mixed"])
    def test_duplicate_points(self, kind):
        d = pooled_matrix(kind, 45, 3, seed=12, duplicates=True)
        assert (d.values == 0.0).sum() > 3 * 45
        for k in (4, 23):
            assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))

    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_all_equal_matrix(self, n):
        values = np.full((n, n), 2.5)
        np.fill_diagonal(values, 0.0)
        d = DistanceMatrix(values)
        for k in range(1, n // 2 + 2):
            assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))

    @pytest.mark.parametrize("kind", KINDS)
    def test_fortran_ordered_values(self, kind):
        c = pooled_matrix(kind, 36, 3, seed=6)
        d = DistanceMatrix(np.asfortranarray(c.values))
        assert d.values.flags.f_contiguous and not d.values.flags.c_contiguous
        assert_same_graph(outcome(kmst, d, 7), outcome(reference_kmst, d, 7))
        assert_same_graph(kmst(d, 7), kmst(c, 7))
        excluded = [(i, (5 * i + 1) % 36) for i in range(36)]
        assert excluded_mst(d, excluded) == reference_mst(d, excluded)

    def test_mixed_pool_at_dim_100(self):
        d = pooled_matrix("mixed", 80, 100, seed=2)
        assert_same_graph(outcome(kmst, d, 10), outcome(reference_kmst, d, 10))

    @pytest.mark.parametrize("case", ["undercut", "three_way_tie", "hub"])
    def test_constructed(self, case):
        d, k = constructed(case)
        got = outcome(kmst, d, k)
        assert_same_graph(got, outcome(reference_kmst, d, k))
        if case == "hub":  # the layer, how far it got, and the node it could not reach
            assert got == (2, "layer 2 of 2 cannot be completed: graph is disconnected under the"
                              " current edge exclusions: 5 of 6 nodes joined the tree;"
                              " nodes with no edge left: 5")

    def test_mst_with_one_pair_excluded_three_times(self):
        # listed twice as given and once reversed; the path's own edge (2, 3)
        d = dmat([0.0, 1.0, 2.0, 3.0, 4.0])
        excluded = [(2, 3), (3, 2), (2, 3), (0, 4)]
        got = excluded_mst(d, excluded)
        assert (2, 3) not in pairs(got)
        assert got == reference_mst(d, excluded)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS + INTEGER_KINDS),
        n=st.integers(4, 40),
        dim=st.integers(1, 5),
        k_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.booleans(),
        signed_zeros=st.booleans(),
    )
    def test_property(self, kind, n, dim, k_share, seed, duplicates, signed_zeros):
        k = 1 + int(k_share * (n // 2))  # 1..N/2 + 1, the last one infeasible
        d = pooled_matrix(kind, n, dim, seed, duplicates, signed_zeros)
        assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))
        excluded = [tuple(int(v) for v in pair)
                    for pair in np.random.default_rng(seed).integers(0, n, (n, 2))]
        assert outcome(excluded_mst, d, excluded) == outcome(reference_mst, d, excluded)


# kmst's arrays on fixed pools, as sha256 of the ei, ej, weight and layer
# bytes in that order. Any change to an edge, a weight bit, a layer or the
# construction order changes a digest, so a faster construction must keep
# them, and an intended output change records new ones and says so.
PINNED = [
    (("gaussian", 300, 8, 41, False, False),
     "a260ef0c9d4233893c98b66f955772b9c1c87274805a865af8a47f0d4812feb0"),
    (("binary", 300, 16, 42, False, False),
     "d06c1dbe0846a763975f5631c9cc2466baedd45dfe69c966cccdf79f82cc7e08"),
    (("mixed", 300, 100, 43, False, False),
     "f90f2d3ec80bc42a3e5c8da7227fa9b3e1a8fef37a2c8cab0f8dbcd2b799067e"),
    (("ternary", 200, 3, 44, True, True),
     "e928c713e0773b8bb9d17721a254e978fadf1e3e5eb66a90ed4e8e696c743436"),
]


@pytest.mark.parametrize("pool, digest", PINNED, ids=[p[0][0] for p in PINNED])
def test_kmst_bytes_are_pinned(pool, digest):
    g = kmst(pooled_matrix(*pool), 10)
    h = hashlib.sha256()
    for part in (g.ei, g.ej, g.weight, g.layer):
        h.update(part.tobytes())
    assert h.hexdigest() == digest


# every fixed matrix of TestMatchesReference, then the pinned pools: a
# pooled_matrix argument tuple, or a tagged one for the other builders
REFERENCE_POOLS = [
    *((kind, n, dim, n * dim + k)
      for n, dim, k in [(40, 3, 5), (61, 8, 10), (12, 2, 6), (9, 1, 5)] for kind in KINDS),
    *((kind, n, dim, seed) for n, dim, seed in [(10, 2, 5), (30, 4, 9), (8, 2, 3)]
      for kind in KINDS),
    ("ternary", 40, 2, 8, True, True),
    ("gaussian", 45, 3, 12, True),
    ("mixed", 45, 3, 12, True),
    *(("fortran", kind, 36, 3, 6) for kind in KINDS),
    ("mixed", 80, 100, 2),
    *(("all-equal", n) for n in (2, 7, 20)),
    *(("constructed", case) for case in ("undercut", "three_way_tie", "hub")),
    *(pool for pool, _ in PINNED),
]


def reference_pool(spec):
    """The matrix one REFERENCE_POOLS entry names."""
    if spec[0] == "fortran":
        return DistanceMatrix(np.asfortranarray(pooled_matrix(*spec[1:]).values))
    if spec[0] == "all-equal":
        values = np.full((spec[1], spec[1]), 2.5)
        np.fill_diagonal(values, 0.0)
        return DistanceMatrix(values)
    if spec[0] == "constructed":
        return constructed(spec[1])[0]
    return pooled_matrix(*spec)


@pytest.mark.parametrize("spec", REFERENCE_POOLS,
                         ids=["-".join(map(str, spec)) for spec in REFERENCE_POOLS])
def test_mst_is_the_first_kmst_layer(spec):
    d = reference_pool(spec)
    g = kmst(d, 1)
    ei, ej, weight = zip(*mst(d))
    assert np.array(ei, dtype=np.int64).tobytes() == g.ei.tobytes()
    assert np.array(ej, dtype=np.int64).tobytes() == g.ej.tobytes()
    assert np.array(weight, dtype=np.float64).tobytes() == g.weight.tobytes()


def test_mst_on_a_gram_matrix_has_the_strip_weights():
    # at dim 300 the pooled matrix comes from one Gram product, whose
    # entries are only within its band of the strip path's
    rng = np.random.default_rng(5)
    a, b = (FeatureSet(rng.standard_normal((60, 300))) for _ in range(2))
    d = _pooled_distances(a, b)
    assert d.band > 0.0
    tree, strip = mst(d), mst(pairwise_distances(a, b))
    assert [(i, j, np.float64(w).tobytes()) for i, j, w in tree] == [
        (i, j, np.float64(w).tobytes()) for i, j, w in strip
    ]
    assert any(d.values[i, j] != w for i, j, w in tree)


@pytest.mark.parametrize("size", [0, 1, 4, 66, 1000])
@pytest.mark.parametrize("n_nodes", [2, 4000, 2**32 + 15, 3 * 10**9])
def test_pair_rank_matches_reference(size, n_nodes):
    rng = np.random.default_rng([size, n_nodes])
    lo, hi = np.sort(rng.integers(0, n_nodes, (2, size)), axis=0)
    got = _pair_rank(n_nodes, lo, hi)
    want = reference_pair_rank(n_nodes, lo, hi)
    assert got.dtype == want.dtype == np.uint64
    assert got.tobytes() == want.tobytes()


class TestArrayContract:
    """The stored endpoint arrays and the views derived from them."""

    N, K = 30, 4

    def graph(self):
        d = pooled_matrix("ternary", self.N, 3, seed=4)
        return d, kmst(d, self.K)

    def test_dtypes_and_orientation(self):
        d, g = self.graph()
        assert g.ei.dtype == g.ej.dtype == g.layer.dtype == np.int64
        assert g.weight.dtype == np.float64
        assert (g.ei < g.ej).all()
        assert g.weight.tobytes() == d.values[g.ei, g.ej].tobytes()

    def test_layers_are_k_blocks_of_n_minus_1(self):
        _, g = self.graph()
        assert g.n_edges == self.K * (self.N - 1)
        blocks = g.layer.reshape(self.K, self.N - 1)
        assert (blocks == np.arange(1, self.K + 1)[:, None]).all()

    def test_edges_and_degrees_are_views_of_the_arrays(self):
        _, g = self.graph()
        assert g.edges == tuple(
            (int(i), int(j), float(w), int(lay))
            for i, j, w, lay in zip(g.ei, g.ej, g.weight, g.layer)
        )
        assert all(type(v) is int for e in g.edges for v in (e[0], e[1], e[3]))
        assert np.array_equal(g.degrees, np.bincount(np.stack((g.ei, g.ej)).ravel(),
                                                     minlength=self.N))


def test_kmst_holds_no_matrix_copy():
    n = 1200
    d = pooled_matrix("gaussian", n, 8, seed=1)
    tracemalloc.start()
    try:
        kmst(d, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


# --- the integer order key -----------------------------------------------------


@pytest.fixture
def key_builds(monkeypatch):
    """One entry per `_integer_order` call `kmst` makes: True where it
    built the key, False where it declined the matrix."""
    builds = []

    def counted(values):
        order = _integer_order(values)
        builds.append(order is not None)
        return order

    monkeypatch.setattr(spanning, "_integer_order", counted)
    return builds


def counts_pool(top):
    """Count features at dim 4 whose largest squared distance is `top`,
    between the origin and one far point; the rest lie in [1, 5]^4."""
    far = {2**16 - 1: (255.0, 22.0, 5.0, 1.0), 2**16: (256.0, 0.0, 0.0, 0.0)}[top]
    rng = np.random.default_rng(top)
    pts = np.concatenate(([[0.0] * 4, far], rng.integers(1, 6, (48, 4)).astype(float)))
    return pairwise_distances(FeatureSet(pts[:25]), FeatureSet(pts[25:]))


class TestIntegerKey:
    """`kmst` on integer-valued matrices compares on the uint32 key, and
    its graph is the reference construction's to the bit."""

    @pytest.mark.parametrize("pool", [
        ("binary", 120, 20, 1),
        ("ternary", 120, 20, 2),
        ("occupancy", 150, 40, 3),
        ("ternary", 90, 3, 4, True, True),
        ("duplicate", 30, 3, 5),
    ], ids=["binary", "ternary", "occupancy", "duplicate-signed-zero", "all-zero"])
    def test_pools(self, pool, key_builds):
        d = pooled_matrix(*pool)
        for k in (1, 10):
            assert_same_graph(outcome(kmst, d, k), outcome(reference_kmst, d, k))
        assert key_builds == [True, True]

    def test_hamming_matrix_in_distance_mode(self, key_builds):
        bits = np.random.default_rng(6).integers(0, 2, (80, 40))
        hamming = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).astype(float)
        d = DistanceMatrix(hamming)
        assert_same_graph(outcome(kmst, d, 8), outcome(reference_kmst, d, 8))
        assert key_builds == [True]

    @pytest.mark.parametrize("top, keyed", [(2**16 - 1, True), (2**16, False)])
    def test_largest_squared_distance(self, top, keyed, key_builds):
        d = counts_pool(top)
        assert round(d.values.max() ** 2) == top
        assert_same_graph(outcome(kmst, d, 6), outcome(reference_kmst, d, 6))
        assert key_builds == [keyed]

    @pytest.mark.parametrize("kind", ["gaussian", "mixed", "quantised"])
    def test_not_built_on_non_integer_pools(self, kind, key_builds):
        kmst(pooled_matrix(kind, 60, 4, seed=7), 3)
        assert key_builds == [False]

    def test_not_built_on_a_certified_gram_matrix(self, key_builds):
        rng = np.random.default_rng(8)
        a, b = (FeatureSet(rng.standard_normal((40, 300))) for _ in range(2))
        d = _pooled_distances(a, b)
        assert isinstance(d, _BandedDistances)
        kmst(d, 3)
        assert key_builds == []

    def test_built_once_on_an_exact_gram_matrix(self, key_builds):
        # ±1 features make the Gram product exact: no band to refuse ties on
        rng = np.random.default_rng(9)
        a, b = (FeatureSet(rng.choice([-1.0, 1.0], size=(40, 300))) for _ in range(2))
        d = _pooled_distances(a, b)
        assert type(d) is DistanceMatrix
        g = kmst(d, 3)
        assert key_builds == [True]
        assert_same_graph(g, reference_kmst(pairwise_distances(a, b), 3))

    def test_key_orders_as_the_distances_then_the_pair_rank(self):
        d = pooled_matrix("ternary", 50, 6, seed=10)
        order = _integer_order(d.values)
        assert order.dtype == np.uint32 and np.array_equal(order, order.T)
        lo, hi = np.triu_indices(50, 1)
        by_pair = np.lexsort((_pair_rank(50, lo, hi), d.values[lo, hi]))
        keys = order[lo, hi][by_pair].astype(np.int64)
        assert (np.diff(keys) >= 0).all()


def test_kmst_keyed_peak_is_below_one_matrix():
    # the key takes N^2 * 4 bytes beside the N^2 * 8 of the matrix
    n = 1200
    d = pooled_matrix("binary", n, 16, seed=1)
    assert _integer_order(d.values) is not None
    tracemalloc.start()
    try:
        kmst(d, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * n * n * 8
