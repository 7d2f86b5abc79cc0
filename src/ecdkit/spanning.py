"""Union of k edge-disjoint minimum spanning trees over a pooled distance matrix.

Layers are built greedily: layer 1 is the MST of the complete graph,
layer i the MST of the complete graph minus all edges used by layers
1..i-1. Every node therefore ends with degree >= k.

Construction is bit-reproducible. Ties between equal-weight candidate
edges are ordered by a fixed integer hash of the normalized node pair,
not by raw index order: pooled inputs place one set in the low indices
and the other in the high ones, so index-lexicographic resolution would
systematically favor within-first-set edges on tie-heavy inputs (binary
features, quantized descriptors) and bias every downstream edge count.
The hash order is just as deterministic but uncorrelated with the split.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, InvalidEdge, InvalidK, SizeMismatch
from .metricspace import DistanceMatrix

#: Tree multiplicity used throughout unless a caller overrides it.
DEFAULT_K = 10

# 0-d arrays, not numpy scalars: a ufunc takes them without a scalar
# conversion, about half the cost per call on the few-entry arrays ties give
_MIX_INC, _MIX_A, _MIX_B, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (
    np.array(c, dtype=np.uint64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31)
)


def _pair_rank(n_nodes: int, lo, hi) -> np.ndarray:
    """Deterministic pseudo-random rank of normalized node pairs.

    splitmix64-style finalizer over the flattened pair key; pure uint64
    wraparound arithmetic, identical on every platform. It is a bijection
    of the key, so distinct pairs never share a rank. `lo` and `hi` are
    int64 arrays; their key ``lo * n_nodes + hi`` is formed in int64,
    exact for any n_nodes below 3e9, and read as uint64.
    """
    z = lo * n_nodes
    z += hi
    z = z.view(np.uint64)
    z += _MIX_INC
    z ^= z >> _SHIFT_30
    z *= _MIX_A
    z ^= z >> _SHIFT_27
    z *= _MIX_B
    z ^= z >> _SHIFT_31
    return z


@dataclass(frozen=True)
class SpanningGraph:
    """Edge-disjoint union of k spanning trees.

    Edge e joins nodes ei[e] < ej[e] at distance weight[e] and belongs to
    tree layer[e] in 1..k; edges are stored in construction order.
    """

    ei: np.ndarray
    ej: np.ndarray
    weight: np.ndarray
    layer: np.ndarray
    n_nodes: int
    k: int

    @property
    def n_edges(self) -> int:
        return self.ei.size

    @property
    def degrees(self) -> np.ndarray:
        """Number of edges incident to each node."""
        return np.bincount(np.concatenate((self.ei, self.ej)), minlength=self.n_nodes)

    @property
    def edges(self) -> tuple:
        """(i, j, weight, layer) per edge, in construction order."""
        return tuple(zip(*(a.tolist() for a in (self.ei, self.ej, self.weight, self.layer))))


def _prim(d: DistanceMatrix, ptr: np.ndarray, nbr: np.ndarray):
    """One MST of the complete graph minus the edges of an exclusion index.

    Reads `d.values` in place; node v's excluded neighbours are
    ``nbr[ptr[v]:ptr[v + 1]]`` (CSR, see `_with_excluded`). Starts from
    node 0. At every step the cheapest frontier edge is added; among
    equal-weight frontier edges the one with the smallest pair rank wins.
    Tree nodes hold NaN in `best`, so they are never the minimum, never
    closer and never tied, and their `parent` is final. Returns
    (lo, hi, weight), one per step.

    Distances are nonnegative, so `best` orders as its int64 bits, NaN
    above inf. Each step makes one argmin over the frontier, with the
    pick already set to NaN: it finds the runner-up, which tells whether
    another node ties with the pick and, unless this step lowers some key
    below it, is the next pick. The pair rank of each frontier node's
    edge to its parent is computed when a tie first needs it and kept
    until the parent changes.
    """
    values = d.values
    n = values.shape[0]
    if n < 2:
        raise SizeMismatch("need at least 2 nodes for a spanning tree")
    ptr = ptr.tolist()  # Python ints slice `nbr` faster than numpy scalars
    best = values[0].copy()
    best[nbr[ptr[0]:ptr[1]]] = np.inf
    best[0] = np.nan
    bits = best.view(np.int64)
    parent = np.zeros(n, dtype=np.int64)
    # rank[v] is the pair rank of (ranked[v], v); it is current while
    # ranked[v] == parent[v], so a parent change makes it stale
    rank = np.zeros(n, dtype=np.uint64)
    ranked = np.full(n, -1, dtype=np.int64)

    def parent_ranks(nodes):
        ends = parent[nodes]
        stale = ranked[nodes] != ends
        if np.count_nonzero(stale):  # cheaper than .any() on short arrays
            fresh, ends = nodes[stale], ends[stale]
            rank[fresh] = _pair_rank(n, np.minimum(ends, fresh), np.maximum(ends, fresh))
            ranked[fresh] = ends
        return rank[nodes]

    at_most = np.empty(n, dtype=bool)
    added = np.empty(n - 1, dtype=np.int64)
    vertex = int(bits.argmin())
    for step in range(n - 1):
        lowest = best[vertex]
        if lowest == np.inf:
            raise DisconnectedError("graph is disconnected under the current edge exclusions")
        best[vertex] = np.nan
        runner = bits.argmin()
        second = best[runner]
        if second == lowest:  # any float tie, -0.0 against +0.0 too
            best[vertex] = lowest
            cand = (best == lowest).nonzero()[0]
            # candidates are distinct frontier nodes with tree parents, so
            # their pairs, and hence their ranks, are distinct
            win = parent_ranks(cand).argmin()
            vertex, runner = int(cand[win]), cand[win - 1]  # any other candidate
            best[vertex] = np.nan
        added[step] = vertex
        row = values[vertex]
        np.less_equal(row, best, out=at_most)
        at_most[nbr[ptr[vertex]:ptr[vertex + 1]]] = False
        near = at_most.nonzero()[0]
        if near.size:
            gain = row[near]
            # only these keys move, each down to its gain or an equal value,
            # so the lowest frontier key is `second` or the lowest gain. A
            # pick needs that key, not the lowest bits: the tie check finds
            # every other node whose key equals it, -0.0 or +0.0
            low = gain.argmin()
            if gain[low] < second:
                runner = near[low]
            closer = gain < best[near]
            if np.count_nonzero(closer) < near.size:
                # a tied frontier edge replaces the current one if its pair ranks lower
                ranks = _pair_rank(n, np.minimum(vertex, near), np.maximum(vertex, near))
                closer |= ranks < parent_ranks(near)
                near, gain = near[closer], gain[closer]
                rank[near] = ranks[closer]
                ranked[near] = vertex
            best[near] = gain  # a tied win writes an equal value
            parent[near] = vertex
        vertex = int(runner)
    ends = parent[added]
    return np.minimum(ends, added), np.maximum(ends, added), values[ends, added]


def _with_excluded(ptr: np.ndarray, nbr: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The exclusion index (ptr, nbr) grown by the edges (lo[e], hi[e]).

    Node v's excluded neighbours are ``nbr[ptr[v]:ptr[v + 1]]``. Each new
    edge goes at the end of both endpoints' blocks, so only the new edges
    are sorted, by node, and the entries already held are moved in one
    pass. Returns new arrays.
    """
    ends = np.concatenate((lo, hi))
    # by node, so insertions at one position (empty blocks between) keep node order
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    nbr = np.insert(nbr, ptr[ends + 1], np.concatenate((hi, lo))[order])
    ptr = ptr.copy()
    ptr[1:] += np.cumsum(np.bincount(ends, minlength=ptr.size - 1))
    return ptr, nbr


def _no_exclusions(n: int):
    """The empty exclusion index over n nodes."""
    return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)


def mst(d: DistanceMatrix, excluded=()):
    """Minimum spanning tree of the complete graph minus `excluded` edges.

    `excluded` is an iterable of (i, j) pairs in either orientation, each
    index in 0..N-1; anything else raises InvalidEdge.
    Returns N-1 edges as (i, j, weight) with i < j.
    """
    n = d.n_points
    try:
        pairs = [(operator.index(i), operator.index(j)) for i, j in excluded]
    except TypeError:
        raise InvalidEdge("excluded edges must be pairs of integer node indices") from None
    for pair in pairs:
        if not (0 <= pair[0] < n and 0 <= pair[1] < n):
            raise InvalidEdge(f"excluded edge {pair} has a node outside 0..{n - 1}")
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    lo, hi, weight = _prim(d, *_with_excluded(*_no_exclusions(n), lo, hi))
    return list(zip(lo.tolist(), hi.tolist(), weight.tolist()))


def _check_k(k) -> int:
    """The one k rule: an integer by operator.index, not a bool, and at
    least 1, else InvalidK. Returns it as an int."""
    try:
        value = operator.index(k)
    except TypeError:
        value = 0
    if isinstance(k, bool) or value < 1:
        raise InvalidK(f"tree multiplicity k must be a positive integer, got {k!r}")
    return value


def kmst(d: DistanceMatrix, k: int = DEFAULT_K) -> SpanningGraph:
    """Union of k edge-disjoint MSTs, built layer by layer.

    Feasibility on a complete graph requires k <= floor(N/2); beyond that
    some layer runs out of edges and DisconnectedError reports its index.
    """
    k = _check_k(k)
    n = d.n_points
    index = _no_exclusions(n)  # every earlier layer's edges
    trees = []
    for layer in range(1, k + 1):
        try:
            tree = _prim(d, *index)
        except DisconnectedError as exc:
            raise DisconnectedError(
                f"layer {layer} of {k} cannot be completed: {exc}", layer=layer
            ) from None
        trees.append(tree)
        if layer < k:
            index = _with_excluded(*index, *tree[:2])
    ei, ej, weight = (np.concatenate(part) for part in zip(*trees))
    layers = np.repeat(np.arange(1, k + 1), n - 1)
    return SpanningGraph(ei, ej, weight, layers, n_nodes=n, k=k)


def degree_statistic(g: SpanningGraph) -> float:
    """Half the sum of squared node degrees, minus the edge count.

    Counts the (unordered) pairs of edges sharing a node, so it is always
    nonnegative.
    """
    deg = g.degrees.astype(np.float64)
    return float(0.5 * np.sum(deg * deg) - g.n_edges)
