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

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, InvalidK, SizeMismatch
from .metricspace import DistanceMatrix

#: Tree multiplicity used throughout unless a caller overrides it.
DEFAULT_K = 10

_MIX_INC = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _pair_rank(n_nodes: int, lo, hi) -> np.ndarray:
    """Deterministic pseudo-random rank of normalized node pairs.

    splitmix64-style finalizer over the flattened pair key; pure uint64
    wraparound arithmetic, identical on every platform.
    """
    key = np.asarray(lo, dtype=np.uint64) * np.uint64(n_nodes) + np.asarray(hi, dtype=np.uint64)
    z = key + _MIX_INC
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class SpanningGraph:
    """Edge-disjoint union of k spanning trees.

    edges holds (i, j, weight, layer) with i < j and layer in 1..k, in
    construction order; degrees[i] counts edges incident to node i.
    """

    edges: tuple
    n_nodes: int
    k: int
    degrees: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index_arrays(self):
        """Endpoint index arrays (ei, ej), aligned with `edges` order."""
        ei = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=len(self.edges))
        ej = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=len(self.edges))
        return ei, ej


def _prim(weights: np.ndarray):
    """One MST of the weighted complete graph; `inf` entries mark excluded edges.

    Starts from node 0. At every step the cheapest frontier edge is
    added; among equal-weight frontier edges the one with the smallest
    pair rank wins (raw (i, j) order as a final fallback).
    """
    n = weights.shape[0]
    if n < 2:
        raise SizeMismatch("need at least 2 nodes for a spanning tree")
    verts = np.arange(n)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    parent = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        lowest = masked.min()
        if not np.isfinite(lowest):
            raise DisconnectedError("graph is disconnected under the current edge exclusions")
        cand = np.flatnonzero(masked == lowest)
        if cand.size == 1:
            vertex = int(cand[0])
        else:
            pair_lo = np.minimum(parent[cand], cand)
            pair_hi = np.maximum(parent[cand], cand)
            ranks = _pair_rank(n, pair_lo, pair_hi)
            vertex = int(cand[np.lexsort((pair_hi, pair_lo, ranks))[0]])
        u = int(parent[vertex])
        i, j = (u, vertex) if u < vertex else (vertex, u)
        edges.append((i, j, float(weights[u, vertex])))
        in_tree[vertex] = True
        row = weights[vertex]
        closer = row < best
        tied = row == best
        if tied.any():
            # keep the lower-ranked tree endpoint for each tied frontier edge
            lo_new = np.minimum(vertex, verts)
            hi_new = np.maximum(vertex, verts)
            lo_old = np.minimum(parent, verts)
            hi_old = np.maximum(parent, verts)
            better = tied & (_pair_rank(n, lo_new, hi_new) < _pair_rank(n, lo_old, hi_old))
        else:
            better = tied
        np.copyto(best, row, where=closer)
        parent[closer | better] = vertex
    return edges


def mst(d: DistanceMatrix, excluded=()):
    """Minimum spanning tree of the complete graph minus `excluded` edges.

    `excluded` is an iterable of (i, j) pairs in either orientation.
    Returns N-1 edges as (i, j, weight) with i < j.
    """
    w = d.values.copy()
    np.fill_diagonal(w, np.inf)
    for i, j in excluded:
        w[i, j] = np.inf
        w[j, i] = np.inf
    return _prim(w)


def kmst(d: DistanceMatrix, k: int = DEFAULT_K) -> SpanningGraph:
    """Union of k edge-disjoint MSTs, built layer by layer.

    Feasibility on a complete graph requires k <= floor(N/2); beyond that
    some layer runs out of edges and DisconnectedError reports its index.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidK(f"tree multiplicity k must be a positive integer, got {k!r}")
    n = d.n_points
    w = d.values.copy()
    np.fill_diagonal(w, np.inf)
    all_edges = []
    for layer in range(1, k + 1):
        try:
            layer_edges = _prim(w)
        except DisconnectedError as exc:
            raise DisconnectedError(
                f"layer {layer} of {k} cannot be completed: {exc}", layer=layer
            ) from None
        for i, j, weight in layer_edges:
            all_edges.append((i, j, weight, layer))
            w[i, j] = np.inf
            w[j, i] = np.inf
    degrees = np.zeros(n, dtype=np.int64)
    for i, j, _, _ in all_edges:
        degrees[i] += 1
        degrees[j] += 1
    return SpanningGraph(edges=tuple(all_edges), n_nodes=n, k=int(k), degrees=degrees)


def degree_statistic(g: SpanningGraph) -> float:
    """Half the sum of squared node degrees, minus the edge count.

    Counts the (unordered) pairs of edges sharing a node, so it is always
    nonnegative.
    """
    deg = g.degrees.astype(np.float64)
    return float(0.5 * np.sum(deg * deg) - g.n_edges)
