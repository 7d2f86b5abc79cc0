"""Frozen dense-copy k-MST: the reference oracle for `ecdkit.spanning`.

This is the layered Prim construction as it stood before the k-MST read
the pooled matrix in place: it copies the matrix, writes `inf` on the
diagonal and on every used or excluded edge, and resolves ties over the
full frontier vector. It is kept only so the equality tests can compare
the production kernel with it edge for edge; nothing in the library
imports it.
"""

from types import SimpleNamespace

import numpy as np

from ecdkit.errors import DisconnectedError, InvalidK, SizeMismatch


def _pair_rank(n_nodes, lo, hi):
    key = np.asarray(lo, dtype=np.uint64) * np.uint64(n_nodes) + np.asarray(hi, dtype=np.uint64)
    z = key + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_prim(weights):
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


def reference_mst(d, excluded=()):
    w = d.values.copy()
    np.fill_diagonal(w, np.inf)
    for i, j in excluded:
        w[i, j] = np.inf
        w[j, i] = np.inf
    return reference_prim(w)


def reference_kmst(d, k):
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidK(f"tree multiplicity k must be a positive integer, got {k!r}")
    n = d.n_points
    w = d.values.copy()
    np.fill_diagonal(w, np.inf)
    all_edges = []
    for layer in range(1, k + 1):
        try:
            layer_edges = reference_prim(w)
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
    return SimpleNamespace(edges=tuple(all_edges), n_nodes=n, k=int(k), degrees=degrees)
