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
from dataclasses import dataclass, replace

import numpy as np

from . import metricspace
from .errors import DisconnectedError, InvalidK, SizeMismatch
from .metricspace import DistanceMatrix, _BandedDistances

#: Tree multiplicity used throughout unless a caller overrides it.
DEFAULT_K = 10

#: Entries per strip while `_integer_order` builds its key.
_KEY_STRIP = 2 ** 14

# 0-d arrays, not numpy scalars: a ufunc takes them without a scalar
# conversion, about half the cost per call on the few-entry arrays ties give
_MIX_INC, _MIX_A, _MIX_B, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (
    np.array(c, dtype=np.uint64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 27, 30, 31)
)


class _Uncertified(Exception):
    """A band cannot order two values; `kmst` then uses the strip matrix."""


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


def _prim(d: DistanceMatrix, ptr: np.ndarray, nbr: np.ndarray, band: float = 0.0,
          order: np.ndarray | None = None):
    """One MST of the complete graph minus the edges of an exclusion index.

    Compares on `order`, an N x N array that orders the frontier as the
    distances do (`_integer_order`'s key), or on `d.values` when it is
    None; either way it is read in place, and each tree edge's weight is
    read from `d.values` as (parent, child). Node v's excluded neighbours are
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
    below it, is the next pick. Pair ranks are computed where a tie
    happens, in one call per tied pick and per tied key update.

    With a positive `band`, every entry is only known to within `band` of
    the exact one (see `metricspace._BandedDistances`), so two values
    order for certain only when they differ by more than the width, twice
    the band. `best` then holds each key plus the width (its rounding: see
    `metricspace._band`), so the one comparison finds every key a row
    entry may undercut, and an update is certain below ``best - 2 *
    width``. A pick within the width of its runner-up, or an update that
    is not certain, raises `_Uncertified`, ties included; otherwise every
    pick and parent is the exact construction's, and the weights are the
    entries read here. With band 0 the loop is the exact one.

    A band-0 `_BandedDistances` holds float32 roundings of the exact
    entries, and `best` is float32 too, ordered as its int32 bits. Two
    keys that differ order as the exact ones do, so only a stored tie is
    open: a tied pick or tied key update is settled on the exact
    distances of its edges (`d.pairs`), and then on pair rank.
    """
    width = 2.0 * band
    values = d.values
    keys = values if order is None else order
    # the exact distances that settle a stored tie; a positive band refuses it instead
    exact = d.pairs if isinstance(d, _BandedDistances) else None
    n = values.shape[0]
    if n < 2:
        raise SizeMismatch("need at least 2 nodes for a spanning tree")
    ptr = ptr.tolist()  # Python ints slice `nbr` faster than numpy scalars
    best = keys[0] + width  # a copy of the key's dtype; with band 0 it holds every key
    best[nbr[ptr[0]:ptr[1]]] = np.inf
    best[0] = np.nan
    bits = best.view(f"i{best.itemsize}")
    parent = np.zeros(n, dtype=np.int64)
    at_most = np.empty(n, dtype=bool)
    added = np.empty(n - 1, dtype=np.int64)
    vertex = int(bits.argmin())
    for step in range(n - 1):
        lowest = best[vertex]
        if lowest == np.inf:
            raise DisconnectedError(_stranded(n, step + 1, ptr, nbr, np.isnan(best)))
        best[vertex] = np.nan
        runner = bits.argmin()
        second = best[runner]
        # any float tie, -0.0 against +0.0 too, or a gap within the band
        if second - lowest <= width:
            if width:
                raise _Uncertified(f"pick {step} is within the band of its runner-up")
            best[vertex] = lowest
            cand = (best == lowest).nonzero()[0]
            ends = parent[cand]
            lo, hi = np.minimum(ends, cand), np.maximum(ends, cand)
            # candidates are distinct frontier nodes with tree parents, so
            # their pairs, and hence their ranks, are distinct
            ranks = _pair_rank(n, lo, hi)
            win = ranks.argmin() if exact is None else np.lexsort((ranks, exact(lo, hi)))[0]
            vertex, runner = int(cand[win]), cand[win - 1]  # any other candidate
            best[vertex] = np.nan
        added[step] = vertex
        row = keys[vertex]
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
            if gain[low] < second - width:
                runner = near[low]
            closer = gain < (best[near] - 2.0 * width if width else best[near])
            if np.count_nonzero(closer) < near.size:
                if width:
                    raise _Uncertified(f"a key update of step {step} is within the band")
                # a tied edge replaces the current one if it is shorter
                # exactly, or as short and its pair ranks lower
                tied = near[~closer]
                ends = np.array(([vertex] * tied.size, parent[tied]))  # new ends, current ends
                lo, hi = np.minimum(ends, tied), np.maximum(ends, tied)
                ranks = _pair_rank(n, lo, hi)
                wins = ranks[0] < ranks[1]
                if exact is not None:
                    w = exact(lo.ravel(), hi.ravel()).reshape(2, -1)
                    wins = (w[0] < w[1]) | ((w[0] == w[1]) & wins)
                closer[~closer] = wins
                near, gain = near[closer], gain[closer]
            best[near] = gain + width if width else gain  # a tied win writes an equal value
            parent[near] = vertex
        vertex = int(runner)
    ends = parent[added]
    return np.minimum(ends, added), np.maximum(ends, added), values[ends, added]


def _stranded(n: int, joined: int, ptr: list, nbr: np.ndarray, in_tree: np.ndarray) -> str:
    """The text of a pass that stops with `joined` of its n nodes in the
    tree: that count, and up to five other nodes whose every edge is excluded."""
    cut = [v for v in (~in_tree).nonzero()[0].tolist()
           if np.union1d(nbr[ptr[v]:ptr[v + 1]], v).size == n]
    more = f" and {len(cut) - 5} more" if len(cut) > 5 else ""
    listed = f"; nodes with no edge left: {', '.join(map(str, cut[:5]))}{more}" if cut else ""
    return (f"graph is disconnected under the current edge exclusions: "
            f"{joined} of {n} nodes joined the tree{listed}")


def _integer_order(values: np.ndarray) -> np.ndarray | None:
    """The uint32 order key of an integer-valued exact matrix, else None.

    It applies when every entry w is the correctly rounded square root of
    an integer ``s = rint(w * w)`` below 2^16, as binary, ternary and count
    features give. Entry (i, j) of the key is ``(s << keep) | (r >> (64 -
    keep))``, with r the pair rank of (min(i, j), max(i, j)) and keep = 32
    - bit_length(max s). Distinct s order as their distances do, since the
    rounded square root is monotone and tells integers below 2^16 apart,
    and among equal s the top bits of r order as r does; so `_prim` on the
    key makes every pick and parent it makes on the distances, and two
    keys tie only where s and those bits match, which its tie path
    settles on the full rank. Row 0 is checked first, so a matrix that is
    not integer-valued costs one row. The key is built in strips of about
    `_KEY_STRIP` entries, whose temporaries are small beside it.
    """
    n = values.shape[0]
    if n < 2 or _squares(values[:1]) is None:
        return None
    top = float(values.max())
    if not top < 256.0:  # s at least 2^16
        return None
    keep = 32 - int(round(top * top)).bit_length()
    shift = np.uint64(64 - keep)
    order = np.empty((n, n), dtype=np.uint32)
    rows = max(1, _KEY_STRIP // n)
    nodes = np.arange(n, dtype=np.int64)
    for r0 in range(0, n, rows):
        s = _squares(values[r0:r0 + rows])
        if s is None:
            return None
        block, r = order[r0:r0 + rows], nodes[r0:r0 + rows, None]
        block[...] = s
        if keep < 32:  # else every s is 0
            block <<= keep
        rank = _pair_rank(n, np.minimum(r, nodes), np.maximum(r, nodes))
        rank >>= shift
        block |= rank
    return order


def _squares(w: np.ndarray) -> np.ndarray | None:
    """``rint(w * w)`` when every entry of w is below 256 (so no square
    overflows) and the correctly rounded square root of its rint, else
    None; -0.0 is the root of 0."""
    if not w.max() < 256.0:
        return None
    s = np.multiply(w, w)
    np.rint(s, out=s)
    return s if np.array_equal(np.sqrt(s), w) else None


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


def mst(d: DistanceMatrix):
    """Minimum spanning tree: the one layer of `kmst(d, 1)`.

    Returns N-1 edges as (i, j, weight) with i < j.
    """
    g = kmst(d, 1)
    return list(zip(g.ei.tolist(), g.ej.tolist(), g.weight.tolist()))


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

    On a banded matrix of `metricspace._pooled_distances` every layer is
    built within its band. If all of them are certified, each tree edge's
    weight is read exactly, so the graph is the one the exact matrix
    gives; if any pick or key update is not, this, the one place that
    catches `_Uncertified`, builds the k-MST again on the strip matrix.
    A band-0 (float32) matrix settles its ties on exact distances and is
    never refused.
    """
    k = _check_k(k)
    if not isinstance(d, _BandedDistances):
        return _layers(d, k, 0.0)
    try:
        g = _layers(d, k, d.band)
    except _Uncertified:
        return _layers(metricspace.pairwise_distances(*d.sets), k, 0.0)
    return replace(g, weight=d.pairs(g.ei, g.ej))


def _layers(d: DistanceMatrix, k: int, band: float) -> SpanningGraph:
    """The k layers of `kmst`, each a `_prim` pass with this band."""
    n = d.n_points
    # an exact matrix is checked for the integer key; a banded one, band 0 too, never is
    order = None if isinstance(d, _BandedDistances) else _integer_order(d.values)
    index = _no_exclusions(n)  # every earlier layer's edges
    trees = []
    for layer in range(1, k + 1):
        try:
            tree = _prim(d, *index, band, order)
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
