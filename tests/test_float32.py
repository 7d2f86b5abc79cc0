"""Pooled distances stored in float32, with ties settled on exact distances.

From `_FLOAT32_MIN_POINTS` pooled points below `_GRAM_MIN_DIM` features,
a continuous comparison keeps its pooled matrix as the float32 roundings
of the strip path's distances. Every result that reads it must be the
float64 path's to the bit: reports, graphs (edges, weights, layers and
their order), COV and MMD. Here the size threshold is lowered to 0 and
the probe's repeat limit raised to every entry, so small and tie-heavy
pools take the float32 path; pools with planted near-ties make the
k-MST settle stored ties on exact distances.
"""

import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit import (
    DisconnectedError,
    FeatureSet,
    NonFiniteInput,
    ecd,
    ecd_subsampled,
    kmst,
    pairwise_distances,
)

metricspace = importlib.import_module("ecdkit.metricspace")
experiments = importlib.import_module("ecdkit.experiments")
setmeasures = importlib.import_module("ecdkit.setmeasures")

N_EACH, DIM, K = 36, 3, 4


def float32_path(run, *args):
    """run(*args) with every strip-path comparison stored in float32, and
    how many strip matrices it computed (none may be: float32 ties are
    settled, never refused)."""
    built = []
    real = metricspace.pairwise_distances
    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_FLOAT32_MIN_POINTS", 0)
        m.setattr(metricspace, "_FLOAT32_REPEATS", 1)
        m.setattr(metricspace, "pairwise_distances", lambda a, b: built.append(1) or real(a, b))
        return run(*args), len(built)


def float64_path(run, *args):
    """run(*args) with every comparison stored in float64."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_FLOAT32_MIN_POINTS", math.inf)
        return run(*args)


def near_ties(seed, clusters=2 * N_EACH // 3):
    """Clusters of three points, far apart, each planting one float32 tie
    whose exact distances differ by about 5e-9 of their length, below
    half a float32 ulp. In a fan, two points lie at nearly the same
    distance on either side of a centre, so Prim's pick ties once the
    centre is in; in a triad, two points 1e-4 apart lie at nearly the
    same distance from a third, which is reached last, so a key update
    ties."""
    rng = np.random.default_rng(seed)
    pts = []
    for j in range(clusters):
        c = np.array([20.0 * j + rng.random(), 0.0, 0.0])
        u = rng.standard_normal(3)
        u[0] = 0.0
        u /= np.linalg.norm(u)
        if j % 2:  # fan: c joins first, then p and v tie
            pts += [c, c + u, c - u * (1.0 + 5e-9)]
        else:  # triad: p and v join first, then t's keys tie
            w = np.cross(u, [1.0, 0.0, 0.0])
            pts += [c, c + 1e-4 * w, c + u]
    pts = np.array(pts)[rng.permutation(3 * clusters)]
    half = len(pts) // 2
    return FeatureSet(pts[:half]), FeatureSet(pts[half:])


def pool(kind, seed=0):
    """Two sets of N_EACH points at DIM of one named kind."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((2 * N_EACH, DIM))
    if kind == "uniform":
        pts = rng.random(pts.shape)
    elif kind == "duplicates":
        pts = pts[rng.integers(0, N_EACH // 2, len(pts))]
    elif kind == "signed-zeros":
        pts = rng.choice([-0.0, 0.0, 1.0], size=pts.shape)
    elif kind == "grid-0.1":
        pts = np.round(pts, 1)
    elif kind == "near-ties":
        return near_ties(seed)
    return FeatureSet(pts[:N_EACH]), FeatureSet(pts[N_EACH:])


POOLS = ["gaussian", "uniform", "duplicates", "signed-zeros", "grid-0.1", "near-ties"]


def graph_bytes(g):
    return b"".join(part.tobytes() for part in (g.ei, g.ej, g.weight, g.layer))


def test_pools_take_the_float32_path():
    for kind in POOLS:
        d, _ = float32_path(metricspace._pooled_distances, *pool(kind))
        assert type(d) is metricspace._BandedDistances
        assert d.values.dtype == np.float32 and d.band == 0.0
        want = pairwise_distances(*pool(kind)).values
        assert d.values.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("kind", POOLS)
def test_ecd_matches_float64_path(kind):
    a, b = pool(kind)
    want = float64_path(ecd, a, b, K)
    got, built = float32_path(ecd, a, b, K)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got.graph) == graph_bytes(want.graph)
    assert built == 0


def kmst_outcome(d, k):
    """The graph bytes of kmst(d, k), or the text and layer of its
    DisconnectedError: greedy layers may run out of edges before N/2."""
    try:
        return graph_bytes(kmst(d, k))
    except DisconnectedError as exc:
        return str(exc), exc.layer


@pytest.mark.parametrize("kind", POOLS)
def test_kmst_matches_up_to_half_the_pool(kind):
    a, b = pool(kind, seed=1)
    exact = pairwise_distances(a, b)
    for k in (1, 7, exact.n_points // 4, exact.n_points // 2):
        got, built = float32_path(lambda: kmst_outcome(metricspace._pooled_distances(a, b), k))
        assert got == kmst_outcome(exact, k) and built == 0


def test_near_ties_are_settled_on_exact_distances(monkeypatch):
    # the planted ties reach both settlements: a pick and a key update
    calls = []
    real = metricspace._BandedDistances.pairs
    monkeypatch.setattr(metricspace._BandedDistances, "pairs",
                        lambda self, lo, hi: calls.append(lo.size) or real(self, lo, hi))
    a, b = near_ties(2)
    got, _ = float32_path(kmst, float32_path(metricspace._pooled_distances, a, b)[0], 1)
    assert graph_bytes(got) == graph_bytes(kmst(pairwise_distances(a, b), 1))
    # the last call reads the tree's weights; each other one settles a tie
    assert len(calls) > 2 and calls[-1] == a.n_points + b.n_points - 1


def test_subsampled_rounds_match_float64_path():
    a, b = pool("gaussian")
    big = FeatureSet(np.concatenate((a.points, pool("gaussian", seed=1)[0].points)))
    want = float64_path(ecd_subsampled, big, b, K, 3, 7)
    got, built = float32_path(ecd_subsampled, big, b, K, 3, 7)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got.graph) == graph_bytes(want.graph)
    assert built == 0


@pytest.mark.parametrize("kind", POOLS)
def test_sweep_cell_matches_float64_path(kind, monkeypatch):
    # the cell's ECD, COV and MMD on this pool instead of its own samples
    monkeypatch.setattr(experiments, "_pair", lambda *cell: pool(kind))
    args = (0, DIM, 1.0, N_EACH, K)
    want = float64_path(experiments._sweep_cell, args)
    got, _ = float32_path(experiments._sweep_cell, args)
    assert [(r.measure_name, r.value.hex()) for r in got] == [
        (r.measure_name, r.value.hex()) for r in want
    ]


@st.composite
def pools(draw):
    """Two small sets on a coarse grid, with duplicates, signed zeros and
    sub-ulp stretches of some points, so stored ties are everywhere."""
    n, m, dim = draw(st.integers(2, 14)), draw(st.integers(2, 14)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-3, 4, (n + m, dim)) * draw(st.sampled_from([0.1, 0.5, 1.0]))
    pts[rng.random(pts.shape) < 0.2] = -0.0
    stretch = rng.random(n + m) < 0.3
    pts[stretch] *= 1.0 + rng.integers(1, 20, (stretch.sum(), 1)) * 2.0**-40
    if draw(st.booleans()):
        pts[rng.integers(0, n + m)] = pts[rng.integers(0, n + m)]
    return FeatureSet(pts[:n]), FeatureSet(pts[n:]), draw(st.integers(1, (n + m) // 2))


@settings(max_examples=150, deadline=None)
@given(case=pools())
def test_float32_path_is_the_float64_path(case):
    a, b, k = case
    exact = pairwise_distances(a, b)
    d, _ = float32_path(metricspace._pooled_distances, a, b)
    assert d.values.dtype == np.float32
    got, built = float32_path(kmst_outcome, d, k)
    assert got == kmst_outcome(exact, k) and built == 0
    near = setmeasures._measures_from_pooled(d, a.n_points)
    want = setmeasures._measures_from_pooled(exact, a.n_points)
    assert (near.coverage.hex(), near.mmd.hex()) == (want.coverage.hex(), want.mmd.hex())


# --- where float32 applies at the real threshold ------------------------------

def large_pool(kind, n=1600, dim=8):
    """A pooled 3200 points, above `_FLOAT32_MIN_POINTS`."""
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    if kind == "integer":
        a, b = np.round(3.0 * a), np.round(3.0 * b)
    elif kind == "grid-0.1":
        a, b = np.round(a, 1), np.round(b, 1)
    elif kind == "gaussian-and-sign":
        b = np.sign(b)
    return FeatureSet(a), FeatureSet(b)


def test_continuous_pools_above_the_threshold_store_float32():
    a, b = large_pool("gaussian")
    assert a.n_points + b.n_points >= metricspace._FLOAT32_MIN_POINTS
    d = metricspace._pooled_distances(a, b)
    assert type(d) is metricspace._BandedDistances and d.values.dtype == np.float32
    assert pairwise_distances(a, b).values.dtype == np.float64


@pytest.mark.parametrize("kind", ["integer", "grid-0.1", "gaussian-and-sign"])
def test_repeating_pools_above_the_threshold_store_float64(kind):
    d = metricspace._pooled_distances(*large_pool(kind))
    assert type(d) is metricspace.DistanceMatrix and d.values.dtype == np.float64


def test_below_the_threshold_stores_float64(monkeypatch):
    a, b = large_pool("gaussian")
    monkeypatch.setattr(metricspace, "_FLOAT32_MIN_POINTS", a.n_points + b.n_points + 1)
    assert type(metricspace._pooled_distances(a, b)) is metricspace.DistanceMatrix


def test_distances_beyond_float32_store_float64(monkeypatch):
    monkeypatch.setattr(metricspace, "_FLOAT32_MIN_POINTS", 0)
    a, b = pool("gaussian")
    big = FeatureSet(a.points * 1e38), FeatureSet(b.points * 1e38)
    d = metricspace._pooled_distances(*big)
    assert type(d) is metricspace.DistanceMatrix
    assert d.values.max() > np.finfo(np.float32).max
    assert d.values.tobytes() == pairwise_distances(*big).values.tobytes()


@pytest.mark.parametrize("where", [0, N_EACH, 2 * N_EACH - 1])
@pytest.mark.parametrize("value", [1e160, -1e200])
def test_overflowing_distances_raise_as_on_float64(monkeypatch, where, value):
    monkeypatch.setattr(metricspace, "_FLOAT32_MIN_POINTS", 0)
    pts = np.concatenate([p.points for p in pool("gaussian")])
    pts[where, 1] = value
    with pytest.raises(NonFiniteInput, match="distances must be finite"):
        metricspace._pooled_distances(FeatureSet(pts[:N_EACH]), FeatureSet(pts[N_EACH:]))


def test_ecd_holds_one_float32_matrix():
    # pair-large's shape: 2000 + 2000 points at dim 32
    rng = np.random.default_rng(0)
    a, b = FeatureSet(rng.standard_normal((2000, 32))), FeatureSet(rng.standard_normal((2000, 32)))
    ecd(FeatureSet(a.points[:20]), FeatureSet(b.points[:20]), 3)  # scipy's import is not traced
    tracemalloc.start()
    try:
        ecd(a, b, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 4000 * 4000 * 8
