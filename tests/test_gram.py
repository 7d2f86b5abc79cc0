"""Pooled distances from one Gram product, certified by a proven band.

At `_GRAM_MIN_DIM` features and above, a comparison takes its pooled
matrix from BLAS. Every result that reads it must be the strip path's to
the bit: the band is checked against exact rational distances, and each
consumer (the k-MST, COV and MMD) is compared with the strip path on
pools built to defeat the band. The threshold is lowered to 1 here, so
small pools take the Gram path.
"""

import importlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit import (
    DimensionMismatch,
    DisconnectedError,
    FeatureSet,
    NonFiniteInput,
    distribution_grid,
    ecd,
    ecd_subsampled,
    pairwise_distances,
)

metricspace = importlib.import_module("ecdkit.metricspace")
experiments = importlib.import_module("ecdkit.experiments")

N_EACH, DIM, K = 40, 24, 5


@pytest.fixture
def gram(monkeypatch):
    monkeypatch.setattr(metricspace, "_GRAM_MIN_DIM", 1)


def strip_path(run, *args):
    """run(*args) with every comparison on the strip path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_GRAM_MIN_DIM", math.inf)
        return run(*args)


def gram_path(run, *args):
    """run(*args) with the Gram path from dim 1, and how many strip
    matrices it computed (each one is a fallback)."""
    fallbacks = []
    real = metricspace.pairwise_distances

    def spy(a, b):
        fallbacks.append(a.n_points + b.n_points)
        return real(a, b)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_GRAM_MIN_DIM", 1)
        m.setattr(metricspace, "pairwise_distances", spy)
        return run(*args), len(fallbacks)


def pool(kind, seed=0):
    """Two sets of N_EACH points at DIM of one named kind."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((2 * N_EACH, DIM))
    if kind == "binary":
        pts = rng.choice([-1.0, 1.0], size=pts.shape)
    elif kind == "duplicates":
        pts = pts[rng.integers(0, N_EACH // 2, len(pts))]
    elif kind == "offset":
        pts += 1e6
    elif kind == "near-tie":
        # the first set's point 0 has two nearest points in the second set,
        # mirrored about it and then one ulp apart: Prim's first pick and
        # COV's first row argmin both hang on them
        step = 0.01 * rng.standard_normal(DIM)
        pts[N_EACH], pts[N_EACH + 1] = pts[0] + step, pts[0] - step
        pts[N_EACH + 1, 0] = np.nextafter(pts[N_EACH + 1, 0], np.inf)
    elif kind == "fortran-order":
        pts = np.asfortranarray(pts)
    elif kind == "integer-and-gaussian":
        pts[:N_EACH] = rng.integers(-50, 51, (N_EACH, DIM))
    elif kind in ("integral-first-row", "integral-but-last-row"):
        # counts, with the Gaussian draw added to the first set's other
        # rows, or to its last one
        noisy = np.s_[1:N_EACH] if kind == "integral-first-row" else np.s_[N_EACH - 1]
        counts = rng.integers(-50, 51, pts.shape).astype(np.float64)
        counts[noisy] += pts[noisy]
        pts = counts
    elif kind == "at-the-bound":
        # integer points at dim 2, well apart; the largest squared norm is
        # 2^51, so 4 max q is 2^53
        pts = rng.integers(-2**24, 2**24, (2 * N_EACH, 2)).astype(np.float64)
        pts[0] = 2.0**25, 2.0**25
    return FeatureSet(pts[:N_EACH]), FeatureSet(pts[N_EACH:])


#: pools beside the exact path of integer features, which take the banded one
NEAR_EXACT = ["integer-and-gaussian", "integral-first-row", "integral-but-last-row",
              "at-the-bound"]
POOLS = ["gaussian", "binary", "duplicates", "offset", "near-tie", "fortran-order", *NEAR_EXACT]
#: the pools that compute no strip matrix: the band proves every order, or
#: integer features make the Gram product exact; each other one falls back once
CERTIFIED = {"gaussian", "fortran-order", "binary", *NEAR_EXACT}


def graph_bytes(report):
    g = report.graph
    return b"".join(part.tobytes() for part in (g.ei, g.ej, g.weight, g.layer))


@pytest.mark.parametrize("kind", POOLS)
def test_ecd_matches_strip_path(kind):
    a, b = pool(kind)
    want = strip_path(ecd, a, b, K)
    got, fallbacks = gram_path(ecd, a, b, K)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got) == graph_bytes(want)
    assert fallbacks == (0 if kind in CERTIFIED else 1)


@pytest.mark.parametrize("kind", POOLS)
def test_sweep_cell_matches_strip_path(kind, monkeypatch):
    # the cell's ECD, COV and MMD on this pool instead of its own samples
    monkeypatch.setattr(experiments, "_pair", lambda *cell: pool(kind))
    args = (0, DIM, 1.0, N_EACH, K)
    want = strip_path(experiments._sweep_cell, args)
    got, fallbacks = gram_path(experiments._sweep_cell, args)
    assert [(r.measure_name, r.value.hex()) for r in got] == [
        (r.measure_name, r.value.hex()) for r in want
    ]
    assert fallbacks == (0 if kind in CERTIFIED else 1)


def test_subsampled_rounds_match_strip_path():
    a, b = pool("gaussian")
    big = FeatureSet(np.concatenate((a.points, pool("gaussian", seed=1)[0].points)))
    want = strip_path(ecd_subsampled, big, b, K, 3, 7)
    got, fallbacks = gram_path(ecd_subsampled, big, b, K, 3, 7)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got) == graph_bytes(want)
    assert fallbacks == 0


def test_grid_cells_match_strip_path():
    # binary cells tie at once and fall back; Gaussian and uniform ones certify
    def run():
        return distribution_grid(dim=DIM, n=30, k=3, seed=4, workers=2).rows

    want = strip_path(run)
    got, fallbacks = gram_path(run)
    assert got == want
    assert [r.value.hex() for r in got] == [r.value.hex() for r in want]
    assert 0 < fallbacks < len(experiments.GRID_PAIRS)


def test_huge_norms_fall_back_and_score(gram):
    # a largest squared norm of 3e307 could overflow the Gram path's
    # intermediates; every distance is below 2 sqrt(3e307), which is finite
    a, b = pool("gaussian")
    pts = np.concatenate((a.points, b.points))
    pts *= math.sqrt(3e307 / np.max(np.einsum("ij,ij->i", pts, pts)))
    a, b = FeatureSet(pts[:N_EACH]), FeatureSet(pts[N_EACH:])
    assert type(metricspace._pooled_distances(a, b)) is metricspace.DistanceMatrix
    got, want = ecd(a, b, K), strip_path(ecd, a, b, K)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got) == graph_bytes(want)


def test_same_errors_on_both_paths():
    a, b = pool("gaussian")
    cases = [
        (DimensionMismatch, FeatureSet(a.points[:, :-1]), b, K),
        (NonFiniteInput, FeatureSet(a.points * 1e160), FeatureSet(b.points * 1e160), K),
        (DisconnectedError, FeatureSet(a.points[:6]), FeatureSet(b.points[:6]), 7),
    ]
    for error, x, y, k in cases:
        raised = []
        for run in (strip_path, lambda *args: gram_path(*args)[0]):
            with pytest.raises(error) as info:
                run(ecd, x, y, k)
            raised.append((str(info.value), getattr(info.value, "layer", None)))
        assert raised[0] == raised[1]
    assert raised[0][1] is not None  # the DisconnectedError names its layer


def test_below_the_threshold_is_the_strip_path():
    a, b = pool("gaussian")
    a, b = FeatureSet(a.points[:, :3]), FeatureSet(b.points[:, :3])
    d = metricspace._pooled_distances(a, b)
    assert type(d) is metricspace.DistanceMatrix
    assert d.values.tobytes() == pairwise_distances(a, b).values.tobytes()


def test_matrix_is_exactly_symmetric_for_strided_sets(gram):
    # every other column of a wider array: at this size BLAS forms a
    # strided a a^T as a general product, whose two triangles differ
    pts = np.random.default_rng(5).standard_normal((200, 1400))[:, ::2]
    assert not pts.flags.c_contiguous and not pts.flags.f_contiguous
    a, b = FeatureSet(pts[:100]), FeatureSet(pts[100:])
    d = metricspace._pooled_distances(a, b)
    assert isinstance(d, metricspace._BandedDistances)
    assert np.array_equal(d.values, d.values.T)
    copies = FeatureSet(a.points.copy()), FeatureSet(b.points.copy())
    assert d.values.tobytes() == metricspace._pooled_distances(*copies).values.tobytes()


def test_exact_pairs_are_strip_entries(gram):
    a, b = pool("gaussian")
    d = metricspace._pooled_distances(a, b)
    assert isinstance(d, metricspace._BandedDistances)
    exact = pairwise_distances(a, b).values
    rng = np.random.default_rng(3)
    lo, hi = np.sort(rng.integers(0, 2 * N_EACH, (2, 500)), axis=0)
    assert d.pairs(lo, hi).tobytes() == exact[lo, hi].tobytes()


def integer_pool(kind, dim, seed=0):
    """Two sets of N_EACH integer-valued points at dim of one named kind."""
    rng = np.random.default_rng(seed)
    shape = (2 * N_EACH, dim)
    pts = {
        "binary": lambda: rng.choice([-1, 1], size=shape),
        "ternary": lambda: rng.integers(0, 3, shape),
        "occupancy": lambda: rng.random(shape) < 0.1,
        "signed-count": lambda: rng.integers(-50, 51, shape),
        "wide": lambda: rng.integers(1 - 2**20, 2**20, shape),
    }[kind]().astype(np.float64)
    return FeatureSet(pts[:N_EACH]), FeatureSet(pts[N_EACH:])


@pytest.mark.parametrize("dim", [1, DIM, 300])
@pytest.mark.parametrize("kind", ["binary", "ternary", "occupancy", "signed-count", "wide"])
def test_integer_features_give_an_exact_matrix(gram, kind, dim):
    a, b = integer_pool(kind, dim)
    d = metricspace._pooled_distances(a, b)
    assert type(d) is metricspace.DistanceMatrix
    assert d.values.tobytes() == pairwise_distances(a, b).values.tobytes()


def test_ecd_on_integer_features_builds_no_strip_matrix(monkeypatch):
    # at the shipped threshold: ±1 features at dim 300 take the Gram path
    a, b = integer_pool("binary", 300, seed=1)
    want = strip_path(ecd, a, b, K)
    built = []
    real = metricspace.pairwise_distances
    monkeypatch.setattr(metricspace, "pairwise_distances", lambda x, y: built.append(1) or real(x, y))
    got = ecd(a, b, K)
    assert built == []
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert graph_bytes(got) == graph_bytes(want)


def test_one_below_the_bound_is_exact(gram):
    a, b = pool("at-the-bound")
    below = a.points.copy()
    below[0, 1] -= 1.0
    a = FeatureSet(below)
    assert 4 * max(int(v) ** 2 + int(w) ** 2 for v, w in below) < 2**53
    d = metricspace._pooled_distances(a, b)
    assert type(d) is metricspace.DistanceMatrix
    assert d.values.tobytes() == pairwise_distances(a, b).values.tobytes()


@pytest.mark.parametrize("kind", NEAR_EXACT)
def test_pools_beside_the_exact_path_are_banded(gram, kind):
    a, b = pool(kind)
    assert 4 * max(np.einsum("ij,ij->i", p, p).max() for p in (a.points, b.points)) <= 2**53
    assert isinstance(metricspace._pooled_distances(a, b), metricspace._BandedDistances)


def test_integrality_check_copies_no_set():
    x = np.random.default_rng(14).integers(-3, 4, (1000, 1000)).astype(np.float64)
    tracemalloc.start()
    try:
        assert metricspace._integral(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 8


GAP = 1e-9


def five_nodes(case):
    """A 5-node matrix whose Prim pass from node 0 has gaps of at least 1,
    but for one pair of values GAP apart: the first pick against its
    runner-up, or a key update just above or just below its rival."""
    upper = {(0, 1): 1.0, (0, 2): 3.0, (0, 3): 5.0, (0, 4): 7.0, (1, 2): 4.0, (1, 3): 6.0,
             (1, 4): 8.0, (2, 3): 9.0, (2, 4): 10.0, (3, 4): 11.0}
    if case == "pick":
        upper[0, 2] = 1.0 + GAP
    else:  # node 1 joins first; its edge to node 3 rivals node 0's, at 5
        upper[1, 3] = 5.0 + (GAP if case == "update-above" else -GAP)
    values = np.zeros((5, 5))
    for (i, j), w in upper.items():
        values[i, j] = values[j, i] = w
    return metricspace.DistanceMatrix(values)


@pytest.mark.parametrize("case", ["pick", "update-above", "update-below"])
def test_prim_refuses_only_within_the_band(case):
    spanning = importlib.import_module("ecdkit.spanning")
    d, index = five_nodes(case), spanning._no_exclusions(5)
    with pytest.raises(spanning._Uncertified):
        spanning._prim(d, *index, GAP)  # two values 2 * band apart or closer
    narrow = spanning._prim(d, *index, GAP / 4)
    assert all(np.array_equal(got, want) for got, want in zip(narrow, spanning._prim(d, *index)))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 7),
    mantissa=st.integers(1, 1023),
    exponent=st.integers(-30, 0),
    gap=st.sampled_from([1, 2, 3, 5]),
    steps=st.permutations(range(21)),
    ties=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=4),
    negative_zero=st.booleans(),
)
def test_banded_prim_is_exact_or_refuses(n, mantissa, exponent, gap, steps, ties,
                                         negative_zero):
    # entries are distinct multiples of gap * band, with planted exact
    # ties; gap 1 or 2 puts some exactly 2 band apart. band is dyadic, so
    # every entry, raised key and difference is exact: the pass may only
    # refuse where two entries lie within the width, 2 band, of each other
    spanning = importlib.import_module("ecdkit.spanning")
    band = mantissa * 2.0**exponent
    steps = list(steps)
    for source, target in ties:
        steps[target] = steps[source]
    upper = np.array(steps[:n * (n - 1) // 2]) * (gap * band)
    if negative_zero:
        upper[upper == 0.0] = -0.0
    values, (i, j) = np.zeros((n, n)), np.triu_indices(n, 1)
    values[i, j] = values[j, i] = upper
    d, index = metricspace.DistanceMatrix(values), spanning._no_exclusions(n)
    exact = spanning._prim(d, *index)
    gaps = np.abs(np.subtract.outer(upper, upper))[np.triu_indices(upper.size, 1)]
    try:
        lo, hi, weight = spanning._prim(d, *index, band)
    except spanning._Uncertified:
        assert gaps.min(initial=np.inf) <= 2.0 * band  # never when 4 band apart
        return
    assert lo.tobytes() == exact[0].tobytes() and hi.tobytes() == exact[1].tobytes()
    assert weight.tobytes() == exact[2].tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_argmin_refuses_only_within_the_band(axis):
    setmeasures = importlib.import_module("ecdkit.setmeasures")
    block = np.array([[1.0, 1.0 + GAP, 3.0], [2.0, 5.0, 7.0], [1.0 + GAP, 6.0, 8.0]])
    assert setmeasures._certified_argmin(block, axis, GAP) is False
    assert setmeasures._certified_argmin(block, axis, GAP / 4) is True


def exact_squared(x, y):
    return sum((Fraction(float(p)) - Fraction(float(q))) ** 2 for p, q in zip(x, y))


def within(value, band, squared):
    """|value - sqrt(squared)| <= band, decided in exact arithmetic."""
    v, w = Fraction(value), Fraction(band)
    return max(v - w, Fraction(0)) ** 2 <= squared <= (v + w) ** 2


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(2, 5),
    dim=st.integers(1, 8),
    offset=st.sampled_from([0.0, 1.0, -3.5, 1e6]),
    spread=st.integers(-3, 3),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_holds_against_exact_distances(n, m, dim, offset, spread, duplicate, seed):
    # mixed scales: each column is scaled by its own power of ten
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-spread, spread + 1, dim) if spread > 0 else 10.0 ** spread
    pts = rng.standard_normal((n + m, dim)) * scales + offset
    if duplicate:
        pts[-1] = pts[0]
    a, b = FeatureSet(pts[:n]), FeatureSet(pts[n:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metricspace, "_GRAM_MIN_DIM", 1)
        mp.setattr(metricspace, "_BAND_LIMIT", math.inf)  # keep every band, however wide
        d = metricspace._pooled_distances(a, b)
    assert isinstance(d, metricspace._BandedDistances)
    assert np.array_equal(d.values, d.values.T) and not np.diagonal(d.values).any()
    exact = pairwise_distances(a, b).values
    for i in range(n + m):
        for j in range(i + 1, n + m):
            squared = exact_squared(pts[i], pts[j])
            assert abs(Fraction(d.values[i, j]) - Fraction(exact[i, j])) <= Fraction(d.band)
            assert within(d.values[i, j], d.band, squared)
            assert within(exact[i, j], d.band, squared)
