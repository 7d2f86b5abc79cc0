"""One rule per kind of value. Every integer argument goes through
`metricspace._integer` (an integer by operator.index, else InvalidSpec;
below its bound, the caller's error naming the argument and the bound);
every real scalar through `metricspace._real` (float(), else InvalidSpec);
every real array through `numerics._real_array` (a complex array raises
NonFiniteInput naming its dtype instead of losing its imaginary parts)."""

import importlib
import re
import warnings

import numpy as np
import pytest

from ecdkit import (
    DistanceMatrix,
    DistributionSpec,
    ExperimentRow,
    FeatureSet,
    GaussianSummary,
    InvalidK,
    InvalidSpec,
    InvalidTrials,
    NonFiniteInput,
    PooledLabels,
    SizeMismatch,
    distribution_grid,
    ecd_subsampled,
    ecd_subsampled_from_distances,
    kmst,
    load_distance_csv,
    measures_from_cross,
    pairwise_distances,
    permutation_moments,
    permutation_samples,
    sample,
    validate_distance_matrix,
    variance_sweep,
)
from ecdkit.ecd import _check_rounds, _seed
from ecdkit.metricspace import _integer, _real
from ecdkit.numerics import _real_array, psd_sqrt, sym_eig

experiments_module = importlib.import_module("ecdkit.experiments")


@pytest.fixture
def inputs():
    rng = np.random.default_rng(419)
    a = FeatureSet(rng.standard_normal((10, 2)))
    b = FeatureSet(rng.standard_normal((6, 2)))
    d = pairwise_distances(a, b)
    return {"a": a, "b": b, "d": d, "g": kmst(d, 1)}


# --- integers -----------------------------------------------------------------

@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), True], ids=repr)
def test_integer_returns_an_int(value):
    assert type(_integer(value, "x", 1)) is int and _integer(value, "x", 1) == int(value)


@pytest.mark.parametrize("value", [1.5, np.float64(3.0), "3", None], ids=repr)
def test_integer_rejects_non_integers_before_the_bound(value):
    with pytest.raises(InvalidSpec, match=f"^x must be an integer, got {re.escape(repr(value))}$"):
        _integer(value, "x", 4, InvalidTrials)


def test_integer_bound_raises_the_callers_error():
    with pytest.raises(InvalidTrials, match="^x must be at least 4, got 3$"):
        _integer(np.int64(3), "x", 4, InvalidTrials)
    with pytest.raises(InvalidSpec, match="^x must be at least 0, got -1$"):
        _integer(-1, "x", 0)
    assert _integer(-5, "x") == -5  # no bound without `low`


SPEC = DistributionSpec("gaussian", 2)

BOUNDS = {
    "spec-dim": (lambda inp: DistributionSpec("gaussian", 0), InvalidSpec,
                 "dim must be at least 1, got 0"),
    "sample-count": (lambda inp: sample(SPEC, 0, 1), InvalidSpec,
                     "count must be at least 1, got 0"),
    "sweep-workers": (lambda inp: variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1,
                                                 workers=0), InvalidSpec,
                      "workers must be at least 1, got 0"),
    "sweep-n": (lambda inp: variance_sweep(dims=(2,), variances=(1.0,), n=1, k=1),
                SizeMismatch, r"each set needs at least 2 points, got sizes \(1, 1\)"),
    "grid-n": (lambda inp: distribution_grid(dim=2, n=1, k=1), SizeMismatch,
               r"each set needs at least 2 points, got sizes \(1, 1\)"),
    "permutation-samples": (lambda inp: permutation_samples(inp["g"], 10, 6, 0, 0),
                            InvalidTrials, "trials must be at least 1, got 0"),
    "permutation-moments": (lambda inp: permutation_moments(inp["g"], 10, 6, 1, 0),
                            InvalidTrials, "trials must be at least 2, got 1"),
    "rounds": (lambda inp: ecd_subsampled(inp["a"], inp["b"], k=1, rounds=0, seed=0),
               InvalidTrials, "rounds must be at least 1, got 0"),
    "rounds-from-distances": (lambda inp: ecd_subsampled_from_distances(
        inp["d"], PooledLabels(10, 6), k=1, rounds=np.int64(-2), seed=0),
        InvalidTrials, "rounds must be at least 1, got -2"),
    "seed": (lambda inp: sample(SPEC, 3, -1), InvalidSpec, "seed must be at least 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(BOUNDS))
def test_every_bound_reads_the_same(case, inputs, monkeypatch):
    cells = []
    for name in ("_sweep_cell", "_grid_cell"):
        monkeypatch.setattr(experiments_module, name, lambda args: cells.append(args) or [])
    run, error, message = BOUNDS[case]
    with pytest.raises(error, match=f"^{message}$"):
        run(inputs)
    assert cells == []


def test_named_checks_apply_the_rule():
    assert _seed(np.uint64(2**64 - 1)) == 2**64 - 1
    with pytest.raises(InvalidSpec, match="^seed must be at least 0, got -3$"):
        _seed(np.int64(-3))
    with pytest.raises(InvalidTrials):
        _check_rounds(0)
    with pytest.raises(InvalidSpec, match="rounds must be an integer"):
        _check_rounds(1.0)


RUNNERS = {
    "variance_sweep": lambda **kw: variance_sweep(dims=(2,), variances=(1.0,), **kw),
    "distribution_grid": lambda **kw: distribution_grid(dim=2, **kw),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runner_error_order(runner, monkeypatch):
    # the seed, then k, then n by the split rule: its integer rule, then its bound
    cells = []
    for name in ("_sweep_cell", "_grid_cell"):
        monkeypatch.setattr(experiments_module, name, lambda args: cells.append(args) or [])
    run = RUNNERS[runner]
    with pytest.raises(InvalidSpec, match="seed must be at least 0"):
        run(n=1.5, k=0, seed=-1)
    with pytest.raises(InvalidK):
        run(n=1.5, k=0, seed=0)
    with pytest.raises(InvalidSpec, match="n must be an integer"):
        run(n=1.5, k=1, seed=0)
    with pytest.raises(SizeMismatch, match=r"got sizes \(1, 1\)"):
        run(n=1, k=1, seed=0)
    assert cells == []
    run(n=3, k=1, seed=0)  # n of 2 and 3 passes the split rule
    assert cells


# --- reals --------------------------------------------------------------------

@pytest.mark.parametrize("value", ["abc", None, [1.0], 1j], ids=repr)
def test_real_rejects_what_float_refuses(value):
    with pytest.raises(InvalidSpec, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
        _real(value, "x")


ROW = dict(
    experiment_id="variance-sweep", kind_a="gaussian", kind_b="gaussian", dim=3,
    variance_a=1.5, measure_name="ECD", value=2.0, seed=0, n=10, m=10, k=1,
)


@pytest.mark.parametrize("field", ["variance_a", "value"])
@pytest.mark.parametrize("bad", ["abc", None, [1.0]], ids=repr)
def test_experiment_row_names_a_non_numeric_real(field, bad):
    with pytest.raises(InvalidSpec, match=f"^{field} must be a real number"):
        ExperimentRow(**{**ROW, field: bad})


@pytest.mark.parametrize("bad", ["x", None, [0.1]], ids=repr)
def test_tolerance_must_be_a_real_number(bad, tmp_path):
    with pytest.raises(InvalidSpec, match="tolerance must be a real number"):
        validate_distance_matrix(np.zeros((3, 3)), tolerance=bad)
    # before the file is read: a missing file is not reached
    with pytest.raises(InvalidSpec, match="tolerance must be a real number"):
        load_distance_csv(tmp_path / "missing.csv", tolerance=bad)


def test_numeric_tolerances_keep_working():
    raw = np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]])
    for tolerance in (1e-2, np.float32(1e-2), 1):
        d = validate_distance_matrix(raw, tolerance=tolerance)
        assert d.values[0, 1] == (1.0 + (1.0 + 1e-3)) / 2.0


# --- real arrays --------------------------------------------------------------

COMPLEX = {
    "FeatureSet": lambda: FeatureSet([[1 + 2j, 3], [0, 1j]]),
    "DistanceMatrix": lambda: DistanceMatrix(np.zeros((2, 2), dtype=complex)),
    "validate_distance_matrix": lambda: validate_distance_matrix(
        np.array([[0, 1 + 1j], [1 + 1j, 0]])),
    "GaussianSummary-mean": lambda: GaussianSummary(np.array([1j, 0]), np.eye(2), 3),
    "GaussianSummary-covariance": lambda: GaussianSummary(np.zeros(2), np.eye(2) + 0j, 3),
    "measures_from_cross": lambda: measures_from_cross(np.array([[1.0 + 0j, 2.0]])),
    "sym_eig": lambda: sym_eig(np.eye(2, dtype=np.complex64)),
    "psd_sqrt": lambda: psd_sqrt(np.eye(2) * (1 + 0j)),
}


@pytest.mark.parametrize("entry", sorted(COMPLEX))
def test_complex_arrays_are_refused_not_truncated(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(NonFiniteInput, match=r"must be real, got dtype complex(64|128)"):
            COMPLEX[entry]()


@pytest.mark.parametrize("values", [[[1, 2], [3, 4]], np.arange(4.0).reshape(2, 2),
                                    np.ones((2, 2), dtype=np.float32), [[True, False]]],
                         ids=["int-list", "float64", "float32", "bool-list"])
def test_real_arrays_convert_as_before(values):
    out = _real_array(values, "x")
    assert out.dtype == np.float64
    assert np.array_equal(out, np.asarray(values, dtype=np.float64))
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        assert out is values  # no copy
