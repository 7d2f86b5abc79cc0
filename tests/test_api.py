"""The public surface: names in ecdkit.__all__ and the call signature of
each. A rewrite that drops, renames or reshapes a public name fails here;
an intended API change edits these tables and is listed in CHANGES.md."""

import inspect

import pytest

import ecdkit

NAMES = [
    "AsymmetryError",
    "DEFAULT_K",
    "DEFAULT_ROUNDS",
    "DimensionMismatch",
    "DisconnectedError",
    "DistanceMatrix",
    "DistributionSpec",
    "EcdReport",
    "EcdkitError",
    "EdgeCounts",
    "EmptySet",
    "ExperimentRow",
    "ExperimentTable",
    "FeatureSet",
    "GaussianSummary",
    "GeneratedSetTooSmall",
    "InputError",
    "InvalidK",
    "InvalidSpec",
    "InvalidTrials",
    "MeasureResult",
    "NegativeDistanceError",
    "NoConvergence",
    "NonFiniteInput",
    "NonSquareError",
    "NonzeroDiagonalError",
    "NotPSD",
    "NullMoments",
    "NumericError",
    "PooledLabels",
    "SchemaError",
    "SingularCovariance",
    "SizeMismatch",
    "SpanningGraph",
    "TooFewSamples",
    "coverage",
    "cross_distances",
    "degree_statistic",
    "derive_seed",
    "distribution_grid",
    "ecd",
    "ecd_from_distances",
    "ecd_statistic",
    "ecd_subsampled",
    "ecd_subsampled_from_distances",
    "edge_counts",
    "exhaustive_moments",
    "fit_gaussian",
    "frechet_gaussian",
    "kmst",
    "load_distance_csv",
    "load_feature_csv",
    "measures_from_cross",
    "measures_from_features",
    "mmd",
    "mst",
    "null_moments",
    "pairwise_distances",
    "permutation_moments",
    "permutation_samples",
    "sample",
    "validate_distance_matrix",
    "variance_sweep",
]

SIGNATURES = {
    "DisconnectedError": "(message, layer=None)",
    "DistanceMatrix": "(values: 'np.ndarray') -> None",
    "DistributionSpec": "(kind: 'str', dim: 'int', variance: 'float' = 1.0) -> None",
    "EcdReport": (
        "(statistic: 'float', counts: 'EdgeCounts', moments: 'NullMoments', k: 'int', "
        "n: 'int', m: 'int', seed: 'int | None' = None, "
        "subsample_rounds: 'int | None' = None, "
        "graph: 'SpanningGraph | None' = None) -> None"
    ),
    "EdgeCounts": "(r1: 'int', r2: 'int', r12: 'int') -> None",
    "ExperimentRow": (
        "(experiment_id: 'str', kind_a: 'str', kind_b: 'str', dim: 'int', "
        "variance_a: 'float', measure_name: 'str', value: 'float', seed: 'int', "
        "n: 'int', m: 'int', k: 'int') -> None"
    ),
    "ExperimentTable": "(rows: 'tuple') -> None",
    "FeatureSet": "(points: 'np.ndarray') -> None",
    "GaussianSummary": (
        "(mean: 'np.ndarray', covariance: 'np.ndarray', sample_count: 'int') -> None"
    ),
    "MeasureResult": "(coverage: 'float', mmd: 'float', frechet: 'float | None') -> None",
    "NullMoments": (
        "(mu1: 'float', mu2: 'float', sigma: 'np.ndarray', c: 'float', "
        "n_edges: 'int') -> None"
    ),
    "PooledLabels": "(n: 'int', m: 'int') -> None",
    "SingularCovariance": "(message, determinant=None)",
    "SpanningGraph": (
        "(ei: 'np.ndarray', ej: 'np.ndarray', weight: 'np.ndarray', layer: 'np.ndarray', "
        "n_nodes: 'int', k: 'int') -> None"
    ),
    "coverage": "(a: 'FeatureSet', b: 'FeatureSet') -> 'float'",
    "cross_distances": "(a: 'FeatureSet', b: 'FeatureSet') -> 'np.ndarray'",
    "degree_statistic": "(g: 'SpanningGraph') -> 'float'",
    "derive_seed": "(base_seed: 'int', *parts) -> 'int'",
    "distribution_grid": (
        "(dim: 'int' = 100, n: 'int' = 1000, k: 'int' = 10, seed: 'int' = 0, "
        "workers: 'int | None' = None) -> 'ExperimentTable'"
    ),
    "ecd": "(a: 'FeatureSet', b: 'FeatureSet', k: 'int' = 10) -> 'EcdReport'",
    "ecd_from_distances": (
        "(d: 'DistanceMatrix', labels: 'PooledLabels', k: 'int' = 10) -> 'EcdReport'"
    ),
    "ecd_statistic": "(counts: 'EdgeCounts', moments: 'NullMoments') -> 'float'",
    "ecd_subsampled": (
        "(a_large: 'FeatureSet', b: 'FeatureSet', k: 'int' = 10, rounds: 'int' = 10, "
        "seed: 'int' = 0) -> 'EcdReport'"
    ),
    "ecd_subsampled_from_distances": (
        "(d: 'DistanceMatrix', labels: 'PooledLabels', k: 'int' = 10, "
        "rounds: 'int' = 10, seed: 'int' = 0) -> 'EcdReport'"
    ),
    "edge_counts": "(g: 'SpanningGraph', labels: 'PooledLabels') -> 'EdgeCounts'",
    "exhaustive_moments": "(g: 'SpanningGraph', n: 'int', m: 'int') -> 'NullMoments'",
    "fit_gaussian": "(x: 'FeatureSet') -> 'GaussianSummary'",
    "frechet_gaussian": "(p: 'GaussianSummary', q: 'GaussianSummary') -> 'float'",
    "kmst": "(d: 'DistanceMatrix', k: 'int' = 10) -> 'SpanningGraph'",
    "load_distance_csv": "(path, tolerance: 'float' = 1e-09) -> 'DistanceMatrix'",
    "load_feature_csv": "(path) -> 'FeatureSet'",
    "measures_from_cross": "(cross) -> 'MeasureResult'",
    "measures_from_features": "(a: 'FeatureSet', b: 'FeatureSet') -> 'MeasureResult'",
    "mmd": "(a: 'FeatureSet', b: 'FeatureSet') -> 'float'",
    "mst": "(d: 'DistanceMatrix')",
    "null_moments": "(g: 'SpanningGraph', n: 'int', m: 'int') -> 'NullMoments'",
    "pairwise_distances": "(a: 'FeatureSet', b: 'FeatureSet') -> 'DistanceMatrix'",
    "permutation_moments": (
        "(g: 'SpanningGraph', n: 'int', m: 'int', trials: 'int', "
        "seed: 'int') -> 'NullMoments'"
    ),
    "permutation_samples": (
        "(g: 'SpanningGraph', n: 'int', m: 'int', trials: 'int', "
        "seed: 'int') -> 'np.ndarray'"
    ),
    "sample": "(spec: 'DistributionSpec', count: 'int', seed: 'int') -> 'FeatureSet'",
    "validate_distance_matrix": "(raw, tolerance: 'float' = 1e-09) -> 'DistanceMatrix'",
    "variance_sweep": (
        "(dims=(1, 10, 100, 1000), variances=None, n: 'int' = 500, k: 'int' = 10, "
        "seed: 'int' = 0, workers: 'int | None' = None) -> 'ExperimentTable'"
    ),
}

ERROR_BASES = {
    "AsymmetryError": "InputError",
    "DimensionMismatch": "InputError",
    "DisconnectedError": "InputError",
    "EcdkitError": "Exception",
    "EmptySet": "InputError",
    "GeneratedSetTooSmall": "InputError",
    "InputError": "EcdkitError",
    "InvalidK": "InputError",
    "InvalidSpec": "InputError",
    "InvalidTrials": "InputError",
    "NegativeDistanceError": "InputError",
    "NoConvergence": "NumericError",
    "NonFiniteInput": "InputError",
    "NonSquareError": "InputError",
    "NonzeroDiagonalError": "InputError",
    "NotPSD": "NumericError",
    "NumericError": "EcdkitError",
    "SchemaError": "InputError",
    "SingularCovariance": "NumericError",
    "SizeMismatch": "InputError",
    "TooFewSamples": "InputError",
}

CONSTANTS = {"DEFAULT_K": 10, "DEFAULT_ROUNDS": 10}


def test_public_names():
    assert sorted(ecdkit.__all__) == NAMES
    assert all(hasattr(ecdkit, name) for name in NAMES)


def test_every_public_name_is_pinned():
    pinned = set(SIGNATURES) | set(ERROR_BASES) | set(CONSTANTS)
    assert pinned == set(NAMES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    assert str(inspect.signature(getattr(ecdkit, name))) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(ERROR_BASES))
def test_error_taxonomy(name):
    assert getattr(ecdkit, name).__mro__[1].__name__ == ERROR_BASES[name]


def test_constants():
    assert {name: getattr(ecdkit, name) for name in CONSTANTS} == CONSTANTS
