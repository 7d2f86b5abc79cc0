"""Synthetic study runners: the Gaussian variance sweep and the
zero-mean/unit-variance distribution grid.

Every random draw is tied to an explicit base seed, a non-negative
integer by operator.index like every seed in ecdkit. Each cell of
an experiment derives its own sub-seed by hashing the base seed together
with the cell coordinates (experiment id, dim, variance, kind pair,
role), so cells are statistically decoupled, reproducible in isolation,
and independent of execution order or worker count.
"""

from __future__ import annotations

import csv
import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .ecd import _seed, _stream, ecd_from_distances
from .errors import InputError, InvalidSpec, NonFiniteInput, SchemaError
from .metricspace import FeatureSet, PooledLabels, _integer, _pooled_distances, _real, _records
from .setmeasures import _measures_from_pooled, fit_gaussian, frechet_gaussian
from .spanning import DEFAULT_K, _check_k

KINDS = ("gaussian", "uniform", "binary")

#: Unordered kind pairs of the distribution grid, upper-triangle order.
GRID_PAIRS = (
    ("gaussian", "gaussian"),
    ("gaussian", "uniform"),
    ("gaussian", "binary"),
    ("uniform", "uniform"),
    ("uniform", "binary"),
    ("binary", "binary"),
)

DEFAULT_SWEEP_DIMS = (1, 10, 100, 1000)
DEFAULT_SWEEP_N = 500
DEFAULT_GRID_DIM = 100
DEFAULT_GRID_N = 1000

#: Half-width of U[-a, a] with unit variance: a^2/3 = 1.
UNIFORM_HALF_WIDTH = float(np.sqrt(3.0))


@dataclass(frozen=True)
class DistributionSpec:
    """One of the three synthetic laws, all zero mean.

    gaussian takes a free variance; uniform (U[-sqrt(3), sqrt(3)]) and
    binary (fair -1/+1 coin) are pinned to unit variance.
    """

    kind: str
    dim: int
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}; choose from {KINDS}")
        dim, variance = _integer(self.dim, "dim", 1), _real(self.variance, "variance")
        if not (0.0 < variance < math.inf):
            raise InvalidSpec(f"variance must be positive and finite, got {self.variance}")
        if self.kind != "gaussian" and variance != 1.0:
            raise InvalidSpec(f"{self.kind} distribution is fixed at unit variance")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "variance", variance)


def sample(spec: DistributionSpec, count: int, seed: int) -> FeatureSet:
    """Draw `count` i.i.d. points of the given law.

    Generator is PCG64 seeded through SeedSequence(seed); the gaussian
    path uses numpy's ziggurat standard-normal scaled by sqrt(variance).
    """
    count = _integer(count, "count", 1)
    rng = _stream(seed)
    shape = (count, spec.dim)
    if spec.kind == "gaussian":
        pts = rng.standard_normal(shape) * np.sqrt(spec.variance)
    elif spec.kind == "uniform":
        pts = rng.uniform(-UNIFORM_HALF_WIDTH, UNIFORM_HALF_WIDTH, shape)
    else:
        pts = (rng.integers(0, 2, shape) * 2 - 1).astype(np.float64)
    return FeatureSet(pts)


def derive_seed(base_seed: int, *parts) -> int:
    """64-bit sub-seed from the base seed and a tuple of cell coordinates.

    SHA-256 over a canonical string rendering, so the value is stable
    across platforms and numpy versions. Floats are rendered via repr
    (shortest round-trip form).
    """
    words = [str(_seed(base_seed))]
    words += [repr(p) if isinstance(p, float) else str(p) for p in parts]
    digest = hashlib.sha256(":".join(words).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentRow:
    """One measure of one configuration. The fields, in order, are the CSV
    columns, and a field's type is how it is checked, written and parsed:
    int by operator.index (seed by the seed rule), float by float() and
    finite."""

    experiment_id: str
    kind_a: str
    kind_b: str
    dim: int
    variance_a: float
    measure_name: str
    value: float
    seed: int
    n: int
    m: int
    k: int

    def __post_init__(self):
        # plain int and float so CSV rendering is repr-stable
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                value = _real(value, f.name)
                if not math.isfinite(value):
                    raise NonFiniteInput(
                        f"measure {self.measure_name} has non-finite {f.name} {value}"
                    )
            elif f.type == "int":
                value = _seed(value) if f.name == "seed" else _integer(value, f.name)
            object.__setattr__(self, f.name, value)


_FIELDS = fields(ExperimentRow)
CSV_HEADER = tuple(f.name for f in _FIELDS)
#: How a CSV field is read back as its column's type.
_PARSE = {"str": str, "int": int, "float": float}


@dataclass(frozen=True)
class ExperimentTable:
    """Flat measure table; one row per (configuration, measure)."""

    rows: tuple

    def __len__(self) -> int:
        return len(self.rows)

    def values(self, measure_name: str, **match) -> list:
        """Values of one measure in row order, filtered by column equality."""
        out = []
        for r in self.rows:
            if r.measure_name != measure_name:
                continue
            if all(getattr(r, key) == val for key, val in match.items()):
                out.append(r.value)
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                # repr is a float's shortest round-trip form
                writer.writerow([
                    (repr if f.type == "float" else str)(getattr(r, f.name)) for f in _FIELDS
                ])

    @classmethod
    def from_csv(cls, path) -> "ExperimentTable":
        """Table written by to_csv. Blank lines are skipped; any other line
        ExperimentRow rejects raises SchemaError naming the path and line."""
        rows = []
        with open(path, newline="") as fh:
            records = _records(fh, path)
            _, header = next(records, (None, None))
            if header is None or tuple(header) != CSV_HEADER:
                raise SchemaError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for lineno, rec in records:
                if len(rec) != len(CSV_HEADER):
                    raise SchemaError(f"{path}: line {lineno} has {len(rec)} fields")
                try:
                    rows.append(ExperimentRow(*(_PARSE[f.type](v) for f, v in zip(_FIELDS, rec))))
                except (ValueError, InputError) as exc:
                    raise SchemaError(f"{path}: line {lineno}: {exc}") from None
        if not rows:
            raise SchemaError(f"{path}: no data rows")
        return cls(rows=tuple(rows))


def default_sweep_variances() -> tuple:
    """21 evenly spaced variances on [0.5, 1.5]."""
    return tuple((50 + 5 * i) / 100 for i in range(21))


def _pair(base_seed, exp, kind_a, kind_b, dim, var_a, n) -> tuple:
    """A cell's two sets of n points, kind_b at unit variance, each seeded
    from the cell's coordinates."""
    cell = (base_seed, exp, dim, var_a, kind_a, kind_b)
    a = sample(DistributionSpec(kind_a, dim, var_a), n, derive_seed(*cell, "A"))
    b = sample(DistributionSpec(kind_b, dim, 1.0), n, derive_seed(*cell, "B"))
    return a, b


def _rows(base_seed, exp, kind_a, kind_b, dim, var_a, n, k, measures) -> list:
    """One ExperimentRow per (measure name, value) of a cell of n + n points."""
    return [
        ExperimentRow(exp, kind_a, kind_b, dim, var_a, name, value, base_seed, n, n, k)
        for name, value in measures
    ]


#: Taken around the stage of a cell that holds the GIL: the k-MST (with,
#: at high dimension, its certification and exact weight reads), its counts
#: and moments, and the grid's Fréchet term: two threads interleaving
#: Python loops only hand the GIL back and forth and lose to one. Of the
#: rest, only what releases the GIL overlaps another thread's scoring:
#: sampling, and the BLAS products of a Gram-product matrix. scipy's
#: `pdist` and `cdist` hold the GIL (scipy 1.17.1), so strip distances
#: below `metricspace._GRAM_MIN_DIM` run one thread at a time, lock or not.
_SCORING = threading.Lock()


def _sweep_cell(args) -> list:
    base_seed, dim, var, n, k = args
    cell = (base_seed, "variance-sweep", "gaussian", "gaussian", dim, var, n)
    # one pooled matrix; only a Gram-product one keeps the samples, for exact
    # reads, while the cell waits to score
    d = _pooled_distances(*_pair(*cell))
    near = _measures_from_pooled(d, n)
    with _SCORING:
        report = ecd_from_distances(d, PooledLabels(n, n), k)
    return _rows(*cell, k, [
        ("ECD", report.statistic),
        ("COV", near.coverage),
        ("MMD", near.mmd),
    ])


def _grid_cell(args) -> list:
    base_seed, kind_a, kind_b, dim, n, k = args
    cell = (base_seed, "distribution-grid", kind_a, kind_b, dim, 1.0, n)
    a, b = _pair(*cell)
    d = _pooled_distances(a, b)
    with _SCORING:
        report = ecd_from_distances(d, PooledLabels(n, n), k)
        fid = frechet_gaussian(fit_gaussian(a), fit_gaussian(b))
    return _rows(*cell, k, [
        ("ECD", report.statistic),
        ("FID", fid),
    ])


def _axis(values, name: str) -> tuple:
    """A sweep axis (dims or variances) as a non-empty tuple, else
    InvalidSpec: an empty axis would make a table with no rows."""
    try:
        axis = tuple(values)
    except TypeError:
        axis = ()
    if not axis:
        raise InvalidSpec(f"{name} must be a non-empty iterable, got {values!r}")
    return axis


def _run_cells(fn, configs, workers):
    """fn over configs on one pool of `workers` threads (1 when None): the
    calling thread runs no cell at any count."""
    workers = 1 if workers is None else _integer(workers, "workers", 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map() yields results in submission order, so the table
        # layout never depends on completion order
        chunks = list(pool.map(fn, configs))
    return tuple(row for chunk in chunks for row in chunk)


def variance_sweep(
    dims=DEFAULT_SWEEP_DIMS,
    variances=None,
    n: int = DEFAULT_SWEEP_N,
    k: int = DEFAULT_K,
    seed: int = 0,
    workers: int | None = None,
) -> ExperimentTable:
    """ECD, COV, MMD for gaussian pairs where only the first variance moves.

    The second set is always unit-variance gaussian of the same dim.
    """
    seed, k, n = _seed(seed), _check_k(k), PooledLabels(n, n).n
    if variances is None:
        variances = default_sweep_variances()
    dims, variances = _axis(dims, "dims"), _axis(variances, "variances")
    # every cell's law is checked before any cell runs
    specs = [DistributionSpec("gaussian", dim, var) for dim in dims for var in variances]
    configs = [(seed, s.dim, s.variance, n, k) for s in specs]
    return ExperimentTable(rows=_run_cells(_sweep_cell, configs, workers))


def distribution_grid(
    dim: int = DEFAULT_GRID_DIM,
    n: int = DEFAULT_GRID_N,
    k: int = DEFAULT_K,
    seed: int = 0,
    workers: int | None = None,
) -> ExperimentTable:
    """ECD and FID over the six unordered pairs of the three unit laws."""
    seed, k, n = _seed(seed), _check_k(k), PooledLabels(n, n).n
    for kind in KINDS:  # every law a cell draws from is checked before any cell runs
        spec = DistributionSpec(kind, dim)
    # spec.dim is an int, as derive_seed's str() rendering of a cell needs
    configs = [(seed, kind_a, kind_b, spec.dim, n, k) for kind_a, kind_b in GRID_PAIRS]
    return ExperimentTable(rows=_run_cells(_grid_cell, configs, workers))
