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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .ecd import _seed, _stream, ecd, ecd_from_distances
from .errors import InputError, InvalidSpec, NonFiniteInput, SchemaError
from .metricspace import FeatureSet, PooledLabels, _integer, _records, pairwise_distances
from .setmeasures import fit_gaussian, frechet_gaussian, measures_from_cross
from .spanning import DEFAULT_K

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
        dim = _integer(self.dim, "dim")
        if dim < 1:
            raise InvalidSpec(f"dim must be at least 1, got {dim}")
        if not (float(self.variance) > 0.0):
            raise InvalidSpec(f"variance must be positive, got {self.variance}")
        if self.kind != "gaussian" and float(self.variance) != 1.0:
            raise InvalidSpec(f"{self.kind} distribution is fixed at unit variance")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "variance", float(self.variance))


def sample(spec: DistributionSpec, count: int, seed: int) -> FeatureSet:
    """Draw `count` i.i.d. points of the given law.

    Generator is PCG64 seeded through SeedSequence(seed); the gaussian
    path uses numpy's ziggurat standard-normal scaled by sqrt(variance).
    """
    count = _integer(count, "count")
    if count < 1:
        raise InvalidSpec(f"sample count must be at least 1, got {count}")
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
    fields = [str(_seed(base_seed))]
    for p in parts:
        if isinstance(p, float):
            fields.append(repr(p))
        else:
            fields.append(str(p))
    digest = hashlib.sha256(":".join(fields).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentRow:
    """One measure of one configuration. The fields, in order, are the CSV
    columns, and a field's type is how it is checked, written and parsed:
    int by operator.index (seed by the seed rule), float by float()."""

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
                value = float(value)
            elif f.type == "int":
                value = _seed(value) if f.name == "seed" else _integer(value, f.name)
            object.__setattr__(self, f.name, value)
        if not np.isfinite(self.value):
            raise NonFiniteInput(
                f"measure {self.measure_name} produced non-finite value {self.value}"
            )


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


def _sweep_cell(args) -> list:
    base_seed, dim, var, n, k = args
    cell = (base_seed, "variance-sweep", "gaussian", "gaussian", dim, var, n)
    a, b = _pair(*cell)
    # one pooled matrix; its cross block is bitwise cross_distances(a, b)
    d = pairwise_distances(a, b)
    near = measures_from_cross(d.values[:n, n:])
    return _rows(*cell, k, [
        ("ECD", ecd_from_distances(d, PooledLabels(n, n), k).statistic),
        ("COV", near.coverage),
        ("MMD", near.mmd),
    ])


def _grid_cell(args) -> list:
    base_seed, kind_a, kind_b, dim, n, k = args
    cell = (base_seed, "distribution-grid", kind_a, kind_b, dim, 1.0, n)
    a, b = _pair(*cell)
    return _rows(*cell, k, [
        ("ECD", ecd(a, b, k).statistic),
        ("FID", frechet_gaussian(fit_gaussian(a), fit_gaussian(b))),
    ])


def _run_cells(fn, configs, workers):
    workers = 1 if workers is None else _integer(workers, "workers")
    if workers < 1:
        raise InvalidSpec(f"workers must be at least 1, got {workers}")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map() yields results in submission order, so the table
            # layout never depends on completion order
            chunks = list(pool.map(fn, configs))
    else:
        chunks = [fn(c) for c in configs]
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
    n, k, seed = _integer(n, "n"), _integer(k, "k"), _seed(seed)
    if n < 4:
        raise InvalidSpec(f"sweep needs n >= 4 per set, got {n}")
    if variances is None:
        variances = default_sweep_variances()
    configs = [
        (seed, _integer(dim, "dim"), float(var), n, k)
        for dim in dims for var in variances
    ]
    return ExperimentTable(rows=_run_cells(_sweep_cell, configs, workers))


def distribution_grid(
    dim: int = DEFAULT_GRID_DIM,
    n: int = DEFAULT_GRID_N,
    k: int = DEFAULT_K,
    seed: int = 0,
    workers: int | None = None,
) -> ExperimentTable:
    """ECD and FID over the six unordered pairs of the three unit laws."""
    dim, n, k, seed = _integer(dim, "dim"), _integer(n, "n"), _integer(k, "k"), _seed(seed)
    if n < 4:
        raise InvalidSpec(f"grid needs n >= 4 per set, got {n}")
    configs = [(seed, kind_a, kind_b, dim, n, k) for kind_a, kind_b in GRID_PAIRS]
    return ExperimentTable(rows=_run_cells(_grid_cell, configs, workers))
