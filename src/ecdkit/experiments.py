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
from dataclasses import dataclass

import numpy as np

from .ecd import _seed, _stream, ecd, ecd_from_distances
from .errors import InvalidSpec, NonFiniteInput, SchemaError
from .metricspace import FeatureSet, PooledLabels, _decode_error, _integer, pairwise_distances
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

CSV_HEADER = (
    "experiment_id", "kind_a", "kind_b", "dim", "variance_a",
    "measure_name", "value", "seed", "n", "m", "k",
)

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
        if not np.isfinite(self.value):
            raise NonFiniteInput(
                f"measure {self.measure_name} produced non-finite value {self.value}"
            )
        # lock scalar types so CSV rendering is repr-stable
        for name in ("dim", "seed", "n", "m", "k"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "variance_a", float(self.variance_a))
        object.__setattr__(self, "value", float(self.value))


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
                writer.writerow([
                    r.experiment_id, r.kind_a, r.kind_b, str(r.dim),
                    repr(r.variance_a), r.measure_name, repr(r.value),
                    str(r.seed), str(r.n), str(r.m), str(r.k),
                ])

    @classmethod
    def from_csv(cls, path) -> "ExperimentTable":
        rows = []
        with open(path, newline="") as fh:
            try:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or tuple(header) != CSV_HEADER:
                    raise SchemaError(f"{path}: expected header {','.join(CSV_HEADER)}")
                for lineno, rec in enumerate(reader, start=2):
                    if not rec:
                        continue
                    if len(rec) != len(CSV_HEADER):
                        raise SchemaError(f"{path}: line {lineno} has {len(rec)} fields")
                    try:
                        rows.append(ExperimentRow(
                            experiment_id=rec[0], kind_a=rec[1], kind_b=rec[2],
                            dim=int(rec[3]), variance_a=float(rec[4]),
                            measure_name=rec[5], value=float(rec[6]),
                            seed=int(rec[7]), n=int(rec[8]), m=int(rec[9]), k=int(rec[10]),
                        ))
                    except ValueError as exc:
                        raise SchemaError(f"{path}: line {lineno}: {exc}") from None
            except UnicodeDecodeError:
                raise _decode_error(path, fh) from None
        if not rows:
            raise SchemaError(f"{path}: no data rows")
        return cls(rows=tuple(rows))


def default_sweep_variances() -> tuple:
    """21 evenly spaced variances on [0.5, 1.5]."""
    return tuple((50 + 5 * i) / 100 for i in range(21))


def _sweep_cell(args) -> list:
    base_seed, dim, var, n, k = args
    exp = "variance-sweep"
    seed_a = derive_seed(base_seed, exp, dim, var, "gaussian", "gaussian", "A")
    seed_b = derive_seed(base_seed, exp, dim, var, "gaussian", "gaussian", "B")
    a = sample(DistributionSpec("gaussian", dim, var), n, seed_a)
    b = sample(DistributionSpec("gaussian", dim, 1.0), n, seed_b)
    # one pooled matrix; its cross block is bitwise cross_distances(a, b)
    d = pairwise_distances(a, b)
    near = measures_from_cross(d.values[:n, n:])
    triples = [
        ("ECD", ecd_from_distances(d, PooledLabels(n, n), k).statistic),
        ("COV", near.coverage),
        ("MMD", near.mmd),
    ]
    return [
        ExperimentRow(
            experiment_id=exp, kind_a="gaussian", kind_b="gaussian", dim=dim,
            variance_a=var, measure_name=name, value=val,
            seed=base_seed, n=n, m=n, k=k,
        )
        for name, val in triples
    ]


def _grid_cell(args) -> list:
    base_seed, kind_a, kind_b, dim, n, k = args
    exp = "distribution-grid"
    seed_a = derive_seed(base_seed, exp, dim, 1.0, kind_a, kind_b, "A")
    seed_b = derive_seed(base_seed, exp, dim, 1.0, kind_a, kind_b, "B")
    a = sample(DistributionSpec(kind_a, dim, 1.0), n, seed_a)
    b = sample(DistributionSpec(kind_b, dim, 1.0), n, seed_b)
    pairs = [
        ("ECD", ecd(a, b, k).statistic),
        ("FID", frechet_gaussian(fit_gaussian(a), fit_gaussian(b))),
    ]
    return [
        ExperimentRow(
            experiment_id=exp, kind_a=kind_a, kind_b=kind_b, dim=dim,
            variance_a=1.0, measure_name=name, value=val,
            seed=base_seed, n=n, m=n, k=k,
        )
        for name, val in pairs
    ]


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
