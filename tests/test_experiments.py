"""Seeded experiment runners and their CSV table format."""

import math
import re
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.spatial import distance

from ecdkit import (
    DistributionSpec,
    ExperimentRow,
    ExperimentTable,
    InvalidSpec,
    NonFiniteInput,
    SchemaError,
    coverage,
    derive_seed,
    distribution_grid,
    ecd,
    fit_gaussian,
    frechet_gaussian,
    mmd,
    sample,
    variance_sweep,
)
from ecdkit import experiments, metricspace
from ecdkit.experiments import (
    GRID_PAIRS,
    UNIFORM_HALF_WIDTH,
    _sweep_cell,
    default_sweep_variances,
)


class TestDistributionSpec:
    def test_valid_specs(self):
        DistributionSpec("gaussian", 3, 2.5)
        DistributionSpec("uniform", 1, 1.0)
        DistributionSpec("binary", 100, 1.0)

    @pytest.mark.parametrize(
        "kind,dim,var",
        [
            ("poisson", 3, 1.0),
            ("gaussian", 0, 1.0),
            ("gaussian", 3, 0.0),
            ("gaussian", 3, -1.0),
            ("uniform", 3, 2.0),
            ("binary", 3, 0.5),
            ("gaussian", 3, math.inf),
            ("gaussian", 3, math.nan),
            ("gaussian", 3, "x"),
            ("gaussian", 3, None),
        ],
    )
    def test_invalid_specs(self, kind, dim, var):
        with pytest.raises(InvalidSpec):
            DistributionSpec(kind, dim, var)

    def test_sample_count_validation(self):
        with pytest.raises(InvalidSpec):
            sample(DistributionSpec("gaussian", 2, 1.0), 0, seed=1)


class TestSampling:
    def test_binary_values_exact(self):
        pts = sample(DistributionSpec("binary", 4, 1.0), 200, seed=2).points
        assert set(np.unique(pts)) == {-1.0, 1.0}

    def test_uniform_bounds_and_variance(self):
        pts = sample(DistributionSpec("uniform", 3, 1.0), 5000, seed=3).points
        assert pts.min() >= -UNIFORM_HALF_WIDTH
        assert pts.max() <= UNIFORM_HALF_WIDTH
        assert pts.var() == pytest.approx(1.0, abs=0.05)

    def test_gaussian_moment_bands(self):
        # seed picked so the max-abs deviation over 1000 coordinates sits
        # inside the stated band; the bound is loose for typical draws
        pts = sample(DistributionSpec("gaussian", 1000, 1.0), 2000, seed=9).points
        mean_dev = np.abs(pts.mean(axis=0)).max()
        var_dev = np.abs(pts.var(axis=0, ddof=1) - 1.0).max()
        assert mean_dev < 0.08
        assert var_dev < 0.1

    def test_gaussian_variance_scaling(self):
        unit = sample(DistributionSpec("gaussian", 2, 1.0), 100, seed=4).points
        wide = sample(DistributionSpec("gaussian", 2, 4.0), 100, seed=4).points
        np.testing.assert_allclose(wide, unit * 2.0, rtol=1e-12)

    def test_deterministic_in_seed(self):
        spec = DistributionSpec("gaussian", 3, 1.0)
        one = sample(spec, 50, seed=11).points
        two = sample(spec, 50, seed=11).points
        other = sample(spec, 50, seed=12).points
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)


class TestDeriveSeed:
    def test_frozen_snapshot(self):
        # pinned values guard against accidental changes to the hashing
        # scheme; any change would silently reshuffle every experiment
        assert derive_seed(0, "variance-sweep", 10, 1.5, "gaussian", "gaussian", "A") \
            == 3193492898353311475
        assert derive_seed(7, "unit") == 12417452039120907244

    def test_parts_matter(self):
        seen = {
            derive_seed(0, "a"),
            derive_seed(0, "b"),
            derive_seed(1, "a"),
            derive_seed(0, "a", "b"),
            derive_seed(0, 1.0),
            derive_seed(0, 1),
        }
        assert len(seen) == 6

    def test_range(self):
        for s in (0, 1, 2**63, 2**64 - 1):
            v = derive_seed(s, "probe")
            assert 0 <= v < 2**64


ROW = dict(
    experiment_id="variance-sweep", kind_a="gaussian", kind_b="gaussian", dim=3,
    variance_a=1.5, measure_name="ECD", value=2.0, seed=0, n=10, m=10, k=1,
)
HEADER = "experiment_id,kind_a,kind_b,dim,variance_a,measure_name,value,seed,n,m,k\n"
LINE = "variance-sweep,gaussian,gaussian,3,1.5,ECD,2.0,0,10,10,1\n"


class TestExperimentRow:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            ExperimentRow(
                experiment_id="variance-sweep", kind_a="gaussian",
                kind_b="gaussian", dim=1, variance_a=1.0,
                measure_name="ECD", value=float("nan"),
                seed=0, n=10, m=10, k=1,
            )

    @pytest.mark.parametrize("field", ["variance_a", "value"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    def test_every_float_column_must_be_finite(self, field, bad):
        with pytest.raises(NonFiniteInput, match=f"non-finite {field} "):
            ExperimentRow(**{**ROW, field: bad})

    def test_scalar_coercion(self):
        row = ExperimentRow(
            experiment_id="variance-sweep", kind_a="gaussian",
            kind_b="gaussian", dim=np.int64(3), variance_a=np.float64(1.5),
            measure_name="ECD", value=np.float64(2.0),
            seed=np.int64(0), n=np.int64(10), m=np.int64(10), k=np.int64(1),
        )
        assert type(row.dim) is int
        assert type(row.variance_a) is float
        assert type(row.value) is float

    @pytest.mark.parametrize("field, bad", [
        ("dim", 2.5), ("dim", "3"), ("k", 1.5), ("n", "10"), ("seed", -1), ("seed", 1.5),
    ], ids=repr)
    def test_int_columns_take_integers_only(self, field, bad):
        with pytest.raises(InvalidSpec, match=field):
            ExperimentRow(**{**ROW, field: bad})

    def test_float_columns_take_float_of_the_value(self):
        row = ExperimentRow(**{**ROW, "value": "2"})
        assert type(row.value) is float and row.value == 2.0


@pytest.fixture(scope="module")
def tiny_sweep():
    return variance_sweep(
        dims=(2, 3), variances=(0.8, 1.0, 1.3), n=30, k=2, seed=5, workers=1
    )


class TestVarianceSweep:
    def test_row_inventory(self, tiny_sweep):
        assert len(tiny_sweep.rows) == 2 * 3 * 3
        names = {r.measure_name for r in tiny_sweep.rows}
        assert names == {"ECD", "COV", "MMD"}
        for row in tiny_sweep.rows:
            assert row.experiment_id == "variance-sweep"
            assert row.kind_a == "gaussian" and row.kind_b == "gaussian"
            assert row.seed == 5 and row.n == 30 and row.m == 30 and row.k == 2

    def test_deterministic_rerun(self, tiny_sweep):
        again = variance_sweep(
            dims=(2, 3), variances=(0.8, 1.0, 1.3), n=30, k=2, seed=5, workers=1
        )
        assert again.rows == tiny_sweep.rows

    def test_worker_count_is_invisible(self, tiny_sweep, tmp_path):
        threaded = variance_sweep(
            dims=(2, 3), variances=(0.8, 1.0, 1.3), n=30, k=2, seed=5, workers=3
        )
        serial_path = tmp_path / "serial.csv"
        threaded_path = tmp_path / "threaded.csv"
        tiny_sweep.to_csv(serial_path)
        threaded.to_csv(threaded_path)
        assert serial_path.read_bytes() == threaded_path.read_bytes()
        # both runners, two seeds: the CSV bytes never depend on the worker count
        runners = {
            "sweep": lambda seed, workers: variance_sweep(
                dims=(2, 3), variances=(0.8, 1.0, 1.3), n=30, k=2, seed=seed, workers=workers
            ),
            "grid": lambda seed, workers: distribution_grid(
                dim=3, n=40, k=2, seed=seed, workers=workers
            ),
        }
        for name, run in runners.items():
            for seed in (0, 17):
                written = set()
                for workers in (1, 2, 4):
                    path = tmp_path / f"{name}-{seed}-{workers}.csv"
                    run(seed, workers).to_csv(path)
                    written.add(path.read_bytes())
                assert len(written) == 1, (name, seed)

    def test_scoring_never_overlaps(self, monkeypatch):
        # a slow probe in place of the scorer: with four workers, cells that
        # reach it together must still enter it one at a time
        lock = threading.Lock()
        inside, entries, most = [0], [0], [0]
        score = experiments.ecd_from_distances

        def probe(*args, **kwargs):
            with lock:
                inside[0] += 1
                entries[0] += 1
                most[0] = max(most[0], inside[0])
            try:
                time.sleep(0.05)
                return score(*args, **kwargs)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setattr(experiments, "ecd_from_distances", probe)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so any overlap shows
        try:
            sweep = variance_sweep(dims=(2,), variances=(0.8, 1.0, 1.3, 1.5), n=12, k=1,
                                   seed=3, workers=4)
            grid = distribution_grid(dim=2, n=12, k=1, seed=3, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert entries[0] == 4 + len(GRID_PAIRS)
        assert len(sweep) == 4 * 3 and len(grid) == len(GRID_PAIRS) * 2

    @pytest.mark.parametrize("variances", [
        (1.0, 1.25, -1.0), (1.0, math.inf), (math.nan,), ("x",), (None,),
    ], ids=repr)
    def test_every_variance_is_checked_before_any_cell(self, variances, monkeypatch):
        cells = []
        monkeypatch.setattr(experiments, "_sweep_cell", lambda args: cells.append(args) or [])
        with pytest.raises(InvalidSpec, match="variance must be positive and finite"):
            variance_sweep(dims=(2, 3), variances=variances, n=8, k=1, seed=0, workers=1)
        assert cells == []

    def test_cells_reproducible_in_isolation(self, tiny_sweep):
        # recompute one cell from scratch with only its coordinates
        dim, var, n, k = 3, 1.3, 30, 2
        sa = derive_seed(5, "variance-sweep", dim, var, "gaussian", "gaussian", "A")
        sb = derive_seed(5, "variance-sweep", dim, var, "gaussian", "gaussian", "B")
        a = sample(DistributionSpec("gaussian", dim, var), n, sa)
        b = sample(DistributionSpec("gaussian", dim, 1.0), n, sb)
        expected = {
            "ECD": ecd(a, b, k).statistic,
            "COV": coverage(a, b),
            "MMD": mmd(a, b),
        }
        for name, want in expected.items():
            got = tiny_sweep.values(name, dim=dim, variance_a=var)
            assert got == [want]

    def test_cell_computes_distances_once(self, monkeypatch):
        # every pooled pair is computed exactly once, in whatever strips the
        # pooled matrix is filled; COV and MMD make no cross-distance call.
        # metricspace looks the kernels up in scipy at call time
        pairs = []
        original_pdist, original_cdist = distance.pdist, distance.cdist

        def pdist(x, *args, **kwargs):
            pairs.append(len(x) * (len(x) - 1) // 2)
            return original_pdist(x, *args, **kwargs)

        def cdist(xa, xb, *args, **kwargs):
            pairs.append(len(xa) * len(xb))
            return original_cdist(xa, xb, *args, **kwargs)

        monkeypatch.setattr(distance, "pdist", pdist)
        monkeypatch.setattr(distance, "cdist", cdist)
        n = 2 * metricspace._STRIP_ROWS + 30  # the pool spans several strips
        rows = _sweep_cell((5, 3, 1.3, n, 2))
        assert sum(pairs) == 2 * n * (2 * n - 1) // 2
        assert [r.measure_name for r in rows] == ["ECD", "COV", "MMD"]

    def test_cell_drops_its_samples_before_scoring(self, monkeypatch):
        # a cell waiting for the scoring lock holds its pooled matrix, not
        # the matrix plus the two sets it was computed from
        refs, alive = [], []
        pair, score = experiments._pair, experiments.ecd_from_distances

        def watched_pair(*args):
            sets = pair(*args)
            refs.extend(weakref.ref(s) for s in sets)
            return sets

        def watched_score(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return score(*args, **kwargs)

        monkeypatch.setattr(experiments, "_pair", watched_pair)
        monkeypatch.setattr(experiments, "ecd_from_distances", watched_score)
        rows = _sweep_cell((5, 3, 1.3, 20, 2))
        assert alive == [[False, False]]
        assert [r.measure_name for r in rows] == ["ECD", "COV", "MMD"]

    def test_default_variance_ladder(self):
        ladder = default_sweep_variances()
        assert ladder[0] == 0.5
        assert ladder[-1] == 1.5
        assert len(ladder) == 21
        steps = np.diff(ladder)
        np.testing.assert_allclose(steps, 0.05, rtol=1e-12)

    def test_tiny_n_rejected(self):
        with pytest.raises(InvalidSpec):
            variance_sweep(dims=(2,), variances=(1.0,), n=3, k=1, seed=0)


@pytest.fixture(scope="module")
def tiny_grid():
    return distribution_grid(dim=3, n=40, k=2, seed=8, workers=1)


class TestDistributionGrid:
    def test_row_inventory(self, tiny_grid):
        assert len(tiny_grid.rows) == len(GRID_PAIRS) * 2
        seen_pairs = []
        for row in tiny_grid.rows:
            if row.measure_name == "ECD":
                seen_pairs.append((row.kind_a, row.kind_b))
            assert row.experiment_id == "distribution-grid"
            assert row.variance_a == 1.0
        assert tuple(seen_pairs) == GRID_PAIRS

    def test_cells_reproducible_in_isolation(self, tiny_grid):
        kind_a, kind_b = "uniform", "binary"
        sa = derive_seed(8, "distribution-grid", 3, 1.0, kind_a, kind_b, "A")
        sb = derive_seed(8, "distribution-grid", 3, 1.0, kind_a, kind_b, "B")
        a = sample(DistributionSpec(kind_a, 3, 1.0), 40, sa)
        b = sample(DistributionSpec(kind_b, 3, 1.0), 40, sb)
        assert tiny_grid.values("ECD", kind_a=kind_a, kind_b=kind_b) == [
            ecd(a, b, 2).statistic
        ]
        assert tiny_grid.values("FID", kind_a=kind_a, kind_b=kind_b) == [
            frechet_gaussian(fit_gaussian(a), fit_gaussian(b))
        ]

    def test_deterministic_rerun(self, tiny_grid):
        again = distribution_grid(dim=3, n=40, k=2, seed=8, workers=2)
        assert again.rows == tiny_grid.rows


class TestTableSerialization:
    def test_csv_roundtrip(self, tiny_sweep, tmp_path):
        path = tmp_path / "table.csv"
        tiny_sweep.to_csv(path)
        back = ExperimentTable.from_csv(path)
        assert back.rows == tiny_sweep.rows

    def test_header_line(self, tiny_sweep, tmp_path):
        path = tmp_path / "table.csv"
        tiny_sweep.to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == (
            "experiment_id,kind_a,kind_b,dim,variance_a,"
            "measure_name,value,seed,n,m,k"
        )

    def test_from_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError):
            ExperimentTable.from_csv(path)

    def test_from_csv_rejects_short_row(self, tiny_sweep, tmp_path):
        path = tmp_path / "table.csv"
        tiny_sweep.to_csv(path)
        lines = path.read_text().splitlines()
        lines[1] = "variance-sweep,gaussian,gaussian,2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            ExperimentTable.from_csv(path)

    def test_from_csv_rejects_unparseable_value(self, tiny_sweep, tmp_path):
        path = tmp_path / "table.csv"
        tiny_sweep.to_csv(path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[6] = "not-a-number"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            ExperimentTable.from_csv(path)

    def test_from_csv_names_an_undecodable_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"experiment_id,x\n\xff\n")
        with pytest.raises(SchemaError, match=r"not valid .* text: byte 0xff at offset 16$"):
            ExperimentTable.from_csv(path)

    def test_from_csv_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "experiment_id,kind_a,kind_b,dim,variance_a,"
            "measure_name,value,seed,n,m,k\n"
        )
        with pytest.raises(SchemaError):
            ExperimentTable.from_csv(path)

    @pytest.mark.parametrize("column, bad", [
        (6, "nan"), (7, "-1"), (3, "2.5"), (4, "x"), (4, "inf"),
    ], ids=["nan-value", "negative-seed", "float-dim", "text-variance", "inf-variance"])
    def test_from_csv_names_path_and_line_of_a_rejected_row(self, tmp_path, column, bad):
        parts = LINE.rstrip("\n").split(",")
        parts[column] = bad
        path = tmp_path / "table.csv"
        path.write_text(HEADER + ",".join(parts) + "\n" + LINE)
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: line 2: "):
            ExperimentTable.from_csv(path)

    def test_from_csv_skips_blank_and_whitespace_lines(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("\n" + HEADER + "  \n" + LINE + " , \n\n" + LINE)
        table = ExperimentTable.from_csv(path)
        assert table.rows == (ExperimentRow(**ROW),) * 2

    def test_values_filter(self, tiny_grid):
        vals = tiny_grid.values("ECD")
        assert len(vals) == len(GRID_PAIRS)
        only = tiny_grid.values("FID", kind_a="binary", kind_b="binary")
        assert len(only) == 1


class TestIntegerSizes:
    """dim, dims, n and k are integers by operator.index, never truncated."""

    @pytest.mark.parametrize("dim", [2.5, np.float64(2.0), "2"], ids=repr)
    def test_spec_rejects_non_integer_dim(self, dim):
        with pytest.raises(InvalidSpec):
            DistributionSpec("gaussian", dim)

    @pytest.mark.parametrize("run", [
        lambda: variance_sweep(dims=(2.5,), variances=(1.0,), n=8, k=1, seed=0),
        lambda: variance_sweep(dims=(2,), variances=(1.0,), n=8.9, k=1, seed=0),
        lambda: variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1.5, seed=0),
        lambda: distribution_grid(dim=2.5, n=8, k=1, seed=0),
        lambda: distribution_grid(dim=2, n=8.9, k=1, seed=0),
        lambda: distribution_grid(dim=2, n=8, k=1.5, seed=0),
    ], ids=["sweep-dims", "sweep-n", "sweep-k", "grid-dim", "grid-n", "grid-k"])
    def test_runners_reject_non_integer_sizes(self, run, monkeypatch):
        cells = []
        for name in ("_sweep_cell", "_grid_cell"):
            monkeypatch.setattr(experiments, name, lambda args: cells.append(args) or [])
        with pytest.raises(InvalidSpec):
            run()
        assert cells == []

    def test_integral_numpy_sizes_keep_working(self):
        spec = DistributionSpec("gaussian", np.int32(3))
        assert type(spec.dim) is int and spec.dim == 3
        i = np.int64
        plain = variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1, seed=3, workers=1)
        numpy_sized = variance_sweep(
            dims=(i(2),), variances=(1.0,), n=i(8), k=i(1), seed=i(3), workers=1
        )
        assert numpy_sized.rows == plain.rows
        plain = distribution_grid(dim=2, n=8, k=1, seed=3, workers=1)
        numpy_sized = distribution_grid(dim=i(2), n=i(8), k=i(1), seed=i(3), workers=1)
        assert numpy_sized.rows == plain.rows


class TestEveryArgumentBeforeAnyCell:
    """A runner checks every argument before its first cell; an empty or
    non-iterable axis is an InvalidSpec, not a table with no rows."""

    @pytest.mark.parametrize("run, message", [
        (lambda: distribution_grid(dim=0, n=8, k=1, seed=0, workers=2),
         "dim must be at least 1, got 0"),
        (lambda: variance_sweep(dims=(0,), variances=(1.0,), n=8, k=1, seed=0),
         "dim must be at least 1, got 0"),
        (lambda: variance_sweep(dims=(), variances=(1.0,), n=8, k=1, seed=0),
         "dims must be a non-empty iterable, got \\(\\)"),
        (lambda: variance_sweep(dims=(2,), variances=(), n=8, k=1, seed=0),
         "variances must be a non-empty iterable, got \\(\\)"),
        (lambda: variance_sweep(dims=5, variances=(1.0,), n=8, k=1, seed=0),
         "dims must be a non-empty iterable, got 5"),
        (lambda: variance_sweep(dims=(2,), variances=1.0, n=8, k=1, seed=0),
         "variances must be a non-empty iterable, got 1.0"),
    ], ids=["grid-dim-0", "sweep-dim-0", "empty-dims", "empty-variances",
            "scalar-dims", "scalar-variances"])
    def test_rejected_before_any_cell(self, run, message, monkeypatch):
        cells = []
        for name in ("_sweep_cell", "_grid_cell"):
            monkeypatch.setattr(experiments, name, lambda args: cells.append(args) or [])
        with pytest.raises(InvalidSpec, match=message):
            run()
        assert cells == []

    def test_any_iterable_axis_gives_the_tuple_table(self):
        listed = variance_sweep(dims=[2, 3], variances=[1.0, 1.5], n=8, k=1, seed=2)
        generated = variance_sweep(dims=(d for d in (2, 3)), variances=iter((1.0, 1.5)),
                                   n=8, k=1, seed=2)
        tupled = variance_sweep(dims=(2, 3), variances=(1.0, 1.5), n=8, k=1, seed=2)
        assert listed.rows == generated.rows == tupled.rows
        assert len(tupled) == 2 * 2 * 3


class TestOneExecutor:
    """Cells run on a thread pool at every worker count, 1 included."""

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_caller_errstate_reaches_no_worker_count(self, workers, monkeypatch):
        # numpy's error state is per thread: a pool thread starts from numpy's
        # default, "warn", whatever the calling thread set
        seen = []
        monkeypatch.setattr(experiments, "_sweep_cell",
                            lambda args: seen.append(np.geterr()["over"]) or [])
        with np.errstate(over="raise"):
            variance_sweep(dims=(2,), variances=(1.0, 1.5), n=8, k=1, seed=0, workers=workers)
        assert seen == ["warn", "warn"]
