"""One seed rule at every seeded entry point: a seed is a non-negative
integer by operator.index; anything else raises InvalidSpec (CLI exit 2)
before any distance, graph, trial or experiment cell is computed. Sample
counts, trials, rounds, subsample and split sizes and worker counts are
integers by the same test, and a worker count is at least 1."""

import csv
import importlib
import json

import numpy as np
import pytest

from ecdkit import (
    DistributionSpec,
    FeatureSet,
    InvalidSpec,
    PooledLabels,
    SizeMismatch,
    derive_seed,
    distribution_grid,
    ecd_from_distances,
    ecd_subsampled,
    ecd_subsampled_from_distances,
    exhaustive_moments,
    kmst,
    null_moments,
    pairwise_distances,
    permutation_moments,
    permutation_samples,
    sample,
    variance_sweep,
)
from ecdkit.cli import main
from ecdkit.ecd import subsample_round_indices

ecd_module = importlib.import_module("ecdkit.ecd")
experiments_module = importlib.import_module("ecdkit.experiments")

REJECTED = [-1, 1.5, "3", [1, 2], np.float64(3.0)]
ACCEPTED = [0, 7, True, np.uint64(2**64 - 1), 2**70]


@pytest.fixture
def inputs():
    rng = np.random.default_rng(401)
    a = FeatureSet(rng.standard_normal((10, 2)))
    b = FeatureSet(rng.standard_normal((6, 2)))
    d = pairwise_distances(a, b)
    return {"a": a, "b": b, "d": d, "g": kmst(d, 1)}


@pytest.fixture
def calls(monkeypatch):
    """Names of the counted stages that ran: pooled distances, k-MST,
    permutation trials and experiment cells."""
    seen = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_pooled_distances", "kmst", "_within_counts"):
        counted(ecd_module, name)
    for name in ("_pooled_distances", "_sweep_cell", "_grid_cell"):
        counted(experiments_module, name)
    return seen


LIBRARY = {
    "permutation_samples": lambda x, s: permutation_samples(x["g"], 10, 6, trials=3, seed=s),
    "permutation_moments": lambda x, s: permutation_moments(x["g"], 10, 6, trials=3, seed=s),
    "subsample_round_indices": lambda x, s: subsample_round_indices(s, 0, 10, 6),
    "ecd_subsampled": lambda x, s: ecd_subsampled(x["a"], x["b"], k=1, rounds=2, seed=s),
    "ecd_subsampled_from_distances": lambda x, s: ecd_subsampled_from_distances(
        x["d"], PooledLabels(10, 6), k=1, rounds=2, seed=s
    ),
    "sample": lambda x, s: sample(DistributionSpec("gaussian", 2), 5, s),
    "derive_seed": lambda x, s: derive_seed(s, "probe"),
    "variance_sweep": lambda x, s: variance_sweep(
        dims=(2,), variances=(1.0,), n=8, k=1, seed=s, workers=1
    ),
    "distribution_grid": lambda x, s: distribution_grid(dim=2, n=8, k=1, seed=s, workers=1),
}


SPEC = DistributionSpec("gaussian", 2)

# counts that are not integers by operator.index, one entry point each
BAD_COUNTS = {
    "sample-float": lambda x: sample(SPEC, 2.5, 0),
    "sample-str": lambda x: sample(SPEC, "3", 0),
    "permutation_samples": lambda x: permutation_samples(x["g"], 10, 6, trials=2.5, seed=0),
    "permutation_moments": lambda x: permutation_moments(x["g"], 10, 6, trials=2.5, seed=0),
    "ecd_subsampled-float": lambda x: ecd_subsampled(x["a"], x["b"], k=1, rounds=2.0, seed=0),
    "ecd_subsampled-str": lambda x: ecd_subsampled(x["a"], x["b"], k=1, rounds="2", seed=0),
    "ecd_subsampled_from_distances": lambda x: ecd_subsampled_from_distances(
        x["d"], PooledLabels(10, 6), k=1, rounds=2.0, seed=0
    ),
    "subsample_round_indices-take": lambda x: subsample_round_indices(0, 0, 10, 2.5),
    "subsample_round_indices-pool": lambda x: subsample_round_indices(0, 0, 10.0, 2),
    "variance_sweep-1.5": lambda x: variance_sweep(
        dims=(2,), variances=(1.0,), n=8, k=1, seed=0, workers=1.5
    ),
    "variance_sweep-2.5": lambda x: variance_sweep(
        dims=(2,), variances=(1.0,), n=8, k=1, seed=0, workers=2.5
    ),
    "distribution_grid": lambda x: distribution_grid(dim=2, n=8, k=1, seed=0, workers=2.5),
    "PooledLabels-float": lambda x: PooledLabels(2.5, 6),
    "PooledLabels-np.float64": lambda x: PooledLabels(np.float64(10.0), 6),
    "null_moments-n": lambda x: null_moments(x["g"], 10.0, 6),
    "permutation_samples-n": lambda x: permutation_samples(x["g"], "10", 6, trials=2, seed=0),
    "exhaustive_moments": lambda x: exhaustive_moments(x["g"], 2.5, 13.5),
}


def write_points(path, pts):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[repr(float(v)) for v in row] for row in pts])
    return str(path)


def cli_argv(tmp_path, x, command):
    """argv of one seeded CLI command, without its --seed."""
    a = write_points(tmp_path / "a.csv", x["a"].points)
    b = write_points(tmp_path / "b.csv", x["b"].points)
    out = str(tmp_path / "out")
    return {
        "ecd": ["ecd", "--set-a", a, "--set-b", a, "--k", "1", "--out", out],
        "ecd-subsampled": ["ecd", "--set-a", a, "--set-b", b, "--k", "1", "--out", out],
        "variance-sweep": ["experiment", "variance-sweep", "--dims", "2", "--n", "8",
                           "--k", "1", "--out", out],
        "distribution-grid": ["experiment", "distribution-grid", "--dim", "2", "--n", "8",
                              "--k", "1", "--out", out],
    }[command]


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a non-integer --seed
        return exc.code


@pytest.mark.parametrize("seed", REJECTED, ids=repr)
@pytest.mark.parametrize("entry", sorted(LIBRARY))
def test_library_rejects_seed_before_any_work(entry, seed, inputs, calls):
    with pytest.raises(InvalidSpec):
        LIBRARY[entry](inputs, seed)
    assert calls == []


@pytest.mark.parametrize("entry", sorted(BAD_COUNTS))
def test_library_rejects_count_before_any_work(entry, inputs, calls):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        BAD_COUNTS[entry](inputs)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("runner", ["variance_sweep", "distribution_grid"])
def test_library_rejects_workers_below_one_before_any_work(runner, workers, calls):
    run = {
        "variance_sweep": lambda: variance_sweep(
            dims=(2,), variances=(1.0,), n=8, k=1, seed=0, workers=workers
        ),
        "distribution_grid": lambda: distribution_grid(dim=2, n=8, k=1, seed=0, workers=workers),
    }[runner]
    with pytest.raises(InvalidSpec, match=f"workers must be at least 1, got {workers}"):
        run()
    assert calls == []


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["variance-sweep", "distribution-grid"])
def test_cli_rejects_workers_below_one_before_any_work(command, workers, inputs, calls, tmp_path, capsys):
    argv = [*cli_argv(tmp_path, inputs, command), "--seed", "0", "--workers", workers]
    assert exit_code(argv) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_split_below_two_per_side_raises_size_mismatch(inputs, calls):
    g = inputs["g"]
    with pytest.raises(SizeMismatch):
        permutation_samples(g, -1, 17, trials=2, seed=0)
    with pytest.raises(SizeMismatch):
        exhaustive_moments(g, 1, 15)
    assert calls == []


def test_integer_counts_of_any_type_run(inputs):
    assert np.array_equal(sample(SPEC, True, 0).points, sample(SPEC, 1, 0).points)
    rep = ecd_subsampled(inputs["a"], inputs["b"], k=1, rounds=np.int64(2), seed=0)
    assert type(rep.subsample_rounds) is int and rep.subsample_rounds == 2
    rep = ecd_from_distances(inputs["d"], PooledLabels(np.int64(10), np.int8(6)), k=1)
    assert type(rep.n) is int and type(rep.m) is int
    plain = ecd_from_distances(inputs["d"], PooledLabels(10, 6), k=1)
    assert json.dumps(rep.to_json_dict()) == json.dumps(plain.to_json_dict())
    table = variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1, seed=0, workers=np.int8(2))
    assert table.rows == variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1, seed=0).rows


@pytest.mark.parametrize("seed", ["-1", "1.5"])
@pytest.mark.parametrize(
    "command", ["ecd", "ecd-subsampled", "variance-sweep", "distribution-grid"]
)
def test_cli_rejects_seed_before_any_work(command, seed, inputs, calls, tmp_path, capsys):
    assert exit_code([*cli_argv(tmp_path, inputs, command), "--seed", seed]) == 2
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ACCEPTED, ids=repr)
def test_sample_keeps_its_stream(seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    want = rng.standard_normal((20, 3))
    assert np.array_equal(sample(DistributionSpec("gaussian", 3), 20, seed).points, want)


@pytest.mark.parametrize("seed", ACCEPTED, ids=repr)
def test_accepted_seed_is_recorded_as_int(seed, inputs):
    assert derive_seed(seed, "probe") == derive_seed(int(seed), "probe")
    rep = ecd_subsampled(inputs["a"], inputs["b"], k=1, rounds=2, seed=seed)
    assert type(rep.seed) is int and rep.seed == int(seed)
    table = variance_sweep(dims=(2,), variances=(1.0,), n=8, k=1, seed=seed, workers=1)
    assert {(type(r.seed), r.seed) for r in table.rows} == {(int, int(seed))}


@pytest.mark.parametrize("command", ["ecd", "ecd-subsampled", "variance-sweep"])
def test_cli_records_seed_beyond_64_bits(command, inputs, tmp_path, capsys):
    argv = cli_argv(tmp_path, inputs, command)
    assert exit_code([*argv, "--seed", str(2**70)]) == 0
    out = tmp_path / "out"
    if command.startswith("ecd"):
        assert json.loads(out.read_text())["seed"] == 2**70
    else:
        with open(out, newline="") as fh:
            assert {row["seed"] for row in csv.DictReader(fh)} == {"1180591620717411303424"}
