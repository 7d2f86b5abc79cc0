"""Each entry point applies each rule once, before any work: `ecd` its k
and split rules before the pooled matrix; the subsampled functions their
rounds, seed, k and split before round 0, whose draw checks the size
before any distance; CLI `ecd` its `--k` and `--seed` before any file is
read. The runners' seed, k, split and variance rules are tested with
their other arguments in test_k_rule, test_value_rules and
test_experiments; here they accept the smallest split."""

import numpy as np
import pytest

from ecdkit import (
    FeatureSet,
    GeneratedSetTooSmall,
    InvalidK,
    InvalidSpec,
    InvalidTrials,
    PooledLabels,
    SizeMismatch,
    distribution_grid,
    ecd,
    ecd_subsampled,
    ecd_subsampled_from_distances,
    pairwise_distances,
    variance_sweep,
)
from ecdkit.cli import main
from ecdkit.ecd import subsample_round_indices


def points(n, dim=2, seed=0):
    return FeatureSet(np.random.default_rng(seed).standard_normal((n, dim)))


@pytest.mark.parametrize("sizes", [(1, 30), (30, 1), (1, 1)], ids=repr)
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)], ids=repr)
def test_ecd_split_rule_before_any_distance(sizes, dims, calls):
    # a set below 2 points is a SizeMismatch even when the dims differ too
    a, b = points(sizes[0], dims[0]), points(sizes[1], dims[1], seed=1)
    with pytest.raises(SizeMismatch, match="each set needs at least 2 points"):
        ecd(a, b, k=1)
    assert calls == []


def test_ecd_subsampled_split_rule_before_any_round(calls):
    with pytest.raises(SizeMismatch, match=r"got sizes \(1, 1\)"):
        ecd_subsampled(points(10), points(1), k=1, rounds=2, seed=0)
    assert calls == []


def test_subsampled_check_order(calls):
    # rounds, seed, k, split, then the size, which round 0's draw checks
    big, small, one = points(10), points(4), points(1)
    with pytest.raises(InvalidTrials):
        ecd_subsampled(small, one, k=0, rounds=0, seed=-1)
    with pytest.raises(InvalidSpec, match="seed must be at least 0"):
        ecd_subsampled(small, one, k=0, rounds=2, seed=-1)
    with pytest.raises(InvalidK):
        ecd_subsampled(small, one, k=0, rounds=2, seed=0)
    with pytest.raises(SizeMismatch):
        ecd_subsampled(small, one, k=1, rounds=2, seed=0)
    assert calls == []
    with pytest.raises(GeneratedSetTooSmall, match="first set has 4 points, cannot subsample to 10"):
        ecd_subsampled(small, big, k=1, rounds=2, seed=0)
    d = pairwise_distances(small, big)
    calls.clear()
    with pytest.raises(GeneratedSetTooSmall, match="first set has 4 points, cannot subsample to 10"):
        ecd_subsampled_from_distances(d, PooledLabels(4, 10), k=1, rounds=2, seed=0)
    assert calls == ["subsample_round_indices"]


@pytest.mark.parametrize("pool, take, error, message", [
    (10, -1, InvalidSpec, "take must be at least 0, got -1"),
    (10, 15, GeneratedSetTooSmall, "first set has 10 points, cannot subsample to 15"),
    (-3, 0, GeneratedSetTooSmall, "first set has -3 points, cannot subsample to 0"),
], ids=["take-negative", "take-over-pool", "pool-negative"])
def test_subsample_round_indices_bounds(pool, take, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        subsample_round_indices(0, 0, pool, take)


@pytest.mark.parametrize("take", [0, 1, 10])
def test_subsample_round_indices_within_bounds(take):
    idx = subsample_round_indices(0, 0, 10, take)
    assert len(idx) == take and len(set(idx.tolist())) == take


def write_rows(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("mode", ["features", "distances", "subsampled"])
def test_cli_ecd_rejects_seed_before_any_file_is_read(mode, calls, tmp_path, capsys):
    a, b = points(10), points(6, seed=1)
    fa = write_rows(tmp_path / "a.csv", a.points)
    fb = write_rows(tmp_path / "b.csv", b.points)
    fd = write_rows(tmp_path / "d.csv", pairwise_distances(a, b).values)
    source = {
        "features": ["--set-a", fb, "--set-b", fa],
        "distances": ["--distances", fd, "--split", "6"],
        "subsampled": ["--set-a", fa, "--set-b", fb],
    }[mode]
    out = tmp_path / "out.json"
    assert main(["ecd", *source, "--k", "1", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


RUNNERS = {
    "variance_sweep": lambda **kw: variance_sweep(dims=(2,), variances=(1.0,), **kw),
    "distribution_grid": lambda **kw: distribution_grid(dim=2, **kw),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runners_accept_the_smallest_split(runner, n):
    table = RUNNERS[runner](n=n, k=1, seed=0, workers=1)
    assert {(r.n, r.m) for r in table.rows} == {(n, n)}
