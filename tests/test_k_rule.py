"""One k rule, `spanning._check_k`: the tree multiplicity is an integer by
operator.index, not a bool, and at least 1, else InvalidK. Every entry
point that takes k applies it before any distance, round, cell or file
read, the runners included, so a non-integer k is InvalidK everywhere."""

import numpy as np
import pytest

from ecdkit import (
    FeatureSet,
    InvalidK,
    InvalidSpec,
    PooledLabels,
    distribution_grid,
    ecd,
    ecd_from_distances,
    ecd_subsampled,
    ecd_subsampled_from_distances,
    kmst,
    pairwise_distances,
    variance_sweep,
)
from ecdkit.cli import main
from ecdkit.spanning import _check_k

NOT_K = [0, -1, True, False, np.True_, 1.5, np.float64(2.0), "2", None]


@pytest.fixture
def inputs():
    rng = np.random.default_rng(409)
    a = FeatureSet(rng.standard_normal((10, 2)))
    b = FeatureSet(rng.standard_normal((6, 2)))
    return {"a": a, "b": b, "d": pairwise_distances(a, b)}


@pytest.mark.parametrize("k", [1, 3, np.int64(3), np.uint8(2)], ids=repr)
def test_accepted_k_is_an_int(k):
    assert type(_check_k(k)) is int and _check_k(k) == int(k)


@pytest.mark.parametrize("k", NOT_K, ids=repr)
def test_rejected_k(k):
    with pytest.raises(InvalidK, match="tree multiplicity k must be a positive integer"):
        _check_k(k)


@pytest.mark.parametrize("k", NOT_K, ids=repr)
def test_kmst_applies_the_rule(k, inputs):
    with pytest.raises(InvalidK):
        kmst(inputs["d"], k)


def test_integral_numpy_k_is_reported_as_int(inputs):
    rep = ecd_from_distances(inputs["d"], PooledLabels(10, 6), np.int64(2))
    assert type(rep.k) is int and type(rep.graph.k) is int and rep.k == 2
    plain = ecd_from_distances(inputs["d"], PooledLabels(10, 6), 2)
    assert rep.to_json_dict() == plain.to_json_dict()


LIBRARY = {
    "ecd": lambda x, k: ecd(x["a"], x["b"], k),
    "ecd_from_distances": lambda x, k: ecd_from_distances(x["d"], PooledLabels(10, 6), k),
    "ecd_subsampled": lambda x, k: ecd_subsampled(x["a"], x["b"], k, rounds=2, seed=0),
    "ecd_subsampled_from_distances": lambda x, k: ecd_subsampled_from_distances(
        x["d"], PooledLabels(10, 6), k, rounds=2, seed=0
    ),
}


@pytest.mark.parametrize("k", [0, -1, True, 1.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(LIBRARY))
def test_library_rejects_k_before_any_work(entry, k, inputs, calls):
    with pytest.raises(InvalidK):
        LIBRARY[entry](inputs, k)
    # ecd_from_distances reaches the rule through kmst, its first stage
    assert calls == (["kmst"] if entry == "ecd_from_distances" else [])


RUNNERS = {
    "variance_sweep": lambda k: variance_sweep(dims=(2,), variances=(1.0,), n=8, k=k, seed=0),
    "distribution_grid": lambda k: distribution_grid(dim=2, n=8, k=k, seed=0),
}


@pytest.mark.parametrize("k", [0, -1, True, np.int64(0)], ids=repr)
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runners_reject_k_before_any_cell(runner, k, calls):
    with pytest.raises(InvalidK):
        RUNNERS[runner](k)
    assert calls == []


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runner_integer_rule_comes_first(runner, calls):
    # the k rule is the runners' integer rule for k: no check of their own runs before it
    with pytest.raises(InvalidK, match="positive integer, got 1.5"):
        RUNNERS[runner](1.5)
    assert calls == []


def write_rows(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("k", ["0", "-3"])
@pytest.mark.parametrize("mode", ["features", "distances", "subsampled"])
def test_cli_ecd_rejects_k_before_any_file_is_read(mode, k, inputs, calls, tmp_path, capsys):
    a = write_rows(tmp_path / "a.csv", inputs["a"].points)
    b = write_rows(tmp_path / "b.csv", inputs["b"].points)
    d = write_rows(tmp_path / "d.csv", inputs["d"].values)
    source = {
        "features": ["--set-a", b, "--set-b", a],
        "distances": ["--distances", d, "--split", "10"],
        "subsampled": ["--set-a", a, "--set-b", b, "--seed", "0"],
    }[mode]
    out = tmp_path / "out.json"
    assert main(["ecd", *source, "--k", k, "--out", str(out)]) == 2
    assert f"got {k}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["variance-sweep", "--dims", "2"], ["distribution-grid", "--dim", "2"],
])
def test_cli_runners_reject_k_before_any_cell(command, calls, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["experiment", *command, "--n", "8", "--k", "0", "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    assert "tree multiplicity k must be a positive integer, got 0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
