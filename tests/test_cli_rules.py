"""The CLI applies the library's rules and adds none: one input loader for
`ecd` and `measures` (PooledLabels is its split rule), one experiment
command for both runners, and one error handler."""

import json

import numpy as np
import pytest

from ecdkit import ExperimentTable, FeatureSet, pairwise_distances
from ecdkit import cli
from ecdkit.cli import build_parser, main
from ecdkit.experiments import (DEFAULT_GRID_DIM, DEFAULT_GRID_N, DEFAULT_SWEEP_DIMS,
                                DEFAULT_SWEEP_N)
from ecdkit.spanning import DEFAULT_K


def write_rows(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def opened(monkeypatch):
    """Names of the CLI's file loaders that were called."""
    seen = []
    for name in ("load_feature_csv", "load_distance_csv"):
        def spy(path, _name=name, _real=getattr(cli, name)):
            seen.append(_name)
            return _real(path)
        monkeypatch.setattr(cli, name, spy)
    return seen


class TestRunnerParsing:
    @pytest.mark.parametrize("runner, shape", [
        ("variance-sweep", {"dims": DEFAULT_SWEEP_DIMS, "n": DEFAULT_SWEEP_N}),
        ("distribution-grid", {"dim": DEFAULT_GRID_DIM, "n": DEFAULT_GRID_N}),
    ])
    def test_defaults(self, runner, shape):
        args = build_parser().parse_args(["experiment", runner, "--seed", "4", "--out", "t.csv"])
        assert (args.seed, args.out, args.k, args.workers) == (4, "t.csv", DEFAULT_K, None)
        for name, value in shape.items():
            assert getattr(args, name) == value

    @pytest.mark.parametrize("runner", ["variance-sweep", "distribution-grid"])
    @pytest.mark.parametrize("missing", ["--seed", "--out"])
    def test_seed_and_out_are_required(self, runner, missing, tmp_path, capsys):
        given = {"--seed": "4", "--out": str(tmp_path / "t.csv")}
        del given[missing]
        with pytest.raises(SystemExit) as exc:
            main(["experiment", runner, *[f for item in given.items() for f in item]])
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv, runner, shape", [
        (["variance-sweep", "--dims", "2,3"], "variance_sweep", {"dims": (2, 3)}),
        (["distribution-grid", "--dim", "3"], "distribution_grid", {"dim": 3}),
    ], ids=["variance-sweep", "distribution-grid"])
    def test_options_reach_the_runner(self, argv, runner, shape, monkeypatch, tmp_path, capsys):
        seen = []

        def probe(**kwargs):
            seen.append(kwargs)
            return ExperimentTable(rows=())

        monkeypatch.setattr(cli, runner, probe)
        out = tmp_path / "t.csv"
        code = main(["experiment", *argv, "--seed", "4", "--out", str(out), "--n", "9",
                     "--k", "2", "--workers", "3"])
        assert code == 0
        assert seen == [{"n": 9, "k": 2, "seed": 4, "workers": 3, **shape}]
        assert f"wrote 0 rows to {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["", ",", "2,", "2,x"], ids=repr)
    def test_dims_without_an_integer_in_every_field_exit_2(self, dims, tmp_path, capsys):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "variance-sweep", "--seed", "4", "--out", str(out),
                  "--dims", dims])
        assert exc.value.code == 2
        assert f"expected comma-separated integers, got {dims!r}" in capsys.readouterr().err
        assert not out.exists()


# mode errors, each given with every later fault: the first error wins
MODE_ERRORS = {
    "both-modes": (["--set-a", "a.csv", "--distances", "d.csv"], "mutually exclusive"),
    "both-modes-split": (["--set-b", "b.csv", "--split", "2"], "mutually exclusive"),
    "one-feature-file": (["--set-a", "a.csv"], "needs both --set-a and --set-b"),
    "missing-split": (["--distances", "d.csv"], "distance mode needs --split"),
    "missing-distances": (["--split", "2"], "provide --set-a/--set-b or --distances"),
    "no-input": ([], "provide --set-a/--set-b or --distances"),
}


class TestInputLoader:
    @pytest.mark.parametrize("command", ["ecd", "measures"])
    @pytest.mark.parametrize("split", [0, 1, 3, 4, 7])
    def test_split_names_both_sizes(self, command, split, tmp_path, capsys, opened):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        d = write_rows(tmp_path / "d.csv", np.abs(pts[:, None] - pts[None, :]))
        assert main([command, "--distances", d, "--split", str(split)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"each set needs at least 2 points, got sizes ({split}, {4 - split})" in captured.err
        assert opened == ["load_distance_csv"]

    @pytest.mark.parametrize("case", sorted(MODE_ERRORS))
    @pytest.mark.parametrize("command", [["ecd"], ["measures"]], ids=["ecd", "measures"])
    def test_mode_errors_open_no_file(self, command, case, tmp_path, capsys, opened, monkeypatch):
        argv, message = MODE_ERRORS[case]
        monkeypatch.chdir(tmp_path)  # none of the named files exists
        assert main([*command, *argv]) == 2
        assert message in capsys.readouterr().err
        assert opened == []

    @pytest.mark.parametrize("command", ["ecd", "measures"])
    def test_distance_split_matches_feature_mode(self, command, tmp_path, capsys):
        rng = np.random.default_rng(89)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
        pooled = pairwise_distances(FeatureSet(a), FeatureSet(b))
        k = ["--k", "2"] if command == "ecd" else []
        _, by_features = run_json(capsys, [command, *k, "--set-a", write_rows(tmp_path / "a.csv", a),
                                           "--set-b", write_rows(tmp_path / "b.csv", b)])
        _, by_matrix = run_json(capsys, [command, *k, "--split", "5", "--distances",
                                         write_rows(tmp_path / "d.csv", pooled.values)])
        if command == "measures":
            assert by_matrix.pop("frechet") is None
            by_features.pop("frechet")
        assert by_matrix == by_features


class TestErrorHandler:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "none.csv"
        assert main(["measures", "--distances", str(missing), "--split", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_input_error_is_exit_2(self, tmp_path, capsys):
        d = write_rows(tmp_path / "d.csv", [[0.0, 1.0], [2.0, 0.0]])
        assert main(["measures", "--distances", d, "--split", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {d}: max |d[i,j] - d[j,i]|")
