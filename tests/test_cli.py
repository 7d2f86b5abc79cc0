"""End-to-end runs of the command-line interface."""

import csv
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ecdkit import (DistanceMatrix, FeatureSet, NonFiniteInput, NonSquareError, kmst,
                    load_distance_csv, load_feature_csv, pairwise_distances)
from ecdkit.cli import main
from ecdkit.ecd import subsample_round_indices


def write_points(path, pts):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(pts):
            writer.writerow([repr(float(v)) for v in row])
    return str(path)


def write_distance_matrix(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    a = write_points(tmp_path / "a.csv", [[0.0], [1.0]])
    b = write_points(tmp_path / "b.csv", [[10.0], [11.0]])
    return a, b


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEcdCommand:
    def test_feature_route_worked_instance(self, pair_files, capsys):
        a, b = pair_files
        code, payload = run_json(
            capsys, ["ecd", "--set-a", a, "--set-b", b, "--k", "1"]
        )
        assert code == 0
        assert payload["statistic"] == pytest.approx(1.5, rel=1e-12)
        assert payload["r1"] == 1 and payload["r2"] == 1
        assert payload["edges"] == 3
        assert payload["seed"] is None and payload["rounds"] is None

    def test_distance_route_matches(self, tmp_path, capsys):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        vals = np.abs(pts[:, None] - pts[None, :])
        d = write_distance_matrix(tmp_path / "d.csv", vals)
        code, payload = run_json(
            capsys, ["ecd", "--distances", d, "--split", "2", "--k", "1"]
        )
        assert code == 0
        assert payload["statistic"] == pytest.approx(1.5, rel=1e-12)

    def test_out_file(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        out = tmp_path / "report.json"
        code = main(["ecd", "--set-a", a, "--set-b", b, "--k", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["statistic"] == pytest.approx(1.5, rel=1e-12)

    def test_seed_recorded_without_subsampling(self, pair_files, capsys):
        a, b = pair_files
        code, payload = run_json(
            capsys, ["ecd", "--set-a", a, "--set-b", b, "--k", "1", "--seed", "42"]
        )
        assert code == 0
        assert payload["seed"] == 42
        assert payload["rounds"] is None


class TestEcdErrors:
    def test_missing_split(self, tmp_path, capsys):
        d = write_distance_matrix(tmp_path / "d.csv", np.zeros((4, 4)))
        assert main(["ecd", "--distances", d]) == 2
        assert "split" in capsys.readouterr().err

    def test_both_modes(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        d = write_distance_matrix(tmp_path / "d.csv", np.zeros((4, 4)))
        assert main(["ecd", "--set-a", a, "--set-b", b, "--distances", d]) == 2

    def test_metric_is_not_an_option(self, pair_files, capsys):
        # the statistic reads only the order of the distances: Euclidean is the one distance
        a, b = pair_files
        with pytest.raises(SystemExit) as exc:
            main(["ecd", "--set-a", a, "--set-b", b, "--metric", "euclidean"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metric" in capsys.readouterr().err

    def test_no_mode(self, capsys):
        assert main(["ecd"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["ecd", "--set-a", str(tmp_path / "none.csv"),
                     "--set-b", str(tmp_path / "none2.csv")]) == 2

    def test_degenerate_covariance_is_numeric_failure(self, tmp_path, capsys):
        a = write_points(tmp_path / "a.csv", [[0.0], [1.0]])
        b = write_points(tmp_path / "b.csv", [[2.0], [3.0]])
        assert main(["ecd", "--set-a", a, "--set-b", b, "--k", "2"]) == 3
        assert "numeric" in capsys.readouterr().err

    def test_overflowing_covariance_is_numeric_failure(self, tmp_path, capsys):
        # finite features whose covariance overflows: numeric, not bad input
        a = write_points(tmp_path / "a.csv", [[1e300, 1.0], [-1e300, 2.0], [0.0, 3.0]])
        b = write_points(tmp_path / "b.csv", [[0.0, 1.0], [1.0, 0.0]])
        assert main(["measures", "--set-a", a, "--set-b", b]) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: the feature covariance overflows float64 on finite input\n"

    def test_negative_seed(self, pair_files, capsys):
        a, b = pair_files
        assert main(["ecd", "--set-a", a, "--set-b", b, "--seed", "-1",
                     "--k", "1"]) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff\n")
        assert main(["ecd", "--distances", str(bad), "--split", "1"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "offset 6" in err

    def test_non_square_distance_file_is_named(self, tmp_path, capsys):
        # the parse succeeds; the matrix check that fails names the file
        d = write_distance_matrix(tmp_path / "d.csv", np.arange(12.0).reshape(4, 3))
        with pytest.raises(NonSquareError, match=f"^{re.escape(d)}: distance entries must form a square"):
            load_distance_csv(d)
        assert main(["ecd", "--distances", d, "--split", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {d}: distance entries must form a square matrix, got shape (4, 3)\n"
        )

    def test_split_leaving_one_point(self, tmp_path, capsys):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        vals = np.abs(pts[:, None] - pts[None, :])
        d = write_distance_matrix(tmp_path / "d.csv", vals)
        assert main(["ecd", "--distances", d, "--split", "1", "--k", "1"]) == 2


class TestSubsampling:
    @pytest.fixture
    def unequal_files(self, tmp_path):
        rng = np.random.default_rng(71)
        a = write_points(tmp_path / "a.csv", rng.standard_normal((20, 2)))
        b = write_points(tmp_path / "b.csv", rng.standard_normal((8, 2)))
        return a, b

    def test_larger_first_set_requires_seed(self, unequal_files, capsys):
        a, b = unequal_files
        assert main(["ecd", "--set-a", a, "--set-b", b, "--k", "2"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_default_rounds(self, unequal_files, capsys):
        a, b = unequal_files
        code, payload = run_json(
            capsys, ["ecd", "--set-a", a, "--set-b", b, "--k", "2", "--seed", "3"]
        )
        assert code == 0
        assert payload["rounds"] == 10
        assert payload["seed"] == 3
        assert payload["n"] == 8 and payload["m"] == 8

    def test_explicit_rounds(self, unequal_files, capsys):
        a, b = unequal_files
        code, payload = run_json(
            capsys,
            ["ecd", "--set-a", a, "--set-b", b, "--k", "2",
             "--seed", "3", "--rounds", "2"],
        )
        assert code == 0
        assert payload["rounds"] == 2

    def test_rounds_with_smaller_first_set(self, unequal_files, capsys):
        a, b = unequal_files
        assert main(["ecd", "--set-a", b, "--set-b", a, "--k", "2",
                     "--seed", "3", "--rounds", "2"]) == 2

    def test_deterministic_across_runs(self, unequal_files, capsys):
        a, b = unequal_files
        _, one = run_json(
            capsys, ["ecd", "--set-a", a, "--set-b", b, "--k", "2", "--seed", "3"]
        )
        _, two = run_json(
            capsys, ["ecd", "--set-a", a, "--set-b", b, "--k", "2", "--seed", "3"]
        )
        assert one == two


class TestDumpGraph:
    def test_edge_file_shape(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        dump = tmp_path / "edges.csv"
        code = main(["ecd", "--set-a", a, "--set-b", b, "--k", "1",
                     "--dump-graph", str(dump), "--out", str(tmp_path / "r.json")])
        assert code == 0
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "i", "j", "weight"]
        body = rows[1:]
        assert len(body) == 3
        assert all(r[0] == "1" for r in body)
        weights = sorted(float(r[3]) for r in body)
        assert weights == [1.0, 1.0, 9.0]

    def test_layer_count_scales_with_k(self, tmp_path, capsys):
        rng = np.random.default_rng(73)
        a = write_points(tmp_path / "a.csv", rng.standard_normal((10, 3)))
        b = write_points(tmp_path / "b.csv", rng.standard_normal((10, 3)))
        dump = tmp_path / "edges.csv"
        code = main(["ecd", "--set-a", a, "--set-b", b, "--k", "3",
                     "--dump-graph", str(dump), "--out", str(tmp_path / "r.json")])
        assert code == 0
        with open(dump, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert len(body) == 3 * 19
        assert {r[0] for r in body} == {"1", "2", "3"}

    @pytest.mark.parametrize("subsampled", [False, True], ids=["plain", "subsampled"])
    @pytest.mark.parametrize("mode", ["features", "distances"])
    def test_dump_is_the_scored_graph(self, tmp_path, capsys, mode, subsampled):
        rng = np.random.default_rng(83)
        n, m, k, seed = (14 if subsampled else 8), 8, 2, 5
        big = rng.standard_normal((n, 3))
        small = rng.standard_normal((m, 3))
        pooled = pairwise_distances(FeatureSet(big), FeatureSet(small))
        if mode == "features":
            inputs = ["--set-a", write_points(tmp_path / "a.csv", big),
                      "--set-b", write_points(tmp_path / "b.csv", small)]
        else:
            inputs = ["--distances", write_distance_matrix(tmp_path / "d.csv", pooled.values),
                      "--split", str(n)]
        dump = tmp_path / "edges.csv"
        code, payload = run_json(capsys, ["ecd", *inputs, "--k", str(k), "--seed", str(seed),
                                          "--dump-graph", str(dump)])
        assert code == 0
        assert payload["rounds"] == (10 if subsampled else None)

        # round 0 keeps first-set rows idx and every second-set row
        idx = subsample_round_indices(seed, 0, n, m) if subsampled else np.arange(n)
        keep = np.concatenate([idx, np.arange(n, n + m)])
        if mode == "features":
            d0 = pairwise_distances(FeatureSet(big[idx]), FeatureSet(small))
        else:
            d0 = DistanceMatrix(pooled.values[np.ix_(keep, keep)])
        want = [[str(layer), str(i), str(j), repr(w)] for i, j, w, layer in kmst(d0, k).edges]
        with open(dump, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert body == want

        split = len(idx)
        ends = np.array([[int(r[1]), int(r[2])] for r in body])
        assert payload["r1"] == int(np.sum((ends < split).all(axis=1)))
        assert payload["r2"] == int(np.sum((ends >= split).all(axis=1)))


class TestMeasuresCommand:
    def test_identical_sets(self, tmp_path, capsys):
        rng = np.random.default_rng(79)
        pts = rng.standard_normal((12, 3))
        a = write_points(tmp_path / "a.csv", pts)
        b = write_points(tmp_path / "b.csv", pts)
        code, payload = run_json(capsys, ["measures", "--set-a", a, "--set-b", b])
        assert code == 0
        assert payload["coverage"] == 1.0
        assert payload["mmd"] == 0.0
        assert payload["frechet"] == pytest.approx(0.0, abs=1e-9)
        assert payload["n"] == 12 and payload["m"] == 12

    def test_distance_mode_has_no_frechet(self, tmp_path, capsys):
        pts = np.array([0.0, 1.0, 10.0, 11.0, 12.0])
        vals = np.abs(pts[:, None] - pts[None, :])
        d = write_distance_matrix(tmp_path / "d.csv", vals)
        code, payload = run_json(capsys, ["measures", "--distances", d, "--split", "2"])
        assert code == 0
        assert payload["frechet"] is None
        # cross block of the pooled matrix: both a-points sit nearest b=10
        assert payload["coverage"] == pytest.approx(1 / 3)
        assert payload["mmd"] == pytest.approx((9.0 + 10.0 + 11.0) / 3)

    def test_non_finite_feature_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,inf\n")
        b = write_points(tmp_path / "b.csv", [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(NonFiniteInput, match=f"^{re.escape(str(bad))}: feature values must be finite"):
            load_feature_csv(bad)
        assert main(["measures", "--set-a", str(bad), "--set-b", b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: feature values must be finite (no NaN/Inf)\n"

    def test_typo_in_first_row_is_not_a_header(self, tmp_path, capsys):
        typo = tmp_path / "typo.csv"
        typo.write_text("l,2\n3,4\n5,6\n")
        b = write_points(tmp_path / "b.csv", [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert main(["measures", "--set-a", str(typo), "--set-b", b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{typo}: non-numeric value on line 1" in captured.err


class TestExperimentCommands:
    def test_sweep_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        for out, workers in ((out1, "1"), (out2, "2")):
            code = main([
                "experiment", "variance-sweep", "--seed", "6",
                "--out", str(out), "--n", "20", "--k", "2",
                "--dims", "2", "--workers", workers,
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        err = capsys.readouterr().err
        assert "63 rows" in err

    def test_grid_runs_small(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main([
            "experiment", "distribution-grid", "--seed", "6",
            "--out", str(out), "--n", "24", "--k", "2", "--dim", "3",
        ])
        assert code == 0
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert len(body) == 12


class TestPlotCommand:
    def test_renders_panels(self, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        code = main([
            "experiment", "variance-sweep", "--seed", "6",
            "--out", str(table), "--n", "20", "--k", "2", "--dims", "2,3",
        ])
        assert code == 0
        capsys.readouterr()
        stem = tmp_path / "panel"
        code, payload = run_json(capsys, ["plot", "--table", str(table),
                                          "--out", str(stem)])
        assert code == 0
        assert sorted(payload["written"]) == [
            f"{stem}_COV.svg", f"{stem}_ECD.svg", f"{stem}_MMD.svg"
        ]
        for path in payload["written"]:
            ET.parse(path)

    def test_grid_table_exits_2_and_writes_nothing(self, tmp_path, capsys):
        table = tmp_path / "grid.csv"
        assert main([
            "experiment", "distribution-grid", "--seed", "6",
            "--out", str(table), "--n", "24", "--k", "2", "--dim", "3",
        ]) == 0
        capsys.readouterr()
        assert main(["plot", "--table", str(table), "--out", str(tmp_path / "x")]) == 2
        assert "more than one row at one (dim, variance_a)" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*.svg"))

    def test_malformed_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,table\n1,2,3\n")
        assert main(["plot", "--table", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_variance_in_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "experiment_id,kind_a,kind_b,dim,variance_a,measure_name,value,seed,n,m,k\n"
            "variance-sweep,gaussian,gaussian,3,inf,ECD,2.0,0,10,10,1\n"
            "variance-sweep,gaussian,gaussian,3,1.5,ECD,2.0,0,10,10,1\n"
        )
        assert main(["plot", "--table", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert f"{bad}: line 2: " in capsys.readouterr().err
        assert not list(tmp_path.glob("x*.svg"))

    def test_undecodable_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"experiment_id,x\n\xff\n")
        assert main(["plot", "--table", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "byte 0xff at offset 16" in err
