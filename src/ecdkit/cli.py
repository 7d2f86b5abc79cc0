"""Command-line surface: statistic reports, baseline measures, experiment
runners, and SVG panels.

Exit codes: 0 success, 2 invalid input or configuration, 3 numeric
failure (singular covariance, eigensolver breakdown). Reports go to
--out when given, otherwise to stdout as JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .ecd import (DEFAULT_ROUNDS, _seed, ecd, ecd_from_distances, ecd_subsampled,
                  ecd_subsampled_from_distances)
from .errors import InputError, InvalidSpec, NumericError, SizeMismatch
from .experiments import (
    DEFAULT_GRID_DIM,
    DEFAULT_GRID_N,
    DEFAULT_SWEEP_DIMS,
    DEFAULT_SWEEP_N,
    ExperimentTable,
    distribution_grid,
    variance_sweep,
)
from .metricspace import DistanceMatrix, PooledLabels, load_distance_csv, load_feature_csv
from .setmeasures import measures_from_cross, measures_from_features
from .spanning import DEFAULT_K, SpanningGraph

def _input_mode(args) -> str:
    feature = args.set_a is not None or args.set_b is not None
    distance = args.distances is not None or args.split is not None
    if feature and distance:
        raise InvalidSpec("feature files and a distance matrix are mutually exclusive")
    if feature:
        if args.set_a is None or args.set_b is None:
            raise InvalidSpec("feature mode needs both --set-a and --set-b")
        return "features"
    if args.distances is None:
        raise InvalidSpec("provide --set-a/--set-b or --distances with --split")
    if args.split is None:
        raise InvalidSpec("distance mode needs --split")
    return "distances"


def _split_labels(d: DistanceMatrix, split: int) -> PooledLabels:
    if not 2 <= split <= d.n_points - 2:
        raise SizeMismatch(
            f"--split must leave at least 2 points on each side of the "
            f"{d.n_points}-point matrix, got {split}"
        )
    return PooledLabels(n=split, m=d.n_points - split)


def _write_json(payload: dict, out) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_graph_csv(g: SpanningGraph, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "i", "j", "weight"])
        writer.writerows(zip(g.layer.tolist(), g.ei.tolist(), g.ej.tolist(),
                             map(repr, g.weight.tolist())))


def cmd_ecd(args) -> int:
    features = _input_mode(args) == "features"
    if features:
        a = load_feature_csv(args.set_a)
        b = load_feature_csv(args.set_b)
        n, m = a.n_points, b.n_points
        metric = (args.metric or "euclidean").replace("-", "_")
    else:
        if args.metric is not None:
            raise InvalidSpec("--metric applies to feature files; a distance matrix is already measured")
        d = load_distance_csv(args.distances)
        labels = _split_labels(d, args.split)
        n, m = labels.n, labels.m
    if args.rounds is not None or n > m:
        rounds = args.rounds if args.rounds is not None else DEFAULT_ROUNDS
        if args.seed is None:
            raise InvalidSpec("subsampling draws random subsets; provide --seed")
        if features:
            rep = ecd_subsampled(a, b, args.k, rounds, args.seed, metric)
        else:
            rep = ecd_subsampled_from_distances(d, labels, args.k, rounds, args.seed)
    else:
        # no library call checks a seed that is only recorded: check it before scoring
        seed = args.seed if args.seed is None else _seed(args.seed)
        rep = ecd(a, b, args.k, metric) if features else ecd_from_distances(d, labels, args.k)
        rep = dataclasses.replace(rep, seed=seed)
    if args.dump_graph:
        _dump_graph_csv(rep.graph, args.dump_graph)
    _write_json(rep.to_json_dict(), args.out)
    return 0


def cmd_measures(args) -> int:
    mode = _input_mode(args)
    if mode == "features":
        a = load_feature_csv(args.set_a)
        b = load_feature_csv(args.set_b)
        result = measures_from_features(a, b)
        n, m = a.n_points, b.n_points
    else:
        d = load_distance_csv(args.distances)
        labels = _split_labels(d, args.split)
        result = measures_from_cross(d.values[: labels.n, labels.n :])
        n, m = labels.n, labels.m
    payload = result.to_json_dict()
    payload["n"] = n
    payload["m"] = m
    _write_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    table = variance_sweep(
        dims=args.dims, n=args.n, k=args.k,
        seed=args.seed, workers=args.workers,
    )
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_grid(args) -> int:
    table = distribution_grid(
        dim=args.dim, n=args.n, k=args.k,
        seed=args.seed, workers=args.workers,
    )
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    from .plotting import plot_table

    table = ExperimentTable.from_csv(args.table)
    written = plot_table(table, args.out)
    _write_json({"written": written}, None)
    return 0


def _parse_dims(text: str):
    try:
        dims = tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not dims:
        raise argparse.ArgumentTypeError("need at least one dim")
    return dims


_WORKERS_HELP = (
    "runner threads, at least 1; they overlap sampling and pooled distances, "
    "while scoring (k-MST, moments, Fréchet) runs one cell at a time"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecdkit",
        description="Graph-based two-sample statistic and generative-set measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--set-a", dest="set_a", metavar="CSV",
                        help="feature CSV for the first (generated) set")
        sp.add_argument("--set-b", dest="set_b", metavar="CSV",
                        help="feature CSV for the second (reference) set")
        sp.add_argument("--distances", metavar="CSV",
                        help="pooled distance-matrix CSV instead of feature files")
        sp.add_argument("--split", type=int, metavar="N",
                        help="rows 0..N-1 of the distance matrix form the first set")
        sp.add_argument("--out", metavar="PATH", help="output path (default: stdout)")

    pe = sub.add_parser("ecd", help="edge-count statistic report (JSON)")
    add_io(pe)
    pe.add_argument("--k", type=int, default=DEFAULT_K, help="tree multiplicity")
    pe.add_argument("--metric", choices=["euclidean", "squared-euclidean"],
                    help="feature-mode distance (default euclidean); "
                         "rejected with --distances")
    pe.add_argument("--seed", type=int, help="seed for subsampling: a non-negative integer")
    pe.add_argument("--rounds", type=int,
                    help="subsample rounds (default 10 when the first set is larger)")
    pe.add_argument("--dump-graph", dest="dump_graph", metavar="CSV",
                    help="also write the pooled graph edges (layer,i,j,weight)")
    pe.set_defaults(func=cmd_ecd)

    pm = sub.add_parser("measures", help="coverage / matching distance / frechet (JSON)")
    add_io(pm)
    pm.set_defaults(func=cmd_measures)

    px = sub.add_parser("experiment", help="synthetic study runners (CSV)")
    xsub = px.add_subparsers(dest="experiment", required=True)

    ps = xsub.add_parser("variance-sweep", help="gaussian variance sweep table")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True, metavar="CSV")
    ps.add_argument("--n", type=int, default=DEFAULT_SWEEP_N, help="points per set")
    ps.add_argument("--k", type=int, default=DEFAULT_K)
    ps.add_argument("--dims", type=_parse_dims, default=DEFAULT_SWEEP_DIMS,
                    metavar="D1,D2,...")
    ps.add_argument("--workers", type=int, help=_WORKERS_HELP)
    ps.set_defaults(func=cmd_sweep)

    pg = xsub.add_parser("distribution-grid", help="distribution-pair table")
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True, metavar="CSV")
    pg.add_argument("--n", type=int, default=DEFAULT_GRID_N, help="points per set")
    pg.add_argument("--k", type=int, default=DEFAULT_K)
    pg.add_argument("--dim", type=int, default=DEFAULT_GRID_DIM)
    pg.add_argument("--workers", type=int, help=_WORKERS_HELP)
    pg.set_defaults(func=cmd_grid)

    pp = sub.add_parser("plot", help="render SVG panels from an experiment CSV")
    pp.add_argument("--table", required=True, metavar="CSV")
    pp.add_argument("--out", required=True, metavar="STEM",
                    help="output stem; files land at <stem>_<measure>.svg")
    pp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
