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

from .ecd import (DEFAULT_ROUNDS, _check_rounds, _seed, ecd, ecd_from_distances,
                  ecd_subsampled, ecd_subsampled_from_distances)
from .errors import InputError, InvalidSpec, NumericError
from .experiments import (
    DEFAULT_GRID_DIM,
    DEFAULT_GRID_N,
    DEFAULT_SWEEP_DIMS,
    DEFAULT_SWEEP_N,
    ExperimentTable,
    distribution_grid,
    variance_sweep,
)
from .metricspace import FeatureSet, PooledLabels, load_distance_csv, load_feature_csv
from .setmeasures import measures_from_cross, measures_from_features
from .spanning import DEFAULT_K, SpanningGraph, _check_k


def _load(args) -> tuple:
    """The two sets to compare: two FeatureSets, or a DistanceMatrix and
    its PooledLabels(split, N - split). Mode errors are raised before any
    file is opened."""
    feature = args.set_a is not None or args.set_b is not None
    distance = args.distances is not None or args.split is not None
    if feature and distance:
        raise InvalidSpec("feature files and a distance matrix are mutually exclusive")
    if feature:
        if args.set_a is None or args.set_b is None:
            raise InvalidSpec("feature mode needs both --set-a and --set-b")
        return load_feature_csv(args.set_a), load_feature_csv(args.set_b)
    if args.distances is None:
        raise InvalidSpec("provide --set-a/--set-b or --distances with --split")
    if args.split is None:
        raise InvalidSpec("distance mode needs --split")
    d = load_distance_csv(args.distances)
    return d, PooledLabels(args.split, d.n_points - args.split)


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


def _subsampling(rounds, seed) -> int:
    """The rounds rule, then the seed that subsampling draws with."""
    _check_rounds(rounds)
    if seed is None:
        raise InvalidSpec("subsampling draws random subsets; provide --seed")
    return rounds


def cmd_ecd(args) -> int:
    # the k, seed and rounds rules, before any file is read; only a larger
    # first set, which asks for subsampling by itself, needs the loaded sizes
    _check_k(args.k)
    seed = args.seed if args.seed is None else _seed(args.seed)
    rounds = args.rounds if args.rounds is None else _subsampling(args.rounds, seed)
    x, y = _load(args)
    features = isinstance(x, FeatureSet)
    n, m = (x.n_points, y.n_points) if features else (y.n, y.m)
    if rounds is None and n > m:
        rounds = _subsampling(DEFAULT_ROUNDS, seed)
    if rounds is not None:
        run = ecd_subsampled if features else ecd_subsampled_from_distances
        rep = run(x, y, args.k, rounds, seed)
    else:
        run = ecd if features else ecd_from_distances
        rep = dataclasses.replace(run(x, y, args.k), seed=seed)
    if args.dump_graph:
        _dump_graph_csv(rep.graph, args.dump_graph)
    _write_json(rep.to_json_dict(), args.out)
    return 0


def cmd_measures(args) -> int:
    x, y = _load(args)
    if isinstance(x, FeatureSet):
        result, n, m = measures_from_features(x, y), x.n_points, y.n_points
    else:
        result, n, m = measures_from_cross(x.values[: y.n, y.n :]), y.n, y.m
    _write_json({**result.to_json_dict(), "n": n, "m": m}, args.out)
    return 0


def cmd_experiment(args) -> int:
    table = args.runner(
        n=args.n, k=args.k, seed=args.seed, workers=args.workers,
        **{args.shape: getattr(args, args.shape)},
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
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


_WORKERS_HELP = (
    "runner threads, at least 1 (default 1); only sampling and, from 256 features, "
    "the BLAS products of pooled distances overlap (strip distances hold the GIL), "
    "and scoring (k-MST, moments, Fréchet) runs one cell at a time, so a second "
    "thread speeds up variance-sweep but gains little or nothing on distribution-grid"
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

    def add_runner(name, summary, runner, n, shape, **shape_spec):
        # the options every runner takes, with the runner's own shape option
        # (--dims or --dim) in the middle, where the help lists it
        sp = xsub.add_parser(name, help=summary)
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", required=True, metavar="CSV")
        sp.add_argument("--n", type=int, default=n, help="points per set")
        sp.add_argument("--k", type=int, default=DEFAULT_K)
        sp.add_argument(shape, **shape_spec)
        sp.add_argument("--workers", type=int, help=_WORKERS_HELP)
        sp.set_defaults(func=cmd_experiment, runner=runner, shape=shape[2:])

    add_runner("variance-sweep", "gaussian variance sweep table", variance_sweep,
               DEFAULT_SWEEP_N, "--dims", type=_parse_dims, default=DEFAULT_SWEEP_DIMS,
               metavar="D1,D2,...")
    add_runner("distribution-grid", "distribution-pair table", distribution_grid,
               DEFAULT_GRID_N, "--dim", type=int, default=DEFAULT_GRID_DIM)

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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
