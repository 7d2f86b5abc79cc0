"""The four benchmark workloads.

Each is a closed loop driven by one caller: a round runs its items one
after another (the experiment runners overlap their cells on two worker
threads, which is the runners' own behaviour), and the next round starts
only after the previous one finished. Inputs are generated from the
workload seed; ecdkit receives only the generated inputs.

A workload provides ``prepare`` (generate and write inputs), ``warmup``,
``reference`` (library results the CLI is gated against) and
``run_round(r, trace)``, which returns a :class:`Round`.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import ecdkit
from gate import (
    edge_total_problems,
    frechet_problems,
    json_equal_problems,
    report_problems,
)
from shims import replace_everywhere, restore

K = 10
_ECD = importlib.import_module("ecdkit.ecd")
_EXP = importlib.import_module("ecdkit.experiments")
_SM = importlib.import_module("ecdkit.setmeasures")

#: Seconds a single CLI invocation may take before it counts as failed.
CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    """One round: per-item seconds, timed wall, output bytes, per-item problems."""

    item_s: list
    wall_s: float
    output: bytes
    problems: list


def child_env(root: Path) -> dict:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return env


def _derived_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0])


def _report_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def _write_csv(path: Path, values: np.ndarray) -> None:
    # 17 significant digits round-trip float64 exactly through float()
    fmt = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(fmt % tuple(row) for row in values.tolist())


class PairLarge:
    """Library ``ecd(a, b, k=10)`` on a fresh Gaussian pair per item:
    2000 + 2000 points at dim 32, variance 1.0 against 1.1."""

    name = "pair-large"
    workers = 1
    min_rounds = 1
    n_each, dim, var_b = 2000, 32, 1.1

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed

    def inputs(self, r: int):
        rng = np.random.default_rng([self.seed, 0, r])
        a = rng.standard_normal((self.n_each, self.dim))
        b = rng.standard_normal((self.n_each, self.dim)) * np.sqrt(self.var_b)
        return ecdkit.FeatureSet(a), ecdkit.FeatureSet(b)

    def prepare(self) -> None:
        self.inputs(0)

    def warmup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        _ECD.ecd(ecdkit.FeatureSet(rng.standard_normal((100, self.dim))),
                 ecdkit.FeatureSet(rng.standard_normal((100, self.dim))), k=K)

    def reference(self) -> None:
        pass

    def run_round(self, r: int, trace) -> Round:
        a, b = self.inputs(r)
        t0 = time.perf_counter()
        try:
            rep = _ECD.ecd(a, b, k=K)
        except Exception as exc:  # any raise is a failed item, not a crashed run
            t1 = time.perf_counter()
            return Round([t1 - t0], t1 - t0, b"", [[f"ecd raised {exc!r}"]])
        t1 = time.perf_counter()
        problems = report_problems(rep, K, subsampled=False)
        return Round([t1 - t0], t1 - t0, _report_bytes(rep.to_json_dict()), [problems])


class CliFiles:
    """A fixed session of three ``ecdkit`` CLI invocations, each its own
    child process, on CSV inputs written during set-up."""

    name = "cli-files"
    workers = 1
    # a session (~16 s) outlasts the 12 s run, and the median of one
    # session's three unlike invocations is a single sample; two give six
    min_rounds = 2
    pool_each, dim, var_b = 1000, 100, 1.1
    gen_n, ref_n = 2000, 1000

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.shim = Path(__file__).resolve().parent / "clichild.py"
        self.env = child_env(root)
        self.session = [
            ("ecd-distances",
             ["ecd", "--distances", "pool.csv", "--split", str(self.pool_each), "--k", str(K)]),
            ("measures-distances",
             ["measures", "--distances", "pool.csv", "--split", str(self.pool_each)]),
            ("ecd-subsampled",
             ["ecd", "--set-a", "gen.csv", "--set-b", "ref.csv", "--seed", str(seed),
              "--dump-graph", "edges.csv"]),
        ]

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        pts = rng.standard_normal((2 * self.pool_each, self.dim))
        pts[self.pool_each:] *= np.sqrt(self.var_b)
        upper = np.triu(cdist(pts, pts), k=1)
        self.pool = upper + upper.T  # exactly symmetric, zero diagonal
        rng = np.random.default_rng([self.seed, 2])
        self.gen = rng.standard_normal((self.gen_n, self.dim))
        self.ref = rng.standard_normal((self.ref_n, self.dim)) * np.sqrt(self.var_b)
        _write_csv(self.work / "pool.csv", self.pool)
        _write_csv(self.work / "gen.csv", self.gen)
        _write_csv(self.work / "ref.csv", self.ref)

    def warmup(self) -> None:
        pass  # the set-up's fresh-interpreter import already warmed what a child loads

    def reference(self) -> None:
        """Library reports for the session's inputs, plus their own gate."""
        d = ecdkit.validate_distance_matrix(self.pool)
        labels = ecdkit.PooledLabels(n=self.pool_each, m=self.pool_each)
        rep = ecdkit.ecd_from_distances(d, labels, k=K)
        meas = ecdkit.measures_from_cross(d.values[: self.pool_each, self.pool_each:]).to_json_dict()
        meas.update(n=self.pool_each, m=self.pool_each)
        sub = ecdkit.ecd_subsampled(ecdkit.FeatureSet(self.gen), ecdkit.FeatureSet(self.ref),
                                    k=K, rounds=ecdkit.DEFAULT_ROUNDS, seed=self.seed)
        self.want = [
            (json.loads(json.dumps(rep.to_json_dict())), report_problems(rep, K, subsampled=False)),
            (json.loads(json.dumps(meas)), []),
            (json.loads(json.dumps(sub.to_json_dict())), report_problems(sub, K, subsampled=True)),
        ]

    def _invoke(self, argv, trace=None, trace_path=None):
        cmd = [sys.executable, "-m", "ecdkit.cli", *argv]
        env = self.env
        t0 = time.monotonic()
        if trace is not None:
            cmd = [sys.executable, str(self.shim), str(trace_path), *argv]
            env = dict(env, PERFBENCH_T0=repr(t0), PERFBENCH_ALLOC="1" if trace.alloc else "0")
        proc = subprocess.run(cmd, cwd=self.work, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc, time.monotonic() - t0

    def run_round(self, r: int, trace) -> Round:
        item_s, output, problems = [], b"", []
        (self.work / "edges.csv").unlink(missing_ok=True)
        for i, ((label, argv), (want, lib_problems)) in enumerate(zip(self.session, self.want)):
            trace_path = self.work / f"trace-{r}-{i}.json"
            try:
                proc, seconds = self._invoke(argv, trace, trace_path)
            except subprocess.TimeoutExpired:
                item_s.append(float(CHILD_TIMEOUT_S))
                problems.append([f"{label}: timed out"])
                continue
            item_s.append(seconds)
            output += proc.stdout
            if proc.returncode != 0:
                problems.append([f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}"])
                continue
            if trace is not None:
                trace.add_file(trace_path)
            try:
                got = json.loads(proc.stdout)
            except ValueError as exc:
                problems.append([f"{label}: unreadable report: {exc}"])
                continue
            found = list(lib_problems) + json_equal_problems(label, got, want)
            if "edges" in want:
                found += edge_total_problems(got["r1"], got["r2"], got["edges"],
                                             got["n"] + got["m"], K)
            if "--dump-graph" in argv:
                dump = (self.work / "edges.csv").read_bytes()
                output += dump
                rows = dump.count(b"\n") - 1  # minus the header
                if rows != got["edges"]:
                    found.append(f"{label}: edge dump has {rows} rows, "
                                 f"report says {got['edges']} edges")
            problems.append(found)
        return Round(item_s, sum(item_s), output, problems)


class _Capture:
    """Watches one experiment-runner call: per-cell seconds, and every
    report and Fréchet value the cells produce, for the gate.

    Wraps the public ``ecd_from_distances`` and ``frechet_gaussian``
    wherever they are bound, and the runner's cell function for timing.
    """

    def __init__(self, cell_fn: str):
        self.cell_fn = cell_fn
        self.cell_s, self.reports, self.frechets = [], [], []

    def __enter__(self):
        efd = _ECD.ecd_from_distances
        fre = _SM.frechet_gaussian
        cell = getattr(_EXP, self.cell_fn, None)

        def capture_efd(*args, **kwargs):
            rep = efd(*args, **kwargs)
            self.reports.append(rep)
            return rep

        def capture_fre(p, q):
            value = fre(p, q)
            self.frechets.append((p, q, value))
            return value

        def timed_cell(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return cell(*args, **kwargs)
            finally:
                self.cell_s.append(time.perf_counter() - t0)

        self._undo = replace_everywhere(efd, capture_efd) + replace_everywhere(fre, capture_fre)
        if cell is not None:
            self._undo += replace_everywhere(cell, timed_cell)
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        return False


class _Experiment:
    """Shared round logic of the two experiment-runner workloads."""

    workers = 2
    min_rounds = 1
    cell_fn = ""
    measures = ()

    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work

    def run(self, seed: int, small: bool):
        raise NotImplementedError

    def cell_key(self, row):
        raise NotImplementedError

    def prepare(self) -> None:
        pass  # the runners draw their own inputs from the seed

    def warmup(self) -> None:
        self.run(_derived_seed(self.seed, 2**31), small=True)

    def reference(self) -> None:
        pass

    def run_round(self, r: int, trace) -> Round:
        with _Capture(self.cell_fn) as cap:
            t0 = time.perf_counter()
            try:
                table = self.run(_derived_seed(self.seed, r), small=False)
            except Exception as exc:  # any raise fails every cell of the round
                t1 = time.perf_counter()
                msg = f"{self.name} raised {exc!r}"
                return Round([t1 - t0] * self.cells, t1 - t0, b"", [[msg] for _ in range(self.cells)])
            t1 = time.perf_counter()
        path = self.work / f"{self.name}-{r}.csv"
        table.to_csv(path)
        output = path.read_bytes()
        path.unlink()
        wall = t1 - t0
        # without a cell hook, each cell is charged its share of worker time
        item_s = cap.cell_s if len(cap.cell_s) == self.cells else [wall * self.workers / self.cells] * self.cells
        return Round(item_s, wall, output, self.cell_problems(table, cap))

    def cell_problems(self, table, cap) -> list:
        cells = {}
        for row in table.rows:
            cells.setdefault(self.cell_key(row), []).append(row)
        by_stat = {}
        for rep in cap.reports:
            by_stat.setdefault(rep.statistic, []).append(rep)
        by_fre = {}
        for p, q, value in cap.frechets:
            by_fre.setdefault(value, []).append((p, q))
        out = []
        for key, rows in cells.items():
            found = []
            if sorted(r.measure_name for r in rows) != sorted(self.measures):
                found.append(f"cell {key}: measures {[r.measure_name for r in rows]}")
            for row in rows:
                found += self.row_problems(key, row, by_stat, by_fre)
            out.append(found)
        if len(out) != self.cells:
            msg = f"{self.name}: {len(cells)} cells in table, expected {self.cells}"
            out = [found + [msg] for found in out] + [[msg] for _ in range(self.cells - len(out))]
            out = out[: self.cells]
        return out

    def row_problems(self, key, row, by_stat, by_fre) -> list:
        if row.measure_name == "ECD":
            if not by_stat.get(row.value):
                return [f"cell {key}: no library report with ECD {row.value!r}"]
            rep = by_stat[row.value].pop()
            return report_problems(rep, row.k, subsampled=False)
        if row.measure_name == "FID":
            if not by_fre.get(row.value):
                return [f"cell {key}: no Fréchet call returned {row.value!r}"]
            p, q = by_fre[row.value].pop()
            return frechet_problems(p, q, row.value)
        if row.measure_name == "COV" and not 0.0 < row.value <= 1.0:
            return [f"cell {key}: coverage {row.value!r} outside (0, 1]"]
        if row.measure_name == "MMD" and not row.value > 0.0:
            return [f"cell {key}: matching distance {row.value!r} not positive"]
        return []


class Grid(_Experiment):
    """``distribution_grid(dim=100, n=500, k=10, workers=2)``; an item is a cell."""

    name = "grid"
    cell_fn = "_grid_cell"
    cells = 6
    measures = ("ECD", "FID")

    def run(self, seed: int, small: bool):
        if small:
            return _EXP.distribution_grid(dim=4, n=12, k=2, seed=seed, workers=1)
        return _EXP.distribution_grid(dim=100, n=500, k=K, seed=seed, workers=self.workers)

    def cell_key(self, row):
        return (row.kind_a, row.kind_b)


class Sweep(_Experiment):
    """``variance_sweep(dims=(100, 1000), variances=(0.5, ..., 1.5), n=500,
    k=10, workers=2)``; an item is a cell."""

    name = "sweep"
    cell_fn = "_sweep_cell"
    cells = 10
    measures = ("ECD", "COV", "MMD")
    variances = (0.5, 0.75, 1.0, 1.25, 1.5)

    def run(self, seed: int, small: bool):
        if small:
            return _EXP.variance_sweep(dims=(4,), variances=(1.0,), n=12, k=2, seed=seed, workers=1)
        return _EXP.variance_sweep(dims=(100, 1000), variances=self.variances, n=500, k=K,
                                   seed=seed, workers=self.workers)

    def cell_key(self, row):
        return (row.dim, row.variance_a)


WORKLOADS = {cls.name: cls for cls in (PairLarge, CliFiles, Grid, Sweep)}
