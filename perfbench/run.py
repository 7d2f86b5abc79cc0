"""ecdkit benchmark: four workloads, end-to-end metrics, optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload pair-large --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12 --trace 1

One workload per process, so ``peak_rss_mb`` and ``setup_s`` belong to it
alone; ``--workload all`` runs each in a fresh interpreter and prints
every metric by name with its unit. The last stdout line is the result
JSON ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the output digests and the first gate problems. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from shims import TraceData, Tracer, per_layer_metrics

NAMES = ("pair-large", "cli-files", "grid", "sweep")

#: Set-up runs per benchmark run; setup_s reports their median.
SETUP_REPEATS = 3

#: The benchmark runs at most two compute threads (nproc on the reference
#: machine): the runners' two workers. BLAS pools would add more.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def loop(wl, seconds: float, min_rounds: int = 1, trace=None) -> list:
    """Closed loop: run rounds back to back until `seconds` have passed
    and at least `min_rounds` rounds completed."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(len(rounds), trace))
    return rounds


def traced_loop(wl, count: int, alloc: bool):
    """Replay the first `count` rounds with the shims installed."""
    data = TraceData(alloc)
    tracer = Tracer(alloc)
    tracer.install()
    try:
        rounds = loop(wl, 0.0, min_rounds=count, trace=data)
    finally:
        tracer.uninstall()
    data.add_tracer(tracer)
    return rounds, data


def gate_rounds(gate, rounds, expected=None) -> None:
    """Gate every item; in a traced replay, outputs must match the plain run."""
    for i, rnd in enumerate(rounds):
        extra = []
        if expected is not None and rnd.output != expected[i].output:
            extra = [f"round {i}: traced output differs from the untraced run"]
        for problems in rnd.problems:
            gate.item(list(problems) + extra)


def digest_line(name: str, rounds, gate) -> dict:
    return {
        "workload": name,
        "items": sum(len(r.item_s) for r in rounds),
        "item_s": [[round(s, 4) for s in r.item_s] for r in rounds],
        "digests": {str(i): hashlib.sha256(r.output).hexdigest() for i, r in enumerate(rounds)},
        "problems": gate.problems,
    }


def run_one(args, root: Path) -> int:
    import ecdkit
    from gate import Gate, self_test
    from workloads import WORKLOADS, child_env

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, root)
        # one set-up: a fresh interpreter importing ecdkit.cli (numpy and
        # scipy with it), then input generation and a warm-up call
        import_cmd = [sys.executable, "-c", "import ecdkit.cli"]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(import_cmd, env=child_env(root), check=True)
            wl.prepare()
            wl.warmup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        self_test(ecdkit)
        wl.reference()
        gate = Gate()
        if not args.trace:
            rounds = loop(wl, args.seconds, wl.min_rounds)
            gate_rounds(gate, rounds)
            items = [s for r in rounds for s in r.item_s]
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
            metrics = {
                "items_per_s": metric(len(items) / sum(r.wall_s for r in rounds), "1/s"),
                "item_p50_s": metric(statistics.median(items), "s"),
                "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
                "setup_s": metric(setup_s, "s"),
                "ok_ratio": metric((gate.attempted - gate.failed) / gate.attempted, "ratio"),
            }
        else:
            # the same rounds twice: untraced, then traced; the wall-time
            # difference per item is the tracing overhead
            plain = loop(wl, args.seconds / 2.0)
            rounds, data = traced_loop(wl, len(plain), alloc=False)
            # allocation peaks come from one more replay: tracemalloc would
            # distort the layer times
            alloc_rounds, alloc_data = traced_loop(wl, 1, alloc=True)
            data.alloc_mib = alloc_data.alloc_mib
            gate_rounds(gate, plain)
            gate_rounds(gate, rounds, expected=plain)
            gate_rounds(gate, alloc_rounds, expected=plain)
            n_items = sum(len(r.item_s) for r in rounds)
            traced_wall = sum(r.wall_s for r in rounds)
            overhead = (traced_wall - sum(r.wall_s for r in plain)) / n_items
            metrics = {
                name: metric(value, unit)
                for name, (value, unit) in per_layer_metrics(
                    data, n_items, traced_wall, wl.workers, overhead).items()
            }
        print(json.dumps(digest_line(args.workload, rounds, gate)))
        print(json.dumps({
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; a table, then one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    modes = (0, 1) if args.trace else (0,)
    for name in NAMES:
        for trace in modes:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name}: exit {proc.returncode}", file=sys.stderr)
                return 1
            info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            print(f"# {name} trace={trace} items={info['items']} failed={result['failed']}"
                  f" digests={info['digests']}")
            for key, m in result["metrics"].items():
                print(f"{name:<11} {key:<32} {m['value']:>14.6g} {m['unit']}")
                merged["metrics"][f"{name}/{key}"] = m
            for problem in info["problems"]:
                print(f"{name:<11} problem: {problem}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ecdkit" / "__init__.py").is_file():
        print(f"error: no ecdkit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    return run_one(args, root)


if __name__ == "__main__":
    raise SystemExit(main())
