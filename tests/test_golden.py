"""Golden outputs: sha256 digests of the bytes ecdkit writes.

Every input is generated here from fixed seeds, so nothing large is
committed. A digest pins the exact bytes of one output: CLI `ecd` JSON
(feature and distance modes, and a subsampled run with its
`--dump-graph` CSV), CLI `measures` JSON in both modes, both runner
CSVs at workers 1, 2 and 4 (one digest per seed, every worker count
writing it), `permutation_samples` rows, `frechet_gaussian` as
`float.hex`, and the `sample` and `subsample_round_indices` arrays.

A change that moves a digest changes ecdkit's output: list it as an
output change, and updating the digest as a test change. The digests were
recorded with the numpy and scipy versions in RECORDED_WITH; a mismatch
prints the versions in use, so an environment change reads as one.
"""

import csv
import hashlib
from importlib.metadata import version

import numpy as np
import pytest

from ecdkit import (
    DistributionSpec,
    FeatureSet,
    fit_gaussian,
    frechet_gaussian,
    kmst,
    pairwise_distances,
    permutation_samples,
    sample,
)
from ecdkit.cli import main
from ecdkit.ecd import subsample_round_indices

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

SEEDS = (0, 17)


def points(seed, count, dim, scale=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((count, dim)) * scale


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(float(v)) for v in row] for row in rows)
    return str(path)


def check(name, data, digest):
    got = hashlib.sha256(data).hexdigest()
    env = {lib: version(lib) for lib in RECORDED_WITH}
    assert got == digest, (
        f"{name}: sha256 {got} != pinned {digest}; "
        f"running numpy {env['numpy']}, scipy {env['scipy']}; "
        f"digests recorded with numpy {RECORDED_WITH['numpy']}, scipy {RECORDED_WITH['scipy']}"
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Feature files of a 40 vs 40 pair (variance 1.5 vs 1, dim 3), their
    pooled distance matrix, and a 300 vs 200 pair for subsampling."""
    root = tmp_path_factory.mktemp("golden")
    a, b = points(101, 40, 3, np.sqrt(1.5)), points(102, 40, 3)
    d = pairwise_distances(FeatureSet(a), FeatureSet(b)).values
    return {
        "a": write_rows(root / "a.csv", a),
        "b": write_rows(root / "b.csv", b),
        "d": write_rows(root / "d.csv", d),
        "big": write_rows(root / "big.csv", points(103, 300, 3, np.sqrt(1.2))),
        "small": write_rows(root / "small.csv", points(104, 200, 3)),
        "root": root,
    }


def cli_bytes(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


ECD = {
    "features": (
        "1c361ca0a8649de910f6aa358cf3199054100393bfc512d4a45ea511db1fa9fd",
        "887ea65ede1341abd9b53de9fc6b0189dbe004eeaf7ee2bc7045e95a03098640",
    ),
    "distances": (
        "1c361ca0a8649de910f6aa358cf3199054100393bfc512d4a45ea511db1fa9fd",
        "887ea65ede1341abd9b53de9fc6b0189dbe004eeaf7ee2bc7045e95a03098640",
    ),
}


@pytest.mark.parametrize("mode", sorted(ECD))
def test_ecd_json_and_graph(files, mode):
    io = {
        "features": ["--set-a", files["a"], "--set-b", files["b"]],
        "distances": ["--distances", files["d"], "--split", "40"],
    }[mode]
    graph = files["root"] / f"ecd-{mode}.csv"
    data = cli_bytes(["ecd", *io, "--k", "3", "--dump-graph", str(graph)],
                     files["root"] / f"ecd-{mode}.json")
    json_digest, graph_digest = ECD[mode]
    check(f"ecd {mode} JSON", data, json_digest)
    check(f"ecd {mode} --dump-graph CSV", graph.read_bytes(), graph_digest)


SUBSAMPLED = {
    0: (
        "846d880e788f2bc650ae3e5bfd497272583a9802d96c914a0265b928e6b98161",
        "517a8e66f8a95ef0f6c685b198e421bdd60a4b334920b90d20e89945b9b02224",
    ),
    17: (
        "95af3a2f88076d586409deda12abe91c5baa2520e70692c3f49a1ebede48a7bb",
        "3da4f921d2495a2e6cc22e75187635a7b76e266f40ea327905efcc4ead013541",
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_subsampled_ecd_and_graph(files, seed):
    graph = files["root"] / f"graph-{seed}.csv"
    data = cli_bytes(
        ["ecd", "--set-a", files["big"], "--set-b", files["small"], "--k", "3",
         "--rounds", "3", "--seed", str(seed), "--dump-graph", str(graph)],
        files["root"] / f"sub-{seed}.json",
    )
    json_digest, graph_digest = SUBSAMPLED[seed]
    check(f"subsampled ecd JSON, seed {seed}", data, json_digest)
    check(f"subsampled --dump-graph CSV, seed {seed}", graph.read_bytes(), graph_digest)


MEASURES_JSON = {
    "features": "37d99c38ae21c1967ab1db29ca473d101182edcd49551b2c1bc8773acd534b6b",
    "distances": "7ba29d77415cf3291843e3e4a2fa3d08d4e6dd783922dec767e6f4447e18cd39",
}


@pytest.mark.parametrize("mode", sorted(MEASURES_JSON))
def test_measures_json(files, mode):
    io = {
        "features": ["--set-a", files["a"], "--set-b", files["b"]],
        "distances": ["--distances", files["d"], "--split", "40"],
    }[mode]
    data = cli_bytes(["measures", *io], files["root"] / f"measures-{mode}.json")
    check(f"measures {mode} JSON", data, MEASURES_JSON[mode])


RUNNERS = {
    "variance-sweep": ["--dims", "2,30", "--n", "60", "--k", "3"],
    "distribution-grid": ["--dim", "20", "--n", "60", "--k", "3"],
}

RUNNER_CSV = {
    ("variance-sweep", 0): "3da550aedf7377737a86c888f200da1aa705c5865e27450020b71991a08d6b1b",
    ("variance-sweep", 17): "c482793853d7a7691adf03373de24d81dd8205855ed633b464dc8a770384365b",
    ("distribution-grid", 0): "784d766265754cbab58006abd77aafc9fdaadcee8a0898be99beb0cb53c43504",
    ("distribution-grid", 17): "a1d810f042824137a5018444cd4ed77b7fe2f4d5e2334b8b9fabf27f81846d05",
}


@pytest.mark.parametrize("runner, seed", sorted(RUNNER_CSV))
def test_runner_csv(tmp_path, runner, seed):
    for workers in (1, 2, 4):
        data = cli_bytes(
            ["experiment", runner, *RUNNERS[runner], "--seed", str(seed),
             "--workers", str(workers)],
            tmp_path / f"{workers}.csv",
        )
        check(f"{runner} CSV, seed {seed}, workers {workers}", data, RUNNER_CSV[runner, seed])


PERMUTATION_ROWS = {
    (30, 0): "562836d0ee55dccb21ddf9fc73b9fca5886f0b5ff9fc4d4bca90e086600e107f",
    (30, 17): "311bf2e1f7c7493144b9e603fe710f2289cb81e8750b7736c837ed2ce27b9ecf",
    (1000, 0): "c5247204d66040b08f81e752deb9a6a076225b7641a2e86987d93c38e0927a8a",
    (1000, 17): "13bfc76efe2c9c4676a74be69e72c64cfb6d1fc6838191328846edbaddfc8c35",
}


@pytest.mark.parametrize("n_total, seed", sorted(PERMUTATION_ROWS))
def test_permutation_rows(n_total, seed):
    n = n_total // 2 + 1  # an unequal split
    pts = points(105, n_total, 4)
    g = kmst(pairwise_distances(FeatureSet(pts[:n]), FeatureSet(pts[n:])), 3)
    rows = permutation_samples(g, n, n_total - n, 257, seed)
    check(f"permutation rows, N={n_total}, seed {seed}", rows.tobytes(),
          PERMUTATION_ROWS[n_total, seed])


FRECHET_HEX = "6cf8b0de55786500b9727dea84eb290eda9ae6b846d2816f6c9690aaaf0ad5d7"


def test_frechet_hex():
    # grid-like inputs: one 60-point set of each law at dim 20
    fits = [fit_gaussian(sample(DistributionSpec(kind, 20), 60, seed))
            for seed, kind in enumerate(("gaussian", "uniform", "binary"))]
    values = [frechet_gaussian(p, q).hex() for p in fits for q in fits]
    check("frechet_gaussian hex", " ".join(values).encode(), FRECHET_HEX)


SAMPLE_BYTES = {
    0: "880925206f168214fcc98ff76f11586862ea12a4f923a227c369b6ee4a028837",
    17: "37015a7eae0ab943d41943e0270d55bcff63878476f331e848b35d18fffc2e86",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_bytes(seed):
    laws = [DistributionSpec("gaussian", 5, 1.3), DistributionSpec("uniform", 5),
            DistributionSpec("binary", 5)]
    data = b"".join(sample(spec, 50, seed).points.tobytes() for spec in laws)
    check(f"sample bytes, seed {seed}", data, SAMPLE_BYTES[seed])


ROUND_INDICES = {
    0: "5989ead267fb104bfdaa2c3ea57bd750cdedd6ff7f1b14fe94baac584fcf7886",
    17: "be03602ed996fddfbf4bad8affc966203083680f713192c58831c4efd420869e",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_subsample_round_indices_bytes(seed):
    data = b"".join(subsample_round_indices(seed, r, 300, 200).tobytes() for r in range(3))
    check(f"subsample_round_indices bytes, seed {seed}", data, ROUND_INDICES[seed])
