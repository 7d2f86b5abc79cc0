"""Every name a library module imports is used in that module, every
module-level private helper is used somewhere in the library, and
importing ecdkit loads numpy but not scipy.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library's `ast`. A name counts as used
when it is read anywhere in the module: code, annotations (which stay in
the tree under ``from __future__ import annotations``) and decorators.
``__init__.py`` is left out of the import check, since it imports names
to re-export them.

scipy is imported inside the functions that compute a distance or an
eigenvalue, so the CLI commands that do neither start without it. A
static check finds a scipy import that runs at module import; child
interpreters confirm which commands load scipy and which do not.

The micro-benchmarks under bench/ sit outside the suite's testpaths, so
one more child collects them: a public name they import that goes away
fails here, not only when someone next runs them.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ecdkit
from ecdkit import FeatureSet, ecd, measures_from_features, pairwise_distances

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecdkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    source = (
        "import os\nfrom dataclasses import dataclass, field\n\n"
        "@dataclass\nclass A:\n    p: os.PathLike\n"
    )
    assert unused_imports(source) == ["field (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _defined(node) -> list[str]:
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def dead_helpers(sources: dict) -> list[str]:
    """Module-level `_name`s (dunders aside) of `sources` ({file: text}) that
    no file reads: by name, as an attribute or in a from-import."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{file}: {name} (line {node.lineno})"
        for file, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and name not in used
    ]


def test_checker_sees_a_dead_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_SEEN: set = set()\n\ndef _used():\n    return _LIMIT\n\n"
                "def _dead():\n    pass\n\nclass _Old:\n    pass\n",
        "b.py": "from a import _used\nimport a\n\n__all__ = []\nprint(_used(), a._SEEN)\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead (line 7)", "a.py: _Old (line 10)"]


def test_every_private_helper_is_used():
    assert dead_helpers({p.name: p.read_text() for p in SOURCES}) == []


def eager_imports(source: str, package: str) -> list[str]:
    """Imports of `package` (or a submodule) that run when the module is
    imported: every one outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.extend(f"{name} (line {child.lineno})" for name in names
                         if name == package or name.startswith(package + "."))
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_sees_an_eager_import():
    source = (
        "import numpy as np\nimport scipy.sparse\nfrom scipy.linalg import lapack\n"
        "try:\n    from scipy import special\nexcept ImportError:\n    special = None\n\n"
        "class A:\n    from scipy import stats\n\n"
        "    def f(self):\n        import scipy\n\n"
        "def g():\n    from scipy.spatial.distance import cdist\n    return cdist\n\n"
        "import scipyx\nfrom .scipy import x\n"
    )
    assert eager_imports(source, "scipy") == [
        "scipy.sparse (line 2)", "scipy.linalg (line 3)", "scipy (line 5)", "scipy (line 10)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_scipy_only_in_functions(path):
    assert eager_imports(path.read_text(), "scipy") == []


#: A fresh interpreter's script: `body` sets `code`, then the exit code
#: and the scipy modules loaded go to stderr as one JSON line.
CHILD = """import json, sys
{body}
sys.stdout.flush()
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
sys.stderr.write(json.dumps({{"code": code, "scipy": loaded}}) + "\\n")
"""

#: Runs ecdkit.cli.main on the child's arguments.
RUN_CLI = """from ecdkit.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code"""


def run_child(body: str, *args: str) -> tuple[str, dict]:
    """stdout and the JSON stderr line of CHILD around `body`, run with
    this checkout's ecdkit first on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(ecdkit.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", CHILD.format(body=body), *args], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return child.stdout, json.loads(child.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    rng = np.random.default_rng(3)
    a, b = FeatureSet(rng.standard_normal((12, 3))), FeatureSet(rng.standard_normal((12, 3)))
    paths = {name: str(root / f"{name}.csv") for name in ("a", "b", "d", "table")}
    np.savetxt(paths["a"], a.points, fmt="%.17g", delimiter=",")
    np.savetxt(paths["b"], b.points, fmt="%.17g", delimiter=",")
    np.savetxt(paths["d"], pairwise_distances(a, b).values, fmt="%.17g", delimiter=",")
    Path(paths["table"]).write_text(
        "experiment_id,kind_a,kind_b,dim,variance_a,measure_name,value,seed,n,m,k\n"
        "variance-sweep,gaussian,gaussian,3,0.5,ECD,2.5,0,10,10,1\n"
        "variance-sweep,gaussian,gaussian,3,1.5,ECD,4.0,0,10,10,1\n"
    )
    paths["stem"] = str(root / "panel")
    return a, b, paths


@pytest.mark.parametrize("module", ["ecdkit", "ecdkit.cli"])
def test_import_loads_no_scipy(module):
    _, seen = run_child(f"import {module}\ncode = 0")
    assert seen == {"code": 0, "scipy": []}


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["ecd", "--distances", "{d}", "--split", "12", "--k", "2"],
    ["measures", "--distances", "{d}", "--split", "12"],
    ["plot", "--table", "{table}", "--out", "{stem}"],
], ids=["help", "ecd-distances", "measures-distances", "plot"])
def test_command_loads_no_scipy(files, argv):
    _, _, paths = files
    _, seen = run_child(RUN_CLI, *(arg.format(**paths) for arg in argv))
    assert seen == {"code": 0, "scipy": []}


@pytest.mark.parametrize("command", ["ecd", "measures"])
def test_feature_mode_loads_scipy_and_matches_library(files, command):
    a, b, paths = files
    k = ["--k", "2"] if command == "ecd" else []
    out, seen = run_child(RUN_CLI, command, "--set-a", paths["a"], "--set-b", paths["b"], *k)
    assert seen["code"] == 0
    assert "scipy.spatial.distance" in seen["scipy"]
    if command == "ecd":
        payload = ecd(a, b, k=2).to_json_dict()
    else:
        payload = measures_from_features(a, b).to_json_dict()
        payload.update(n=a.n_points, m=b.n_points)
    assert out == json.dumps(payload, indent=2) + "\n"


def test_bench_collects():
    # bench/ lies outside testpaths, so only this child imports it here:
    # a public name it uses that is renamed or removed fails collection
    root = Path(ecdkit.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    collected = re.search(r"^(\d+) tests? collected", child.stdout, re.MULTILINE)
    assert collected and int(collected.group(1)) >= 23, child.stdout
