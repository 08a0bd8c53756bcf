"""The package namespace: the exported names, every one the benchmark calls,
and what its modules import and how large they are."""

import ast
import importlib
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cmpc

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = [
    "AscentStalledError",
    "CapacityInvariantError",
    "ExperimentConfig",
    "GenConfig",
    "Instance",
    "InsufficientCapacityError",
    "Point",
    "PowerParams",
    "ResultRow",
    "Server",
    "Solution",
    "User",
    "check_charging",
    "dual_objective",
    "dump_instance",
    "gen_instance",
    "load_instance",
    "ncs_solve",
    "opt_solve",
    "pd_solve",
    "run_experiment",
    "validate",
    "verify_dual_feasibility",
    "write_csv",
]


def test_all_is_the_narrow_list():
    assert sorted(cmpc.__all__) == EXPORTED
    assert len(cmpc.__all__) == len(set(cmpc.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in cmpc.__all__ if not hasattr(cmpc, name)]
    assert missing == []


def benchmark_api_names():
    """Every `api.<name>` attribute read in the benchmark's driver and workloads."""
    names = set()
    for rel in ("benchmark/workloads.py", "benchmark/run.py"):
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "api":
                names.add(node.attr)
    return names


def test_benchmark_api_calls_are_exported():
    names = benchmark_api_names()
    assert "pd_solve" in names  # the walk found the calls
    assert sorted(names - set(cmpc.__all__)) == []


def traced_names():
    """The (module, attribute) pairs of the SPANS and COUNTED tables in the benchmark's tracer."""
    tree = ast.parse((ROOT / "benchmark/tracing.py").read_text(encoding="utf-8"))
    pairs = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED"):
            pairs += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    return pairs


# Names the tracer still lists that left src/ long ago (ROADMAP item 5).
STALE_TRACED = {"model.build_disks", "model.server_order", "model.order_key"}


def test_every_traced_name_resolves_but_the_stale_ones():
    # A traced name that no longer resolves reads 0 in every per-layer
    # figure it feeds, so a deletion in src/ must not leave one behind.
    pairs = traced_names()
    assert ("primal_dual", "check_charging") in pairs  # the walk found the tables
    unresolved = set()
    for module, attr in pairs:
        owner = importlib.import_module(f"cmpc.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add(f"{module}.{attr}")
    assert unresolved <= STALE_TRACED


def test_import_loads_no_process_pool():
    # A sweep forks its one child with os.fork. multiprocessing or
    # concurrent.futures would only add memory and start-up time to every
    # import of cmpc.
    src = str(Path(cmpc.__file__).resolve().parents[1])
    code = "import sys, cmpc; print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def cmpc_imports(module):
    """The cmpc modules that src/cmpc/<module>.py imports."""
    tree = ast.parse((ROOT / "src" / "cmpc" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" and "from . import x" both import cmpc.x.
            found.update([f"cmpc.{node.module}"] if node.module else [f"cmpc.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return {name for name in found if name.split(".")[0] == "cmpc"}


def test_checkers_and_reference_solvers_do_not_import_the_ascent():
    # The certificate checkers and the baselines check or compete with the
    # solver under test, so they are built from the model alone.
    assert cmpc_imports("certify") == {"cmpc.model"}
    assert cmpc_imports("reference") == {"cmpc.model", "cmpc.solution"}


def parser_tokens(path):
    """The tokens of `path` that CPython's parser keeps: all but comments and blank lines."""
    with path.open("rb") as source:
        return [token for token in tokenize.tokenize(source.readline) if token.type not in (tokenize.COMMENT, tokenize.NL)]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cmpc").glob("*.py")), ids=lambda path: path.name)
def test_every_module_fits_the_parser_token_buffer(path):
    # CPython's parser keeps a file's tokens in one array that doubles when
    # full, at 4,096. Compiling src/cmpc/primal_dual.py sets the high-water
    # mark of `import cmpc`, so a module past 4,096 tokens raises every
    # workload's peak_rss_mb by about 0.3 MB at once (the FOUND in CHANGES.md
    # on primal_dual.py's 4,008 parser tokens).
    assert len(parser_tokens(path)) < 4096
