"""The package namespace: the exported names, and every one the benchmark calls."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
