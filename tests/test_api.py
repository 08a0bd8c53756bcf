"""The package namespace: the exported names, and every one the benchmark calls."""

import ast
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
