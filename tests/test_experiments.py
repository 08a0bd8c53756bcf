"""The experiment configs under experiments/: they parse and they run."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cmpc import ExperimentConfig, run_experiment

EXPERIMENTS = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.json"))


def load(path):
    return ExperimentConfig.from_json_dict(json.loads(path.read_text()))


def test_experiments_present_with_unique_ids():
    assert EXPERIMENTS, "no experiment configs found"
    ids = [load(path).experiment_id for path in EXPERIMENTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.stem)
def test_experiment_runs_and_validates(path, tmp_path):
    cfg = load(path)
    # run_experiment validates every solution; a failure raises and dumps into tmp_path.
    small = replace(cfg, trials=1, sweep_values=cfg.sweep_values[:2], out=str(tmp_path / "out.csv"))
    rows = run_experiment(small)
    data = [r for r in rows if r.seed is not None]
    assert len(data) == 2 * 2  # two points, one trial, pd and ncs
    assert {r.algo for r in data} == {"pd", "ncs"}
    assert all(r.experiment_id == cfg.experiment_id for r in data)
