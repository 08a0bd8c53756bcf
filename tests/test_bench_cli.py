import json
import os
import pickle
import re

import pytest

from cmpc import ExperimentConfig, run_experiment, write_csv
from cmpc import bench
from cmpc.bench import CSV_HEADER, BenchValidationError, rows_to_csv_text
from cmpc.cli import cli
from cmpc.metrics import ValidationReport
from cmpc.model import dump_instance


THREE_USER_JSON = {
    "c": 1.0,
    "alpha": 2.0,
    "servers": [{"x": 0.0, "y": 0.0, "k": 1}, {"x": 10.0, "y": 0.0, "k": 2}],
    "users": [{"x": 1.0, "y": 0.0}, {"x": 2.0, "y": 0.0}, {"x": 9.0, "y": 0.0}],
}


def tiny_config(**overrides):
    base = dict(
        experiment_id="t",
        sweep_variable="n",
        sweep_values=(5, 8),
        m=2,
        kbar=4.0,
        trials=3,
        seed_base=100,
        oracle_budget=50_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- run_experiment ---------------------------------------------------------


def test_run_experiment_row_shape():
    rows = run_experiment(tiny_config())
    data = [r for r in rows if r.seed is not None]
    means = [r for r in rows if r.seed is None]
    # 2 points x 3 trials x 3 algos (oracle finishes at this scale)
    assert len(data) == 18
    assert {r.algo for r in data} == {"pd", "ncs", "opt"}
    assert len(means) == 6
    assert all(r.experiment_id == "t:mean" for r in means)
    for r in data:
        if r.algo == "opt":
            assert r.ratio_vs_opt == 1.0
        assert r.ratio_vs_opt is not None
        assert r.runtime_ms is None  # timing off by default


def test_run_experiment_deterministic():
    a = rows_to_csv_text(run_experiment(tiny_config()))
    b = rows_to_csv_text(run_experiment(tiny_config()))
    assert a == b


def test_run_experiment_oracle_off_leaves_ratio_empty():
    rows = run_experiment(tiny_config(oracle_budget=0))
    data = [r for r in rows if r.seed is not None]
    assert {r.algo for r in data} == {"pd", "ncs"}
    assert all(r.ratio_vs_opt is None for r in data)


def test_run_experiment_budget_exceeded_drops_opt_rows():
    rows = run_experiment(tiny_config(oracle_budget=2))
    data = [r for r in rows if r.seed is not None]
    assert {r.algo for r in data} == {"pd", "ncs"}
    assert all(r.ratio_vs_opt is None for r in data)


def test_pd_mean_power_grows_with_n():
    rows = run_experiment(tiny_config(sweep_values=(5, 12), trials=8, oracle_budget=0))
    means = {
        (r.n, r.algo): r.total_power for r in rows if r.seed is None
    }
    assert means[(12, "pd")] > means[(5, "pd")]


def test_cmpc_seed_env_is_ignored(monkeypatch):
    # seed_base is the only way to set the seeds; the CSV must not depend on
    # the environment.
    monkeypatch.delenv("CMPC_SEED", raising=False)
    base = rows_to_csv_text(run_experiment(tiny_config()))
    monkeypatch.setenv("CMPC_SEED", "999")
    assert rows_to_csv_text(run_experiment(tiny_config())) == base


def test_sweep_variants_resolve():
    rows = run_experiment(
        tiny_config(sweep_variable="m_K", sweep_values=((2, 10.0), (3, 12.0)), trials=1, oracle_budget=0)
    )
    data = [r for r in rows if r.seed is not None]
    assert {(r.m, r.K) for r in data} == {(2, 10.0), (3, 12.0)}

    rows = run_experiment(
        tiny_config(sweep_variable="alpha", sweep_values=(1.0, 2.0), trials=1, oracle_budget=0)
    )
    data = [r for r in rows if r.seed is not None]
    assert {r.alpha for r in data} == {1.0, 2.0}
    # Alpha points re-solve the same datasets: identical seeds per trial.
    assert {r.seed for r in data if r.alpha == 1.0} == {r.seed for r in data if r.alpha == 2.0}


def test_alpha_sweep_monotone_on_shared_datasets():
    rows = run_experiment(
        tiny_config(
            sweep_variable="alpha",
            sweep_values=(1.0, 1.5, 2.0),
            n=10,
            trials=4,
            oracle_budget=100_000,
        )
    )
    for algo in ("pd", "opt"):
        means = [r.total_power for r in rows if r.seed is None and r.algo == algo]
        assert means[0] < means[1] < means[2]


def test_csv_header_and_types(tmp_path):
    out = tmp_path / "rows.csv"
    write_csv(run_experiment(tiny_config(trials=1)), str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "experiment_id,seed,m,n,K,lambda,alpha,c,algo,"
        "total_power,runtime_ms,ratio_vs_opt,util_variance"
    )
    first = lines[1].split(",")
    assert first[0] == "t" and first[8] in {"pd", "ncs", "opt"}
    assert first[10] == ""  # runtime empty when timing is off


# --- worker processes -------------------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Oracle budget 15 drops some, but not all, opt rows in each sweep.
JOBS_CONFIGS = [
    tiny_config(sweep_values=(5, 7, 9), trials=4, seed_base=40, oracle_budget=15),
    tiny_config(sweep_variable="m_K", sweep_values=((2, 8.0), (3, 9.0)), n=8, trials=4, seed_base=40, oracle_budget=15),
    tiny_config(sweep_variable="alpha", sweep_values=(1.0, 2.0, 3.0), n=9, trials=4, seed_base=40, oracle_budget=15),
]


@pytest.mark.parametrize("config", JOBS_CONFIGS, ids=lambda c: c.sweep_variable)
def test_csv_is_the_same_for_every_worker_count(config):
    serial = run_experiment(config, jobs=1)
    data = [r for r in serial if r.seed is not None]
    opt_rows = sum(r.algo == "opt" for r in data)
    assert 0 < opt_rows < sum(r.algo == "pd" for r in data)
    for jobs in (2, 3):
        assert rows_to_csv_text(run_experiment(config, jobs=jobs)) == rows_to_csv_text(serial)
        assert_no_child_left()


@pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2"])
def test_run_experiment_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be an int >= 1"):
        run_experiment(tiny_config(), jobs=jobs)


def test_bench_validation_error_survives_pickling():
    error = BenchValidationError("pd solution failed validation on seed 3", "out/cmpc_failed_instance_pd_3.json")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is BenchValidationError
    assert str(copy) == str(error) and copy.instance_path == error.instance_path


def failure_of(config, jobs):
    with pytest.raises(Exception) as caught:
        run_experiment(config, jobs=jobs)
    assert_no_child_left()
    return caught.value


# With 2 points x 3 trials the tasks are seeds 100..105; task i has seed 100 + i
# and runs in share i % jobs, share 0 being the calling process.
@pytest.mark.parametrize("jobs", [2, 3])
def test_child_validation_failure_matches_serial(tmp_path, monkeypatch, jobs):
    config = tiny_config(oracle_budget=0, out=str(tmp_path / "r.csv"))
    seeds_of = {}
    real_gen = bench.gen_instance

    def gen(cfg):
        instance = real_gen(cfg)
        seeds_of[id(instance)] = cfg.seed
        return instance

    real_validate = bench.validate

    def validate(instance, solution):
        # Task 1 (a child's) fails before task 2 (the caller's share when jobs = 2).
        if seeds_of[id(instance)] in (101, 102):
            return failing_validate(instance, solution)
        return real_validate(instance, solution)

    monkeypatch.setattr(bench, "gen_instance", gen)
    monkeypatch.setattr(bench, "validate", validate)
    serial = failure_of(config, 1)
    parallel = failure_of(config, jobs)
    assert type(parallel) is type(serial) is BenchValidationError
    assert str(parallel) == str(serial) and "seed 101" in str(serial)
    assert parallel.instance_path == serial.instance_path == str(tmp_path / "cmpc_failed_instance_pd_101.json")


def test_child_runtime_error_reraises_in_parent(monkeypatch):
    real = bench.ncs_solve

    def ncs(instance):
        if instance.n == 8:  # tasks 3-5; the first of them, 3, is the child's
            raise RuntimeError("ncs broke")
        return real(instance)

    monkeypatch.setattr(bench, "ncs_solve", ncs)
    error = failure_of(tiny_config(oracle_budget=0), 2)
    assert type(error) is RuntimeError and str(error) == "ncs broke"


class TwoArgumentError(Exception):
    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def test_child_error_that_cannot_be_unpickled_arrives_named(monkeypatch):
    real = bench.ncs_solve

    def ncs(instance):
        if instance.n == 8:
            raise TwoArgumentError("odd failure", 1)
        return real(instance)

    monkeypatch.setattr(bench, "ncs_solve", ncs)
    # Serially the task's own exception; from a child's share a RuntimeError naming it.
    assert type(failure_of(tiny_config(sweep_values=(8,), oracle_budget=0), 1)) is TwoArgumentError
    error = failure_of(tiny_config(sweep_values=(5, 8), trials=1, oracle_budget=0), 2)
    assert type(error) is RuntimeError and str(error) == "TwoArgumentError: odd failure"


def test_child_that_dies_is_reported(monkeypatch):
    real = bench.ncs_solve
    parent = os.getpid()

    def ncs(instance):
        if os.getpid() != parent:
            os._exit(3)
        return real(instance)

    monkeypatch.setattr(bench, "ncs_solve", ncs)
    error = failure_of(tiny_config(oracle_budget=0), 2)
    assert type(error) is RuntimeError and "exited without sending its rows" in str(error)


# --- CLI --------------------------------------------------------------------


def test_cli_gen_solve_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "instances"
    code = cli(
        [
            "gen", "--m", "3", "--n", "12", "--kbar", "4", "--seed", "5",
            "--trials", "2", "--out", str(out_dir),
        ]
    )
    assert code == 0
    paths = sorted(os.listdir(out_dir))
    assert paths == ["instance_00000005.json", "instance_00000006.json"]
    capsys.readouterr()

    code = cli(["solve", "--algo", "pd", "--in", str(out_dir / paths[0])])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algo"] == "pd"
    assert payload["total_power"] > 0
    assert set(payload["solution"]) == {"per_server", "total_power"}


def test_cli_solve_derived_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(THREE_USER_JSON))
    for algo, expected in (("pd", 65.0), ("ncs", 65.0), ("opt", 65.0)):
        code = cli(["solve", "--algo", algo, "--in", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_power"] == expected


def test_cli_solve_payload_metrics(tmp_path, capsys):
    # One server serving both users: load 2 = n/m, so the variance is 0.
    path = tmp_path / "one_server.json"
    path.write_text(json.dumps({
        "c": 1.0, "alpha": 2.0,
        "servers": [{"x": 0.0, "y": 0.0, "k": 2}],
        "users": [{"x": 1.0, "y": 0.0}, {"x": 2.0, "y": 0.0}],
    }))
    assert cli(["solve", "--algo", "pd", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_power"] == 4.0
    assert payload["per_server_load"] == [2]
    assert payload["util_variance"] == 0.0
    assert payload["runtime_ms"] is None

    assert cli(["solve", "--algo", "pd", "--in", str(path), "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert isinstance(timed["runtime_ms"], float)
    assert timed["per_server_load"] == [2]


@pytest.mark.parametrize(
    "args, field",
    [
        (["--m", "0", "--n", "2", "--kbar", "2"], "m"),
        (["--m", "12", "--n", "2", "--kbar", "0.5"], "kbar"),
        (["--m", "2", "--n", "3", "--kbar", "4", "--seed", "-1"], "seed"),
        (["--m", "2", "--n", "3", "--kbar", "4", "--trials", "0"], "trials"),
        (["--m", "2", "--n", "3", "--kbar", "4", "--trials=-2"], "trials"),
    ],
)
def test_cli_gen_bad_parameter_exit_1(tmp_path, capsys, args, field):
    out_dir = tmp_path / "instances"
    assert cli(["gen", *args, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gen: ") and field in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_solve_bad_oracle_budget_exit_1(tmp_path, capsys, budget):
    # Rejected before the instance is read: the file does not exist.
    missing = tmp_path / "absent.json"
    assert cli(["solve", "--algo", "opt", "--in", str(missing), "--oracle-budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("solve: ") and "oracle budget" in captured.err
    assert "no such file" not in captured.err
    assert captured.out == ""


def test_cli_solve_infeasible_instance_exit_2(tmp_path, capsys):
    bad = dict(THREE_USER_JSON)
    bad["servers"] = [{"x": 0.0, "y": 0.0, "k": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli(["solve", "--algo", "pd", "--in", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_cli_solve_opt_budget_exceeded(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(THREE_USER_JSON))
    code = cli(["solve", "--algo", "opt", "--in", str(path), "--oracle-budget", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "budget_exceeded"


def test_cli_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"c": 1.0,\n  "alpha": }')
    assert cli(["solve", "--algo", "pd", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:2:" in err


def test_cli_missing_field_exit_1(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"c": 1.0, "alpha": 2.0, "users": []}')
    assert cli(["solve", "--algo", "pd", "--in", str(path)]) == 1
    assert "servers" in capsys.readouterr().err


def test_cli_usage_error_exit_1(capsys):
    assert cli(["solve", "--algo", "nope", "--in", "x.json"]) == 1
    assert cli(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_bench_byte_identical(tmp_path, capsys):
    config = {
        "experiment_id": "det",
        "sweep": {"variable": "n", "values": [5, 7]},
        "fixed": {"m": 2, "kbar": 4.0},
        "trials": 2,
        "seed_base": 3,
        "oracle_budget": 20000,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli(["bench", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_bench_jobs_give_the_same_bytes(tmp_path, capsys):
    config = {"experiment_id": "jobs", "sweep": {"variable": "n", "values": [5, 7]},
              "fixed": {"m": 2, "kbar": 4.0}, "trials": 3, "seed_base": 3, "oracle_budget": 20000}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for jobs in ("1", "2", "3"):
        outputs.append(tmp_path / f"jobs{jobs}.csv")
        assert cli(["bench", "--config", str(cfg_path), "--out", str(outputs[-1]), "--jobs", jobs]) == 0
        assert_no_child_left()
    capsys.readouterr()
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-2", "1.5", "two", ""])
def test_cli_bench_bad_jobs_exit_1(tmp_path, capsys, jobs):
    # Rejected before the config is read: the file does not exist.
    assert cli(["bench", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.csv"), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err == f"bench: --jobs must be an integer >= 1, got {jobs!r}\n"


def test_cli_bench_missing_out_dir_exit_1(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("cmpc.cli.run_experiment", no_sweep)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOOD_CONFIG))
    missing = tmp_path / "missing_dir"
    assert cli(["bench", "--config", str(cfg_path), "--out", str(missing / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"bench: output directory {missing} does not exist\n"
    assert not missing.exists()


def test_cli_bench_bad_config_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli(["bench", "--config", str(missing), "--out", str(tmp_path / "r.csv")]) == 1
    assert "missing.json: no such file" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"experiment_id": "x",\n "sweep": }')
    assert cli(["bench", "--config", str(broken), "--out", str(tmp_path / "r.csv")]) == 1
    assert "broken.json:2:" in capsys.readouterr().err
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"experiment_id": "x", "sweep": {"variable": "bogus", "values": [1]}}))
    assert cli(["bench", "--config", str(bogus), "--out", str(tmp_path / "r.csv")]) == 1
    assert "sweep variable" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


GOOD_CONFIG = {"experiment_id": "x", "sweep": {"variable": "n", "values": [5]}, "fixed": {"m": 2}}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"trails": 1}, "unknown key 'trails' in the top level"),
        ({"sweep": {"variable": "n", "values": [5], "step": 1}}, "unknown key 'step' in sweep"),
        ({"fixed": {"m": 2, "kbarr": 4.0}}, "unknown key 'kbarr' in fixed"),
        ({"sweep": [5]}, "sweep must be an object"),
        ({"fixed": []}, "fixed must be an object"),
        ({"sweep": {"variable": "n", "values": 5}}, "sweep.values must be a list"),
        ({"fixed": {"m": None}}, "fixed.m must be int"),
        ({"trials": [1]}, "trials must be int"),
        ({"trials": 2.7}, "trials must be int, got 2.7"),
        ({"trials": "2"}, "trials must be int, got '2'"),
        ({"timing": "false"}, "timing must be bool, got 'false'"),
        ({"timing": 0}, "timing must be bool, got 0"),
        ({"fixed": {"m": True}}, "fixed.m must be int, got True"),
        ({"fixed": {"m": 2, "kbar": "4.0"}}, "fixed.kbar must be float, got '4.0'"),
        ({"fixed": {"m": 2, "alpha": False}}, "fixed.alpha must be float, got False"),
        ({"out": 5}, "out must be str, got 5"),
        ({"sweep": {"variable": "n", "values": [20.5]}}, "sweep.values[0] must be int, got 20.5"),
        ({"sweep": {"variable": "alpha", "values": [2.0, "2"]}}, "sweep.values[1] must be float, got '2'"),
        ({"sweep": {"variable": "m_K", "values": [[2.5, 10.0]]}}, "sweep.values[0][0] must be int, got 2.5"),
        ({"sweep": {"variable": "m_lambda", "values": [[3, 0.5]]}}, "sweep variable must be one of ('n', 'm_K', 'alpha')"),
        ({"seed_base": -1}, "seed_base must be >= 0, got -1"),
        ({"oracle_budget": -5}, "oracle_budget must be >= 0 (0 turns the oracle off), got -5"),
        # Every sweep point must admit an instance, checked before any is solved.
        ({"sweep": {"variable": "n", "values": [5, 0]}}, "sweep.values[1] = 0: n must be >= 1"),
        ({"sweep": {"variable": "m_K", "values": [[0, 10]]}}, "sweep.values[0] = (0, 10.0): m must be >= 1, got 0"),
        ({"sweep": {"variable": "m_K", "values": [[3, 1]]}}, "sweep.values[0] = (3, 1.0): kbar must be 0 or >= 2/3"),
        ({"sweep": {"variable": "alpha", "values": [2.0, 0.5]}}, "sweep.values[1] = 0.5: attenuation factor alpha must be >= 1, got 0.5"),
        ({"fixed": {"m": 2, "alpha": 0.5}}, "sweep.values[0] = 5: attenuation factor alpha must be >= 1, got 0.5"),
        ({"fixed": {"m": 2, "c": 0}}, "sweep.values[0] = 5: power scale c must be positive, got 0.0"),
        ({"fixed": {"m": 2, "c": -1.5}}, "sweep.values[0] = 5: power scale c must be positive, got -1.5"),
        # The CSV is written unquoted.
        ({"experiment_id": "a,b"}, "experiment_id must hold no comma, quote or line break (the CSV is unquoted), got 'a,b'"),
        ({"experiment_id": 'a"b'}, "experiment_id must hold no comma"),
        ({"experiment_id": "a\nb"}, "experiment_id must hold no comma"),
        ({"experiment_id": ["u", 1]}, "experiment_id must be str, got ['u', 1]"),
    ],
    ids=[
        "top-level-key", "sweep-key", "fixed-key", "sweep-list", "fixed-list", "values-int", "fixed-null", "trials-list",
        "trials-fraction", "trials-string", "timing-string", "timing-int", "fixed-bool", "kbar-string", "alpha-bool",
        "out-number", "n-point-fraction", "alpha-point-string", "m_K-point-fraction", "m_lambda-unknown",
        "seed_base-negative", "oracle_budget-negative", "n-point-zero", "m_K-point-no-server", "m_K-point-kbar",
        "alpha-point-half", "fixed-alpha-half", "fixed-c-zero", "fixed-c-negative", "id-comma", "id-quote",
        "id-newline", "id-list",
    ],
)
def test_cli_bench_rejects_malformed_config(tmp_path, capsys, changes, message):
    config = {**GOOD_CONFIG, **changes}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_config_accepts_integral_floats_and_int_floats():
    config = ExperimentConfig.from_json_dict(
        {
            "experiment_id": "x",
            "sweep": {"variable": "m_K", "values": [[2.0, 10]]},
            "fixed": {"n": 8.0, "kbar": 4},
            "trials": 2.0,
            "timing": False,
            "out": "r.csv",
        }
    )
    assert (config.n, config.kbar, config.trials, config.timing, config.out) == (8, 4.0, 2, False, "r.csv")
    assert config.sweep_values == ((2, 10.0),)
    assert all(type(v) is t for v, t in zip(config.sweep_values[0], (int, float)))
    assert type(config.n) is int and type(config.kbar) is float and type(config.trials) is int


def failing_validate(instance, solution):
    return ValidationReport((("coverage", "forced failure"),))


def test_bench_failure_dump_lands_next_to_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "validate", failing_validate)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    config = {"experiment_id": "dump", "sweep": {"variable": "n", "values": [5]},
              "fixed": {"m": 2, "kbar": 4.0}, "trials": 1, "seed_base": 3}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    out_dir.mkdir()

    assert cli(["bench", "--config", str(cfg_path), "--out", str(out_dir / "r.csv")]) == 2
    assert "bench aborted" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["cmpc_failed_instance_pd_3.json"]
    assert os.listdir(cwd) == []

    # Without an output path the dump goes to the current directory.
    with pytest.raises(BenchValidationError) as caught:
        run_experiment(ExperimentConfig.from_json_dict(config))
    assert caught.value.instance_path == "cmpc_failed_instance_pd_3.json"
    assert os.listdir(cwd) == ["cmpc_failed_instance_pd_3.json"]


def test_cli_verify_seeded_instances(tmp_path, capsys):
    # Invariant sweep: the verifier must come back clean on seeded instances.
    from cmpc import GenConfig, gen_instance

    for seed in range(100):
        cfg = GenConfig(m=1 + seed % 4, n=4 + seed % 9, kbar=float(2 + seed % 7), seed=31337 + seed)
        path = tmp_path / f"v{seed}.json"
        dump_instance(gen_instance(cfg), str(path))
        assert cli(["verify", "--in", str(path)]) == 0, capsys.readouterr().out
        capsys.readouterr()


def test_experiment_config_from_json():
    cfg = ExperimentConfig.from_json_dict(
        {
            "experiment_id": "x",
            "sweep": {"variable": "n", "values": [10, 20]},
            "fixed": {"m": 4, "kbar": 2.5, "lambda": 0.5, "alpha": 1.5, "c": 2.0},
            "trials": 7,
            "seed_base": 11,
        }
    )
    assert cfg.m == 4 and cfg.lam == 0.5 and cfg.alpha == 1.5 and cfg.trials == 7
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"experiment_id": "x"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict(
            {"experiment_id": "x", "sweep": {"variable": "bogus", "values": [1]}}
        )
