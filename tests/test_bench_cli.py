import json
import os
import pickle
import re
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from cmpc import ExperimentConfig, GenConfig, gen_instance, load_instance, ncs_solve, pd_solve, run_experiment, write_csv
from cmpc import bench
from cmpc.bench import CSV_HEADER, BenchValidationError, rows_to_csv_text
from cmpc.cli import cli
from cmpc.metrics import ValidationReport
from cmpc.model import dump_instance
from cmpc.primal_dual import AscentStalledError, CapacityInvariantError
from cmpc.solution import trace_to_json_list


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


def on_cores(monkeypatch, cores):
    """Give this process an affinity mask of `cores` cores: a sweep then runs
    in min(2, cores) processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork call from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


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
def test_csv_is_the_same_for_every_worker_count(config, monkeypatch):
    on_cores(monkeypatch, 1)
    serial = run_experiment(config)
    data = [r for r in serial if r.seed is not None]
    opt_rows = sum(r.algo == "opt" for r in data)
    assert 0 < opt_rows < sum(r.algo == "pd" for r in data)
    forks = count_forks(monkeypatch)
    for cores in (2, 3):
        on_cores(monkeypatch, cores)
        assert rows_to_csv_text(run_experiment(config)) == rows_to_csv_text(serial)
        assert_no_child_left()
    assert len(forks) == 2  # one child per sweep, on three cores as on two


def test_one_core_mask_never_forks(monkeypatch):
    def fork():
        raise AssertionError("a sweep on one core forked")

    on_cores(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", fork)
    assert len(run_experiment(tiny_config())) == 24


def user_study(trials):
    """experiments/user_sweep.json with `trials` trials per point."""
    path = Path(__file__).resolve().parent.parent / "experiments" / "user_sweep.json"
    return replace(ExperimentConfig.from_json_dict(json.loads(path.read_text())), trials=trials)


def without_runtime(text):
    """The CSV's lines with column 11, runtime_ms, cut."""
    return [line.split(",")[:10] + line.split(",")[11:] for line in text.splitlines()]


@pytest.mark.parametrize("config", [*JOBS_CONFIGS, user_study(3)], ids=lambda c: c.experiment_id + "-" + c.sweep_variable)
def test_timing_on_and_off_give_the_same_rows(config):
    # Timing off solves each point's trials as one batch, timing on one at a time.
    on = rows_to_csv_text(run_experiment(replace(config, timing=True)))
    off = rows_to_csv_text(run_experiment(replace(config, timing=False)))
    assert without_runtime(on) == without_runtime(off)
    assert all(line.split(",")[10] == "" for line in off.splitlines()[1:])
    assert all(line.split(",")[10] != "" for line in on.splitlines()[1:])


def test_bench_validation_error_survives_pickling():
    error = BenchValidationError("pd solution failed validation on seed 3", "out/cmpc_failed_instance_pd_3.json")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is BenchValidationError
    assert str(copy) == str(error) and copy.instance_path == error.instance_path


def failure_of(monkeypatch, config, cores):
    on_cores(monkeypatch, cores)
    with pytest.raises(Exception) as caught:
        run_experiment(config)
    assert_no_child_left()
    return caught.value


# With 2 points x 3 trials and timing on, the tasks are seeds 100..105; task
# i has seed 100 + i and runs in the calling process when i is even, in the
# child when i is odd.
@pytest.mark.parametrize("cores", [2, 3])
def test_child_validation_failure_matches_serial(tmp_path, monkeypatch, cores):
    config = tiny_config(oracle_budget=0, out=str(tmp_path / "r.csv"), timing=True)
    seeds_of = {}
    real_gen = bench.gen_instance

    def gen(cfg):
        instance = real_gen(cfg)
        seeds_of[id(instance)] = cfg.seed
        return instance

    real_validate = bench.validate

    def validate(instance, solution):
        # Task 1 (the child's) fails before task 2 (the caller's).
        if seeds_of[id(instance)] in (101, 102):
            return failing_validate(instance, solution)
        return real_validate(instance, solution)

    monkeypatch.setattr(bench, "gen_instance", gen)
    monkeypatch.setattr(bench, "validate", validate)
    serial = failure_of(monkeypatch, config, 1)
    parallel = failure_of(monkeypatch, config, cores)
    assert type(parallel) is type(serial) is BenchValidationError
    assert str(parallel) == str(serial) and "seed 101" in str(serial)
    assert parallel.instance_path == serial.instance_path == str(tmp_path / "cmpc_failed_instance_pd_101.json")


def test_child_runtime_error_reraises_in_parent(monkeypatch):
    real = bench.ncs_solve

    def ncs(instance):
        if instance.n == 8:  # point 1, the child's
            raise RuntimeError("ncs broke")
        return real(instance)

    monkeypatch.setattr(bench, "ncs_solve", ncs)
    error = failure_of(monkeypatch, tiny_config(oracle_budget=0), 2)
    assert type(error) is RuntimeError and str(error) == "ncs broke"


def test_share_stops_once_a_lower_task_has_failed(tmp_path, monkeypatch):
    # With timing on a task is one trial. Task 0 (the caller's) fails at
    # once; the child's share (tasks 1, 3, 5) stops before its next task, as
    # none of its rows could be used.
    calls, marker = tmp_path / "calls", tmp_path / "failed"
    caller, real, real_run_share = os.getpid(), bench.gen_instance, bench._run_share

    def run_share(run, share, slots, slot):
        # The caller leaves the marker once its share has failed, and so
        # once its slot holds the failing task.
        outcome = real_run_share(run, share, slots, slot)
        if slot == 0 and outcome[1] is not None:
            marker.touch()
        return outcome

    def gen(cfg):
        # The child's draws wait for the marker: the caller's failure is
        # recorded before the child can reach its next task, however the two
        # processes are scheduled.
        deadline = time.monotonic() + 30.0
        while os.getpid() != caller and not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        with open(calls, "a") as log:
            log.write(f"{os.getpid()} {cfg.seed}\n")
        if cfg.seed == 100:
            raise RuntimeError("no instance for seed 100")
        return real(cfg)

    def child_seeds():
        return [int(line.split()[1]) for line in calls.read_text().splitlines() if line.split()[0] != str(os.getpid())]

    monkeypatch.setattr(bench, "gen_instance", gen)
    monkeypatch.setattr(bench, "_run_share", run_share)
    config = tiny_config(oracle_budget=0, timing=True)
    serial = failure_of(monkeypatch, config, 1)
    calls.unlink()
    marker.unlink()
    parallel = failure_of(monkeypatch, config, 2)
    assert type(parallel) is type(serial) is RuntimeError and str(parallel) == str(serial)
    assert len(child_seeds()) <= 1
    # With timing off a task is a sweep point. The caller's point 0 (seeds
    # 100-102) fails; the child's share (points 1 and 3) draws at most point
    # 1's instances, never point 3's.
    calls.unlink()
    marker.unlink()
    parallel = failure_of(monkeypatch, replace(config, sweep_values=(5, 8, 5, 8), timing=False), 2)
    assert type(parallel) is RuntimeError and str(parallel) == str(serial)
    assert set(child_seeds()) <= {103, 104, 105}


def fail_one_trial(monkeypatch, seed, fault):
    """Make trial `seed` fail: its pd raises, as its instance falls short of
    capacity, or its cover fails validation."""
    real_gen, real_validate = bench.gen_instance, bench.validate
    # Instances compare by value; an id could be reused by a later draw.
    invalid = set()

    def gen(cfg):
        instance = real_gen(cfg)
        if cfg.seed == seed:
            if fault == "pd":
                return replace(instance, capacity=[0] * instance.m)
            invalid.add(instance)
        return instance

    def validate(instance, solution):
        return failing_validate(instance, solution) if instance in invalid else real_validate(instance, solution)

    monkeypatch.setattr(bench, "gen_instance", gen)
    monkeypatch.setattr(bench, "validate", validate)


@pytest.mark.parametrize("fault", ["pd", "validation"])
def test_batched_sweep_fails_like_a_serial_one(tmp_path, monkeypatch, fault):
    # 3 points x 3 trials, seeds 100-108. Seed 104 fails, in point 1: the
    # child's on two cores. Timing off solves each point as one batch, and
    # must raise what the one-trial-at-a-time path (timing on) raises on one
    # core, leaving the same one dump or none.
    def sweep(cores, timing):
        for name in os.listdir(tmp_path):
            os.remove(tmp_path / name)
        config = tiny_config(sweep_values=(5, 8, 6), oracle_budget=0, out=str(tmp_path / "r.csv"), timing=timing)
        error = failure_of(monkeypatch, config, cores)
        dumps = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        return type(error), str(error), dumps

    fail_one_trial(monkeypatch, 104, fault)
    serial = sweep(1, True)
    assert len(serial[2]) == (fault == "validation")
    assert ("seed 104" if fault == "validation" else "< 8 users") in serial[1]
    for cores in (1, 2):
        assert sweep(cores, False) == serial


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
    # Serially the task's own exception; from the child's share a RuntimeError naming it.
    assert type(failure_of(monkeypatch, tiny_config(sweep_values=(8,), oracle_budget=0), 1)) is TwoArgumentError
    error = failure_of(monkeypatch, tiny_config(sweep_values=(5, 8), trials=1, oracle_budget=0), 2)
    assert type(error) is RuntimeError and str(error) == "TwoArgumentError: odd failure"


def test_child_that_dies_is_reported(monkeypatch):
    real = bench.ncs_solve
    parent = os.getpid()

    def ncs(instance):
        if os.getpid() != parent:
            os._exit(3)
        return real(instance)

    monkeypatch.setattr(bench, "ncs_solve", ncs)
    error = failure_of(monkeypatch, tiny_config(oracle_budget=0), 2)
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


def test_cli_solve_trace(tmp_path, capsys):
    path = tmp_path / "inst.json"
    instance = gen_instance(GenConfig(m=3, n=12, kbar=6.0, seed=5))
    dump_instance(instance, str(path))
    assert cli(["solve", "--algo", "pd", "--in", str(path), "--trace"]) == 0
    events = json.loads(capsys.readouterr().out)["events"]
    trace = pd_solve(load_instance(str(path)))[2]
    assert len(trace) > 1 and events == trace_to_json_list(trace)
    # Only the dual ascent has a trace.
    assert cli(["solve", "--algo", "ncs", "--in", str(path), "--trace"]) == 0
    assert "events" not in json.loads(capsys.readouterr().out)


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


@pytest.mark.parametrize("command", [["solve", "--algo", "pd"], ["verify"]])
@pytest.mark.parametrize("text", ["5", "null", '"abc"', '{"c": 1, "alpha": 2, "servers": {"x": 1}, "users": []}'])
def test_cli_instance_of_wrong_shape_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert cli([*command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: instance JSON: ") and captured.err.count("\n") == 1
    assert "must be an" in captured.err and "Traceback" not in captured.err


def test_cli_verify_infeasible_instance_exit_2(tmp_path, capsys):
    # Total capacity below n is the input's fault, not the solver's.
    bad = dict(THREE_USER_JSON)
    bad["servers"] = [{"x": 0.0, "y": 0.0, "k": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "infeasible: total capacity 1 < 3 users\n"


def test_cli_verify_invariant_failure_exit_2(tmp_path, capsys, monkeypatch):
    def broken(instance):
        raise CapacityInvariantError("server 0 holds 2 users, capacity 1")

    monkeypatch.setattr("cmpc.cli.pd_solve", broken)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(THREE_USER_JSON))
    assert cli(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "solver invariant failure: server 0 holds 2 users, capacity 1\n"


@pytest.mark.parametrize("error", [CapacityInvariantError, AscentStalledError])
@pytest.mark.parametrize("command", [["solve", "--algo", "pd"], ["verify"]], ids=["solve", "verify"])
def test_cli_solver_invariant_failure_is_one_line_exit_2(tmp_path, capsys, monkeypatch, command, error):
    # cli() alone maps an ascent's invariant failure to exit 2: one stderr
    # line, nothing on stdout, no traceback.
    def broken(instance):
        raise error("the ascent broke")

    monkeypatch.setattr("cmpc.cli.pd_solve", broken)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(THREE_USER_JSON))
    assert cli([*command, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "solver invariant failure: the ascent broke\n")


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


def test_cli_bench_jobs_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    config = {"experiment_id": "jobs", "sweep": {"variable": "n", "values": [5, 7]},
              "fixed": {"m": 2, "kbar": 4.0}, "trials": 3, "seed_base": 3, "oracle_budget": 20000}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for cores in (1, 2, 3):
        on_cores(monkeypatch, cores)
        outputs.append(tmp_path / f"cores{cores}.csv")
        assert cli(["bench", "--config", str(cfg_path), "--out", str(outputs[-1])]) == 0
        assert_no_child_left()
    capsys.readouterr()
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--timing"]])
def test_cli_bench_has_no_jobs_or_timing_option(tmp_path, capsys, option):
    # The process count comes from the affinity mask, timing from the config.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOOD_CONFIG))
    assert cli(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), *option]) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(option)}" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


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


def test_cli_bench_out_is_a_directory_exit_1(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("cmpc.cli.run_experiment", no_sweep)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOOD_CONFIG))
    assert cli(["bench", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"bench: output path {tmp_path} is a directory\n"
    assert os.listdir(tmp_path) == ["config.json"]


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
        ({"fixed": {"m": 2, "c": 10**400}}, "fixed.c is past the float range, got an integer of 401 digits"),
        ({"sweep": {"variable": "alpha", "values": [2.0, 10**400]}}, "sweep.values[1] is past the float range"),
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
        "out-number", "n-point-fraction", "alpha-point-string", "m_K-point-fraction", "c-past-float", "alpha-point-past-float",
        "m_lambda-unknown", "seed_base-negative", "oracle_budget-negative", "n-point-zero", "m_K-point-no-server", "m_K-point-kbar",
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


# --- report paths -------------------------------------------------------------

# Instances whose numbers the machine cannot hold: a power past the float
# range (r**alpha, then c * r**alpha), two finite powers whose sum, every
# cover's total, is not, and a capacity beyond int64.
OUT_OF_RANGE = {
    "pow": {"c": 1, "alpha": 2, "servers": [{"x": 0, "y": 0, "k": 2}], "users": [{"x": 1e200, "y": 0}]},
    "c": {"c": 1e300, "alpha": 2, "servers": [{"x": 0, "y": 0, "k": 2}], "users": [{"x": 1e10, "y": 0}]},
    "sum": {
        "c": 1,
        "alpha": 2,
        "servers": [{"x": 0, "y": 0, "k": 1}, {"x": 0, "y": 0, "k": 1}],
        "users": [{"x": 1.2e154, "y": 0}, {"x": -1.2e154, "y": 1}],
    },
    "k": {"c": 1, "alpha": 2, "servers": [{"x": 0, "y": 0, "k": 1e19}], "users": [{"x": 1, "y": 0}]},
    # A JSON integer that no float holds.
    "int": {"c": 1, "alpha": 2, "servers": [{"x": 0, "y": 0, "k": 2}], "users": [{"x": 10**400, "y": 0}]},
}


@pytest.mark.parametrize("command", [["solve", "--algo", "pd"], ["solve", "--algo", "ncs"], ["solve", "--algo", "opt"], ["verify"]])
@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_cli_numbers_out_of_range_exit_1(tmp_path, capsys, command, name):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(OUT_OF_RANGE[name]))
    assert cli([*command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ") and captured.err.count("\n") == 1
    expected = "capacity must be <= 2**63 - 1" if name == "k" else "past the float range"
    assert expected in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [["solve", "--algo", "pd", "--in"], ["verify", "--in"], ["bench", "--config"], ["gen", "--m", "2", "--n", "3", "--kbar", "3", "--out"]],
    ids=["solve", "verify", "bench", "gen"],
)
def test_cli_path_of_the_wrong_kind_exit_1(tmp_path, capsys, command):
    # A directory where a file is read; a file where the output directory goes.
    target = tmp_path / "target"
    if command[0] == "gen":
        target.write_text("")
    else:
        target.mkdir()
    assert cli([*command, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if command[0] == "gen":
        assert captured.err == f"gen: cannot make output directory {target}: file exists\n"
        assert target.read_text() == ""
    else:
        assert captured.err == f"{target}: is a directory\n"
    assert list(tmp_path.iterdir()) == [target]


def test_cli_verify_reports_every_violation_exit_2(tmp_path, capsys, monkeypatch):
    # pd's own prices pass; these are perturbed: the last selection's disk
    # gets beta 0, so its members' prices exceed its own, and the first
    # selection's disk a negative gamma start, which the charging audit sees.
    def perturbed(instance):
        solution, duals, trace = pd_solve(instance)
        beta, gamma_start = duals.beta.copy(), duals.gamma_start.copy()
        beta[trace[-1].disk_index] = 0.0
        gamma_start[trace[0].disk_index] = -1.0
        prices = SimpleNamespace(theta=duals.theta, beta=beta, mu=duals.mu, gamma_start=gamma_start, covered_at=duals.covered_at)
        return solution, prices, trace

    monkeypatch.setattr("cmpc.cli.pd_solve", perturbed)
    path = tmp_path / "inst.json"
    dump_instance(gen_instance(GenConfig(m=3, n=12, kbar=5.0, seed=1)), str(path))
    assert cli(["verify", "--in", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"verify: {len(lines) - 1} violation(s)"
    assert any(re.fullmatch(r"user price exceeds disk prices violated by \S+ \(user \d+, disk \d+\)", line) for line in lines)
    assert "event 0: negative gamma start off by 1.000e+00" in lines
    assert all(" violated by " in line or line.startswith("event ") for line in lines[:-1])


def test_cli_solve_invalid_cover_exit_2(tmp_path, capsys, monkeypatch):
    # Every user on server 0, whose capacity is 1 and whose disk holds one user.
    def crowded(instance):
        solution = ncs_solve(instance)
        return replace(solution, assignment=(0,) * instance.n)

    monkeypatch.setattr("cmpc.cli.ncs_solve", crowded)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(THREE_USER_JSON))
    assert cli(["solve", "--algo", "ncs", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("constraint ") for line in lines)
    assert "constraint capacity: server 0 serves 3 users, capacity 1" in lines


@pytest.mark.parametrize(
    "sweep, extra, message",
    [
        ({"variable": "n", "values": []}, {}, "sweep needs at least one point"),
        ({"variable": "n", "values": [5]}, {"trials": 0}, "trials must be >= 1"),
        ({"variable": "n"}, {}, "sweep needs 'variable' and 'values'"),
        ({"variable": "m_K", "values": [[3]]}, {}, "sweep.values[0] must be a list of 2 numbers, got [3]"),
        ({"variable": "m_K", "values": [4]}, {}, "sweep.values[0] must be a list of 2 numbers, got 4"),
    ],
    ids=["no-points", "no-trials", "no-values", "m_K-single", "m_K-number"],
)
def test_cli_bench_config_without_a_point_exit_1(tmp_path, capsys, sweep, extra, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment_id": "x", "sweep": sweep, "fixed": {"m": 2}, **extra}))
    assert cli(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ") and message in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("fixed", [{"c": 1e305}, {"l": 1e200}, {"alpha": 200.0}], ids=["c", "l", "alpha"])
def test_cli_bench_point_with_powers_past_the_float_range_exit_1(tmp_path, capsys, fixed):
    # Some draw of such a point would hold a power, or a cover's total, past
    # the float range, which the order build rejects: the config is rejected
    # before anything is solved.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**GOOD_CONFIG, "fixed": {"m": 2, **fixed}}))
    assert cli(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: sweep.values[0] = 5: m = 2, ") and err.endswith("admit powers past the float range\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kbar", "1e19"], "gen: kbar is too large"),
        (["--kbar", "3", "--l", "nan"], "gen: side length l must be finite and positive, got nan"),
        (["--kbar", "3", "--l", "inf"], "gen: side length l must be finite and positive, got inf"),
        (["--kbar", "3", "--c", "-1"], "gen: power scale c must be positive, got -1.0"),
        (["--kbar", "3", "--l", "1e308", "--alpha", "3"], "gen: m = 2, c = 1.0, l = 1e+308 and alpha = 3.0 admit powers past the float range"),
    ],
    ids=["kbar", "l-nan", "l-inf", "c", "powers"],
)
def test_cli_gen_draw_numpy_cannot_make_exit_1(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert cli(["gen", "--m", "2", "--n", "5", "--seed", "1", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()
