"""Benchmark harness: seeded sweeps over instance parameters, CSV output.

Three studies are supported through one sweep mechanism: user count (n),
server count crossed with total capacity (m_K), and the attenuation exponent
(alpha); the server-area concentration (lambda) is a fixed parameter.
Every (sweep point, trial) pair maps to one deterministic instance seed, so
a run is reproducible byte for byte, in one process or in two.
Wall-clock timing is opt-in because it would break that reproducibility.
Every pd cover comes from a batched ascent (`pd_solve_batch`), the same bits
as one solve at a time: one batch per point with timing off, one per trial
with it on.
"""

from __future__ import annotations

import mmap
import os
import pickle
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .generate import GenConfig, gen_instance
from .metrics import approximation_ratio, util_variance, validate
from .model import Instance, dump_instance, json_value
from .primal_dual import pd_solve_batch
from .reference import ncs_solve, opt_solve
from .solution import Solution

CSV_HEADER = (
    "experiment_id,seed,m,n,K,lambda,alpha,c,algo,"
    "total_power,runtime_ms,ratio_vs_opt,util_variance"
)

# Sweep variables and the types of one sweep point: a number, or a list of two.
_SWEEP_POINTS = {"n": (int,), "m_K": (int, float), "alpha": (float,)}
SWEEP_VARIABLES = tuple(_SWEEP_POINTS)


class BenchValidationError(RuntimeError):
    """A produced solution failed validation; the message ends with the path
    the instance was serialized to."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sweep variable, its points, and fixed parameters."""

    experiment_id: str
    sweep_variable: str
    sweep_values: tuple
    m: int = 10
    n: int = 100
    kbar: float = 50.0
    lam: float = 1.0
    alpha: float = 2.0
    c: float = 1.0
    l: float = 100.0
    trials: int = 50
    seed_base: int = 0
    oracle_budget: int = 0
    out: Optional[str] = None
    timing: bool = False

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        if not self.sweep_values:
            raise ValueError("sweep needs at least one point")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be >= 0, got {self.seed_base}")
        if self.oracle_budget < 0:
            raise ValueError(f"oracle_budget must be >= 0 (0 turns the oracle off), got {self.oracle_budget}")
        if any(mark in self.experiment_id for mark in ',"\r\n'):
            raise ValueError(f"experiment_id must hold no comma, quote or line break (the CSV is unquoted), got {self.experiment_id!r}")
        # Every point is checked before the first one is solved.
        for i, point in enumerate(self.sweep_values):
            try:
                _resolve_point(self, point)
            except ValueError as exc:
                raise ValueError(f"sweep.values[{i}] = {point!r}: {exc}") from None

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """Parse an experiment config; raises ValueError naming a bad key.

        Keys that are absent take the field defaults; unknown keys are
        rejected, so that a misspelt one cannot silently fall back to its
        default.
        """
        _check_keys(data, _TOP_LEVEL_KEYS, "the top level")
        for field_name in ("experiment_id", "sweep"):
            if field_name not in data:
                raise ValueError(f"experiment config: missing field '{field_name}'")
        sweep = data["sweep"]
        _check_keys(sweep, ("variable", "values"), "sweep")
        if "variable" not in sweep or "values" not in sweep:
            raise ValueError("experiment config: sweep needs 'variable' and 'values'")
        if not isinstance(sweep["values"], list):
            raise ValueError(f"experiment config: sweep.values must be a list, got {sweep['values']!r}")
        fixed = data.get("fixed", {})
        _check_keys(fixed, _FIXED_FIELDS, "fixed")
        fields = {name: _convert(fixed[key], kind, f"fixed.{key}") for key, (name, kind) in _FIXED_FIELDS.items() if key in fixed}
        fields.update({key: _convert(data[key], kind, key) for key, kind in _RUN_FIELDS.items() if key in data})
        if "out" in data:
            fields["out"] = _convert(data["out"], str, "out")
        variable = sweep["variable"]
        kinds = _SWEEP_POINTS.get(variable) if isinstance(variable, str) else None
        # __post_init__ rejects an unknown variable before it looks at the points.
        points = tuple(_sweep_point(v, kinds, f"sweep.values[{i}]") for i, v in enumerate(sweep["values"])) if kinds else ()
        return ExperimentConfig(
            experiment_id=_convert(data["experiment_id"], str, "experiment_id"),
            sweep_variable=str(variable),
            sweep_values=points,
            **fields,
        )


# Config JSON keys: each "fixed" key -> (ExperimentConfig field, type), and
# each top-level key other than experiment_id, sweep, fixed and out -> type.
_FIXED_FIELDS = {
    "m": ("m", int),
    "n": ("n", int),
    "kbar": ("kbar", float),
    "lambda": ("lam", float),
    "alpha": ("alpha", float),
    "c": ("c", float),
    "l": ("l", float),
}
_RUN_FIELDS = {"trials": int, "seed_base": int, "oracle_budget": int, "timing": bool}
_TOP_LEVEL_KEYS = ("experiment_id", "sweep", "fixed", "out", *_RUN_FIELDS)


def _check_keys(record, allowed, where: str) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"experiment config: {where} must be an object, got {type(record).__name__}")
    for key in record:
        if key not in allowed:
            raise ValueError(f"experiment config: unknown key '{key}' in {where}")


def _convert(value, kind, where: str):
    """`value` as `kind`, by the instance JSON's rules, or a ValueError naming `where`."""
    return json_value(value, kind, f"experiment config: {where}", kind.__name__)


def _sweep_point(value, kinds, where: str):
    if len(kinds) == 1:
        return _convert(value, kinds[0], where)
    if not isinstance(value, list) or len(value) != len(kinds):
        raise ValueError(f"experiment config: {where} must be a list of {len(kinds)} numbers, got {value!r}")
    return tuple(_convert(v, kind, f"{where}[{j}]") for j, (v, kind) in enumerate(zip(value, kinds)))


class ResultRow(NamedTuple):
    """One CSV row, its fields in CSV_HEADER's column order."""

    experiment_id: str
    seed: Optional[int]
    m: int
    n: int
    K: float
    lam: float
    alpha: float
    c: float
    algo: str
    total_power: float
    runtime_ms: Optional[float]
    ratio_vs_opt: Optional[float]
    util_variance: float

    def to_csv_line(self) -> str:
        return ",".join("" if v is None else str(v) for v in self)


def _resolve_point(config: ExperimentConfig, point) -> GenConfig:
    """The instance draw of one sweep point; a ValueError if its parameters
    (the point's and the fixed ones) admit no instance."""
    m, n, kbar, alpha = config.m, config.n, config.kbar, config.alpha
    if config.sweep_variable == "n":
        n = int(point)
    elif config.sweep_variable == "m_K":
        m, total = int(point[0]), float(point[1])
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        kbar = total / m
    elif config.sweep_variable == "alpha":
        alpha = float(point)
    return GenConfig(m=m, n=n, kbar=kbar, seed=0, c=config.c, alpha=alpha, l=config.l, lam=config.lam)


def _timed(fn, *args, timing: bool):
    if not timing:
        return fn(*args), None
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1e3


def _validated(instance: Instance, solution: Solution, seed: int, algo: str, out: Optional[str]) -> None:
    """Raise BenchValidationError, dumping the instance next to the CSV `out`."""
    report = validate(instance, solution)
    if not report.ok:
        path = os.path.join(os.path.dirname(out or ""), f"cmpc_failed_instance_{algo}_{seed}.json")
        dump_instance(instance, path)
        raise BenchValidationError(
            f"{algo} solution failed validation on seed {seed}: {report.violations}; "
            f"instance written to {path}"
        )


def _trial_rows(
    config: ExperimentConfig, gen_template: GenConfig, seed: int, instance: Instance, pd_solution: Solution, pd_ms: Optional[float]
) -> list[ResultRow]:
    """Solve, validate and record one (sweep point, trial), given its
    instance and its pd cover, timed or not."""
    opt_power = None
    opt_row = []
    if config.oracle_budget > 0:
        result, opt_ms = _timed(opt_solve, instance, config.oracle_budget, timing=config.timing)
        if result.status == "optimal":
            opt_power = result.value
            opt_row = [("opt", result.solution, opt_ms)]

    ncs_solution, ncs_ms = _timed(ncs_solve, instance, timing=config.timing)
    solved = [("pd", pd_solution, pd_ms), ("ncs", ncs_solution, ncs_ms), *opt_row]

    rows = []
    for algo, solution, ms in solved:
        _validated(instance, solution, seed, algo, config.out)
        rows.append(
            ResultRow(
                experiment_id=config.experiment_id,
                seed=seed,
                m=gen_template.m,
                n=gen_template.n,
                K=gen_template.m * gen_template.kbar,
                lam=gen_template.lam,
                alpha=gen_template.alpha,
                c=gen_template.c,
                algo=algo,
                total_power=solution.total_power,
                runtime_ms=ms,
                ratio_vs_opt=approximation_ratio(solution.total_power, opt_power) if opt_power is not None else None,
                util_variance=util_variance(instance, solution),
            )
        )
    return rows


def _point_rows(config: ExperimentConfig, gen_template: GenConfig, seeds: list[int]) -> list[list[ResultRow]]:
    """The rows of a run of one sweep point's trials, one list per trial.

    The run's instances are drawn first, and their pd covers come from one
    batch (`pd_solve_batch`), timed when timing is on; a timed run is one
    trial, so each solve is timed alone. If the draws or the batch of two
    or more trials raise, the run is done again as batches of one, so that
    the error raised and the instance dumped are those a serial run meets
    first.
    """
    try:
        instances = [gen_instance(replace(gen_template, seed=seed)) for seed in seeds]
        (covers, _, _), pd_ms = _timed(pd_solve_batch, instances, timing=config.timing)
    except Exception:
        if len(seeds) == 1:
            raise
        return [rows for seed in seeds for rows in _point_rows(config, gen_template, [seed])]
    return [_trial_rows(config, gen_template, *trial, pd_ms) for trial in zip(seeds, instances, covers)]


def _default_jobs() -> int:
    """Processes of a sweep: up to 2 of the cores in this process's affinity mask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return 1


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (sweep point, trial): generate, solve, validate, record.

    Per point and trial the instance seed is seed_base + point_index * trials
    + trial, except for alpha sweeps, where every point reuses the seeds
    seed_base + trial so all alpha values are solved on the same datasets
    (the exponent does not influence the position/capacity draws). The exact
    solver runs only when oracle_budget > 0 and its row is absent whenever
    the budget is exceeded (ratio columns stay empty then). A point's mean
    rows, one per algorithm with a row there, in the order of
    `_trial_rows`, are appended after all data rows, marked by an empty
    seed column and an ':mean'-suffixed experiment id. A solution that
    fails validation raises BenchValidationError after its instance is
    written to the directory of `out` (the current directory when `out` is
    unset).

    A task is a run of one point's trials (`_point_rows`), whose pd covers
    come from one batch: one trial with timing on, its `runtime_ms` timed
    in whichever process solved it, and the whole point with timing off.
    pd's `runtime_ms` times the ascent that makes the cover, without
    finalize's slack prices, which no row reads.
    The tasks run in `_default_jobs()` processes (`_run_shares`). The rows
    come back in (point, trial) order, so they are the same for one process
    and for two, and with timing on and off but for `runtime_ms`; so is the
    error raised: that of the first failing (point, trial) in serial order.
    """
    templates = [_resolve_point(config, point) for point in config.sweep_values]
    stride = 0 if config.sweep_variable == "alpha" else config.trials
    size = 1 if config.timing else config.trials
    tasks = [
        (template, [config.seed_base + p_idx * stride + trial for trial in range(first, first + size)])
        for p_idx, template in enumerate(templates)
        for first in range(0, config.trials, size)
    ]
    runs = _run_shares(lambda i: _point_rows(config, *tasks[i]), len(tasks))
    per_trial = [rows for trials in runs for rows in trials]

    summaries: list[ResultRow] = []
    for p_idx in range(len(templates)):
        point_rows = [row for rows in per_trial[p_idx * config.trials:(p_idx + 1) * config.trials] for row in rows]
        for algo in dict.fromkeys(r.algo for r in point_rows):
            group = [r for r in point_rows if r.algo == algo]
            ratios = [r.ratio_vs_opt for r in group if r.ratio_vs_opt is not None]
            times = [r.runtime_ms for r in group if r.runtime_ms is not None]
            summaries.append(
                group[0]._replace(
                    experiment_id=f"{config.experiment_id}:mean",
                    seed=None,
                    total_power=sum(r.total_power for r in group) / len(group),
                    runtime_ms=sum(times) / len(times) if times else None,
                    ratio_vs_opt=sum(ratios) / len(ratios) if ratios else None,
                    util_variance=sum(r.util_variance for r in group) / len(group),
                )
            )
    return [row for rows in per_trial for row in rows] + summaries


def _run_shares(run, count: int) -> list:
    """[run(i) for i in range(count)], computed in min(_default_jobs(), count)
    processes.

    With two, this process runs the even tasks and a child made by os.fork
    the odd ones, so that both get tasks from all over the sweep. The child
    pickles its results, or the exception of its first failing task, into a
    pipe, which is read, and the child reaped, before this returns or
    raises. The exception raised is that of the lowest failing task, the one
    a serial run would meet first.

    Each process records its failing task in its own slot of a memory map
    that the child shares, and stops before any task above the lower slot:
    no result of such a task could be used. The lowest failing task is never
    skipped, as only tasks above a failing one are.
    """
    step = min(_default_jobs(), count)
    shares = [range(first, count, step) for first in range(step)]
    pid = None  # the child's, if there is one
    failed_at = mmap.mmap(-1, 16)
    slots = memoryview(failed_at).cast("q")
    try:
        slots[0] = slots[1] = count
        if step == 2:
            pid, read_fd = _fork_share(run, shares[1], slots)
        outcomes = [_run_share(run, shares[0], slots, 0)]
        if pid is not None:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            lost = RuntimeError(f"sweep worker {pid} exited without sending its rows")
            outcomes.append(pickle.loads(payload) if payload else ([], (shares[1][0], lost)))
    finally:
        if pid is not None:
            os.close(read_fd)
            os.waitpid(pid, 0)
        slots.release()
        failed_at.close()

    results: list = [None] * count
    failures = []
    for share, (done, failure) in zip(shares, outcomes):
        for i, result in zip(share, done):
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _run_share(run, share: range, slots: memoryview, slot: int):
    """(results of the share's tasks up to its first failure, (task, exception) or None).

    Stops before a task above the lowest failing task in `slots`, and
    records its own failing task in `slots[slot]`.
    """
    done = []
    for i in share:
        if i > min(slots):
            break
        try:
            done.append(run(i))
        except Exception as exc:
            slots[slot] = i
            return done, (i, exc)
    return done, None


def _fork_share(run, share: range, slots: memoryview) -> tuple[int, int]:
    """Fork a child that runs `share`, recording a failure in `slots[1]`, and
    writes its outcome to a new pipe; return the child's pid and the pipe's
    read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                done, failure = _run_share(run, share, slots, 1)
                if failure is not None:
                    try:
                        pickle.loads(pickle.dumps(failure[1]))
                    except Exception:  # an exception that cannot be rebuilt from its pickle
                        failure = failure[0], RuntimeError(f"{type(failure[1]).__name__}: {failure[1]}")
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps((done, failure)))
                status = 0
            finally:
                os._exit(status)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return pid, read_fd


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    return CSV_HEADER + "\n" + "".join(row.to_csv_line() + "\n" for row in rows)


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv_text(rows))
