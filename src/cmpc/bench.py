"""Benchmark harness: seeded sweeps over instance parameters, CSV output.

Three studies are supported through one sweep mechanism: user count (n),
server count crossed with total capacity (m_K), and the attenuation exponent
(alpha); the server-area concentration (lambda) is a fixed parameter.
Every (sweep point, trial) pair maps to one deterministic instance seed, so
a run is reproducible byte for byte. Wall-clock timing is opt-in because it
would break that reproducibility.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

from .generate import GenConfig, gen_instance
from .metrics import approximation_ratio, util_variance, validate
from .model import Instance, PowerParams, dump_instance, is_json_kind
from .primal_dual import pd_solve
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
    """A produced solution failed validation; the instance was serialized."""

    def __init__(self, message: str, instance_path: str):
        super().__init__(message)
        self.instance_path = instance_path


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
    if not is_json_kind(value, kind):
        raise ValueError(f"experiment config: {where} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _sweep_point(value, kinds, where: str):
    if len(kinds) == 1:
        return _convert(value, kinds[0], where)
    if not isinstance(value, list) or len(value) != len(kinds):
        raise ValueError(f"experiment config: {where} must be a list of {len(kinds)} numbers, got {value!r}")
    return tuple(_convert(v, kind, f"{where}[{j}]") for j, (v, kind) in enumerate(zip(value, kinds)))


@dataclass(frozen=True)
class ResultRow:
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
        values = (getattr(self, name) for name in _ROW_FIELDS)
        return ",".join("" if v is None else str(v) for v in values)


# ResultRow's field names, declared in CSV_HEADER's column order. Taken once:
# a fields() call per row builds a fresh 13-tuple, and the interpreter keeps
# up to 2000 freed ones on its free list (0.3 MB over one user sweep).
_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


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
    PowerParams(config.c, alpha)
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
            f"instance written to {path}",
            path,
        )


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (sweep point, trial): generate, solve, validate, record.

    Per point and trial the instance seed is seed_base + point_index * trials
    + trial, except for alpha sweeps, where every point reuses the seeds
    seed_base + trial so all alpha values are solved on the same datasets
    (the exponent does not influence the position/capacity draws). The exact
    solver runs only when oracle_budget > 0 and its row is absent whenever
    the budget is exceeded (ratio columns stay empty then). Mean rows per
    (point, algo) are appended after all data rows, marked by an empty seed
    column and an ':mean'-suffixed experiment id. A solution that fails
    validation raises BenchValidationError after its instance is written to
    the directory of `out` (the current directory when `out` is unset).
    """
    rows: list[ResultRow] = []
    summaries: list[ResultRow] = []
    for p_idx, point in enumerate(config.sweep_values):
        gen_template = _resolve_point(config, point)
        point_rows: dict[str, list[ResultRow]] = {"pd": [], "ncs": [], "opt": []}
        for trial in range(config.trials):
            point_offset = 0 if config.sweep_variable == "alpha" else p_idx * config.trials
            seed = config.seed_base + point_offset + trial
            instance = gen_instance(replace(gen_template, seed=seed))

            opt_power = None
            opt_row: Optional[tuple[Solution, Optional[float]]] = None
            if config.oracle_budget > 0:
                result, opt_ms = _timed(
                    opt_solve, instance, config.oracle_budget, timing=config.timing
                )
                if result.status == "optimal":
                    opt_power = result.value
                    opt_row = (result.solution, opt_ms)

            pd_solution, pd_ms = _timed(
                lambda ins: pd_solve(ins)[0], instance, timing=config.timing
            )
            ncs_solution, ncs_ms = _timed(ncs_solve, instance, timing=config.timing)

            solved = [("pd", pd_solution, pd_ms), ("ncs", ncs_solution, ncs_ms)]
            if opt_row is not None:
                solved.append(("opt", *opt_row))

            for algo, solution, ms in solved:
                _validated(instance, solution, seed, algo, config.out)
                ratio = (
                    approximation_ratio(solution.total_power, opt_power)
                    if opt_power is not None
                    else None
                )
                row = ResultRow(
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
                    ratio_vs_opt=ratio,
                    util_variance=util_variance(instance, solution),
                )
                rows.append(row)
                point_rows[algo].append(row)

        for algo in ("pd", "ncs", "opt"):
            group = point_rows[algo]
            if not group:
                continue
            ratios = [r.ratio_vs_opt for r in group if r.ratio_vs_opt is not None]
            times = [r.runtime_ms for r in group if r.runtime_ms is not None]
            summaries.append(
                replace(
                    group[0],
                    experiment_id=f"{config.experiment_id}:mean",
                    seed=None,
                    total_power=sum(r.total_power for r in group) / len(group),
                    runtime_ms=sum(times) / len(times) if times else None,
                    ratio_vs_opt=sum(ratios) / len(ratios) if ratios else None,
                    util_variance=sum(r.util_variance for r in group) / len(group),
                )
            )
    return rows + summaries


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    return CSV_HEADER + "\n" + "".join(row.to_csv_line() + "\n" for row in rows)


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv_text(rows))
