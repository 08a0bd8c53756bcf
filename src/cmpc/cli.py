"""Command line interface.

Subcommands:
  gen     write seeded random instance files
  solve   run one algorithm on an instance file, print solution + metrics
  bench   run an experiment config, write the result CSV
  verify  run the dual-ascent solver and audit every invariant

Exit codes: 0 ok, 1 usage or malformed input, 2 validation/invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .bench import BenchValidationError, ExperimentConfig, run_experiment, write_csv
from .certify import check_charging, dual_objective, verify_dual_feasibility
from .generate import GenConfig, gen_instance
from .metrics import util_variance, validate
from .model import InsufficientCapacityError, dump_instance, instance_from_json_dict, order_table
from .primal_dual import AscentStalledError, CapacityInvariantError, pd_solve
from .reference import DEFAULT_NODE_BUDGET, ncs_solve, opt_solve
from .solution import trace_to_json_list

USAGE_EXIT = 1
FAILURE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmpc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="write seeded random instances")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kbar", type=float, required=True)
    gen.add_argument("--lam", type=float, default=1.0)
    gen.add_argument("--alpha", type=float, default=2.0)
    gen.add_argument("--c", type=float, default=1.0)
    gen.add_argument("--l", type=float, default=100.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trials", type=int, default=1, help="instances to write (seed, seed+1, ...)")
    gen.add_argument("--out", default=".", help="output directory")

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--algo", choices=("pd", "ncs", "opt"), required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--oracle-budget", type=int, default=DEFAULT_NODE_BUDGET)
    solve.add_argument("--timing", action="store_true", help="include wall-clock runtime_ms")
    solve.add_argument("--trace", action="store_true", help="include the selection event trace (pd only)")

    bench = sub.add_parser("bench", help="run an experiment config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default=None, help="CSV path (overrides config)")

    verify = sub.add_parser("verify", help="solve and audit dual feasibility + charging")
    verify.add_argument("--in", dest="infile", required=True)
    return parser


def _load_json(path: str, parse):
    """parse(the JSON document at path); on any input error, print it and exit 1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:  # no such file, a directory, no permission, ...
        print(f"{path}: {_reason(exc)}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    except json.JSONDecodeError as exc:
        print(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    except ValueError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _reason(exc: OSError) -> str:
    """The reason an OS call failed, in lower case: "no such file or directory"."""
    return (exc.strerror or str(exc)).lower()


def _parse_instance(data):
    """The instance of a JSON document, its order table built: a power or a
    cover's total past the float range is malformed input too."""
    instance = instance_from_json_dict(data)
    order_table(instance)
    return instance


def _cmd_gen(args) -> int:
    try:
        template = GenConfig(
            m=args.m, n=args.n, kbar=args.kbar, seed=args.seed,
            c=args.c, alpha=args.alpha, l=args.l, lam=args.lam,
        )
        if args.trials < 1:
            raise ValueError(f"trials must be >= 1, got {args.trials}")
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        print(f"gen: cannot make output directory {args.out}: {_reason(exc)}", file=sys.stderr)
        return USAGE_EXIT
    for seed in range(args.seed, args.seed + args.trials):
        path = os.path.join(args.out, f"instance_{seed:08d}.json")
        dump_instance(gen_instance(replace(template, seed=seed)), path)
        print(path)
    return 0


def _cmd_solve(args) -> int:
    if args.oracle_budget < 1:
        print(f"solve: oracle budget must be >= 1, got {args.oracle_budget}", file=sys.stderr)
        return USAGE_EXIT
    instance = _load_json(args.infile, _parse_instance)
    start = time.perf_counter()
    trace = None
    if args.algo == "pd":
        solution, duals, trace = pd_solve(instance)
    elif args.algo == "ncs":
        solution = ncs_solve(instance)
    else:
        result = opt_solve(instance, args.oracle_budget)
        if result.status != "optimal":
            print(json.dumps({"algo": "opt", **result.to_json_dict()}, indent=2))
            return 0 if result.status == "budget_exceeded" else FAILURE_EXIT
        solution = result.solution
    runtime_ms = (time.perf_counter() - start) * 1e3

    report = validate(instance, solution)
    if not report.ok:
        for code, detail in report.violations:
            print(f"constraint {code}: {detail}", file=sys.stderr)
        return FAILURE_EXIT

    payload = {
        "algo": args.algo,
        "total_power": solution.total_power,
        "runtime_ms": runtime_ms if args.timing else None,
        "util_variance": util_variance(instance, solution),
        "per_server_load": solution.loads(),
        "solution": solution.to_json_dict(),
    }
    if args.trace and trace is not None:
        payload["events"] = trace_to_json_list(trace)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_bench(args) -> int:
    config = _load_json(args.config, ExperimentConfig.from_json_dict)
    config = replace(config, out=args.out or config.out)
    if not config.out:
        print("bench: no output path (--out or config 'out')", file=sys.stderr)
        return USAGE_EXIT
    out_dir = os.path.dirname(config.out)
    if out_dir and not os.path.isdir(out_dir):
        print(f"bench: output directory {out_dir} does not exist", file=sys.stderr)
        return USAGE_EXIT
    if os.path.isdir(config.out):
        print(f"bench: output path {config.out} is a directory", file=sys.stderr)
        return USAGE_EXIT
    write_csv(run_experiment(config), config.out)
    print(config.out)
    return 0


def _cmd_verify(args) -> int:
    instance = _load_json(args.infile, _parse_instance)
    solution, duals, trace = pd_solve(instance)

    failures = 0
    report = validate(instance, solution)
    if not report.ok:
        failures += len(report.violations)
        for code, detail in report.violations:
            print(f"constraint {code}: {detail}")
    dual_violations = verify_dual_feasibility(instance, duals)
    for v in dual_violations:
        print(str(v))
    failures += len(dual_violations)
    charging_violations = check_charging(instance, trace, duals)
    for v in charging_violations:
        print(str(v))
    failures += len(charging_violations)

    if failures:
        print(f"verify: {failures} violation(s)")
        return FAILURE_EXIT
    print(
        f"verify: ok (events={len(trace)}, total_power={solution.total_power}, "
        f"dual_objective={dual_objective(duals)})"
    )
    return 0


def cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    # Every solver failure ends here: one stderr line, exit 2.
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InsufficientCapacityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
    except (CapacityInvariantError, AscentStalledError) as exc:
        print(f"solver invariant failure: {exc}", file=sys.stderr)
    except BenchValidationError as exc:
        print(f"bench aborted: {exc}", file=sys.stderr)
    return FAILURE_EXIT


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
