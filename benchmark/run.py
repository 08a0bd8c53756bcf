#!/usr/bin/env python3
"""Benchmark of cmpc: solvers, certificate checkers and the sweep harness.

One workload, one process:

    python3 benchmark/run.py --workload oracle --seed 1 --seconds 25 --trace 0

runs whole rounds of the workload within --seconds (at least one round),
checks every output against computations made apart from the solvers, and
prints its figures; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones
of BENCHMARK.json, with --trace 1 the per-layer ones, taken by wrapping
cmpc's public functions (untraced rounds first, traced rounds after).

    python3 benchmark/run.py --workload all --seed 1 --seconds 25
    python3 benchmark/run.py --workload all --repeat 10 --seed 1 --seconds 25

run every workload (each in its own process) once, or --repeat times with
seeds seed, seed+1, ..., and print each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate  # from this script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

# One process, one thread; the harness honours CMPC_SEED, which would
# change the workload behind the benchmark's back.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
DETAIL_UNITS = {"pd_s": "s", "ncs_s": "s", "certify_s": "s", "opt_s": "s", "harness_s": "s",
                "raw_wall_s": "s", "raw_setup_s": "s", "kernel_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="least time spent in timed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload with --workload all")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    return args


def load_package():
    """Import cmpc from the checkout's src/; None when it is not there."""
    if not (SRC / "cmpc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cmpc

    return cmpc


def setup_probe(name: str, seed: int) -> None:
    """Child process: time `import cmpc` plus generating the workload's inputs."""
    start = time.perf_counter()
    api = load_package()
    imported = time.perf_counter()
    import workloads

    [api.gen_instance(cfg) for cfg in workloads.WORKLOADS[name].configs(api, seed)]
    print(json.dumps({"import_s": imported - start, "gen_s": time.perf_counter() - imported}))


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Import plus input generation, each in a fresh process: the median
    scaled by the reference kernel run before and after each process, and
    the median as measured."""
    scaled, raw = [], []
    before = calibrate.measure()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", "0", "--setup-probe"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        after = calibrate.measure()
        raw.append(probe["import_s"] + probe["gen_s"])
        scaled.append(raw[-1] * calibrate.NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def timed_rounds(workload, ctx, seconds, first_index, tracer=None, first=None):
    """Whole rounds while one more, as long as the longest so far, still fits.

    Only the first round keeps its outputs; every later one is compared
    with it (or with `first`) and then drops them, so that the memory the
    benchmark holds does not grow with the number of rounds."""
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        if tracer is not None:
            tracer.begin_round(first_index + len(rounds))
        began = time.perf_counter()
        r = workload.run_round(ctx)
        rounds.append(r)
        first = first or r
        if r is not first:
            r.same = r.out == first.out
            r.out, r.kept = {}, {}
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds:
            return rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(workload.name, args.seed)
    api = load_package()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(api)  # set-up generation is traced as round -1
    configs = workload.configs(api, args.seed)
    instances = [api.gen_instance(cfg) for cfg in configs]
    if tracer is not None:
        tracer.uninstall()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    ctx = workloads.Context(api, args.seed, configs, instances, workdir, calibrate.Reference())
    home = os.getcwd()
    os.chdir(workdir)  # the harness writes failure dumps into the cwd
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = timed_rounds(workload, ctx, budget, 0)
        rss = peak_rss_mb()
        traced = []
        if tracer is not None:
            tracer.install(api)
            try:
                traced = timed_rounds(workload, ctx, budget, len(rounds), tracer, rounds[0])
            finally:
                tracer.uninstall()
        failed, figures = workload.check(ctx, rounds)
    finally:
        os.chdir(home)
        dumps = sorted(workdir.glob("cmpc_failed_instance_*.json"))
        if not dumps:
            shutil.rmtree(workdir, ignore_errors=True)

    # Outputs must repeat exactly: across untraced rounds, and traced against untraced.
    problems = []
    for i, r in enumerate(rounds[1:] + traced, start=1):
        if not r.same:
            problems.append(f"round {i}{' (traced)' if i >= len(rounds) else ''} output differs from round 0")
    for path in dumps:
        problems.append(f"harness failure dump: {path}")

    every = rounds + traced
    attempted = sum(r.attempted for r in every)
    failed_ops = sum(sum(r.weight.get(label, 1) for label in set(r.failed) | set(failed)) for r in every)
    reasons = {**{k: v for r in every for k, v in r.failed.items()}, **failed}

    detail = workload.detail(rounds)
    detail.update({k: v for k, v in figures.items() if isinstance(v, (int, float))})
    wall = statistics.median(r.wall for r in rounds) * ctx.reference.scale
    if raw_setup_s is not None:
        detail["raw_setup_s"] = raw_setup_s
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)}"
          + (f" + {len(traced)} traced" if traced else ""))
    print("  round seconds " + " ".join(f"{r.wall:.4f}" for r in rounds)
          + (" | traced " + " ".join(f"{r.wall:.4f}" for r in traced) if traced else ""))
    for name, value in detail.items():
        print(f"  {name:<36} {value!r} {DETAIL_UNITS.get(name, '')}")
    for name, value in figures.items():
        if not isinstance(value, (int, float)):
            print(f"  {name}: {value}")
    for label, reason in sorted(reasons.items()):
        print(f"  FAILED {label}: {reason}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if args.trace:
        metrics = layer_metrics(tracing.PER_LAYER, tracer, rounds, traced, detail)
        spans = WORK / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.write_spans(spans)
        print(f"  spans written to {spans}")
        if tracer.absent:
            print(f"  absent (reported as 0): {', '.join(tracer.absent)}")
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        units.update({"reference.opt_nodes_per_s": "1/s", "trace.overhead_s": "s"})
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": rss}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<36} {value!r} {units[name]}")
    print(f"  attempted {attempted}  failed {failed_ops}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(table, tracer, rounds, traced, detail) -> dict:
    """Per-layer figures: median over traced rounds; set-up generation added."""
    per_round = tracer.round_figures()
    setup = per_round.get(-1, {})
    out = {}
    for name, (unit, read) in table.items():
        values = [read(per_round.get(len(rounds) + i, {})) for i in range(len(traced))]
        out[name] = statistics.median(values) if unit == "s" else statistics.median_low(values)
    out["generate.gen_instance_s"] += setup.get("generate.gen_instance_self_s", 0.0)
    opt_s = detail.get("opt_s", 0.0)
    out["reference.opt_nodes_per_s"] = out["reference.opt_nodes"] / opt_s if opt_s else 0.0
    out["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in rounds)
    return out


def run_many(args) -> int:
    """--workload all / --repeat: one child process per run, then statistics."""
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        for m in json.loads(spec.read_text())["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    status = 0
    for name in names:
        results = []
        for k in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + k), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"run of {name} with seed {args.seed + k} exited {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            detail = json.loads(next(x for x in lines if x.startswith("detail "))[len("detail "):])
            if not result["correct"] or result["failed"]:
                status = 1
            results.append((result, detail))
        if args.repeat > 1 and results:
            summarise(name, results, bounds)
    return status


def summarise(name, results, bounds) -> None:
    series = {}
    for result, detail in results:
        for metric, rec in result["metrics"].items():
            series.setdefault(metric, []).append(rec["value"])
        for metric, value in detail.items():
            series.setdefault(f"({metric})", []).append(value)
    shares = {r["failed"] / r["attempted"] for r, _ in results}
    print(f"== {name}: {len(results)} runs, failed shares {sorted(shares)}")
    print(f"   {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for metric, values in series.items():
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
        print(f"   {metric:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    os.environ.pop("CMPC_SEED", None)
    sys.path.insert(0, str(HERE))
    if not (SRC / "cmpc" / "__init__.py").is_file():
        print(f"error: no cmpc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    if args.workload == "all" or args.repeat > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
