"""The four workloads: the instances each draws from the seed, what one
round of timed calls does, and the checks made on its outputs.

Every call into cmpc goes through the package namespace (`api.pd_solve`,
looked up at call time), so the traced run sees it once the tracer has
patched that name. Times cover only the calls into cmpc; the benchmark's
own bookkeeping and checks run outside them.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import checks

# Instance seeds of one run are seed * SEED_STRIDE + i, so runs with
# different seeds never share an instance.
SEED_STRIDE = 1000
REL_TOL = 1e-9


class Round:
    """Outputs, failures and per-call seconds of one pass over a workload."""

    def __init__(self, reference):
        self.reference = reference  # calibrate.Reference of the run
        self.seconds: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed: dict[str, str] = {}  # op label -> reason
        self.weight: dict[str, int] = {}  # op label -> operations it stands for, when not 1
        self.out: dict[str, object] = {}  # op label -> comparable output
        self.kept: dict[str, object] = {}  # raw results the checks need
        self.same = True  # outputs equal those of the run's first round

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def _timed(self, key, seconds) -> None:
        self.seconds[key] += seconds
        self.reference.timed(seconds)

    def op(self, label, key, thunk, summarise=None, ops=1, fails=None):
        """Run one timed call; record its output, or why it failed."""
        self.attempted += ops
        if ops != 1:
            self.weight[label] = ops
        start = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # an operation that raises counts as failed
            self._timed(key, time.perf_counter() - start)
            self.failed[label] = f"{type(exc).__name__}: {exc}"
            return None
        self._timed(key, time.perf_counter() - start)
        reason = fails(result) if fails else None
        if reason:
            self.failed[label] = reason
        if summarise is not None:
            self.out[label] = summarise(result)
        return result


def _pd_summary(api):
    def summarise(result):
        solution, duals, _trace = result
        return {
            "cover": solution.to_json_dict(),
            "dual_objective": api.dual_objective(duals),
            "mu_positive": int((duals.mu > 0).sum()),
        }

    return summarise


def _cover_failures(geos, rounds_out, algos) -> dict[str, str]:
    """Independent cover checks on every solution of one round."""
    failed = {}
    for label, out in rounds_out.items():
        inst, algo = label.split("/")
        if algo not in algos:
            continue
        cover = out.get("cover")
        if cover is None:
            continue
        geo = geos[int(inst[1:])]
        errors = checks.cover_errors(geo, cover)
        if cover["total_power"] < geo.lower_bound() * (1 - REL_TOL):
            errors.append(f"power {cover['total_power']} below lower bound {geo.lower_bound()}")
        if errors:
            failed[label] = "; ".join(errors[:3])
    return failed


class Context:
    """What a run hands to its workload: the package, seed, inputs, cwd,
    and the host-speed reference its rounds sample between calls."""

    def __init__(self, api, seed: int, configs: list, instances: list, workdir: Path, reference):
        self.api = api
        self.reference = reference
        self.seed = seed
        self.configs = configs
        self.instances = instances
        self.workdir = workdir


class Workload:
    name = ""
    why = ""
    keys: tuple[str, ...] = ()  # per-call seconds this workload reports

    def configs(self, api, seed: int) -> list:
        """GenConfig of every instance the workload solves or checks."""
        raise NotImplementedError

    def run_round(self, ctx: Context) -> Round:
        raise NotImplementedError

    def check(self, ctx: Context, rounds: list[Round]) -> tuple[dict, dict]:
        """Failures (op label -> reason) and figures found by the checks."""
        raise NotImplementedError

    def pd_power(self, r: Round) -> float:
        return sum(out["cover"]["total_power"] for label, out in r.out.items() if label.endswith("/pd"))

    def detail(self, rounds) -> dict:
        """Seconds per round of each kind of call (median over rounds),
        scaled to the nominal host speed; the unscaled round time and the
        reference kernel's median beside them."""
        scale = rounds[0].reference.scale
        figures = {f"{k}_s": statistics.median(r.seconds[k] for r in rounds) * scale for k in self.keys}
        figures["raw_wall_s"] = statistics.median(r.wall for r in rounds)
        figures["kernel_s"] = calibrate.NOMINAL_S / scale
        figures["pd_power"] = self.pd_power(rounds[0])
        return figures


class LargeAmple(Workload):
    name = "large-ample"
    why = "pd and ncs at m=50, n=800, ample capacity: order build, ascent init and finalize dominate"
    keys = ("pd", "ncs")
    # n=800 rather than 2000, so that a run repeats every call three times.
    M, N, COUNT = 50, 800, 2

    def configs(self, api, seed):
        return [
            api.GenConfig(m=self.M, n=self.N, kbar=1.25 * self.N / self.M, seed=seed * SEED_STRIDE + i)
            for i in range(self.COUNT)
        ]

    def run_round(self, ctx):
        api, r = ctx.api, Round(ctx.reference)
        for i, inst in enumerate(ctx.instances):
            r.op(f"i{i}/pd", "pd", lambda: api.pd_solve(inst), _pd_summary(api))
            r.op(f"i{i}/ncs", "ncs", lambda: api.ncs_solve(inst), lambda s: {"cover": s.to_json_dict()})
        return r

    def check(self, ctx, rounds):
        geos = [checks.Geometry(inst) for inst in ctx.instances]
        return _cover_failures(geos, rounds[0].out, ("pd", "ncs")), {}


class CertifyTight(Workload):
    name = "certify-tight"
    why = "pd then both certificate checkers at m=10-20, n=300-400, capacity ~n: the checkers dominate"
    keys = ("pd", "certify")
    SIZES = ((10, 400), (15, 350), (20, 300))

    def configs(self, api, seed):
        return [
            api.GenConfig(m=m, n=n, kbar=n / m, seed=seed * SEED_STRIDE + i)
            for i, (m, n) in enumerate(self.SIZES)
        ]

    def run_round(self, ctx):
        api, r = ctx.api, Round(ctx.reference)

        def violations(found):
            return f"{len(found)} violations, first: {found[0]}" if found else None

        for i, inst in enumerate(ctx.instances):
            result = r.op(f"i{i}/pd", "pd", lambda: api.pd_solve(inst), _pd_summary(api))
            if result is None:
                r.attempted += 2
                r.failed[f"i{i}/verify"] = r.failed[f"i{i}/charging"] = "pd_solve failed"
                continue
            _solution, duals, trace = result
            r.op(
                f"i{i}/verify",
                "certify",
                lambda: api.verify_dual_feasibility(inst, duals),
                len,
                fails=violations,
            )
            r.op(
                f"i{i}/charging",
                "certify",
                lambda: api.check_charging(inst, trace, duals),
                len,
                fails=violations,
            )
        return r

    def check(self, ctx, rounds):
        geos = [checks.Geometry(inst) for inst in ctx.instances]
        notes = {}
        for i, inst in enumerate(ctx.instances):
            out = rounds[0].out.get(f"i{i}/pd")
            if out:
                notes[f"i{i} m={inst.m} n={inst.n}"] = (
                    f"power {out['cover']['total_power']:.6g}, dual objective "
                    f"{out['dual_objective']:.6g}, servers with mu > 0: {out['mu_positive']}/{inst.m}"
                )
        return _cover_failures(geos, rounds[0].out, ("pd",)), notes


class UserSweep(Workload):
    name = "user-sweep"
    why = "run_experiment over the user-count study (m=10, n=20..200): per-call and harness overhead"
    keys = ("harness",)
    TRIALS = 3
    POINTS = tuple(range(20, 201, 10))

    def experiment(self, api, seed):
        return api.ExperimentConfig(
            experiment_id="user-sweep",
            sweep_variable="n",
            sweep_values=self.POINTS,
            m=10,
            kbar=50.0,
            trials=self.TRIALS,
            seed_base=seed * SEED_STRIDE,
            oracle_budget=0,
            timing=False,
        )

    def configs(self, api, seed):
        base = seed * SEED_STRIDE
        return [
            api.GenConfig(m=10, n=n, kbar=50.0, seed=base + p * self.TRIALS + t)
            for p, n in enumerate(self.POINTS)
            for t in range(self.TRIALS)
        ]

    def run_round(self, ctx):
        api, r = ctx.api, Round(ctx.reference)
        config = self.experiment(api, ctx.seed)
        csv_path = ctx.workdir / "user_sweep.csv"
        ops = len(self.POINTS) * self.TRIALS

        def sweep():
            rows = api.run_experiment(config)
            api.write_csv(rows, str(csv_path))
            return rows

        rows = r.op("sweep", "harness", sweep, ops=ops)
        if rows is None:
            return r
        r.out["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        r.kept["rows"] = rows
        return r

    def pd_power(self, r):
        rows = r.kept.get("rows", [])
        return sum(row.total_power for row in rows if row.seed is not None and row.algo == "pd")

    def check(self, ctx, rounds):
        rows = rounds[0].kept.get("rows")
        if rows is None:
            return {}, {}
        configs = ctx.configs
        bounds = {cfg.seed: checks.Geometry(inst).lower_bound() for cfg, inst in zip(configs, ctx.instances)}
        failed = {}
        data = [row for row in rows if row.seed is not None]
        if len(data) != 2 * len(configs):
            failed["sweep"] = f"{len(data)} data rows for {len(configs)} instances"
        groups = defaultdict(list)
        for row in data:
            groups[(row.n, row.algo)].append(row)
            if row.total_power < bounds[row.seed] * (1 - REL_TOL):
                failed[f"seed{row.seed}"] = (
                    f"{row.algo} power {row.total_power} below lower bound {bounds[row.seed]}"
                )
        means = [row for row in rows if row.seed is None]
        if len(means) != len(groups):
            failed["sweep:mean"] = f"{len(means)} mean rows for {len(groups)} (n, algo) groups"
        for row in means:
            group = groups.get((row.n, row.algo), [])
            for field in ("total_power", "util_variance"):
                want = sum(getattr(g, field) for g in group) / max(len(group), 1)
                if not math.isclose(getattr(row, field), want, rel_tol=1e-12, abs_tol=1e-12):
                    for g in group:
                        failed[f"seed{g.seed}"] = f"mean row {field} {getattr(row, field)} != {want}"
        notes = {"csv_sha256": rounds[0].out.get("csv_sha256", "")}
        return failed, notes


class Oracle(Workload):
    name = "oracle"
    why = "opt_solve, pd and ncs on 300 instances at m=4-6, n=6-8, half ample and half tight capacity: branch and bound"
    keys = ("opt", "pd", "ncs")
    # Many small instances rather than fewer at n=10-14: the leaf count of
    # one tight instance varies by about its own mean from seed to seed,
    # so a round's time only settles across many instances (at m=4, n=10,
    # 64 tight instances still spread 0.3 in leaves between seeds). At
    # these sizes the exact check can also enumerate every assignment.
    PAIRS = 150
    AMPLE = ((4, 8), (5, 7), (6, 6))  # total capacity ~2.5 n
    TIGHT = ((4, 8),)  # total capacity ~1.2 n

    def configs(self, api, seed):
        base = seed * SEED_STRIDE
        out = []
        for i in range(self.PAIRS):
            m, n = self.AMPLE[i % len(self.AMPLE)]
            out.append(api.GenConfig(m=m, n=n, kbar=2.5 * n / m, seed=base + 2 * i))
            m, n = self.TIGHT[i % len(self.TIGHT)]
            out.append(api.GenConfig(m=m, n=n, kbar=1.2 * n / m, seed=base + 2 * i + 1))
        return out

    def run_round(self, ctx):
        api, r = ctx.api, Round(ctx.reference)

        def opt_summary(res):
            cover = res.solution.to_json_dict() if res.solution is not None else None
            return {"status": res.status, "nodes": res.nodes_explored, "cover": cover}

        def not_optimal(res):
            return None if res.status == "optimal" else f"opt_solve status {res.status}"

        for i, inst in enumerate(ctx.instances):
            r.op(f"i{i}/opt", "opt", lambda: api.opt_solve(inst), opt_summary, fails=not_optimal)
            r.op(f"i{i}/pd", "pd", lambda: api.pd_solve(inst), _pd_summary(api))
            r.op(f"i{i}/ncs", "ncs", lambda: api.ncs_solve(inst), lambda s: {"cover": s.to_json_dict()})
        return r

    def check(self, ctx, rounds):
        out = rounds[0].out
        geos = [checks.Geometry(inst) for inst in ctx.instances]
        failed = _cover_failures(geos, out, ("opt", "pd", "ncs"))
        ratios, tight_worst, tight_worst_at = [], 0.0, ""
        for i, inst in enumerate(ctx.instances):
            opt, pd, ncs = (out.get(f"i{i}/{a}") for a in ("opt", "pd", "ncs"))
            if not opt or opt["cover"] is None:
                continue
            value = opt["cover"]["total_power"]
            exact = checks.exact_optimum(geos[i])
            if not math.isclose(value, exact, rel_tol=REL_TOL):
                failed[f"i{i}/opt"] = f"opt_solve {value} != enumerated optimum {exact}"
            slack = value * (1 + REL_TOL)
            if ncs and ncs["cover"]["total_power"] * (1 + REL_TOL) < value:
                failed[f"i{i}/ncs"] = f"ncs {ncs['cover']['total_power']} below OPT {value}"
            if not pd:
                continue
            pd_value = pd["cover"]["total_power"]
            if pd_value * (1 + REL_TOL) < value:
                failed[f"i{i}/pd"] = f"pd {pd_value} below OPT {value}"
            if pd["dual_objective"] > slack:
                failed[f"i{i}/pd"] = f"dual objective {pd['dual_objective']} above OPT {value}"
            ratio = pd_value / value
            ratios.append(ratio)
            if i % 2 == 0:  # ample half; configs() alternates ample, tight
                if ratio > inst.m * (1 + REL_TOL):
                    failed[f"i{i}/pd"] = f"pd {pd_value} above m * OPT ({ratio:.4f} x OPT, m={inst.m})"
            elif ratio / inst.m > tight_worst:
                tight_worst = ratio / inst.m
                tight_worst_at = f"instance seed {ctx.configs[i].seed} (m={inst.m}, n={inst.n})"
        notes = {
            "pd_ratio_vs_opt": statistics.fmean(ratios) if ratios else 0.0,
            "pd_tight_max_ratio_vs_m_opt": tight_worst,
            "pd_tight_max_ratio_at": tight_worst_at,
            "opt_nodes": sum(o["nodes"] for k, o in out.items() if k.endswith("/opt")),
        }
        return failed, notes


WORKLOADS = {w.name: w for w in (LargeAmple(), CertifyTight(), UserSweep(), Oracle())}
