"""Traced run: wrap cmpc's public functions at run time and record spans.

Each wrapped call records a span (name, start, end, parent, round) in
flat arrays kept in memory; the per-layer figures are computed from them
at the end, and the spans are written to a TSV file. `order_key` runs
m*n times per order build, so it is only counted, not spanned.

A name is patched in every cmpc module that holds it, since modules bind
their dependencies with `from .model import ...`; patching only the
defining module would miss those callers. A name that no longer exists is
reported as absent and its figures read 0.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, attribute, span name); "Class.method" patches a method.
SPANS = (
    ("model", "build_disks", "model.build_disks"),
    ("model", "server_order", "model.server_order"),
    ("primal_dual", "pd_solve", "primal_dual.pd"),
    ("primal_dual", "init_solver", "primal_dual.init"),
    ("primal_dual", "next_event", "primal_dual.next_event"),
    ("primal_dual", "apply_selection", "primal_dual.apply_selection"),
    ("primal_dual", "DualState.finalize", "primal_dual.finalize"),
    ("primal_dual", "verify_dual_feasibility", "primal_dual.verify_dual_feasibility"),
    ("primal_dual", "check_charging", "primal_dual.check_charging"),
    ("primal_dual", "charge_breakdown", "primal_dual.charge_breakdown"),
    ("reference", "ncs_solve", "reference.ncs_solve"),
    ("reference", "opt_solve", "reference.opt_solve"),
    ("reference", "feasible_assignment", "reference.feasible_assignment"),
    ("generate", "gen_instance", "generate.gen_instance"),
    ("metrics", "validate", "metrics.validate"),
    ("metrics", "util_variance", "metrics.util_variance"),
    ("bench", "run_experiment", "bench.run_experiment"),
    ("bench", "write_csv", "bench.csv"),
)
COUNTED = (("model", "order_key", "model.order_key_calls"),)


def _count_results(name, counts, result):
    """Counts taken from a call's result, at the boundary that produced it."""
    if name == "primal_dual.next_event":
        counts["primal_dual.tight_disks"] += len(result[1])
    elif name == "primal_dual.apply_selection":
        counts["primal_dual.selections"] += bool(result)
    elif name == "primal_dual.pd":
        counts["primal_dual.mu_positive_servers"] += int((np.asarray(result[1].mu) > 0).sum())
    elif name == "reference.opt_solve":
        counts["reference.opt_nodes"] += result.nodes_explored
    elif name == "reference.feasible_assignment":
        counts["reference.feasible_leaves"] += result is not None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id: array = array("H")
        self.parent: array = array("q")
        self.start: array = array("d")
        self.end: array = array("d")
        self.round: array = array("h")
        self.stack: list[int] = []
        self.current_round = -1
        self.counts: list[Counter] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_round(self, index: int) -> None:
        self.current_round = index
        while len(self.counts) <= index + 1:
            self.counts.append(Counter())

    def _span(self, name: str, fn):
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, tracer = self.stack, self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.round.append(tracer.current_round)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            _count_results(name, tracer.counts[tracer.current_round + 1], result)
            return result

        return traced

    def _counter(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[tracer.current_round + 1][name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Patch every listed name in every cmpc module that binds it."""
        self.begin_round(-1)
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for module_name, attr, name in SPANS + COUNTED:
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None) if home is not None else None
            original = getattr(owner, method, None) if method else owner
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            wrap = self._counter if (module_name, attr, name) in COUNTED else self._span
            wrapper = wrap(name, original)
            if method:
                self._set(owner, method, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, original)

    def _set(self, holder, key, wrapper, original) -> None:
        self._restore.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def round_figures(self) -> dict[int, dict[str, float]]:
        """Per round: self seconds and calls of each span name, plus counts."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        rounds = np.frombuffer(self.round, dtype=np.int16)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out: dict[int, dict[str, float]] = {}
        for rnd in np.unique(rounds).tolist():
            sel = rounds == rnd
            calls = np.bincount(names[sel], minlength=len(self.names))
            secs = np.bincount(names[sel], weights=self_time[sel], minlength=len(self.names))
            fig = {}
            for nid, name in enumerate(self.names):
                fig[f"{name}_self_s"] = float(secs[nid])
                fig[f"{name}_calls"] = int(calls[nid])
            fig.update(self.counts[rnd + 1])
            out[rnd] = fig
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.round[i]}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\n"
                )


# Per-layer metrics: name -> (unit, how it is read from one round's figures).
def _self_s(span):
    return "s", lambda f: f.get(f"{span}_self_s", 0.0)


def _calls(span):
    return "count", lambda f: f.get(f"{span}_calls", 0)


def _count(key):
    return "count", lambda f: f.get(key, 0)


def _leaf_ratio(f):
    calls = f.get("reference.feasible_assignment_calls", 0)
    return f.get("reference.feasible_leaves", 0) / calls if calls else 0.0


PER_LAYER = {
    "model.build_disks_s": _self_s("model.build_disks"),
    "model.build_disks_calls": _calls("model.build_disks"),
    "model.server_order_s": _self_s("model.server_order"),
    "model.server_order_calls": _calls("model.server_order"),
    "model.order_key_calls": _count("model.order_key_calls"),
    "primal_dual.init_s": _self_s("primal_dual.init"),
    "primal_dual.finalize_s": _self_s("primal_dual.finalize"),
    "primal_dual.next_event_s": _self_s("primal_dual.next_event"),
    "primal_dual.events": _calls("primal_dual.next_event"),
    "primal_dual.tight_disks": _count("primal_dual.tight_disks"),
    "primal_dual.apply_selection_s": _self_s("primal_dual.apply_selection"),
    "primal_dual.apply_selection_calls": _calls("primal_dual.apply_selection"),
    "primal_dual.selections": _count("primal_dual.selections"),
    "primal_dual.pd_self_s": _self_s("primal_dual.pd"),
    "primal_dual.mu_positive_servers": _count("primal_dual.mu_positive_servers"),
    "primal_dual.verify_dual_feasibility_s": _self_s("primal_dual.verify_dual_feasibility"),
    "primal_dual.check_charging_s": _self_s("primal_dual.check_charging"),
    "primal_dual.charge_breakdown_calls": _calls("primal_dual.charge_breakdown"),
    "primal_dual.charge_breakdown_s": _self_s("primal_dual.charge_breakdown"),
    "reference.ncs_solve_s": _self_s("reference.ncs_solve"),
    "reference.opt_solve_self_s": _self_s("reference.opt_solve"),
    "reference.opt_nodes": _count("reference.opt_nodes"),
    "reference.feasible_assignment_calls": _calls("reference.feasible_assignment"),
    "reference.feasible_assignment_s": _self_s("reference.feasible_assignment"),
    "reference.feasible_leaf_ratio": ("ratio", _leaf_ratio),
    "generate.gen_instance_s": _self_s("generate.gen_instance"),
    "metrics.validate_s": _self_s("metrics.validate"),
    "metrics.util_variance_s": _self_s("metrics.util_variance"),
    "bench.run_experiment_self_s": _self_s("bench.run_experiment"),
    "bench.csv_s": _self_s("bench.csv"),
}
