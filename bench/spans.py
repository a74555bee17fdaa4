"""Spans around the layer boundaries of ``qsta``, recorded from outside.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper in
every ``qsta`` module namespace that holds it (``from .relalg import
is_consistent`` copies count too), and ``uninstall`` puts the originals
back.  A span is a name, start, end and parent span; spans
stay in memory and are reduced to per-layer metrics when the run ends.  A
layer's self time is its span time minus the time of its direct child
spans.  Counters are read off the wrapped calls' results.

Inner primitives called per search node or per relation operation
(``compose``, ``converse``, ``backconstraints_step``, ``resolve_variable``)
are not wrapped: a span costs about a microsecond, which would swamp them,
and their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
from array import array
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "qsta.dsl": ("load_automaton",),
    "qsta.formula": ("dnf",),
    "qsta.simulate": ("simulate",),
    "qsta.automata": ("validate", "validate_run_prefix"),
    "qsta.emptiness": (
        "decide",
        "ftm_search",
        "globalcsp",
        "unfold_with_sources",
        "scene_from_witness",
        "check_bounds",
        "check_witness",
        "witness_to_json",
        "witness_from_json",
        "witness_to_dot",
    ),
    "qsta.relalg": ("is_consistent", "consistent_scenario", "path_consistency"),
}

def unit(metric: str) -> str:
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


POSTCHECK = ("emptiness.unfold_with_sources", "emptiness.scene_from_witness", "automata.validate_run_prefix")


class Tracer:
    def __init__(self) -> None:
        # One entry per span, in start order.
        self.names: List[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Dict[str, int] = defaultdict(int)
        self.enabled = False
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = getattr(self, "_note_" + name.split(".")[-1], None)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.ends.append(0)
            self._stack.append(index)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter_ns()
                self._stack.pop()
            if note is not None:
                note(parent, result)
            return result

        return traced

    # -- counters read off results ---------------------------------------------

    def _note_ftm_search(self, parent: int, result) -> None:
        stats = result[1]
        self.counts["search_nodes"] += stats.nodes_created
        self.counts["csp_checks"] += stats.csp_checks

    def _note_is_consistent(self, parent: int, result) -> None:
        if parent >= 0 and self.names[parent] == "emptiness.ftm_search":
            self.counts["search_is_consistent"] += 1
            self.counts["search_consistent"] += bool(result)

    def _note_globalcsp(self, parent: int, result) -> None:
        self.counts["network_vars"] += len(result.variables)

    def _note_unfold_with_sources(self, parent: int, result) -> None:
        self.counts["prefix_nodes"] += len(result[1])

    def _note_simulate(self, parent: int, result) -> None:
        self.counts["states_out"] += len(result.states)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        holders = [m for n, m in list(sys.modules.items()) if n == "qsta" or n.startswith("qsta.")]
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(module_name)
            layer = module_name.split(".")[-1]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ns, self ns."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = out[name]
            row["calls"] += 1
            row["ns"] += duration
            row["self_ns"] += duration - child_ns[index]
        return out

    def child_ns(self, parent_name: str, child_names) -> int:
        """Time of spans named in child_names whose parent is a parent_name span."""
        total = 0
        for index, parent in enumerate(self.parents):
            if parent >= 0 and self.names[index] in child_names and self.names[parent] == parent_name:
                total += self.ends[index] - self.starts[index]
        return total


def layer_metrics(tracer: Tracer, instances: int, overhead_ns: int, untraced_ns: int) -> Dict[str, float]:
    """Per-layer metrics; times and counts are means per traced instance."""
    totals = tracer.totals()
    counts = tracer.counts

    def row(name: str) -> Dict[str, float]:
        return totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def ms(*names: str) -> float:
        return sum(row(n)["ns"] for n in names) / 1e6 / instances

    def self_ms(name: str) -> float:
        return row(name)["self_ns"] / 1e6 / instances

    def calls(*names: str) -> int:
        return sum(row(n)["calls"] for n in names)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decide_ns = row("emptiness.decide")["ns"]
    decisions = calls("relalg.is_consistent", "relalg.consistent_scenario")
    return {
        "emptiness.search_self_ms": self_ms("emptiness.ftm_search"),
        "emptiness.search_nodes": counts["search_nodes"] / instances,
        "emptiness.csp_checks": counts["csp_checks"] / instances,
        "emptiness.csp_consistent_ratio": ratio(counts["search_consistent"], counts["search_is_consistent"]),
        "emptiness.search_share": ratio(tracer.child_ns("emptiness.decide", ("emptiness.ftm_search",)), decide_ns),
        "emptiness.globalcsp_ms": ms("emptiness.globalcsp"),
        "emptiness.globalcsp_calls": calls("emptiness.globalcsp") / instances,
        "emptiness.network_vars": ratio(counts["network_vars"], calls("emptiness.globalcsp")),
        "emptiness.unfold_ms": ms("emptiness.unfold_with_sources"),
        "emptiness.prefix_nodes": counts["prefix_nodes"] / instances,
        "emptiness.scene_ms": ms("emptiness.scene_from_witness"),
        "automata.validate_prefix_ms": ms("automata.validate_run_prefix"),
        "emptiness.postcheck_share": ratio(tracer.child_ns("emptiness.decide", POSTCHECK), decide_ns),
        "relalg.is_consistent_ms": ms("relalg.is_consistent"),
        "relalg.is_consistent_calls": calls("relalg.is_consistent") / instances,
        "relalg.scenario_ms": ms("relalg.consistent_scenario"),
        "relalg.pc_calls": calls("relalg.path_consistency") / instances,
        "relalg.pc_per_decision": ratio(calls("relalg.path_consistency"), decisions),
        "simulate.ms": ms("simulate.simulate"),
        "simulate.states_out": counts["states_out"] / instances,
        "formula.dnf_ms": ms("formula.dnf"),
        "formula.dnf_calls": calls("formula.dnf") / instances,
        "dsl.load_ms": ms("dsl.load_automaton"),
        "emptiness.witness_json_ms": ms("emptiness.witness_to_json", "emptiness.witness_from_json"),
        "emptiness.check_witness_ms": ms("emptiness.check_witness"),
        "emptiness.decide_self_ms": self_ms("emptiness.decide"),
        "trace.overhead_ms": overhead_ns / 1e6 / instances,
        "trace.overhead_share": ratio(overhead_ns, untraced_ns),
    }
