"""Span tracing of the ucvrp modules, installed from outside the package.

Every ucvrp module imports the functions it calls by name
(``from ucvrp.tsp import exact_tsp``), so patching ``ucvrp.tsp.exact_tsp``
alone would miss most callers.  ``install`` therefore replaces each traced
function at every attribute of every loaded ucvrp module that holds it.

Each wrapped call records a span (solve id, parent span, name, start,
end).  A function's self time is its span minus the spans of the traced
functions it called; time in untraced helpers stays with the caller, so
the glue of the meta-algorithms lands on ``algorithms.*``.  Exact work
counts are derived from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions wrapped, in the order they are reported.
TRACED = {
    "instance": ("validate_instance",),
    "tsp": ("exact_tsp", "tour_costs_all_subsets", "approx_tsp", "shortcut"),
    "lp_round": ("enumerate_tours", "solve_covering_lp", "round_tours"),
    "big_matching": ("serve_big_by_matching", "subalg1"),
    "itp": ("delta_itp", "delta_itp_plus"),
    "solution": ("check_feasible",),
    "algorithms": ("alg1", "alg2", "lp_itp_pipeline", "default_tour"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_priced(counts, args, kwargs, result, exc):
    if exc is None:
        # One Held-Karp pass prices every non-empty subset of the ground set.
        counts["tsp.subsets_priced"] += (1 << len(_arg(args, kwargs, 1, "ground"))) - 1


def _count_catalog(counts, args, kwargs, result, exc):
    if exc is None:
        counts["lp_round.catalog_tours"] += len(result.tours)
    elif type(exc).__name__ == "CatalogTooLarge":
        counts["lp_round.catalog_refused"] += 1


def _count_lp(counts, args, kwargs, result, exc):
    if exc is None:
        catalog = _arg(args, kwargs, 0, "catalog")
        # Computed size of the dense constraint matrix (float64), not measured.
        counts["lp_round.lp_dense_bytes"] += len(catalog.cover_set) * len(catalog.tours) * 8


def _count_rounding(counts, args, kwargs, result, exc):
    if exc is None:
        counts["lp_round.tours_selected"] += len(result.selected)


def _count_matching(counts, args, kwargs, result, exc):
    if exc is None:
        plan = result[0]
        counts["big_matching.big_customers"] += 2 * len(plan.pairs) + len(plan.solos)


def _count_partition(counts, args, kwargs, result, exc):
    if exc is None:
        trace = result[1]
        counts["itp.candidate_offsets"] += len(trace.candidate_costs)
        counts["itp.customers_partitioned"] += len(trace.dispositions)


def _count_solve(counts, args, kwargs, result, exc):
    if exc is None:
        report = result[1]
        counts["algorithms.solves"] += 1
        counts["tsp.exact_tours"] += report.alpha_tag == "exact"
        counts["algorithms.fallbacks"] += sum("gamma forced to 0" in n for n in report.notes)


COUNTERS = {
    "tsp.tour_costs_all_subsets": _count_priced,
    "lp_round.enumerate_tours": _count_catalog,
    "lp_round.solve_covering_lp": _count_lp,
    "lp_round.round_tours": _count_rounding,
    "big_matching.serve_big_by_matching": _count_matching,
    "itp.delta_itp": _count_partition,
    "algorithms.alg1": _count_solve,
    "algorithms.alg2": _count_solve,
}


class Tracer:
    """Spans and counts of the traced calls made while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.solve_id = 0
        self.spans: list[tuple] = []  # (solve_id, parent index, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counter:
                    counter(self.counts, args, kwargs, None, exc)
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (self.solve_id, parent, name, start, end)
            if counter:
                counter(self.counts, args, kwargs, result, None)
            return result

        return traced

    def summary(self) -> tuple[dict, dict, float]:
        """(self seconds per name, calls per name, seconds inside top-level spans)."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for index, (_, parent, name, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return dict(self_s), dict(calls), top


def install(tracer: Tracer) -> None:
    """Route every loaded ucvrp module's references to the traced functions
    through ``tracer``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "ucvrp" or name.startswith("ucvrp.")]
    for modname, names in TRACED.items():
        home = importlib.import_module(f"ucvrp.{modname}")
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.wrap(f"{modname}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
