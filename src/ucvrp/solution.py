"""Solutions to the unsplittable CVRP and their feasibility check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from numbers import Integral
from operator import add
from typing import Mapping, Sequence

from ucvrp.instance import Instance
from ucvrp.tsp import Tour, metric_scale

# A stated tour cost may differ from its recomputation by COST_TOL S, with
# S = ``metric_scale``: two float sums of costs near 1e10 can differ by
# more than 1e-6 on a correct tour.
COST_TOL = 1e-6


@dataclass(frozen=True)
class Solution:
    """A set of tours plus an unsplittable assignment of each customer to
    the single tour serving it."""

    tours: tuple[Tour, ...]
    assignment: Mapping[int, int]  # customer -> index into tours

    @property
    def cost(self) -> float:
        return float(reduce(add, (t.cost for t in self.tours), 0))


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_feasible(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Verify the unsplittable feasibility conditions.

    Checks, in order: every customer and tour index of the assignment is
    an integer; every customer assigned exactly once; the assigned tour
    actually visits the customer; per-tour assigned demand at most the
    capacity; then, tour by tour, every vertex is the depot or a customer,
    the tour starts and ends at the depot, and only then its stated cost
    equals its recomputed cost within ``COST_TOL`` times the metric's
    scale.  Violations are reported, not raised.
    """
    problems: list[str] = []
    assignment = sol.assignment
    if not _indices(chain(assignment, assignment.values())):
        # 3.0 equals 3 in a set but cannot index; such an entry serves no one.
        for v, ti in assignment.items():
            if not _indices((v,)):
                problems.append(f"UnknownCustomer({v})")
            elif not _indices((ti,)):
                problems.append(f"BadTourIndex({v},{ti})")
        assignment = {v: ti for v, ti in assignment.items() if _indices((v, ti))}
    assigned = set(assignment)
    known = set(inst.customers)
    for v in inst.customers:
        if v not in assigned:
            problems.append(f"CustomerUnserved({v})")
    for v in assignment:
        if v not in known:
            problems.append(f"UnknownCustomer({v})")
    visits = [t.customers for t in sol.tours]
    for v, ti in assignment.items():
        if ti < 0 or ti >= len(visits):
            problems.append(f"BadTourIndex({v},{ti})")
        elif v not in visits[ti]:
            problems.append(f"ServedOffTour({v},{ti})")
    loads: dict[int, int] = {}
    for v, ti in assignment.items():
        if v in known:
            loads[ti] = loads.get(ti, 0) + inst.demand(v)
    for ti, load in loads.items():
        if load > inst.capacity:
            problems.append(f"CapacityExceeded({ti}:{load}>{inst.capacity})")
    vertices = frozenset(range(inst.n + 1))
    scaled_tol = None  # COST_TOL S, read off the metric when a cost needs it
    integral = _indices(chain.from_iterable(t.vertices for t in sol.tours))
    for ti, t in enumerate(sol.tours):
        known = vertices.issuperset(t.vertices) and (integral or _indices(t.vertices))
        if not known:
            problems.extend(
                f"UnknownVertex({ti},{v})" for v in t.vertices
                if v not in vertices or not _indices((v,))
            )
        if len(t.vertices) < 2 or t.vertices[0] != 0 or t.vertices[-1] != 0:
            problems.append(f"NotRooted({ti})")
        elif known:
            # "not <=", so a NaN cost, which fails every comparison, is a
            # mismatch.  S >= 1, so a cost within COST_TOL needs no S.
            off = abs(t.cost - t.recompute_cost(inst))
            if not off <= COST_TOL:
                if scaled_tol is None:
                    scaled_tol = COST_TOL * metric_scale(inst.metric)
                if not off <= scaled_tol:
                    problems.append(f"CostMismatch({ti})")
    return FeasibilityReport(not problems, tuple(problems))


def _indices(values) -> bool:
    """Whether every value is an int or a numpy integer, but not a bool.
    It tests each distinct type once, after one C-level pass over
    ``values``."""
    types = set(map(type, values))
    return types <= {int} or all(
        issubclass(t, Integral) and t is not bool for t in types
    )


def merge(*sols: Solution) -> Solution:
    """Union of solutions over disjoint customer sets."""
    tours: list[Tour] = []
    assignment: dict[int, int] = {}
    for sol in sols:
        offset = len(tours)
        tours.extend(sol.tours)
        for v, ti in sol.assignment.items():
            if v in assignment:
                raise ValueError(f"customer {v} assigned by two solutions")
            assignment[v] = ti + offset
    return Solution(tuple(tours), assignment)


def trivial_solution(inst: Instance, customers: Sequence[int]) -> Solution:
    """One trivial tour (depot, v, depot) per listed customer."""
    tours = tuple(
        Tour((0, v, 0), 2.0 * inst.depot_cost(v), "external")
        for v in customers
    )
    return Solution(tours, {v: i for i, v in enumerate(customers)})
