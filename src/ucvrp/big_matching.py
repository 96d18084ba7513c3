"""Serve every customer with normalized demand above 1/3 via a
minimum-cost pair/solo cover.

Two such customers can share a tour only if their demands fit together,
and no tour fits three of them, so the cheapest way to serve this group
with dedicated tours is a minimum-weight matching: pair (u, v) costs
c(r,u) + c(u,v) + c(v,r), a solo costs 2 c(r,v).  Shortcutting any
optimal solution down to this group yields some pair/solo cover, so the
optimal cover costs at most the overall optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import networkx as nx

from ucvrp.instance import Instance, radial_mass
from ucvrp.itp import delta_itp_plus
from ucvrp.solution import Solution, merge, trivial_solution
from ucvrp.tsp import Tour

BIG_THRESHOLD = Fraction(1, 3)


@dataclass(frozen=True)
class MatchingPlan:
    pairs: frozenset[tuple[int, int]]
    solos: frozenset[int]
    cost: float

    def to_json_dict(self) -> dict:
        return {
            "pairs": sorted([list(p) for p in self.pairs]),
            "solos": sorted(self.solos),
            "cost": self.cost,
        }


def _pair_cost(inst: Instance, u: int, v: int) -> float:
    return inst.depot_cost(u) + inst.cost(u, v) + inst.depot_cost(v)


class _SavingsGraph(nx.Graph):
    """A graph whose ``g[u]`` is the adjacency dict itself, not a fresh
    read-only view: the matching's slack test reads ``g[v][w]`` per edge."""

    def __getitem__(self, u):
        return self._adj[u]


def _plan_to_solution(inst: Instance, plan: MatchingPlan) -> Solution:
    tours: list[Tour] = []
    assignment: dict[int, int] = {}
    for u, v in sorted(plan.pairs):
        seq = (0, u, v, 0)
        tours.append(Tour(seq, inst.route_cost(seq), "external"))
        assignment[u] = assignment[v] = len(tours) - 1
    solos = trivial_solution(inst, sorted(plan.solos))
    return merge(Solution(tuple(tours), assignment), solos)


def serve_big_by_matching(inst: Instance) -> tuple[MatchingPlan, Solution]:
    """Optimal pair/solo cover of {v : d_v/k > 1/3}.

    Solved as maximum-weight matching on the savings graph: pairing u and
    v saves c(r,u) + c(r,v) - c(u,v) >= 0 over two solos.
    """
    big = [v for v in inst.customers if inst.exceeds(v, BIG_THRESHOLD)]
    if not big:
        plan = MatchingPlan(frozenset(), frozenset(), 0.0)
        return plan, Solution((), {})
    g = _SavingsGraph()
    g.add_nodes_from(big)
    for i, u in enumerate(big):
        for v in big[i + 1:]:
            if inst.demand(u) + inst.demand(v) <= inst.capacity:
                saving = inst.depot_cost(u) + inst.depot_cost(v) - inst.cost(u, v)
                g.add_edge(u, v, weight=saving)
    mate = nx.max_weight_matching(g, maxcardinality=False)
    # networkx's matching leaves a reference cycle that holds the graph
    # until a full collection; emptying it now frees the edges at once.
    g.clear()
    pairs = frozenset(tuple(sorted(e)) for e in mate)
    matched = {v for e in pairs for v in e}
    solos = frozenset(v for v in big if v not in matched)
    cost = sum(_pair_cost(inst, u, v) for u, v in pairs) + sum(
        2.0 * inst.depot_cost(v) for v in solos
    )
    plan = MatchingPlan(pairs, solos, float(cost))
    return plan, _plan_to_solution(inst, plan)


def subalg1(
    inst: Instance, tour: Tour, matching: Optional[tuple[MatchingPlan, Solution]] = None
) -> Solution:
    """Matching for demand > 1/3, then 1/3-threshold tour partition on the
    remaining customers over the shortcut of ``tour``.  ``matching`` may
    pass in the result of ``serve_big_by_matching(inst)``."""
    if tour.customers != set(inst.customers):
        raise ValueError("tour must cover all customers")
    _, big_sol = serve_big_by_matching(inst) if matching is None else matching
    rest = [v for v in inst.customers if not inst.exceeds(v, BIG_THRESHOLD)]
    return merge(big_sol, delta_itp_plus(inst, rest, tour, BIG_THRESHOLD))


def subalg1_bound(inst: Instance, tour_cost: float, matching_cost: float) -> float:
    """c(tour) + (3/2) sum_{small} 2 d_v c(r,v) + matching cost."""
    small = [v for v in inst.customers if not inst.exceeds(v, BIG_THRESHOLD)]
    return tour_cost + 1.5 * radial_mass(inst, small) + matching_cost
