"""Exact ground truth: optimal unsplittable CVRP by subset dynamic
programming over the demand-feasible customer sets, for instances of at
most ``ORACLE_CAP`` customers.  Each group of the optimal partition is
served by the tour it was priced by."""

from __future__ import annotations

from dataclasses import dataclass

from ucvrp.instance import Instance
from ucvrp.lp_round import feasible_masks
from ucvrp.solution import Solution
from ucvrp.tsp import Tour, optimal_tours

ORACLE_CAP = 14  # most customers the 2^n-state DP takes on


class InstanceTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    opt_cost: float
    tours: tuple[Tour, ...]  # one optimal tour per group of the partition

    def to_solution(self) -> Solution:
        assignment = {v: i for i, t in enumerate(self.tours) for v in t.customers}
        return Solution(self.tours, assignment)


def exact_cvrp(inst: Instance) -> OracleResult:
    """Optimal partition of the customers into demand-feasible groups,
    each priced by its optimal tour.

    best[S] = min over demand-feasible T subseteq S of cost(T) + best[S - T],
    where T is anchored at the lowest-indexed customer of S (any optimal
    partition has exactly one group containing it, so anchoring loses
    nothing and cuts the submask enumeration by a factor of |S|).  Only
    the demand-feasible sets are priced, so feasibility is a dict lookup.
    """
    n = inst.n
    if n > ORACLE_CAP:
        raise InstanceTooLarge(f"{n} customers exceeds oracle cap {ORACLE_CAP}")
    ground = list(inst.customers)
    masks = feasible_masks([inst.demand(v) for v in ground], inst.capacity)
    tours = optimal_tours(inst, ground, masks)
    tour_cost = {mask: t.cost for mask, t in tours.items()}

    full = (1 << n) - 1
    INF = float("inf")
    best = [0.0] + [INF] * full
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        # Enumerate submasks of `rest`, always adding the anchor `low`.
        sub = rest
        while True:
            t = sub | low
            cost = tour_cost.get(t)  # None: t is not demand-feasible
            if cost is not None:
                cand = cost + best[mask ^ t]
                if cand < best[mask]:
                    best[mask] = cand
                    choice[mask] = t
            if sub == 0:
                break
            sub = (sub - 1) & rest

    groups = []
    mask = full
    while mask:
        groups.append(tours[choice[mask]])
        mask ^= choice[mask]
    return OracleResult(best[full], tuple(groups))
