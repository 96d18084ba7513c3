"""Exact ground truth: optimal unsplittable CVRP by subset dynamic
programming, and empirical ratio measurement against it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ucvrp.instance import Instance
from ucvrp.lp_round import feasible_masks
from ucvrp.solution import Solution
from ucvrp.tsp import Tour, tour_costs

DEFAULT_ORACLE_CAP = 14


class InstanceTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    opt_cost: float
    partition: tuple[frozenset[int], ...]
    group_costs: tuple[float, ...]

    def to_solution(self, inst: Instance) -> Solution:
        from ucvrp.tsp import exact_tsp

        tours = tuple(exact_tsp(inst, g) for g in self.partition)
        assignment = {v: i for i, g in enumerate(self.partition) for v in g}
        return Solution(tours, assignment)


def exact_cvrp(inst: Instance, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Optimal partition of the customers into demand-feasible groups,
    each priced by its optimal tour.

    best[S] = min over demand-feasible T subseteq S of cost(T) + best[S - T],
    where T is anchored at the lowest-indexed customer of S (any optimal
    partition has exactly one group containing it, so anchoring loses
    nothing and cuts the submask enumeration by a factor of |S|).  Only
    the demand-feasible sets are priced, so feasibility is a dict lookup.
    """
    n = inst.n
    if n > cap:
        raise InstanceTooLarge(f"{n} customers exceeds oracle cap {cap}")
    ground = list(inst.customers)
    masks = feasible_masks([inst.demand(v) for v in ground], inst.capacity)
    tour_cost = tour_costs(inst, ground, masks)

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

    partition = []
    group_costs = []
    mask = full
    while mask:
        t = choice[mask]
        partition.append(frozenset(ground[i] for i in range(n) if (t >> i) & 1))
        group_costs.append(tour_cost[t])
        mask ^= t
    return OracleResult(best[full], tuple(partition), tuple(group_costs))


@dataclass(frozen=True)
class RatioStats:
    opt: float
    ratios: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.ratios) / len(self.ratios)

    @property
    def min(self) -> float:
        return min(self.ratios)

    @property
    def max(self) -> float:
        return max(self.ratios)


def empirical_ratio(
    inst: Instance,
    run: Callable[[Instance, int], Solution],
    seeds: Sequence[int],
) -> RatioStats:
    """cost/OPT statistics of ``run(inst, seed)`` over the seed list."""
    opt = exact_cvrp(inst).opt_cost
    ratios = tuple(run(inst, seed).cost / opt for seed in seeds)
    return RatioStats(opt, ratios)
