"""Exact and 2-approximate TSP tours on customer subsets, plus
shortcutting of closed walks.

One Held-Karp subset dynamic program tours any downward-closed family
of customer sets, such as every subset for an exact tour or only the
demand-feasible sets of a tour catalog, and one reconstruction reads
each optimal tour off its table; sets are capped at ``HELDKARP_CAP`` =
18 customers.  The approximate solver
doubles a minimum spanning tree and shortcuts the resulting Euler walk,
guaranteeing cost at most twice the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

import numpy as np

from ucvrp.instance import Instance

COST_TOL = 1e-9
INF = float("inf")
HELDKARP_CAP = 18  # customers in the largest set the subset DP prices


class SubsetTooLarge(ValueError):
    pass


class NotACustomer(ValueError):
    def __init__(self, v: int, n: int):
        self.vertex = v
        super().__init__(f"vertex {v} is not a customer: customers are 1..{n}")


class KeepNotVisited(ValueError):
    def __init__(self, v: int):
        self.customer = v
        super().__init__(f"vertex {v} requested but not visited by the walk")


@dataclass(frozen=True)
class Tour:
    """A depot-rooted cycle: vertices[0] == vertices[-1] == 0."""

    vertices: tuple[int, ...]
    cost: float
    quality_tag: str  # exact | two_approx | external

    @property
    def customers(self) -> frozenset[int]:
        return frozenset(self.vertices[1:-1])

    def recompute_cost(self, inst: Instance) -> float:
        return inst.route_cost(self.vertices)


def empty_tour(tag: str = "exact") -> Tour:
    return Tour((0, 0), 0.0, tag)


def exact_tsp(inst: Instance, subset: Iterable[int]) -> Tour:
    """Minimum-cost tour through the depot and every vertex of ``subset``.

    Ties are broken toward the lexicographically smallest vertex sequence
    (comparing the tour against its reversal as well) so results are
    reproducible across runs.
    """
    subset = _customers(inst, subset)
    if not subset:
        return empty_tour()
    if len(subset) > HELDKARP_CAP:
        raise SubsetTooLarge(f"{len(subset)} customers exceeds cap {HELDKARP_CAP}")
    if len(subset) == 1:
        v = subset[0]
        return Tour((0, v, 0), 2.0 * inst.depot_cost(v), "exact")

    into = _costs_into(inst, subset)
    full = (1 << len(subset)) - 1
    return _optimal_tour(into, _held_karp(into, range(1, full + 1)), subset, full)


def approx_tsp(inst: Instance, subset: Iterable[int]) -> Tour:
    """MST-doubling tour: cost at most twice the optimal tour cost."""
    subset = _customers(inst, subset)
    if not subset:
        return empty_tour("two_approx")
    nodes = [0, *subset]
    sub = inst.metric[np.ix_(nodes, nodes)]
    # Prim from the depot over positions in ``nodes``, which is sorted, so
    # argmin's first-index rule breaks ties by vertex index.  best[i] is the
    # cheapest edge from the tree to i, parent[i] its tree end; an edge
    # replaces it only when strictly cheaper.
    best = sub[0].copy()
    parent = np.zeros(len(nodes), dtype=np.intp)
    done = np.zeros(len(nodes), dtype=bool)
    done[0] = True
    children: list[list[int]] = [[] for _ in nodes]
    for _ in subset:
        i = int(np.argmin(np.where(done, INF, best)))
        if done[i]:  # only infinite edges are left: take the lowest index
            i = int(np.argmin(done))
        children[parent[i]].append(i)
        done[i] = True
        row = sub[i]
        closer = row < best
        best[closer] = row[closer]
        parent[closer] = i
    # Preorder walk of the tree == shortcut of the doubled Euler tour.
    order = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.append(nodes[i])
        stack.extend(sorted(children[i], reverse=True))
    seq = tuple(order) + (0,)
    return Tour(seq, inst.route_cost(seq), "two_approx")


def _customers(inst: Instance, subset: Iterable[int]) -> list[int]:
    """``subset`` as a sorted list of distinct customers; raises
    ``NotACustomer`` for the depot or a vertex beyond n."""
    subset = sorted(set(subset))
    if subset and subset[0] < 1:
        raise NotACustomer(subset[0], inst.n)
    if subset and subset[-1] > inst.n:
        raise NotACustomer(subset[-1], inst.n)
    return subset


def shortcut(inst: Instance, walk: Sequence[int], keep: Iterable[int]) -> Tour:
    """Shortcut a closed depot-rooted walk down to ``keep``.

    The kept customers are visited in order of first appearance; by the
    triangle inequality the cost never exceeds the walk's cost.
    """
    if walk[0] != 0 or walk[-1] != 0:
        raise ValueError("walk must start and end at the depot")
    visited = set(walk)
    keep = set(keep)
    for v in keep:
        if v not in visited and v != 0:
            raise KeepNotVisited(v)
    seq = [0]
    seen = set()
    for v in walk:
        if v in keep and v not in seen:
            seen.add(v)
            seq.append(v)
    seq.append(0)
    if len(seq) == 2:
        return empty_tour("external")
    return Tour(tuple(seq), inst.route_cost(seq), "external")


def optimal_tours(
    inst: Instance, ground: Sequence[int], masks: Sequence[int]
) -> dict[int, Tour]:
    """Optimal tour of every set in ``masks``, where ``mask`` stands for
    {ground[i] : bit i of mask set}.  ``masks`` must be downward closed
    and increasing, like the demand-feasible sets of a catalog.  With
    ``ground`` sorted, each tour is ``exact_tsp``'s, except that a
    singleton costs c(r,v) + c(v,r) where ``exact_tsp`` takes 2 c(r,v)."""
    largest = max(map(int.bit_count, masks), default=0)
    if largest > HELDKARP_CAP:
        raise SubsetTooLarge(f"{largest} customers exceeds cap {HELDKARP_CAP}")
    into = _costs_into(inst, ground)
    paths = _held_karp(into, masks)
    return {mask: _optimal_tour(into, paths, ground, mask) for mask in paths}


def tour_costs_all_subsets(inst: Instance, ground: Sequence[int]) -> list[float]:
    """Optimal tour cost for every subset of ``ground``; entry ``mask``
    prices {ground[i] : bit i of mask set}."""
    tours = optimal_tours(inst, ground, range(1, 1 << len(ground)))
    return [0.0, *(t.cost for t in tours.values())]


def _costs_into(inst: Instance, ground: Sequence[int]) -> list[list[float]]:
    """into[j][i] = c(x_i, x_j) over x = (depot, *ground), as Python lists:
    indexing numpy scalars would dominate the DP."""
    idx = [0, *ground]
    return inst.metric[np.ix_(idx, idx)].T.tolist()


def _held_karp(into: list[list[float]], masks: Iterable[int]) -> dict[int, list[float]]:
    """The Held-Karp subset DP over a downward-closed family of masks of
    the ground set of ``into`` (bit i is vertex i + 1), in increasing order.

    paths[mask][j] is the cheapest depot-rooted path that visits exactly
    the members of ``mask`` and ends at vertex j.  It is inf for the depot
    and for non-members, so a min over a whole row only picks members.
    """
    paths: dict[int, list[float]] = {}
    for mask in masks:
        row = [INF] * len(into)
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length()
            prev = mask ^ low
            row[j] = min(map(add, paths[prev], into[j])) if prev else into[j][0]
        paths[mask] = row
    return paths


def _optimal_tour(into, paths, ground: Sequence[int], mask: int) -> Tour:
    """The optimal tour of ``mask`` from a ``_held_karp`` table holding its
    subsets.  Greedy front-to-back reconstruction, scanning members in
    ascending position, yields the lexicographically smallest sequence."""
    best = min(map(add, paths[mask], into[0]))
    seq = [0]
    last, target = 0, best
    while mask:
        scan = mask
        while scan:
            low = scan & -scan
            scan ^= low
            j = low.bit_length()
            rest = mask ^ low
            # Cheapest path j -> (all of rest) -> depot.  By symmetry of c
            # this is the reversal of a depot-rooted path ending in rest.
            finish = min(map(add, paths[rest], into[j])) if rest else into[0][j]
            step = into[j][last]
            if step + finish <= target + COST_TOL:
                seq.append(ground[j - 1])
                target -= step
                last = j
                mask = rest
                break
        else:
            raise AssertionError("tour reconstruction failed")
    seq.append(0)
    return Tour(tuple(seq), best, "exact")
