"""Exact and 2-approximate TSP tours on customer subsets, plus
shortcutting of closed walks.

One Held-Karp subset dynamic program tours any downward-closed family
of customer sets, such as every subset for an exact tour or only the
demand-feasible sets of a tour catalog, and one reconstruction reads
each optimal tour off its table; sets are capped at ``HELDKARP_CAP`` =
18 customers.  The DP is numpy, by popcount layers, and forms the same
sums and mins as the scalar recurrence, so its tours and costs match
it bit for bit.  Its table is column-major, one row per end vertex and
one column per set, so each step reduces across rows over long
contiguous arrays.  The steps of the full family of s customers, which
an exact tour fills, are built once per s and kept: s 2^(s-1) int64
predecessor columns, 0.43 MB at s = 13 and 19 MB at the cap.  The
table takes 2^s (s+1) 8 bytes for all subsets of s customers, about
40 MB at the cap.  A set's column does not depend on the family it is
priced in, so ``exact_tsp_and_tours`` reads an exact depot tour and a
whole catalog off one table.  The approximate solver doubles a minimum
spanning tree and shortcuts the resulting Euler walk, guaranteeing cost
at most twice the optimum."""

from __future__ import annotations

import functools
from dataclasses import dataclass
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

    sub = _submetric(inst, subset)
    masks = np.arange(1, 1 << len(subset), dtype=np.int64)
    [tour] = _optimal_tours(sub, masks, _held_karp(sub, masks), subset, masks[-1:])
    return tour


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
    and increasing, like the demand-feasible sets of a catalog, and name
    non-empty sets of ``ground``; any other family raises ``ValueError``.
    With
    ``ground`` sorted, each tour is ``exact_tsp``'s, except that a
    singleton costs c(r,v) + c(v,r) where ``exact_tsp`` takes 2 c(r,v)."""
    masks = list(masks)
    largest = max(map(int.bit_count, masks), default=0)
    if largest > HELDKARP_CAP:
        raise SubsetTooLarge(f"{largest} customers exceeds cap {HELDKARP_CAP}")
    sub = _submetric(inst, ground)
    family = np.array(masks, dtype=np.int64)
    tours = _optimal_tours(sub, family, _held_karp(sub, family), ground, family)
    return dict(zip(masks, tours))


def exact_tsp_and_tours(
    inst: Instance, ground: Sequence[int], masks: Sequence[int]
) -> tuple[Tour, list[Tour]]:
    """``exact_tsp(inst, inst.customers)`` and the tour of every set in
    ``masks``, which name sets of ``ground`` as in ``optimal_tours``, all
    read off one Held-Karp table over every subset of the customers.
    Needs 2 <= n <= ``HELDKARP_CAP`` and ``ground`` increasing customers;
    each tour is then the one ``optimal_tours`` gives, bit for bit.  A
    mask that names no non-empty set of ``ground`` raises ``ValueError``."""
    customers = list(inst.customers)
    if len(customers) < 2:
        raise ValueError("an exact tour over fewer than 2 customers needs no table")
    if len(customers) > HELDKARP_CAP:
        raise SubsetTooLarge(f"{len(customers)} customers exceeds cap {HELDKARP_CAP}")
    if list(ground) != _customers(inst, ground):
        raise ValueError("ground must be increasing customers")
    family = np.array(masks, dtype=np.int64)
    _check_sets(family, len(ground))
    # Bit deposit: bit i of a mask moves to the bit of customer ground[i].
    wanted = _bits(family, len(ground)) @ (1 << (np.array(ground, dtype=np.int64) - 1))
    full = np.arange(1, 1 << len(customers), dtype=np.int64)
    sub = _submetric(inst, customers)
    table = _held_karp(sub, full)
    *tours, tour = _optimal_tours(sub, full, table, customers, np.append(wanted, full[-1]))
    return tour, tours


def tour_costs_all_subsets(inst: Instance, ground: Sequence[int]) -> list[float]:
    """Optimal tour cost for every subset of ``ground``; entry ``mask``
    prices {ground[i] : bit i of mask set}.  No solve calls it: it is
    kept only because the benchmark's tracer names it."""
    tours = optimal_tours(inst, ground, range(1, 1 << len(ground)))
    return [0.0, *(t.cost for t in tours.values())]


def _submetric(inst: Instance, ground: Sequence[int]) -> np.ndarray:
    """sub[i, j] = c(x_i, x_j) over x = (depot, *ground)."""
    idx = [0, *ground]
    return inst.metric[np.ix_(idx, idx)]


def _bits(masks: np.ndarray, s: int) -> np.ndarray:
    """bits[r, i] is bit i of masks[r]."""
    as_bytes = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=s, bitorder="little").view(bool)


def _held_karp(sub: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The Held-Karp subset DP over a downward-closed family of masks of
    the ground set of ``sub`` (bit i is vertex i + 1), in increasing order.

    The table is column-major: table[j, r] is the cheapest depot-rooted
    path that visits exactly the members of masks[r] and ends at vertex
    j.  It is inf for the depot and for non-members, so a min down a
    whole column only picks members.  Columns are filled layer by layer
    in popcount, one member bit b at a time, as whole rows: gather the
    predecessor columns (masks[r] minus bit b), add c(x_i, x_{b+1}) to
    row i >= 1, and reduce across rows into row b + 1.  These are the
    scalar DP's sums and mins, so the table matches it bit for bit.  The
    steps of the full family 1..2^s - 1, as for an exact tour, are built
    once per s (``_full_schedule``); other families build theirs per
    call (``_steps``).  The table takes len(masks) * (s+1) * 8 bytes,
    about 40 MB for every subset of 18 customers.
    """
    s = len(sub) - 1
    if (masks[1:] <= masks[:-1]).any():
        raise ValueError("Held-Karp masks must be increasing")
    _check_sets(masks, s)
    table = np.full((s + 1, len(masks)), INF)
    ones = np.flatnonzero((masks & (masks - 1)) == 0)
    first = _bits(masks[ones], s) @ np.arange(1, s + 1)  # row b + 1 of set 1 << b
    table[first, ones] = sub[0, first]
    if len(masks) == (1 << s) - 1:  # increasing and in range: every subset
        steps = ((b, prev, prev + (1 << b)) for b, prev in _full_schedule(s))
    else:
        steps = _steps(masks, s)
    ends = table[1:]  # a path over a non-empty set never ends at the depot
    for b, prev, cols in steps:
        paths = ends.take(prev, axis=1)
        paths += sub[1:, b + 1, None]
        table[b + 1, cols] = np.minimum.reduce(paths, axis=0)
    return table


def _check_sets(masks: np.ndarray, s: int) -> None:
    """``ValueError`` unless every mask names a non-empty set of an
    s-member ground."""
    if len(masks) and (masks.min() < 1 or masks.max() >> s):
        raise ValueError(f"Held-Karp masks must be downward closed, over non-empty "
                         f"sets of the {s}-member ground")


def _steps(masks: np.ndarray, s: int):
    """The DP's steps above the singletons, in order: (b, predecessor
    columns, columns) of the sets of each popcount layer that hold bit
    b.  In a prefix family 1..M mask m sits in column m - 1, and every
    subset of m precedes it; any other family finds predecessors by
    binary search and raises ``ValueError`` at one that is missing."""
    prefix = len(masks) and masks[-1] == len(masks)  # increasing from 1: 1..M
    bits = _bits(masks, s)
    layers = bits.sum(axis=1)
    for size in range(2, int(layers.max(initial=0)) + 1):
        layer = np.flatnonzero(layers == size)
        members = bits[layer]
        for b in range(s):
            cols = layer[members[:, b]]
            if not cols.size:
                continue
            if prefix:
                yield b, cols - (1 << b), cols
                continue
            prev = masks[cols] ^ (1 << b)
            prev_cols = masks.searchsorted(prev)
            if (masks[prev_cols] != prev).any():
                raise ValueError("Held-Karp masks must be downward closed")
            yield b, prev_cols, cols


@functools.cache
def _full_schedule(s: int) -> tuple[tuple[int, np.ndarray], ...]:
    """``_steps`` of the full family 1..2^s - 1, kept read-only for reuse:
    (b, predecessor columns) per step, the columns being these plus
    1 << b.  It holds s 2^(s-1) - s int64 indices, 8 bytes each: 0.43 MB
    at s = 13, 19 MB at the cap.  The DP never tours more than the cap,
    so at most one schedule per s <= 18 is kept, ~38 MB were each used."""
    schedule = tuple((b, prev) for b, prev, _ in _steps(np.arange(1, 1 << s), s))
    for _, prev in schedule:
        prev.flags.writeable = False
    return schedule


def _optimal_tours(sub, masks, table, ground: Sequence[int], wanted) -> list[Tour]:
    """The optimal tour of each mask in ``wanted`` from a ``_held_karp``
    table over ``masks``, which holds their subsets.  Greedy front-to-back
    reconstruction, all tours at once: each step takes the first member,
    in ascending position, from which an optimal finish is left.  This
    yields the lexicographically smallest sequence."""
    s = len(sub) - 1
    best = np.minimum.reduce(table[:, masks.searchsorted(wanted)] + sub[:, :1], axis=0)
    size = _bits(wanted, s).sum(axis=1)
    seq = np.zeros((len(wanted), int(size.max(initial=0))), dtype=np.intp)
    cur = wanted.copy()
    last = np.zeros(len(wanted), dtype=np.intp)
    target = best.copy()
    for step in range(seq.shape[1]):
        live = np.flatnonzero(cur)
        left = cur[live]
        # Cheapest path j -> (all of left minus j) -> depot.  By symmetry
        # of c this is the reversal of the depot-rooted path table holds
        # for left, ending at j; with nothing else left it is c(x_j, x_0).
        finish = table[:, masks.searchsorted(left)]
        finish[:, (left & (left - 1)) == 0] = sub[:, :1]
        at = last[live]
        cost = sub[at].T + finish
        ok = _bits(left, s).T & (cost[1:] <= target[live] + COST_TOL)
        if not ok.any(axis=0).all():
            raise AssertionError("tour reconstruction failed")
        j = ok.argmax(axis=0) + 1
        target[live] -= sub[at, j]
        last[live] = j
        cur[live] = left ^ (1 << (j - 1))
        seq[live, step] = j
    vertex = np.array([0, *ground])[seq].tolist()
    return [
        Tour((0, *vertex[t][:n], 0), c, "exact")
        for t, (n, c) in enumerate(zip(size.tolist(), best.tolist()))
    ]
