"""Tour-partition heuristics.

Given a depot-rooted tour and a demand threshold delta, ``delta_itp``
lays the customers' normalized demands end to end on a line in tour
order, cuts the line at offset eta + m*(1 - delta), and turns each
resulting segment into one tour.  A customer straddling a cut is either
absorbed whole into an adjacent segment (when the resulting load still
fits the vehicle) or served by a trivial tour.  The offset is
derandomized: the cost changes only where a cut meets a customer's
boundary or midpoint, so pricing their residues modulo the cut spacing
finds the cheapest offset over all of [0, 1 - delta).  For delta = p/q
all of them are multiples of 1/(2kq), so the line is scaled by 2kq once
and every demand test is an integer comparison.  An offset is priced by
its cuts, not by its customers: a binary search on the prefix sums
finds the one customer each cut can straddle, a segment is a run of
consecutive customers whose load is a prefix difference, and each run's
tour cost is summed once per call.  Only ``delta_itp`` builds the
``PartitionTrace`` witness, whose offsets and cuts are ``Fraction``s.

``delta_itp_plus`` first serves every customer with normalized demand
above 1/2 by a trivial tour and partitions the remainder as ``delta_itp``
does, in the order of their first visits by the tour it is given (its
shortcut, which never costs more, is never priced); it builds no trace.

``itp_bound`` evaluates the closed-form cost guarantees the two
procedures are tested against:

  variant "lemma1" (delta = 0):
      c(tour) + sum_v 4 d_v c(r,v)
  variant "lemma3":
      c(tour) + 1/(1-delta) * sum_small 2 d_v c(r,v)
              + 2/(1-delta) * sum_nonsmall 2 d_v c(r,v)
              - delta/(1-delta) * sum_nonsmall 2 c(r,v)
  variant "lemma4" (trivial tours for demand > 1/2):
      as "lemma3" with the demand > 1/2 terms replaced by sum 2 c(r,v)

with demands normalized by the capacity and small/non-small decided
relative to delta inside the served subset.  Like ``delta_itp``, it takes
delta in [0, 1/2) only.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, pairwise
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from ucvrp.instance import HALF, Instance, radial_mass
from ucvrp.solution import Solution, merge, trivial_solution
from ucvrp.tsp import KeepNotVisited, Tour


class DemandExceedsCapacity(ValueError):
    def __init__(self, v: int):
        self.customer = v
        super().__init__(f"customer {v} has normalized demand above 1")


@dataclass(frozen=True)
class PartitionTrace:
    """Witness of one derandomized partition run (the winning offset)."""

    offset: Fraction
    breakpoints: tuple[Fraction, ...]
    dispositions: dict[int, str]  # in-segment | absorbed-left | absorbed-right | trivial-tour
    segments: tuple[tuple[int, ...], ...]
    candidate_costs: tuple[tuple[Fraction, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "offset": str(self.offset),
            "breakpoints": [str(b) for b in self.breakpoints],
            "dispositions": {str(v): d for v, d in self.dispositions.items()},
            "segments": [list(s) for s in self.segments],
            "candidate_costs": [[str(e), c] for e, c in self.candidate_costs],
        }


def _trace(order, oversize, unit, offset, cuts, first, last, sides, candidate_costs):
    """The ``PartitionTrace`` of the winner ``_partition`` found: its offset
    and cuts, each segment's first and last position in ``order`` (first >
    last when empty) and each straddler's (cut, position, disposition)."""
    # An absorbed straddler sits at an end of its segment's run.  A segment
    # lists its in-segment positions, then the straddlers it absorbed in
    # cut order: the one from its left cut comes first.
    straddled = {j for _, j, _ in sides}
    absorbed: list[list[int]] = [[] for _ in first]
    for c, j, side in sides:
        if side != "trivial-tour":
            absorbed[c + (side == "absorbed-right")].append(j)
    runs = [[i for i in range(a, b + 1) if i not in straddled] + extra
            for a, b, extra in zip(first, last, absorbed)]
    dispositions = {v: "in-segment" for i, v in enumerate(order) if i not in straddled}
    dispositions.update((order[j], side) for _, j, side in sides)
    dispositions.update(dict.fromkeys(oversize, "trivial-tour"))
    return PartitionTrace(
        offset=Fraction(offset, unit),
        breakpoints=tuple(Fraction(t, unit) for t in cuts),
        dispositions=dispositions,
        segments=tuple(tuple(order[i] for i in run) for run in runs if run),
        candidate_costs=tuple((Fraction(e, unit), c) for e, c in candidate_costs),
    )


def check_delta(delta: Fraction) -> Fraction:
    """``delta`` as a ``Fraction``, if it lies in [0, 1/2), the thresholds
    the partition and its bounds take."""
    delta = Fraction(delta)
    if not 0 <= 2 * delta.numerator < delta.denominator:
        raise ValueError(f"delta must lie in [0, 1/2), got {delta}")
    return delta


def _partition(
    inst: Instance, full_order: Sequence[int], delta: Fraction
) -> tuple[Solution, Callable[[], PartitionTrace]]:
    """The cheapest offset's solution over ``full_order``, and its trace thunk."""
    delta = check_delta(delta)
    p, q = delta.numerator, delta.denominator
    k, demands = inst.capacity, inst.demands
    for v in full_order:
        if demands[v - 1] > k:
            raise DemandExceedsCapacity(v)
        if demands[v - 1] < 1:
            raise ValueError(f"customer {v} has demand {demands[v - 1]} below 1")

    # Scaled by unit = 2kq for delta = p/q, widths, the cut spacing and
    # every customer boundary and midpoint are exact integers.
    unit = 2 * k * q
    span = 2 * k * (q - p)
    # Customers with d_v/k > 1 - delta (d_v q > (q - p) k), wider than the
    # cut spacing, would contain a cut regardless of the offset; trivial
    # tours for them are within the "lemma3" budget (their demand exceeds
    # 1/2) and leave every remaining width at most the spacing, so each
    # cut lies strictly inside at most one customer and no customer
    # contains two cuts.
    wide = (q - p) * k
    oversize = [v for v in full_order if demands[v - 1] * q > wide]
    order = [v for v in full_order if demands[v - 1] * q <= wide]
    n = len(order)

    # Each residue prices the piece it starts: a cut at a midpoint sends the
    # straddler left, and a customer starting at a cut lies whole to its right.
    prefix = list(accumulate((2 * q * demands[v - 1] for v in order), initial=0))
    total = prefix[-1]
    mids = ((a + b) // 2 for a, b in pairwise(prefix))
    candidates = {x % span for x in chain(prefix, mids)}

    # A segment is a run of consecutive positions [a, b].  Its tour cost,
    # and the candidate's total, add the same floats in the same order as
    # route_cost over the segment's tour and Solution.cost over the tours,
    # bit for bit: both add left to right by reduce, as sum() does not on
    # Python 3.12, which compensates when it adds floats.
    m, at = inst.metric, np.array(order, dtype=np.intp)
    out = m[0, at].tolist()
    back = m[at, 0].tolist()
    step = m[at[:-1], at[1:]].tolist()
    oversize_costs = [2.0 * inst.depot_cost(v) for v in oversize]
    seg_cost: dict[tuple[int, int], float] = {}

    best = None
    candidate_costs: list[tuple[int, float]] = []
    for eta in sorted(candidates):
        # Position i occupies (prefix[i], prefix[i + 1]].  The cut at t lies
        # strictly inside position j = bisect_right(prefix, t) - 1 unless j
        # starts at t; segment c runs from first[c] to last[c].
        cuts = range(eta or span, total, span)
        first, last, straddlers = [0], [], []
        j = 0
        for c, t in enumerate(cuts):
            j = bisect_right(prefix, t, j) - 1
            last.append(j - 1)
            if prefix[j] == t:
                first.append(j)
            else:
                first.append(j + 1)
                straddlers.append((c, j))
        last.append(n - 1)

        # Absorb each straddler whole into the side holding more of it
        # (left on a tie) when it fits there, else into the other side,
        # else give it a trivial tour, in cut order.  Absorbing keeps each
        # segment one run, so the load it would reach is a prefix difference.
        sides = []
        trivial = []
        for c, j in straddlers:
            lo, hi = prefix[j], prefix[j + 1]
            t = cuts[c]
            fits_left = hi - prefix[first[c]] <= unit
            fits_right = prefix[last[c + 1] + 1] - lo <= unit
            if fits_left and (not fits_right or t - lo >= hi - t):
                last[c] = j
                sides.append((c, j, "absorbed-left"))
            elif fits_right:
                first[c + 1] = j
                sides.append((c, j, "absorbed-right"))
            else:
                trivial.append(j)
                sides.append((c, j, "trivial-tour"))
        costs = []
        for a, b in zip(first, last):
            if a <= b:
                cost = seg_cost.get((a, b))
                if cost is None:
                    cost = seg_cost[a, b] = reduce(add, step[a:b], out[a]) + back[b]
                costs.append(cost)
        costs += [2.0 * out[j] for j in trivial]
        cost = reduce(add, costs + oversize_costs, 0)
        candidate_costs.append((eta, cost))
        if best is None or cost < best[0] - 1e-12:
            best = (cost, eta, cuts, first, last, sides)

    # The winner's tours: one per non-empty segment, costed by the segment
    # memo, then a trivial tour per trivial-tour straddler and per
    # oversize customer.
    _, eta, cuts, first, last, sides = best
    tours: list[Tour] = []
    for a, b in zip(first, last):
        if a <= b:
            tours.append(Tour((0, *order[a:b + 1], 0), seg_cost[a, b], "external"))
    solo = [order[j] for _, j, side in sides if side == "trivial-tour"] + oversize
    tours += [Tour((0, v, 0), 2.0 * inst.depot_cost(v), "external") for v in solo]
    assignment = {v: i for i, t in enumerate(tours) for v in t.vertices[1:-1]}
    trace = partial(_trace, order, oversize, unit, eta, cuts, first, last, sides, candidate_costs)
    return Solution(tuple(tours), assignment), trace


def delta_itp(
    inst: Instance,
    subset: Iterable[int],
    tour: Tour,
    delta: Fraction,
) -> tuple[Solution, PartitionTrace]:
    """Derandomized threshold tour partition over ``subset``.

    The returned solution is feasible and its cost never exceeds
    ``itp_bound(..., "lemma3")``; with delta = 0 this is the classic
    partition with the "lemma1" guarantee.  ``tour`` must visit each
    customer of ``subset`` exactly once; ``delta_itp_plus`` shortcuts a
    walk that repeats one.
    """
    subset = set(subset)
    if tour.customers != subset or len(tour.vertices) - 2 != len(subset):
        raise ValueError("tour must visit each customer of the subset exactly once")
    sol, trace = _partition(inst, tour.vertices[1:-1], delta)
    return sol, trace()


def delta_itp_plus(
    inst: Instance,
    subset: Iterable[int],
    tour: Tour,
    delta: Fraction,
) -> Solution:
    """Trivial tours for every customer with normalized demand above 1/2,
    the threshold partition over the shortcut of ``tour`` for the rest.
    ``tour`` must visit every non-large customer of ``subset``; it may
    visit more.  A customer whose demand exceeds the capacity raises
    ``DemandExceedsCapacity``, as in ``delta_itp``.  No trace is built."""
    subset = set(subset)
    k = inst.capacity
    large = sorted(v for v in subset if 2 * inst.demand(v) > k)
    for v in large:
        if inst.demand(v) > k:
            raise DemandExceedsCapacity(v)
    rest = subset.difference(large)
    sol = trivial_solution(inst, large)
    if rest:
        # The shortcut's visiting order: each kept customer at its first visit.
        order = list(dict.fromkeys(v for v in tour.vertices if v in rest))
        if len(order) < len(rest):
            raise KeepNotVisited(min(rest.difference(order)))
        sol = merge(sol, _partition(inst, order, delta)[0])
    return sol


def itp_bound(
    inst: Instance,
    subset: Iterable[int],
    tour_cost: float,
    delta: Fraction,
    variant: str,
) -> float:
    delta = check_delta(delta)
    subset = set(subset)
    scale = 1.0 / (1.0 - float(delta))
    total = tour_cost
    if variant == "lemma1":
        return tour_cost + 2.0 * radial_mass(inst, subset)
    if variant not in ("lemma3", "lemma4"):
        raise ValueError(f"unknown bound variant {variant!r}")
    for v in subset:
        d = inst.demand(v) / inst.capacity
        c = inst.depot_cost(v)
        if not inst.exceeds(v, delta):
            total += scale * 2.0 * d * c
        elif variant == "lemma4" and inst.exceeds(v, HALF):
            total += 2.0 * c
        else:
            total += scale * (2.0 * d - float(delta)) * 2.0 * c
    return total
