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
all of them are multiples of 1/(2kq): the line is scaled by 2kq once and
each offset is one sweep over exact integers; only the ``PartitionTrace``
holds ``Fraction``s.

``delta_itp_plus`` first serves every customer with normalized demand
above 1/2 by a trivial tour and runs ``delta_itp`` on the remainder over
the shortcut of the tour it is given, which never costs more.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, pairwise
from typing import Iterable, Sequence

from ucvrp.instance import HALF, Instance, radial_mass
from ucvrp.solution import Solution, merge, trivial_solution
from ucvrp.tsp import Tour, shortcut


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


def _segment_solution(
    inst: Instance,
    order: Sequence[int],
    segments: Sequence[Sequence[int]],
    disposition: dict[int, str],
    oversize: Sequence[int],
) -> Solution:
    """One tour per non-empty segment (positions in ``order``), then a
    trivial tour per trivial-tour position and per ``oversize`` customer."""
    tours: list[Tour] = []
    assignment: dict[int, int] = {}
    for seg in segments:
        if not seg:
            continue
        seq = (0, *(order[i] for i in sorted(seg)), 0)
        tours.append(Tour(seq, inst.route_cost(seq), "external"))
        for v in seq[1:-1]:
            assignment[v] = len(tours) - 1
    trivial = [order[i] for i, d in disposition.items() if d == "trivial-tour"]
    trivial_sol = trivial_solution(inst, trivial + list(oversize))
    return merge(Solution(tuple(tours), assignment), trivial_sol)


def _evaluate_offset(prefix, span, eta, unit):
    """Partition the line for one offset.  Position i occupies
    (prefix[i], prefix[i + 1]], cuts lie at eta + m*span and a vehicle
    holds ``unit``; ints and Fractions both work.

    Returns (cut positions, each segment's positions, disposition of each
    position).  A segment lists its in-segment positions first, then the
    straddlers it absorbed in cut order; dispositions follow the same
    order over all segments.
    """
    total = prefix[-1]
    cuts = []
    pos = eta or span
    while pos < total:
        cuts.append(pos)
        pos += span

    # Segment c runs from cuts[c - 1] to cuts[c].  Every width is at most
    # the spacing and above zero, so one walk over positions and cuts
    # finds each customer's segment, or the one cut strictly inside it.
    segments: list[list[int]] = [[] for _ in range(len(cuts) + 1)]
    loads = [0] * len(segments)
    straddlers = []
    c = 0
    for i in range(len(prefix) - 1):
        lo, hi = prefix[i], prefix[i + 1]
        while c < len(cuts) and cuts[c] <= lo:
            c += 1
        if c < len(cuts) and cuts[c] < hi:
            straddlers.append((c, i))
        else:
            segments[c].append(i)
            loads[c] += hi - lo

    disposition = dict.fromkeys(chain.from_iterable(segments), "in-segment")
    for c, i in straddlers:
        lo, hi = prefix[i], prefix[i + 1]
        fits_left = loads[c] + hi - lo <= unit
        fits_right = loads[c + 1] + hi - lo <= unit
        if fits_left and (not fits_right or cuts[c] - lo >= hi - cuts[c]):
            side = c
        elif fits_right:
            side = c + 1
        else:
            disposition[i] = "trivial-tour"
            continue
        segments[side].append(i)
        loads[side] += hi - lo
        disposition[i] = "absorbed-left" if side == c else "absorbed-right"
    return cuts, segments, disposition


def delta_itp(
    inst: Instance,
    subset: Iterable[int],
    tour: Tour,
    delta: Fraction,
) -> tuple[Solution, PartitionTrace]:
    """Derandomized threshold tour partition over ``subset``.

    The returned solution is feasible and its cost never exceeds
    ``itp_bound(..., "lemma3")``; with delta = 0 this is the classic
    partition with the "lemma1" guarantee.
    """
    delta = Fraction(delta)
    if not 0 <= delta < HALF:
        raise ValueError(f"delta must lie in [0, 1/2), got {delta}")
    subset = set(subset)
    if tour.customers != subset:
        raise ValueError("tour must visit exactly the requested subset")
    for v in subset:
        if inst.demand(v) > inst.capacity:
            raise DemandExceedsCapacity(v)
        if inst.demand(v) < 1:
            raise ValueError(f"customer {v} has demand {inst.demand(v)} below 1")

    # Scaled by unit = 2kq for delta = p/q, widths, the cut spacing and
    # every customer boundary and midpoint are exact integers.
    q = delta.denominator
    unit = 2 * inst.capacity * q
    span = 2 * inst.capacity * (q - delta.numerator)
    full_order = tour.vertices[1:-1]
    # Customers with d_v/k > 1 - delta, wider than the cut spacing, would
    # contain a cut regardless of the offset; trivial tours for them are
    # within the "lemma3" budget (their demand exceeds 1/2) and leave every
    # remaining demand at most the spacing.
    wide = 1 - delta
    oversize = [v for v in full_order if inst.exceeds(v, wide)]
    order = [v for v in full_order if not inst.exceeds(v, wide)]

    # Each residue prices the piece it starts: a cut at a midpoint sends the
    # straddler left, and a customer starting at a cut lies whole to its right.
    prefix = list(accumulate((2 * q * inst.demand(v) for v in order), initial=0))
    mids = ((a + b) // 2 for a, b in pairwise(prefix))
    candidates = {x % span for x in chain(prefix, mids)}

    # A segment is a run of consecutive positions.  Its tour cost, and the
    # candidate's total, add the same floats in the same order as
    # route_cost and Solution.cost over _segment_solution's tours.
    out = [inst.cost(0, v) for v in order]
    back = [inst.cost(v, 0) for v in order]
    step = [inst.cost(a, b) for a, b in pairwise(order)]
    oversize_costs = [2.0 * inst.depot_cost(v) for v in oversize]

    best = None
    candidate_costs: list[tuple[int, float]] = []
    for eta in sorted(candidates):
        cuts, segments, disposition = _evaluate_offset(prefix, span, eta, unit)
        costs = []
        for seg in segments:
            if seg:
                a, b = min(seg), max(seg)
                costs.append(sum(step[a:b], out[a]) + back[b])
        costs += [2.0 * out[i] for i, d in disposition.items() if d == "trivial-tour"]
        cost = sum(costs + oversize_costs)
        candidate_costs.append((eta, cost))
        if best is None or cost < best[1] - 1e-12:
            best = (eta, cost, cuts, segments, disposition)

    eta, _, cuts, segments, disposition = best
    dispositions = {order[i]: d for i, d in disposition.items()}
    dispositions.update(dict.fromkeys(oversize, "trivial-tour"))
    trace = PartitionTrace(
        offset=Fraction(eta, unit),
        breakpoints=tuple(Fraction(c, unit) for c in cuts),
        dispositions=dispositions,
        segments=tuple(tuple(order[i] for i in s) for s in segments if s),
        candidate_costs=tuple((Fraction(e, unit), c) for e, c in candidate_costs),
    )
    return _segment_solution(inst, order, segments, disposition, oversize), trace


def delta_itp_plus(
    inst: Instance,
    subset: Iterable[int],
    tour: Tour,
    delta: Fraction,
) -> Solution:
    """Trivial tours for every customer with normalized demand above 1/2,
    ``delta_itp`` over the shortcut of ``tour`` for the rest.  ``tour``
    must visit every non-large customer of ``subset``; it may visit more.
    A customer whose demand exceeds the capacity raises
    ``DemandExceedsCapacity``, as in ``delta_itp``."""
    subset = set(subset)
    large = sorted(v for v in subset if inst.exceeds(v, HALF))
    for v in large:
        if inst.demand(v) > inst.capacity:
            raise DemandExceedsCapacity(v)
    rest = subset.difference(large)
    sol = trivial_solution(inst, large)
    if rest:
        sub_tour = shortcut(inst, tour.vertices, rest)
        sol = merge(sol, delta_itp(inst, rest, sub_tour, delta)[0])
    return sol


def itp_bound(
    inst: Instance,
    subset: Iterable[int],
    tour_cost: float,
    delta: Fraction,
    variant: str,
) -> float:
    delta = Fraction(delta)
    if not 0 <= delta < HALF:
        raise ValueError(f"delta must lie in [0, 1/2), got {delta}")
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
