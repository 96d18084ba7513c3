"""Reference implementations the tests compare the package against.

Each is slow or exhaustive on purpose: an exact normalized demand and
the small / big / large split, a vectorized replay of the randomized
rounding, an exhaustive pair/solo cover, networkx's blossom matching of
the big customers, a pure-Python MST-doubling tour, a pure-Python
Held-Karp DP, the threshold partition by a walk over every customer for
each offset, a sign-change count on a fine grid, and ``sum`` as Python
3.12 adds floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, pairwise
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from ucvrp.big_matching import BIG_THRESHOLD
from ucvrp.instance import HALF, Instance
from ucvrp.itp import PartitionTrace
from ucvrp.lp_round import LpSolution, TourCatalog
from ucvrp.solution import Solution, merge, trivial_solution
from ucvrp.tsp import COST_TOL, INF, Tour, empty_tour

SIGN_SCAN_POINTS = 10_000


def norm_demand(inst: Instance, v: int) -> Fraction:
    """Demand of customer v scaled to a unit-capacity vehicle."""
    return Fraction(inst.demand(v), inst.capacity)


@dataclass(frozen=True)
class DemandClass:
    """Partition of the customers by normalized demand against a threshold
    delta: small (<= delta), big (in (delta, 1/2]), large (> 1/2)."""

    small: frozenset[int]
    big: frozenset[int]
    large: frozenset[int]


def classify(inst: Instance, delta: Fraction) -> DemandClass:
    """Split customers into small / big / large relative to ``delta``."""
    delta = Fraction(delta)
    if not 0 <= delta <= HALF:
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")
    small = frozenset(v for v in inst.customers if not inst.exceeds(v, delta))
    large = frozenset(v for v in inst.customers if inst.exceeds(v, HALF))
    return DemandClass(small, frozenset(inst.customers) - small - large, large)


def rounding_monte_carlo(
    catalog: TourCatalog,
    lpsol: LpSolution,
    gamma: float,
    seeds: Sequence[int],
) -> tuple[np.ndarray, dict[int, float]]:
    """Vectorized replay of ``round_tours`` over many seeds.

    Returns (selected cost per seed, per-customer uncovered frequency).
    Bit-identical to calling ``round_tours`` seed by seed.
    """
    tours = catalog.tours
    digests = np.array([catalog.digest(j) for j in range(len(tours))], dtype=np.uint64)
    probs = np.minimum(1.0, gamma * np.asarray(lpsol.values))
    costs = catalog.costs
    seeds_arr = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)

    def mix(z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = z + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    draws = mix(mix(seeds_arr)[:, None] ^ digests[None, :]) / 2.0 ** 64
    picked = (draws < probs[None, :]) & (probs[None, :] > 0) & (gamma > 0)
    # Accumulate left to right per seed so the totals match the scalar
    # path bit for bit (a matmul would reassociate the additions).
    cost_list = costs.tolist()
    sel_cost = np.empty(len(seeds_arr))
    for i in range(len(seeds_arr)):
        acc = 0.0
        for j in np.flatnonzero(picked[i]):
            acc += cost_list[j]
        sel_cost[i] = acc
    uncovered_freq: dict[int, float] = {}
    for v in sorted(catalog.cover_set):
        member = np.array([v in t.customers for t in tours])
        cov = picked[:, member].any(axis=1)
        uncovered_freq[v] = float(1.0 - cov.mean())
    return sel_cost, uncovered_freq


def best_cover_bruteforce(inst: Instance, big: Iterable[int]) -> float:
    """Exhaustive pair/solo cover enumeration; cross-checks the matching
    solver on small groups."""
    big = sorted(big)
    if len(big) > 12:
        raise ValueError("brute-force cover capped at 12 customers")

    def rec(remaining: tuple[int, ...]) -> float:
        if not remaining:
            return 0.0
        u, rest = remaining[0], remaining[1:]
        best = 2.0 * inst.depot_cost(u) + rec(rest)
        for j, v in enumerate(rest):
            if inst.demand(u) + inst.demand(v) <= inst.capacity:
                cand = inst.depot_cost(u) + inst.cost(u, v) + inst.depot_cost(v) + rec(rest[:j] + rest[j + 1:])
                best = min(best, cand)
        return best

    return rec(tuple(big))


def networkx_matching_pairs(inst: Instance) -> frozenset[tuple[int, int]]:
    """The big customers' pairs by networkx's ``max_weight_matching`` on
    the savings graph, as a frozenset built from networkx's result set.
    ``serve_big_by_matching`` must return equal pairs, and summing the pair
    costs in iteration order of either set must give the same float."""
    import networkx as nx

    big = [v for v in inst.customers if inst.exceeds(v, BIG_THRESHOLD)]
    g = nx.Graph()
    g.add_nodes_from(big)
    for i, u in enumerate(big):
        for v in big[i + 1:]:
            if inst.demand(u) + inst.demand(v) <= inst.capacity:
                saving = inst.depot_cost(u) + inst.depot_cost(v) - inst.cost(u, v)
                g.add_edge(u, v, weight=saving)
    return frozenset(tuple(sorted(e)) for e in nx.max_weight_matching(g))


def mst_doubling_tour(inst: Instance, subset: Iterable[int]) -> Tour:
    """Prim over dicts with the (weight, vertex) tie-break, then the
    preorder walk; ``approx_tsp`` must return the same tour."""
    subset = sorted(set(subset))
    if not subset:
        return empty_tour("two_approx")
    m = inst.metric
    nodes = [0] + subset
    in_tree = {0}
    children: dict[int, list[int]] = {v: [] for v in nodes}
    best_edge = {v: (float(m[0, v]), 0) for v in subset}
    while len(in_tree) < len(nodes):
        v = min(
            (u for u in subset if u not in in_tree),
            key=lambda u: (best_edge[u][0], u),
        )
        w = best_edge[v][1]
        children[w].append(v)
        in_tree.add(v)
        for u in subset:
            if u not in in_tree and float(m[v, u]) < best_edge[u][0]:
                best_edge[u] = (float(m[v, u]), v)
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(children[v], reverse=True))
    seq = tuple(order) + (0,)
    return Tour(seq, inst.route_cost(seq), "two_approx")


def held_karp_tours(
    inst: Instance, ground: Sequence[int], masks: Iterable[int]
) -> dict[int, Tour]:
    """The optimal tour of every set of a downward-closed, increasing
    family of masks of ``ground``, by the scalar Held-Karp DP over Python
    lists and the same greedy reconstruction; ``tsp.optimal_tours`` must
    return the same vertices and bit-identical costs."""
    into, paths = held_karp_paths(inst, ground, masks)
    tol = walk_tolerance(inst)
    return {mask: held_karp_tour(into, paths, ground, mask, tol) for mask in paths}


def walk_tolerance(inst: Instance) -> float:
    """The reconstruction's tie tolerance, ``COST_TOL`` S + (n + 1) skew,
    where S is the largest power of two at most max|m|, or 1 below 2, and
    skew = max|m - m^T|, by a scan over the matrix's entries."""
    rows = inst.metric.tolist()
    top = max(abs(x) for row in rows for x in row)
    scale = 1.0
    while 2 * scale <= top:
        scale *= 2
    skew = max(abs(x - y) for row, col in zip(rows, zip(*rows)) for x, y in zip(row, col))
    return COST_TOL * scale + (inst.n + 1) * skew


def held_karp_paths(
    inst: Instance, ground: Sequence[int], masks: Iterable[int]
) -> tuple[list[list[float]], dict[int, list[float]]]:
    """The scalar Held-Karp DP: into[j][i] = c(x_i, x_j) over x = (depot,
    *ground), and per mask the cheapest depot-rooted path over its
    members by end vertex, inf at the depot and at non-members, which is
    the mask's column of ``tsp._held_karp``'s table."""
    idx = [0, *ground]
    into = inst.metric[np.ix_(idx, idx)].T.tolist()
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
    return into, paths


def held_karp_tour(into, paths, ground: Sequence[int], mask: int, tol: float) -> Tour:
    """The tour of ``mask`` read off ``held_karp_paths``' table, taking
    ties within ``tol``."""
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
            finish = min(map(add, paths[rest], into[j])) if rest else into[0][j]
            step = into[j][last]
            if step + finish <= target + tol:
                seq.append(ground[j - 1])
                target -= step
                last = j
                mask = rest
                break
        else:
            raise AssertionError("tour reconstruction failed")
    seq.append(0)
    return Tour(tuple(seq), best, "exact")


def segment_solution(
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


def evaluate_offset(prefix, span, eta, unit):
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


def delta_itp_walk(
    inst: Instance, tour: Tour, delta: Fraction
) -> tuple[Solution, PartitionTrace]:
    """``itp.delta_itp`` over the customers of ``tour`` by one
    ``evaluate_offset`` walk over every customer per candidate offset,
    each segment priced anew and each winning tour by
    ``route_cost``.  The package must return equal tours and trace, its
    costs equal by ``float.hex``."""
    q = delta.denominator
    unit = 2 * inst.capacity * q
    span = 2 * inst.capacity * (q - delta.numerator)
    wide = 1 - delta
    oversize = [v for v in tour.vertices[1:-1] if inst.exceeds(v, wide)]
    order = [v for v in tour.vertices[1:-1] if not inst.exceeds(v, wide)]
    prefix = list(accumulate((2 * q * inst.demand(v) for v in order), initial=0))
    mids = ((a + b) // 2 for a, b in pairwise(prefix))
    candidates = {x % span for x in chain(prefix, mids)}
    out = [inst.cost(0, v) for v in order]
    back = [inst.cost(v, 0) for v in order]
    step = [inst.cost(a, b) for a, b in pairwise(order)]
    oversize_costs = [2.0 * inst.depot_cost(v) for v in oversize]

    best = None
    candidate_costs = []
    for eta in sorted(candidates):
        cuts, segments, disposition = evaluate_offset(prefix, span, eta, unit)
        costs = []
        for seg in segments:
            if seg:
                a, b = min(seg), max(seg)
                costs.append(reduce(add, step[a:b], out[a]) + back[b])
        costs += [2.0 * out[i] for i, d in disposition.items() if d == "trivial-tour"]
        cost = reduce(add, costs + oversize_costs, 0)
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
    return segment_solution(inst, order, segments, disposition, oversize), trace


def count_sign_changes(g: Callable[[float], float], lo: float, hi: float) -> int:
    xs = np.linspace(lo, hi, SIGN_SCAN_POINTS)
    vals = np.array([g(x) for x in xs])
    return int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))


def sum_312(iterable, /, start=0):
    """``sum`` with Python 3.12's rule: exact ``float`` items are added with
    Neumaier compensation, ``int`` items as floats, and anything else (a
    numpy scalar, say) ends the float run, after which ``+`` adds the rest.
    Earlier Pythons add every float with plain ``+``, left to right."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is not int:
                result = result + item
                break
            result += item
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            result = (total + comp if comp and math.isfinite(comp) else total) + item
            break
        else:
            return total + comp if comp and math.isfinite(comp) else total
    for item in items:
        result = result + item
    return result
