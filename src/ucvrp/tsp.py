"""Exact and 2-approximate TSP tours on customer subsets, plus
shortcutting of closed walks.

One Held-Karp subset dynamic program tours any downward-closed family
of customer sets, such as every subset for an exact tour or only the
demand-feasible sets of a tour catalog, and one greedy rule reads each
optimal tour off its table; sets are capped at ``HELDKARP_CAP`` = 18
customers.  The DP is numpy, by popcount layers, and forms the same
sums and mins as the scalar recurrence, so its tours and costs match
it bit for bit.  Its table is column-major, one row per end vertex and
one column per set, so each step reduces across rows over long
contiguous arrays.  Its one input is a ``_Family``: masks in column
order, and steps of one gather into a buffer, one broadcast add, one
min and one flat scatter each.  ``_full_family(s)``, which an exact
tour fills, is built once per s and kept: popcount-layer column order,
a map from each mask to its column, and each layer cut into chunks of
consecutive bits whose gathered paths take at most ``CHUNK_BYTES``,
38 MB of steps at the cap.  ``_family`` builds a caller's family per
call, in mask order, one bit a step.  The table takes 2^s (s+1) 8
bytes for all subsets of s customers, about 40 MB at the cap.  Every
tour, the exact depot tour and each set of a family alike, is walked
off a table by one scalar Python walk (``_walk``), one step per member
of a few list reads and one column read, taking ties within a
tolerance that scales with the metric and its skew (``_walk_tol``).
A family's tours are kept as a ``SetTours``: the family's own columns
and every cost, read off them at once, while a tour is walked only
when it is first asked for, and then kept.  A set's column does not
depend on the family it is priced in, so ``exact_tsp_and_tours`` walks
the exact depot tour off the table over every subset and keeps the
columns of a catalog's sets, not the table.  ``exact_tsp`` over every
customer took ~1.3-1.4 ms at s = 13, ~7-8.6 ms at s = 15 and
~0.09-0.10 s at the cap on 2 shared vCPUs, in-process.  The
approximate solver doubles a minimum spanning tree and shortcuts the
resulting Euler walk, guaranteeing cost at most twice the optimum."""

from __future__ import annotations

import copy
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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


class SetTours(Sequence[Tour]):
    """The optimal tours of a family of sets, mask m standing for
    {ground[i] : bit i of m set}, kept as the family's own Held-Karp
    columns, (s + 1) x 8 bytes a set.  ``masks`` and ``costs``, every
    tour's cost read off the columns at once, are in the family's order,
    or in the order a ``take`` view is given; a set's tour is walked
    once, when it is first indexed, and then kept.  A walk reads the
    column of every set it leaves behind, so the family must be downward
    closed, as a catalog's sets are: a walk that misses one raises
    ``ValueError``."""

    def __init__(self, sub: np.ndarray, columns: np.ndarray, ground: Sequence[int],
                 masks: np.ndarray, tol: float):
        self.ground = tuple(ground)
        self.masks = masks
        self.costs = _costs(sub, columns)
        self._sub, self._columns, self._tol = sub, columns, tol
        self._family = masks  # the columns' order
        self._walker = None
        self._walked: dict[int, Tour] = {}

    def take(self, order: np.ndarray) -> SetTours:
        """These tours in ``order``: tour j of the view is tour ``order[j]``
        here.  The view shares these columns, not a copy, and keeps the
        tours it walks."""
        view = copy.copy(self)
        view.masks, view.costs, view._walked = self.masks[order], self.costs[order], {}
        return view

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Tour:
        i = range(len(self))[i]  # IndexError past either end
        tour = self._walked.get(i)
        if tour is None:
            if self._walker is None:  # the walk's lists, built for the first tour
                c = self._sub.tolist()
                self._walker = c, [row[0] for row in c], dict(
                    zip(self._family.tolist(), range(len(self._family))))
            c, back, _ = self._walker
            tour = self._walked[i] = _walk(c, back, self._columns, self._column,
                                           int(self.masks[i]), float(self.costs[i]),
                                           self.ground, self._tol)
        return tour

    def _column(self, mask: int) -> int:
        try:
            return self._walker[2][mask]
        except KeyError:
            raise ValueError("Held-Karp masks must be downward closed") from None


def exact_tsp(inst: Instance, subset: Iterable[int]) -> Tour:
    """Minimum-cost tour through the depot and every vertex of ``subset``.

    Ties are broken toward the lexicographically smallest vertex sequence
    (comparing the tour against its reversal as well) so results are
    reproducible across runs.
    """
    subset = _customers(inst, subset)
    if not subset:
        return empty_tour()
    _check_cap(len(subset))  # before the tolerance's pass over the metric
    return _exact_tour(inst, subset, _walk_tol(inst.metric))[0]


def approx_tsp(inst: Instance, subset: Iterable[int]) -> Tour:
    """MST-doubling tour: cost at most twice the optimal tour cost."""
    subset = _customers(inst, subset)
    if not subset:
        return empty_tour("two_approx")
    nodes = [0, *subset]
    sub = inst.metric[np.ix_(nodes, nodes)]  # a copy: columns are overwritten
    # Prim from the depot over positions in ``nodes``, which is sorted, so
    # argmin's first-index rule breaks ties by vertex index.  best[i] is the
    # cheapest edge from the tree to i, parent[i] its tree end; an edge
    # replaces it only when strictly cheaper.  A vertex that joins the tree
    # gets best[i] = inf and an inf column, so no later edge reaches it.
    sub[:, 0] = INF
    best = sub[0].copy()
    parent = np.zeros(len(nodes), dtype=np.intp)
    closer = np.empty(len(nodes), dtype=bool)
    done = [True] + [False] * len(subset)
    children: list[list[int]] = [[] for _ in nodes]
    for _ in subset:
        i = int(best.argmin())
        if done[i]:  # only infinite edges are left: take the lowest index
            i = done.index(False)
        children[parent[i]].append(i)
        done[i] = True
        best[i] = INF
        sub[:, i] = INF
        row = sub[i]
        np.less(row, best, out=closer)
        np.copyto(best, row, where=closer)
        np.copyto(parent, i, where=closer)
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


def _check_ground(inst: Instance, ground: Sequence[int]) -> None:
    """``ValueError`` unless ``ground`` is increasing customers;
    ``NotACustomer`` for the depot or a vertex beyond n."""
    if list(ground) != _customers(inst, ground):
        raise ValueError("ground must be increasing customers")


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
    {ground[i] : bit i of mask set}, each walked now: ``set_tours``' tours
    keyed by mask.  Each tour is ``exact_tsp``'s."""
    tours = set_tours(inst, ground, masks)
    return dict(zip(tours.masks.tolist(), tours))


def set_tours(inst: Instance, ground: Sequence[int], masks: Sequence[int]) -> SetTours:
    """The optimal tours of the sets in ``masks``, which name sets of
    ``ground`` as in ``optimal_tours``, priced by a Held-Karp pass over
    these sets alone.  ``ground`` must be increasing customers, and
    ``masks`` downward closed and increasing, like the demand-feasible
    sets of a catalog, naming non-empty sets of ``ground``; any other
    ground or family raises ``ValueError``."""
    _check_ground(inst, ground)
    family = _family(masks, len(ground))
    sub = _submetric(inst, ground)
    return SetTours(sub, _held_karp(sub, family), ground, family.masks, _walk_tol(inst.metric))


def exact_tsp_and_tours(
    inst: Instance, ground: Sequence[int], masks: Sequence[int]
) -> tuple[Tour, SetTours]:
    """``exact_tsp(inst, inst.customers)`` and the tours of the sets in
    ``masks``, which name sets of ``ground`` as in ``optimal_tours``, all
    read off one Held-Karp table over every subset of the customers.
    Needs n <= ``HELDKARP_CAP`` and ``ground`` increasing customers; each
    tour is then the one ``optimal_tours`` gives, bit for bit.  A mask
    that names no non-empty set of ``ground`` raises ``ValueError``.  The
    sets keep their own columns of the table, not the table, so they must
    be downward closed for their tours to be walked (``SetTours``)."""
    _check_ground(inst, ground)
    family = _mask_array(masks, len(ground))
    subset = list(inst.customers)
    _check_cap(len(subset))
    tol = _walk_tol(inst.metric)
    sub = _submetric(inst, ground)
    if not subset:  # no table to read, and no mask can name a set
        return empty_tour(), SetTours(sub, np.full((1, 0), INF), ground, family, tol)
    tour, table = _exact_tour(inst, subset, tol)
    # Bit deposit: bit i of a mask moves to the bit of customer ground[i],
    # whose row in the table is ground[i].
    wanted = mask_bits(family, len(ground)) @ (1 << (np.array(ground, dtype=np.int64) - 1))
    columns = table[np.ix_([0, *ground], _full_family(len(subset)).column[wanted])]
    return tour, SetTours(sub, columns, ground, family, tol)


def _exact_tour(inst: Instance, subset: list[int], tol: float) -> tuple[Tour, np.ndarray]:
    """The exact tour over the non-empty sorted customers ``subset``, and
    the Held-Karp table over every subset of ``subset`` it is read off.
    A singleton is toured like any other set, at c(r,v) + c(v,r).  The
    caller checks the cap."""
    family = _full_family(len(subset))
    sub = _submetric(inst, subset)
    table = _held_karp(sub, family)
    c = sub.tolist()
    cost = float(_costs(sub, table[:, -1:])[0])  # the full set's column is the last
    tour = _walk(c, [row[0] for row in c], table, family.column.item, (1 << len(subset)) - 1,
                 cost, subset, tol)
    return tour, table


def _check_cap(size: int) -> None:
    """``SubsetTooLarge`` if a set of ``size`` customers is past the cap."""
    if size > HELDKARP_CAP:
        raise SubsetTooLarge(f"{size} customers exceeds cap {HELDKARP_CAP}")


def tour_costs_all_subsets(inst: Instance, ground: Sequence[int]) -> list[float]:
    """Optimal tour cost for every subset of ``ground``; entry ``mask``
    prices {ground[i] : bit i of mask set}.  No solve calls it: it is
    kept only because the benchmark's tracer names it."""
    return [0.0, *set_tours(inst, ground, range(1, 1 << len(ground))).costs.tolist()]


def _submetric(inst: Instance, ground: Sequence[int]) -> np.ndarray:
    """sub[i, j] = c(x_i, x_j) over x = (depot, *ground)."""
    idx = [0, *ground]
    return inst.metric[np.ix_(idx, idx)]


def mask_bits(masks: np.ndarray, s: int) -> np.ndarray:
    """bits[r, i] is bit i of masks[r]."""
    as_bytes = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=s, bitorder="little").view(bool)


def _held_karp(sub: np.ndarray, family: _Family) -> np.ndarray:
    """The Held-Karp subset DP over ``family``, a downward-closed family
    of masks of the ground set of ``sub`` (bit i is vertex i + 1), from
    ``_full_family`` or ``_family``.

    The table is column-major: table[j, r] is the cheapest depot-rooted
    path that visits exactly the members of family.masks[r] and ends at
    vertex j.  It is inf for the depot and for non-members, so a min
    down a whole column only picks members.  The singletons' columns are
    seeded, then each step (b0, prev, dest) of the family fills the sets
    of one popcount layer that hold bits b0..b0 + len(prev) - 1: gather
    their predecessor columns (the set minus bit b) into one buffer, add
    c(x_i, x_{b+1}) to row i >= 1 by broadcasting, reduce across rows,
    and scatter each bit's mins into row b + 1 of the flat table.  These
    are the scalar DP's sums and mins, so the table matches it bit for
    bit.  The table takes len(masks) * (s+1) * 8 bytes, about 40 MB for
    every subset of 18 customers.
    """
    s, n = len(sub) - 1, len(family.masks)
    # One buffer takes each step's gathered paths in turn.
    buf = np.empty(s * max((prev.size for _, prev, _ in family.steps), default=0))
    table = np.full((s + 1, n), INF)
    table[family.first, family.ones] = sub[0, family.first]
    # A path over a non-empty set never ends at the depot: rows 1..s only.
    ends, flat, into = table[1:], table.reshape(-1), sub[1:, 1:, None]
    for b, prev, dest in family.steps:
        # paths[i, j, r]: ends at i + 1, bit b + j.  Every index is in range,
        # so the buffered take needs no bounds check ("clip", unbuffered).
        paths = buf[:s * prev.size].reshape(s, *prev.shape)
        ends.take(prev, axis=1, out=paths, mode="clip")
        paths += into[:, b:b + len(prev)]
        flat[dest] = np.minimum.reduce(paths, axis=0)
    return table


class _Family(NamedTuple):
    """A family of masks and its constants in ``_held_karp``: ``masks``
    in column order; the columns ``ones`` of the singletons 1 << b and
    their rows ``first`` = b + 1; and the DP's ``steps`` above the
    singletons, in order, each (b0, prev, dest).  Row j of prev holds the
    predecessor columns of the sets of one popcount layer that hold bit
    b0 + j, and row j of dest the flat table indices of those sets in row
    b0 + j + 1.  ``column``, the map from a mask to its column, is kept
    for the full family alone."""

    masks: np.ndarray
    ones: np.ndarray
    first: np.ndarray
    steps: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    column: np.ndarray | None = None


def _mask_array(masks: Iterable[int], s: int) -> np.ndarray:
    """A caller's ``masks`` as an int64 array; ``ValueError`` unless each
    is an integer, Python or numpy, naming a non-empty set of an s-member
    ground (bits 0..62 at most, all that int64 holds)."""
    try:
        masks = list(map(operator.index, masks))
    except TypeError:
        masks = None
    if masks is None or masks and (min(masks) < 1 or max(masks) >> min(s, 63)):
        raise ValueError(f"Held-Karp masks must be integers, downward closed, over "
                         f"non-empty sets of the {s}-member ground")
    return np.array(masks, dtype=np.int64)


def _family(masks: Iterable[int], s: int) -> _Family:
    """A caller's family of masks of an s-member ground, in its own
    order, which must be increasing and downward closed, or
    ``ValueError``; a set past the cap raises ``SubsetTooLarge``.  Its
    steps are one-bit chunks, layer by layer, their predecessors found
    by one binary search a layer.  The full family, built this way,
    measured 4-5x slower than ``_full_family`` at s = 18, and putting a
    catalog's sets in layer order cost more than it saved."""
    masks = _mask_array(masks, s)
    if (masks[1:] <= masks[:-1]).any():
        raise ValueError("Held-Karp masks must be increasing")
    n, bits = len(masks), mask_bits(masks, s)
    layers = bits.sum(axis=1)
    _check_cap(int(layers.max(initial=0)))
    ones = np.flatnonzero(layers == 1)
    steps = []
    for size in range(2, int(layers.max(initial=0)) + 1):
        layer = np.flatnonzero(layers == size)
        # The layer's (bit, set) pairs, bit by bit, each bit's sets in
        # increasing order: each bit's run of pairs is one step.
        held, cols = np.nonzero(bits[layer].T)
        cols = layer[cols]
        wanted = masks[cols] ^ (1 << held)
        prev = masks.searchsorted(wanted)
        if (masks[prev] != wanted).any():
            raise ValueError("Held-Karp masks must be downward closed")
        del wanted  # 3.6 MB a layer at n = 22, k = 6: free it before dest
        runs = np.flatnonzero(np.diff(held, prepend=-1, append=s)).tolist()
        dest = cols + (held + 1) * n
        steps += [(int(held[i]), prev[None, i:j], dest[None, i:j])
                  for i, j in zip(runs, runs[1:])]
    return _Family(masks, ones, bits[ones] @ np.arange(1, s + 1), tuple(steps))


# The most bytes one chunk of the full family gathers, s x bits x sets
# float64 paths: a chunk's gather, add and min stay within an L2 cache,
# while one call each covers several bits of a small layer.  Whole
# layers run at s <= 11 and one bit a chunk in the middle layers from
# s = 14; whole layers or budgets of a few MB measured slower at s = 13.
CHUNK_BYTES = 256 * 1024


@functools.cache
def _full_family(s: int) -> _Family:
    """The full family of every non-empty subset of s customers, built
    once per s and kept read-only.  Its masks run in popcount-layer
    order, increasing inside a layer, so the full set sits in the last
    column; ``column`` maps each of the 2^s masks to its column (-1 for
    the empty set), and the singletons are the first s columns.  Every
    bit is in C(s-1, l-1) sets of layer l, so a layer's predecessor
    columns and destinations stack into one s x C block each, cut into
    steps of consecutive bits with at most ``CHUNK_BYTES`` of gathered
    paths.  Removing bit b from the layer's sets that hold it, in
    increasing order, gives the previous layer's sets that lack it, in
    increasing order: so a step gathers only from the previous layer's
    columns and scatters only into its own, and both blocks are read off
    each layer's member bits, not looked up set by set.  The steps hold
    2 (s 2^(s-1) - s) int64 indices, 0.85 MB at s = 13 and 38 MB at the
    cap, and the masks and map 4 MB more there.  The DP never tours more
    than the cap, so at most one family per s <= 18 is kept, ~80 MB were
    each used."""
    # Popcounts of 0..2^s - 1, doubled one bit at a time; a stable sort
    # on them lists each layer's masks in increasing order.
    sizes = np.zeros(1, np.int8)
    for _ in range(s):
        sizes = np.concatenate([sizes, sizes + 1])
    order = np.argsort(sizes, kind="stable").astype(np.int64, copy=False)
    column = np.empty(1 << s, np.int64)
    column[order] = np.arange(-1, (1 << s) - 1)
    masks, n, shift = order[1:], (1 << s) - 1, np.arange(s)[:, None]
    steps, start = [], 0
    for size in range(1, s + 1):
        width = math.comb(s, size)
        layer = masks[start:start + width].astype("<u8", copy=False)
        # bits[b, r], bit b of the layer's set r; flatnonzero over its rows
        # lists b width + r row by row, so each row holds its sets in order.
        bits = np.unpackbits(layer.view(np.uint8).reshape(-1, 8).T, axis=0, count=s,
                             bitorder="little").view(bool)
        if size > 1:
            dest = np.flatnonzero(bits).reshape(s, -1)
            dest += (shift + 1) * n + start - shift * width
            for block in prev, dest:
                block.flags.writeable = False
            step = max(1, CHUNK_BYTES // (8 * prev.size))
            steps += [(b, prev[b:b + step], dest[b:b + step]) for b in range(0, s, step)]
        prev = np.flatnonzero(~bits).reshape(s, -1)  # the next layer's predecessors
        prev += start - shift * width
        start += width
    family = _Family(masks, np.arange(s), np.arange(1, s + 1), tuple(steps), column)
    for array in family.masks, family.ones, family.first, family.column:
        array.flags.writeable = False
    return family


def _walk_tol(metric: np.ndarray) -> float:
    """The walk's tie tolerance on an instance's ``metric``:
    ``COST_TOL`` S + (n + 1) skew, with S = max(1, 2^floor(log2 max|m|))
    and skew = max|m - m^T|.  A step weighs c(at, j) + finish[j] against
    the cost left, sums of at most n + 1 entries each, whose float
    rounding grows with their size: S scales ``COST_TOL`` with it, and as
    a power of two it is exact and 1 below 2, so the tolerance of a
    unit-scale symmetric metric is ``COST_TOL`` itself.  finish[j] is a
    Held-Karp path read reversed, and each of its at most n + 1 edges
    differs from its reversal by at most the skew, which
    ``validate_instance`` lets reach ``METRIC_TOL``.  Every walk on one
    instance takes this one value, whichever table it reads."""
    return COST_TOL * metric_scale(metric) + len(metric) * float(np.abs(metric - metric.T).max())


def metric_scale(metric: np.ndarray) -> float:
    """S = max(1, 2^floor(log2 max|m|)), the power of two that scales a
    cost tolerance with the size of the metric's entries: exact, and 1
    below 2.  max|m| is read from the max and min, with no temporary."""
    top = float(max(metric.max(), -metric.min()))
    return 2.0 ** (math.frexp(top)[1] - 1) if top >= 2 else 1.0


def _costs(sub: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each column's tour cost: the min over end vertices j of its path
    to j plus c(x_j, x_0), the float sums and min the walk starts from.
    A singleton {v} costs c(r,v) + c(v,r)."""
    return np.minimum.reduce(columns + sub[:, :1], axis=0, initial=INF)


def _walk(c, back, table, column, mask: int, cost: float, ground: Sequence[int],
          tol: float) -> Tour:
    """The optimal tour of ``mask``, at ``cost``, from a ``_held_karp``
    table whose columns hold each of its subsets, mask m in column
    ``column(m)``; c is the submetric as lists and back[j] = c(x_j, x_0).
    Greedy front-to-back reconstruction in scalar Python: each step takes
    the first member j, in ascending position, with c(at, j) + finish[j]
    within ``tol`` of the cost left, which yields the lexicographically
    smallest sequence.  finish[j] is table[j, left], the cheapest
    depot-rooted path over the members left that ends at j, read reversed
    as j -> rest -> depot; once j is all that is left it is c(x_j, x_0)."""
    finish = table[:, column(mask)].tolist() if mask & (mask - 1) else back
    seq, at, left, target = [0], 0, mask, cost
    while left:
        limit = target + tol
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length()
            if c[at][j] + finish[j] <= limit:
                break
        else:
            raise AssertionError("tour reconstruction failed")
        seq.append(ground[j - 1])
        target -= c[at][j]
        at = j
        left ^= low
        finish = table[:, column(left)].tolist() if left & (left - 1) else back
    seq.append(0)
    return Tour(tuple(seq), cost, "exact")
