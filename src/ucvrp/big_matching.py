"""Serve every customer with normalized demand above 1/3 via a
minimum-cost pair/solo cover.

Two such customers can share a tour only if their demands fit together,
and no tour fits three of them, so the cheapest way to serve this group
with dedicated tours is a minimum-weight matching: pair (u, v) costs
c(r,u) + c(u,v) + c(v,r), a solo costs 2 c(r,v).  Shortcutting any
optimal solution down to this group yields some pair/solo cover, so the
optimal cover costs at most the overall optimum.

The cover is a maximum-weight matching on the savings graph, solved here
by Edmonds' primal-dual blossom algorithm (J. Edmonds, "Paths, trees, and
flowers", 1965; "Maximum matching and a polyhedron with 0,1-vertices",
1965) in the O(V^3) form of Z. Galil, "Efficient algorithms for finding
maximum matching in graphs", ACM Computing Surveys 18(1), 1986.  It runs
on integer vertex indices: duals, labels and blossom structure live in
lists, and savings in one dense matrix.  Neighbours are scanned in
customer order, the queue is LIFO and blossoms are visited in creation
order, which are the orders of networkx's ``max_weight_matching``; the
two return the same pairs.

A big customer with no feasible partner is dropped before matching.
Without a cardinality constraint every single (unmatched) vertex is the
root of an alternating tree in every stage, so all single vertices carry
one common dual, the least of all vertex duals.  An isolated vertex stays
single, so its dual is that common value: it never sets a delta that
another single vertex would not set to the same value, and it has no
edge to scan.  Dropping it changes no step of the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add
from typing import Optional

import numpy as np

from ucvrp.instance import Instance, radial_mass
from ucvrp.itp import delta_itp_plus
from ucvrp.solution import Solution, merge, trivial_solution
from ucvrp.tsp import Tour

BIG_THRESHOLD = Fraction(1, 3)

# Labels of top-level blossoms and of vertices inside T-blossoms.
_FREE, _S, _T, _CRUMB = 0, 1, 2, 4
_INF = float("inf")


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


class _Matcher:
    """Maximum-weight matching (not maximum-cardinality) by the
    primal-dual blossom method on vertices 0..n-1.

    Blossoms get ids n, n+1, ... in creation order and are never reused,
    so the per-id lists grow by one entry per blossom.  Edge slacks and
    duals are doubled, as in Galil's paper: ``dual[v]`` is 2 u(v),
    ``zdual[b]`` is 2 z(b) and ``w2[v][w]`` is twice the edge weight.
    """

    __slots__ = ("n", "w2", "nbrs", "mate", "dual", "label", "labeledge",
                 "bestedge", "bestslack", "inblossom", "parent", "base", "childs", "edges",
                 "mybest", "zdual", "live", "allow", "queue", "order")

    def __init__(self, w2: list[list[float]], nbrs: list[list[int]], maxweight: float):
        n = len(nbrs)
        self.n = n
        self.w2 = w2
        self.nbrs = nbrs
        # mate[v] is v's partner, or -1 while v is single; order lists the
        # vertices in the order they were first matched.
        self.mate = [-1] * n
        self.order: list[int] = []
        self.dual = [maxweight] * n
        # Per id (vertex or blossom).  label: _FREE, _S or _T, plus _CRUMB
        # while scan_blossom passes.  labeledge: the (v, w) edge through
        # which a labelled blossom (or a reached vertex inside a T-blossom)
        # got its label, w inside it; None for a single base.  bestedge:
        # least-slack edge from an S-vertex to a free vertex, or from a
        # top-level S-blossom to another S-blossom; bestslack holds its
        # slack at the current duals (inf for none).
        self.label = [_FREE] * n
        self.labeledge: list = [None] * n
        self.bestedge: list = [None] * n
        self.bestslack = [_INF] * n
        self.inblossom = list(range(n))  # vertex -> top-level blossom
        self.parent = [-1] * n
        self.base = list(range(n))
        # Blossom structure (None for vertices).  childs[b] goes round b
        # from its base; edges[b][i] joins childs[b][i] to childs[b][i+1].
        # mybest[b] lists a top-level S-blossom's least-slack edges to
        # other S-blossoms.
        self.childs: list = [None] * n
        self.edges: list = [None] * n
        self.mybest: list = [None] * n
        self.zdual: list = [None] * n
        self.live: list[int] = []  # blossoms not yet expanded, creation order
        # allow[v * n + w]: edge (v, w) is known to have zero slack.
        self.allow = bytearray(n * n)
        self.queue: list[int] = []  # S-vertices to scan

    def leaves(self, b: int) -> list[int]:
        n = self.n
        childs = self.childs
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(self, w: int, t: int, v: int) -> None:
        """Label the top-level blossom of vertex w with t, reached from
        vertex v (-1 for none); a T-blossom's mate becomes S."""
        label, labeledge, bestedge = self.label, self.labeledge, self.bestedge
        while True:
            b = self.inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = (v, w) if v >= 0 else None
            bestedge[w] = bestedge[b] = None
            self.bestslack[w] = self.bestslack[b] = _INF
            if t == _S:
                if b >= self.n:
                    self.queue.extend(self.leaves(b))
                else:
                    self.queue.append(b)
                return
            v = self.base[b]
            w, t = self.mate[v], _S

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from S-vertices v and w: the base vertex of a new
        blossom, or -1 when the paths end in two single vertices."""
        label, labeledge, inblossom = self.label, self.labeledge, self.inblossom
        path = []
        base = -1
        while v >= 0:
            b = inblossom[v]
            if label[b] & _CRUMB:
                base = self.base[b]
                break
            path.append(b)
            label[b] = _S | _CRUMB
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                v = labeledge[inblossom[v]][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] = _S
        return base

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """Make an S-blossom of the cycle closed by edge (v, w)."""
        n = self.n
        label, labeledge, bestedge = self.label, self.labeledge, self.bestedge
        inblossom, parent, mybest = self.inblossom, self.parent, self.mybest
        dual, w2 = self.dual, self.w2
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = len(label)
        path = []
        edgs = [(v, w)]
        label.append(_S)
        labeledge.append(None)
        bestedge.append(None)
        self.bestslack.append(_INF)
        parent.append(-1)
        self.base.append(base)
        self.childs.append(path)
        self.edges.append(edgs)
        mybest.append(None)
        self.zdual.append(0.0)
        self.live.append(b)
        parent[bb] = b
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            x, y = labeledge[bw]
            edgs.append((y, x))
            bw = inblossom[x]
        labeledge[b] = labeledge[bb]
        for x in self.leaves(b):
            if label[inblossom[x]] == _T:
                # A T-vertex inside an S-blossom turns S.
                self.queue.append(x)
            inblossom[x] = b
        # Least-slack edge to each neighbouring S-blossom, first found
        # first kept among equal slacks.
        best_to: dict[int, tuple[int, int]] = {}
        best_slack: dict[int, float] = {}
        for sub in path:
            if sub >= n:
                nblist = mybest[sub]
                if nblist is not None:
                    mybest[sub] = None
                else:
                    nblist = [(x, y) for x in self.leaves(sub) for y in self.nbrs[x]]
            else:
                nblist = [(sub, y) for y in self.nbrs[sub]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == _S:
                    s = dual[i] + dual[j] - w2[i][j]
                    if bj not in best_to or s < best_slack[bj]:
                        best_to[bj] = k
                        best_slack[bj] = s
            bestedge[sub] = None
            self.bestslack[sub] = _INF
        mybest[b] = list(best_to.values())
        best, least = None, _INF
        for bj, k in best_to.items():
            if best is None or best_slack[bj] < least:
                best, least = k, best_slack[bj]
        bestedge[b] = best
        self.bestslack[b] = least

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Turn the children of top-level blossom b into top-level
        blossoms; at the end of a stage, zero-dual children go too."""
        n = self.n
        inblossom, parent, childs = self.inblossom, self.parent, self.childs
        todo = [b]
        while todo:
            x = todo.pop()
            for s in childs[x]:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and self.zdual[s] == 0:
                    todo.append(s)
                else:
                    for v in self.leaves(s):
                        inblossom[v] = s
            if x != b:
                self._forget(x)
        if not endstage and self.label[b] == _T:
            self._relabel_expanded_t(b)
        self._forget(b)

    def _relabel_expanded_t(self, b: int) -> None:
        """Relabel the children of an expanding T-blossom: T and S
        alternately along the even path from the entry child to the base,
        then T on each other child that an S-vertex reaches."""
        n = self.n
        label, labeledge, bestedge = self.label, self.labeledge, self.bestedge
        inblossom, allow, mate = self.inblossom, self.allow, self.mate
        ch, ed = self.childs[b], self.edges[b]
        entrychild = inblossom[labeledge[b][1]]
        j = ch.index(entrychild)
        if j & 1:
            j -= len(ch)
            jstep = 1
        else:
            jstep = -1
        v, w = labeledge[b]
        while j != 0:
            if jstep == 1:
                p, q = ed[j]
            else:
                q, p = ed[j - 1]
            label[w] = label[q] = _FREE
            self.assign_label(w, _T, v)
            allow[p * n + q] = allow[q * n + p] = 1
            j += jstep
            if jstep == 1:
                v, w = ed[j]
            else:
                w, v = ed[j - 1]
            allow[v * n + w] = allow[w * n + v] = 1
            j += jstep
        bw = ch[j]
        label[w] = label[bw] = _T
        labeledge[w] = labeledge[bw] = (v, w)
        bestedge[bw] = None
        self.bestslack[bw] = _INF
        j += jstep
        while ch[j] != entrychild:
            bv = ch[j]
            j += jstep
            if label[bv] == _S:
                continue
            reached = [x for x in (self.leaves(bv) if bv >= n else (bv,)) if label[x]]
            if reached:
                v = reached[0]
                label[v] = label[mate[self.base[bv]]] = _FREE
                self.assign_label(v, _T, labeledge[v][0])

    def _forget(self, b: int) -> None:
        self.label[b] = _FREE
        self.labeledge[b] = self.bestedge[b] = None
        self.bestslack[b] = _INF
        self.childs[b] = self.edges[b] = self.mybest[b] = self.zdual[b] = None
        self.live.remove(b)

    def _match(self, v: int, w: int) -> None:
        if self.mate[v] < 0:
            self.order.append(v)
        self.mate[v] = w

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched and unmatched edges along the even path through
        blossom b from vertex v to the base; v becomes the base."""
        stack = [self._augment_steps(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(self._augment_steps(*args))
                break
            else:
                stack.pop()

    def _augment_steps(self, b: int, v: int):
        # A generator trampoline: each yield is a nested call, run to the
        # end before this one resumes, so deep nesting needs no recursion.
        n, parent = self.n, self.parent
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            yield t, v
        ch, ed = self.childs[b], self.edges[b]
        i = j = ch.index(t)
        if i & 1:
            j -= len(ch)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = ch[j]
            if jstep == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= n:
                yield t, w
            j += jstep
            t = ch[j]
            if t >= n:
                yield t, x
            self._match(w, x)
            self._match(x, w)
        self.childs[b] = ch[i:] + ch[:i]
        self.edges[b] = ed[i:] + ed[:i]
        self.base[b] = self.base[self.childs[b][0]]

    def augment_matching(self, v: int, w: int) -> None:
        """Augment along the path through edge (v, w) between two single
        vertices."""
        inblossom, labeledge, n = self.inblossom, self.labeledge, self.n
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                self._match(s, j)
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    self.augment_blossom(bt, j)
                self._match(j, s)

    def solve(self) -> list[int]:
        """Run stages until no augmenting path is left; return ``mate``."""
        n, w2, nbrs, mate, dual = self.n, self.w2, self.nbrs, self.mate, self.dual
        label, labeledge = self.label, self.labeledge
        bestedge, bestslack = self.bestedge, self.bestslack
        inblossom, parent, zdual = self.inblossom, self.parent, self.zdual
        live, queue = self.live, self.queue
        while True:
            # A stage: grow alternating trees from every single vertex
            # until one augmenting path is found.
            ids = len(label)
            label[:] = [_FREE] * ids
            labeledge[:] = [None] * ids
            bestedge[:] = [None] * ids
            bestslack[:] = [_INF] * ids
            for b in live:
                self.mybest[b] = None
            self.allow = allow = bytearray(n * n)
            queue.clear()
            for v in range(n):
                if mate[v] < 0 and label[inblossom[v]] == _FREE:
                    self.assign_label(v, _S, -1)
            augmented = False
            while True:
                while queue and not augmented:
                    v = queue.pop()
                    bv = inblossom[v]
                    dv, w2v, vn = dual[v], w2[v], v * n
                    for w in nbrs[v]:
                        bw = inblossom[w]
                        if bv == bw:
                            continue
                        if not allow[vn + w]:
                            kslack = dv + dual[w] - w2v[w]
                            if kslack > 0:
                                # Not tight: remember the least-slack edge
                                # to another S-blossom or to a free vertex.
                                if label[bw] == _S:
                                    if kslack < bestslack[bv]:
                                        bestedge[bv] = (v, w)
                                        bestslack[bv] = kslack
                                elif label[w] == _FREE and kslack < bestslack[w]:
                                    bestedge[w] = (v, w)
                                    bestslack[w] = kslack
                                continue
                            allow[vn + w] = allow[w * n + v] = 1
                        lbw = label[bw]
                        if lbw == _FREE:
                            self.assign_label(w, _T, v)
                        elif lbw == _S:
                            base = self.scan_blossom(v, w)
                            if base < 0:
                                self.augment_matching(v, w)
                                augmented = True
                                break
                            self.add_blossom(base, v, w)
                            bv = inblossom[v]
                        elif label[w] == _FREE:
                            # w, inside a T-blossom, is reached from
                            # outside it: needed to relabel on expansion.
                            label[w] = _T
                            labeledge[w] = (v, w)
                if augmented:
                    break

                # No augmenting path on tight edges: move the duals by the
                # largest delta that keeps them feasible.
                top = [label[b] for b in inblossom]
                deltatype = 1
                delta = min(dual)  # delta1: least vertex dual
                deltaedge = deltablossom = None
                for v in range(n):  # delta2: S-vertex to free vertex
                    if top[v] == _FREE and bestslack[v] < delta:
                        delta, deltatype, deltaedge = bestslack[v], 2, bestedge[v]
                for b in chain(range(n), live):  # delta3: S-blossom to S-blossom
                    if parent[b] < 0 and label[b] == _S and bestslack[b] / 2.0 < delta:
                        delta, deltatype, deltaedge = bestslack[b] / 2.0, 3, bestedge[b]
                for b in live:  # delta4: least z of a T-blossom
                    if parent[b] < 0 and label[b] == _T and zdual[b] < delta:
                        delta, deltatype, deltablossom = zdual[b], 4, b

                for v in range(n):
                    if top[v] == _S:
                        dual[v] -= delta
                    elif top[v] == _T:
                        dual[v] += delta
                for b in live:
                    if parent[b] < 0:
                        if label[b] == _S:
                            zdual[b] += delta
                        elif label[b] == _T:
                            zdual[b] -= delta
                if deltatype == 1:
                    break  # optimum
                for x in chain(range(n), live):
                    e = bestedge[x]
                    if e is not None:
                        bestslack[x] = dual[e[0]] + dual[e[1]] - w2[e[0]][e[1]]

                if deltatype == 4:
                    self.expand_blossom(deltablossom, False)
                else:
                    v, w = deltaedge
                    allow[v * n + w] = allow[w * n + v] = 1
                    queue.append(v)

            if not augmented:
                return mate
            for b in list(live):
                if (self.childs[b] is not None and parent[b] < 0
                        and label[b] == _S and zdual[b] == 0):
                    self.expand_blossom(b, True)


def _savings(inst: Instance, big: list[int]) -> tuple[list[list[float]], list[list[int]], float]:
    """Doubled savings c(r,u) + c(r,v) - c(u,v), each vertex's feasible
    partners in ``big`` order (as indices into ``big``), and the largest
    feasible saving (0 at least)."""
    ids = [0, *big]
    sub = inst.metric.take(ids, 0).take(ids, 1)
    r = sub[0, 1:]
    saving = r[:, None] + r - sub[1:, 1:]
    # Pair (u, v), u before v in ``big``, is priced by c(u, v): mirror the
    # upper triangle so that a slightly asymmetric matrix prices it once.
    idx = np.arange(len(big))
    saving = np.where(idx[:, None] < idx, saving, saving.T)
    dem = np.array([inst.demand(v) for v in big])
    fits = dem[:, None] + dem <= inst.capacity
    fits[idx, idx] = False
    rows, cols = np.nonzero(fits)
    ends = np.bincount(rows, minlength=len(big)).cumsum().tolist()
    cols = cols.tolist()
    nbrs = [cols[a:b] for a, b in zip([0, *ends], ends)]
    maxweight = float(np.max(saving, where=fits, initial=0.0))
    return (2.0 * saving).tolist(), nbrs, maxweight


def _pairable(inst: Instance, big: list[int]) -> list[int]:
    """The customers of ``big`` whose demand fits with some other's."""
    if len(big) < 2:
        return []
    lo1, lo2 = sorted(inst.demand(v) for v in big)[:2]
    return [v for v in big
            if inst.demand(v) + (lo2 if inst.demand(v) == lo1 else lo1) <= inst.capacity]


def _pair_cost(inst: Instance, u: int, v: int) -> float:
    return inst.depot_cost(u) + inst.cost(u, v) + inst.depot_cost(v)


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
    pairable = _pairable(inst, big)
    found: set[tuple[int, int]] = set()
    if pairable:
        matcher = _Matcher(*_savings(inst, pairable))
        mate = matcher.solve()
        # The pair costs below are summed in the iteration order of
        # ``pairs``, which depends on the order its edges were inserted.
        # Insert them as networkx's matching set does, by first-matched
        # vertex, so that the plan's cost is bit-identical to its.
        for i in matcher.order:
            u, v = pairable[i], pairable[mate[i]]
            if (v, u) not in found:
                found.add((u, v))
    pairs = frozenset(tuple(sorted(e)) for e in found)
    matched = {v for e in pairs for v in e}
    solos = frozenset(v for v in big if v not in matched)
    cost = reduce(add, (_pair_cost(inst, u, v) for u, v in pairs), 0) + reduce(
        add, (2.0 * inst.depot_cost(v) for v in solos), 0
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
