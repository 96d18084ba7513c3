"""Tour catalogs, the fractional covering LP over them, and randomized
rounding of the fractional solution.

Catalog variants:
  lp1        — all demand-feasible customer sets; every customer must be
               covered.
  lp2(delta) — demand-feasible sets of non-small customers only
               (normalized demand > delta); only those must be covered.

Only the demand-feasible sets are enumerated (``catalog_sets``), each
with the optimal tour of its set, so the LP optimum is a valid lower
bound on the optimal solution cost.  ``enumerate_tours`` prices them by
a Held-Karp pass over these sets alone; a solve that builds an exact
depot tour prices them off that tour's table instead and wraps the tours
with ``priced_catalog``, to the same entries.  Should a feasible set
exceed the Held-Karp cap, every entry holds its MST-doubling tour
instead and the catalog is flagged ``exact_priced = False``.  An entry's
cost is its tour's, so a selected entry is served by the tour the LP
priced.
Rounding selects each tour independently with probability
min{1, gamma * x*_T}; draws are keyed by (seed, tour content) so the
outcome does not depend on enumeration order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from ucvrp.instance import Instance
from ucvrp.tsp import SubsetTooLarge, Tour, approx_tsp, optimal_tours

SIZE_CAP = 5_000_000  # most tours a catalog may hold


class CatalogTooLarge(ValueError):
    pass


class LpInfeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    customers: frozenset[int]
    tour: Tour  # the tour the entry is priced and served by
    digest: int  # stable 64-bit hash of the customer set

    @property
    def cost(self) -> float:
        return self.tour.cost


@dataclass(frozen=True)
class TourCatalog:
    variant: str  # "lp1" | "lp2"
    delta: Optional[Fraction]
    tours: tuple[CatalogEntry, ...]
    cover_set: frozenset[int]
    exact_priced: bool = True

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "delta": None if self.delta is None else str(self.delta),
            "cover_set": sorted(self.cover_set),
            "tours": [
                {"customers": sorted(t.customers), "cost": t.cost}
                for t in self.tours
            ],
        }


@dataclass(frozen=True)
class LpSolution:
    values: tuple[float, ...]  # x*_T, aligned with catalog.tours
    objective: float
    duals: Optional[tuple[float, ...]] = None  # per cover-set customer

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "values": list(self.values),
            "duals": None if self.duals is None else list(self.duals),
        }


@dataclass(frozen=True)
class RoundingOutcome:
    selected: tuple[int, ...]  # indices into catalog.tours
    uncovered: frozenset[int]
    cost: float


def _digest(customers: frozenset[int]) -> int:
    payload = ",".join(str(v) for v in sorted(customers)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class CatalogSets:
    """The demand-feasible sets a catalog holds, before pricing: mask m
    stands for {ground[i] : bit i of m set}, in increasing order."""

    variant: str
    delta: Optional[Fraction]
    ground: tuple[int, ...]  # also the cover set
    masks: list[int]


def catalog_sets(inst: Instance, variant: str, delta: Optional[Fraction] = None) -> CatalogSets:
    """The ground set and demand-feasible sets of a catalog variant; an
    lp1 catalog takes no delta and stores None."""
    if variant == "lp1":
        ground, delta = tuple(inst.customers), None
    elif variant == "lp2":
        if delta is None:
            raise ValueError("lp2 requires delta")
        delta = Fraction(delta)
        ground = tuple(v for v in inst.customers if inst.exceeds(v, delta))
    else:
        raise ValueError(f"unknown catalog variant {variant!r}")

    s = len(ground)
    if s > 24:
        raise CatalogTooLarge(f"ground set of {s} customers exceeds the limit of 24")
    masks = feasible_masks([inst.demand(v) for v in ground], inst.capacity)
    return CatalogSets(variant, delta, ground, masks)


def priced_catalog(sets: CatalogSets, tours: Iterable[Tour], exact: bool = True) -> TourCatalog:
    """The catalog of ``sets`` whose entries are ``tours``, one per mask;
    ``exact`` says whether each is its set's optimal tour."""
    entries = [CatalogEntry(t.customers, t, _digest(t.customers)) for t in tours]
    entries.sort(key=lambda e: (len(e.customers), sorted(e.customers)))
    return TourCatalog(sets.variant, sets.delta, tuple(entries), frozenset(sets.ground), exact)


def enumerate_tours(
    inst: Instance,
    variant: str,
    delta: Optional[Fraction] = None,
) -> TourCatalog:
    """All demand-feasible customer sets of the relevant ground set, each
    with its optimal tour from a Held-Karp pass over these sets alone,
    in deterministic order."""
    sets = catalog_sets(inst, variant, delta)
    try:
        tours, exact = optimal_tours(inst, sets.ground, sets.masks).values(), True
    except SubsetTooLarge:
        # A feasible set is out of Held-Karp's reach; tour greedily and flag it.
        members = ([v for i, v in enumerate(sets.ground) if (mask >> i) & 1]
                   for mask in sets.masks)
        tours, exact = [approx_tsp(inst, m) for m in members], False
    return priced_catalog(sets, tours, exact)


def feasible_masks(demands: Sequence[int], capacity: int) -> list[int]:
    """Masks of the non-empty position sets of ``demands`` with load at
    most ``capacity``, in increasing order.  The depth-first search adds
    only positions below a set's lowest member, ascending, so its
    preorder is increasing and it never visits an overloaded set.  More
    than ``SIZE_CAP`` sets raise ``CatalogTooLarge``."""
    out: list[int] = []
    cap = SIZE_CAP

    def extend(mask: int, load: int, below: int) -> None:
        for i in range(below):
            if load + demands[i] <= capacity:
                out.append(mask | 1 << i)
                if len(out) > cap:
                    raise CatalogTooLarge(f"catalog would hold more than {cap} tours")
                extend(mask | 1 << i, load + demands[i], i)

    extend(0, 0, len(demands))
    return out


def solve_covering_lp(catalog: TourCatalog) -> LpSolution:
    """Optimal fractional cover of the catalog's cover set."""
    cover = sorted(catalog.cover_set)
    if not cover:
        return LpSolution((0.0,) * len(catalog.tours), 0.0, ())
    covered = set()
    for t in catalog.tours:
        covered |= t.customers
    missing = [v for v in cover if v not in covered]
    if missing:
        raise LpInfeasible(f"customers {missing} appear in no catalog tour")

    m, n = len(cover), len(catalog.tours)
    a = np.zeros((m, n))
    row = {v: i for i, v in enumerate(cover)}
    for j, t in enumerate(catalog.tours):
        for v in t.customers:
            if v in row:
                a[row[v], j] = 1.0
    c = np.array([t.cost for t in catalog.tours])
    # Imported here: scipy.optimize costs ~0.4 s to load, and most solves build no LP.
    from scipy.optimize import linprog
    res = linprog(c, A_ub=-a, b_ub=-np.ones(m), bounds=(0, None), method="highs")
    if not res.success:
        raise LpInfeasible(f"LP solver failed: {res.message}")
    x = np.asarray(res.x)
    residual = a @ x - 1.0
    if residual.min() < -1e-7:
        raise LpInfeasible(f"coverage residual {residual.min():.3g}")
    duals = None
    if res.ineqlin is not None and res.ineqlin.marginals is not None:
        duals = tuple(-float(y) for y in res.ineqlin.marginals)
    return LpSolution(tuple(float(v) for v in x), float(res.fun), duals)


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _uniform_draw(seed: int, digest: int) -> float:
    return _mix64(_mix64(seed & 0xFFFFFFFFFFFFFFFF) ^ digest) / 2.0 ** 64


def check_gamma(gamma: float) -> float:
    """``gamma``, if it is a finite, non-negative selection intensity."""
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    return gamma


def round_tours(
    catalog: TourCatalog,
    lpsol: LpSolution,
    gamma: float,
    seed: int,
) -> RoundingOutcome:
    """Independent per-tour selection with probability min{1, gamma x*}."""
    check_gamma(gamma)
    if len(lpsol.values) != len(catalog.tours):
        raise ValueError(f"{len(lpsol.values)} LP values for {len(catalog.tours)} tours")
    selected = []
    covered: set[int] = set()
    cost = 0.0
    if gamma > 0:
        for j, (t, x) in enumerate(zip(catalog.tours, lpsol.values)):
            p = min(1.0, gamma * x)
            if p > 0 and _uniform_draw(seed, t.digest) < p:
                selected.append(j)
                covered |= t.customers
                cost += t.cost
    uncovered = frozenset(catalog.cover_set - covered)
    return RoundingOutcome(tuple(selected), uncovered, cost)
