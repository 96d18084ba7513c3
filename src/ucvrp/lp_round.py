"""Tour catalogs, the fractional covering LP over them, and randomized
rounding of the fractional solution.

Catalog variants:
  lp1        — all demand-feasible customer sets; every customer must be
               covered.
  lp2(delta) — demand-feasible sets of non-small customers only
               (normalized demand > delta); only those must be covered.

Only the demand-feasible sets are enumerated (``catalog_sets``), each
with the optimal tour of its set, so the LP optimum is a valid lower
bound on the optimal solution cost.  A catalog whose largest feasible
set is beyond the Held-Karp cap is refused before it is enumerated.
``enumerate_tours`` prices the sets by a Held-Karp pass over them
alone; a solve that builds an exact depot tour prices them off that
tour's table instead and orders them with ``priced_catalog``, to the
same entries.  A ``TourCatalog`` is built one way, from a
``tsp.SetTours`` in entry order: its set masks and costs are the
catalog's arrays, and it keeps its sets' own Held-Karp columns.  The LP
reads the arrays alone, and rounding draws only for the tours in the
LP's support, so an entry's tour is walked only when a solve serves
it, and only once.  An entry's cost is its tour's, so a selected entry
is served by the tour the LP priced.
The covering LP goes to HiGHS through the bindings scipy ships, as the
model ``scipy.optimize.linprog(method="highs")`` would build, passed
as arrays in one call, so it returns linprog's bits without linprog's
per-call overhead; it never holds a dense matrix.  Those bindings are
loaded from their extension file alone, so solving an LP never runs
scipy.optimize's package ``__init__`` (~0.4 s and ~40 MB).  Each thread
keeps one HiGHS solver from LP to LP, cleared of the last LP's basis
and solution before the next, so the bits are a fresh solver's.  It
holds the buffers of the largest LP it has solved, which no clear
frees, so it is dropped after an LP of more than
``KEEP_COLUMNS`` = 4096 columns, which leaves it holding at most
~2.6 MB, and after a solve that raises.  A status HiGHS ends on other than
optimal is typed: ``LpInfeasible`` for an infeasible or unbounded LP,
``LpSolverFailed`` for any other, such as a memory limit, for a model
HiGHS refuses to take, and for an allocation HiGHS fails
(``MemoryError``), which reaches no status.
Rounding selects each tour independently with probability
min{1, gamma * x*_T}; draws are keyed by (seed, tour content) so the
outcome does not depend on enumeration order.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ucvrp import tsp
from ucvrp.instance import Instance
from ucvrp.tsp import set_tours

SIZE_CAP = 5_000_000  # most tours a catalog may hold


class CatalogTooLarge(ValueError):
    pass


class LpInfeasible(RuntimeError):
    """No usable optimum of the covering LP: a customer no tour covers,
    an LP HiGHS found infeasible or unbounded, or an answer that leaves a
    customer uncovered."""


class LpSolverFailed(RuntimeError):
    """HiGHS stopped on a status that says nothing of the LP, such as a
    memory, time or iteration limit, or failed an allocation; the message
    names the status or the failure."""


class TourCatalog:
    """The sets of a catalog variant with their optimal tours, in entry
    order: ``tours``, a ``tsp.SetTours`` already in that order, holds
    them, and its ``ground``, ``masks``, where bit i stands for
    ``ground[i]``, and ``costs`` are the catalog's, which the covering LP
    and rounding read.  The cover set is the ground.  ``tours[j]`` is
    entry j's ``Tour``, walked once, when it is first indexed, so the
    length, equality, ``to_json_dict`` and the LP walk no tour.  Two
    catalogs are equal when they hold the same sets at the same costs, in
    the same order, for the same variant and delta: an LP solution of one
    is then an LP solution of the other."""

    def __init__(self, variant: str, delta: Optional[Fraction], tours: tsp.SetTours):
        self.variant = variant  # "lp1" | "lp2"
        self.delta = delta
        self.tours = tours
        self.ground = tours.ground
        self.cover_set = frozenset(self.ground)
        self.masks, self.costs = tours.masks, tours.costs
        self.masks.setflags(write=False)
        self.costs.setflags(write=False)
        # Built on demand: entry j's customers and digest.
        self._customers, self._digests = {}, {}

    def customers(self, j: int) -> frozenset[int]:
        """The customers of entry j, read off its mask."""
        members = self._customers.get(j)
        if members is None:
            mask, ground = int(self.masks[j]), self.ground
            members = self._customers[j] = frozenset(
                ground[i] for i in range(mask.bit_length()) if mask >> i & 1)
        return members

    def digest(self, j: int) -> int:
        """The stable 64-bit hash of entry j's customer set."""
        digest = self._digests.get(j)
        if digest is None:
            digest = self._digests[j] = _digest(self.customers(j))
        return digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, TourCatalog):
            return NotImplemented
        return ((self.variant, self.delta, self.ground)
                == (other.variant, other.delta, other.ground)
                and np.array_equal(self.masks, other.masks)
                and np.array_equal(self.costs, other.costs))

    def __repr__(self) -> str:
        return (f"TourCatalog({self.variant!r}, {self.delta!r}, "
                f"{len(self.masks)} sets of {list(self.ground)})")

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "delta": None if self.delta is None else str(self.delta),
            "cover_set": sorted(self.cover_set),
            "tours": [
                {"customers": sorted(self.customers(j)), "cost": cost}
                for j, cost in enumerate(self.costs.tolist())
            ],
        }


@dataclass(frozen=True)
class LpSolution:
    values: tuple[float, ...]  # x*_T, aligned with catalog.tours
    objective: float
    duals: Optional[tuple[float, ...]] = None  # per cover-set customer
    # The catalog solved, kept out of equality, repr and JSON, so that a
    # solve can refuse an LP solution of another catalog.
    catalog: Optional[TourCatalog] = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def support(self) -> tuple[int, ...]:
        """The indices of the tours with x*_T > 0, ascending."""
        return tuple(j for j, x in enumerate(self.values) if x > 0)

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
    lp1 catalog takes no delta and stores None.  A ground over 24
    customers, or a feasible set larger than ``tsp.HELDKARP_CAP``, raises
    ``CatalogTooLarge`` before any set is enumerated."""
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
    demands = [inst.demand(v) for v in ground]
    # The largest feasible set holds the smallest demands that fit together.
    largest = sum(load <= inst.capacity for load in itertools.accumulate(sorted(demands)))
    if largest > tsp.HELDKARP_CAP:
        raise CatalogTooLarge(f"a feasible set of {largest} customers exceeds "
                              f"the Held-Karp cap of {tsp.HELDKARP_CAP}")
    masks = feasible_masks(demands, inst.capacity)
    return CatalogSets(variant, delta, ground, masks)


def priced_catalog(sets: CatalogSets, tours: tsp.SetTours) -> TourCatalog:
    """The catalog of ``sets``, whose tours ``tours`` holds in mask order,
    each its set's optimal tour.  Entries go by size, then by sorted
    members: of two sets of one size, the one holding their least
    differing member comes first, so one lexsort orders the masks by
    popcount, then by their bit-reversed value, larger first."""
    s = len(sets.ground)
    members = tsp.mask_bits(tours.masks, s)
    reversed_bits = members @ (1 << np.arange(s - 1, -1, -1))
    order = np.lexsort((-reversed_bits, members.sum(axis=1)))
    return TourCatalog(sets.variant, sets.delta, tours.take(order))


def enumerate_tours(
    inst: Instance,
    variant: str,
    delta: Optional[Fraction] = None,
) -> TourCatalog:
    """All demand-feasible customer sets of the relevant ground set, each
    with its optimal tour from a Held-Karp pass over these sets alone,
    in deterministic order; a tour is walked when its entry is first
    indexed."""
    sets = catalog_sets(inst, variant, delta)
    return priced_catalog(sets, set_tours(inst, sets.ground, sets.masks))


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


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS bindings, ``scipy.optimize._highspy._core``, loaded
    from their extension file under that name without running
    scipy.optimize's package ``__init__``.  The module is registered in
    ``sys.modules``, so a later ``import scipy.optimize`` (linprog,
    ``constants.f_epsilon``) uses this same object.  Where no such file
    sits in scipy's tree, or it does not load, the plain import serves."""
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    roots = scipy.submodule_search_locations if scipy else None
    paths = [os.path.join(roots[0], "optimize", "_highspy", "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES] if roots else []
    for path in filter(os.path.isfile, paths):
        spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE] = module
            spec.loader.exec_module(module)
        except BaseException as exc:
            sys.modules.pop(_HIGHS_CORE, None)
            if isinstance(exc, ImportError):
                break
            raise
        return module
    from scipy.optimize._highspy import _core
    return _core


def cover_columns(catalog: TourCatalog) -> tuple[np.ndarray, np.ndarray]:
    """The cover matrix A in CSC form, (start, index) as int32: column j
    lists, ascending, the rows of tour j's customers in the cover set,
    which is the ground, read off the set bits of its mask."""
    tour, index = np.nonzero(tsp.mask_bits(catalog.masks, len(catalog.ground)))
    start = np.zeros(len(catalog.masks) + 1, np.int32)
    np.cumsum(np.bincount(tour, minlength=len(catalog.masks)), out=start[1:])
    return start, index.astype(np.int32)


def solve_covering_lp(catalog: TourCatalog) -> LpSolution:
    """Optimal fractional cover of the catalog's cover set; the solution
    records the catalog it solved.

    min c.x subject to -A x <= -1, x >= 0, where column j of the 0/1
    matrix A marks the cover-set customers of tour j.  The model is the
    one ``scipy.optimize.linprog(method="highs")`` builds (the CSC of -A
    with ascending rows, the same bounds and options), so HiGHS takes the
    same path and returns the same bits, without linprog's per-call input
    cleaning and option checks.  It goes to HiGHS as arrays, in one call
    of the bindings' ``passModel``, not as a ``HighsLp`` filled one
    attribute at a time.  A non-finite cost raises ``ValueError``, as
    linprog does.  An infeasible or unbounded status, such as a negative
    cost's unbounded LP, raises ``LpInfeasible``; any other status but
    optimal, such as a memory limit, a pass that does not return ``kOk``
    (it leaves the solver's last LP in place), and a ``MemoryError`` out
    of HiGHS raise ``LpSolverFailed``."""
    cover = catalog.ground
    if not cover:
        return LpSolution((0.0,) * len(catalog.tours), 0.0, (), catalog)
    m, n = len(cover), len(catalog.tours)
    start, index = cover_columns(catalog)
    sizes = np.diff(start)
    hits = np.bincount(index, minlength=m)
    if not hits.all():
        missing = [cover[i] for i in np.flatnonzero(hits == 0)]
        raise LpInfeasible(f"customers {missing} appear in no catalog tour")
    c = catalog.costs
    if not np.isfinite(c).all():
        raise ValueError(f"tour costs must be finite, got {c[~np.isfinite(c)][0]}")

    # Loaded here, and without scipy.optimize (~0.4 s and ~40 MB to import):
    # the HiGHS bindings linprog itself calls.
    highs = _highs_core()

    inf = highs.kHighsInf
    solver = _take_solver(highs)
    # No basis or solution of the last LP carries over.
    solver.clearSolver()
    try:
        # The arrays go in one call: column-wise (1), minimize (1), offset 0,
        # and every column continuous.  The bindings need the integrality
        # array; an empty one fails the pass.
        passed = solver.passModel(
            n, m, len(index), 1, 1, 0.0, c, np.zeros(n), np.full(n, inf),
            np.full(m, -inf), np.full(m, -1.0), start, index, np.full(len(index), -1.0),
            np.zeros(n, np.int32))
        # A failed pass leaves the last LP in the solver, which run() would solve.
        if passed != highs.HighsStatus.kOk:
            raise LpSolverFailed(f"LP solver failed: passModel returned {passed.name}")
        solver.run()
    except MemoryError as exc:  # HiGHS's std::bad_alloc; the solver is not put back
        raise LpSolverFailed(f"LP solver failed: {exc}") from exc
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        statuses = highs.HighsModelStatus
        error = (LpInfeasible if status in (statuses.kInfeasible, statuses.kUnbounded,
                                            statuses.kUnboundedOrInfeasible)
                 else LpSolverFailed)
        raise error(f"LP solver failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    values = tuple(solution.col_value)
    residual = np.bincount(index, np.repeat(values, sizes), m) - 1.0
    if residual.min() < -1e-7:
        raise LpInfeasible(f"coverage residual {residual.min():.3g}")
    duals = tuple([-y for y in solution.row_dual])
    objective = float(solver.getInfo().objective_function_value)
    if n <= KEEP_COLUMNS:
        _kept.solver = solver
    return LpSolution(values, objective, duals, catalog)


# The most columns an LP may have for its solver to be kept for the next.
# The solver keeps ~0.6 KB a column of buffers, which no clear frees
# (~81 MB after 110,055 columns); from ~4,000 columns a fresh solver
# costs nothing measurable beside the LP's ~16 ms.
KEEP_COLUMNS = 4096

# This thread's HiGHS solver, kept between covering LPs (``_take_solver``).
_kept = threading.local()


def _take_solver(highs):
    """This thread's kept HiGHS solver, taken from it: a solve that
    raises, or whose LP has more than ``KEEP_COLUMNS`` columns, does not
    put it back, and the next LP makes a new one.  A new solver gets the
    options linprog sets, and no other: presolve on, no debug checks, no
    output (it would corrupt ``ucvrp solve``'s JSON), dual simplex.  A
    solver is kept for the bindings' ``_Highs`` class, so bindings with
    another class, such as a stand-in, make their own."""
    solver, _kept.solver = getattr(_kept, "solver", None), None
    if type(solver) is not highs._Highs:
        solver = highs._Highs()
        solver.setOptionValue("presolve", "on")
        solver.setOptionValue("highs_debug_level", 0)  # kHighsDebugLevelNone
        solver.setOptionValue("log_to_console", False)
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("simplex_strategy", 1)  # kSimplexStrategyDual
    return solver


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
    """Independent per-tour selection with probability min{1, gamma x*},
    drawn only for the tours with x* > 0; it walks no tour."""
    check_gamma(gamma)
    if len(lpsol.values) != len(catalog.tours):
        raise ValueError(f"{len(lpsol.values)} LP values for {len(catalog.tours)} tours")
    selected = []
    covered: set[int] = set()
    cost = 0.0
    if gamma > 0:
        for j in lpsol.support:
            p = min(1.0, gamma * lpsol.values[j])
            if p > 0 and _uniform_draw(seed, catalog.digest(j)) < p:
                selected.append(j)
                covered |= catalog.customers(j)
                cost += float(catalog.costs[j])
    uncovered = frozenset(catalog.cover_set - covered)
    return RoundingOutcome(tuple(selected), uncovered, cost)
