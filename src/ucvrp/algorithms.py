"""Composed solvers: the LP-round-then-partition pipeline and the two
meta-algorithms that take the best of their branches.

Each is a table of ``Branch`` rows run by one runner, ``_run_branches``.
A row is the matching branch (``subalg1``) or an LP branch: round the
covering LP at gamma, serving each selected catalog entry by the tour it
was priced by, then serve the leftover customers by the threshold
partition.  ``lp_itp_pipeline`` is one LP branch; ``alg1`` adds the
matching branch to a full-catalog one, ``alg2`` to two restricted-catalog
ones.  The runner builds the catalog and LP once (``_catalog_lp``), the
depot tour, and the one report, which checks feasibility once per solve.
A solve given neither tour nor catalog, whose depot tour is exact
(n <= ``tsp.HELDKARP_CAP``), reads both off one Held-Karp table, and of
the catalog's tours only those rounding selects are ever walked.  A
catalog whose sets Held-Karp cannot tour is refused (``CatalogTooLarge``),
and one rule handles that: the solve raises, unless its caller asks for
the fallback, which runs every LP branch at gamma = 0 with a note.
``alg1`` asks for it; ``alg2`` and the pipeline raise.

``alg1`` (fixed capacity) partitions its LP branch at threshold 1/3; its
default selection intensity is gamma* = ln(2 - y0/2) at the root y0 of
ln(2 - y/2) = (3/2) y.  ``alg2`` (general capacity) partitions its LP
branches at 1/3 and at delta, with default intensities
gamma1 = ln(2 - 2 y1 - y2/2) and gamma2 = ln(2 - 2 y1) at the root y1 of
(1/2) y + 6 (1 - y)(1 - e^{-y/2}) = ln(2 - 2 y),
y2 = 4 (1 - y1)(1 - e^{-y1/2}).

Every solver returns (solution, report).  Beside its JSON fields, a
report holds what the CLI's flags print: the partition trace or matching
plan (``--trace``) and the catalog and LP solution its LP branches
rounded (``--dump-lp``).

``SOLVERS`` has one row per ``ucvrp solve`` name, the meta-algorithms and
each of their branches: how to run it, building all it uses, whether it
needs delta, why it refuses gamma and whether it keeps a trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Union

from ucvrp import tsp
from ucvrp.big_matching import BIG_THRESHOLD, MatchingPlan, serve_big_by_matching, subalg1
from ucvrp.constants import default_gammas
from ucvrp.instance import Instance, radial_lower_bound
from ucvrp.itp import PartitionTrace, check_delta, delta_itp, delta_itp_plus
from ucvrp.lp_round import (CatalogTooLarge, LpSolution, TourCatalog, catalog_sets,
                             check_gamma, enumerate_tours, priced_catalog, round_tours,
                             solve_covering_lp)
from ucvrp.solution import Solution, check_feasible, merge
from ucvrp.tsp import SubsetTooLarge, Tour, approx_tsp, exact_tsp, exact_tsp_and_tours

THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class SolveReport:
    algorithm: str
    params: dict
    cost: float
    branch_costs: dict
    lower_bounds: dict
    feasible: bool
    alpha_tag: str
    seed: int
    lp_solved: bool = False
    notes: tuple[str, ...] = ()
    # Kept out of the JSON and of equality: what --trace and --dump-lp print.
    trace: Optional[Union[PartitionTrace, MatchingPlan]] = field(
        default=None, compare=False, repr=False)
    lp: Optional[tuple[TourCatalog, LpSolution]] = field(  # set exactly when lp_solved
        default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return {**out, "notes": list(self.notes)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def default_tour(inst: Instance) -> Tour:
    """The depot tour over every customer: exact when the subset DP can
    afford it, MST doubling otherwise."""
    try:
        return exact_tsp(inst, inst.customers)
    except SubsetTooLarge:
        return approx_tsp(inst, inst.customers)


def _catalog_lp(inst, variant, delta_lp, tour=None, catalog=None, lpsol=None):
    """The depot tour, tour catalog and covering-LP solution of a solve,
    each as passed in or built; the tour stays None unless a table gives
    it.  A solve given neither tour nor catalog, whose tour is exact
    (n <= ``tsp.HELDKARP_CAP``, read at call time), reads both off one
    Held-Karp table; the catalog equals ``enumerate_tours``'.  A catalog
    that covers nobody gets no LP, and an LP solution comes with the
    catalog it solved: one that records another catalog raises
    ``ValueError``."""
    if lpsol is not None and catalog is None:
        raise ValueError("lpsol given without the catalog it solved")
    # Past the cap a cold catalog goes through enumerate_tours, where
    # perfbench's tracer counts refusals.
    if catalog is None and tour is None and inst.n <= tsp.HELDKARP_CAP:
        sets = catalog_sets(inst, variant, delta_lp)
        tour, tours = exact_tsp_and_tours(inst, sets.ground, sets.masks)
        catalog = priced_catalog(sets, tours)
    elif catalog is None:
        catalog = enumerate_tours(inst, variant, delta_lp)
    elif (catalog.variant, catalog.delta) != (variant, delta_lp):
        raise ValueError(f"{catalog.variant}({catalog.delta}) catalog for {variant}({delta_lp})")
    if lpsol is None and catalog.cover_set:
        lpsol = solve_covering_lp(catalog)
    elif lpsol is not None and lpsol.catalog not in (None, catalog):  # `is` first, then ==
        raise ValueError("lpsol solved another catalog")
    return tour, catalog, lpsol


def _report(inst: Instance, sol: Solution, tour: Tour, lp=None, **named) -> SolveReport:
    """The one report of a solve: bound, feasibility, tour tag, and the
    LP rounded, if any."""
    return SolveReport(
        cost=sol.cost,
        lower_bounds={"radial": radial_lower_bound(inst)},
        feasible=check_feasible(inst, sol).ok,
        alpha_tag=tour.quality_tag,
        lp_solved=lp is not None,
        lp=lp,
        **named,
    )


@dataclass(frozen=True)
class Branch:
    """A row of a solve's branch table: the matching branch (``subalg1``)
    when gamma is None, else an LP branch that rounds the covering LP at
    gamma, then partitions what is left at threshold."""

    name: str
    gamma: Optional[float] = None
    threshold: Optional[Fraction] = None


def _run_branches(inst, branches, variant, delta_lp, seed, tour, catalog, lpsol,
                  fallback=False, notes=(), **named) -> tuple[Solution, SolveReport]:
    """Run a branch table over one depot tour and one catalog, and report
    its first cheapest solution.

    The catalog and its LP are built only if some branch rounds at
    gamma != 0, and before the depot tour, so a refused catalog raises
    before the tour is built; with ``fallback`` every LP branch runs at
    gamma = 0 instead, with a note.  The report's LP is the first one a
    branch rounded.  Its branch costs are each branch's cost by name, but
    a one-branch table reports its rounded and partition costs."""
    if tour is not None and tour.customers != set(inst.customers):
        raise ValueError("tour must cover all customers")
    if any(b.gamma for b in branches):  # some LP branch rounds
        try:
            tour, catalog, lpsol = _catalog_lp(inst, variant, delta_lp, tour, catalog, lpsol)
        except CatalogTooLarge:
            if not fallback:
                raise
            # Polynomial fallback: skip the LP entirely.
            branches = [b if b.gamma is None else replace(b, gamma=0.0) for b in branches]
            notes += ("catalog too large; gamma forced to 0",)
    tour = tour or default_tour(inst)
    sols, lps = [], []
    for branch in branches:
        if branch.gamma is None:
            sols.append(subalg1(inst, tour))
            continue
        selected, rounded_cost, leftover = (), 0.0, set(inst.customers)
        if branch.gamma != 0 and catalog.cover_set:
            outcome = round_tours(catalog, lpsol, branch.gamma, seed)
            selected, rounded_cost = outcome.selected, outcome.cost
            # Catalog tours hold cover-set customers only: the partition serves
            # the customers outside the cover set and those rounding missed.
            leftover = leftover.difference(catalog.cover_set) | outcome.uncovered
            lps.append((catalog, lpsol))
        assignment = {}
        for i, j in enumerate(selected):
            for v in catalog.customers(j):
                # First selected tour containing v wins; later tours keep
                # their vertices with slack capacity.
                assignment.setdefault(v, i)
        rounded_sol = Solution(tuple(catalog.tours[j] for j in selected), assignment)
        itp_sol = delta_itp_plus(inst, leftover, tour, branch.threshold)
        sols.append(merge(rounded_sol, itp_sol))
    costs = ({"rounded": rounded_cost, "itp": itp_sol.cost} if len(branches) == 1
             else {b.name: s.cost for b, s in zip(branches, sols)})
    sol = min(sols, key=lambda s: s.cost)
    return sol, _report(inst, sol, tour, lps[0] if lps else None, branch_costs=costs,
                        seed=seed, notes=notes, **named)


def lp_itp_pipeline(
    inst: Instance,
    lp_variant: str,
    gamma: float,
    delta_itp_threshold: Fraction,
    seed: int,
    tour: Optional[Tour] = None,
    delta_lp: Optional[Fraction] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Round a fractional tour cover, then serve the leftover customers by
    the threshold partition over the shortcut of ``tour``.

    With gamma = 0 the LP is never built: everything falls to the
    partition stage.  For the restricted catalog ("lp2"), small customers
    are never covered by the LP and always go to the partition stage; the
    full catalog ("lp1") takes no ``delta_lp`` and drops one given.  An
    lp2 ``delta_lp`` outside [0, 1/2) raises ``ValueError``; one outside
    the analysis regime (0, 1/3) is noted in the report.
    ``tour``/``catalog``/``lpsol`` may be passed in to amortize their
    construction across seeds.
    """
    check_gamma(gamma)
    delta_itp_threshold = Fraction(delta_itp_threshold)
    delta_lp = None if lp_variant == "lp1" else delta_lp
    notes = ()
    # An lp2 delta takes the partition's domain, as subalg4 partitions at it.
    if lp_variant == "lp2" and delta_lp is not None and not 0 < check_delta(delta_lp) < THIRD:
        notes = (f"delta_lp={delta_lp} outside the (0, 1/3) analysis regime",)
    name = f"pipeline-{lp_variant}"
    params = {
        "gamma": gamma,
        "delta_itp": str(delta_itp_threshold),
        "delta_lp": None if delta_lp is None else str(delta_lp),
    }
    return _run_branches(inst, [Branch(name, gamma, delta_itp_threshold)], lp_variant,
                         delta_lp, seed, tour, catalog, lpsol, notes=notes,
                         algorithm=name, params=params)


def alg1(
    inst: Instance,
    seed: int = 0,
    gamma: Optional[float] = None,
    tour: Optional[Tour] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Better of the matching branch and the full-catalog LP branch; a
    refused catalog runs the LP branch at gamma = 0, with a note."""
    gamma = check_gamma(default_gammas().gamma_star if gamma is None else gamma)
    branches = [Branch("subalg1"), Branch("subalg2", gamma, THIRD)]
    return _run_branches(inst, branches, "lp1", None, seed, tour, catalog, lpsol,
                         fallback=True, algorithm="alg1", params={"gamma": gamma})


def alg2(
    inst: Instance,
    delta: Fraction,
    seed: int = 0,
    gamma1: Optional[float] = None,
    gamma2: Optional[float] = None,
    tour: Optional[Tour] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Best of the matching branch and two restricted-catalog LP branches
    (thresholds 1/3 and ``delta`` for the partition stage); a refused
    catalog raises."""
    delta = Fraction(delta)
    if not 0 < delta < THIRD:
        raise ValueError(f"delta must lie in (0, 1/3), got {delta}")
    gamma1 = check_gamma(default_gammas().gamma1 if gamma1 is None else gamma1)
    gamma2 = check_gamma(default_gammas().gamma2 if gamma2 is None else gamma2)
    branches = [Branch("subalg1"), Branch("subalg3", gamma1, THIRD),
                Branch("subalg4", gamma2, delta)]
    params = {"delta": str(delta), "gamma1": gamma1, "gamma2": gamma2}
    return _run_branches(inst, branches, "lp2", delta, seed, tour, catalog, lpsol,
                         algorithm="alg2", params=params)


@dataclass(frozen=True)
class Solver:
    """``run(inst, delta, gamma, seed)`` builds what the solver uses and
    returns the solution and its report, whose ``trace`` and ``lp`` hold
    what ``--trace`` and ``--dump-lp`` print.  A gamma of None is the
    default."""

    run: Callable[..., tuple[Solution, SolveReport]]
    needs_delta: bool = False
    no_gamma: Optional[str] = None  # why gamma is refused; None if it is taken
    traces: bool = False  # whether its report holds a trace


def _no_lp(name, inst, tour, sol, delta, seed, trace=None):
    """A solver without LP or branches, run at partition threshold delta."""
    params = {"delta_itp": str(delta)}
    return sol, _report(inst, sol, tour, algorithm=name, params=params,
                        branch_costs={}, seed=seed, trace=trace)


def _run_ditp(name, fixed_delta, inst, delta, gamma, seed):
    delta = delta if fixed_delta is None else fixed_delta
    tour = default_tour(inst)
    sol, trace = delta_itp(inst, set(inst.customers), tour, delta)
    return _no_lp(name, inst, tour, sol, delta, seed, trace)


def _run_ditp_plus(inst, delta, gamma, seed):
    tour = default_tour(inst)
    sol = delta_itp_plus(inst, set(inst.customers), tour, delta)
    return _no_lp("ditp+", inst, tour, sol, delta, seed)


def _run_subalg1(inst, delta, gamma, seed):
    tour = default_tour(inst)
    plan, big_sol = serve_big_by_matching(inst)
    sol = subalg1(inst, tour, matching=(plan, big_sol))
    return _no_lp("subalg1", inst, tour, sol, BIG_THRESHOLD, seed, plan)


def _run_pipeline(variant, default_gamma, threshold, inst, delta, gamma, seed):
    """One LP branch; a threshold of None partitions at delta."""
    gamma = getattr(default_gammas(), default_gamma) if gamma is None else gamma
    return lp_itp_pipeline(inst, variant, gamma, threshold or delta, seed, delta_lp=delta)


def _run_alg1(inst, delta, gamma, seed):
    return alg1(inst, seed, gamma)


def _run_alg2(inst, delta, gamma, seed):
    return alg2(inst, delta, seed)


_NO_LP = "rounds no LP"
SOLVERS = {
    "itp": Solver(partial(_run_ditp, "itp", Fraction(0)), no_gamma=_NO_LP, traces=True),
    "ditp": Solver(partial(_run_ditp, "ditp", None), needs_delta=True, no_gamma=_NO_LP,
                   traces=True),
    "ditp+": Solver(_run_ditp_plus, needs_delta=True, no_gamma=_NO_LP),
    "subalg1": Solver(_run_subalg1, no_gamma=_NO_LP, traces=True),
    "subalg2": Solver(partial(_run_pipeline, "lp1", "gamma_star", THIRD)),
    "subalg3": Solver(partial(_run_pipeline, "lp2", "gamma1", THIRD), needs_delta=True),
    "subalg4": Solver(partial(_run_pipeline, "lp2", "gamma2", None), needs_delta=True),
    "alg1": Solver(_run_alg1),
    "alg2": Solver(_run_alg2, needs_delta=True,
                   no_gamma="takes two intensities, gamma1 and gamma2"),
}
