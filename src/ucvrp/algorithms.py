"""Composed solvers: the LP-round-then-partition pipeline and the two
meta-algorithms that take the best of their branches.

Each step of a solve exists once: the depot tour with the tour catalog
and its covering LP (``_catalog_lp``), the LP branch (round the LP and
serve each selected catalog entry by the tour it was priced by, then
serve the leftover customers by the threshold partition) and the
report, which checks feasibility once per public call.
``lp_itp_pipeline`` runs one LP branch, ``alg1`` one and ``alg2`` two
over a shared catalog.  A solve given neither tour nor catalog, whose
depot tour is exact (2 <= n <= ``HELDKARP_CAP``), reads both off one
Held-Karp table.

``alg1`` (fixed capacity) runs the matching branch and the full-catalog
branch with threshold 1/3, keeping the cheaper solution; its default
selection intensity is gamma* = ln(2 - y0/2) at the root y0 of
ln(2 - y/2) = (3/2) y.  A refused catalog (``CatalogTooLarge``) makes it
run its LP branch at gamma = 0, with a note.  ``alg2`` (general capacity)
runs the matching branch plus two restricted-catalog branches, with
default intensities gamma1 = ln(2 - 2 y1 - y2/2) and gamma2 = ln(2 - 2 y1)
at the root y1 of (1/2) y + 6 (1 - y)(1 - e^{-y/2}) = ln(2 - 2 y),
y2 = 4 (1 - y1)(1 - e^{-y1/2}); a refused catalog raises.

``SOLVERS`` has one row per ``ucvrp solve`` name, the meta-algorithms and
each of their branches: how to run it, building all it uses, whether it
needs delta and why it refuses gamma.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from ucvrp.big_matching import BIG_THRESHOLD, serve_big_by_matching, subalg1
from ucvrp.constants import default_gammas
from ucvrp.instance import Instance, radial_lower_bound
from ucvrp.itp import delta_itp, delta_itp_plus
from ucvrp.lp_round import (CatalogTooLarge, LpSolution, TourCatalog, catalog_sets,
                             check_gamma, enumerate_tours, priced_catalog, round_tours,
                             solve_covering_lp)
from ucvrp.solution import Solution, check_feasible, merge
from ucvrp.tsp import (HELDKARP_CAP, SubsetTooLarge, Tour, approx_tsp, exact_tsp,
                       exact_tsp_and_tours)

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

    def to_json_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}

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
    (2 <= n <= ``HELDKARP_CAP``), reads both off one Held-Karp table; the
    catalog equals ``enumerate_tours``'.  A catalog that covers nobody
    gets no LP."""
    if catalog is None and tour is None and 2 <= inst.n <= HELDKARP_CAP:
        sets = catalog_sets(inst, variant, delta_lp)
        tour, tours = exact_tsp_and_tours(inst, sets.ground, sets.masks)
        catalog = priced_catalog(sets, tours)
    elif catalog is None:
        catalog = enumerate_tours(inst, variant, delta_lp)
    elif (catalog.variant, catalog.delta) != (variant, delta_lp):
        raise ValueError(f"{catalog.variant}({catalog.delta}) catalog for {variant}({delta_lp})")
    if lpsol is None and catalog.cover_set:
        lpsol = solve_covering_lp(catalog)
    return tour, catalog, lpsol


def _round_then_partition(
    inst, catalog, lpsol, gamma, threshold, seed, tour
) -> tuple[Solution, float, float, bool]:
    """One LP branch: round the fractional cover, then partition the rest.
    Returns the solution, the rounded and partition costs and whether the
    LP was used; with gamma = 0 the catalog is ignored and may be None."""
    lp_used = gamma != 0 and bool(catalog.cover_set)
    selected_entries = []
    rounded_cost = 0.0
    leftover = set(inst.customers)
    if lp_used:
        outcome = round_tours(catalog, lpsol, gamma, seed)
        selected_entries = [catalog.tours[j] for j in outcome.selected]
        rounded_cost = outcome.cost
        # Catalog tours hold cover-set customers only: the partition serves
        # the customers outside the cover set and those rounding missed.
        leftover = leftover.difference(catalog.cover_set) | outcome.uncovered

    assignment = {}
    for i, entry in enumerate(selected_entries):
        for v in entry.customers:
            # First selected tour containing v wins; later tours keep
            # their vertices with slack capacity.
            assignment.setdefault(v, i)
    rounded_sol = Solution(tuple(e.tour for e in selected_entries), assignment)

    itp_sol = delta_itp_plus(inst, leftover, tour, threshold)
    return merge(rounded_sol, itp_sol), rounded_cost, itp_sol.cost, lp_used


def _report(inst: Instance, sol: Solution, tour: Tour, **fields) -> SolveReport:
    """The one report of a public solve: bound, feasibility, tour tag."""
    return SolveReport(
        cost=sol.cost,
        lower_bounds={"radial": radial_lower_bound(inst)},
        feasible=check_feasible(inst, sol).ok,
        alpha_tag=tour.quality_tag,
        **fields,
    )


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
    are never covered by the LP and always go to the partition stage.
    ``tour``/``catalog``/``lpsol`` may be passed in to amortize their
    construction across seeds.
    """
    if tour is not None and tour.customers != set(inst.customers):
        raise ValueError("tour must cover all customers")
    check_gamma(gamma)
    delta_itp_threshold = Fraction(delta_itp_threshold)
    notes = ()
    if lp_variant == "lp2" and delta_lp is not None and Fraction(delta_lp) >= THIRD:
        notes = (f"delta_lp={delta_lp} outside the (0, 1/3) analysis regime",)

    if gamma != 0:
        tour, catalog, lpsol = _catalog_lp(inst, lp_variant, delta_lp, tour, catalog, lpsol)
    tour = tour or default_tour(inst)
    sol, rounded_cost, itp_cost, lp_solved = _round_then_partition(
        inst, catalog, lpsol, gamma, delta_itp_threshold, seed, tour
    )
    params = {
        "gamma": gamma,
        "delta_itp": str(delta_itp_threshold),
        "delta_lp": None if delta_lp is None else str(delta_lp),
    }
    return sol, _report(
        inst, sol, tour, algorithm=f"pipeline-{lp_variant}", params=params,
        branch_costs={"rounded": rounded_cost, "itp": itp_cost},
        seed=seed, lp_solved=lp_solved, notes=notes,
    )


def alg1(
    inst: Instance,
    seed: int = 0,
    gamma: Optional[float] = None,
    tour: Optional[Tour] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Better of the matching branch and the full-catalog LP branch."""
    gamma = check_gamma(default_gammas().gamma_star if gamma is None else gamma)
    branch_gamma, notes = gamma, ()
    if gamma != 0:
        try:
            tour, catalog, lpsol = _catalog_lp(inst, "lp1", None, tour, catalog, lpsol)
        except CatalogTooLarge:
            # Polynomial fallback: skip the LP entirely.
            branch_gamma, notes = 0.0, ("catalog too large; gamma forced to 0",)
    tour = tour or default_tour(inst)
    sol_a = subalg1(inst, tour)
    sol_b, _, _, lp_solved = _round_then_partition(
        inst, catalog, lpsol, branch_gamma, THIRD, seed, tour
    )
    sol = sol_a if sol_a.cost <= sol_b.cost else sol_b
    return sol, _report(
        inst, sol, tour, algorithm="alg1", params={"gamma": gamma},
        branch_costs={"subalg1": sol_a.cost, "subalg2": sol_b.cost},
        seed=seed, lp_solved=lp_solved, notes=notes,
    )


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
    (thresholds 1/3 and ``delta`` for the partition stage)."""
    delta = Fraction(delta)
    if not 0 < delta < THIRD:
        raise ValueError(f"delta must lie in (0, 1/3), got {delta}")
    gamma1 = check_gamma(default_gammas().gamma1 if gamma1 is None else gamma1)
    gamma2 = check_gamma(default_gammas().gamma2 if gamma2 is None else gamma2)
    # The catalog first: a refused one raises before the tour is built.
    if gamma1 != 0 or gamma2 != 0:
        tour, catalog, lpsol = _catalog_lp(inst, "lp2", delta, tour, catalog, lpsol)
    tour = tour or default_tour(inst)

    sol_a = subalg1(inst, tour)
    sol_b, _, _, lp_b = _round_then_partition(
        inst, catalog, lpsol, gamma1, THIRD, seed, tour
    )
    sol_c, _, _, lp_c = _round_then_partition(
        inst, catalog, lpsol, gamma2, delta, seed, tour
    )
    sol = min((sol_a, sol_b, sol_c), key=lambda s: s.cost)
    params = {"delta": str(delta), "gamma1": gamma1, "gamma2": gamma2}
    costs = {"subalg1": sol_a.cost, "subalg3": sol_b.cost, "subalg4": sol_c.cost}
    return sol, _report(
        inst, sol, tour, algorithm="alg2", params=params, branch_costs=costs,
        seed=seed, lp_solved=lp_b or lp_c,
    )


@dataclass(frozen=True)
class Solver:
    """``run(inst, delta, gamma, seed)`` builds what the solver uses and
    returns the solution, its report and the extras a flag may print:
    ``"trace"`` for ``--trace``, and ``"lp"``, the (catalog, LP solution)
    that an LP branch rounded, for ``--dump-lp``.  A gamma of None is the
    default."""

    run: Callable[..., tuple[Solution, SolveReport, dict]]
    needs_delta: bool = False
    no_gamma: Optional[str] = None  # why gamma is refused; None if it is taken


def _no_lp(name, inst, tour, sol, delta, seed, **extras):
    """A solver without LP or branches, run at partition threshold delta."""
    params = {"delta_itp": str(delta)}
    return sol, _report(inst, sol, tour, algorithm=name, params=params,
                        branch_costs={}, seed=seed), extras


def _run_ditp(name, fixed_delta, inst, delta, gamma, seed):
    delta = delta if fixed_delta is None else fixed_delta
    tour = default_tour(inst)
    sol, trace = delta_itp(inst, set(inst.customers), tour, delta)
    return _no_lp(name, inst, tour, sol, delta, seed, trace=trace.to_json_dict())


def _run_ditp_plus(inst, delta, gamma, seed):
    tour = default_tour(inst)
    sol = delta_itp_plus(inst, set(inst.customers), tour, delta)
    return _no_lp("ditp+", inst, tour, sol, delta, seed)


def _run_subalg1(inst, delta, gamma, seed):
    tour = default_tour(inst)
    plan, big_sol = serve_big_by_matching(inst)
    sol = subalg1(inst, tour, matching=(plan, big_sol))
    return _no_lp("subalg1", inst, tour, sol, BIG_THRESHOLD, seed, trace=plan.to_json_dict())


def _run_pipeline(variant, default_gamma, threshold, inst, delta, gamma, seed):
    """One LP branch; a threshold of None partitions at delta."""
    gamma = check_gamma(getattr(default_gammas(), default_gamma) if gamma is None else gamma)
    delta_lp = None if variant == "lp1" else delta
    tour = catalog = lpsol = None
    if gamma != 0:
        tour, catalog, lpsol = _catalog_lp(inst, variant, delta_lp)
    sol, report = lp_itp_pipeline(inst, variant, gamma, threshold or delta, seed, tour,
                                  delta_lp, catalog, lpsol)
    return sol, report, {} if lpsol is None else {"lp": (catalog, lpsol)}


def _run_alg1(inst, delta, gamma, seed):
    return (*alg1(inst, seed=seed, gamma=gamma), {})


def _run_alg2(inst, delta, gamma, seed):
    return (*alg2(inst, delta, seed=seed), {})


_NO_LP = "rounds no LP"
SOLVERS = {
    "itp": Solver(partial(_run_ditp, "itp", Fraction(0)), no_gamma=_NO_LP),
    "ditp": Solver(partial(_run_ditp, "ditp", None), needs_delta=True, no_gamma=_NO_LP),
    "ditp+": Solver(_run_ditp_plus, needs_delta=True, no_gamma=_NO_LP),
    "subalg1": Solver(_run_subalg1, no_gamma=_NO_LP),
    "subalg2": Solver(partial(_run_pipeline, "lp1", "gamma_star", THIRD)),
    "subalg3": Solver(partial(_run_pipeline, "lp2", "gamma1", THIRD), needs_delta=True),
    "subalg4": Solver(partial(_run_pipeline, "lp2", "gamma2", None), needs_delta=True),
    "alg1": Solver(_run_alg1),
    "alg2": Solver(_run_alg2, needs_delta=True,
                   no_gamma="takes two intensities, gamma1 and gamma2"),
}
