"""Composed solvers: the LP-round-then-partition pipelines and the two
meta-algorithms that take the best of their branches.

``alg1`` (fixed capacity) runs the matching branch and the full-catalog
pipeline with threshold 1/3, keeping the cheaper solution; its default
selection intensity is gamma* = ln(2 - y0/2) at the root y0 of
ln(2 - y/2) = (3/2) y.  ``alg2`` (general capacity) runs the matching
branch plus two restricted-catalog pipelines, with default intensities
gamma1 = ln(2 - 2 y1 - y2/2) and gamma2 = ln(2 - 2 y1) at the root y1 of
(1/2) y + 6 (1 - y)(1 - e^{-y/2}) = ln(2 - 2 y), y2 = 4 (1 - y1)(1 - e^{-y1/2}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ucvrp.big_matching import serve_big_by_matching, subalg1
from ucvrp.constants import default_gammas
from ucvrp.instance import Instance, radial_lower_bound
from ucvrp.itp import delta_itp_plus
from ucvrp.lp_round import (
    CatalogTooLarge,
    LpSolution,
    TourCatalog,
    enumerate_tours,
    round_tours,
    solve_covering_lp,
)
from ucvrp.solution import Solution, check_feasible, merge
from ucvrp.tsp import SubsetTooLarge, Tour, approx_tsp, exact_tsp

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
        return {
            "algorithm": self.algorithm,
            "params": self.params,
            "cost": self.cost,
            "branch_costs": self.branch_costs,
            "lower_bounds": self.lower_bounds,
            "feasible": self.feasible,
            "alpha_tag": self.alpha_tag,
            "seed": self.seed,
            "lp_solved": self.lp_solved,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def default_tour(inst: Instance) -> Tour:
    """Exact tour when the subset DP can afford it, MST doubling otherwise."""
    try:
        return exact_tsp(inst, inst.customers)
    except SubsetTooLarge:
        return approx_tsp(inst, inst.customers)


def lp_itp_pipeline(
    inst: Instance,
    lp_variant: str,
    gamma: float,
    delta_itp_threshold: Fraction,
    seed: int,
    tour: Tour,
    delta_lp: Optional[Fraction] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Round a fractional tour cover, then serve the leftover customers by
    the threshold partition over the shortcut of ``tour``.

    With gamma = 0 the LP is never built: everything falls to the
    partition stage.  For the restricted catalog ("lp2"), small customers
    are never covered by the LP and always go to the partition stage.
    ``catalog``/``lpsol`` may be passed in to amortize the enumeration
    and solve across seeds.
    """
    if tour.customers != set(inst.customers):
        raise ValueError("tour must cover all customers")
    delta_itp_threshold = Fraction(delta_itp_threshold)
    notes = []
    if lp_variant == "lp2" and delta_lp is not None and Fraction(delta_lp) >= THIRD:
        notes.append(f"delta_lp={delta_lp} outside the (0, 1/3) analysis regime")

    lp_solved = False
    rounded_cost = 0.0
    selected_entries = []
    if gamma != 0:
        if catalog is None:
            catalog = enumerate_tours(inst, lp_variant, delta_lp)
        if catalog.cover_set:
            if lpsol is None:
                lpsol = solve_covering_lp(catalog)
            lp_solved = True
            outcome = round_tours(catalog, lpsol, gamma, seed)
            selected_entries = [catalog.tours[j] for j in outcome.selected]
    # Catalog tours hold cover-set customers only, so whatever they miss,
    # inside the cover set or outside it, goes to the partition stage.
    leftover = set(inst.customers).difference(
        *(entry.customers for entry in selected_entries)
    )

    tours = []
    assignment = {}
    for entry in selected_entries:
        members = sorted(entry.customers)
        try:
            t = exact_tsp(inst, members)
        except SubsetTooLarge:
            t = approx_tsp(inst, members)
        tours.append(t)
        rounded_cost += t.cost
        for v in entry.customers:
            # First selected tour containing v wins; later tours keep
            # their vertices with slack capacity.
            assignment.setdefault(v, len(tours) - 1)
    rounded_sol = Solution(tuple(tours), assignment)

    itp_sol = delta_itp_plus(inst, leftover, tour, delta_itp_threshold)
    sol = merge(rounded_sol, itp_sol)
    feas = check_feasible(inst, sol)
    report = SolveReport(
        algorithm=f"pipeline-{lp_variant}",
        params={
            "gamma": gamma,
            "delta_itp": str(delta_itp_threshold),
            "delta_lp": None if delta_lp is None else str(delta_lp),
        },
        cost=sol.cost,
        branch_costs={"rounded": rounded_cost, "itp": itp_sol.cost},
        lower_bounds={"radial": radial_lower_bound(inst)},
        feasible=feas.ok,
        alpha_tag=tour.quality_tag,
        seed=seed,
        lp_solved=lp_solved,
        notes=tuple(notes),
    )
    return sol, report


def alg1(
    inst: Instance,
    seed: int = 0,
    gamma: Optional[float] = None,
    tour: Optional[Tour] = None,
    catalog: Optional[TourCatalog] = None,
    lpsol: Optional[LpSolution] = None,
) -> tuple[Solution, SolveReport]:
    """Better of the matching branch and the full-catalog pipeline."""
    if tour is None:
        tour = default_tour(inst)
    if gamma is None:
        gamma = default_gammas().gamma_star
    notes = []
    sol_a = subalg1(inst, tour)
    try:
        sol_b, rep_b = lp_itp_pipeline(
            inst, "lp1", gamma, THIRD, seed, tour, catalog=catalog, lpsol=lpsol
        )
        lp_solved = rep_b.lp_solved
    except CatalogTooLarge:
        # Polynomial fallback: skip the LP entirely.
        sol_b, rep_b = lp_itp_pipeline(inst, "lp1", 0.0, THIRD, seed, tour)
        lp_solved = False
        notes.append("catalog too large; gamma forced to 0")
    sol = sol_a if sol_a.cost <= sol_b.cost else sol_b
    feas = check_feasible(inst, sol)
    report = SolveReport(
        algorithm="alg1",
        params={"gamma": gamma},
        cost=sol.cost,
        branch_costs={"subalg1": sol_a.cost, "subalg2": sol_b.cost},
        lower_bounds={"radial": radial_lower_bound(inst)},
        feasible=feas.ok,
        alpha_tag=tour.quality_tag,
        seed=seed,
        lp_solved=lp_solved,
        notes=tuple(notes),
    )
    return sol, report


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
    """Best of the matching branch and two restricted-catalog pipelines
    (thresholds 1/3 and ``delta`` for the partition stage)."""
    delta = Fraction(delta)
    if not 0 < delta < THIRD:
        raise ValueError(f"delta must lie in (0, 1/3), got {delta}")
    if tour is None:
        tour = default_tour(inst)
    g = default_gammas()
    if gamma1 is None:
        gamma1 = g.gamma1
    if gamma2 is None:
        gamma2 = g.gamma2
    if catalog is None and (gamma1 > 0 or gamma2 > 0):
        catalog = enumerate_tours(inst, "lp2", delta)
    if lpsol is None and catalog is not None and catalog.cover_set:
        lpsol = solve_covering_lp(catalog)

    sol_a = subalg1(inst, tour)
    sol_b, rep_b = lp_itp_pipeline(
        inst, "lp2", gamma1, THIRD, seed, tour,
        delta_lp=delta, catalog=catalog, lpsol=lpsol,
    )
    sol_c, rep_c = lp_itp_pipeline(
        inst, "lp2", gamma2, delta, seed, tour,
        delta_lp=delta, catalog=catalog, lpsol=lpsol,
    )
    sol = min((sol_a, sol_b, sol_c), key=lambda s: s.cost)
    feas = check_feasible(inst, sol)
    report = SolveReport(
        algorithm="alg2",
        params={"delta": str(delta), "gamma1": gamma1, "gamma2": gamma2},
        cost=sol.cost,
        branch_costs={
            "subalg1": sol_a.cost,
            "subalg3": sol_b.cost,
            "subalg4": sol_c.cost,
        },
        lower_bounds={"radial": radial_lower_bound(inst)},
        feasible=feas.ok,
        alpha_tag=tour.quality_tag,
        seed=seed,
        lp_solved=rep_b.lp_solved or rep_c.lp_solved,
    )
    return sol, report
