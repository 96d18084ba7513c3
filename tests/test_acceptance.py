"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single PASS/FAIL
line on the real stderr stream (bypassing capture) so the verdicts are
visible in plain test logs.
"""

import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import ucvrp.algorithms as algorithms
from ucvrp.algorithms import alg1, alg2, lp_itp_pipeline
from ucvrp.big_matching import serve_big_by_matching, subalg1, subalg1_bound
from ucvrp.cli import main as cli_main
from ucvrp.constants import (
    appendix_a2,
    f_epsilon,
    ratio_alg1,
    ratio_alg2,
    solve_y0,
    solve_y0_eps,
    solve_y1,
    solve_y1_eps,
)
from ucvrp.instance import f_integral, gen_instance, line3, radial_lower_bound
from ucvrp.itp import delta_itp, delta_itp_plus, itp_bound
from ucvrp.lp_round import (
    enumerate_tours,
    round_tours,
    solve_covering_lp,
)
from ucvrp.oracle import exact_cvrp
from ucvrp.solution import check_feasible
from ucvrp.tsp import approx_tsp, exact_tsp, shortcut

from reference import rounding_monte_carlo

THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)
DELTAS = (Fraction(0), Fraction(1, 10), THIRD, Fraction(49, 100))


def verdict(criterion: str, failures: list, cap) -> None:
    status = "PASS" if not failures else "FAIL"
    with cap.disabled():
        sys.stderr.write(f"ACCEPTANCE {criterion}: {status}\n")
        sys.stderr.flush()
    assert not failures, failures[:10]


def mixed_instances(count, max_n, max_k, seed_base):
    out = []
    for i in range(count):
        kind = "euclidean" if i % 2 else "random_metric"
        law = "uniform" if i % 3 else "heavy"
        n = 1 + (i * 7) % max_n
        k = 1 + (i * 3) % max_k
        out.append(gen_instance(kind, n, k, law, seed=seed_base + i))
    return out


def test_criterion_1_constants_regression(capfd):
    failures = []
    if not solve_y0().lo > 0.39312:
        failures.append("y0 enclosure too low")
    if not ratio_alg1(1.5) < 3.0897:
        failures.append("fixed-capacity headline ratio")
    if not solve_y1()[0].lo > 0.17458:
        failures.append("y1 enclosure too low")
    if not ratio_alg2(1.5, 1e-10) < 3.1759:
        failures.append("general-capacity headline ratio")
    if not f_epsilon(0.000335).value < 0.49967:
        failures.append("overhead value at eps=0.000335")
    if not f_epsilon(0.000334).value < 0.49915:
        failures.append("overhead value at eps=0.000334")
    if not solve_y0_eps(0.000335).lo > 0.39305:
        failures.append("eps-adjusted y0")
    if not solve_y1_eps(0.000334).lo > 0.17457:
        failures.append("eps-adjusted y1")
    rep = appendix_a2()
    if not rep.final_fixed <= 3.0894:
        failures.append(f"refined fixed ratio {rep.final_fixed}")
    if not rep.final_general <= 3.1755:
        failures.append(f"refined general ratio {rep.final_general}")
    if not rep.improvement_fixed >= 0.00031:
        failures.append(f"fixed improvement {rep.improvement_fixed}")
    if not rep.improvement_general >= 0.00039:
        failures.append(f"general improvement {rep.improvement_general}")
    verdict("1 constants-regression", failures, capfd)


def test_criterion_2_lower_bounds(capfd):
    failures = []
    for inst in mixed_instances(200, max_n=9, max_k=4, seed_base=1000):
        opt = exact_cvrp(inst).opt_cost
        tol = 1e-6
        if radial_lower_bound(inst) > opt + tol:
            failures.append(f"{inst.name}: radial bound")
        if exact_tsp(inst, inst.customers).cost > opt + tol:
            failures.append(f"{inst.name}: tour bound")
        lp1 = solve_covering_lp(enumerate_tours(inst, "lp1"))
        if lp1.objective > opt + tol:
            failures.append(f"{inst.name}: full-catalog LP bound")
        lp2 = solve_covering_lp(enumerate_tours(inst, "lp2", FIFTH))
        if lp2.objective > opt + tol:
            failures.append(f"{inst.name}: restricted-catalog LP bound")
        plan, _ = serve_big_by_matching(inst)
        if plan.cost > opt + tol:
            failures.append(f"{inst.name}: matching bound")
    verdict("2 lower-bound-suite", failures, capfd)


def test_criterion_3_partition_bounds(capfd):
    failures = []
    for i, inst in enumerate(mixed_instances(500, max_n=40, max_k=10, seed_base=2000)):
        if inst.n <= 10:
            tour = exact_tsp(inst, inst.customers)
        else:
            tour = approx_tsp(inst, inst.customers)
        plan, _ = serve_big_by_matching(inst)
        sol1 = subalg1(inst, tour)
        if sol1.cost > subalg1_bound(inst, tour.cost, plan.cost) + 1e-9:
            failures.append(f"{inst.name}: matching-branch bound")
        for delta in DELTAS:
            sol, _ = delta_itp(inst, set(inst.customers), tour, delta)
            b3 = itp_bound(inst, inst.customers, tour.cost, delta, "lemma3")
            if sol.cost > b3 + 1e-9:
                failures.append(f"{inst.name} d={delta}: partition bound")
            if not check_feasible(inst, sol).ok:
                failures.append(f"{inst.name} d={delta}: partition infeasible")
            plus = delta_itp_plus(inst, set(inst.customers), tour, delta)
            b4 = itp_bound(inst, inst.customers, tour.cost, delta, "lemma4")
            if plus.cost > b4 + 1e-9:
                failures.append(f"{inst.name} d={delta}: trivial-variant bound")
            if b4 > b3 + 1e-9:
                failures.append(f"{inst.name} d={delta}: bound ordering")
            if not check_feasible(inst, plus).ok:
                failures.append(f"{inst.name} d={delta}: variant infeasible")
    verdict("3 partition-bound-suite", failures, capfd)


def test_criterion_4_rounding_statistics(capfd):
    failures = []
    n_seeds = 10_000
    seeds = range(n_seeds)
    for i in range(20):
        inst = gen_instance("euclidean", 4 + i % 5, 2 + i % 3, seed=3000 + i)
        catalog = enumerate_tours(inst, "lp1")
        lpsol = solve_covering_lp(catalog)
        for gamma in (0.5, 1.0, 2.0):
            costs, freq = rounding_monte_carlo(catalog, lpsol, gamma, seeds)
            p = math.exp(-gamma)
            tol = 3.0 * math.sqrt(p / n_seeds)
            for v, fr in freq.items():
                if fr > p + tol:
                    failures.append(
                        f"{inst.name} g={gamma}: customer {v} uncovered {fr:.4f}"
                    )
            mean = float(costs.mean())
            se = float(costs.std(ddof=1)) / math.sqrt(n_seeds)
            # The 1e-9 guard covers degenerate cases where the LP optimum
            # is integral and the selection is deterministic (se == 0).
            if mean > gamma * lpsol.objective + 3.0 * se + 1e-9:
                failures.append(f"{inst.name} g={gamma}: mean cost {mean:.4f}")
    verdict("4 rounding-statistics", failures, capfd)


def test_criterion_5_end_to_end_ratios(capfd):
    failures = []
    y0 = solve_y0().mid
    y1 = solve_y1()[0].mid
    bound1 = 2.0 + math.log(2.0 - 0.5 * y0)
    bound2 = 2.0 + y1 + math.log(2.0 - 2.0 * y1) + 2.0 * float(FIFTH)
    slack = 0.02
    seeds = range(50)
    for inst in mixed_instances(100, max_n=9, max_k=4, seed_base=4000):
        opt = exact_cvrp(inst).opt_cost
        tour = exact_tsp(inst, inst.customers)
        cat1 = enumerate_tours(inst, "lp1")
        lp1 = solve_covering_lp(cat1) if cat1.cover_set else None
        cat2 = enumerate_tours(inst, "lp2", FIFTH)
        lp2 = solve_covering_lp(cat2) if cat2.cover_set else None

        r1, r2 = [], []
        for seed in seeds:
            s1, rep1 = alg1(inst, seed=seed, tour=tour, catalog=cat1, lpsol=lp1)
            if not rep1.feasible:
                failures.append(f"{inst.name} s={seed}: alg1 infeasible")
            r1.append(s1.cost / opt)
            s2, rep2 = alg2(
                inst, FIFTH, seed=seed, tour=tour, catalog=cat2, lpsol=lp2
            )
            if not rep2.feasible:
                failures.append(f"{inst.name} s={seed}: alg2 infeasible")
            r2.append(s2.cost / opt)
        if sum(r1) / len(r1) > bound1 + slack:
            failures.append(f"{inst.name}: alg1 mean ratio {sum(r1)/len(r1):.4f}")
        if sum(r2) / len(r2) > bound2 + slack:
            failures.append(f"{inst.name}: alg2 mean ratio {sum(r2)/len(r2):.4f}")
        if min(r1) > bound1:
            failures.append(f"{inst.name}: alg1 min ratio {min(r1):.4f}")
        if min(r2) > bound2:
            failures.append(f"{inst.name}: alg2 min ratio {min(r2):.4f}")
    verdict("5 end-to-end-ratios", failures, capfd)


def test_criterion_6_identities(monkeypatch, capfd):
    failures = []
    # Demand-profile identity, exactly.
    for inst in mixed_instances(50, max_n=12, max_k=8, seed_base=5000):
        if f_integral(inst, Fraction(0), Fraction(1), 1) != 1.0:
            failures.append(f"{inst.name}: profile identity")

    # Shortcut monotonicity over random closed walks.
    rng = random.Random(6)
    inst = gen_instance("euclidean", 10, 3, seed=5100)
    for _ in range(1000):
        mid = [rng.randrange(0, 11) for _ in range(rng.randrange(1, 16))]
        walk = (0, *mid, 0)
        visited = [v for v in set(mid) if v != 0]
        keep = rng.sample(visited, rng.randrange(0, len(visited) + 1))
        t = shortcut(inst, walk, keep)
        if t.cost > inst.route_cost(walk) + 1e-9:
            failures.append("shortcut increased cost")
            break

    # Zero selection intensity must never build the catalog.
    def boom(*args, **kwargs):
        raise AssertionError("catalog construction must not run")

    monkeypatch.setattr(algorithms, "enumerate_tours", boom)
    l3 = line3()
    tour = exact_tsp(l3, [1, 2, 3])
    try:
        _, rep = lp_itp_pipeline(l3, "lp1", 0.0, THIRD, 0, tour)
        if rep.lp_solved:
            failures.append("zero-intensity pipeline reported an LP solve")
    except AssertionError:
        failures.append("zero-intensity pipeline built the catalog")
    monkeypatch.undo()

    # Canonical three-customer line outputs.
    if exact_cvrp(l3).opt_cost != 8.0:
        failures.append("canonical optimum")
    lp = solve_covering_lp(enumerate_tours(l3, "lp1"))
    if abs(lp.objective - 8.0) > 1e-9:
        failures.append("canonical LP objective")
    plan, _ = serve_big_by_matching(l3)
    if plan.cost != 8.0:
        failures.append("canonical matching cost")
    sol, _ = delta_itp(l3, {1, 2, 3}, tour, Fraction(0))
    if sol.cost != 8.0:
        failures.append("canonical partition cost")
    verdict("6 identity-suite", failures, capfd)


def test_criterion_7_cli_round_trip(tmp_path, capsys):
    failures = []
    path = tmp_path / "i.json"
    if cli_main(["gen", "-n", "6", "-k", "3", "--seed", "4", "--out", str(path)]) != 0:
        failures.append("generation failed")
    capsys.readouterr()

    outputs = []
    for _ in range(2):
        code = cli_main(["solve", str(path), "--alg", "alg1", "--seed", "11"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append("solve failed")
        payload = json.loads(out)
        for key in ("algorithm", "cost", "tours", "feasible", "lower_bounds",
                    "alpha_tag", "seed", "report"):
            if key not in payload:
                failures.append(f"solve output missing {key}")
        if not payload.get("feasible"):
            failures.append("solve reported infeasible")
        outputs.append(out)
    if outputs[0] != outputs[1]:
        failures.append("identical seeds produced different reports")

    code = cli_main(["exact", str(path)])
    out = capsys.readouterr().out
    if code != 0:
        failures.append("exact failed")
    exact_payload = json.loads(out)
    if not {"opt_cost", "partition", "group_costs"} <= set(exact_payload):
        failures.append("exact output incomplete")
    if json.loads(outputs[0])["cost"] < exact_payload["opt_cost"] - 1e-9:
        failures.append("heuristic beat the exact optimum")

    code = cli_main(["bench", "--suite", "small", "--seeds", "1"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append("bench failed")
    rows = json.loads(out)
    if not rows or any("ratio" not in r for r in rows):
        failures.append("bench output incomplete")
    verdict("7 cli-round-trip", failures, capsys)
