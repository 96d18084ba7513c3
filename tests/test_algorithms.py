import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import ucvrp.algorithms as algorithms
from ucvrp import lp_round, oracle, tsp
from ucvrp.algorithms import alg1, alg2, default_tour, lp_itp_pipeline
from ucvrp.big_matching import serve_big_by_matching
from ucvrp.constants import default_gammas
from ucvrp.instance import (METRIC_TOL, Instance, _euclidean, gen_instance,
                            validate_instance)
from ucvrp.lp_round import enumerate_tours, round_tours, solve_covering_lp
from ucvrp.oracle import exact_cvrp
from ucvrp.solution import check_feasible
from ucvrp.tsp import approx_tsp, exact_tsp

from conftest import instance_mix

THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


class TestPipeline:
    def test_gamma_zero_skips_lp(self, inst_line3, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("catalog construction must not run")

        monkeypatch.setattr(algorithms, "enumerate_tours", boom)
        tour = default_tour(inst_line3)
        sol, rep = lp_itp_pipeline(inst_line3, "lp1", 0.0, THIRD, 0, tour)
        assert not rep.lp_solved
        assert check_feasible(inst_line3, sol).ok

    def test_feasible_across_instances(self):
        for inst in instance_mix(10, max_n=8, max_k=4, seed_base=600):
            tour = default_tour(inst)
            sol, rep = lp_itp_pipeline(inst, "lp1", 1.0, THIRD, 1, tour)
            assert check_feasible(inst, sol).ok
            assert rep.feasible
            assert rep.cost == pytest.approx(sol.cost)

    def test_restricted_variant_serves_small_by_partition(self):
        for inst in instance_mix(8, max_n=8, max_k=6, seed_base=610):
            tour = default_tour(inst)
            sol, rep = lp_itp_pipeline(
                inst, "lp2", 1.0, THIRD, 2, tour, delta_lp=FIFTH
            )
            assert check_feasible(inst, sol).ok

    def test_tour_must_cover_everything(self, inst_line3, monkeypatch):
        # Every LP solver checks a given tour first, before any catalog is
        # enumerated.
        def boom(*args):
            raise AssertionError("a catalog was enumerated")

        monkeypatch.setattr(lp_round, "feasible_masks", boom)
        tour = exact_tsp(inst_line3, [1])
        for solve in (partial(lp_itp_pipeline, inst_line3, "lp1", 1.0, THIRD, 0),
                      partial(alg1, inst_line3, 0), partial(alg2, inst_line3, FIFTH, 0)):
            with pytest.raises(ValueError, match="^tour must cover all customers$"):
                solve(tour=tour)

    def test_precomputed_lp_matches(self):
        inst = gen_instance("euclidean", 7, 3, seed=13)
        tour = default_tour(inst)
        cat = enumerate_tours(inst, "lp1")
        lp = solve_covering_lp(cat)
        a, _ = lp_itp_pipeline(inst, "lp1", 1.0, THIRD, 7, tour)
        b, _ = lp_itp_pipeline(
            inst, "lp1", 1.0, THIRD, 7, tour, catalog=cat, lpsol=lp
        )
        assert a.cost == pytest.approx(b.cost, abs=1e-12)
        assert [t.vertices for t in a.tours] == [t.vertices for t in b.tours]


class TestAlg1:
    def test_line3_hits_optimum(self, inst_line3):
        sol, rep = alg1(inst_line3, seed=0)
        assert sol.cost == pytest.approx(8.0, abs=1e-9)
        assert rep.feasible
        assert rep.cost == pytest.approx(min(rep.branch_costs.values()), abs=1e-12)

    def test_feasible_and_reported(self):
        for inst in instance_mix(10, max_n=8, max_k=4, seed_base=620):
            sol, rep = alg1(inst, seed=1)
            assert check_feasible(inst, sol).ok
            assert rep.algorithm == "alg1"
            assert rep.lower_bounds["radial"] <= sol.cost + 1e-9
            json.loads(rep.to_json())  # report must serialize

    def test_seed_determinism(self):
        inst = gen_instance("euclidean", 7, 3, seed=31)
        a, _ = alg1(inst, seed=5)
        b, _ = alg1(inst, seed=5)
        assert a.cost == pytest.approx(b.cost, abs=1e-12)
        assert [t.vertices for t in a.tours] == [t.vertices for t in b.tours]

    def test_large_catalog_falls_back(self):
        inst = gen_instance("euclidean", 25, 3, seed=2)
        sol, rep = alg1(inst, seed=0)
        assert check_feasible(inst, sol).ok
        assert not rep.lp_solved
        assert any("catalog" in n for n in rep.notes)

    def test_solves_past_a_patched_cap(self, monkeypatch):
        # n = 9 is past a cap of 2, but no feasible set at k = 2 is: the
        # depot tour is MST doubling and the catalog is priced alone.
        monkeypatch.setattr(tsp, "HELDKARP_CAP", 2)
        inst = gen_instance("euclidean", 9, 2, seed=1)
        for sol, rep in (alg1(inst, seed=1), alg2(inst, FIFTH, seed=1)):
            assert rep.alpha_tag == "two_approx" and rep.lp_solved
            assert rep.feasible and check_feasible(inst, sol).ok


class TestAlg2:
    def test_feasible_and_reported(self):
        for inst in instance_mix(8, max_n=8, max_k=6, seed_base=630):
            sol, rep = alg2(inst, FIFTH, seed=2)
            assert check_feasible(inst, sol).ok
            assert rep.algorithm == "alg2"
            assert rep.cost == pytest.approx(min(rep.branch_costs.values()), abs=1e-12)

    def test_delta_domain(self, inst_line3):
        with pytest.raises(ValueError):
            alg2(inst_line3, Fraction(1, 3))
        with pytest.raises(ValueError):
            alg2(inst_line3, Fraction(0))

    def test_never_far_from_optimum_small(self):
        for inst in instance_mix(6, max_n=7, max_k=4, seed_base=640):
            opt = exact_cvrp(inst).opt_cost
            sol, _ = alg2(inst, FIFTH, seed=0)
            assert opt - 1e-9 <= sol.cost <= 3.2 * opt + 1e-9


# No customer of SMALL exceeds 1/5 of the capacity, so its lp2 cover set
# is empty, and alg1 refuses the 25-customer catalog: no rounding sees gamma.
SMALL = gen_instance("euclidean", 3, 10, "heavy", seed=8)


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("solve", [
    lambda g: alg1(gen_instance("euclidean", 25, 3, seed=2), gamma=g),
    lambda g: lp_itp_pipeline(
        SMALL, "lp2", g, THIRD, 0, default_tour(SMALL), delta_lp=FIFTH
    ),
    lambda g: alg2(SMALL, FIFTH, gamma1=g),
    lambda g: alg2(SMALL, FIFTH, gamma2=g),
], ids=["alg1-fallback", "pipeline-lp2-empty", "alg2-gamma1", "alg2-gamma2"])
def test_gamma_checked_before_any_branch(solve, gamma):
    with pytest.raises(ValueError, match="gamma must be finite and non-negative"):
        solve(gamma)


@pytest.mark.parametrize("solve", [
    lambda inst, cat, lp: alg1(inst, catalog=cat, lpsol=lp),
    lambda inst, cat, lp: alg2(inst, Fraction(1, 10), catalog=cat, lpsol=lp),
], ids=["alg1-given-lp2", "alg2-given-other-delta"])
def test_rejects_catalog_of_another_branch(solve):
    inst = gen_instance("euclidean", 7, 3, seed=13)
    cat = enumerate_tours(inst, "lp2", FIFTH)
    with pytest.raises(ValueError, match=r"lp2\(1/5\) catalog for"):
        solve(inst, cat, solve_covering_lp(cat))


@pytest.mark.parametrize("solve", [
    lambda inst, lp: alg1(inst, seed=1, lpsol=lp("lp1")),
    lambda inst, lp: alg2(inst, FIFTH, seed=1, lpsol=lp("lp2", FIFTH)),
    lambda inst, lp: lp_itp_pipeline(inst, "lp1", 1.0, THIRD, 1, lpsol=lp("lp1")),
], ids=["alg1", "alg2", "pipeline-lp1"])
def test_rejects_lp_solution_without_its_catalog(solve):
    # The reversed metric has catalogs of the same sizes, so its LP could be
    # rounded against the other instance's catalog without an error.
    inst = gen_instance("euclidean", 9, 3, seed=1)
    other = replace(inst, metric=inst.metric[::-1, ::-1], coords=None)
    with pytest.raises(ValueError, match="without the catalog"):
        solve(inst, lambda *variant: solve_covering_lp(enumerate_tours(other, *variant)))


@pytest.mark.parametrize("solve", [
    lambda inst, cat, lp: alg1(inst, seed=1, catalog=cat("lp1"), lpsol=lp("lp1")),
    lambda inst, cat, lp: alg2(inst, FIFTH, seed=1, catalog=cat("lp2", FIFTH),
                               lpsol=lp("lp2", FIFTH)),
    lambda inst, cat, lp: lp_itp_pipeline(inst, "lp1", 1.0, THIRD, 1, catalog=cat("lp1"),
                                          lpsol=lp("lp1")),
], ids=["alg1", "alg2", "pipeline-lp1"])
def test_rejects_lp_solution_of_another_catalog(solve):
    # Both instances' catalogs hold as many tours, so the other LP was once
    # rounded silently: alg1 returned 8.8586 for 8.4276, alg2 8.2746 for 7.9083.
    inst = gen_instance("euclidean", 9, 3, seed=1)
    other = replace(inst, metric=inst.metric[::-1, ::-1], coords=None)
    with pytest.raises(ValueError, match="another catalog"):
        solve(inst, lambda *variant: enumerate_tours(inst, *variant),
              lambda *variant: solve_covering_lp(enumerate_tours(other, *variant)))


def test_takes_lp_solution_of_an_equal_catalog():
    inst = gen_instance("euclidean", 9, 3, seed=1)
    cat, lp = enumerate_tours(inst, "lp1"), solve_covering_lp(enumerate_tours(inst, "lp1"))
    assert lp.catalog is not cat and lp.catalog == cat
    assert alg1(inst, seed=1, catalog=cat, lpsol=lp) == alg1(inst, seed=1)
    # The catalog is kept out of the LP solution's equality, repr and JSON.
    assert lp == replace(lp, catalog=None)
    assert "catalog" not in repr(lp) and "catalog" not in lp.to_json_dict()


# Coordinates in metres over a few thousand km: an absolute tie tolerance
# in the walk is below the rounding of costs near 1e7, and failed to
# reconstruct a tour on 21 of these 40 instances at x1e7 and 39 at x1e8.
@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_alg1_at_coordinates_scaled_by_1e7_and_1e8(scale):
    for seed in range(40):
        inst = gen_instance("euclidean", 10, 3, seed=seed)
        pts = np.array(inst.coords) * scale
        inst = validate_instance(replace(inst, metric=_euclidean(pts),
                                         coords=tuple(map(tuple, pts.tolist()))))
        sol, report = alg1(inst, seed=0)
        assert report.feasible and check_feasible(inst, sol).ok


def test_cold_solves_walk_only_the_tours_rounding_selects(walks):
    # The depot tour, then each entry a branch's rounding selects, once.
    g = default_gammas()
    walked = listed = 0
    for inst in instance_mix(12, max_n=13, max_k=5, seed_base=8200):
        for seed in (0, 1):
            for solve, gammas in ((partial(alg1, inst, seed=seed), [g.gamma_star]),
                                  (partial(alg2, inst, FIFTH, seed=seed), [g.gamma1, g.gamma2])):
                walks.clear()
                _, rep = solve()
                want = []
                if rep.lp is not None:  # alg2 solves none with no customer above 1/5
                    cat, lp = rep.lp
                    picked = dict.fromkeys(j for gamma in gammas
                                           for j in round_tours(cat, lp, gamma, seed).selected)
                    want = [cat.customers(j) for j in picked]
                    walked, listed = walked + len(want), listed + len(cat.tours)
                assert walks == [frozenset(inst.customers), *want]
    assert 0 < walked < listed / 2


def test_lp1_pipeline_drops_delta_lp():
    inst = gen_instance("euclidean", 9, 3, seed=1)
    cat = enumerate_tours(inst, "lp1")
    reports = [
        lp_itp_pipeline(inst, "lp1", 1.0, THIRD, 0, delta_lp=FIFTH, **given)[1]
        for given in ({}, {"catalog": cat, "lpsol": solve_covering_lp(cat)})
    ]
    assert [rep.params["delta_lp"] for rep in reports] == [None, None]
    assert reports[0].to_json() == reports[1].to_json()


# n = 10, k = 4: every LP row solves its LP here.
REPORT_CASE = gen_instance("euclidean", 10, 4, seed=1)
LP_ROWS = {"subalg2", "subalg3", "subalg4", "alg1", "alg2"}


@pytest.mark.parametrize("name", list(algorithms.SOLVERS))
def test_report_holds_trace_and_lp_outside_its_json(name):
    solver = algorithms.SOLVERS[name]
    sol, rep = solver.run(REPORT_CASE, FIFTH if solver.needs_delta else None, None, 0)
    assert rep.feasible and rep.cost == sol.cost
    assert not {"trace", "lp"} & set(rep.to_json_dict())
    assert rep.lp_solved == (name in LP_ROWS)
    assert (rep.lp is not None) == rep.lp_solved
    if rep.lp is not None:
        catalog, lpsol = rep.lp
        assert len(lpsol.values) == len(catalog.tours)
    assert (rep.trace is not None) == solver.traces
    bare = replace(rep, trace=None, lp=None)
    assert bare == rep
    assert bare.to_json() == rep.to_json()


@pytest.mark.parametrize("name", list(algorithms.SOLVERS))
def test_zero_customers(name):
    inst = Instance("z", 3, (), np.zeros((1, 1)))
    solver = algorithms.SOLVERS[name]
    sol, rep = solver.run(inst, FIFTH if solver.needs_delta else None, None, 0)
    assert sol.cost == rep.cost == 0.0
    assert rep.feasible and check_feasible(inst, sol).ok
    assert not rep.lp_solved and rep.lp is None


# An lp2 catalog outside (0, 1/3) is noted, whichever side it falls on.
# subalg4 also partitions at delta, which must lie in [0, 1/2), and
# subalg3's catalog takes the same domain: outside it (noted None) both refuse.
@pytest.mark.parametrize("name, delta, noted", [
    ("subalg3", Fraction(-1, 5), None),
    ("subalg3", Fraction(0), True),
    ("subalg4", Fraction(0), True),
    ("subalg3", FIFTH, False),
    ("subalg4", FIFTH, False),
    ("subalg3", THIRD, True),
    ("subalg4", Fraction(2, 5), True),
    ("subalg3", Fraction(2, 5), True),
    ("subalg3", Fraction(1, 2), None),
    ("subalg4", Fraction(-1, 5), None),
    ("subalg4", Fraction(1, 2), None),
])
def test_lp2_outside_the_analysis_regime_is_noted(name, delta, noted):
    solve = partial(algorithms.SOLVERS[name].run, REPORT_CASE, delta, None, 0)
    if noted is None:
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1/2\)"):
            solve()
        return
    _, rep = solve()
    note = f"delta_lp={delta} outside the (0, 1/3) analysis regime"
    assert rep.notes == ((note,) if noted else ())


@pytest.mark.parametrize("solve", [
    lambda inst: alg1(inst, seed=3),
    lambda inst: alg2(inst, FIFTH, seed=3),
], ids=["alg1", "alg2"])
def test_checks_feasibility_once(solve, monkeypatch):
    calls = []
    real = algorithms.check_feasible

    def counting(inst, sol):
        calls.append(inst.name)
        return real(inst, sol)

    monkeypatch.setattr(algorithms, "check_feasible", counting)
    _, rep = solve(gen_instance("euclidean", 8, 3, seed=5))
    assert rep.feasible
    assert len(calls) == 1


def test_warm_solves_make_no_exact_tours(monkeypatch):
    # Each catalog entry and each oracle group holds the tour it was priced
    # by, so a solve given its tour, catalogs and LPs re-solves no tour.
    inst = gen_instance("euclidean", 9, 3, seed=5)
    tour = default_tour(inst)
    cat1 = enumerate_tours(inst, "lp1")
    cat2 = enumerate_tours(inst, "lp2", FIFTH)
    lp1, lp2 = solve_covering_lp(cat1), solve_covering_lp(cat2)
    result = exact_cvrp(inst)
    calls = []
    for module in (tsp, algorithms, oracle):
        real = getattr(module, "exact_tsp", None)
        if real is not None:
            def counting(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "exact_tsp", counting)
    for seed in range(4):
        alg1(inst, seed=seed, tour=tour, catalog=cat1, lpsol=lp1)
        alg2(inst, FIFTH, seed=seed, tour=tour, catalog=cat2, lpsol=lp2)
    result.to_solution()
    assert calls == []
    gamma = default_gammas().gamma_star
    assert any(round_tours(cat1, lp1, gamma, seed).selected for seed in range(4))


def tie_heavy(n, k, seed, lengths):
    """A generated instance's demands on a metric whose distances are all
    drawn from ``lengths`` (1 and 2 keep the triangle inequality)."""
    base = gen_instance("euclidean", n, k, seed=seed)
    upper = np.random.default_rng(seed).choice(lengths, n * (n + 1) // 2)
    m = np.zeros((n + 1, n + 1))
    m[np.triu_indices(n + 1, 1)] = upper
    return Instance(f"ties{lengths}", k, base.demands, m + m.T)


def skewed(inst):
    """``inst`` with every c(r, v) from the depot raised by half the
    asymmetry ``validate_instance`` forgives: a singleton's tour then
    costs c(r,v) + c(v,r), not 2 c(r,v)."""
    m = inst.metric.copy()
    m[0, 1:] += 0.5 * METRIC_TOL
    return validate_instance(Instance("skewed", inst.capacity, inst.demands, m))


CATALOG_CASES = [
    *instance_mix(14, max_n=9, max_k=10, seed_base=8100),
    *(tie_heavy(n, k, n, lengths) for n, k in ((6, 4), (9, 10))
      for lengths in ([1.0], [1.0, 2.0])),
    *(skewed(gen_instance(kind, n, k, seed=n))
      for kind, n, k in (("euclidean", 2, 3), ("random_metric", 7, 10), ("euclidean", 9, 4))),
]


def catalog_rows(catalog):
    return [(t.customers, t.vertices, t.quality_tag, cost.hex(), catalog.digest(j))
            for j, (t, cost) in enumerate(zip(catalog.tours, catalog.costs.tolist()))]


@pytest.mark.parametrize("variant, delta", [
    ("lp1", None), ("lp2", Fraction(1, 10)), ("lp2", FIFTH), ("lp2", Fraction(2, 5)),
])
def test_catalog_from_the_depot_table_equals_enumerated(variant, delta):
    # A set's Held-Karp column is the same floats in the full table as in a
    # table over the catalog's sets alone, and lp2's ground positions keep
    # their order as customer bits, so both read the same tours.
    proper = 0
    for inst in CATALOG_CASES:
        tour, catalog, _ = algorithms._catalog_lp(inst, variant, delta)
        want = enumerate_tours(inst, variant, delta)
        assert tour == exact_tsp(inst, inst.customers)
        assert tour.cost.hex() == exact_tsp(inst, inst.customers).cost.hex()
        assert catalog_rows(catalog) == catalog_rows(want)
        assert (catalog.variant, catalog.delta, catalog.cover_set) == (
            want.variant, want.delta, want.cover_set)
        proper += 0 < len(catalog.cover_set) < inst.n
    if variant == "lp2":
        assert proper  # some ground set is a proper, non-empty subset
    # Either argument given keeps the solve on its own tour or catalog.
    inst = CATALOG_CASES[1]
    given, want = default_tour(inst), enumerate_tours(inst, variant, delta)
    tour, catalog, _ = algorithms._catalog_lp(inst, variant, delta, tour=given)
    assert tour is given and catalog_rows(catalog) == catalog_rows(want)
    assert algorithms._catalog_lp(inst, variant, delta, catalog=want)[:2] == (None, want)


@pytest.mark.parametrize("solve", [
    lambda inst, tour: alg1(inst, seed=3, tour=tour),
    lambda inst, tour: alg2(inst, FIFTH, seed=3, tour=tour),
], ids=["alg1", "alg2"])
def test_cold_solve_equals_solve_given_its_tour(solve):
    for inst in CATALOG_CASES:
        a_sol, a_rep = solve(inst, None)
        b_sol, b_rep = solve(inst, default_tour(inst))
        assert [t.vertices for t in a_sol.tours] == [t.vertices for t in b_sol.tours]
        assert a_sol.cost.hex() == b_sol.cost.hex()
        assert a_rep.to_json() == b_rep.to_json()


@pytest.mark.parametrize("n", [1, 2])
def test_depot_tour_of_one_customer_is_exact_tsps(monkeypatch, n):
    # At n = 1 as at n = 2 the depot tour comes off the catalog's table,
    # so default_tour never runs.  exact_tsp tours a singleton like the
    # catalog does, at its route cost c(r,v) + c(v,r), even when skewed.
    inst = skewed(gen_instance("euclidean", n, 3, seed=3))
    want = inst.route_cost((0, 1, 0))
    assert want != 2 * inst.metric[0, 1]
    assert exact_tsp(inst, [1]).cost.hex() == want.hex()
    assert enumerate_tours(inst, "lp1").tours[0].cost.hex() == want.hex()
    calls = []
    real = algorithms.default_tour

    def counting(inst):
        calls.append(inst.name)
        return real(inst)

    monkeypatch.setattr(algorithms, "default_tour", counting)
    alg1(inst)
    alg2(inst, FIFTH)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 9, 18])
def test_one_table_per_cold_solve(monkeypatch, n):
    inst = gen_instance("euclidean", n, 4, seed=n)
    tour = default_tour(inst)
    cat1, cat2 = enumerate_tours(inst, "lp1"), enumerate_tours(inst, "lp2", FIFTH)
    lp1, lp2 = solve_covering_lp(cat1), solve_covering_lp(cat2)
    tables = []
    real = tsp._held_karp

    def counting(sub, family):
        tables.append(len(family.masks))
        return real(sub, family)

    monkeypatch.setattr(tsp, "_held_karp", counting)
    alg1(inst, seed=1)
    assert tables == [(1 << n) - 1]
    alg2(inst, FIFTH, seed=1)
    assert tables == [(1 << n) - 1] * 2
    alg1(inst, seed=1, tour=tour, catalog=cat1, lpsol=lp1)
    alg2(inst, FIFTH, seed=1, tour=tour, catalog=cat2, lpsol=lp2)
    assert len(tables) == 2


# sha256 of the rows built below.  A solution or report that changes but
# stays feasible passes every other test; change this only with the outputs.
PINNED_DIGEST = "2bc2611fd1c222f82acaef21df10ec82f063c675236387813eb6f8f163a7ffaa"


def test_solve_outputs_pinned():
    g = default_gammas()
    rows = []

    def record(sol, rep):
        rows.append([
            repr(sol.cost),
            [t.vertices for t in sol.tours],
            sorted(sol.assignment.items()),
            rep.to_json(),
        ])

    for inst in instance_mix(40, max_n=12, max_k=8, seed_base=7000):
        tour = default_tour(inst)
        for seed in (0, 1):
            record(*alg1(inst, seed=seed, tour=tour))
            record(*alg1(inst, seed=seed, gamma=0.0, tour=tour))
            record(*alg2(inst, FIFTH, seed=seed, tour=tour))
            record(*alg2(inst, Fraction(1, 10), seed=seed, gamma1=0.0, tour=tour))
            record(*lp_itp_pipeline(inst, "lp1", g.gamma_star, THIRD, seed, tour))
            for delta_lp in (FIFTH, Fraction(2, 5)):
                record(*lp_itp_pipeline(
                    inst, "lp2", g.gamma2, FIFTH, seed, tour, delta_lp=delta_lp
                ))
    # 25 ground customers: alg1 falls back to gamma = 0.
    fallback = gen_instance("euclidean", 25, 3, seed=2)
    for seed in (0, 1):
        record(*alg1(fallback, seed=seed))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PINNED_DIGEST, digest


# sha256 of the rows built below: the MST tour, the big-customer matching
# and alg1 (refused catalog, gamma = 0) at the sizes of the large path.
LARGE_PINNED_DIGEST = "0fc7237f3dffff76e75f74ca5c8c24407ece37af1a3b5e503c916dfed2e63355"


def test_large_path_outputs_pinned():
    rows = []
    for kind in ("euclidean", "random_metric"):
        for n in (150, 163, 200):
            for seed in (0, 1):
                inst = gen_instance(kind, n, 10, seed=seed)
                tour = approx_tsp(inst, inst.customers)
                plan, _ = serve_big_by_matching(inst)
                sol, rep = alg1(inst, seed=seed, tour=tour)
                rows.append([
                    repr(tour.cost), tour.vertices,
                    repr(plan.cost), sorted(plan.pairs), sorted(plan.solos),
                    repr(sol.cost), [t.vertices for t in sol.tours], rep.to_json(),
                ])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == LARGE_PINNED_DIGEST
