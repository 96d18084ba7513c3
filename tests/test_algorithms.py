import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import ucvrp.algorithms as algorithms
from ucvrp import oracle, tsp
from ucvrp.algorithms import alg1, alg2, default_tour, lp_itp_pipeline
from ucvrp.big_matching import serve_big_by_matching
from ucvrp.constants import default_gammas
from ucvrp.instance import METRIC_TOL, Instance, gen_instance, validate_instance
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

    def test_tour_must_cover_everything(self, inst_line3):
        from ucvrp.tsp import exact_tsp

        with pytest.raises(ValueError):
            lp_itp_pipeline(
                inst_line3, "lp1", 1.0, THIRD, 0, exact_tsp(inst_line3, [1])
            )

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
    asymmetry ``validate_instance`` forgives: a catalog singleton then
    costs c(r,v) + c(v,r), not ``exact_tsp``'s 2 c(r,v)."""
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
    return [(e.customers, e.tour.vertices, e.tour.quality_tag, e.cost.hex(), e.digest)
            for e in catalog.tours]


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
        if inst.n < 2:
            assert tour is None and catalog_rows(catalog) == catalog_rows(want)
            continue
        assert tour == exact_tsp(inst, inst.customers)
        assert tour.cost.hex() == exact_tsp(inst, inst.customers).cost.hex()
        assert catalog_rows(catalog) == catalog_rows(want)
        assert (catalog.variant, catalog.delta, catalog.cover_set, catalog.exact_priced) == (
            want.variant, want.delta, want.cover_set, want.exact_priced)
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


@pytest.mark.parametrize("n, built", [(1, 1), (2, 0)])
def test_depot_tour_of_one_customer_is_exact_tsps(monkeypatch, n, built):
    # At n = 1 no table is built and default_tour runs exact_tsp: a catalog
    # singleton's c(r,v) + c(v,r) differs from its 2 c(r,v) when skewed.
    inst = skewed(gen_instance("euclidean", n, 3, seed=3))
    assert exact_tsp(inst, [1]).cost != enumerate_tours(inst, "lp1").tours[0].cost
    calls = []
    real = algorithms.default_tour

    def counting(inst):
        calls.append(inst.name)
        return real(inst)

    monkeypatch.setattr(algorithms, "default_tour", counting)
    alg1(inst)
    alg2(inst, FIFTH)
    assert len(calls) == 2 * built


@pytest.mark.parametrize("n", [2, 9, 18])
def test_one_table_per_cold_solve(monkeypatch, n):
    inst = gen_instance("euclidean", n, 4, seed=n)
    tour = default_tour(inst)
    cat1, cat2 = enumerate_tours(inst, "lp1"), enumerate_tours(inst, "lp2", FIFTH)
    lp1, lp2 = solve_covering_lp(cat1), solve_covering_lp(cat2)
    tables = []
    real = tsp._held_karp

    def counting(sub, masks):
        tables.append(len(masks))
        return real(sub, masks)

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
