import gc
import tracemalloc

import pytest

from ucvrp.big_matching import (
    BIG_THRESHOLD,
    serve_big_by_matching,
    subalg1,
    subalg1_bound,
)
from ucvrp.instance import gen_instance
from ucvrp.oracle import exact_cvrp
from ucvrp.solution import check_feasible
from ucvrp.tsp import exact_tsp

from conftest import instance_mix
from reference import best_cover_bruteforce, norm_demand
from test_instance import line_instance


class TestLine3Canonical:
    def test_plan(self, inst_line3):
        plan, sol = serve_big_by_matching(inst_line3)
        assert plan.pairs == frozenset({(2, 3)})
        assert plan.solos == frozenset({1})
        assert plan.cost == pytest.approx(8.0, abs=1e-12)
        assert check_feasible(inst_line3, sol).ok
        assert sol.cost == pytest.approx(plan.cost)

    def test_plan_json(self, inst_line3):
        plan, _ = serve_big_by_matching(inst_line3)
        payload = plan.to_json_dict()
        assert payload["pairs"] == [[2, 3]]
        assert payload["solos"] == [1]


class TestMatchingOptimality:
    def test_agrees_with_bruteforce(self):
        for inst in instance_mix(30, max_n=8, max_k=6, seed_base=400):
            plan, sol = serve_big_by_matching(inst)
            big = [v for v in inst.customers if norm_demand(inst, v) > BIG_THRESHOLD]
            assert plan.cost == pytest.approx(
                best_cover_bruteforce(inst, big), abs=1e-9
            )
            if big:
                assert set(sol.assignment) == set(big)
            for u, v in plan.pairs:
                assert norm_demand(inst, u) + norm_demand(inst, v) <= 1

    def test_cost_below_optimum(self):
        for inst in instance_mix(20, max_n=9, max_k=4, seed_base=410):
            plan, _ = serve_big_by_matching(inst)
            assert plan.cost <= exact_cvrp(inst).opt_cost + 1e-6

    def test_no_big_customers(self):
        inst = line_instance([1.0, 2.0], capacity=9, demands=(1, 2))
        plan, sol = serve_big_by_matching(inst)
        assert plan.cost == 0.0
        assert not sol.tours

    def test_bruteforce_cap(self, inst_line3):
        with pytest.raises(ValueError):
            best_cover_bruteforce(inst_line3, range(1, 14))


def test_matching_frees_its_graph():
    # networkx's matching leaves a reference cycle behind; with the cyclic
    # collector off, whatever it holds stays allocated after the call.
    # ~65 KB stays with the graph emptied, the result included, and
    # ~440 KB when the cycle still holds the savings graph.
    inst = gen_instance("euclidean", 200, 10, seed=1)
    serve_big_by_matching(inst)  # first-call imports and caches
    gc.disable()
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = serve_big_by_matching(inst)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert result[0].pairs
    assert held < 200_000


class TestMatchingBranch:
    def test_mixed_demand_example(self):
        # Capacity 6, demands 1 and 4 at line positions 1 and 2: the heavy
        # customer goes solo (4), the light one gets its own segment (2).
        inst = line_instance([1.0, 2.0], capacity=6, demands=(1, 4))
        tour = exact_tsp(inst, [1, 2])
        sol = subalg1(inst, tour)
        assert check_feasible(inst, sol).ok
        assert sol.cost == pytest.approx(6.0, abs=1e-12)
        plan, _ = serve_big_by_matching(inst)
        bound = subalg1_bound(inst, tour.cost, plan.cost)
        assert bound == pytest.approx(8.5, abs=1e-12)
        assert sol.cost <= bound + 1e-9

    def test_feasible_and_bounded(self):
        for inst in instance_mix(25, max_n=14, max_k=8, seed_base=420):
            tour = exact_tsp(inst, inst.customers)
            sol = subalg1(inst, tour)
            assert check_feasible(inst, sol).ok
            plan, _ = serve_big_by_matching(inst)
            assert sol.cost <= subalg1_bound(inst, tour.cost, plan.cost) + 1e-9

    def test_tour_must_cover_everything(self, inst_line3):
        with pytest.raises(ValueError):
            subalg1(inst_line3, exact_tsp(inst_line3, [1, 2]))

    def test_all_big(self, inst_line3):
        tour = exact_tsp(inst_line3, [1, 2, 3])
        sol = subalg1(inst_line3, tour)
        assert sol.cost == pytest.approx(8.0)
