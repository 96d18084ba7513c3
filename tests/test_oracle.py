import pytest

from ucvrp.algorithms import alg1, default_tour
from ucvrp.big_matching import subalg1
from ucvrp.instance import gen_instance, radial_lower_bound
from ucvrp.oracle import InstanceTooLarge, exact_cvrp
from ucvrp.solution import check_feasible
from ucvrp.tsp import exact_tsp

from conftest import instance_mix


class TestExactSolver:
    def test_line3(self, inst_line3):
        res = exact_cvrp(inst_line3)
        assert res.opt_cost == pytest.approx(8.0, abs=1e-12)
        assert {t.customers for t in res.tours} == {frozenset({1}), frozenset({2, 3})}
        assert sum(t.cost for t in res.tours) == pytest.approx(res.opt_cost)

    def test_to_solution(self, inst_line3):
        res = exact_cvrp(inst_line3)
        sol = res.to_solution()
        assert check_feasible(inst_line3, sol).ok
        assert sol.cost == pytest.approx(res.opt_cost)

    def test_partition_covers_everything(self):
        for inst in instance_mix(15, max_n=9, max_k=4, seed_base=500):
            res = exact_cvrp(inst)
            union = set()
            for g in (t.customers for t in res.tours):
                assert not (union & g)
                union |= g
                assert sum(inst.demand(v) for v in g) <= inst.capacity
            assert union == set(inst.customers)
            sol = res.to_solution()
            assert check_feasible(inst, sol).ok
            assert sol.cost == pytest.approx(res.opt_cost, abs=1e-9)

    def test_never_beaten_by_heuristics(self):
        for inst in instance_mix(12, max_n=9, max_k=4, seed_base=510):
            opt = exact_cvrp(inst).opt_cost
            tour = default_tour(inst)
            assert subalg1(inst, tour).cost >= opt - 1e-9
            sol, _ = alg1(inst, seed=3)
            assert sol.cost >= opt - 1e-9

    def test_lower_bounds_hold(self):
        for inst in instance_mix(12, max_n=9, max_k=4, seed_base=520):
            opt = exact_cvrp(inst).opt_cost
            assert radial_lower_bound(inst) <= opt + 1e-9
            assert exact_tsp(inst, inst.customers).cost <= opt + 1e-9

    def test_size_cap(self):
        inst = gen_instance("euclidean", 15, 3, seed=0)
        with pytest.raises(InstanceTooLarge):
            exact_cvrp(inst)
