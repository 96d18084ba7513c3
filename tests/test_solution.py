from dataclasses import replace

import numpy as np
import pytest

from ucvrp.algorithms import alg1
from ucvrp.instance import from_json_dict, gen_instance
from ucvrp.solution import (
    COST_TOL,
    Solution,
    check_feasible,
    merge,
    trivial_solution,
)
from ucvrp.tsp import Tour, metric_scale


def tour(inst, *vertices):
    seq = (0, *vertices, 0)
    return Tour(seq, inst.route_cost(seq), "external")


class TestCheckFeasible:
    def test_good_solution(self, inst_line3):
        sol = Solution(
            (tour(inst_line3, 2, 3), tour(inst_line3, 1)),
            {2: 0, 3: 0, 1: 1},
        )
        rep = check_feasible(inst_line3, sol)
        assert rep.ok
        assert bool(rep)
        assert sol.cost == pytest.approx(8.0)

    def test_unserved(self, inst_line3):
        sol = Solution((tour(inst_line3, 1),), {1: 0})
        rep = check_feasible(inst_line3, sol)
        assert not rep.ok
        assert any(v.startswith("CustomerUnserved") for v in rep.violations)

    def test_served_off_tour(self, inst_line3):
        sol = Solution(
            (tour(inst_line3, 1), tour(inst_line3, 2), tour(inst_line3, 3)),
            {1: 0, 2: 0, 3: 2},
        )
        rep = check_feasible(inst_line3, sol)
        assert any(v.startswith("ServedOffTour") for v in rep.violations)

    def test_capacity_exceeded(self, inst_line3):
        sol = Solution((tour(inst_line3, 1, 2, 3),), {1: 0, 2: 0, 3: 0})
        rep = check_feasible(inst_line3, sol)
        assert any(v.startswith("CapacityExceeded") for v in rep.violations)

    def test_cost_mismatch(self, inst_line3):
        bad = Tour((0, 1, 0), 99.0, "external")
        sol = Solution(
            (bad, tour(inst_line3, 2, 3)),
            {1: 0, 2: 1, 3: 1},
        )
        rep = check_feasible(inst_line3, sol)
        assert any(v.startswith("CostMismatch") for v in rep.violations)

    @pytest.mark.parametrize("scale", [1e10, 1e11])
    def test_cost_check_scales_with_the_metric(self, scale):
        # At costs near 1e11 a correct tour's stated and recomputed costs
        # differ by more than 1e-6; the tolerance grows with the metric.
        for seed in range(40):
            data = gen_instance("euclidean", 10, 3, seed=seed).to_json_dict()
            data["metric"]["coords"] = [[scale * x, scale * y]
                                        for x, y in data["metric"]["coords"]]
            inst = from_json_dict(data)
            sol, report = alg1(inst)
            assert report.feasible, seed
            assert check_feasible(inst, sol).ok, seed

    @pytest.mark.parametrize("scale", [1.0, 1e10, 1e11])
    def test_scaled_cost_check_still_catches_a_mismatch(self, scale):
        data = gen_instance("euclidean", 10, 3, seed=30).to_json_dict()
        data["metric"]["coords"] = [[scale * x, scale * y] for x, y in data["metric"]["coords"]]
        inst = from_json_dict(data)
        sol, _ = alg1(inst)
        assert (metric_scale(inst.metric) == 1.0) == (scale == 1.0)
        off = 10 * COST_TOL * metric_scale(inst.metric)
        bad = replace(sol.tours[0], cost=sol.tours[0].cost + off)
        rep = check_feasible(inst, replace(sol, tours=(bad, *sol.tours[1:])))
        assert rep.violations == ("CostMismatch(0)",)

    def test_nan_cost_is_a_mismatch(self):
        inst = gen_instance("euclidean", 3, 3, seed=1)
        sol = trivial_solution(inst, [1, 2, 3])
        t = sol.tours[0]
        nan = Solution((Tour(t.vertices, float("nan"), t.quality_tag), *sol.tours[1:]),
                       sol.assignment)
        assert np.isnan(nan.cost)
        assert check_feasible(inst, nan).violations == ("CostMismatch(0)",)

    def test_unknown_customer_and_bad_index(self, inst_line3):
        sol = Solution(
            (tour(inst_line3, 1), tour(inst_line3, 2), tour(inst_line3, 3)),
            {1: 0, 2: 1, 3: 2, 9: 0},
        )
        rep = check_feasible(inst_line3, sol)
        assert any(v.startswith("UnknownCustomer") for v in rep.violations)
        sol2 = Solution((tour(inst_line3, 1),), {1: 5, 2: 0, 3: 0})
        rep2 = check_feasible(inst_line3, sol2)
        assert any(v.startswith("BadTourIndex") for v in rep2.violations)

    def test_tours_must_be_rooted_and_known(self):
        inst = gen_instance("euclidean", 3, 3, seed=1)

        def walk(*vertices):
            return Tour(vertices, inst.route_cost(vertices), "external")

        unrooted = Solution((walk(1, 2, 1), walk(0, 3, 0), walk(0, 1, 0)), {2: 0, 3: 1, 1: 2})
        assert check_feasible(inst, unrooted).violations == ("NotRooted(0)",)
        # A negative vertex would be priced on the last row; vertex n + 1
        # would raise IndexError from the cost recomputation.
        served = (walk(0, 1, 0), walk(0, 2, 0))
        extra = Solution(served + (walk(0, 3, 0), Tour((0, -1, 0), 0.0, "external")),
                         {1: 0, 2: 1, 3: 2})
        assert check_feasible(inst, extra).violations == ("UnknownVertex(3,-1)",)
        beyond = Solution(served + (Tour((0, 3, 4, 0), 1.0, "external"),), {1: 0, 2: 1, 3: 2})
        assert check_feasible(inst, beyond).violations == ("UnknownVertex(2,4)",)

    def test_float_indices_are_reported(self):
        # 3.0 equals 3 in a set, so only the type tells it cannot index.
        inst = gen_instance("euclidean", 3, 3, seed=1)
        served = (tour(inst, 1), tour(inst, 2))
        float_vertex = Solution(served + (Tour((0, 3.0, 0), 1.0, "external"),),
                                {1: 0, 2: 1, 3: 2})
        assert check_feasible(inst, float_vertex).violations == ("UnknownVertex(2,3.0)",)
        float_index = Solution(served + (tour(inst, 3),), {1: 0, 2: 1, 3: 0.0})
        assert check_feasible(inst, float_index).violations == (
            "BadTourIndex(3,0.0)", "CustomerUnserved(3)")
        float_customer = Solution(served + (tour(inst, 3),), {1: 0, 2: 1, 3.0: 2})
        assert check_feasible(inst, float_customer).violations == (
            "UnknownCustomer(3.0)", "CustomerUnserved(3)")

    def test_numpy_integers_are_indices(self):
        inst = gen_instance("euclidean", 3, 3, seed=1)
        three = Tour((0, np.int64(3), 0), inst.route_cost((0, 3, 0)), "external")
        sol = Solution((tour(inst, 1), tour(inst, 2), three),
                       {np.int64(1): 0, 2: np.int32(1), 3: 2})
        assert check_feasible(inst, sol).ok


class TestMerge:
    def test_disjoint_union(self, inst_line3):
        a = Solution((tour(inst_line3, 1),), {1: 0})
        b = Solution((tour(inst_line3, 2, 3),), {2: 0, 3: 0})
        m = merge(a, b)
        assert check_feasible(inst_line3, m).ok
        assert m.cost == pytest.approx(a.cost + b.cost)
        assert m.assignment[2] == 1

    def test_overlap_rejected(self, inst_line3):
        a = Solution((tour(inst_line3, 1),), {1: 0})
        with pytest.raises(ValueError):
            merge(a, a)


def test_trivial_solution(inst_line3):
    sol = trivial_solution(inst_line3, [1, 2, 3])
    assert check_feasible(inst_line3, sol).ok
    assert sol.cost == pytest.approx(2.0 + 4.0 + 6.0)
    assert all(t.vertices == (0, v, 0) for v, t in zip([1, 2, 3], sol.tours))
