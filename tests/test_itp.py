import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucvrp import itp
from ucvrp.big_matching import subalg1
from ucvrp.instance import gen_instance
from ucvrp.itp import DemandExceedsCapacity, delta_itp, delta_itp_plus, itp_bound
from ucvrp.solution import check_feasible, merge, trivial_solution
from ucvrp.tsp import KeepNotVisited, Tour, approx_tsp, exact_tsp, shortcut

from conftest import instance_mix
from reference import (
    classify,
    delta_itp_walk,
    evaluate_offset,
    norm_demand,
    segment_solution,
)
from test_instance import line_instance

DELTAS = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(49, 100)]


class TestLine3Canonical:
    def test_best_offset_cost(self, inst_line3):
        tour = exact_tsp(inst_line3, [1, 2, 3])
        sol, trace = delta_itp(inst_line3, {1, 2, 3}, tour, Fraction(0))
        assert sol.cost == pytest.approx(8.0, abs=1e-12)
        assert check_feasible(inst_line3, sol).ok
        assert min(c for _, c in trace.candidate_costs) == pytest.approx(8.0)

    def test_classic_bound(self, inst_line3):
        # c(tour) + 4 * (1/2) * (1 + 2 + 3) = 18 with the unit-demand line.
        bound = itp_bound(inst_line3, [1, 2, 3], 6.0, Fraction(0), "lemma1")
        assert bound == pytest.approx(18.0, abs=1e-12)
        tour = exact_tsp(inst_line3, [1, 2, 3])
        sol, _ = delta_itp(inst_line3, {1, 2, 3}, tour, Fraction(0))
        assert sol.cost <= bound + 1e-9

    def test_trace_shape(self, inst_line3):
        tour = exact_tsp(inst_line3, [1, 2, 3])
        _, trace = delta_itp(inst_line3, {1, 2, 3}, tour, Fraction(1, 10))
        assert 0 <= trace.offset < 1 - Fraction(1, 10)
        assert list(trace.breakpoints) == sorted(trace.breakpoints)
        assert set(trace.dispositions) == {1, 2, 3}
        payload = trace.to_json_dict()
        assert set(payload) == {
            "offset", "breakpoints", "dispositions", "segments", "candidate_costs",
        }


class TestTrivialTourVariant:
    def test_mixed_demand_example(self):
        # Capacity 4, demands 1 and 3 at line positions 1 and 2.  The
        # demand-3 customer is served alone (4), the rest by the partition
        # of the residual tour (2); total 6 against the closed-form 6.75.
        inst = line_instance([1.0, 2.0], capacity=4, demands=(1, 3))
        rest_tour = exact_tsp(inst, [1])
        sol = delta_itp_plus(inst, {1, 2}, rest_tour, Fraction(1, 3))
        assert check_feasible(inst, sol).ok
        assert sol.cost == pytest.approx(6.0, abs=1e-12)
        bound = itp_bound(inst, [1, 2], rest_tour.cost, Fraction(1, 3), "lemma4")
        assert bound == pytest.approx(6.75, abs=1e-12)
        assert sol.cost <= bound + 1e-9

    def test_tour_must_visit_non_large(self):
        inst = line_instance([1.0, 2.0], capacity=4, demands=(1, 3))
        large_only = exact_tsp(inst, [2])
        with pytest.raises(KeepNotVisited):
            delta_itp_plus(inst, {1, 2}, large_only, Fraction(1, 3))

    def test_all_large(self):
        inst = line_instance([1.0, 2.0], capacity=3, demands=(2, 2))
        sol = delta_itp_plus(inst, {1, 2}, exact_tsp(inst, []), Fraction(1, 10))
        assert check_feasible(inst, sol).ok
        assert sol.cost == pytest.approx(6.0)

    def test_rejects_demand_above_capacity(self):
        # validate_instance rejects d_v > k, but an Instance does not; a
        # trivial tour for such a customer would exceed the capacity.
        inst = line_instance([1.0, 2.0], capacity=2, demands=(1, 3))
        tour = exact_tsp(inst, [1, 2])
        with pytest.raises(DemandExceedsCapacity, match="customer 2"):
            delta_itp_plus(inst, {1, 2}, tour, Fraction(1, 3))


class TestBounds:
    def test_delta_zero_matches_classic(self):
        for inst in instance_mix(10, max_n=10, max_k=6, seed_base=300):
            b1 = itp_bound(inst, inst.customers, 1.0, Fraction(0), "lemma1")
            b3 = itp_bound(inst, inst.customers, 1.0, Fraction(0), "lemma3")
            assert b1 == pytest.approx(b3, abs=1e-12)

    def test_variant_ordering(self):
        for inst in instance_mix(10, max_n=12, max_k=8, seed_base=310):
            for delta in DELTAS:
                b3 = itp_bound(inst, inst.customers, 2.0, delta, "lemma3")
                b4 = itp_bound(inst, inst.customers, 2.0, delta, "lemma4")
                assert b4 <= b3 + 1e-9

    def test_unknown_variant(self, inst_line3):
        with pytest.raises(ValueError):
            itp_bound(inst_line3, [1], 0.0, Fraction(0), "lemma2")

    @pytest.mark.parametrize("delta", [Fraction(-1, 5), Fraction(1, 2), Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("variant", ["lemma1", "lemma3", "lemma4"])
    def test_delta_outside_domain(self, inst_line3, delta, variant):
        # The domain of delta_itp.  Unchecked, delta = 1 divided by zero and
        # delta = 2 bounded the cost-6 tour of LINE3 by 0.0.
        with pytest.raises(ValueError, match="delta must lie in"):
            itp_bound(inst_line3, inst_line3.customers, 6.0, delta, variant)


class TestPartitionInvariants:
    def test_feasible_and_bounded(self):
        for inst in instance_mix(20, max_n=14, max_k=8, seed_base=320):
            tour = exact_tsp(inst, inst.customers)
            for delta in DELTAS:
                sol, trace = delta_itp(inst, set(inst.customers), tour, delta)
                assert check_feasible(inst, sol).ok
                bound = itp_bound(inst, inst.customers, tour.cost, delta, "lemma3")
                assert sol.cost <= bound + 1e-9
                served = set()
                for seg in trace.segments:
                    served |= set(seg)
                served |= {
                    v for v, d in trace.dispositions.items() if d == "trivial-tour"
                }
                assert served == set(inst.customers)

    def test_plus_never_worse_than_bound(self):
        for inst in instance_mix(15, max_n=12, max_k=8, seed_base=330):
            tour = exact_tsp(inst, inst.customers)
            for delta in DELTAS:
                sol = delta_itp_plus(inst, set(inst.customers), tour, delta)
                assert check_feasible(inst, sol).ok
                bound = itp_bound(inst, inst.customers, tour.cost, delta, "lemma4")
                assert sol.cost <= bound + 1e-9

    def test_best_offset_dominates_random_offsets(self):
        rng = random.Random(4)
        for inst in instance_mix(6, max_n=10, max_k=6, seed_base=340):
            tour = exact_tsp(inst, inst.customers)
            delta = Fraction(1, 10)
            span = 1 - delta
            sol, _ = delta_itp(inst, set(inst.customers), tour, delta)
            order = [
                v for v in tour.vertices[1:-1] if norm_demand(inst, v) <= span
            ]
            oversize = [
                v for v in tour.vertices[1:-1] if norm_demand(inst, v) > span
            ]
            if not order:
                continue
            prefix = [Fraction(0)]
            for v in order:
                prefix.append(prefix[-1] + norm_demand(inst, v))
            for _ in range(20):
                eta = Fraction(rng.randrange(10**6), 10**6) * span
                _, segs, disp = evaluate_offset(prefix, span, eta, 1)
                cand = segment_solution(inst, order, segs, disp, oversize)
                assert sol.cost <= cand.cost + 1e-9

    def test_delta_domain(self, inst_line3):
        tour = exact_tsp(inst_line3, [1, 2, 3])
        with pytest.raises(ValueError):
            delta_itp(inst_line3, {1, 2, 3}, tour, Fraction(1, 2))

    def test_rejects_zero_demand(self):
        # validate_instance rejects d_v < 1, but an Instance does not.
        inst = line_instance([1.0, 2.0], capacity=2, demands=(0, 1))
        tour = exact_tsp(inst, [1, 2])
        with pytest.raises(ValueError, match="customer 1"):
            delta_itp(inst, {1, 2}, tour, Fraction(0))

    def test_all_oversize(self):
        # Both demands exceed the cut spacing 3/5: trivial tours, and the
        # line is empty, so offset 0 is the one candidate.
        inst = line_instance([1.0, 2.0], capacity=3, demands=(2, 3))
        tour = exact_tsp(inst, [1, 2])
        sol, trace = delta_itp(inst, {1, 2}, tour, Fraction(2, 5))
        assert check_feasible(inst, sol).ok
        assert sorted(t.vertices for t in sol.tours) == [(0, 1, 0), (0, 2, 0)]
        assert sol.cost == pytest.approx(6.0, abs=1e-12)
        assert trace.candidate_costs == ((Fraction(0), sol.cost),)
        assert trace.dispositions == {1: "trivial-tour", 2: "trivial-tour"}
        assert trace.segments == () and trace.breakpoints == ()

    def test_tour_subset_mismatch(self, inst_line3):
        tour = exact_tsp(inst_line3, [1, 2])
        with pytest.raises(ValueError):
            delta_itp(inst_line3, {1, 2, 3}, tour, Fraction(0))

    def test_rejects_repeated_customer(self):
        # The walk visits customer 1 twice.  Partitioned as it stands, the
        # second visit would be a trip (0, 1, 0) that serves nobody (cost
        # 3.728); delta_itp_plus shortcuts the walk first.
        inst = gen_instance("euclidean", 3, 3, "uniform", seed=1)
        walk = (0, 1, 2, 1, 3, 0)
        tour = Tour(walk, inst.route_cost(walk), "external")
        with pytest.raises(ValueError, match="exactly once"):
            delta_itp(inst, {1, 2, 3}, tour, Fraction(0))
        sol = delta_itp_plus(inst, {1, 2, 3}, tour, Fraction(0))
        assert check_feasible(inst, sol).ok
        assert sol.cost == pytest.approx(3.116, abs=1e-3)

    def test_small_customers_share_segments(self):
        # All-small instance: with delta = 1/3 and unit demands against a
        # large capacity, one segment should hold many customers.
        inst = line_instance([1.0, 1.1, 1.2, 1.3], capacity=12, demands=(1, 1, 1, 1))
        cls = classify(inst, Fraction(1, 3))
        assert cls.small == frozenset({1, 2, 3, 4})
        tour = exact_tsp(inst, inst.customers)
        sol, _ = delta_itp(inst, set(inst.customers), tour, Fraction(1, 3))
        assert len(sol.tours) == 1
        assert check_feasible(inst, sol).ok


@st.composite
def partition_cases(draw):
    """An arbitrary tour over n <= 12 customers with mixed demands and
    delta = p/q for q <= 12, plus one off-grid offset in [0, 1)."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["euclidean", "random_metric"]))
    inst = gen_instance(kind, n, k, seed=draw(st.integers(0, 2**16)))
    demands = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    inst = dataclasses.replace(inst, demands=tuple(demands))
    seq = (0, *draw(st.permutations(list(inst.customers))), 0)
    tour = Tour(seq, inst.route_cost(seq), "external")
    q = draw(st.integers(1, 12))
    delta = Fraction(draw(st.integers(0, (q - 1) // 2)), q)
    u = Fraction(draw(st.integers(0, 10**6 - 1)), 10**6)
    return inst, tour, delta, u


def _straddler_case():
    """A tour whose cheapest offset, 1/56, is a customer's midpoint residue;
    pricing only the boundary residues and the midpoints between them
    missed it (5.338 against 5.207)."""
    inst = gen_instance("euclidean", 5, 7, seed=0)
    inst = dataclasses.replace(inst, demands=(2, 1, 3, 5, 1))
    seq = (0, 2, 1, 3, 4, 5, 0)
    return inst, Tour(seq, inst.route_cost(seq), "external"), Fraction(3, 8), Fraction(0)


@given(partition_cases())
@example(_straddler_case())
@settings(max_examples=150, deadline=None)
def test_partition_properties(case):
    inst, tour, delta, u = case
    customers = set(inst.customers)
    sol, _ = delta_itp(inst, customers, tour, delta)
    assert check_feasible(inst, sol).ok
    assert sol.cost <= itp_bound(inst, customers, tour.cost, delta, "lemma3") + 1e-9
    plus = delta_itp_plus(inst, customers, tour, delta)
    assert check_feasible(inst, plus).ok
    assert plus.cost <= itp_bound(inst, customers, tour.cost, delta, "lemma4") + 1e-9

    span = 1 - delta
    order = [v for v in tour.vertices[1:-1] if norm_demand(inst, v) <= span]
    oversize = [v for v in tour.vertices[1:-1] if norm_demand(inst, v) > span]
    if order:
        prefix = [Fraction(0)]
        for v in order:
            prefix.append(prefix[-1] + norm_demand(inst, v))
        _, segs, disp = evaluate_offset(prefix, span, u * span, 1)
        cand = segment_solution(inst, order, segs, disp, oversize)
        assert sol.cost <= cand.cost + 1e-9

    # Scaled by 4kq the line holds an integer inside every piece of the
    # piecewise-constant cost, so the grid minimum is the cheapest offset.
    scale = 4 * inst.capacity * delta.denominator
    grid = [0]
    for v in order:
        grid.append(grid[-1] + int(norm_demand(inst, v) * scale))
    costs = []
    for eta in range(int(span * scale)):
        _, segs, disp = evaluate_offset(grid, int(span * scale), eta, scale)
        costs.append(segment_solution(inst, order, segs, disp, oversize).cost)
    assert sol.cost <= min(costs) + 1e-9


@st.composite
def tied_lines(draw):
    """Customers at integer points of a line, in any tour order, with
    demands of 1..k: many offsets cost the same, cuts fall on midpoints
    with room on both sides, and loads fill a vehicle exactly."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    positions = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    demands = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    inst = line_instance([float(x) for x in positions], capacity=k, demands=demands)
    seq = (0, *draw(st.permutations(list(inst.customers))), 0)
    tour = Tour(seq, inst.route_cost(seq), "external")
    q = draw(st.integers(1, 8))
    delta = Fraction(draw(st.integers(0, (q - 1) // 2)), q)
    return inst, tour, delta, Fraction(0)


def _priced(trace):
    return [(str(e), c.hex()) for e, c in trace.candidate_costs]


def _tours(sol):
    return [(t.vertices, t.cost.hex()) for t in sol.tours], list(sol.assignment.items())


@given(st.one_of(partition_cases(), tied_lines()))
@example(_straddler_case())
@settings(max_examples=200, deadline=None)
def test_partition_matches_customer_walk(case):
    # The cut-priced partition against the walk over every customer per
    # offset: the same candidates priced to the same float, the same
    # winner, segments, dispositions (in order) and tours.
    inst, tour, delta, _ = case
    sol, trace = delta_itp(inst, tour.customers, tour, delta)
    ref_sol, ref_trace = delta_itp_walk(inst, tour, delta)
    assert _priced(trace) == _priced(ref_trace)
    assert trace.offset == ref_trace.offset
    assert trace.breakpoints == ref_trace.breakpoints
    assert trace.segments == ref_trace.segments
    assert list(trace.dispositions.items()) == list(ref_trace.dispositions.items())
    assert _tours(sol) == _tours(ref_sol)
    assert json.dumps(trace.to_json_dict()) == json.dumps(ref_trace.to_json_dict())

    large = sorted(v for v in tour.customers if 2 * inst.demand(v) > inst.capacity)
    rest = tour.customers.difference(large)
    ref_plus = trivial_solution(inst, large)
    if rest:
        ref_plus = merge(ref_plus, delta_itp_walk(inst, shortcut(inst, tour.vertices, rest), delta)[0])
    assert _tours(delta_itp_plus(inst, tour.customers, tour, delta)) == _tours(ref_plus)


def test_plus_builds_no_trace(monkeypatch):
    # delta_itp_plus keeps only the solution, so it must not pay for the
    # Fractions of a PartitionTrace.
    def refuse(*args, **kwargs):
        raise AssertionError("delta_itp_plus built a PartitionTrace")

    monkeypatch.setattr(itp, "PartitionTrace", refuse)
    for inst in instance_mix(6, max_n=12, max_k=6, seed_base=350):
        tour = exact_tsp(inst, inst.customers)
        for delta in DELTAS:
            sol = delta_itp_plus(inst, set(inst.customers), tour, delta)
            assert check_feasible(inst, sol).ok
    with pytest.raises(AssertionError, match="built a PartitionTrace"):
        delta_itp(inst, set(inst.customers), tour, Fraction(0))


PINNED_DELTAS = (
    Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(2, 7), Fraction(1, 3),
    Fraction(49, 100),
)
# sha256 of the rows built below.  A partition that changes but stays
# feasible passes every other test; change this only with the outputs.
PINNED_DIGEST = "636702dec9ae42653f7eb790aef61ed46b4238a1ac7dfb1437457c7ecce39a1f"


def test_partition_outputs_pinned():
    rows = []
    for inst in instance_mix(60, max_n=40, max_k=10, seed_base=2000):
        if inst.n <= 10:
            tour = exact_tsp(inst, inst.customers)
        else:
            tour = approx_tsp(inst, inst.customers)
        sol = subalg1(inst, tour)
        rows.append([repr(sol.cost), [t.vertices for t in sol.tours]])
        for delta in PINNED_DELTAS:
            sol, trace = delta_itp(inst, set(inst.customers), tour, delta)
            rows.append([
                repr(sol.cost),
                [t.vertices for t in sol.tours],
                json.dumps(trace.to_json_dict(), sort_keys=True),
            ])
            plus = delta_itp_plus(inst, set(inst.customers), tour, delta)
            rows.append([repr(plus.cost), [t.vertices for t in plus.tours]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PINNED_DIGEST, digest
