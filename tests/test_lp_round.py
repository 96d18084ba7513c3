import importlib.machinery
import itertools
import json
import math
import random
import sys
import threading
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ucvrp import lp_round, tsp
from ucvrp.algorithms import _catalog_lp, alg1, default_tour, lp_itp_pipeline
from ucvrp.cli import main
from ucvrp.instance import Instance, gen_instance, line3, save_json
from ucvrp.lp_round import (
    CatalogTooLarge,
    LpInfeasible,
    LpSolution,
    LpSolverFailed,
    TourCatalog,
    enumerate_tours,
    round_tours,
    solve_covering_lp,
)
from ucvrp.oracle import exact_cvrp
from ucvrp.tsp import exact_tsp, optimal_tours

from reference import rounding_monte_carlo
from test_big_matching import _probe
from test_instance import line_instance
from test_tsp import tour_instances


class TestCatalog:
    def test_line3_full_catalog(self, inst_line3):
        cat = enumerate_tours(inst_line3, "lp1")
        sets = {frozenset(t.customers) for t in cat.tours}
        assert sets == {
            frozenset({1}), frozenset({2}), frozenset({3}),
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
        }
        by_set = {frozenset(t.customers): t.cost for t in cat.tours}
        assert by_set[frozenset({1})] == pytest.approx(2.0)
        assert by_set[frozenset({2, 3})] == pytest.approx(6.0)
        assert cat.cover_set == frozenset({1, 2, 3})

    def test_capacity_filters_pairs(self):
        inst = line_instance([1.0, 2.0], capacity=2, demands=(2, 2))
        cat = enumerate_tours(inst, "lp1")
        assert {frozenset(t.customers) for t in cat.tours} == {
            frozenset({1}), frozenset({2}),
        }

    def test_restricted_catalog_drops_small(self):
        inst = line_instance([1.0, 2.0, 3.0], capacity=10, demands=(1, 6, 7))
        cat = enumerate_tours(inst, "lp2", Fraction(1, 5))
        assert cat.cover_set == frozenset({2, 3})
        assert all(1 not in t.customers for t in cat.tours)
        # Demands 6 + 7 exceed the capacity, so no pair survives.
        assert {frozenset(t.customers) for t in cat.tours} == {
            frozenset({2}), frozenset({3}),
        }

    def test_restricted_requires_delta(self, inst_line3):
        with pytest.raises(ValueError):
            enumerate_tours(inst_line3, "lp2")

    def test_unknown_variant(self, inst_line3):
        with pytest.raises(ValueError):
            enumerate_tours(inst_line3, "bogus")

    def test_large_ground_set_rejected(self):
        inst = gen_instance("euclidean", 25, 3, seed=0)
        with pytest.raises(CatalogTooLarge, match="ground set of 25 customers.*limit of 24"):
            enumerate_tours(inst, "lp1")

    def test_size_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(lp_round, "SIZE_CAP", 5)
        inst = gen_instance("euclidean", 6, 3, seed=0)
        with pytest.raises(CatalogTooLarge, match="more than 5 tours"):
            enumerate_tours(inst, "lp1")

    def test_wide_ground_set_exact_priced(self):
        # 20 customers, but no demand-feasible set holds more than 3 of them.
        inst = gen_instance("euclidean", 20, 3, seed=1)
        cat = enumerate_tours(inst, "lp1")
        for tour in cat.tours:
            assert tour == exact_tsp(inst, tour.customers)

    def test_mst_priced_catalog_serves_its_tours(self, monkeypatch):
        # Four customers of demand 1 make 3-customer sets feasible, which a
        # cap of 2 puts out of Held-Karp's reach: that catalog is refused,
        # not priced by MST doubling.  Under the real cap every entry holds
        # its optimal tour, and a selected entry is served by it.
        inst = gen_instance("euclidean", 6, 3, seed=1)
        monkeypatch.setattr(tsp, "HELDKARP_CAP", 2)
        with pytest.raises(CatalogTooLarge, match="set of 3 customers exceeds the Held-Karp cap"):
            enumerate_tours(inst, "lp1")
        monkeypatch.undo()
        cat = enumerate_tours(inst, "lp1")
        for tour in cat.tours:
            assert tour == exact_tsp(inst, tour.customers)
        lp = solve_covering_lp(cat)
        tour = default_tour(inst)
        catalog_tours = set(cat.tours)
        for seed in range(5):
            _, report = alg1(inst, seed=seed, tour=tour, catalog=cat, lpsol=lp)
            assert report.feasible and report.lp_solved
            # A huge gamma selects every tour with x* > 0, which covers
            # everyone, so the LP branch serves catalog tours alone.
            sol, _ = lp_itp_pipeline(
                inst, "lp1", 1e9, Fraction(1, 3), seed, tour, catalog=cat, lpsol=lp
            )
            assert set(sol.tours) <= catalog_tours

    @given(
        n=st.integers(1, 9),
        k=st.integers(1, 5),
        kind=st.sampled_from(["euclidean", "random_metric"]),
        law=st.sampled_from(["uniform", "heavy"]),
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(["lp1", "lp2"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_prices_exactly_the_feasible_sets(self, n, k, kind, law, seed, variant):
        inst = gen_instance(kind, n, k, law, seed=seed)
        delta = Fraction(1, 5) if variant == "lp2" else None
        cat = enumerate_tours(inst, variant, delta)
        ground = sorted(cat.cover_set)
        expected = [
            list(members)
            for size in range(1, len(ground) + 1)
            for members in itertools.combinations(ground, size)
            if sum(inst.demand(v) for v in members) <= inst.capacity
        ]
        assert [sorted(t.customers) for t in cat.tours] == expected
        for tour in cat.tours:
            assert tour == exact_tsp(inst, tour.customers)

    def test_deterministic_order(self, inst_line3):
        a = enumerate_tours(inst_line3, "lp1")
        b = enumerate_tours(inst_line3, "lp1")
        assert [t.customers for t in a.tours] == [t.customers for t in b.tours]


def eager_rows(inst, variant, delta):
    """The catalog as it is defined, one row per set: its customers, and
    its ``optimal_tours`` tour's cost in hex, digest and vertices, in
    order of size, then sorted members."""
    sets = lp_round.catalog_sets(inst, variant, delta)
    rows = [(t.customers, t.cost.hex(), lp_round._digest(t.customers), t.vertices)
            for t in optimal_tours(inst, sets.ground, sets.masks).values()]
    return sorted(rows, key=lambda row: (len(row[0]), sorted(row[0])))


def rows_of(catalog):
    """A catalog's rows, as ``eager_rows`` gives them, read off its entries."""
    return [(catalog.customers(j), tour.cost.hex(), catalog.digest(j), tour.vertices)
            for j, tour in enumerate(catalog.tours)]


def row_columns(rows, ground):
    """The covering LP's CSC built row by row from the sets' customers:
    (start, index), as int32."""
    at = {v: i for i, v in enumerate(ground)}
    cols = [sorted(at[v] for v in customers) for customers, *_ in rows]
    start = np.cumsum([0, *map(len, cols)]).astype(np.int32)
    return start, np.array(list(itertools.chain.from_iterable(cols)), np.int32)


class TestColumnarCatalog:
    # Both ways of pricing a catalog, off a table over its sets alone and
    # off the depot tour's, against a reference built one set at a time.
    @given(inst=tour_instances(),
           delta=st.sampled_from([None, Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)]))
    @settings(max_examples=60, deadline=None)
    def test_equals_eager_entries(self, inst, delta):
        variant = "lp1" if delta is None else "lp2"
        want = eager_rows(inst, variant, delta)
        ground = lp_round.catalog_sets(inst, variant, delta).ground
        cats = enumerate_tours(inst, variant, delta), _catalog_lp(inst, variant, delta)[1]
        for cat in cats:
            assert rows_of(cat) == want
            assert [cost.hex() for cost in cat.costs.tolist()] == [row[1] for row in want]
            assert all(tour.customers == row[0] and tour.quality_tag == "exact"
                       for tour, row in zip(cat.tours, want))
            assert cat.ground == ground and cat.cover_set == frozenset(ground)
            assert cat.to_json_dict()["tours"] == [
                {"customers": sorted(row[0]), "cost": float.fromhex(row[1])} for row in want]
            for got, ref in zip(lp_round.cover_columns(cat), row_columns(want, ground)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert cats[0] == cats[1]
        assert cats[0].to_json_dict() == cats[1].to_json_dict()

    def test_length_equality_json_and_lp_walk_nothing(self, walks):
        inst = gen_instance("euclidean", 11, 3, seed=0)
        cat = enumerate_tours(inst, "lp1")
        tour, same, lp = _catalog_lp(inst, "lp1", None)
        assert walks == [frozenset(inst.customers)]  # the depot tour alone
        walks.clear()
        assert len(cat.tours) == len(same.tours) > 10
        assert cat == same and lp.catalog == cat
        assert cat.to_json_dict() == same.to_json_dict()
        assert solve_covering_lp(cat) == lp
        outcome = round_tours(cat, lp, 1.5, seed=3)
        assert outcome.selected and walks == []
        # An entry is walked once, when first indexed.
        entries = [cat.tours[j] for j in outcome.selected]
        assert [cat.tours[j] for j in outcome.selected] == entries
        assert walks == [e.customers for e in entries]

    def test_a_tour_indexed_twice_is_walked_once(self, walks):
        cat = enumerate_tours(gen_instance("random_metric", 9, 3, seed=2), "lp1")
        last = len(cat.tours) - 1
        tour = cat.tours[last]
        assert cat.tours[last] is tour and cat.tours[-1] is tour
        assert walks == [cat.customers(last)] == [tour.customers]
        with pytest.raises(IndexError):
            cat.tours[last + 1]

    @pytest.mark.parametrize("variant, delta", [("lp1", None), ("lp2", Fraction(1, 5))])
    def test_entry_order_view_shares_the_family(self, variant, delta):
        # The catalog's tours are a view of the mask-ordered family in entry
        # order: the same tours and costs, bit for bit, off the same columns.
        inst = gen_instance("euclidean", 10, 4, seed=5)
        sets = lp_round.catalog_sets(inst, variant, delta)
        family = tsp.set_tours(inst, sets.ground, sets.masks)
        cat = lp_round.priced_catalog(sets, family)
        view = cat.tours
        assert view._columns is family._columns
        at = {mask: i for i, mask in enumerate(family.masks.tolist())}
        order = [at[mask] for mask in view.masks.tolist()]
        assert sorted(order) == list(range(len(family))) and order != sorted(order)
        assert ([cost.hex() for cost in view.costs.tolist()]
                == [family.costs[i].hex() for i in order])
        tours = list(family)
        assert [(t.vertices, t.cost.hex()) for t in view] == [
            (tours[i].vertices, tours[i].cost.hex()) for i in order]


class TestCoveringLp:
    def test_line3_objective_and_duals(self, inst_line3):
        cat = enumerate_tours(inst_line3, "lp1")
        sol = solve_covering_lp(cat)
        assert sol.objective == pytest.approx(8.0, abs=1e-9)
        # Coverage of the primal solution.
        for v in cat.cover_set:
            cov = sum(
                x for t, x in zip(cat.tours, sol.values) if v in t.customers
            )
            assert cov >= 1.0 - 1e-7
        # Strong duality plus dual feasibility against every tour.
        assert sol.duals is not None
        assert sum(sol.duals) == pytest.approx(8.0, abs=1e-7)
        cover = sorted(cat.cover_set)
        for t in cat.tours:
            load = sum(y for v, y in zip(cover, sol.duals) if v in t.customers)
            assert load <= t.cost + 1e-7

    def test_objective_below_optimum(self):
        for seed in range(8):
            inst = gen_instance("euclidean", 7, 3, seed=seed)
            cat = enumerate_tours(inst, "lp1")
            lp = solve_covering_lp(cat)
            assert lp.objective <= exact_cvrp(inst).opt_cost + 1e-6

    def test_empty_cover_set(self):
        inst = line_instance([1.0], capacity=9, demands=(1,))
        cat = enumerate_tours(inst, "lp2", Fraction(1, 2))
        sol = solve_covering_lp(cat)
        assert sol.objective == 0.0

    def test_missing_customer_infeasible(self):
        # Customer 3's demand exceeds the capacity, so no catalog tour holds it.
        inst = line_instance([1.0, 2.0, 3.0], capacity=2, demands=(1, 1, 3))
        cat = enumerate_tours(inst, "lp1")
        assert 3 in cat.cover_set
        with pytest.raises(LpInfeasible, match=r"customers \[3\] appear in no catalog tour"):
            solve_covering_lp(cat)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_cost_contract_of_linprog(self, cost):
        # linprog rejects a non-finite cost; a negative finite one makes
        # the LP unbounded.  HiGHS itself returns a NaN objective for a
        # NaN cost, and an unknown status for an infinite one.
        cat = two_singletons(cost)
        if math.isfinite(cost):
            assert linprog_reference(cat).status == 3  # unbounded
            with pytest.raises(LpInfeasible, match="LP solver failed"):
                solve_covering_lp(cat)
        else:
            with pytest.raises(ValueError, match="c must not contain values inf, nan"):
                linprog_reference(cat)
            with pytest.raises(ValueError, match="must be finite"):
                solve_covering_lp(cat)

    def test_bit_identical_to_linprog(self):
        # solve_covering_lp hands HiGHS the model linprog builds through
        # scipy's private bindings; this catches drift in those bindings.
        # The catalogs are solved in one sequence, on one kept solver.
        cats = list(parity_catalogs())
        sols = [solve_covering_lp(cat) for cat in cats]
        solved = 0
        for cat, got in zip(cats, sols):
            res = linprog_reference(cat)
            assert res.success
            assert [v.hex() for v in got.values] == [float(v).hex() for v in res.x]
            assert got.objective.hex() == float(res.fun).hex()
            assert [y.hex() for y in got.duals] == [(-float(y)).hex() for y in res.ineqlin.marginals]
            solved += 1
        assert solved == 6 * 3 * 2 + 4

    def test_silent(self, capfd):
        # ``ucvrp solve`` prints its JSON to stdout, which a HiGHS banner
        # or log line would corrupt.
        cat = enumerate_tours(gen_instance("euclidean", 8, 3, seed=2), "lp1")
        capfd.readouterr()
        solve_covering_lp(cat)
        with pytest.raises(LpInfeasible):
            solve_covering_lp(two_singletons(-1.0))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("order, loads", [
        ("bindings-first", False),  # scipy.optimize imported after the LPs
        ("scipy-first", True),
        ("fallback", True),  # no extension file is found: the plain import serves
    ])
    def test_load_orders_in_a_fresh_process(self, order, loads):
        # Whatever loads HiGHS's bindings, the LP is linprog's bit for bit, and
        # the loader's module is the one scipy.optimize imports.
        assert _probe(LOAD_PROBE, order) == f"{loads} True True"

    def test_failed_load_falls_back(self, monkeypatch):
        # An extension file that raises ImportError is not left registered,
        # and the plain import serves.
        real = lp_round._highs_core()
        monkeypatch.delitem(sys.modules, real.__name__)
        failed = []

        def unloadable(loader, module):
            failed.append(module.__name__ in sys.modules)
            raise ImportError(f"cannot load {loader.path}")

        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", unloadable)
        assert lp_round._highs_core() is real
        assert failed == [True]
        assert real.__name__ not in sys.modules

    def test_solver_failure_is_not_infeasibility(self, memory_limited):
        with pytest.raises(LpSolverFailed, match="^LP solver failed: Memory limit reached$") as err:
            solve_covering_lp(enumerate_tours(line3(), "lp1"))
        assert not isinstance(err.value, LpInfeasible)

    def test_solver_failure_exits_3(self, memory_limited, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_json(gen_instance("euclidean", 6, 3, seed=1), str(path))
        assert main(["solve", str(path), "--alg", "alg1"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "LpSolverFailed", "message": "LP solver failed: Memory limit reached"}

    def test_allocation_failure_exits_3(self, out_of_memory, tmp_path, capsys):
        # An allocation HiGHS fails reaches no status: it raises MemoryError.
        with pytest.raises(LpSolverFailed, match="^LP solver failed: std::bad_alloc$"):
            solve_covering_lp(enumerate_tours(line3(), "lp1"))
        path = tmp_path / "i.json"
        save_json(gen_instance("euclidean", 6, 3, seed=1), str(path))
        assert main(["solve", str(path), "--alg", "alg1"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "LpSolverFailed", "message": "LP solver failed: std::bad_alloc"}

    def test_refused_model_is_a_solver_failure(self, pass_refused):
        # A pass HiGHS refuses leaves the solver's last LP in place, and run()
        # would solve that again: this LP would get the last one's answer.
        pass_refused.refusing = False
        assert solve_covering_lp(two_singletons(1.0)).objective == 2.0
        assert type(lp_round._kept.solver) is pass_refused
        pass_refused.refusing = True
        with pytest.raises(LpSolverFailed, match="^LP solver failed: passModel returned kError$"):
            solve_covering_lp(two_singletons(3.0))
        assert lp_round._kept.solver is None


class TestKeptSolver:
    """Each thread keeps one HiGHS solver across its covering LPs; an LP
    solved on it has the bits of the same LP on a fresh solver."""

    @pytest.fixture(scope="class")
    def sweep(self):
        """The exact-lp specs over seeds 0-7, each with its lp1 and
        lp2(1/5) catalog, and each catalog's LP on a fresh solver."""
        cats = []
        for seed in range(8):
            for kind, n, k, law in EXACT_LP_SPECS:
                inst = gen_instance(kind, n, k, law, seed=seed)
                cats += [enumerate_tours(inst, "lp1"), enumerate_tours(inst, "lp2", Fraction(1, 5))]
        return cats, [lp_bits(fresh_solve(cat)) for cat in cats]

    def test_back_to_back_matches_fresh(self, sweep):
        cats, fresh = sweep
        lp_round._kept.solver = None
        solve_covering_lp(cats[0])
        kept = lp_round._kept.solver
        assert [lp_bits(solve_covering_lp(cat)) for cat in cats] == fresh
        assert lp_round._kept.solver is kept

    def test_after_an_infeasible_lp(self, sweep):
        cats, fresh = sweep
        for j in range(0, len(cats), 7):
            solve_covering_lp(cats[j - 1])
            with pytest.raises(LpInfeasible):
                solve_covering_lp(two_singletons(-1.0))
            assert lp_round._kept.solver is None  # a failed solve drops it
            assert lp_bits(solve_covering_lp(cats[j])) == fresh[j]

    def test_after_a_solver_failure(self, sweep, memory_limited, monkeypatch):
        self.check_dropped(sweep, monkeypatch, "Memory limit reached")

    def test_after_an_allocation_failure(self, sweep, out_of_memory, monkeypatch):
        self.check_dropped(sweep, monkeypatch, "std::bad_alloc")

    def test_after_a_refused_model(self, sweep, pass_refused, monkeypatch):
        self.check_dropped(sweep, monkeypatch, "passModel returned kError")

    @staticmethod
    def check_dropped(sweep, monkeypatch, failure):
        """A solve on patched-in failing bindings raises ``LpSolverFailed``
        and drops the thread's solver; the next LP has a fresh solve's bits."""
        cats, fresh = sweep
        stand_in = lp_round._highs_core()
        monkeypatch.undo()
        solve_covering_lp(cats[0])
        real = lp_round._kept.solver
        # The kept solver is the real bindings' class, so the stand-in's
        # bindings get a solver of their own.
        monkeypatch.setattr(lp_round, "_highs_core", lambda: stand_in)
        with pytest.raises(LpSolverFailed, match=failure):
            solve_covering_lp(cats[1])
        assert lp_round._kept.solver is None
        monkeypatch.undo()
        assert lp_bits(solve_covering_lp(cats[1])) == fresh[1]
        assert lp_round._kept.solver is not real

    def test_solver_of_a_large_lp_is_dropped(self, sweep, monkeypatch):
        # An LP past KEEP_COLUMNS leaves no solver, and its buffers, behind.
        cats, fresh = sweep
        columns = len(cats[0].masks)
        for keep, kept in ((columns, True), (columns - 1, False)):
            monkeypatch.setattr(lp_round, "KEEP_COLUMNS", keep)
            assert lp_bits(solve_covering_lp(cats[0])) == fresh[0]
            assert (lp_round._kept.solver is not None) == kept

    def test_threads_keep_their_own(self, sweep):
        # More threads than the two cores CI has, switching often: each
        # thread solves every third LP, in turn with the others.
        cats, fresh = sweep
        turns = threading.Barrier(3, timeout=60)
        solvers, bits = [[], [], []], [[], [], []]

        def solve(t):
            for j in range(t, len(cats), 3):  # 96 LPs, 32 a thread
                turns.wait()
                bits[t].append(lp_bits(solve_covering_lp(cats[j])))
                solvers[t].append(lp_round._kept.solver)

        threads = [threading.Thread(target=solve, args=(t,)) for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bits == [fresh[t::3] for t in range(3)]
        kept = [set(map(id, own)) for own in solvers]
        assert all(len(ids) == 1 for ids in kept) and len(set.union(*kept)) == 3


def fresh_solve(cat):
    """``solve_covering_lp(cat)`` on a solver made for this LP alone."""
    lp_round._kept.solver = None
    try:
        return solve_covering_lp(cat)
    finally:
        lp_round._kept.solver = None


def lp_bits(sol):
    """Every bit of an LP solution: its values, objective and duals in hex."""
    return ([v.hex() for v in sol.values], sol.objective.hex(), [y.hex() for y in sol.duals])


# Solves the covering LPs of four catalogs in a fresh interpreter, loading
# HiGHS's bindings in the order argv[1] names, then compares them with
# linprog's.  Prints whether the LPs loaded scipy.optimize, whether the
# loader's module is scipy's, and whether every bit matched.
LOAD_PROBE = """
import importlib.machinery, sys
from fractions import Fraction
import numpy as np
from ucvrp import lp_round
from ucvrp.instance import gen_instance, line3
if sys.argv[1] == 'scipy-first':
    import scipy.optimize
elif sys.argv[1] == 'fallback':
    importlib.machinery.EXTENSION_SUFFIXES = []
inst = gen_instance('random_metric', 12, 3, seed=1)
cats = [lp_round.enumerate_tours(line3(), 'lp1'),
        lp_round.enumerate_tours(gen_instance('euclidean', 11, 3, seed=0), 'lp1'),
        lp_round.enumerate_tours(inst, 'lp1'),
        lp_round.enumerate_tours(inst, 'lp2', Fraction(1, 5))]
sols = [lp_round.solve_covering_lp(cat) for cat in cats]
loads, core = 'scipy.optimize' in sys.modules, lp_round._highs_core()
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
same = True
for cat, sol in zip(cats, sols):
    cover = sorted(cat.cover_set)
    a = np.array([[v in t.customers for t in cat.tours] for v in cover], dtype=float)
    res = linprog(np.array([t.cost for t in cat.tours]), A_ub=-a, b_ub=-np.ones(len(cover)),
                  bounds=(0, None), method='highs')
    same &= ([v.hex() for v in sol.values] == [float(v).hex() for v in res.x]
             and sol.objective.hex() == float(res.fun).hex()
             and [y.hex() for y in sol.duals] == [(-float(y)).hex() for y in res.ineqlin.marginals])
print(loads, core is _core, same)
"""


@pytest.fixture
def memory_limited(monkeypatch):
    """HiGHS's bindings with a solver that reports running out of memory."""
    real = lp_round._highs_core()

    class MemoryLimited(real._Highs):
        def getModelStatus(self):
            return real.HighsModelStatus.kMemoryLimit

    patch_highs(monkeypatch, MemoryLimited)


@pytest.fixture
def out_of_memory(monkeypatch):
    """HiGHS's bindings with a solver whose run fails an allocation, which
    reaches Python as ``MemoryError: std::bad_alloc``."""
    real = lp_round._highs_core()

    class OutOfMemory(real._Highs):
        def run(self):
            raise MemoryError("std::bad_alloc")

    patch_highs(monkeypatch, OutOfMemory)


@pytest.fixture
def pass_refused(monkeypatch):
    """HiGHS's bindings with a solver whose ``passModel``, while its class's
    ``refusing`` is set, passes nothing and returns ``kError``; the fixture
    is that class."""
    real = lp_round._highs_core()

    class PassRefused(real._Highs):
        refusing = True

        def passModel(self, *model):
            return real.HighsStatus.kError if self.refusing else super().passModel(*model)

    patch_highs(monkeypatch, PassRefused)
    return PassRefused


def patch_highs(monkeypatch, solver_class):
    """Load HiGHS's bindings with ``solver_class`` for their solver."""
    real = lp_round._highs_core()
    stand_in = types.ModuleType(real.__name__)
    vars(stand_in).update(vars(real), _Highs=solver_class)
    monkeypatch.setattr(lp_round, "_highs_core", lambda: stand_in)


def two_singletons(cost):
    """The catalog of two customers at capacity 1, which covers each by a
    tour of its own: the first at ``cost``, c(0,1) = cost / 2 each way,
    and the second at 1."""
    m = np.array([[0.0, cost / 2, 0.5], [cost / 2, 0.0, 1.0], [0.5, 1.0, 0.0]])
    with np.errstate(invalid="ignore"):  # inf - inf in the tie tolerance's skew
        return enumerate_tours(Instance("two", 1, (1, 1), m), "lp1")


# perfbench's exact-lp instance specs: (kind, n, k, demand law).
EXACT_LP_SPECS = (
    ("euclidean", 11, 3, "uniform"),
    ("random_metric", 11, 4, "uniform"),
    ("euclidean", 12, 4, "uniform"),
    ("random_metric", 12, 3, "uniform"),
    ("euclidean", 13, 3, "uniform"),
    ("random_metric", 13, 4, "uniform"),
)


def tie_metric(n, lengths, seed):
    """A symmetric metric on n customers and the depot whose distances
    are drawn from ``lengths``; any values in [1, 2] satisfy the triangle
    inequality."""
    upper = np.random.default_rng(seed).choice(lengths, size=n * (n + 1) // 2)
    m = np.zeros((n + 1, n + 1))
    m[np.triu_indices(n + 1, 1)] = upper
    return m + m.T


def parity_catalogs():
    """The exact-lp specs over three seeds, each with its lp1 and lp2(1/5)
    catalog; line3; the tie-heavy all-equal and 1-or-2 metrics; and
    demands of k each, whose catalog holds singletons only."""
    for seed in range(3):
        for kind, n, k, law in EXACT_LP_SPECS:
            inst = gen_instance(kind, n, k, law, seed=seed)
            yield enumerate_tours(inst, "lp1")
            yield enumerate_tours(inst, "lp2", Fraction(1, 5))
    yield enumerate_tours(line3(), "lp1")
    yield enumerate_tours(Instance("equal", 3, (1,) * 8, tie_metric(8, [1.0], 0)), "lp1")
    yield enumerate_tours(Instance("one_two", 4, (1, 2) * 4, tie_metric(8, [1.0, 2.0], 1)), "lp1")
    singletons = enumerate_tours(Instance("full", 4, (4,) * 9, tie_metric(9, [1.0, 2.0], 2)), "lp1")
    assert all(len(t.customers) == 1 for t in singletons.tours)
    yield singletons


def linprog_reference(cat):
    """``linprog``'s result for the covering LP of ``cat``, from the dense
    0/1 cover matrix a: min c.x subject to -a x <= -1, x >= 0."""
    cover = sorted(cat.cover_set)
    sets = [cat.customers(j) for j in range(len(cat.costs))]
    a = np.array([[v in members for members in sets] for v in cover], dtype=float)
    return linprog(cat.costs, A_ub=-a, b_ub=-np.ones(len(cover)), bounds=(0, None),
                   method="highs")


class TestRounding:
    def setup_method(self):
        self.inst = gen_instance("euclidean", 7, 3, seed=21)
        self.cat = enumerate_tours(self.inst, "lp1")
        self.lp = solve_covering_lp(self.cat)

    def test_deterministic_per_seed(self):
        a = round_tours(self.cat, self.lp, 1.0, seed=5)
        b = round_tours(self.cat, self.lp, 1.0, seed=5)
        assert a == b
        c = round_tours(self.cat, self.lp, 1.0, seed=6)
        assert a != c or a.selected == c.selected  # different seeds may coincide

    def test_order_independent(self):
        rng = random.Random(0)
        order = list(range(len(self.cat.tours)))
        rng.shuffle(order)
        shuffled = TourCatalog(self.cat.variant, self.cat.delta, self.cat.tours.take(order))
        lp2 = LpSolution(
            tuple(self.lp.values[j] for j in order), self.lp.objective
        )
        for seed in range(20):
            a = round_tours(self.cat, self.lp, 1.5, seed)
            b = round_tours(shuffled, lp2, 1.5, seed)
            picked_a = {self.cat.tours[j].customers for j in a.selected}
            picked_b = {shuffled.tours[j].customers for j in b.selected}
            assert picked_a == picked_b
            assert a.uncovered == b.uncovered
            assert a.cost == pytest.approx(b.cost)

    def test_gamma_zero_selects_nothing(self):
        out = round_tours(self.cat, self.lp, 0.0, seed=1)
        assert out.selected == ()
        assert out.uncovered == self.cat.cover_set
        assert out.cost == 0.0

    def test_huge_gamma_covers_everything(self):
        out = round_tours(self.cat, self.lp, 1e9, seed=1)
        assert out.uncovered == frozenset()

    def test_negative_gamma_rejected(self):
        # A non-finite gamma is rejected too: inf * 0 would select x* = 0.
        for gamma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                round_tours(self.cat, self.lp, gamma, seed=0)

    def test_lp_of_another_catalog_rejected(self):
        # zip would pair the values with the first tours and drop the rest.
        short = LpSolution(self.lp.values[:-1], self.lp.objective)
        with pytest.raises(ValueError, match="LP values for"):
            round_tours(self.cat, short, 1.0, seed=0)

    def test_monte_carlo_matches_scalar(self):
        seeds = list(range(100))
        for gamma in (0.5, 1.0, 2.0):
            costs, freq = rounding_monte_carlo(self.cat, self.lp, gamma, seeds)
            scalar = [round_tours(self.cat, self.lp, gamma, s) for s in seeds]
            assert np.array_equal(costs, np.array([o.cost for o in scalar]))
            for v in self.cat.cover_set:
                expect = sum(v in o.uncovered for o in scalar) / len(seeds)
                assert freq[v] == pytest.approx(expect, abs=1e-12)
