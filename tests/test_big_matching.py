import gc
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucvrp.big_matching import (
    BIG_THRESHOLD,
    serve_big_by_matching,
    subalg1,
    subalg1_bound,
)
from ucvrp.instance import Instance, gen_instance
from ucvrp.oracle import exact_cvrp
from ucvrp.solution import check_feasible
from ucvrp.tsp import exact_tsp

from conftest import instance_mix
from reference import best_cover_bruteforce, networkx_matching_pairs, norm_demand
from test_instance import line_instance

SRC = Path(__file__).resolve().parent.parent / "src"


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


def _held_after(call):
    """(result, bytes still allocated, objects the cyclic collector
    reclaims) of ``call()`` run with the collector off; measured after a
    full collection, which also empties the interpreter's free lists."""
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            reclaimed = gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    return result, held, reclaimed


def test_matching_frees_its_graph():
    # The matcher keeps its state in lists of ints and tuples, so it leaves
    # no reference cycle: with the cyclic collector off, what the call
    # leaves allocated is the result alone.  A pickled copy rebuilds the
    # result from fresh objects and measures its size (~47 KB here, for
    # 30 pairs and 84 solos; the call holds ~40 KB).  The margin covers
    # the two builds' different instance dicts and allocation sizes.
    inst = gen_instance("euclidean", 200, 10, seed=1)
    serve_big_by_matching(inst)  # first-call imports and caches
    result, held, reclaimed = _held_after(lambda: serve_big_by_matching(inst))
    blob = pickle.dumps(result)
    _, result_bytes, _ = _held_after(lambda: pickle.loads(blob))
    assert result[0].pairs
    assert reclaimed == 0
    assert held < result_bytes + 8_000


def _tie_metric(entries, n: int, values) -> np.ndarray:
    m = np.zeros((n + 1, n + 1))
    m[np.triu_indices(n + 1, 1)] = [values[i] for i in entries]
    return m + m.T


@st.composite
def matching_instances(draw):
    """Random-metric, Euclidean and tie-heavy instances.  Drawn demands
    give graphs with no big customer, one, only isolated ones, and dense
    savings graphs; entries from {1, 2} or {2, 3, 4} are metric."""
    kind = draw(st.sampled_from(["random_metric", "euclidean", "ties12", "ties234"]))
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 12))
    demands = tuple(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    if kind in ("random_metric", "euclidean"):
        metric = gen_instance(kind, n, k, seed=draw(st.integers(0, 2**31 - 1))).metric
    else:
        values = (1.0, 2.0) if kind == "ties12" else (2.0, 3.0, 4.0)
        pairs = n * (n + 1) // 2
        entries = draw(st.lists(st.integers(0, len(values) - 1),
                                min_size=pairs, max_size=pairs))
        metric = _tie_metric(entries, n, values)
    return Instance(kind, k, demands, metric)


def _assert_matches_networkx(inst: Instance) -> None:
    plan, _ = serve_big_by_matching(inst)
    pairs = networkx_matching_pairs(inst)
    assert plan.pairs == pairs
    # The cost as the networkx-backed matcher summed it: pairs in the
    # iteration order of its frozenset, then the solos.
    big = [v for v in inst.customers if inst.exceeds(v, BIG_THRESHOLD)]
    matched = {v for e in pairs for v in e}
    solos = frozenset(v for v in big if v not in matched)
    cost = float(reduce(add, (inst.depot_cost(u) + inst.cost(u, v) + inst.depot_cost(v)
                              for u, v in pairs), 0)
                 + reduce(add, (2.0 * inst.depot_cost(v) for v in solos), 0))
    assert float.hex(plan.cost) == float.hex(cost)
    assert plan.solos == solos


class TestAgreesWithNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(inst=matching_instances())
    def test_same_pairs_and_cost(self, inst):
        _assert_matches_networkx(inst)

    @pytest.mark.parametrize("capacity, demands", [
        (10, (1, 2, 3)),  # no big customer: an empty graph
        (10, (4, 1, 2)),  # one big customer
        (10, (6, 7, 8, 9)),  # only isolated big customers
        (10, (6, 4, 9, 5, 6)),  # isolated customers between matched ones
    ], ids=["no-vertex", "single-vertex", "only-isolated", "mixed"])
    def test_degenerate_graphs(self, capacity, demands):
        n = len(demands)
        for entries in ([0] * (n * (n + 1) // 2), [i % 3 for i in range(n * (n + 1) // 2)]):
            inst = Instance("deg", capacity, demands, _tie_metric(entries, n, (2.0, 3.0, 4.0)))
            _assert_matches_networkx(inst)

    @pytest.mark.parametrize("kind", ["euclidean", "random_metric"])
    def test_large_instances(self, kind):
        for seed in range(3):
            _assert_matches_networkx(gen_instance(kind, 180, 10, seed=seed))

    def test_tie_heavy_sweep(self):
        # Mid-sized tie-heavy graphs nest and expand blossoms often enough
        # that a tie broken the other way shows in the pairs.
        for seed in range(800):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 61))
            k = int(rng.integers(2, 13))
            values = (1.0, 2.0) if seed % 2 else (2.0, 3.0, 4.0)
            entries = rng.integers(0, len(values), size=n * (n + 1) // 2)
            demands = tuple(int(d) for d in rng.integers(1, k + 1, size=n))
            _assert_matches_networkx(
                Instance("ties", k, demands, _tie_metric(entries, n, values)))


def _probe(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter on ``src`` and return its last
    line of output."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", script, *args],
                           env=env, capture_output=True, text=True, check=True, timeout=120)
    return probe.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", ["networkx", "scipy.optimize", "scipy.optimize._highspy._core"])
def test_package_import_leaves_out(module):
    # Every ucvrp module, imported at once: none may pull ``module`` in at
    # module level.
    assert _probe(
        "import importlib, pkgutil, sys, ucvrp\n"
        "for m in pkgutil.iter_modules(ucvrp.__path__):\n"
        "    importlib.import_module('ucvrp.' + m.name)\n"
        f"print({module!r} in sys.modules)") == "False"


def test_scipy_optimize_loads_on_first_lp_or_constants(tmp_path):
    # gen, exact and n = 200 solves (whose catalogs are refused) build no LP;
    # an LP, as the n = 6 solve's, loads HiGHS's bindings alone.  Only the
    # constants report needs scipy.optimize.
    assert _probe(
        "import sys\n"
        "from ucvrp.cli import main\n"
        "d = sys.argv[1]\n"
        "for argv in (['gen', '-n', '200', '-k', '10', '--seed', '1', '--out', d + '/e.json'],\n"
        "             ['gen', '-n', '200', '-k', '10', '--seed', '1', '--kind', 'random_metric',\n"
        "              '--out', d + '/r.json'],\n"
        "             ['gen', '-n', '6', '-k', '3', '--seed', '1', '--out', d + '/s.json'],\n"
        "             ['solve', d + '/e.json', '--alg', 'alg1'],\n"
        "             ['solve', d + '/r.json', '--alg', 'alg1'],\n"
        "             ['solve', d + '/s.json', '--alg', 'alg1', '--dump-lp'],\n"
        "             ['exact', d + '/s.json']):\n"
        "    assert main(argv) == 0, argv\n"
        "print('scipy.optimize' in sys.modules)", str(tmp_path)) == "False"
    assert _probe(
        "import sys\n"
        "from ucvrp.instance import line3\n"
        "from ucvrp.lp_round import enumerate_tours, solve_covering_lp\n"
        "catalog = enumerate_tours(line3(), 'lp1')\n"
        "print('scipy.optimize' in sys.modules, end=' ')\n"
        "solve_covering_lp(catalog)\n"
        "print('scipy.optimize' in sys.modules)") == "False False"
    assert _probe(
        "import sys\n"
        "from ucvrp.constants import constants_report\n"
        "print('scipy.optimize' in sys.modules, end=' ')\n"
        "constants_report()\n"
        "print('scipy.optimize' in sys.modules)") == "False True"


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
