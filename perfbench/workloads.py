"""The benchmark's workloads: the instances and rounding seeds of each
round, and the call each attempt times.

A round attempts each of its instances with ``alg1`` and with ``alg2`` at
delta = 1/5.  Rounds are deterministic functions of the workload seed and
the round number, so the first rounds of two runs with the same seed
attempt the same solves.

Cold workloads draw fresh instances every round, so one run averages over
dozens of instances and its figures move little from seed to seed.  The
warm workload cannot: building an instance's tour, catalogs and LP
solutions costs ~0.5 s, and its per-solve time varies with catalog size by
a factor of two between instances.  It therefore keeps one fixed pool of
instances, and the workload seed picks the rounding seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ucvrp import algorithms, instance, lp_round, tsp
from ucvrp.instance import Instance

FIFTH = Fraction(1, 5)
ALGS = ("alg1", "alg2")
# Rounding seed of round r is seed * SEED_STRIDE + r.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    # (kind, n, k, demand law) of each instance of a round.  An odd number
    # of sizes puts the median solve inside one size, not between two.
    specs: tuple[tuple[str, int, int, str], ...]
    warm: bool  # fixed pool; tour, catalogs and LP solutions built in set-up
    # The tail percentile reported as solve_tail_s: the highest that leaves
    # >= 10 successful solves above it in a 25 s run on a contended CPU.
    tail_pct: int
    trace_rounds: int  # rounds in the parity digest and the traced pass


WORKLOADS = {
    w.name: w
    for w in (
        # Cold solves in the exact-pricing regime: the exact depot tour and
        # the all-subsets catalog pricing do nearly all of the work.
        Workload(
            "exact-lp",
            (
                ("euclidean", 11, 3, "uniform"),
                ("random_metric", 11, 4, "uniform"),
                ("euclidean", 12, 4, "uniform"),
                ("random_metric", 12, 3, "uniform"),
                ("euclidean", 13, 3, "uniform"),
                ("random_metric", 13, 4, "uniform"),
            ),
            warm=False,
            tail_pct=75,
            trace_rounds=6,
        ),
        # Cold solves beyond the exact caps: MST-doubling tour, refused
        # catalog, alg1's gamma = 0 fallback; alg2 raises CatalogTooLarge.
        Workload(
            "large-fallback",
            (
                ("euclidean", 150, 10, "uniform"),
                ("random_metric", 163, 10, "uniform"),
                ("euclidean", 175, 10, "uniform"),
                ("random_metric", 188, 10, "uniform"),
                ("euclidean", 200, 10, "uniform"),
            ),
            warm=False,
            tail_pct=70,
            trace_rounds=4,
        ),
        # Amortized solves over many rounding seeds: many small partition
        # and matching calls per second, pricing paid once in set-up.
        Workload(
            "seed-sweep",
            (
                ("euclidean", 12, 6, "uniform"),
                ("random_metric", 12, 8, "heavy"),
                ("random_metric", 13, 6, "heavy"),
                ("euclidean", 13, 8, "uniform"),
                ("euclidean", 14, 6, "heavy"),
                ("random_metric", 14, 8, "uniform"),
            ),
            warm=True,
            tail_pct=99,
            trace_rounds=200,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One instance, plus its reusable state for the warm workload."""

    inst: Instance
    tour: Optional[tsp.Tour] = None
    cat1: Optional[lp_round.TourCatalog] = None
    lp1: Optional[lp_round.LpSolution] = None
    cat2: Optional[lp_round.TourCatalog] = None
    lp2: Optional[lp_round.LpSolution] = None


def generate(wl: Workload, key: str) -> list[Instance]:
    rng = random.Random(f"{wl.name}/{key}")
    return [instance.gen_instance(kind, n, k, law, seed=rng.randrange(2**31))
            for kind, n, k, law in wl.specs]


def build_pool(wl: Workload) -> list[Case]:
    """The warm workload's fixed instances with their exact tour, both
    catalogs and LP solutions, as acceptance criterion 5 builds them."""
    pool = []
    for inst in generate(wl, "pool"):
        instance.validate_instance(inst)
        cat1 = lp_round.enumerate_tours(inst, "lp1")
        cat2 = lp_round.enumerate_tours(inst, "lp2", FIFTH)
        pool.append(Case(
            inst,
            algorithms.default_tour(inst),
            cat1,
            lp_round.solve_covering_lp(cat1) if cat1.cover_set else None,
            cat2,
            lp_round.solve_covering_lp(cat2) if cat2.cover_set else None,
        ))
    return pool


def round_attempts(wl: Workload, seed: int, r: int, pool: Optional[list[Case]]):
    """Round ``r``: (case, algorithm, rounding seed) per attempt."""
    cases = pool if wl.warm else [Case(inst) for inst in generate(wl, f"{seed}/{r}")]
    rounding_seed = seed * SEED_STRIDE + r
    return [(case, alg, rounding_seed) for case in cases for alg in ALGS]


def solve(wl: Workload, case: Case, alg: str, seed: int):
    """The timed call.  Cold workloads validate and solve from scratch, as
    ``ucvrp solve`` does; the warm one passes its set-up state in."""
    inst = case.inst
    if not wl.warm:
        instance.validate_instance(inst)
        if alg == "alg1":
            return algorithms.alg1(inst, seed=seed)
        return algorithms.alg2(inst, FIFTH, seed=seed)
    if alg == "alg1":
        return algorithms.alg1(inst, seed=seed, tour=case.tour,
                               catalog=case.cat1, lpsol=case.lp1)
    return algorithms.alg2(inst, FIFTH, seed=seed, tour=case.tour,
                           catalog=case.cat2, lpsol=case.lp2)
