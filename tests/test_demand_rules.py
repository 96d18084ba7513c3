"""Every demand-threshold decision is an integer comparison made by
``Instance.exceeds``, and every radial sum goes through ``radial_mass``."""

import hashlib
import json
from fractions import Fraction

from ucvrp.big_matching import serve_big_by_matching, subalg1, subalg1_bound
from ucvrp.instance import f_integral, gen_instance, radial_lower_bound
from ucvrp.itp import itp_bound
from ucvrp.lp_round import enumerate_tours
from ucvrp.tsp import approx_tsp, exact_tsp

from conftest import instance_mix
from reference import classify

GRID = [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 3),
        Fraction(2, 5), Fraction(1, 2), Fraction(1)]
DELTAS = [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 3),
          Fraction(49, 100)]
# lp2 keeps accepting a delta above 1/2 (``solve --alg subalg3`` passes it).
LP2_DELTAS = [Fraction(1, 5), Fraction(1, 3), Fraction(3, 5)]

# sha256 of the rows below.  The integer rules reproduce the Fraction-based
# ones they replaced; change this only with the outputs.
PINNED_DIGEST = "0052dfe0917388ae31454ef964d0021d0fd7ef8af78d186c47a45ef62a32e654"


def test_demand_rules_pinned():
    rows = []
    insts = instance_mix(200, max_n=30, max_k=12, seed_base=4242)
    insts.append(gen_instance("euclidean", 150, 10, "heavy", seed=5))
    for inst in insts:
        if inst.n <= 10:
            tour = exact_tsp(inst, inst.customers)
        else:
            tour = approx_tsp(inst, inst.customers)
        row = [repr(radial_lower_bound(inst))]
        for delta in DELTAS:
            cls = classify(inst, delta)
            row.append([sorted(cls.small), sorted(cls.big), sorted(cls.large)])
        row.append([repr(f_integral(inst, l, r, t))
                    for l in GRID for r in GRID if l <= r for t in (0, 1)])
        half = list(inst.customers)[::2]
        row.append([repr(itp_bound(inst, subset, tour.cost, delta, variant))
                    for subset in (inst.customers, half) for delta in DELTAS
                    for variant in ("lemma1", "lemma3", "lemma4")])
        plan, _ = serve_big_by_matching(inst)
        row.append(plan.to_json_dict())
        row.append(repr(subalg1_bound(inst, tour.cost, plan.cost)))
        sol = subalg1(inst, tour)
        row.append([repr(sol.cost), [t.vertices for t in sol.tours]])
        if inst.n <= 12:
            row.append([enumerate_tours(inst, "lp2", d).to_json_dict()
                        for d in LP2_DELTAS])
        rows.append(row)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PINNED_DIGEST, digest
