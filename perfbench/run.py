"""Closed-loop benchmark of the ucvrp solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-lp --seed 1 --seconds 25 --trace 0

One process, one thread, one workload: the next solve starts only when the
previous one has returned.  Instances are generated from ``--seed``; each
solve calls the library directly and is verified outside the timed
interval.  Rounds run until ``--seconds`` of solve time have been measured,
stopping at a round boundary.  Times are reported in reference seconds
(see gauge.py).  The last stdout line is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-module metrics of a traced
pass over the first rounds (``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: the benchmark is
# single-threaded by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

from gauge import REFERENCE_S, gauge, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# Read the gauge between solves once this much time has passed.
GAUGE_EVERY_S = 0.1
# A cost below the lower bound by more than this relative slack fails.
LB_RTOL = 1e-9
WRONG_OUTPUT = ("infeasible", "dishonest-report", "below-lower-bound")
IMPORT_PROBE = ("import time; from gauge import gauge, scaled; before = gauge(); "
                "t = time.perf_counter(); import ucvrp.algorithms; "
                "print(scaled(time.perf_counter() - t, before, gauge()))")


class Record(NamedTuple):
    """One attempted solve."""

    round: int
    seconds: float  # wall seconds of the solve call
    ref_seconds: float  # the same, in reference seconds
    failure: Optional[str]  # None, an exception type or a WRONG_OUTPUT kind
    ratio: Optional[float]  # cost / best valid lower bound, when verified
    entry: bytes  # this attempt's part of the parity digest


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import ucvrp from this checkout's ``src``; exit with code 1 if it is absent."""
    src = ROOT / "src"
    if not (src / "ucvrp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ucvrp sources under {src}")
    sys.path.insert(0, str(src))
    import ucvrp

    if Path(ucvrp.__file__).resolve().parent != (src / "ucvrp").resolve():
        sys.exit(f"perfbench: imported ucvrp from {ucvrp.__file__}, not {src}")


def import_seconds() -> float:
    """Median reference seconds to import the library in a fresh
    interpreter, over SETUP_REPS interpreters (an import cannot be repeated
    in-process)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def env_header() -> str:
    import networkx
    import numpy
    import scipy

    cap = os.environ.get("UCVRP_HELDKARP_CAP", "unset")
    return (f"env python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} networkx={networkx.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} UCVRP_HELDKARP_CAP={cap}")


def warm_up() -> None:
    """Pay the library's lazy one-time costs before timing: the gamma
    constants, the first HiGHS solve and the first networkx matching."""
    from ucvrp import algorithms, constants, instance
    from workloads import FIFTH

    constants.default_gammas.cache_clear()
    constants.default_gammas()
    inst = instance.validate_instance(instance.line3())
    algorithms.alg1(inst, seed=0)
    algorithms.alg2(inst, FIFTH, seed=0)


def set_up(wl, seed: int):
    """Set up SETUP_REPS times; return the warm pool (None for cold
    workloads) and the median set-up time in reference seconds: warm-up,
    generating the first round's instances, and building the warm pool."""
    from workloads import build_pool, round_attempts

    times = []
    for _ in range(SETUP_REPS):
        before = gauge()
        t0 = perf_counter()
        warm_up()
        pool = build_pool(wl) if wl.warm else None
        round_attempts(wl, seed, 0, pool)
        times.append(scaled(perf_counter() - t0, before, gauge()))
    return pool, statistics.median(times)


class Verifier:
    """Checks one solve against its instance and the best valid lower bound:
    the radial bound, the matching-plan cost, and the exact tour cost when
    the solve reports an exact tour.  Bounds are cached per instance."""

    def __init__(self):
        self._base: dict[str, float] = {}
        self._tour: dict[str, float] = {}

    def lower_bound(self, case, exact_tour: bool) -> float:
        from ucvrp import big_matching, instance, tsp

        inst = case.inst
        if inst.name not in self._base:
            plan, _ = big_matching.serve_big_by_matching(inst)
            self._base[inst.name] = max(instance.radial_lower_bound(inst), plan.cost)
        if not exact_tour:
            return self._base[inst.name]
        if inst.name not in self._tour:
            tour = case.tour or tsp.exact_tsp(inst, inst.customers)
            self._tour[inst.name] = tour.cost
        return max(self._base[inst.name], self._tour[inst.name])

    def check(self, case, sol, report) -> tuple[Optional[str], Optional[float]]:
        """(failure kind or None, cost / lower bound or None)."""
        from ucvrp import solution

        lb = self.lower_bound(case, report.alpha_tag == "exact")
        if not solution.check_feasible(case.inst, sol).ok:
            return "infeasible", None
        if not report.feasible or report.cost != sol.cost:
            return "dishonest-report", None
        if sol.cost < lb * (1 - LB_RTOL):
            return "below-lower-bound", None
        return None, sol.cost / lb


def digest_entry(case, alg: str, seed: int, outcome) -> bytes:
    if isinstance(outcome, Exception):
        body = f"raised {type(outcome).__name__}"
    else:
        sol = outcome[0]
        body = f"{sol.cost!r} {[t.vertices for t in sol.tours]}"
    return f"{case.inst.name}|{alg}|{seed}|{body}\n".encode()


def run_rounds(wl, seed, pool, verifier, until, tracer=None):
    """Attempt whole rounds, from round 0, until ``until(rounds done, solve
    seconds so far)`` is true.  Returns (records, gauge readings).  Only
    the solve call is timed; verification and the gauge run after the
    clock stops and outside the tracer."""
    from workloads import round_attempts, solve

    pending = []
    gauges = [gauge()]
    gauged_at = perf_counter()
    timed = 0.0
    r = 0
    while not until(r, timed):
        for case, alg, rounding_seed in round_attempts(wl, seed, r, pool):
            if perf_counter() - gauged_at >= GAUGE_EVERY_S:
                gauges.append(gauge())
                gauged_at = perf_counter()
            if tracer is not None:
                tracer.solve_id += 1
                tracer.active = True
            t0 = perf_counter()
            try:
                outcome = solve(wl, case, alg, rounding_seed)
            except Exception as exc:  # every failed attempt is counted, none retried
                outcome = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            timed += dt
            if isinstance(outcome, Exception):
                failure, ratio = type(outcome).__name__, None
            else:
                failure, ratio = verifier.check(case, *outcome)
            pending.append((r, dt, len(gauges) - 1, failure, ratio,
                            digest_entry(case, alg, rounding_seed, outcome)))
        r += 1
    gauges.append(gauge())
    records = [Record(r, dt, scaled(dt, gauges[g], gauges[g + 1]), failure, ratio, entry)
               for r, dt, g, failure, ratio, entry in pending]
    return records, gauges


def timing(wl, records, field: str) -> tuple[float, float, float, int]:
    """(solves per second, median, tail percentile, samples above the
    tail) of the successful solves, from the given time field."""
    times = [getattr(rec, field) for rec in records if rec.failure is None]
    rate = len(times) / sum(getattr(rec, field) for rec in records)
    if not times:
        return rate, 0.0, 0.0, 0
    tail = statistics.quantiles(times, n=100, method="inclusive")[wl.tail_pct - 1] \
        if len(times) > 1 else times[0]
    return rate, statistics.median(times), tail, sum(t > tail for t in times)


def end_to_end(wl, records, setup_s: float) -> dict:
    # Over the digest rounds only, so that it is exact for a given seed.
    ratios = [rec.ratio for rec in records
              if rec.round < wl.trace_rounds and rec.ratio is not None]
    rate, p50, tail, _ = timing(wl, records, "ref_seconds")
    ok = sum(rec.failure is None for rec in records)
    return {
        "solves_per_s": (rate, "1/s"),
        "solve_p50_s": (p50, "s"),
        "solve_tail_s": (tail, "s"),
        "cost_ratio_lb": (
            math.exp(statistics.fmean(math.log(x) for x in ratios)) if ratios else 0.0,
            "ratio"),
        "ok_frac": (ok / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def parity_digest(records, rounds: int) -> str:
    h = hashlib.sha256()
    for rec in records:
        if rec.round < rounds:
            h.update(rec.entry)
    return h.hexdigest()


def per_layer(tracer, traced, untraced, rounds: int) -> dict:
    """Per-module metrics of the traced pass.  Self times are scaled to
    reference seconds by the pass's overall gauge factor."""
    from tracing import TRACED

    self_s, calls, inside = tracer.summary()
    counts = tracer.counts
    traced_raw = sum(rec.seconds for rec in traced)
    traced_ref = sum(rec.ref_seconds for rec in traced)
    untraced_ref = sum(rec.ref_seconds for rec in untraced if rec.round < rounds)
    to_ref = traced_ref / traced_raw
    total_self = sum(self_s.values()) or 1.0
    m = {}
    for module, names in TRACED.items():
        for name in names:
            key = f"{module}.{name}"
            m[f"{key}.self_s"] = (self_s.get(key, 0.0) * to_ref, "s")
            m[f"{key}.calls"] = (calls.get(key, 0), "count")
        share = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        m[f"{module}.self_frac"] = (share / total_self, "ratio")
    priced = counts["tsp.subsets_priced"]
    for key in ("tsp.subsets_priced", "lp_round.catalog_tours", "lp_round.catalog_refused",
                "lp_round.tours_selected", "big_matching.big_customers",
                "itp.candidate_offsets", "itp.customers_partitioned", "algorithms.fallbacks"):
        m[key] = (counts[key], "count")
    m["lp_round.lp_dense_bytes"] = (counts["lp_round.lp_dense_bytes"], "B")
    m["lp_round.priced_useful_ratio"] = (
        counts["lp_round.catalog_tours"] / priced if priced else 0.0, "ratio")
    m["tsp.exact_tour_frac"] = (
        counts["tsp.exact_tours"] / counts["algorithms.solves"]
        if counts["algorithms.solves"] else 0.0, "ratio")
    ok = sum(rec.failure is None for rec in traced)
    m["trace.solves_per_s"] = (ok / traced_ref, "1/s")
    m["trace.attributed_frac"] = (inside / traced_raw, "ratio")
    m["trace.overhead_frac"] = (traced_ref / untraced_ref - 1.0, "ratio")
    return m


def result_line(correct, records, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(rec.failure is not None for rec in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    print(env_header())
    import_s = import_seconds()
    pool, build_s = set_up(wl, args.seed)
    setup_s = import_s + build_s
    verifier = Verifier()

    records, gauges = run_rounds(
        wl, args.seed, pool, verifier,
        lambda done, timed: done >= wl.trace_rounds and timed >= args.seconds)
    metrics = end_to_end(wl, records, setup_s)
    digest = parity_digest(records, wl.trace_rounds)
    failures = Counter(rec.failure for rec in records if rec.failure is not None)
    correct = not any(kind in WRONG_OUTPUT for kind in failures)
    ok = sum(rec.failure is None for rec in records)
    raw_rate, raw_p50, raw_tail, above = timing(wl, records, "seconds")

    print(f"workload {wl.name} seed {args.seed}: {len(records)} attempted, {ok} ok, "
          f"{sum(rec.seconds for rec in records):.3f} s timed; set-up {setup_s:.3f} s "
          f"(import {import_s:.3f} s)")
    print(f"fail_frac {1 - ok / len(records):.6f}; "
          f"failures by type: {json.dumps(dict(sorted(failures.items())))}")
    print(f"solve_tail_s is p{wl.tail_pct}, with {above} of {ok} successful solves above it")
    print(f"gauge median {statistics.median(gauges) * 1e3:.3f} ms over {len(gauges)} readings "
          f"(reference {REFERENCE_S * 1e3:.3f} ms); unscaled: solves_per_s {raw_rate:.6g}, "
          f"solve_p50_s {raw_p50:.6g}, solve_tail_s {raw_tail:.6g}")
    print(f"parity digest (rounds 0-{wl.trace_rounds - 1}): {digest}")
    print("end-to-end: " + json.dumps({k: v for k, (v, _) in metrics.items()}))

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, _ = run_rounds(wl, args.seed, pool, verifier,
                               lambda done, timed: done >= wl.trace_rounds, tracer)
        traced_digest = parity_digest(traced, wl.trace_rounds)
        if traced_digest != digest:
            print(f"traced pass digest {traced_digest} differs from the untraced one")
            correct = False
        metrics = per_layer(tracer, traced, records, wl.trace_rounds)
        print("counts: " + json.dumps({k: v for k, (v, u) in metrics.items()
                                       if u in ("count", "B")}, sort_keys=True))
        records = traced

    print(result_line(correct, records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
