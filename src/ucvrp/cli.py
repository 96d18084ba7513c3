"""Command-line surface: instance generation, solving, exact baselines,
constants reporting, invariant checking, and benchmark tables."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from ucvrp import algorithms, big_matching, constants, itp, lp_round, oracle
from ucvrp.instance import (Instance, f_integral, gen_instance, load_json,
                            radial_lower_bound, save_json, validate_instance)
from ucvrp.solution import COST_TOL, check_feasible
from ucvrp.tsp import metric_scale

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
# The LP solver stopped on a limit or an unknown status: no verdict on the input.
EXIT_SOLVER_FAILED = 3
# The library's typed errors and unreadable or malformed input: a usage
# error, not a violation.
USAGE_ERRORS = (ValueError, KeyError, OSError, lp_round.LpInfeasible,
                constants.NoSignChange, constants.DomainViolation)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from exc


def cmd_gen(args) -> int:
    inst = gen_instance(args.kind, args.n, args.k, args.demand_law, args.seed)
    validate_instance(inst)
    save_json(inst, args.out)
    print(f"wrote {args.out}: n={inst.n} k={inst.capacity}")
    return EXIT_OK


def cmd_solve(args) -> int:
    solver = algorithms.SOLVERS[args.alg]
    if solver.needs_delta and args.delta is None:
        print(f"--delta required for {args.alg}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if solver.no_gamma and args.gamma is not None:
        print(f"--gamma does not apply to {args.alg}, which {solver.no_gamma}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.trace and not solver.traces:
        print(f"--trace does not apply to {args.alg}, which keeps no trace", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    inst = validate_instance(load_json(args.instance))
    sol, report = solver.run(inst, args.delta, args.gamma, args.seed)
    # The report holds the bound and the check; a failed check reruns for its violations.
    violations = [] if report.feasible else list(check_feasible(inst, sol).violations)
    out = {
        "algorithm": args.alg,
        "cost": sol.cost,
        "tours": [list(t.vertices) for t in sol.tours],
        "feasible": not violations,
        "violations": violations,
        "alpha_tag": report.alpha_tag,
        "seed": args.seed,
        "lower_bounds": report.lower_bounds,
        "report": report.to_json_dict(),
    }
    if args.trace:
        out["trace"] = report.trace.to_json_dict()
    if args.dump_lp and report.lp:
        catalog, lpsol = report.lp
        out["lp"] = {"catalog": catalog.to_json_dict(), "solution": lpsol.to_json_dict()}
    # A non-finite value, such as a NaN gamma that no rounding saw, is not JSON.
    print(json.dumps(out, sort_keys=True, allow_nan=False))
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_exact(args) -> int:
    inst = validate_instance(load_json(args.instance))
    res = oracle.exact_cvrp(inst)
    print(json.dumps({
        "opt_cost": res.opt_cost,
        "partition": [sorted(t.customers) for t in res.tours],
        "group_costs": [t.cost for t in res.tours],
    }, sort_keys=True))
    return EXIT_OK


def cmd_constants(args) -> int:
    rep = constants.constants_report(args.eps_fixed, args.eps_general)
    if args.format == "json":
        print(json.dumps(rep, sort_keys=True))
    else:
        for key, val in rep.items():
            print(f"{key:32s} {val}")
    return EXIT_OK


def check_instance_invariants(inst: Instance) -> list[str]:
    """One pass over every testable guarantee for a single instance.
    Costs are compared within ``COST_TOL`` S, and bounds ordered within
    1e-9 S, with S = ``metric_scale``: an ulp of a cost near 1e10 is
    ~2e-6, past an absolute 1e-6."""
    failures: list[str] = []
    validate_instance(inst)
    scale = metric_scale(inst.metric)
    tol = COST_TOL * scale
    if radial_lower_bound(inst) > 0:
        total = f_integral(inst, Fraction(0), Fraction(1), 1)
        if abs(total - 1.0) > 1e-12:
            failures.append(f"demand-profile identity violated: {total}")

    tour = algorithms.default_tour(inst)
    for delta in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(49, 100)):
        sol, _ = itp.delta_itp(inst, set(inst.customers), tour, delta)
        bound3 = itp.itp_bound(inst, inst.customers, tour.cost, delta, "lemma3")
        if sol.cost > bound3 + tol:
            failures.append(f"partition bound exceeded at delta={delta}")
        if not check_feasible(inst, sol).ok:
            failures.append(f"partition infeasible at delta={delta}")
        plus = itp.delta_itp_plus(inst, set(inst.customers), tour, delta)
        bound4 = itp.itp_bound(inst, inst.customers, tour.cost, delta, "lemma4")
        if plus.cost > bound4 + tol:
            failures.append(f"trivial-tour bound exceeded at delta={delta}")
        if bound4 > bound3 + 1e-9 * scale:
            failures.append(f"bound ordering violated at delta={delta}")

    plan, big_sol = big_matching.serve_big_by_matching(inst)
    sol1 = big_matching.subalg1(inst, tour, matching=(plan, big_sol))
    if sol1.cost > big_matching.subalg1_bound(inst, tour.cost, plan.cost) + tol:
        failures.append("matching-branch bound exceeded")

    if inst.n <= oracle.ORACLE_CAP and tour.quality_tag == "exact":
        opt = oracle.exact_cvrp(inst).opt_cost
        if radial_lower_bound(inst) > opt + tol:
            failures.append("radial bound exceeds OPT")
        if tour.cost > opt + tol:
            failures.append("tour lower bound exceeds OPT")
        if plan.cost > opt + tol:
            failures.append("matching cost exceeds OPT")
        if inst.n <= 10:
            catalog = lp_round.enumerate_tours(inst, "lp1")
            lpsol = lp_round.solve_covering_lp(catalog)
            if lpsol.objective > opt + tol:
                failures.append("LP objective exceeds OPT")
    return failures


def cmd_check(args) -> int:
    paths = sorted(Path(args.directory).glob("*.json"))
    if not paths:
        print(f"no instance files in {args.directory}", file=sys.stderr)
        return EXIT_USAGE
    bad = invalid = 0
    for path in paths:
        try:
            failures = check_instance_invariants(load_json(str(path)))
        except USAGE_ERRORS as exc:
            print(f"{path.name}: error {type(exc).__name__}: {exc}")
            invalid += 1
            continue
        status = "ok" if not failures else "FAIL"
        print(f"{path.name}: {status}")
        for f in failures:
            print(f"  {f}")
        bad += bool(failures)
    if invalid:
        return EXIT_USAGE
    return EXIT_OK if bad == 0 else EXIT_VIOLATION


def cmd_bench(args) -> int:
    rows = []
    sizes, algs = {
        "small": ([(n, k) for n in (5, 7, 9) for k in (2, 3, 4)], ["subalg1", "alg1"]),
        "ratio": ([(n, k) for n in (5, 6, 7, 8, 9) for k in (3, 4)], ["alg1"]),
    }[args.suite]
    if args.seeds < 1:
        print(f"--seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return EXIT_USAGE
    for n, k in sizes:
        for seed in range(args.seeds):
            inst = gen_instance("euclidean", n, k, seed=seed)
            opt = oracle.exact_cvrp(inst).opt_cost
            for alg in algs:
                t0 = time.perf_counter()
                sol, rep = algorithms.SOLVERS[alg].run(inst, None, None, seed)
                wall = time.perf_counter() - t0
                rows.append({
                    "instance": inst.name,
                    "n": n,
                    "k": k,
                    "algorithm": alg,
                    "params": json.dumps(rep.params, sort_keys=True),
                    "cost": sol.cost,
                    "opt": opt,
                    "ratio": sol.cost / opt,
                    "radial_lb": radial_lower_bound(inst),
                    "wall_time": round(wall, 6),
                    "seed": seed,
                })
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ucvrp")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance JSON file")
    g.add_argument("--kind", choices=["euclidean", "random_metric"], default="euclidean")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-k", type=int, required=True)
    g.add_argument("--demand-law", choices=["uniform", "heavy"], default="uniform")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run a solver on an instance file")
    s.add_argument("instance")
    s.add_argument("--alg", required=True, choices=list(algorithms.SOLVERS))
    s.add_argument("--delta", type=_parse_fraction, default=None)
    s.add_argument("--gamma", type=float, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--dump-lp", action="store_true")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("exact", help="exact optimum by subset DP")
    e.add_argument("instance")
    e.set_defaults(func=cmd_exact)

    c = sub.add_parser("constants", help="print the constants report")
    c.add_argument("--eps-fixed", type=float, default=0.000335)
    c.add_argument("--eps-general", type=float, default=0.000334)
    c.add_argument("--format", choices=["json", "table"], default="json")
    c.set_defaults(func=cmd_constants)

    k = sub.add_parser("check", help="run the invariant suite on a directory")
    k.add_argument("directory")
    k.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="benchmark table")
    b.add_argument("--suite", choices=["small", "ratio"], default="small")
    b.add_argument("--seeds", type=int, default=3)
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (*USAGE_ERRORS, lp_round.LpSolverFailed) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_SOLVER_FAILED if isinstance(exc, lp_round.LpSolverFailed) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
