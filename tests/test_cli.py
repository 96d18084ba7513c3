import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ucvrp import algorithms, big_matching, cli, lp_round, tsp
from ucvrp.cli import main
from ucvrp.instance import from_json_dict, gen_instance, load_json, radial_lower_bound, save_json
from ucvrp.oracle import exact_cvrp
from ucvrp.solution import COST_TOL, FeasibilityReport


def count_calls(monkeypatch, name, replacement=None):
    """Wrap ``name`` in every module that binds it; return the call log."""
    calls = []
    for module in (algorithms, big_matching, cli):
        real = getattr(module, name, None)
        if real is None:
            continue

        def counting(*args, _real=real, **kwargs):
            calls.append(name)
            return (replacement or _real)(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def scaled_instance(n, k, seed, scale):
    """``gen_instance("euclidean", n, k, seed=seed)`` with its coordinates
    scaled by ``scale``, read back as a file would be."""
    data = gen_instance("euclidean", n, k, seed=seed).to_json_dict()
    data["metric"]["coords"] = [[scale * x, scale * y] for x, y in data["metric"]["coords"]]
    return from_json_dict(data)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "i.json"
    code, _ = run(capsys, "gen", "--kind", "euclidean", "-n", "6", "-k", "3",
                  "--seed", "7", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture(scope="module")
def exact_files(tmp_path_factory):
    """Instance files at n = 2, 13 and 18, where every depot tour is exact."""
    paths = []
    for n in (2, 13, 18):
        path = tmp_path_factory.mktemp("exact") / f"n{n}.json"
        assert main(["gen", "-n", str(n), "-k", "4", "--seed", "1", "--out", str(path)]) == 0
        paths.append(path)
    return paths


class TestGen:
    def test_writes_valid_instance(self, instance_file):
        inst = load_json(str(instance_file))
        assert inst.n == 6
        assert inst.capacity == 3

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "-n", "5", "-k", "2", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "-n", "5", "-k", "2", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_alg1_json_output(self, instance_file, capsys):
        code, out = run(capsys, "solve", str(instance_file), "--alg", "alg1")
        assert code == 0
        payload = json.loads(out)
        for key in ("algorithm", "cost", "tours", "feasible", "lower_bounds",
                    "alpha_tag", "seed", "report"):
            assert key in payload
        assert payload["feasible"] is True
        assert payload["cost"] >= payload["lower_bounds"]["radial"] - 1e-9

    def test_seed_determinism(self, instance_file, capsys):
        _, a = run(capsys, "solve", str(instance_file), "--alg", "alg1",
                   "--seed", "9")
        _, b = run(capsys, "solve", str(instance_file), "--alg", "alg1",
                   "--seed", "9")
        assert a == b

    def test_partition_trace(self, instance_file, capsys):
        code, out = run(capsys, "solve", str(instance_file), "--alg", "ditp",
                        "--delta", "1/3", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert "trace" in payload
        assert "offset" in payload["trace"]

    def test_lp_dump(self, instance_file, capsys):
        code, out = run(capsys, "solve", str(instance_file), "--alg", "subalg2",
                        "--dump-lp")
        assert code == 0
        payload = json.loads(out)
        assert "lp" in payload
        assert payload["lp"]["solution"]["objective"] > 0

    @pytest.mark.parametrize("dump_lp", [[], ["--dump-lp"]], ids=["plain", "dump-lp"])
    @pytest.mark.parametrize("alg", list(algorithms.SOLVERS))
    def test_one_held_karp_table_per_solve(self, exact_files, capsys, monkeypatch,
                                           alg, dump_lp):
        # The depot tour, and the catalog of a solver that rounds an LP, are
        # read off one table whether or not the LP is dumped.
        tables = []
        real = tsp._held_karp

        def counting(sub, masks):
            tables.append(len(masks))
            return real(sub, masks)

        monkeypatch.setattr(tsp, "_held_karp", counting)
        delta = ["--delta", "1/5"] if algorithms.SOLVERS[alg].needs_delta else []
        for path in exact_files:
            tables.clear()
            code, _ = run(capsys, "solve", str(path), "--alg", alg, *delta, *dump_lp)
            assert code == 0
            assert len(tables) == 1, path.name

    @pytest.mark.parametrize("alg", ["ditp", "ditp+", "subalg3", "subalg4", "alg2"])
    def test_delta_required(self, instance_file, capsys, alg):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_file), "--alg", alg])
        assert exc.value.code == 2
        assert "--delta required" in capsys.readouterr().err

    def test_gamma_with_alg2_is_usage_error(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_file), "--alg", "alg2", "--delta", "1/5",
                  "--gamma", "-1"])
        assert exc.value.code == 2
        assert "two intensities" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--alg", "itp"],
        ["--alg", "ditp", "--delta", "1/5"],
        ["--alg", "ditp+", "--delta", "1/5"],
        ["--alg", "subalg1"],
    ], ids=["itp", "ditp", "ditp+", "subalg1"])
    def test_gamma_without_rounding_is_usage_error(self, instance_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_file), *argv, "--gamma", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--gamma does not apply to {argv[1]}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--alg", "ditp+", "--delta", "1/5"],
        ["--alg", "subalg2"],
        ["--alg", "subalg3", "--delta", "1/5"],
        ["--alg", "subalg4", "--delta", "1/5"],
        ["--alg", "alg1"],
        ["--alg", "alg2", "--delta", "1/5"],
    ], ids=["ditp+", "subalg2", "subalg3", "subalg4", "alg1", "alg2"])
    def test_trace_without_a_trace_is_usage_error(self, instance_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_file), *argv, "--trace"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--trace does not apply to {argv[1]}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alg, branch", [
        (["--alg", "alg1"], ["--alg", "subalg2"]),
        (["--alg", "alg2", "--delta", "1/5"], ["--alg", "subalg3", "--delta", "1/5"]),
    ], ids=["alg1", "alg2"])
    def test_lp_dump_of_a_meta_algorithm(self, instance_file, capsys, alg, branch):
        # alg1 and alg2 print the one catalog and LP their LP branches
        # share: their first LP branch's, which builds and rounds the same.
        code, out = run(capsys, "solve", str(instance_file), *alg, "--dump-lp")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["lp_solved"]
        _, plain = run(capsys, "solve", str(instance_file), *alg)
        assert {**json.loads(plain), "lp": payload["lp"]} == payload
        _, own = run(capsys, "solve", str(instance_file), *branch, "--dump-lp")
        assert payload["lp"] == json.loads(own)["lp"]

    def test_lp_dump_builds_catalog_and_lp_once(self, tmp_path, capsys, monkeypatch):
        # One catalog, read off the depot tour's table at n <= 18, and one
        # LP.  enumerate_tours calls lp_round.priced_catalog, which is not
        # wrapped.
        calls = []
        for name, modules in (("enumerate_tours", (lp_round, algorithms)),
                              ("priced_catalog", (algorithms,)),
                              ("solve_covering_lp", (lp_round, algorithms))):
            real = getattr(lp_round, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counting)
        path = tmp_path / "i.json"
        for n in (1, 6):
            calls.clear()
            run(capsys, "gen", "-n", str(n), "-k", "3", "--seed", "7", "--out", str(path))
            code, out = run(capsys, "solve", str(path), "--alg", "subalg2", "--dump-lp")
            assert code == 0
            assert json.loads(out)["report"]["lp_solved"]
            assert sorted(calls) == ["priced_catalog", "solve_covering_lp"]

    @pytest.mark.parametrize("gen, solve", [
        (["-n", "200", "-k", "10", "--seed", "1"], ["--alg", "subalg2", "--gamma", "0"]),
        (["-n", "13", "-k", "4", "--seed", "1"], ["--alg", "subalg2", "--gamma", "0"]),
        (["-n", "3", "-k", "10", "--demand-law", "heavy", "--seed", "8"],
         ["--alg", "subalg3", "--delta", "1/5"]),
    ], ids=["gamma0-n200", "gamma0-n13", "empty-cover"])
    def test_lp_dump_without_an_lp(self, tmp_path, capsys, gen, solve):
        # --dump-lp prints the LP a solve rounded.  At gamma = 0 none is
        # built, not even a refused catalog, and an empty cover set needs none.
        path = tmp_path / "i.json"
        run(capsys, "gen", *gen, "--out", str(path))
        code, out = run(capsys, "solve", str(path), *solve, "--dump-lp")
        assert code == 0
        payload = json.loads(out)
        assert "lp" not in payload
        assert not payload["report"]["lp_solved"]

    @pytest.mark.parametrize("alg, name", [
        ("subalg1", "serve_big_by_matching"),
        ("alg1", "check_feasible"),
        ("alg1", "radial_lower_bound"),
    ])
    def test_computes_each_step_once(self, instance_file, capsys, monkeypatch,
                                     alg, name):
        calls = count_calls(monkeypatch, name)
        code, _ = run(capsys, "solve", str(instance_file), "--alg", alg)
        assert code == 0
        assert len(calls) == 1

    def test_infeasible_report_lists_violations(self, instance_file, capsys,
                                                monkeypatch):
        failed = FeasibilityReport(False, ("CustomerUnserved(1)",))
        count_calls(monkeypatch, "check_feasible", lambda inst, sol: failed)
        code, out = run(capsys, "solve", str(instance_file), "--alg", "alg1")
        assert code == 1
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["violations"] == ["CustomerUnserved(1)"]

    def test_unknown_alg_is_usage_error(self, instance_file, capsys):
        code, _ = run(capsys, "solve", str(instance_file), "--alg", "magic")
        assert code == 2

    def test_alg_choices_are_the_solver_table(self, capsys):
        code, out = run(capsys, "solve", "--help")
        assert code == 0
        assert "--alg {" + ",".join(algorithms.SOLVERS) + "}" in out

    @pytest.mark.parametrize("alg", list(algorithms.SOLVERS))
    def test_every_solver_prints_its_report(self, instance_file, capsys, alg):
        argv = ["--delta", "1/5"] if algorithms.SOLVERS[alg].needs_delta else []
        code, out = run(capsys, "solve", str(instance_file), "--alg", alg, *argv)
        assert code == 0
        payload = json.loads(out)
        report = payload["report"]
        for key in ("cost", "feasible", "alpha_tag", "lower_bounds", "seed"):
            assert report[key] == payload[key], key


# Each solver's outcome on an instance whose catalog is refused: it answers
# without a catalog, alg1 falls back to gamma = 0, or the solve exits 2.
REFUSED_OUTCOMES = {
    "itp": "answers", "ditp": "answers", "ditp+": "answers", "subalg1": "answers",
    "subalg2": "refused", "subalg3": "refused", "subalg4": "refused",
    "alg1": "falls back", "alg2": "refused",
}


class TestRefusedCatalogs:
    """Both refusal rules: a ground over 24 customers, and a largest
    feasible set past the Held-Karp cap (20 unit demands at k = 20, every
    customer in the lp2 ground at delta = 1/25).  Neither enumerates a
    single set."""

    @pytest.fixture(scope="class")
    def refused_files(self, tmp_path_factory):
        wide = gen_instance("euclidean", 25, 3, seed=2)
        unit = replace(gen_instance("euclidean", 20, 20, seed=1), demands=(1,) * 20)
        paths = {}
        for rule, inst in (("wide-ground", wide), ("large-set", unit)):
            paths[rule] = tmp_path_factory.mktemp(rule) / "i.json"
            save_json(inst, str(paths[rule]))
        return paths

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def boom(*args):
            raise AssertionError("a refused catalog must not be enumerated")

        monkeypatch.setattr(lp_round, "feasible_masks", boom)

    def test_every_solver_has_an_outcome(self):
        assert set(REFUSED_OUTCOMES) == set(algorithms.SOLVERS)

    @pytest.mark.parametrize("rule", ["wide-ground", "large-set"])
    @pytest.mark.parametrize("alg", list(algorithms.SOLVERS))
    def test_outcome(self, refused_files, capsys, rule, alg):
        delta = ["--delta", "1/25"] if algorithms.SOLVERS[alg].needs_delta else []
        code, out = run(capsys, "solve", str(refused_files[rule]), "--alg", alg, *delta)
        payload = json.loads(out)
        if REFUSED_OUTCOMES[alg] == "refused":
            assert code == 2
            assert payload["error"] == "CatalogTooLarge"
            return
        assert code == 0 and payload["feasible"]
        assert not payload["report"]["lp_solved"]
        fallback = ["catalog too large; gamma forced to 0"]
        assert payload["report"]["notes"] == (fallback if alg == "alg1" else [])

    @pytest.mark.parametrize("rule", ["wide-ground", "large-set"])
    def test_no_rounding_builds_no_catalog(self, refused_files, capsys, rule):
        # Every LP row at gamma = 0 answers with no catalog built: no
        # refusal, and no fallback note from alg1.
        path = str(refused_files[rule])
        for argv in (["subalg2"], ["subalg3", "--delta", "1/25"], ["subalg4", "--delta", "1/25"],
                     ["alg1"]):
            code, out = run(capsys, "solve", path, "--alg", *argv, "--gamma", "0")
            payload = json.loads(out)
            assert code == 0 and payload["feasible"], argv
            assert payload["report"]["notes"] == [] and not payload["report"]["lp_solved"], argv
        # ucvrp solve takes no gamma for alg2.
        _, rep = algorithms.alg2(load_json(path), Fraction(1, 25), gamma1=0, gamma2=0)
        assert rep.feasible and rep.notes == () and not rep.lp_solved


class TestLibraryErrors:
    """Typed library errors and unreadable input end with exit code 2 and
    one JSON error object on stdout, not a traceback."""

    @pytest.fixture
    def large_file(self, tmp_path, capsys):
        path = tmp_path / "n30.json"
        code, _ = run(capsys, "gen", "-n", "30", "-k", "3", "--seed", "1",
                      "--out", str(path))
        assert code == 0
        return path

    def test_exact_beyond_oracle_cap(self, large_file, capsys):
        code, out = run(capsys, "exact", str(large_file))
        assert code == 2
        assert json.loads(out)["error"] == "InstanceTooLarge"

    def test_alg2_catalog_too_large(self, large_file, capsys):
        code, out = run(capsys, "solve", str(large_file), "--alg", "alg2",
                        "--delta", "1/5")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "CatalogTooLarge"
        assert "30 customers" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ["solve", "{inst}", "--alg", "ditp", "--delta", "1/0"],
        ["solve", "{inst}", "--alg", "subalg2", "--gamma", "nan"],
        ["solve", "{inst}", "--alg", "alg1", "--gamma", "inf"],
        ["bench", "--seeds", "0", "--format", "csv"],
        ["constants", "--eps-fixed", "nan"],
        ["solve", "{inst}", "--alg", "subalg3", "--delta", "1/2"],
    ], ids=["zero-denominator", "nan-gamma", "inf-gamma", "no-seeds", "nan-eps",
            "subalg3-delta-half"])
    def test_bad_values_are_usage_errors(self, instance_file, capsys, argv):
        code, out = run(capsys, *(a.format(inst=instance_file) for a in argv))
        assert code == 2
        assert "NaN" not in out

    def test_nan_gamma_without_lp_is_usage_error(self, tmp_path, capsys):
        # No customer of this instance exceeds 1/5 of the capacity, so the
        # restricted catalog is empty and no rounding sees the gamma.
        path = tmp_path / "small.json"
        run(capsys, "gen", "-n", "3", "-k", "10", "--demand-law", "heavy",
            "--seed", "8", "--out", str(path))
        code, out = run(capsys, "solve", str(path), "--alg", "subalg3",
                        "--delta", "1/5", "--gamma", "nan")
        assert code == 2
        assert "NaN" not in out

    @pytest.mark.parametrize("gen, solve", [
        (["-n", "25", "-k", "3", "--seed", "2"], ["--alg", "alg1"]),
        (["-n", "3", "-k", "10", "--demand-law", "heavy", "--seed", "8"],
         ["--alg", "subalg3", "--delta", "1/5"]),
    ], ids=["alg1-refused-catalog", "subalg3-empty-cover"])
    def test_negative_gamma_without_rounding_is_usage_error(
        self, tmp_path, capsys, gen, solve
    ):
        path = tmp_path / "i.json"
        run(capsys, "gen", *gen, "--out", str(path))
        code, out = run(capsys, "solve", str(path), *solve, "--gamma", "-1")
        assert code == 2
        assert "gamma must be finite and non-negative" in json.loads(out)["message"]

    @pytest.mark.parametrize("alg, delta", [("subalg2", None), ("subalg4", "1/5")],
                             ids=["subalg2", "subalg4"])
    def test_lp_dump_with_delta(self, instance_file, capsys, alg, delta):
        # An lp1 catalog takes no delta, so subalg2's holds none whatever --delta says.
        code, out = run(capsys, "solve", str(instance_file), "--alg", alg,
                        "--delta", "1/5", "--dump-lp")
        assert code == 0
        assert json.loads(out)["lp"]["catalog"]["delta"] == delta

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(capsys, "solve", str(path), "--alg", "alg1")
        assert code == 2
        assert json.loads(out)["error"] == "JSONDecodeError"

    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "demands": [1.5, 2]},
        lambda data: {**data, "capacity": 2.9},
        lambda data: {**data, "metric": None},
        lambda data: [data],
    ], ids=["fractional-demand", "fractional-capacity", "null-metric", "list"])
    def test_malformed_instance(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.json"
        data = gen_instance("euclidean", 2, 3, seed=0).to_json_dict()
        path.write_text(json.dumps(edit(data)))
        code, out = run(capsys, "solve", str(path), "--alg", "alg1")
        assert code == 2
        assert json.loads(out)["error"] == "InstanceError"


SOLVERS = ("itp", "ditp", "ditp+", "subalg1", "subalg2", "subalg3", "subalg4",
           "alg1", "alg2")
WRONG_TYPES = (None, True, "3", 2.5, [], {}, [[1]])


@st.composite
def instance_files(draw):
    """(JSON of a ``gen`` instance with n <= 7 or of a corrupted variant,
    the exit code ``solve`` owes it)."""
    inst = gen_instance(
        draw(st.sampled_from(["euclidean", "random_metric"])),
        draw(st.integers(1, 7)),
        draw(st.integers(1, 6)),
        draw(st.sampled_from(["uniform", "heavy"])),
        seed=draw(st.integers(0, 2**31)),
    )
    data = inst.to_json_dict()
    metric = data["metric"]
    body = "coords" if "coords" in metric else "matrix"
    corruption = draw(st.sampled_from(
        ["none", "wrong type", "missing key", "fractional demand", "asymmetric"]))
    if corruption == "none":
        return data, 0
    if corruption == "wrong type":
        value = draw(st.sampled_from(WRONG_TYPES))
        where = draw(st.sampled_from(
            ["name", "capacity", "demands", "metric", "demand", "type", "body", "row"]))
        if where in data:
            data[where] = value
        elif where == "demand":
            data["demands"][draw(st.integers(0, inst.n - 1))] = value
        elif where == "row":
            metric[body][draw(st.integers(0, inst.n))] = value
        else:
            metric[body if where == "body" else "type"] = value
        # Any name is printed as its str().
        return data, 0 if where == "name" else 2
    if corruption == "missing key":
        key = draw(st.sampled_from(["name", "capacity", "demands", "metric", "type", body]))
        del (data if key in data else metric)[key]
    elif corruption == "fractional demand":
        data["demands"][draw(st.integers(0, inst.n - 1))] += draw(
            st.sampled_from([0.5, 0.25, 1e-6]))
    else:
        x = draw(st.integers(0, inst.n))
        y = (x + draw(st.integers(1, inst.n))) % (inst.n + 1)
        matrix = inst.metric.tolist()
        matrix[x][y] += draw(st.sampled_from([0.5, 1e-3]))
        data["metric"] = {"type": "explicit", "matrix": matrix}
    return data, 2


class TestTwoOutcomes:
    """``solve`` either answers with a feasible solution that costs at least
    the radial bound, or exits 2 with a JSON error; nothing escapes main."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=instance_files(), alg=st.sampled_from(SOLVERS))
    def test_solve(self, tmp_path, capsys, drawn, alg):
        data, expected = drawn
        path = tmp_path / "drawn.json"
        path.write_text(json.dumps(data))
        argv = ["solve", str(path), "--alg", alg]
        if algorithms.SOLVERS[alg].needs_delta:
            argv += ["--delta", "1/5"]
        code, out = run(capsys, *argv)
        payload = json.loads(out)
        assert code == expected, payload
        if code == 0:
            assert payload["feasible"] is True
            assert payload["cost"] >= radial_lower_bound(load_json(str(path))) - 1e-9
        else:
            assert set(payload) == {"error", "message"}


# Ten instances, every solver and five flag sets, less the 50 runs that
# refuse --gamma: 400 runs of ``ucvrp solve``, 60 of which refuse --trace.
# sha256 of each run's file name, arguments, exit code and stdout; change
# it only with the output.
GRID_SPECS = (("euclidean", 1, 3), ("random_metric", 2, 3), ("euclidean", 3, 2),
              ("random_metric", 5, 4), ("euclidean", 6, 3), ("random_metric", 8, 5),
              ("euclidean", 9, 4), ("random_metric", 11, 3), ("euclidean", 12, 4),
              ("random_metric", 13, 4))
GRID_FLAGS = ([], ["--trace"], ["--dump-lp"], ["--gamma", "0", "--dump-lp"],
              ["--delta", "1/5", "--dump-lp"])
GRID_DIGEST = "dc750ea0e1e63608913f36ffdf40ae9a210b372e078fd2cb0e0f3ce9ef2d09fa"


def test_cli_grid_outputs_pinned(tmp_path, capsys):
    rows = []
    for seed, (kind, n, k) in enumerate(GRID_SPECS):
        path = tmp_path / f"{kind}-{n}.json"
        save_json(gen_instance(kind, n, k, seed=seed), str(path))
        for alg, solver in algorithms.SOLVERS.items():
            delta = ["--delta", "1/5"] if solver.needs_delta else []
            for flags in GRID_FLAGS:
                if "--gamma" in flags and solver.no_gamma:
                    continue
                argv = ["--alg", alg, *delta, *flags]
                try:
                    code = main(["solve", str(path), *argv])
                except SystemExit as exc:  # a refused flag
                    code = exc.code
                rows.append([path.name, argv, code, capsys.readouterr().out])
    assert len(rows) == 400
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == GRID_DIGEST, digest


class TestExact:
    def test_matches_oracle(self, instance_file, capsys):
        code, out = run(capsys, "exact", str(instance_file))
        assert code == 0
        payload = json.loads(out)
        inst = load_json(str(instance_file))
        assert payload["opt_cost"] == pytest.approx(exact_cvrp(inst).opt_cost)
        assert sorted(v for g in payload["partition"] for v in g) == [1, 2, 3, 4, 5, 6]


class TestConstants:
    def test_json_report(self, capsys):
        code, out = run(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert payload["y0"]["mid"] == pytest.approx(0.3931, abs=1e-3)
        assert payload["a2"]["final_fixed"] <= 3.0894

    def test_table_format(self, capsys):
        code, out = run(capsys, "constants", "--format", "table")
        assert code == 0
        assert "gamma_star" in out

    def test_eps_without_root_is_usage_error(self, capsys):
        code, out = run(capsys, "constants", "--eps-fixed", "0.5")
        assert code == 2
        assert json.loads(out)["error"] == "NoSignChange"


class TestCheckAndBench:
    def test_check_directory(self, instance_file, capsys):
        code, out = run(capsys, "check", str(instance_file.parent))
        assert code == 0
        assert "ok" in out

    def test_check_matches_once(self, instance_file, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "serve_big_by_matching")
        code, _ = run(capsys, "check", str(instance_file.parent))
        assert code == 0
        assert len(calls) == 1

    def test_check_reports_every_invalid_file(self, tmp_path, capsys):
        data = gen_instance("euclidean", 4, 3, seed=1).to_json_dict()
        (tmp_path / "a.json").write_text(json.dumps(data))
        (tmp_path / "b.json").write_text(json.dumps({**data, "demands": [99, 1, 1, 1]}))
        (tmp_path / "c.json").write_text("{not json")
        (tmp_path / "d.json").write_text(json.dumps(data))
        code, out = run(capsys, "check", str(tmp_path))
        assert code == 2
        a, b, c, d = out.splitlines()
        assert (a, d) == ("a.json: ok", "d.json: ok")
        assert b == "b.json: error DemandOutOfRange: demand of customer 1 is 99, outside [1, 3]"
        assert c.startswith("c.json: error JSONDecodeError: ")

    def test_check_empty_directory(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("scale", [1e10, 1e11])
    def test_check_slacks_scale_with_the_metric(self, scale):
        # At costs near 1e10 the LP objective can sit an ulp, ~2e-6, above
        # OPT, and the matching cost too: the slacks grow with the metric.
        for n, k in ((9, 3), (10, 4)):
            for seed in range(40):
                inst = scaled_instance(n, k, seed, scale)
                assert cli.check_instance_invariants(inst) == [], (n, k, seed)

    @pytest.mark.parametrize("scale", [1.0, 1e10, 1e11])
    def test_scaled_check_still_catches_a_bound_exceeded(self, scale, monkeypatch):
        inst = scaled_instance(10, 4, 1, scale)
        assert (tsp.metric_scale(inst.metric) == 1.0) == (scale == 1.0)
        opt = exact_cvrp(inst).opt_cost
        slack = COST_TOL * tsp.metric_scale(inst.metric)
        for off, failures in ((slack / 2, []), (10 * slack, ["radial bound exceeds OPT"])):
            monkeypatch.setattr(cli, "radial_lower_bound", lambda inst, off=off: opt + off)
            assert cli.check_instance_invariants(inst) == failures

    def test_bench_json(self, capsys):
        code, out = run(capsys, "bench", "--suite", "small", "--seeds", "1")
        assert code == 0
        rows = json.loads(out)
        assert rows
        for row in rows:
            assert row["ratio"] >= 1.0 - 1e-9
            assert row["radial_lb"] <= row["opt"] + 1e-9

    def test_bench_csv_header(self, capsys):
        code, out = run(capsys, "bench", "--suite", "small", "--seeds", "1",
                        "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("instance,")
