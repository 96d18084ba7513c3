import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucvrp.instance
from ucvrp.instance import (
    METRIC_TOL,
    AsymmetricCost,
    DemandOutOfRange,
    Instance,
    InstanceError,
    TriangleViolation,
    ZeroRadialMass,
    _euclidean,
    f_integral,
    from_json_dict,
    gen_instance,
    line3,
    load_json,
    radial_lower_bound,
    save_json,
    validate_instance,
)

from conftest import instance_mix
from reference import classify, norm_demand


def line_instance(positions, capacity, demands, name="line"):
    pts = [0.0] + list(positions)
    m = np.abs(np.subtract.outer(pts, pts))
    return Instance(name=name, capacity=capacity, demands=tuple(demands), metric=m)


class TestValidation:
    def test_line3_valid(self, inst_line3):
        assert validate_instance(inst_line3) is inst_line3

    def test_triangle_violation(self):
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
        inst = Instance("bad", 2, (1, 1), m)
        with pytest.raises(TriangleViolation):
            validate_instance(inst)

    def test_asymmetric(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        inst = Instance("bad", 2, (1,), m)
        with pytest.raises(AsymmetricCost):
            validate_instance(inst)

    def test_demand_out_of_range(self):
        inst = line_instance([1.0], capacity=2, demands=(3,))
        with pytest.raises(DemandOutOfRange):
            validate_instance(inst)
        inst0 = line_instance([1.0], capacity=2, demands=(0,))
        with pytest.raises(DemandOutOfRange):
            validate_instance(inst0)

    def test_shape_mismatch(self):
        m = np.zeros((3, 3))
        inst = Instance("bad", 2, (1,), m)
        with pytest.raises(InstanceError):
            validate_instance(inst)

    def test_generated_instances_valid(self):
        for inst in instance_mix(30, max_n=12, max_k=6):
            validate_instance(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_reports_first_triangle_violation(self, seed):
        # A random symmetric matrix violates the inequality at many triples;
        # the reported one is the first in row-major (x, y, z) order.
        rng = np.random.default_rng(seed)
        m = rng.random((7, 7))
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        first = next(
            (x, y, z)
            for x in range(7) for y in range(7) for z in range(7)
            if m[x, y] - m[x, z] - m[z, y] > 1e-9
        )
        with pytest.raises(TriangleViolation) as exc:
            validate_instance(Instance("bad", 2, (1,) * 6, m))
        assert exc.value.triple == first

    def test_violation_at_first_row(self):
        m = planted(gen_instance("euclidean", 150, 10, seed=3).metric, (0, 70))
        assert_reports_first_violation(m, (0, 70))

    def test_violation_at_last_row(self):
        # A violation at (x, y, z) is one at (y, x, z) as well, so it is
        # first seen at x = n only when the two differ by the tolerance that
        # the symmetry check allows.  On a line, c(n,0) = c(n,1) + c(1,0);
        # skewing row n by 0.9 tol breaks that at (n, 0, 1) alone.
        m = line_metric(150)
        m[150, 0] += 0.9 * METRIC_TOL
        m[150, 1] -= 0.9 * METRIC_TOL
        assert_reports_first_violation(m, (150, 0, 1))

    def test_violation_in_last_cell_of_row(self):
        # On a line only n - 1 lies between n - 2 and n, so the one
        # violation of row n - 2 is its cell (y, z) = (n, n - 1).
        m = line_metric(150)
        m[148, 150] = m[150, 148] = 2.0 + 2 * METRIC_TOL
        assert_reports_first_violation(m, (148, 150, 149))

    @pytest.mark.parametrize("pairs", [
        [(90, 120), (31, 140)],  # different rows
        [(40, 130), (40, 60)],  # one row, different y
    ])
    def test_two_violations_report_the_first(self, pairs):
        m = planted(gen_instance("euclidean", 150, 10, seed=4).metric, *pairs)
        first = min(pairs)
        assert_reports_first_violation(m, first)

    def test_violation_on_the_diagonal_row(self):
        # Customers 1 and 2 share a point.  With c(1,2) = c(2,1) = -tol/2 and
        # c(1,1) = tol/2, both within tolerance, (1, 1, 2) is the only
        # violation: slack 1.5 tol on the row y = x, which has no mirror.
        m = line_metric(4)
        m[:, 2] = m[:, 1]
        m[2, :] = m[1, :]
        m[1, 2] = m[2, 1] = -0.5 * METRIC_TOL
        m[1, 1] = 0.5 * METRIC_TOL
        assert_reports_first_violation(m, (1, 1, 2))

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_screen_agrees_with_brute_force(self, data):
        m = data.draw(near_metrics())
        first = brute_force_first_violation(m)
        inst = Instance("near", 10, (1,) * (len(m) - 1), m)
        if first is None:
            assert validate_instance(inst) is inst
        else:
            with pytest.raises(TriangleViolation) as exc:
                validate_instance(inst)
            assert exc.value.triple == first

    @pytest.mark.parametrize("kind, n, seed", [
        ("euclidean", 150, 1), ("euclidean", 150, 2), ("euclidean", 200, 3),
        ("random_metric", 150, 1), ("random_metric", 163, 2),
    ])
    def test_generated_instances_pass_the_screen(self, monkeypatch, kind, n, seed):
        def scan(*args):
            raise AssertionError("the exhaustive triangle scan ran")

        monkeypatch.setattr(ucvrp.instance, "_raise_first_triangle_violation", scan)
        inst = gen_instance(kind, n, 10, seed=seed)
        validate_instance(inst)
        # Without its coordinates a Euclidean metric goes through the screen.
        validate_instance(replace(inst, coords=None))

    def test_triangle_check_memory_is_quadratic(self):
        # An (n+1)^3 float64 slack tensor alone takes ~27 MB at n = 150.
        inst = gen_instance("euclidean", 150, 10, seed=1)
        for case in (inst, replace(inst, coords=None)):
            assert peak_bytes(validate_instance, case) < 4e6

    @pytest.mark.parametrize("n, seed", [(150, 1), (150, 2), (175, 3), (200, 3)])
    def test_coordinates_skip_the_screen(self, monkeypatch, n, seed):
        refuse_triangle_checks(monkeypatch)
        validate_instance(gen_instance("euclidean", n, 10, seed=seed))

    def test_coordinate_proof_memory_is_quadratic(self, monkeypatch):
        # The symmetry check's m - m^T and |m - m^T| and _euclidean's dx and
        # dy are (n+1)^2 floats each; nothing of size (n+1)^3 is built.
        refuse_triangle_checks(monkeypatch)
        n = 200
        inst = gen_instance("euclidean", n, 10, seed=1)
        assert peak_bytes(validate_instance, inst) < 5 * (n + 1) ** 2 * 8

    def test_coordinates_prove_up_to_the_limit(self, monkeypatch):
        # The proof holds while 4 eps max|m| < tol, max|m| < ~1.1e6.  These
        # collinear points round to a slack of 0.74 eps max|m|: proven at
        # 2^15 (max|m| ~ 7.1e5), passed by the screen at 2^17 (~2.8e6),
        # and a violation at 2^20 (~2.3e7).
        pts = np.array([[0.0, 0.0], [2.0, 3.0], [12.0, 18.0]])
        for j, first in [(17, None), (20, (0, 2, 1))]:
            inst = coordinate_instance(pts * 2.0**j, _euclidean(pts * 2.0**j))
            assert brute_force_first_violation(inst.metric) == first
            if first is None:
                validate_instance(inst)
            else:
                with pytest.raises(TriangleViolation) as exc:
                    validate_instance(inst)
                assert exc.value.triple == first
        refuse_triangle_checks(monkeypatch)
        validate_instance(coordinate_instance(pts * 2.0**15, _euclidean(pts * 2.0**15)))

    def test_planted_metric_next_to_coordinates(self):
        inst = gen_instance("euclidean", 150, 10, seed=3)
        m = planted(inst.metric, (0, 70))
        with pytest.raises(TriangleViolation) as exc:
            validate_instance(replace(inst, metric=m))
        assert exc.value.triple == brute_force_first_violation(m)

    @pytest.mark.parametrize("coords", [((0.0, 0.0), (1.0,)) * 2, (("a", "b"),) * 4])
    def test_coordinates_that_are_not_points_prove_nothing(self, coords):
        m = planted(line_metric(3), (0, 3))
        with pytest.raises(TriangleViolation) as exc:
            validate_instance(Instance("odd", 10, (1, 1, 1), m, coords))
        assert exc.value.triple == brute_force_first_violation(m)

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_coordinate_proof_agrees_with_brute_force(self, data):
        inst = coordinate_instance(*data.draw(coordinate_cases()))
        first = brute_force_first_violation(inst.metric)
        if first is None:
            assert validate_instance(inst) is inst
        else:
            with pytest.raises(TriangleViolation) as exc:
                validate_instance(inst)
            assert exc.value.triple == first


def refuse_triangle_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("the triangle screen or scan ran")

    monkeypatch.setattr(ucvrp.instance, "_one_sided_triangle_ok", refuse)
    monkeypatch.setattr(ucvrp.instance, "_raise_first_triangle_violation", refuse)


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coordinate_instance(pts, metric):
    coords = tuple((float(x), float(y)) for x, y in pts)
    return Instance("coords", 10, (1,) * (len(pts) - 1), metric, coords)


@st.composite
def coordinate_cases(draw):
    """Points and a metric next to them: points on an integer line (exact
    collinear runs and coincident points), an integer grid or the unit
    square, scaled by 2^j, 0 <= j <= 36, so from 1 to far past the
    proof's limit of max|m| ~ 1.1e6; the metric is their ``_euclidean``,
    or that with one symmetric pair moved by a planted amount."""
    size = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["line", "grid", "plane"]))
    if layout == "line":
        pts = rng.integers(0, 6, size=(size, 1)) * rng.integers(1, 4, size=2)
    elif layout == "grid":
        pts = rng.integers(0, 3, size=(size, 2))
    else:
        pts = rng.random((size, 2))
    pts = pts * 2.0 ** draw(st.integers(0, 36))
    m = _euclidean(pts)
    if draw(st.booleans()):
        x, y = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                             unique=True))
        amount = draw(st.sampled_from([0.5, 2.0])) * METRIC_TOL
        amount = draw(st.sampled_from([amount, 1e-6 * m.max(), 0.5 * m.max()]))
        moved = m[x, y] + draw(st.sampled_from([-1.0, 1.0])) * amount
        m[x, y] = m[y, x] = max(moved, 0.0)
    return pts, m


def line_metric(n):
    """Customers at 1..n on a line with the depot at 0: c(x,y) = |x - y|."""
    pts = np.arange(n + 1, dtype=float)
    return np.abs(np.subtract.outer(pts, pts))


def planted(metric, *pairs):
    """``metric`` with c(x,y) = c(y,x) raised by 1 for each pair (x, y), so
    the detour through almost any z is shorter."""
    m = np.array(metric)
    for x, y in pairs:
        m[x, y] += 1.0
        m[y, x] += 1.0
    return m


@st.composite
def near_metrics(draw):
    """Matrices that pass every check but the triangle one, with slacks
    near the tolerance: points on a coarse line (ties and exact zero
    slacks) or in the plane, scaled by 1 to 1e6, then symmetric pairs
    moved by +-tol (1 +- k ulp), entries of coincident points made
    negative, diagonal entries set, and entries of a row skewed, all within
    tol."""
    size = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, 4, size=(size, 1)).astype(float)
    else:
        pts = rng.random((size, 2))
    m = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    m *= draw(st.sampled_from([1.0, 3.0, 1e3, 1e6]))
    eps = np.finfo(float).eps
    index = st.integers(0, size - 1)
    within = st.floats(0.0, METRIC_TOL)
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(index), draw(index)
        if x != y:
            ulps = draw(st.integers(-3, 3))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            moved = m[x, y] + sign * METRIC_TOL * (1 + ulps * eps)
            m[x, y] = m[y, x] = max(moved, -METRIC_TOL)
    for x in range(size):
        for y in range(size):
            if x != y and m[x, y] == 0 and draw(st.booleans()):
                m[x, y] = m[y, x] = -draw(within)
    for x in draw(st.lists(index, max_size=3)):
        m[x, x] = draw(st.floats(-METRIC_TOL, METRIC_TOL))
    for x in draw(st.lists(index, max_size=2)):
        for y in draw(st.lists(index, min_size=1, max_size=3)):
            if x == y:
                continue
            skew = draw(st.sampled_from([-1.0, -0.9, -0.5, 0.5, 0.9, 1.0])) * METRIC_TOL
            skewed = max(m[y, x] + skew, -METRIC_TOL)
            while abs(skewed - m[y, x]) > METRIC_TOL:
                skewed = np.nextafter(skewed, m[y, x])
            m[x, y] = skewed
    return m


def brute_force_first_violation(m):
    for x in range(len(m)):
        for y in range(len(m)):
            bad = np.flatnonzero(m[x, y] - m[x] - m[:, y] > METRIC_TOL)
            if len(bad):
                return x, y, int(bad[0])
    return None


def assert_reports_first_violation(m, prefix):
    """validate_instance reports the brute-force first violating triple,
    which starts with ``prefix``."""
    first = brute_force_first_violation(m)
    assert first[:len(prefix)] == prefix
    inst = Instance("planted", 10, (1,) * (len(m) - 1), m)
    with pytest.raises(TriangleViolation) as exc:
        validate_instance(inst)
    assert exc.value.triple == first


class TestBasics:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10**6),
        st.integers(0, 2 * 10**6),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
    )
    def test_exceeds_is_exact(self, k, d, p, q):
        inst = Instance("one", k, (d,), np.zeros((2, 2)))
        t = Fraction(p, q)
        assert inst.exceeds(1, t) == (Fraction(d, k) > t)
        assert inst.exceeds(1, p) == (Fraction(d, k) > p)
        assert not inst.exceeds(1, Fraction(d, k))

    def test_radial_lower_bound_line3(self, inst_line3):
        # By hand: sum of 2 * (1/2) * c(r,v) over c(r,v) in {1, 2, 3}.
        assert radial_lower_bound(inst_line3) == pytest.approx(6.0, abs=1e-12)

    def test_metric_is_a_private_copy(self):
        a = line_metric(3)
        inst = Instance("copy", 2, (1, 1, 1), a)
        assert a.flags.writeable
        assert not inst.metric.flags.writeable
        a[0, 1] = a[1, 0] = 99.0
        assert inst.metric[0, 1] == 1.0
        validate_instance(inst)

    def test_route_cost(self, inst_line3):
        assert inst_line3.route_cost((0, 1, 2, 3, 0)) == pytest.approx(6.0)


class TestClassify:
    def test_three_way_split(self):
        inst = line_instance([1.0, 2.0, 3.0], capacity=4, demands=(1, 2, 3))
        cls = classify(inst, Fraction(1, 3))
        assert cls.small == frozenset({1})
        assert cls.big == frozenset({2})
        assert cls.large == frozenset({3})

    def test_threshold_is_inclusive(self):
        inst = line_instance([1.0], capacity=3, demands=(1,))
        cls = classify(inst, Fraction(1, 3))
        assert cls.small == frozenset({1})

    def test_delta_domain(self, inst_line3):
        with pytest.raises(ValueError):
            classify(inst_line3, Fraction(3, 4))

    def test_partition_property(self):
        for inst in instance_mix(20, max_n=10, max_k=6):
            for delta in (Fraction(0), Fraction(1, 5), Fraction(1, 2)):
                cls = classify(inst, delta)
                union = cls.small | cls.big | cls.large
                assert union == frozenset(inst.customers)
                assert not (cls.small & cls.big)
                assert not (cls.big & cls.large)
                assert not (cls.small & cls.large)


class TestDemandProfile:
    def test_full_interval_identity_exact(self):
        for inst in instance_mix(25, max_n=12, max_k=8):
            assert f_integral(inst, Fraction(0), Fraction(1), 1) == 1.0

    def test_sandwich(self):
        grid = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        for inst in instance_mix(15, max_n=10, max_k=8):
            for i, l in enumerate(grid):
                for r in grid[i + 1:]:
                    mass = f_integral(inst, l, r, 0)
                    mean = f_integral(inst, l, r, 1)
                    assert mean <= float(r) * mass + 1e-12
                    members = [
                        v for v in inst.customers
                        if l < norm_demand(inst, v) <= r and inst.depot_cost(v) > 0
                    ]
                    if members:
                        assert mean > float(l) * mass - 1e-12

    def test_zero_radial_mass(self):
        inst = line_instance([0.0], capacity=2, demands=(1,))
        with pytest.raises(ZeroRadialMass):
            f_integral(inst, Fraction(0), Fraction(1), 1)

    def test_bad_arguments(self, inst_line3):
        with pytest.raises(ValueError):
            f_integral(inst_line3, Fraction(1, 2), Fraction(1, 3), 0)
        with pytest.raises(ValueError):
            f_integral(inst_line3, Fraction(0), Fraction(1), 2)


class TestGenerators:
    def test_deterministic(self):
        a = gen_instance("euclidean", 6, 3, seed=11)
        b = gen_instance("euclidean", 6, 3, seed=11)
        assert a.to_json() == b.to_json()

    def test_seed_changes_instance(self):
        a = gen_instance("euclidean", 6, 3, seed=1)
        b = gen_instance("euclidean", 6, 3, seed=2)
        assert a.to_json() != b.to_json()

    def test_random_metric_is_metric(self):
        for seed in range(5):
            validate_instance(gen_instance("random_metric", 8, 4, seed=seed))

    def test_heavy_law_in_range(self):
        inst = gen_instance("euclidean", 20, 9, demand_law="heavy", seed=3)
        validate_instance(inst)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_instance("grid", 4, 2)

    @given(n=st.integers(1, 10), k=st.integers(1, 8), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_generated_always_valid(self, n, k, seed):
        validate_instance(gen_instance("euclidean", n, k, seed=seed))


class TestSerialization:
    def test_json_round_trip_euclidean(self, tmp_path):
        inst = gen_instance("euclidean", 7, 3, seed=5)
        path = tmp_path / "i.json"
        save_json(inst, str(path))
        back = load_json(str(path))
        assert back.to_json() == inst.to_json()
        assert np.allclose(back.metric, inst.metric)

    def test_json_round_trip_explicit(self, tmp_path, inst_line3):
        path = tmp_path / "line3.json"
        save_json(inst_line3, str(path))
        back = load_json(str(path))
        assert back.capacity == 2
        assert back.demands == (1, 1, 1)
        assert np.allclose(back.metric, inst_line3.metric)

    def test_unknown_metric_type(self):
        with pytest.raises(InstanceError):
            from_json_dict({
                "name": "x", "capacity": 1, "demands": [1],
                "metric": {"type": "geo"},
            })

    def test_loaded_coordinates_skip_the_screen(self, tmp_path, monkeypatch):
        # The euc2d branch of from_json_dict builds the metric with the
        # same _euclidean, so a file that ucvrp gen wrote needs no screen.
        inst = gen_instance("euclidean", 200, 10, seed=1)
        path = tmp_path / "i.json"
        save_json(inst, str(path))
        refuse_triangle_checks(monkeypatch)
        back = load_json(str(path))
        assert validate_instance(back) is back

    def test_euclidean_metric_is_bit_identical(self):
        inst = gen_instance("euclidean", 9, 3, seed=4)
        back = from_json_dict(json.loads(inst.to_json()))
        assert np.array_equal(back.metric, inst.metric)

    def test_integral_float_demand_accepted(self, inst_line3):
        data = inst_line3.to_json_dict()
        data["capacity"], data["demands"] = 2.0, [1.0, 1, 1]
        assert from_json_dict(data).to_json() == inst_line3.to_json()

    @pytest.mark.parametrize("field, value", [
        ("demands", [1.5, 1, 1]),
        ("demands", [True, 1, 1]),
        ("demands", ["1", 1, 1]),
        ("demands", None),
        ("capacity", 2.9),
        ("capacity", "2"),
        ("metric", None),
        ("metric", {"type": "explicit", "matrix": [[0, 1], [1]]}),
        ("metric", {"type": "explicit", "matrix": [[0, None], [1, 0]]}),
        ("metric", {"type": "euc2d", "coords": [[0, 0], [1]]}),
        ("metric", {"type": "euc2d", "coords": [0, 1]}),
        ("metric", {"type": "euc2d"}),
        ("metric", {"type": "euc2d", "coords": []}),
    ])
    def test_rejects_malformed_fields(self, inst_line3, field, value):
        data = inst_line3.to_json_dict()
        data[field] = value
        with pytest.raises(InstanceError):
            validate_instance(from_json_dict(data))

    @pytest.mark.parametrize("data", [[1, 2], None, {"name": "x", "capacity": 2}])
    def test_rejects_non_instances(self, data):
        with pytest.raises(InstanceError):
            from_json_dict(data)
