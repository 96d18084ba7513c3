import math

import pytest

from ucvrp.constants import (
    NoSignChange,
    _g_y0,
    _g_y1,
    appendix_a2,
    bisect_enclosure,
    constants_report,
    default_gammas,
    f_epsilon,
    ratio_alg1,
    ratio_alg2,
    solve_y0,
    solve_y0_eps,
    solve_y1,
    solve_y1_eps,
)

from reference import count_sign_changes


class TestRootSolvers:
    def test_y0_enclosure(self):
        enc = solve_y0()
        assert enc.width <= 1e-12
        assert 0.393 < enc.lo <= enc.hi < 0.394
        assert abs(_g_y0(enc.mid)) < 1e-10
        # Sign change is certified at the endpoints.
        assert _g_y0(enc.lo) * _g_y0(enc.hi) <= 0

    def test_y1_y2_enclosures(self):
        y1, y2 = solve_y1()
        assert y1.width <= 1e-12
        assert 0.174 < y1.mid < 0.175
        assert abs(_g_y1(y1.mid)) < 1e-10
        # y2 is the derived expression evaluated on the y1 enclosure.
        expect = 4.0 * (1.0 - y1.mid) * (1.0 - math.exp(-0.5 * y1.mid))
        assert y2.lo <= expect <= y2.hi or abs(expect - y2.mid) < 1e-11
        assert 0.27 < y2.mid < 0.28

    def test_unique_root_on_domain(self):
        assert count_sign_changes(_g_y0, 1e-9, 1.0 - 1e-9) == 1
        assert count_sign_changes(_g_y1, 1e-9, 0.5 - 1e-6) == 1

    def test_bisect_requires_sign_change(self):
        with pytest.raises(NoSignChange):
            bisect_enclosure(lambda x: 1.0 + x * x, 0.0, 1.0)

    def test_bisect_exact_root(self):
        enc = bisect_enclosure(lambda x: x - 0.25, 0.0, 1.0)
        assert enc.width <= 1e-12
        assert abs(enc.mid - 0.25) < 1e-12


class TestDerivedConstants:
    def test_gammas(self):
        g = default_gammas()
        assert g.gamma_star == pytest.approx(0.58969, abs=1e-4)
        assert g.gamma1 == pytest.approx(0.41398, abs=1e-4)
        assert g.gamma2 == pytest.approx(0.50128, abs=1e-4)
        assert g.gamma1 < g.gamma2 < g.gamma_star

    def test_headline_ratios(self):
        r1 = ratio_alg1(1.5)
        assert 3.089 < r1 < 3.0897
        r2 = ratio_alg2(1.5, 1e-10)
        assert 3.175 < r2 < 3.1759

    def test_ratio_domains(self):
        with pytest.raises(ValueError):
            ratio_alg1(0.5)
        with pytest.raises(ValueError):
            ratio_alg2(1.5, 0.5)
        with pytest.raises(ValueError):
            ratio_alg2(1.5, 0.0)


class TestOverheadFunction:
    def test_values(self):
        assert f_epsilon(0.000335).value < 0.49967
        assert f_epsilon(0.000334).value < 0.49915

    def test_witness_in_box(self):
        w = f_epsilon(0.000335)
        assert 0 < w.tau <= 1 / 6
        assert 0 < w.rho <= 1 / 6
        assert 0 < w.theta <= 1 - w.tau
        assert w.zeta > 0

    def test_witness_certifies_value(self):
        from ucvrp.constants import _f_objective

        w = f_epsilon(0.000334)
        assert w.value == pytest.approx(
            _f_objective(0.000334, w.theta, w.tau, w.rho), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            f_epsilon(0.0)


class TestRefinedBounds:
    def test_epsilon_adjusted_roots(self):
        assert solve_y0_eps(0.000335).lo > 0.39305
        assert solve_y1_eps(0.000334).lo > 0.17457

    def test_final_ratios_and_improvements(self):
        rep = appendix_a2()
        assert rep.final_fixed <= 3.0894
        assert rep.final_general <= 3.1755
        assert rep.improvement_fixed >= 0.00031
        assert rep.improvement_general >= 0.00039
        assert rep.final_fixed == max(rep.easy_fixed, rep.hard_fixed)
        assert rep.final_general == max(rep.easy_general, rep.hard_general)

    def test_report_is_complete(self):
        rep = constants_report()
        for key in ("y0", "y1", "y2", "gamma_star", "gamma1", "gamma2", "a2"):
            assert key in rep
        assert rep["y0"]["lo"] <= rep["y0"]["mid"] <= rep["y0"]["hi"]
