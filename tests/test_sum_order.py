"""Every float sum in the package adds left to right, so its last bits do
not depend on the Python version: the pinned outputs hold when ``sum``
compensates as Python 3.12's does."""

import builtins

import pytest

import test_algorithms
import test_demand_rules
import test_itp
from reference import sum_312


def test_emulation_compensates_floats_only():
    floats = [1e16, 1.0, -1e16]
    assert sum_312(floats) == 1.0
    assert sum_312([1, 2], 3) == 6
    assert sum_312(([1], [2]), []) == [1, 2]


@pytest.mark.parametrize("pinned", [
    test_itp.test_partition_outputs_pinned,
    test_algorithms.test_solve_outputs_pinned,
    test_algorithms.test_large_path_outputs_pinned,
    test_demand_rules.test_demand_rules_pinned,
], ids=lambda f: f.__name__)
def test_pinned_outputs_under_compensated_sum(monkeypatch, pinned):
    monkeypatch.setattr(builtins, "sum", sum_312)
    pinned()
