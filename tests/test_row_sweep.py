"""``tools/row_sweep.py``'s margin on hand-built rows: no scenario runs."""

import importlib.util
import math
from pathlib import Path

import pytest

from sedlab.estimators import ks_critical
from sedlab.report import Row

_spec = importlib.util.spec_from_file_location(
    "row_sweep", Path(__file__).resolve().parents[1] / "tools" / "row_sweep.py")
row_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(row_sweep)


def _ks(d, n=4096):
    return Row("position_ks", d, 0.0, ks_critical(n), 0.0, kind="upper_bound")


@pytest.mark.parametrize("row, margin", [
    # |est - ana| over max(tol |ana|, 3 stderr)
    (Row("x_variance", 0.515, 0.002, 0.5, 0.03), 1.0),
    (Row("x_variance", 0.49, 0.01, 0.5, 0.03), 1.0 / 3.0),
    # a bound's signed excess over 3 stderr
    (Row("u_product", 0.49, 0.005, 0.5, 0.0, kind="lower_bound"), 2.0 / 3.0),
    (Row("u_product", 0.52, 0.005, 0.5, 0.0, kind="lower_bound"), -4.0 / 3.0),
    # no allowance: the ratio to the bound, so a KS row reads d over its
    # critical value
    (_ks(0.5 * ks_critical(4096)), 0.5),
    (_ks(1.25 * ks_critical(4096)), 1.25),
    (Row("c_pp_max_dev", 0.02, 0.0, 0.05, 0.0, kind="upper_bound"), 0.4),
    (Row("p_variance_zero", 3e-18, 0.0, 1e-18, 0.0, kind="upper_bound"), 3.0),
    (Row("floor", 2.0, 0.0, 1.0, 0.0, kind="lower_bound"), 0.5),
    (Row("floor", 0.5, 0.0, 1.0, 0.0, kind="lower_bound"), 2.0),
])
def test_margin_exceeds_one_exactly_where_the_row_fails(row, margin):
    assert row_sweep.margin(row) == pytest.approx(margin, rel=1e-12)
    if margin != 1.0:
        assert (row_sweep.margin(row) > 1.0) == (not row.passed)


def test_margin_without_a_ratio_is_nil_or_infinite():
    # a bound at 0 with no allowance has no ratio to take
    assert row_sweep.margin(Row("dev", 0.0, 0.0, 0.0, 0.0, kind="upper_bound")) == 0.0
    assert row_sweep.margin(Row("dev", 1e-3, 0.0, 0.0, 0.0, kind="upper_bound")) == math.inf
