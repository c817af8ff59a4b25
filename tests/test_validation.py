"""The shared finite-number check names the offending field."""

import math

import pytest

from cyrisk.errors import InputError
from cyrisk.model import LossCategory, Threat
from cyrisk.success import pert_from_maturity, solve_asymptotes

CURVE = solve_asymptotes(-1.0, 4.3)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: LossCategory(name="x", low=math.nan, most_likely=2.0, high=3.0), "low"),
        (lambda: Threat(id=1, name="x", impact_low=1.0, impact_high=math.inf), "impact_high"),
        (lambda: solve_asymptotes(-math.inf, 4.3), "B"),
        (lambda: pert_from_maturity(CURVE, 5.0, q=math.inf), "q"),
    ],
    ids=["loss_category_low_nan", "threat_impact_high_inf", "curve_B_minus_inf", "spread_q_inf"],
)
def test_non_finite_field_is_named(build, field):
    with pytest.raises(InputError, match=rf"\b{field} must be finite"):
        build()

