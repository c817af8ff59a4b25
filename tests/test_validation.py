"""Input checks: the shared finite-number check names the offending field, and
every value type checks its fields however an instance is built."""

import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cyrisk.cvss import CvssVector
from cyrisk.documents import RunConfig
from cyrisk.errors import InputError
from cyrisk.fair import FairResult, SummaryRow
from cyrisk.htma import HtmaResult
from cyrisk.model import (
    AttackCountModel,
    ControlWeightMatrix,
    IncidentLikelihood,
    LossCategory,
    Threat,
)
from cyrisk.oracle import EmpiricalCounts, OracleReport
from cyrisk.posture import (
    CategoryComplexity,
    ControlResponse,
    PostureProfile,
    Questionnaire,
)
from cyrisk.success import LogisticParams, SuccessDistribution, pert_from_maturity, solve_asymptotes

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


RESPONSE = ControlResponse(control_id="c", score=2)

#: Each validated type: the fields of a valid instance, one bad field value and
#: the start of the message the constructor gives for it.
VALIDATED = {
    "AttackCountModel": (
        AttackCountModel, dict(t=365, n_avg=4.0), ("n_avg", 500.0), "binomial model needs n_avg"
    ),
    "IncidentLikelihood": (
        IncidentLikelihood,
        dict(pmf=None, value=0.5, quadrature_error=0.0),
        ("value", 1.5),
        "likelihood must be in [0, 1]",
    ),
    "Threat": (
        Threat, dict(id=1, name="x", impact_low=1.0, impact_high=2.0), ("impact_low", 0.0),
        "threat 1: impact_low must be > 0",
    ),
    "ControlWeightMatrix": (
        ControlWeightMatrix, dict(controls=("a",), threats=(1,), weights=((1.0,),)),
        ("weights", ((-1.0,),)), "weight for control 'a' must be >= 0",
    ),
    "LossCategory": (
        LossCategory, dict(name="x", low=1.0, most_likely=2.0, high=3.0), ("confidence", 0.0),
        "loss category 'x': confidence must be positive",
    ),
    "ControlResponse": (
        ControlResponse, dict(control_id="c", score=2), ("score", -1),
        "control 'c': score must be >= 0",
    ),
    "Questionnaire": (
        Questionnaire, dict(responses=(RESPONSE,), s_max=4, kind="awareness"),
        ("s_max", 1), "control 'c': score 2 exceeds s_max=1",
    ),
    "CategoryComplexity": (
        CategoryComplexity, dict(label="n", index=5.0, control_count=3), ("index", 11.0),
        "category 'n': index must be in [0, 10]",
    ),
    "PostureProfile": (
        PostureProfile,
        dict(awareness_index=5.0, maturity_index=5.0, complexity_index=5.0,
             attractiveness="high"),
        ("maturity_index", -1.0), "maturity_index must be in [0, 10]",
    ),
    "LogisticParams": (
        LogisticParams, CURVE._asdict(), ("B", -1e-17), "curve is flat between x=0 and x=10",
    ),
    "SuccessDistribution": (
        SuccessDistribution, SuccessDistribution.from_triple(0.28, 0.5, 0.72)._asdict(),
        ("p_m", 0.0), "need 0 < p_m <= p_star <= p_M < 1",
    ),
    "RunConfig": (
        RunConfig, dict(path=Path("run.json"), count=AttackCountModel()), ("trials", 0),
        "trials must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("name", list(VALIDATED))
def test_every_construction_path_checks(name):
    # NamedTuple's _make and _replace build through tuple.__new__, not the
    # constructor; each must still raise the constructor's error
    cls, fields, (field, bad), message = VALIDATED[name]
    good = cls(**fields)
    values = [bad if f == field else v for f, v in zip(cls._fields, good)]
    paths = {
        "constructor": lambda: cls(**{**fields, field: bad}),
        "_make": lambda: cls._make(values),
        "_replace": lambda: good._replace(**{field: bad}),
    }
    raised = {}
    for path, build in paths.items():
        with pytest.raises(InputError) as exc:
            build()
        raised[path] = (type(exc.value), str(exc.value))
    assert raised["constructor"][1].startswith(message)
    assert raised["_make"] == raised["_replace"] == raised["constructor"]


def test_normalizing_types_normalize_on_every_path():
    matrix = ControlWeightMatrix(["a"], [1], [[1.0]])
    assert matrix == (("a",), (1,), ((1.0,),))
    assert matrix._replace(weights=[[2.0]]).weights == ((2.0,),)
    assert ControlWeightMatrix._make([["a"], [1], [[3.0]]]).weights == ((3.0,),)
    questionnaire = Questionnaire([RESPONSE], 4, "awareness")
    assert questionnaire.responses == (RESPONSE,)
    assert questionnaire._replace(responses=[RESPONSE] * 2).responses == (RESPONSE,) * 2
    profile = PostureProfile(5.0, 5.0, 5.0, "high")
    category = CategoryComplexity("n", 5.0, 3)
    assert profile._replace(categories=[category]).categories == (category,)
    band = LossCategory("x", 1.0, 2.0, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        swapped = band._replace(most_likely=5.0)
    assert (swapped.low, swapped.most_likely, swapped.high) == (1.0, 3.0, 5.0)
    assert [str(w.message) for w in caught] == [
        "loss category 'x': band (1.0, 5.0, 3.0) is not ordered; reordered to (1.0, 3.0, 5.0)"
    ]


#: One instance of every value type in the package.
INSTANCES = {
    **{name: cls(**fields) for name, (cls, fields, _, _) in VALIDATED.items()},
    "CvssVector": CvssVector("local", "low", "none"),
    "HtmaResult": HtmaResult(np.zeros(2), (np.zeros(1), np.ones(1))),
    "EmpiricalCounts": EmpiricalCounts(np.ones(1), 10),
    "OracleReport": OracleReport(True, 1e-3, 0.0, 0, 1.0, (), 0.0, (0.0,)),
    "SummaryRow": SummaryRow(0.0, 0.0, 0.0, 0.0),
    "FairResult": FairResult(np.zeros(1, int), np.zeros(1), np.zeros(1), {}, {}),
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_value_types_are_immutable(name):
    value = INSTANCES[name]
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_every_value_type_is_covered():
    # cli's Output and Assessment are the command layer's own records
    modules = ("cvss", "documents", "fair", "htma", "model", "oracle", "posture", "success")
    found = {
        name
        for module in modules
        for name, value in vars(importlib.import_module(f"cyrisk.{module}")).items()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == f"cyrisk.{module}"
    }
    assert found == set(INSTANCES)
    assert len(found) == 18
