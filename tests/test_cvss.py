import itertools

import pytest

from cyrisk.cvss import FACTORS, CvssVector, cvss_likelihood
from cyrisk.errors import InputError
from cyrisk.model import Threat


def test_all_maximal_factors_give_one():
    vector = CvssVector(
        access_vector="network",
        access_complexity="low",
        authentication="none",
        exploitability="high",
        report_confidence="confirmed",
    )
    assert cvss_likelihood(vector) == 1.0


def test_local_medium_multiple_product():
    # 0.4 * 0.75 * 0.5 * 1.0 * 1.0 = 0.15
    vector = CvssVector(
        access_vector="local",
        access_complexity="medium",
        authentication="multiple",
        exploitability="high",
        report_confidence="confirmed",
    )
    assert cvss_likelihood(vector) == pytest.approx(0.15, abs=1e-12)


def test_temporal_factors_product():
    # 1.0 * 1.0 * 1.0 * 0.85 * 0.9 = 0.765
    vector = CvssVector(
        access_vector="network",
        access_complexity="low",
        authentication="none",
        exploitability="unproven",
        report_confidence="unconfirmed",
    )
    assert cvss_likelihood(vector) == pytest.approx(0.765, abs=1e-12)


def test_minimal_product_floor():
    minimal = CvssVector(
        access_vector="local",
        access_complexity="high",
        authentication="multiple",
        exploitability="unproven",
        report_confidence="unconfirmed",
    )
    floor = cvss_likelihood(minimal)
    assert floor == pytest.approx(0.4 * 0.5 * 0.5 * 0.85 * 0.9, abs=1e-12)
    for av, ac, au in itertools.product(*list(FACTORS.values())[:3]):
        vector = CvssVector(av, ac, au)
        assert floor <= cvss_likelihood(vector) <= 1.0


def test_monotone_in_each_factor():
    base = dict(
        access_vector="adjacent",
        access_complexity="medium",
        authentication="single",
        exploitability="functional",
        report_confidence="unconfirmed",
    )
    orders = {
        "access_vector": ["local", "adjacent", "network"],
        "access_complexity": ["high", "medium", "low"],
        "authentication": ["multiple", "single", "none"],
        "exploitability": ["unproven", "proof_of_concept", "functional", "high"],
        "report_confidence": ["unconfirmed", "uncorroborated", "confirmed"],
    }
    for field, levels in orders.items():
        values = [cvss_likelihood(CvssVector(**{**base, field: level})) for level in levels]
        assert values == sorted(values), field


def test_not_defined_matches_highest_temporal_factor():
    kwargs = dict(
        access_vector="network",
        access_complexity="low",
        authentication="none",
    )
    defined = CvssVector(
        exploitability="high",
        report_confidence="confirmed",
        **kwargs,
    )
    undefined = CvssVector(**kwargs)
    assert cvss_likelihood(defined) == cvss_likelihood(undefined)


def test_unknown_level_is_named_on_every_construction_path():
    with pytest.raises(InputError) as info:
        CvssVector("bogus", "low", "none")
    assert str(info.value) == "access_vector must be one of local, adjacent, network, got 'bogus'"
    # levels are the lower-case words of FACTORS; a threat cannot carry another
    message = "access_complexity must be one of high, medium, low, got 'LOW'"
    with pytest.raises(InputError, match=message):
        Threat(1, "a", 1.0, 2.0, cvss=CvssVector("network", "LOW", "none"))
    vector = CvssVector("network", "low", "none")
    with pytest.raises(InputError, match="exploitability must be one of unproven, .*, got 'none'"):
        vector._replace(exploitability="none")
    with pytest.raises(InputError, match="report_confidence must be one of .*, got 'sure'"):
        CvssVector._make(["network", "low", "none", "high", "sure"])
