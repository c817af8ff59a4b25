import itertools

import pytest

from cyrisk.cvss import (
    AccessComplexity,
    AccessVector,
    Authentication,
    CvssVector,
    Exploitability,
    ReportConfidence,
    cvss_likelihood,
)


def test_all_maximal_factors_give_one():
    vector = CvssVector(
        access_vector=AccessVector.NETWORK,
        access_complexity=AccessComplexity.LOW,
        authentication=Authentication.NONE,
        exploitability=Exploitability.HIGH,
        report_confidence=ReportConfidence.CONFIRMED,
    )
    assert cvss_likelihood(vector) == 1.0


def test_local_medium_multiple_product():
    # 0.4 * 0.75 * 0.5 * 1.0 * 1.0 = 0.15
    vector = CvssVector(
        access_vector=AccessVector.LOCAL,
        access_complexity=AccessComplexity.MEDIUM,
        authentication=Authentication.MULTIPLE,
        exploitability=Exploitability.HIGH,
        report_confidence=ReportConfidence.CONFIRMED,
    )
    assert cvss_likelihood(vector) == pytest.approx(0.15, abs=1e-12)


def test_temporal_factors_product():
    # 1.0 * 1.0 * 1.0 * 0.85 * 0.9 = 0.765
    vector = CvssVector(
        access_vector=AccessVector.NETWORK,
        access_complexity=AccessComplexity.LOW,
        authentication=Authentication.NONE,
        exploitability=Exploitability.UNPROVEN,
        report_confidence=ReportConfidence.UNCONFIRMED,
    )
    assert cvss_likelihood(vector) == pytest.approx(0.765, abs=1e-12)


def test_minimal_product_floor():
    minimal = CvssVector(
        access_vector=AccessVector.LOCAL,
        access_complexity=AccessComplexity.HIGH,
        authentication=Authentication.MULTIPLE,
        exploitability=Exploitability.UNPROVEN,
        report_confidence=ReportConfidence.UNCONFIRMED,
    )
    floor = cvss_likelihood(minimal)
    assert floor == pytest.approx(0.4 * 0.5 * 0.5 * 0.85 * 0.9, abs=1e-12)
    for av, ac, au in itertools.product(AccessVector, AccessComplexity, Authentication):
        vector = CvssVector(av, ac, au)
        assert floor <= cvss_likelihood(vector) <= 1.0


def test_monotone_in_each_factor():
    base = dict(
        access_vector=AccessVector.ADJACENT,
        access_complexity=AccessComplexity.MEDIUM,
        authentication=Authentication.SINGLE,
        exploitability=Exploitability.FUNCTIONAL,
        report_confidence=ReportConfidence.UNCONFIRMED,
    )
    orders = {
        "access_vector": [AccessVector.LOCAL, AccessVector.ADJACENT, AccessVector.NETWORK],
        "access_complexity": [AccessComplexity.HIGH, AccessComplexity.MEDIUM, AccessComplexity.LOW],
        "authentication": [Authentication.MULTIPLE, Authentication.SINGLE, Authentication.NONE],
        "exploitability": [
            Exploitability.UNPROVEN,
            Exploitability.PROOF_OF_CONCEPT,
            Exploitability.FUNCTIONAL,
            Exploitability.HIGH,
        ],
        "report_confidence": [ReportConfidence.UNCONFIRMED, ReportConfidence.CONFIRMED],
    }
    for field, levels in orders.items():
        values = [cvss_likelihood(CvssVector(**{**base, field: level})) for level in levels]
        assert values == sorted(values), field


def test_not_defined_matches_highest_temporal_factor():
    kwargs = dict(
        access_vector=AccessVector.NETWORK,
        access_complexity=AccessComplexity.LOW,
        authentication=Authentication.NONE,
    )
    defined = CvssVector(
        exploitability=Exploitability.HIGH,
        report_confidence=ReportConfidence.CONFIRMED,
        **kwargs,
    )
    undefined = CvssVector(**kwargs)
    assert cvss_likelihood(defined) == cvss_likelihood(undefined)

