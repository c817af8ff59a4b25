"""Posture-driven cyber incident likelihood and Monte Carlo loss exposure.

The pipeline: score questionnaires into posture indices (``posture``), map
maturity and complexity to a single-attack success band (``success``), mix
that band with an attack-attempt model into incident likelihoods
(``incidence``), and feed those into the annual-loss (``htma``) or
frequency-and-magnitude (``fair``) Monte Carlo engines. ``oracle`` replays
the whole attacker process by brute force to validate the analytic results,
and ``cvss`` provides the product-of-metrics comparison baseline.
"""

from .cvss import (
    AccessComplexity,
    AccessVector,
    Authentication,
    CvssVector,
    Exploitability,
    ReportConfidence,
    cvss_likelihood,
)
from .errors import (
    ComputationError,
    DegenerateCurve,
    DocumentError,
    EmptyAssessment,
    InputError,
    InvalidRange,
    NoApplicableControls,
    QuadratureFailure,
    RiskModelError,
    SupportMismatch,
)
from .fair import FairResult, LossCategory, run_fair, sample_event_count, sample_loss_magnitude
from .htma import (
    ControlWeightMatrix,
    HtmaResult,
    LECPoint,
    Threat,
    loss_exceedance_curve,
    lognormal_params,
    per_threat_maturity,
    run_htma,
    sample_impact,
)
from .incidence import (
    AttackCountModel,
    CountKind,
    IncidentLikelihood,
    Regime,
    attack_count_pmf,
    incident_likelihood,
    likelihood_change,
)
from .oracle import EmpiricalCounts, OracleReport, SimConfig, compare_to_analytic, simulate
from .posture import (
    Attractiveness,
    CategoryComplexity,
    ControlResponse,
    PostureProfile,
    Questionnaire,
    QuestionnaireKind,
    assess_posture,
    attacker_weight,
    category_complexity,
    classify_attractiveness,
    complexity_index,
    maturity_index,
    score_index,
)
from .success import (
    LogisticParams,
    SuccessDistribution,
    pert_from_maturity,
    solve_asymptotes,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AccessComplexity",
    "AccessVector",
    "AttackCountModel",
    "Attractiveness",
    "Authentication",
    "CategoryComplexity",
    "ComputationError",
    "ControlResponse",
    "ControlWeightMatrix",
    "CountKind",
    "CvssVector",
    "DegenerateCurve",
    "DocumentError",
    "EmpiricalCounts",
    "EmptyAssessment",
    "Exploitability",
    "FairResult",
    "HtmaResult",
    "IncidentLikelihood",
    "InputError",
    "InvalidRange",
    "LECPoint",
    "LogisticParams",
    "LossCategory",
    "NoApplicableControls",
    "OracleReport",
    "PostureProfile",
    "QuadratureFailure",
    "Questionnaire",
    "QuestionnaireKind",
    "Regime",
    "ReportConfidence",
    "RiskModelError",
    "SimConfig",
    "SuccessDistribution",
    "SupportMismatch",
    "Threat",
    "assess_posture",
    "attack_count_pmf",
    "attacker_weight",
    "category_complexity",
    "classify_attractiveness",
    "compare_to_analytic",
    "complexity_index",
    "cvss_likelihood",
    "incident_likelihood",
    "likelihood_change",
    "lognormal_params",
    "loss_exceedance_curve",
    "maturity_index",
    "per_threat_maturity",
    "pert_from_maturity",
    "run_fair",
    "run_htma",
    "sample_event_count",
    "sample_impact",
    "sample_loss_magnitude",
    "score_index",
    "simulate",
    "solve_asymptotes",
    "success_probability",
]
