"""Posture-driven cyber incident likelihood and Monte Carlo loss exposure.

The pipeline: score questionnaires into posture indices (``posture``), map
maturity and complexity to a single-attack success band (``success``), mix
that band with an attack-attempt model into incident likelihoods
(``incidence``), and feed those into the annual-loss (``htma``) or
frequency-and-magnitude (``fair``) Monte Carlo engines. ``oracle`` replays
the whole attacker process by brute force to validate the analytic results,
and ``cvss`` provides the product-of-metrics comparison baseline. Only
``htma``, ``fair`` and ``oracle`` load numpy; ``model`` holds the value types
the documents describe.
"""

__version__ = "0.1.0"
