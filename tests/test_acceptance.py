"""Acceptance suite: each numbered criterion prints one pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines as they
execute. Criterion 02 compares the derived curve with the published band
table under the table's own convention, truncation to two decimals, and
reads threat 7's p_m through the documented erratum in
``reference_data.BAND_ERRATA``; ``test_threat_7_p_m_erratum`` holds the
evidence for that erratum. ``test_reference_band_regression_pin`` pins the
agreement under rounding, so a drift in the curve surfaces there too.
"""

import math
import time

import numpy as np

import reference_data as ref
from cyrisk.cli import main as cli_main
from cyrisk.cvss import CvssVector, cvss_likelihood
from cyrisk.fair import LossCategory, run_fair
from cyrisk.htma import Threat, run_htma
from cyrisk.incidence import (
    AttackCountModel,
    incident_likelihood,
)
from cyrisk.oracle import compare_to_analytic, simulate
from cyrisk.success import (
    SuccessDistribution,
    pert_from_maturity,
    solve_asymptotes,
    success_probability,
)

YEAR = AttackCountModel(t=ref.SLOTS_PER_YEAR, n_avg=ref.MEAN_ATTEMPTS)

DERIVED_PARAMS = solve_asymptotes(
    ref.DERIVED_GROWTH_RATE, ref.DERIVED_MIDPOINT, ref.CURVE_UPPER, ref.CURVE_LOWER
)


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} [{status}] {description}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert passed, line


def reference_bands():
    """(id, maturity, reported (p_m, p*, p_M), reported likelihood) per threat."""
    return [
        (t[0], t[2], (t[4], t[3], t[5]), t[6]) for t in ref.HEALTHCARE_THREATS
    ]


def test_criterion_01_reported_bands_reproduce_likelihood_column():
    started = time.perf_counter()
    deviations = []
    for tid, _, (p_m, p_star, p_M), reported in reference_bands():
        band = SuccessDistribution.from_triple(p_m, p_star, p_M)
        value = incident_likelihood(band, YEAR, "change").value
        deviations.append((tid, abs(value - reported)))
    elapsed = time.perf_counter() - started
    worst = max(d for _, d in deviations)
    report(
        1,
        "reported success bands reproduce the likelihood column within 0.015",
        worst <= 0.015 and elapsed < 5.0,
        f"worst deviation {worst:.4f}, elapsed {elapsed:.2f}s",
    )


def truncated_cents(value: float) -> int:
    """``value`` truncated to whole hundredths, the published table's convention.

    The 1e-9 guard keeps a value stored just below a hundredth (0.29 is
    0.28999...) from losing a cent to binary rounding.
    """
    return math.floor(value * 100.0 + 1e-9)


def test_criterion_02_derived_curve_reproduces_reported_bands():
    failures = []
    for tid, maturity, (p_m, p_star, p_M), _ in reference_bands():
        band = pert_from_maturity(DERIVED_PARAMS, maturity, w=1.0, q=ref.SPREAD)
        for label, computed, reported in (
            ("p_m", band.p_m, p_m),
            ("p*", band.p_star, p_star),
            ("p_M", band.p_M, p_M),
        ):
            _, reported = ref.BAND_ERRATA.get((tid, label), (reported, reported))
            # reported <= computed < reported + 0.01
            if truncated_cents(computed) != round(reported * 100):
                failures.append(
                    f"threat {tid} {label}: {computed:.4f} vs {reported:.2f} "
                    f"(truncates to {truncated_cents(computed) / 100:.2f})"
                )
    report(
        2,
        "derived curve (B=-1, x0=4.3) reproduces all 27 band values truncated to two decimals",
        not failures,
        f"{len(failures)} of 27 values off: " + "; ".join(failures),
    )


def test_threat_7_p_m_erratum():
    """Threat 7's published p_m 0.19 is a misprint for 0.20 (``ref.BAND_ERRATA``)."""
    tid, maturity, printed, likelihood = reference_bands()[6]
    assert list(ref.BAND_ERRATA) == [(7, "p_m")], "every erratum needs its evidence here"
    published, corrected = ref.BAND_ERRATA[(7, "p_m")]
    assert tid == 7 and printed[0] == published

    # No maturity that prints as 4.8 gives the published triple. Band values
    # fall monotonically in the maturity, so a fine grid settles it.
    printed_cents = tuple(round(v * 100) for v in printed)
    for x in np.arange(4.75, 4.85, 1e-5):
        band = pert_from_maturity(DERIVED_PARAMS, float(x), w=1.0, q=ref.SPREAD)
        cents = tuple(truncated_cents(v) for v in (band.p_m, band.p_star, band.p_M))
        assert cents != printed_cents, f"maturity {x:.5f} gives the published triple"

    # The published likelihood comes from the computed band, not the printed one.
    computed = pert_from_maturity(DERIVED_PARAMS, maturity, w=1.0, q=ref.SPREAD)
    from_printed = SuccessDistribution.from_triple(*printed)
    assert truncated_cents(computed.p_m) == round(corrected * 100)
    computed_l, printed_l = (
        incident_likelihood(band, YEAR, "change").value for band in (computed, from_printed)
    )
    assert truncated_cents(computed_l) == round(likelihood * 100)
    assert truncated_cents(printed_l) != round(likelihood * 100)


def test_reference_band_regression_pin():
    """Pin the derived curve's agreement with the table compared by rounding.

    The published table truncates (criterion 02 checks that), so compared by
    rounding instead, exactly 9 of the 27 reference values sit outside
    +-0.005, the worst by 0.0113. These numbers must not drift.
    """
    deviations = []
    for _, maturity, (p_m, p_star, p_M), _ in reference_bands():
        band = pert_from_maturity(DERIVED_PARAMS, maturity, w=1.0, q=ref.SPREAD)
        deviations += [
            abs(band.p_m - p_m),
            abs(band.p_star - p_star),
            abs(band.p_M - p_M),
        ]
    assert max(deviations) <= 0.0113
    assert sum(d > 0.005 for d in deviations) == 9


def test_criterion_03_curve_endpoint_conditions():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        growth = -float(rng.uniform(0.25, 4.0))
        midpoint = float(rng.uniform(0.0, 10.0))
        lower = float(rng.uniform(0.001, 0.4))
        upper = float(rng.uniform(lower + 0.05, 0.999))
        params = solve_asymptotes(growth, midpoint, upper, lower)
        worst = max(
            worst,
            abs(params.curve(0.0) - upper),
            abs(params.curve(10.0) - lower),
        )
    centered = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
    midpoint_value = success_probability(centered, 5.0)
    report(
        3,
        "endpoint conditions hold to 1e-9 over 100 random curves; centered midpoint is 0.500",
        worst <= 1e-9 and abs(midpoint_value - 0.5) <= 1e-6,
        f"worst endpoint error {worst:.2e}, midpoint {midpoint_value:.8f}",
    )


def test_criterion_04_point_mass_closed_form():
    band = SuccessDistribution.from_triple(0.5, 0.5, 0.5)
    value = incident_likelihood(band, YEAR, "change").value
    expected = 1.0 - (1.0 - 2.0 / 365.0) ** 365
    deviation = abs(value - expected)
    report(
        4,
        "point-mass band matches the closed form 1-(1-2/365)^365 within 1e-6",
        deviation <= 1e-6,
        f"value {value:.8f}, closed form {expected:.8f}, deviation {deviation:.2e}",
    )


def test_criterion_05_simulation_oracle_grid():
    started = time.perf_counter()
    worst_z = 0.0
    all_pass = True
    index = 0
    for n_avg in (2.0, 4.0, 8.0):
        for maturity in (2.0, 5.0, 8.0):
            band = pert_from_maturity(DERIVED_PARAMS, maturity, w=1.0, q=ref.SPREAD)
            model = AttackCountModel(t=365, n_avg=n_avg)
            analytic = incident_likelihood(band, model, "no_change")
            empirical = simulate(band, model, replications=10**6, seed=900 + index)
            outcome = compare_to_analytic(empirical, analytic)
            worst_z = max(worst_z, max(abs(z) for z in outcome.z_scores))
            all_pass = all_pass and outcome.passed
            index += 1
    elapsed = time.perf_counter() - started
    report(
        5,
        "analytic incident pmf matches 1e6-replication simulation on the 3x3 grid "
        "(pooled chi-square, level 1e-3)",
        all_pass and elapsed < 120.0,
        f"worst |z| {worst_z:.2f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_06_normalization_and_monotonicity_suite():
    problems = []

    # incident pmf sums to one
    band = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
    pmf_total = sum(incident_likelihood(band, YEAR, "no_change").pmf)
    if abs(pmf_total - 1.0) > 1e-6:
        problems.append(f"pmf total {pmf_total:.8f}")

    # monotone in the mean attempt count
    by_attempts = [
        incident_likelihood(band, AttackCountModel(t=365, n_avg=n), "change").value
        for n in (1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    if not all(a <= b + 1e-12 for a, b in zip(by_attempts, by_attempts[1:])):
        problems.append(f"not monotone in n_avg: {by_attempts}")

    # monotone under uniform upward band shifts
    by_shift = [
        incident_likelihood(
            SuccessDistribution.from_triple(0.28 + s, 0.50 + s, 0.72 + s), YEAR, "change"
        ).value
        for s in (0.0, 0.05, 0.10, 0.15)
    ]
    if not all(a <= b + 1e-12 for a, b in zip(by_shift, by_shift[1:])):
        problems.append(f"not monotone in band shift: {by_shift}")

    # loss exceedance curve is non-increasing
    threats = [
        Threat(id=t[0], name=t[1], impact_low=t[8][0], impact_high=t[8][1],
               likelihood=t[6], currency="MEUR")
        for t in ref.HEALTHCARE_THREATS
    ]
    _, probs = run_htma(threats, trials=4_000, seed=6).lec
    if not all(a >= b for a, b in zip(probs, probs[1:])):
        problems.append("loss exceedance curve not non-increasing")

    # binomial vs Poisson attempt models stay within the quadratic bound
    for n_avg in range(1, 11):
        binom = AttackCountModel(t=365, n_avg=float(n_avg))
        poisson = AttackCountModel(t=365, n_avg=float(n_avg), kind="poisson")
        tv = 0.5 * sum(
            abs(ref.attempt_pmf(binom, n) - ref.attempt_pmf(poisson, n))
            for n in range(366)
        )
        if tv > n_avg**2 / 365:
            problems.append(f"TV bound broken at n_avg={n_avg}: {tv:.5f}")

    report(
        6,
        "normalization, monotonicity, LEC shape and binomial-Poisson bound all hold",
        not problems,
        "; ".join(problems),
    )


def test_criterion_07_annual_loss_upper_bound():
    threats = [
        Threat(id=t[0], name=t[1], impact_low=t[8][0], impact_high=t[8][1],
               maturity_index=t[2], likelihood=t[6], currency="MEUR")
        for t in ref.HEALTHCARE_THREATS
    ]
    result = run_htma(threats, trials=10_000, seed=2024)
    fraction_above = float(np.mean(result.losses > ref.ALL_UPPER_BOUND_TOTAL))
    p999 = float(np.quantile(result.losses, 0.999))
    report(
        7,
        f"at most 5% of 10k trials exceed the all-upper-bound total {ref.ALL_UPPER_BOUND_TOTAL} MEUR",
        fraction_above <= 0.05,
        f"fraction above {fraction_above:.4f}, 99.9th percentile {p999:.4f} MEUR",
    )


def _fair_pmf(complexity: float, maturity: float, n_avg: float):
    params = solve_asymptotes(-2.0, complexity, ref.CURVE_UPPER, ref.CURVE_LOWER)
    band = pert_from_maturity(params, maturity, w=1.0, q=ref.SPREAD)
    model = AttackCountModel(t=365, n_avg=n_avg)
    return incident_likelihood(band, model, "no_change")


def _sign_test_p_value(successes: int, n: int) -> float:
    return sum(math.comb(n, i) for i in range(successes, n + 1)) / 2**n


def test_criterion_08_loss_exposure_trends():
    categories = [
        LossCategory("response", 2_750.0, 8_250.0, 22_000.0, confidence=20.0),
        LossCategory("replacement", 20_000.0, 30_000.0, 50_000.0, confidence=20.0),
    ]
    posture_grid = [4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5]
    attempt_grid = [2.0, 4.0, 8.0, 16.0]
    trend_pmfs = {
        "complexity up": ([_fair_pmf(c, ref.FAIR_MATURITY, 12.0) for c in posture_grid], False),
        "maturity down": ([_fair_pmf(ref.FAIR_COMPLEXITY, m, 12.0) for m in posture_grid], True),
        "attempts up": ([_fair_pmf(ref.FAIR_COMPLEXITY, ref.FAIR_MATURITY, n) for n in attempt_grid], False),
    }
    seeds = range(10)
    details = []
    all_significant = True
    for name, (pmfs, decreasing) in trend_pmfs.items():
        holds = 0
        for seed in seeds:
            # common random numbers: the same seed drives every grid point
            means = [
                run_fair(pmf, categories, trials=3_000, seed=seed)
                .total_loss.mean()
                for pmf in pmfs
            ]
            diffs = np.diff(means)
            monotone = np.all(diffs < 0) if decreasing else np.all(diffs > 0)
            holds += bool(monotone)
        p_value = _sign_test_p_value(holds, len(list(seeds)))
        details.append(f"{name}: {holds}/10 seeds, p={p_value:.4f}")
        all_significant = all_significant and p_value < 0.05
    report(
        8,
        "mean loss exposure trends strictly with complexity, maturity and attempt count",
        all_significant,
        "; ".join(details),
    )


def test_criterion_09_product_baseline_values():
    checks = [
        (CvssVector("local", "medium", "multiple", "high", "confirmed"), 0.15),
        (CvssVector("network", "low", "none", "unproven", "unconfirmed"), 0.765),
        (CvssVector("network", "low", "none", "high", "confirmed"), 1.0),
    ]
    deviations = [abs(cvss_likelihood(v) - expected) for v, expected in checks]
    report(
        9,
        "metric products reproduce 0.15, 0.765 and 1.0 exactly",
        max(deviations) < 1e-12,
        f"deviations {['%.1e' % d for d in deviations]}",
    )


def test_criterion_10_command_determinism(tmp_path):
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_cvss=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {
            "profile": "profile.json",
            "threats": "threats.json",
            "loss_categories": "categories.json",
        },
        trials=1_500,
        replications=100_000,
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    aw = ref.write_questionnaire(tmp_path / "aw.json", "awareness", [3, 2, None])
    core = ref.write_questionnaire(tmp_path / "core.json", "maturity_core", [1, 2, 3])
    cat = ref.write_questionnaire(
        tmp_path / "cat.json", "complexity_category", [2, 3], label="networks"
    )

    commands = {
        "assess": ["assess", "--awareness", aw, "--maturity", core, "--complexity", cat,
                   "--attack-share", "12.0"],
        "likelihood": ["likelihood", "--config", config],
        "htma": ["htma", "--config", config],
        "fair": ["fair", "--config", config],
        "compare": ["compare", "--config", config],
        "simulate": ["simulate", "--config", config],
    }
    mismatched = []
    for name, argv in commands.items():
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        for out in (first, second):
            code = cli_main([str(a) for a in argv] + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
        for produced in sorted(first.iterdir()):
            twin = second / produced.name
            if produced.read_bytes() != twin.read_bytes():
                mismatched.append(f"{name}/{produced.name}")
    report(
        10,
        "every command rerun with the same seed produces byte-identical reports",
        not mismatched,
        "; ".join(mismatched),
    )
