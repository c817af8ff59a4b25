import pytest
from hypothesis import given, strategies as st

from cyrisk.errors import EmptyAssessment, InputError, NoApplicableControls
from cyrisk.posture import (
    ATTACKER_WEIGHTS,
    CategoryComplexity,
    ControlResponse,
    PostureProfile,
    Questionnaire,
    assess_posture,
    attacker_weight,
    category_complexity,
    classify_attractiveness,
    complexity_index,
    maturity_index,
    score_index,
)


def make_questionnaire(scores, weights=None, s_max=4, kind="awareness",
                       label=None):
    weights = weights or [1.0] * len(scores)
    responses = tuple(
        ControlResponse(control_id=f"c{i}", score=s, weight=w)
        for i, (s, w) in enumerate(zip(scores, weights))
    )
    return Questionnaire(responses=responses, s_max=s_max, kind=kind, category_label=label)


class TestScoreIndex:
    def test_maximal_scores_hit_ten(self):
        q = make_questionnaire([4, 4, 4], weights=[1.0, 2.5, 0.3], s_max=4)
        assert score_index(q) == pytest.approx(10.0)

    def test_hand_weighted_average(self):
        # (1*1 + 0*1 + 1*2) / 4 * 10 = 7.5
        q = make_questionnaire([1, 0, 1], weights=[1.0, 1.0, 2.0], s_max=1)
        assert score_index(q) == pytest.approx(7.5)

    def test_not_applicable_excluded_from_both_sides(self):
        # the N/A control carries the large weight; it must not drag the score
        q = make_questionnaire([2, None], weights=[1.0, 5.0], s_max=4)
        assert score_index(q) == pytest.approx(5.0)

    def test_all_not_applicable_raises(self):
        q = make_questionnaire([None, None], s_max=4)
        with pytest.raises(NoApplicableControls):
            score_index(q)

    def test_zero_total_weight_raises(self):
        q = make_questionnaire([3, None], weights=[0.0, 2.0], s_max=4)
        with pytest.raises(NoApplicableControls):
            score_index(q)

    @given(
        scores=st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=12),
        weights_seed=st.randoms(use_true_random=False),
        scale=st.floats(0.1, 100.0),
    )
    def test_permutation_and_weight_scaling_invariance(self, scores, weights_seed, scale):
        weights = [weights_seed.uniform(0.1, 5.0) for _ in scores]
        if all(s is None for s in scores):
            return
        base = make_questionnaire(scores, weights)
        order = list(range(len(scores)))
        weights_seed.shuffle(order)
        shuffled = make_questionnaire([scores[i] for i in order], [weights[i] for i in order])
        scaled = make_questionnaire(scores, [w * scale for w in weights])
        assert score_index(shuffled) == pytest.approx(score_index(base))
        assert score_index(scaled) == pytest.approx(score_index(base))

    @given(
        scores=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        bump=st.integers(0, 2),
        position=st.integers(0, 7),
    )
    def test_monotone_in_single_score(self, scores, bump, position):
        position %= len(scores)
        bumped = list(scores)
        bumped[position] = min(4, bumped[position] + bump)
        low = make_questionnaire(scores, s_max=4)
        high = make_questionnaire(bumped, s_max=4)
        assert score_index(high) >= score_index(low) - 1e-12

    def test_score_above_scale_rejected(self):
        with pytest.raises(InputError):
            make_questionnaire([5], s_max=4)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            ControlResponse(control_id="x", score=1, weight=-0.5)

    def test_questionnaire_without_responses_rejected(self):
        with pytest.raises(InputError) as info:
            make_questionnaire([])
        assert str(info.value) == "questionnaire has no responses"


class TestMaturityIndex:
    def test_equal_inputs_pass_through(self):
        assert maturity_index(6.3, 10, 6.3, 25) == pytest.approx(6.3)

    def test_hand_blend(self):
        assert maturity_index(8.0, 10, 6.0, 30) == pytest.approx(6.5)

    def test_degenerate_weighting(self):
        assert maturity_index(9.0, 0, 4.2, 17) == pytest.approx(4.2)

    def test_empty_assessment(self):
        with pytest.raises(EmptyAssessment):
            maturity_index(5.0, 0, 5.0, 0)

    @pytest.mark.parametrize("awareness_count, core_count", [(-1, 5), (5, -1)])
    def test_negative_count_rejected(self, awareness_count, core_count):
        with pytest.raises(InputError) as info:
            maturity_index(5.0, awareness_count, 5.0, core_count)
        assert str(info.value) == "control counts must be non-negative"

    @given(st.floats(0, 10), st.integers(0, 50), st.floats(0, 10), st.integers(0, 50))
    def test_bounded_by_inputs(self, awareness, e_count, core, t_count):
        if e_count + t_count == 0:
            return
        value = maturity_index(awareness, e_count, core, t_count)
        assert min(awareness, core) - 1e-9 <= value <= max(awareness, core) + 1e-9


class TestComplexityIndex:
    def test_single_category_identity(self):
        cats = [CategoryComplexity("apps", 7.2, 12)]
        assert complexity_index(cats) == pytest.approx(7.2)

    def test_equal_counts_plain_mean(self):
        cats = [CategoryComplexity(f"c{i}", float(v), 4) for i, v in enumerate([2, 4, 6, 8, 10])]
        assert complexity_index(cats) == pytest.approx(6.0)

    def test_count_weighted(self):
        cats = [CategoryComplexity("a", 10.0, 3), CategoryComplexity("b", 0.0, 1)]
        assert complexity_index(cats) == pytest.approx(7.5)

    def test_empty_raises(self):
        with pytest.raises(EmptyAssessment):
            complexity_index([])

    def test_bounded_by_category_indices(self):
        cats = [CategoryComplexity("a", 3.0, 5), CategoryComplexity("b", 9.0, 2)]
        assert 3.0 <= complexity_index(cats) <= 9.0


def class_id(value):
    """The test id of an attractiveness class, spelt as the ids of these cases
    have always been, so that their names stay the same."""
    return f"Attractiveness.{value.upper()}" if isinstance(value, str) else None


class TestAttractiveness:
    @pytest.mark.parametrize(
        "share,expected",
        [
            (0.0, "very_low"),
            (0.5, "very_low"),
            (1.25, "low"),       # lower bound inclusive
            (2.5, "medium"),
            (3.0, "medium"),
            (5.0, "high"),       # boundary inclusive
            (9.99, "high"),
            (10.0, "very_high"),
            (42.0, "very_high"),
        ],
        ids=class_id,
    )
    def test_bins(self, share, expected):
        assert classify_attractiveness(share) == expected

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            classify_attractiveness(-0.1)

    @pytest.mark.parametrize(
        "cls,expected",
        [
            ("very_low", 0.6),
            ("low", 0.7),
            ("medium", 0.8),
            ("high", 0.9),
            ("very_high", 1.0),
        ],
        ids=class_id,
    )
    def test_attacker_weights(self, cls, expected):
        assert attacker_weight(cls, malicious=True) == pytest.approx(expected)

    def test_non_malicious_always_one(self):
        for cls in ATTACKER_WEIGHTS:
            assert attacker_weight(cls, malicious=False) == 1.0

    def test_weights_monotone_in_attractiveness(self):
        values = list(ATTACKER_WEIGHTS.values())
        assert values == sorted(values)


class TestAssessPosture:
    def test_full_pipeline(self):
        awareness = make_questionnaire([3, 4, None], s_max=4, kind="awareness")
        core = make_questionnaire([2, 2, 3, 1], s_max=4, kind="maturity_core")
        categories = [
            make_questionnaire([1, 2], s_max=4, kind="complexity_category",
                               label="networks"),
            make_questionnaire([4, 0, 3], s_max=4, kind="complexity_category",
                               label="services"),
        ]
        profile = assess_posture(awareness, core, categories, "very_high")
        assert 0.0 <= profile.awareness_index <= 10.0
        assert 0.0 <= profile.maturity_index <= 10.0
        assert 0.0 <= profile.complexity_index <= 10.0
        assert profile.awareness_control_count == 3
        assert profile.core_control_count == 4
        assert len(profile.categories) == 2
        assert attacker_weight(profile.attractiveness) == 1.0
        edges = PostureProfile(0.0, 0.5, 10.0, "very_low")  # indices at and inside [0, 10]
        assert (edges.awareness_control_count, edges.core_control_count) == (0, 0)
        with pytest.raises(InputError) as info:
            profile._replace(attractiveness="extreme")
        assert str(info.value) == (
            "attractiveness must be one of very_low, low, medium, high, very_high, got 'extreme'"
        )

    def test_all_na_category_dropped_with_warning(self):
        awareness = make_questionnaire([3], kind="awareness")
        core = make_questionnaire([2], kind="maturity_core")
        categories = [
            make_questionnaire([None, None], kind="complexity_category",
                               label="empty"),
            make_questionnaire([2], kind="complexity_category", label="apps"),
        ]
        with pytest.warns(UserWarning, match="empty") as record:
            profile = assess_posture(awareness, core, categories, "low")
        assert record[0].filename == __file__  # the warning points at the caller
        assert len(profile.categories) == 1
        assert profile.categories[0].label == "apps"

    def test_kind_mismatch_rejected(self):
        awareness = make_questionnaire([3], kind="maturity_core")
        core = make_questionnaire([2], kind="maturity_core")
        with pytest.raises(InputError) as info:
            assess_posture(awareness, core, [], "low")
        assert str(info.value) == "awareness questionnaire has kind 'maturity_core'"
        with pytest.raises(InputError) as info:
            make_questionnaire([3], kind="survey")
        assert str(info.value) == (
            "questionnaire kind must be one of awareness, maturity_core, complexity_category, "
            "got 'survey'"
        )

    def test_core_of_the_wrong_kind_rejected(self):
        awareness = make_questionnaire([3], kind="awareness")
        core = make_questionnaire([2], kind="complexity_category")
        with pytest.raises(InputError) as info:
            assess_posture(awareness, core, [], "low")
        assert str(info.value) == "core questionnaire has kind 'complexity_category'"

    def test_unlabelled_questionnaires_named_by_position(self):
        awareness = make_questionnaire([3], kind="awareness")
        core = make_questionnaire([2], kind="maturity_core")
        apps = make_questionnaire([2], kind="complexity_category", label="apps")
        empty = make_questionnaire([None], kind="complexity_category")
        with pytest.raises(InputError) as info:
            assess_posture(awareness, core, [apps, awareness], "low")
        assert str(info.value) == "complexity questionnaire [1] has kind 'awareness'"
        with pytest.warns(UserWarning) as record:
            assess_posture(awareness, core, [empty, apps], "low")
        assert [str(w.message) for w in record] == [
            "complexity category [0] has no applicable controls and was dropped"
        ]

    def test_category_complexity_carries_raw_control_count(self):
        q = make_questionnaire([2, None, 3], kind="complexity_category",
                               label="ip")
        cat = category_complexity(q)
        assert cat.control_count == 3
        assert cat.index == pytest.approx((2 + 3) / 2 / 4 * 10)
