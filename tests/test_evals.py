"""Scorer tests: keyword rules, confusion-matrix closed forms, aggregation identities.

Each scorer takes the ``(sample_id, truth)`` pairs of the records it scores."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.evals import (
    aggregate_report,
    score_hallucination,
    score_keyword_vqa,
    score_region_description,
    score_spatial,
)
from coordtext.meteor import score_meteor


# ---------------- spatial ---------------- #


def test_spatial_containment_rule():
    truths = [("a", "left"), ("b", "left"), ("c", "right")]
    responses = {"a": "It is to the left of the lamp.", "b": "right side", "c": "On the RIGHT."}
    report, items = score_spatial(truths, responses)
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.per_split == {"left": 0.5, "right": 1.0}
    assert [r.correct for r in items] == [True, False, True]


def test_spatial_strict_vs_containment_mode():
    truths = [("a", "left")]
    responses = {"a": "left, or maybe right"}
    strict_report, _ = score_spatial(truths, responses, strict=True)
    loose_report, _ = score_spatial(truths, responses, strict=False)
    assert strict_report.accuracy == 0.0
    assert loose_report.accuracy == 1.0
    assert strict_report.flags["mode"] == "strict"
    assert loose_report.flags["mode"] == "containment"


def test_spatial_missing_responses_counted_incorrect():
    truths = [("a", "left"), ("b", "right")]
    report, items = score_spatial(truths, {"a": "to the left"})
    assert report.accuracy == 0.5
    assert report.missing == 1
    assert [r.missing for r in items] == [False, True]


def test_spatial_above_below_splits():
    truths = [("a", "above"), ("b", "below")]
    report, _ = score_spatial(truths, {"a": "it sits above the rest", "b": "above it"})
    assert report.per_split == {"above": 1.0, "below": 0.0}


# ---------------- vqa ---------------- #


def test_vqa_containment():
    truths = [("a", "2"), ("b", "red")]
    report, _ = score_keyword_vqa(truths, {"a": "There are 2 dogs.", "b": "blue"})
    assert report.accuracy == 0.5


def test_vqa_normalization():
    truths = [("a", "Red.")]
    report, _ = score_keyword_vqa(truths, {"a": "it looks RED!"})
    assert report.accuracy == 1.0
    assert "normalization" in report.flags


# ---------------- hallucination ---------------- #


def test_hallucination_perfect_balanced():
    truths = [(f"i{k}", "yes" if k % 2 else "no") for k in range(10)]
    responses = {sample_id: ("Yes" if gt == "yes" else "No") for sample_id, gt in truths}
    report, _ = score_hallucination(truths, responses)
    assert report.accuracy == 1.0
    assert report.yes_ratio == 0.5
    assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0


def test_hallucination_always_yes_closed_form():
    truths = [(f"i{k}", "yes" if k % 2 else "no") for k in range(100)]
    responses = {sample_id: "Yes" for sample_id, _ in truths}
    report, _ = score_hallucination(truths, responses)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == 1.0
    assert report.f1 == pytest.approx(2 / 3)
    assert report.yes_ratio == 1.0
    assert report.accuracy == pytest.approx(0.5)


def test_hallucination_f1_identity():
    rng = random.Random(0)
    truths = [(f"i{k}", rng.choice(["yes", "no"])) for k in range(200)]
    responses = {sample_id: rng.choice(["Yes", "No", "maybe?"]) for sample_id, _ in truths}
    report, _ = score_hallucination(truths, responses)
    if report.precision and report.recall:
        assert report.f1 == pytest.approx(
            2 * report.precision * report.recall / (report.precision + report.recall)
        )
    assert 0.0 <= report.yes_ratio <= 1.0


def test_hallucination_unparseable_handling():
    truths = [("a", "yes"), ("b", "no")]
    report, items = score_hallucination(truths, {"a": "hard to say", "b": "nothing to report"})
    assert report.accuracy == 0.0
    assert report.yes_ratio == 0.0  # unparseable stays in the denominator, adds no yes
    assert all(not r.correct for r in items)


# ---------------- region description ---------------- #


def test_region_description_self_reference():
    truths = [("a", "a tall lamp near the window")]
    report, items = score_region_description(truths, {"a": "a tall lamp near the window"})
    assert items[0].score == pytest.approx(score_meteor("a tall lamp near the window", "a tall lamp near the window"))
    assert report.meteor_mean == items[0].score


def test_region_description_missing_scores_zero():
    truths = [("a", "a tall lamp"), ("b", "a mug")]
    report, _ = score_region_description(truths, {"a": "a tall lamp"})
    assert report.missing == 1
    assert report.meteor_mean == pytest.approx(score_meteor("a tall lamp", "a tall lamp") / 2)


# ---------------- aggregation ---------------- #


def test_aggregate_recount_matches_scorer():
    """The full report of every task, with wrong, unparseable and missing answers."""
    spatial = [(f"i{k}", "left" if k % 2 else "right") for k in range(20)]
    hal = [(f"i{k}", "yes" if k % 3 else "no") for k in range(20)]
    vqa = [(f"i{k}", ["2", "red", "Red."][k % 3]) for k in range(20)]
    region = [(f"i{k}", "a tall lamp near the window") for k in range(20)]

    def responses(truths, answers):
        return {sample_id: answers[k % len(answers)] for k, (sample_id, _) in enumerate(truths) if k % 7}

    scored = [
        score_spatial(spatial, responses(spatial, ["left here", "right side", "left or right"])),
        score_spatial(spatial, responses(spatial, ["left here", "left or right"]), strict=False),
        score_hallucination(hal, responses(hal, ["Yes", "No", "hard to say", "Yes, there is."])),
        score_keyword_vqa(vqa, responses(vqa, ["There are 2 dogs.", "it looks RED!", "blue"])),
        score_region_description(region, responses(region, ["a tall lamp", "lamps near windows", "a mug"])),
    ]
    for report, items in scored:
        assert report.missing == 3
        assert aggregate_report(items, report.flags).to_dict() == report.to_dict()


# scorer, ground truths, canned answers
_SCORER_CASES = {
    "spatial": (score_spatial, ["left", "right", "above", "below"], ["to the left", "above or below"]),
    "spatial-containment": (
        lambda truths, responses: score_spatial(truths, responses, strict=False),
        ["left", "right", "above", "below"], ["to the left", "above or below"],
    ),
    "vqa": (score_keyword_vqa, ["2", "red", "Red.", "a dog"], ["There are 2 dogs.", "RED!", "a dog."]),
    "hallucination": (score_hallucination, ["yes", "no"], ["Yes", "No, there is none.", "maybe?"]),
    "region": (score_region_description, ["a tall lamp", "a red mug on the table"], ["red mugs", "a lamp"]),
}


@settings(max_examples=300, deadline=None)
@given(
    task=st.sampled_from(sorted(_SCORER_CASES)),
    picks=st.lists(
        st.tuples(st.integers(0, 9), st.none() | st.integers(0, 9) | st.text(max_size=20)), min_size=1, max_size=30
    ),
    order=st.randoms(use_true_random=False),
)
def test_aggregate_recount_equals_report_in_any_order(task, picks, order):
    """Recounting a scorer's items, shuffled, gives the scorer's full report.
    An answer is missing (None), canned (an index) or random text."""
    scorer, gts, answers = _SCORER_CASES[task]
    truths = [(f"i{k}", gts[g % len(gts)]) for k, (g, _) in enumerate(picks)]
    responses = {
        f"i{k}": answers[a % len(answers)] if isinstance(a, int) else a
        for k, (_, a) in enumerate(picks)
        if a is not None
    }
    report, items = scorer(truths, responses)
    shuffled = items[:]
    order.shuffle(shuffled)
    assert aggregate_report(shuffled, report.flags).to_dict() == report.to_dict()


@pytest.mark.parametrize(
    "scorer, gt",
    [
        (score_spatial, "left"),
        (score_hallucination, "yes"),
        (score_keyword_vqa, "a red cup"),
        (score_region_description, "a red cup on the table"),
    ],
    ids=["spatial", "hallucination", "vqa", "region_description"],
)
def test_every_item_has_exactly_one_outcome(scorer, gt):
    """EvalRecord takes its outcome as given, so each scorer sets exactly one
    of correct and score, on answered and missing items alike: a score for
    region descriptions, a correctness for every other task."""
    truths = [(f"i{k}", gt) for k in range(4)]
    _, items = scorer(truths, {"i0": gt, "i1": "", "i2": "no idea"})
    assert [item.missing for item in items] == [False, False, False, True]
    for item in items:
        if scorer is score_region_description:
            assert item.correct is None and type(item.score) is float
        else:
            assert item.score is None and type(item.correct) is bool
    assert items[3].correct is not True and not items[3].score


def test_accuracy_times_n_is_integral():
    rng = random.Random(9)
    truths = [(f"i{k}", rng.choice(["left", "right"])) for k in range(37)]
    responses = {sample_id: rng.choice(["left", "right", "hmm"]) for sample_id, _ in truths}
    report, _ = score_spatial(truths, responses)
    assert report.accuracy * report.n == pytest.approx(round(report.accuracy * report.n))
