"""Scorer tests: keyword rules, confusion-matrix closed forms, aggregation identities."""

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


def spatial_record(item_id, gt, image_id="im0"):
    return {
        "sample_id": item_id,
        "image_id": image_id,
        "objective": "spatial_direct",
        "prompt": f"Which side of a is b located? [{item_id}]",
        "target": gt,
        "gt_keyword": gt,
        "axis": "lr" if gt in ("left", "right") else "ab",
    }


def hal_record(item_id, gt):
    return {"sample_id": item_id, "objective": "hallucination", "gt": gt, "target": gt.capitalize()}


def vqa_record(item_id, answer):
    return {"sample_id": item_id, "objective": "vqa", "target": answer}


def region_record(item_id, description):
    return {"sample_id": item_id, "objective": "region_description", "descriptor": description}


# ---------------- spatial ---------------- #


def test_spatial_containment_rule():
    records = [spatial_record("a", "left"), spatial_record("b", "left"), spatial_record("c", "right")]
    responses = {"a": "It is to the left of the lamp.", "b": "right side", "c": "On the RIGHT."}
    report, items = score_spatial(records, responses)
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.per_split == {"left": 0.5, "right": 1.0}
    assert [r.correct for r in items] == [True, False, True]


def test_spatial_strict_vs_containment_mode():
    records = [spatial_record("a", "left")]
    responses = {"a": "left, or maybe right"}
    strict_report, _ = score_spatial(records, responses, strict=True)
    loose_report, _ = score_spatial(records, responses, strict=False)
    assert strict_report.accuracy == 0.0
    assert loose_report.accuracy == 1.0
    assert strict_report.flags["mode"] == "strict"
    assert loose_report.flags["mode"] == "containment"


def test_spatial_missing_responses_counted_incorrect():
    records = [spatial_record("a", "left"), spatial_record("b", "right")]
    report, items = score_spatial(records, {"a": "to the left"})
    assert report.accuracy == 0.5
    assert report.missing == 1
    assert [r.missing for r in items] == [False, True]


def test_spatial_above_below_splits():
    records = [spatial_record("a", "above"), spatial_record("b", "below")]
    report, _ = score_spatial(records, {"a": "it sits above the rest", "b": "above it"})
    assert report.per_split == {"above": 1.0, "below": 0.0}


# ---------------- vqa ---------------- #


def test_vqa_containment():
    records = [vqa_record("a", "2"), vqa_record("b", "red")]
    report, _ = score_keyword_vqa(records, {"a": "There are 2 dogs.", "b": "blue"})
    assert report.accuracy == 0.5


def test_vqa_normalization():
    records = [vqa_record("a", "Red.")]
    report, _ = score_keyword_vqa(records, {"a": "it looks RED!"})
    assert report.accuracy == 1.0
    assert "normalization" in report.flags


# ---------------- hallucination ---------------- #


def test_hallucination_perfect_balanced():
    records = [hal_record(f"i{k}", "yes" if k % 2 else "no") for k in range(10)]
    responses = {r["sample_id"]: ("Yes" if r["gt"] == "yes" else "No") for r in records}
    report, _ = score_hallucination(records, responses)
    assert report.accuracy == 1.0
    assert report.yes_ratio == 0.5
    assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0


def test_hallucination_always_yes_closed_form():
    records = [hal_record(f"i{k}", "yes" if k % 2 else "no") for k in range(100)]
    responses = {r["sample_id"]: "Yes" for r in records}
    report, _ = score_hallucination(records, responses)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == 1.0
    assert report.f1 == pytest.approx(2 / 3)
    assert report.yes_ratio == 1.0
    assert report.accuracy == pytest.approx(0.5)


def test_hallucination_f1_identity():
    rng = random.Random(0)
    records = [hal_record(f"i{k}", rng.choice(["yes", "no"])) for k in range(200)]
    responses = {r["sample_id"]: rng.choice(["Yes", "No", "maybe?"]) for r in records}
    report, _ = score_hallucination(records, responses)
    if report.precision and report.recall:
        assert report.f1 == pytest.approx(
            2 * report.precision * report.recall / (report.precision + report.recall)
        )
    assert 0.0 <= report.yes_ratio <= 1.0


def test_hallucination_unparseable_handling():
    records = [hal_record("a", "yes"), hal_record("b", "no")]
    report, items = score_hallucination(records, {"a": "hard to say", "b": "nothing to report"})
    assert report.accuracy == 0.0
    assert report.yes_ratio == 0.0  # unparseable stays in the denominator, adds no yes
    assert all(not r.correct for r in items)


# ---------------- region description ---------------- #


def test_region_description_self_reference():
    records = [region_record("a", "a tall lamp near the window")]
    report, items = score_region_description(records, {"a": "a tall lamp near the window"})
    assert items[0].score == pytest.approx(score_meteor("a tall lamp near the window", "a tall lamp near the window"))
    assert report.meteor_mean == items[0].score


def test_region_description_missing_scores_zero():
    records = [region_record("a", "a tall lamp"), region_record("b", "a mug")]
    report, _ = score_region_description(records, {"a": "a tall lamp"})
    assert report.missing == 1
    assert report.meteor_mean == pytest.approx(score_meteor("a tall lamp", "a tall lamp") / 2)


# ---------------- aggregation ---------------- #


def test_aggregate_recount_matches_scorer():
    """The full report of every task, with wrong, unparseable and missing answers."""
    spatial = [spatial_record(f"i{k}", "left" if k % 2 else "right") for k in range(20)]
    hal = [hal_record(f"i{k}", "yes" if k % 3 else "no") for k in range(20)]
    vqa = [vqa_record(f"i{k}", ["2", "red", "Red."][k % 3]) for k in range(20)]
    region = [region_record(f"i{k}", "a tall lamp near the window") for k in range(20)]

    def responses(records, answers):
        return {r["sample_id"]: answers[k % len(answers)] for k, r in enumerate(records) if k % 7}

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


# scorer, record maker, ground truths, canned answers
_SCORER_CASES = {
    "spatial": (score_spatial, spatial_record, ["left", "right", "above", "below"], ["to the left", "above or below"]),
    "spatial-containment": (
        lambda records, responses: score_spatial(records, responses, strict=False),
        spatial_record, ["left", "right", "above", "below"], ["to the left", "above or below"],
    ),
    "vqa": (score_keyword_vqa, vqa_record, ["2", "red", "Red.", "a dog"], ["There are 2 dogs.", "RED!", "a dog."]),
    "hallucination": (score_hallucination, hal_record, ["yes", "no"], ["Yes", "No, there is none.", "maybe?"]),
    "region": (score_region_description, region_record, ["a tall lamp", "a red mug on the table"], ["red mugs", "a lamp"]),
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
    scorer, make, gts, answers = _SCORER_CASES[task]
    records = [make(f"i{k}", gts[g % len(gts)]) for k, (g, _) in enumerate(picks)]
    responses = {
        f"i{k}": answers[a % len(answers)] if isinstance(a, int) else a
        for k, (_, a) in enumerate(picks)
        if a is not None
    }
    report, items = scorer(records, responses)
    shuffled = items[:]
    order.shuffle(shuffled)
    assert aggregate_report(shuffled, report.flags).to_dict() == report.to_dict()


@pytest.mark.parametrize(
    "scorer, make_record, gt",
    [
        (score_spatial, spatial_record, "left"),
        (score_hallucination, hal_record, "yes"),
        (score_keyword_vqa, vqa_record, "a red cup"),
        (score_region_description, region_record, "a red cup on the table"),
    ],
    ids=["spatial", "hallucination", "vqa", "region_description"],
)
def test_every_item_has_exactly_one_outcome(scorer, make_record, gt):
    """EvalRecord takes its outcome as given, so each scorer sets exactly one
    of correct and score, on answered and missing items alike: a score for
    region descriptions, a correctness for every other task."""
    records = [make_record(f"i{k}", gt) for k in range(4)]
    _, items = scorer(records, {"i0": gt, "i1": "", "i2": "no idea"})
    assert [item.missing for item in items] == [False, False, False, True]
    for item in items:
        if scorer is score_region_description:
            assert item.correct is None and type(item.score) is float
        else:
            assert item.score is None and type(item.correct) is bool
    assert items[3].correct is not True and not items[3].score


def test_accuracy_times_n_is_integral():
    rng = random.Random(9)
    records = [spatial_record(f"i{k}", rng.choice(["left", "right"])) for k in range(37)]
    responses = {r["sample_id"]: rng.choice(["left", "right", "hmm"]) for r in records}
    report, _ = score_spatial(records, responses)
    assert report.accuracy * report.n == pytest.approx(round(report.accuracy * report.n))
