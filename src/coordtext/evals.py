"""Scoring of model responses against ground truth, one pipeline for every task.

Scoring is pair → judge → aggregate. Each scorer takes the ``(sample_id,
truth)`` pairs of the records it scores and the response text by sample_id.
One loop pairs each truth with its response in sample_id order. A missing
response scores incorrect (0.0 for a region description) and is tallied,
never dropped; every other response goes to the task's judgement. One
aggregation, ``aggregate_report``, builds each MetricsReport from the
per-item records. It sums in item-id order, so it does not depend on the
order of its input, and recounting a scorer's items gives that scorer's
report bit for bit.
"""

import string
from collections import Counter
from operator import itemgetter
from typing import NamedTuple

from .meteor import score_meteor
from .prompts import OPPOSITE_KEYWORD, parse_response

# the values a task's ground truth may take, where its judgement knows only those
TRUTH_VALUES = {"spatial": tuple(OPPOSITE_KEYWORD), "hallucination": ("yes", "no")}


class EvalRecord(NamedTuple):
    """One judged item, with exactly one of ``correct`` and ``score`` set.
    ``prediction`` is the parsed presence answer ("yes", "no" or None) of a
    hallucination item; it is kept in memory for the aggregation and is not
    part of ``to_dict``."""

    item_id: str
    task: str
    gt: str
    response: str
    correct: bool | None = None
    score: float | None = None
    missing: bool = False
    prediction: str | None = None

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "task": self.task,
            "gt": self.gt,
            "response": self.response,
            "correct": self.correct,
            "score": self.score,
            "missing": self.missing,
        }


class MetricsReport(NamedTuple):
    """One task's scores; a score that its task does not report is None."""

    task: str
    n: int
    per_split: dict
    missing: int
    flags: dict
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    yes_ratio: float | None = None
    meteor_mean: float | None = None
    config_digest: str | None = None
    dataset_digest: str | None = None

    def to_dict(self) -> dict:
        out = {
            "task": self.task,
            "n": self.n,
            "accuracy": self.accuracy,
            "per_split": dict(sorted(self.per_split.items())),
            "missing": self.missing,
            "flags": dict(sorted(self.flags.items())),
        }
        for name in ("precision", "recall", "f1", "yes_ratio", "meteor_mean", "config_digest", "dataset_digest"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _normalize(text: str) -> str:
    return text.lower().strip().rstrip(string.punctuation + " ")


def _score(task, truths, responses, judge, flags) -> tuple[MetricsReport, list[EvalRecord]]:
    """Pair, judge and aggregate ``truths``, the ``(sample_id, truth)`` pairs
    of the records scored. ``judge(gt, response)`` returns the outcome fields
    of one answered item's EvalRecord."""
    unanswered = {"score": 0.0} if task == "region_description" else {"correct": False}
    items = []
    for sample_id, gt in sorted(truths, key=itemgetter(0)):
        response = responses.get(sample_id)
        if response is None:
            items.append(EvalRecord(sample_id, task, gt, "", missing=True, **unanswered))
        else:
            items.append(EvalRecord(sample_id, task, gt, response, **judge(gt, response)))
    return aggregate_report(items, flags), items


def score_spatial(truths, responses: dict, strict: bool = True) -> tuple[MetricsReport, list[EvalRecord]]:
    """Side-question accuracy: the ground-truth keyword must appear in the response.

    In strict mode (default) the opposing keyword must also be absent; with
    strict=False bare containment decides, matching the original protocol.
    Reports overall accuracy plus one split per ground-truth keyword.
    """

    def judge(gt, response):
        lowered = response.lower()
        return {"correct": gt in lowered and not (strict and OPPOSITE_KEYWORD[gt] in lowered)}

    flags = {"mode": "strict" if strict else "containment"}
    return _score("spatial", truths, responses, judge, flags)


def score_keyword_vqa(truths, responses: dict) -> tuple[MetricsReport, list[EvalRecord]]:
    """Top-1 accuracy by containment of the normalized answer in the response."""

    def judge(gt, response):
        return {"correct": _normalize(gt) in _normalize(response)}

    flags = {"normalization": "lowercase, strip terminal punctuation"}
    return _score("vqa", truths, responses, judge, flags)


def score_hallucination(truths, responses: dict) -> tuple[MetricsReport, list[EvalRecord]]:
    """Presence-question metrics, treating gt=yes as the positive class.

    Unparseable or missing responses score incorrect; they stay in the
    yes-ratio denominator without contributing a yes.
    """

    def judge(gt, response):
        prediction = parse_response(response)
        return {"correct": prediction == gt, "prediction": prediction}

    return _score("hallucination", truths, responses, judge, {"positive_class": "yes"})


def score_region_description(truths, responses: dict) -> tuple[MetricsReport, list[EvalRecord]]:
    """Per-item text similarity of the response against the stored description."""

    def judge(gt, response):
        return {"score": score_meteor(gt, response)}

    flags = {"metric": "meteor exact+stem, fmean weight 9, penalty 0.5*(ch/m)^3"}
    return _score("region_description", truths, responses, judge, flags)


def aggregate_report(eval_records: list[EvalRecord], flags: dict) -> MetricsReport:
    """The MetricsReport of one task's per-item records, at least one, whatever
    their order.

    Accuracy and its per-keyword splits for spatial; precision, recall, F1
    and yes-ratio over the parsed predictions for hallucination, an
    unparseable answer counting against recall; mean METEOR for region
    descriptions.
    """
    records = sorted(eval_records, key=lambda r: r.item_id)
    task, n = records[0].task, len(records)
    common = {"task": task, "n": n, "missing": sum(r.missing for r in records), "flags": dict(flags)}
    if task == "region_description":
        return MetricsReport(per_split={}, meteor_mean=sum(r.score for r in records) / n, **common)
    accuracy = sum(r.correct for r in records) / n
    if task == "spatial":
        split_total, split_hit = Counter(), Counter()
        for r in records:
            split_total[r.gt] += 1
            split_hit[r.gt] += r.correct
        per_split = {kw: split_hit[kw] / total for kw, total in split_total.items()}
        return MetricsReport(accuracy=accuracy, per_split=per_split, **common)
    if task == "hallucination":
        positives = [r.correct for r in records if r.gt == "yes"]
        tp = sum(positives)
        fp = sum(r.gt == "no" and r.prediction == "yes" for r in records)
        precision = tp / (tp + fp) if tp + fp else None
        recall = tp / len(positives) if positives else None
        # precision and recall are both set and positive when tp is
        f1 = 2 * precision * recall / (precision + recall) if tp else None
        return MetricsReport(
            per_split={}, accuracy=accuracy, precision=precision, recall=recall, f1=f1, yes_ratio=(tp + fp) / n,
            **common,
        )
    return MetricsReport(per_split={}, accuracy=accuracy, **common)
