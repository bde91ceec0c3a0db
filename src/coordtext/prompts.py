"""Instruction templates, seeded prompt/target rendering, and yes/no answer parsing.

Rendering is pure: a (descriptor, form, location, seed) tuple always produces
the same bytes, so datasets can be regenerated from their metadata alone. A
location is its text, the string a record stores as ``location_text``.
Location-query and negative-query prompts are drawn from the same template
pool so nothing in the input distinguishes the two objectives. No name
formatted here is empty: the readers that supply the names see to it.
"""

import re
import string
from typing import NamedTuple

from .records import SchemaError, iter_lines

# objective tags used across records and reports
LOCPRED = "locpred"
NEGPRED = "negpred"
REVLOC = "revloc"
SPATIAL_DIRECT = "spatial_direct"
SPATIAL_ICL = "spatial_icl"
HALLUCINATION = "hallucination"
CAPTION_REQUEST = "caption_request"
VQA = "vqa"
REGION_DESCRIPTION = "region_description"


class Objective(NamedTuple):
    """What an objective tag means past the builders."""

    task: str | None  # the evaluate --task that scores it; None: no task does
    truth: str | None  # the record field that holds its ground truth
    answers: str  # the random mock's answer space; "axis": the record's own axis field


OBJECTIVES = {
    LOCPRED: Objective(None, "location_text", "lr"),
    NEGPRED: Objective(None, None, "lr"),
    REVLOC: Objective("region", "descriptor", "lr"),
    SPATIAL_DIRECT: Objective("spatial", "gt_keyword", "axis"),
    SPATIAL_ICL: Objective("spatial", "gt_keyword", "axis"),
    HALLUCINATION: Objective("hallucination", "gt", "yes_no"),
    CAPTION_REQUEST: Objective(None, None, "lr"),
    VQA: Objective("vqa", "target", "lr"),
    REGION_DESCRIPTION: Objective("region", "descriptor", "lr"),
}

LOCATION_PROMPTS = (
    "Where is the object described {category} located in image in terms of {repr}?",
    "What is the location of object described {category} in terms of {repr}?",
    "Localize the object described {category} in terms of {repr}?",
    "Provide a {repr} for the the object described {category}?",
    "Generate a {repr} for the the object described {category}?",
)

REVLOC_PROMPTS = (
    "Describe the object located at {loc}?",
    "Provide a caption for object at {loc}?",
    "What is at location {loc} in image?",
)

LOCPRED_TARGET = "It is located at {loc}"
NEGPRED_TARGET = "There is no such object in the image"
REVLOC_TARGET = "There is a {category}."

REPR_PLACEHOLDER = {"bbox": "(x1,y1,x2,y2) bbox", "point": "(cx,cy) point"}

SPATIAL_QUESTION = "Which side of {obj1} is {obj2} located?"
SPATIAL_ICL_ANSWER = "The {obj1} is located to the {keyword} of {obj2}."
HALLUCINATION_QUESTION = "Is there {obj} in this {medium}?"
CAPTION_PROMPT = (
    "Describe the {category} in this image using one short sentence, "
    "referring to its visual features and spatial position relative to other objects in image."
)

OPPOSITE_KEYWORD = {"left": "right", "right": "left", "above": "below", "below": "above"}


class TemplateSet(NamedTuple):
    """The full template pool; location and negative queries both draw from locpred_prompts."""

    locpred_prompts: tuple[str, ...] = LOCATION_PROMPTS
    revloc_prompts: tuple[str, ...] = REVLOC_PROMPTS
    locpred_target: str = LOCPRED_TARGET
    negpred_target: str = NEGPRED_TARGET
    revloc_target: str = REVLOC_TARGET
    spatial_direct: str = SPATIAL_QUESTION
    spatial_icl_answer: str = SPATIAL_ICL_ANSWER
    hallucination: str = HALLUCINATION_QUESTION
    caption_request: str = CAPTION_PROMPT


DEFAULT_TEMPLATES = TemplateSet()

# Each override section: a pool of templates (tuple) or one (str), the
# fields that its render call formats it with (None: it is used as written),
# and those of them each template must contain, since they name its item:
# a hallucination question without {obj} asks the same of "yes" and "no" items.
_OVERRIDE_SECTIONS = {
    "locpred_prompts": (tuple, ("category", "repr"), ("category",)),
    "revloc_prompts": (tuple, ("loc",), ("loc",)),
    "locpred_target": (str, ("loc",), ("loc",)),
    "negpred_target": (str, None, ()),
    "revloc_target": (str, ("category",), ("category",)),
    "spatial_direct": (str, ("obj1", "obj2"), ("obj1", "obj2")),
    "spatial_icl_answer": (str, ("obj1", "keyword", "obj2"), ("keyword",)),
    "hallucination": (str, ("obj", "medium"), ("obj",)),
    "caption_request": (str, ("category",), ("category",)),
}

_FORMATTER = string.Formatter()


def _replacement_fields(template: str):
    """Each replacement field of a format string, those nested in a format spec too."""
    for _, field, spec, _ in _FORMATTER.parse(template):
        if field is not None:
            yield field
            yield from _replacement_fields(spec)


def _placeholder_problem(template: str, names: tuple[str, ...], required: tuple[str, ...]) -> str | None:
    """Why ``template`` would not format with ``names`` passed by keyword, each a
    string, or lacks one of ``required``, or None. A field that reads an
    attribute or an index is refused too."""
    try:
        fields = list(_replacement_fields(template))
        for field in fields:
            name = re.match(r"[^.\[]*", field).group()
            if not name or name.isdigit():
                return f"placeholder {{{field}}} is positional"
            if name != field:
                return f"placeholder {{{field}}} reads an attribute or an index"
            if name not in names:
                return f"placeholder {{{field}}} is not one of {', '.join('{' + n + '}' for n in names)}"
        template.format(**dict.fromkeys(names, "x"))
    except ValueError as exc:
        return f"not a format string: {exc}"
    missing = [name for name in required if name not in fields]
    if missing:
        return f"template lacks {', '.join('{' + n + '}' for n in missing)}"
    return None


def load_template_overrides(path) -> TemplateSet:
    """Read a section-headed template file: ``[name]`` lines followed by one template per line.

    An unknown section, a template before any header, a section without a
    template, a second template in a one-template section, and a template
    that its render call could not format or that lacks a placeholder naming
    its item are SchemaErrors naming the file and line.
    """
    sections: dict[str, list[str]] = {}
    header_lines: dict[str, int] = {}
    current = None
    for line_no, raw in iter_lines(path):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        problem = None
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            current = header.group(1)
            if current not in _OVERRIDE_SECTIONS:
                problem = f"unknown template section {current!r}"
            sections[current], header_lines[current] = [], line_no
        elif current is None:
            problem = f"template line before any section header: {line!r}"
        else:
            kind, names, required = _OVERRIDE_SECTIONS[current]
            if kind is str and sections[current]:
                problem = f"section {current!r} must hold exactly one template"
            elif names is not None:
                problem = _placeholder_problem(line, names, required)
            sections[current].append(line)
        if problem:
            raise SchemaError(f"{path}: line {line_no}: {problem}")
    fields = {}
    for name, lines in sections.items():
        if not lines:
            raise SchemaError(f"{path}: line {header_lines[name]}: section {name!r} holds no template")
        fields[name] = tuple(lines) if _OVERRIDE_SECTIONS[name][0] is tuple else lines[0]
    return TemplateSet(**fields)


class RenderedPair(NamedTuple):
    prompt: str
    target: str


# A seed picks its template as seed % pool size: small seeds enumerate the
# pool, and any seed is uniform over it.


def render_locpred(
    descriptor: str, form: str, loc: str, seed: int, templates: TemplateSet = DEFAULT_TEMPLATES
) -> RenderedPair:
    """Prompt asking for the location of descriptor; target states loc, a location's text."""
    pool = templates.locpred_prompts
    prompt = pool[seed % len(pool)].format(category=descriptor, repr=REPR_PLACEHOLDER[form])
    return RenderedPair(prompt, templates.locpred_target.format(loc=loc))


def render_negpred(
    descriptor: str, form: str, seed: int, templates: TemplateSet = DEFAULT_TEMPLATES
) -> RenderedPair:
    """Same prompt pool as render_locpred; target denies the object exists."""
    pool = templates.locpred_prompts
    prompt = pool[seed % len(pool)].format(category=descriptor, repr=REPR_PLACEHOLDER[form])
    return RenderedPair(prompt, templates.negpred_target)


def render_revloc(
    loc: str, descriptor: str, seed: int, templates: TemplateSet = DEFAULT_TEMPLATES
) -> RenderedPair:
    """Prompt asking what is at loc, a location's text; target names the descriptor."""
    pool = templates.revloc_prompts
    prompt = pool[seed % len(pool)].format(loc=loc)
    return RenderedPair(prompt, templates.revloc_target.format(category=descriptor))


def render_spatial_query(
    obj1: str,
    obj2: str,
    icl: tuple[tuple[str, str], tuple[str, str]] | None = None,
    templates: TemplateSet = DEFAULT_TEMPLATES,
) -> str:
    """Side question about obj2 relative to obj1; same sentence frame for both axes.

    With icl, the two worked question/answer pairs precede the final question
    in a single "Q: ... A: ..." sequence.
    """
    question = templates.spatial_direct.format(obj1=obj1, obj2=obj2)
    if icl is None:
        return question
    (q1, a1), (q2, a2) = icl
    return f"Q: {q1} A: {a1} Q: {q2} A: {a2} Q: {question}"


def spatial_icl_example(
    obj1: str, obj2: str, keyword: str, templates: TemplateSet = DEFAULT_TEMPLATES
) -> tuple[str, str]:
    """One in-context (question, answer) pair in the printed answer wording."""
    question = templates.spatial_direct.format(obj1=obj1, obj2=obj2)
    answer = templates.spatial_icl_answer.format(obj1=obj1, keyword=keyword, obj2=obj2)
    return question, answer


def render_hallucination_query(obj: str, medium: str, templates: TemplateSet = DEFAULT_TEMPLATES) -> str:
    return templates.hallucination.format(obj=obj, medium=medium)


def render_caption_request(category: str, templates: TemplateSet = DEFAULT_TEMPLATES) -> str:
    return templates.caption_request.format(category=category)


def _word_present(word: str, text: str) -> bool:
    return re.search(rf"\b{word}\b", text) is not None


def parse_response(raw: str) -> str | None:
    """The answer to a presence question: "yes" or "no" when exactly one of
    them appears in ``raw`` as a whole word, any case; otherwise None. Total:
    never raises."""
    lowered = raw.lower()
    yes = _word_present("yes", lowered)
    no = _word_present("no", lowered)
    if yes == no:
        return None
    return "yes" if yes else "no"
