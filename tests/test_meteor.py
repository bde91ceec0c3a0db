"""Similarity-metric tests: formula traces, stemmer vectors, alignment oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.meteor import align, count_chunks, porter_stem, score_meteor, tokenize

# classic suffix-stripping vectors
STEM_VECTORS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
}


def test_porter_stem_vectors():
    for word, expected in STEM_VECTORS.items():
        assert porter_stem(word) == expected, f"{word} -> {porter_stem(word)} != {expected}"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14))
@settings(max_examples=300, deadline=None)
def test_cached_porter_stem_matches_uncached(word):
    first = porter_stem(word)
    assert porter_stem(word) == first
    assert first == porter_stem.__wrapped__(word)


# ---------------- independent alignment oracle ---------------- #


def oracle_meteor(reference: str, hypothesis: str) -> float:
    """First-principles score for pairs whose tokens are unique per sentence.

    With unique tokens the maximal exact-then-stem matching is a forced
    bijection, so m, the chunk count, and the final score follow directly
    from positional lookups with no alignment search.
    """
    ref = tokenize(reference)
    hyp = tokenize(hypothesis)
    assert len(set(ref)) == len(ref) and len(set(hyp)) == len(hyp), "oracle needs unique tokens"
    if not hyp:
        return 0.0
    ref_pos = {t: i for i, t in enumerate(ref)}
    mapping = {}
    for hi, token in enumerate(hyp):
        if token in ref_pos:
            mapping[hi] = ref_pos[token]
    ref_stems = {porter_stem(t): i for i, t in enumerate(ref) if i not in mapping.values()}
    for hi, token in enumerate(hyp):
        if hi in mapping:
            continue
        stem = porter_stem(token)
        if stem in ref_stems and ref_stems[stem] not in mapping.values():
            mapping[hi] = ref_stems[stem]
    m = len(mapping)
    if m == 0:
        return 0.0
    pairs = sorted(mapping.items())
    chunks = 1 + sum(
        1
        for (h1, r1), (h2, r2) in zip(pairs, pairs[1:])
        if h2 != h1 + 1 or r2 != r1 + 1
    )
    precision, recall = m / len(hyp), m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    return fmean * (1 - 0.5 * (chunks / m) ** 3)


HAND_PAIRS = [
    ("the cat sat on a mat", "the cat sat on a mat"),
    ("the cat sat on a mat", "a mat the cat sat on"),
    ("the lamp stands near a window", "the lamp rests near a window"),
    ("a shiny red kettle boils water", "water boils under a shiny red kettle"),
    ("dogs chased cars down our street", "dog chases car down your street"),
    ("the quick brown fox jumps over", "quick brown foxes jumped over him"),
    ("she walked slowly toward town", "he walks slowly toward town"),
    ("a tall vase holds dried fern", "the tall vase held dry fern"),
    ("rain fell softly during night", "rain falls softly at night"),
    ("three mugs sit beside plates", "two mugs sat beside a plate"),
    ("the drummer played loud music", "a drummer plays louder music"),
    ("old clocks tick in hallways", "an old clock ticked in hallway"),
    ("birds fly above green fields", "a bird flies over green field"),
    ("the boot was caked with mud", "boots caked in thick mud"),
    ("a sofa faces the fireplace", "sofas faced a small fireplace"),
    ("children read books quietly", "a child reads this book quietly"),
    ("the radio hummed all morning", "radios hum each morning"),
    ("fresh plants line the balcony", "a fresh plant lined that balcony"),
    ("the painter mixed bright colors", "painters mix brighter color"),
    ("wind moved the tall grass", "winds move every tall blade"),
]


def test_hand_pairs_match_oracle():
    for reference, hypothesis in HAND_PAIRS:
        got = score_meteor(reference, hypothesis)
        expected = oracle_meteor(reference, hypothesis)
        assert got == pytest.approx(expected, abs=1e-6), (reference, hypothesis, got, expected)


# ---------------- formula traces ---------------- #


def test_identical_six_token_sentence():
    score = score_meteor("the cat sat on a mat", "the cat sat on a mat")
    assert score == pytest.approx(1 - 0.5 * (1 / 6) ** 3, abs=1e-9)


def test_single_identical_token():
    assert score_meteor("cat", "cat") == pytest.approx(0.5, abs=1e-12)


def test_disjoint_vocabularies():
    assert score_meteor("lamp chair mug", "drum vase clock") == 0.0


def test_empty_hypothesis_scores_zero():
    assert score_meteor("a lamp", "") == 0.0
    assert score_meteor("a lamp", "   ") == 0.0


def test_empty_reference_rejected():
    with pytest.raises(ValueError, match="reference"):
        score_meteor("", "a lamp")


def test_stem_stage_matches():
    # "jumps" vs "jumped" only align through the stem stage
    score = score_meteor("he jumps", "he jumped")
    assert score == pytest.approx(1 - 0.5 * (1 / 2) ** 3, abs=1e-9)


def test_chunk_counting():
    ref = tokenize("a b c d")
    assert count_chunks(align(ref, tokenize("a b c d"))) == 1
    assert count_chunks(align(ref, tokenize("c d a b"))) == 2
    assert count_chunks(align(ref, tokenize("d c b a"))) == 4
    assert count_chunks([]) == 0


def test_score_bounds_and_self_similarity_growth():
    words = ["lamp", "chair", "mug", "plant", "radio", "kettle", "drum", "vase"]
    previous = 0.0
    for n in range(1, len(words) + 1):
        text = " ".join(words[:n])
        score = score_meteor(text, text)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(1 - 0.5 / n**3, abs=1e-12)
        assert score > previous
        previous = score


def test_score_in_unit_interval_for_partial_overlap():
    pairs = [
        ("the lamp stands near a window", "a window"),
        ("one two three", "three two one four five"),
        ("alpha beta gamma delta", "beta gamma"),
    ]
    for reference, hypothesis in pairs:
        assert 0.0 <= score_meteor(reference, hypothesis) <= 1.0


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]
    assert tokenize("") == []
