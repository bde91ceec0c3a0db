"""Similarity-metric tests: formula traces, stemmer vectors, alignment oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordtext.meteor import (
    _STEP2_RULES,
    _STEP3_RULES,
    _STEP4_SUFFIXES,
    align,
    count_chunks,
    porter_stem,
    score_meteor,
    tokenize,
)

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


# ---------------- reference kernel ---------------- #
# The letter-at-a-time stemmer and the quadratic aligner, kept as written
# before the consonant/vowel pattern and the position lists replaced them.


def _ref_is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _ref_is_consonant(word, i - 1)
    return True


def _ref_measure(stem: str) -> int:
    m = 0
    prev_consonant = None
    for i in range(len(stem)):
        consonant = _ref_is_consonant(stem, i)
        if prev_consonant is False and consonant:
            m += 1
        prev_consonant = consonant
    return m


def _ref_has_vowel(stem: str) -> bool:
    return any(not _ref_is_consonant(stem, i) for i in range(len(stem)))


def _ref_ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _ref_is_consonant(word, len(word) - 1)


def _ref_ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _ref_is_consonant(word, len(word) - 3)
        and not _ref_is_consonant(word, len(word) - 2)
        and _ref_is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def reference_porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w = word
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]
    if w.endswith("eed"):
        if _ref_measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _ref_has_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _ref_has_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ref_ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _ref_measure(w) == 1 and _ref_ends_cvc(w):
                w += "e"
    if w.endswith("y") and _ref_has_vowel(w[:-1]):
        w = w[:-1] + "i"
    for suffix, replacement in _STEP2_RULES:
        if w.endswith(suffix):
            if _ref_measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + replacement
            break
    for suffix, replacement in _STEP3_RULES:
        if w.endswith(suffix):
            if _ref_measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + replacement
            break
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            if _ref_measure(w[: -len(suffix)]) > 1:
                w = w[: -len(suffix)]
            break
    else:
        if w.endswith("ion") and len(w) > 3 and w[-4] in "st" and _ref_measure(w[:-3]) > 1:
            w = w[:-3]
    if w.endswith("e"):
        m = _ref_measure(w[:-1])
        if m > 1 or (m == 1 and not _ref_ends_cvc(w[:-1])):
            w = w[:-1]
    if _ref_ends_double_consonant(w) and w[-1] == "l" and _ref_measure(w) > 1:
        w = w[:-1]
    return w


def reference_align(reference_tokens: list[str], hypothesis_tokens: list[str]) -> list[tuple[int, int]]:
    matched_ref: set[int] = set()
    pairs: dict[int, int] = {}

    def run_stage(key):
        ref_keys = [key(t) for t in reference_tokens]
        for hi, token in enumerate(hypothesis_tokens):
            if hi in pairs:
                continue
            needle = key(token)
            for ri, ref_key in enumerate(ref_keys):
                if ri not in matched_ref and ref_key == needle:
                    pairs[hi] = ri
                    matched_ref.add(ri)
                    break

    run_stage(lambda t: t)
    run_stage(reference_porter_stem)
    return sorted(pairs.items())


SUFFIXES = sorted(
    {suffix for suffix, _ in _STEP2_RULES + _STEP3_RULES}
    | set(_STEP4_SUFFIXES)
    | {"s", "ed", "ing", "eed", "y", "ll", "ion", "sion", "tion", "sses", "ies"}
)
plain_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14)
suffixed_word = st.builds(
    lambda stem, suffixes, ys: stem + ys + "".join(suffixes),
    st.text(alphabet="aeiouybcdlmnrst", max_size=8),
    st.lists(st.sampled_from(SUFFIXES), min_size=1, max_size=3),
    st.sampled_from(["", "y", "yy"]),
)


@given(st.one_of(plain_word, suffixed_word))
@settings(max_examples=1000, deadline=None)
def test_porter_stem_matches_reference(word):
    assert porter_stem.__wrapped__(word) == reference_porter_stem(word)


# inflected forms share stems, so the stem stage has several candidates to choose from
VOCABULARY = [
    "cat", "cats", "run", "runs", "running", "ran", "happy", "happiness", "happily",
    "relate", "related", "relational", "sky", "skies", "connect", "connected",
    "connection", "a", "the", "red", "reds",
]
token_list = st.lists(st.sampled_from(VOCABULARY), max_size=10)


@given(token_list, token_list)
@example(["cat", "cats", "cat", "run", "runs"], ["cats", "cat", "cat", "running", "runs", "run"])
@settings(max_examples=600, deadline=None)
def test_align_matches_reference(reference, hypothesis):
    assert align(reference, hypothesis) == reference_align(reference, hypothesis)


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


def test_reference_without_a_token_scores_zero():
    """evaluate refuses such a region truth before scoring (tests/test_cli.py)."""
    assert score_meteor("", "a lamp") == 0.0
    assert score_meteor("日本", "a lamp") == 0.0


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
