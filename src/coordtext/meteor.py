"""Unigram-alignment text similarity with a fragmentation penalty.

The score aligns hypothesis and reference tokens in two stages, exact
surface match then stem match, each matching every token at most once.
With m matches, precision P = m/|hyp| and recall R = m/|ref| combine into
Fmean = 10PR / (R + 9P); the penalty is 0.5 * (chunks / m)^3 where chunks
counts maximal runs of matches contiguous in both sentences. The final
score is Fmean * (1 - penalty), in [0, 1].

Alignment tie-break: tokens are matched left to right, each hypothesis
token taking the leftmost unmatched reference candidate. The stemmer is the
classic suffix-stripping algorithm with its rule table embedded; no synonym
or paraphrase resources are used. Stems are cached for the life of the
process, so the cache holds one entry per distinct word seen.
"""

import functools
import re

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences, the m of [C](VC)^m[V]."""
    m = 0
    prev_consonant = None
    for i in range(len(stem)):
        consonant = _is_consonant(stem, i)
        if prev_consonant is False and consonant:
            m += 1
        prev_consonant = consonant
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.cache
def porter_stem(word: str) -> str:
    """Suffix-strip one lowercase word; words shorter than 3 letters pass through."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a: plural forms
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # step 1b: -eed / -ed / -ing
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _has_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c: terminal y after a vowel
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suffix, replacement in _STEP2_RULES:
        if w.endswith(suffix):
            if _measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + replacement
            break

    # step 3
    for suffix, replacement in _STEP3_RULES:
        if w.endswith(suffix):
            if _measure(w[: -len(suffix)]) > 0:
                w = w[: -len(suffix)] + replacement
            break

    # step 4
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            if _measure(w[: -len(suffix)]) > 1:
                w = w[: -len(suffix)]
            break
    else:
        if w.endswith("ion") and len(w) > 3 and w[-4] in "st" and _measure(w[:-3]) > 1:
            w = w[:-3]

    # step 5a: drop a trailing e
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1])):
            w = w[:-1]

    # step 5b: reduce a trailing double l
    if _ends_double_consonant(w) and w[-1] == "l" and _measure(w) > 1:
        w = w[:-1]
    return w


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def align(reference_tokens: list[str], hypothesis_tokens: list[str]) -> list[tuple[int, int]]:
    """Match hypothesis to reference unigrams: exact stage then stem stage.

    Every token matches at most once; within a stage, each hypothesis token
    takes the leftmost unmatched reference candidate. Returns (hyp_index,
    ref_index) pairs in hypothesis order.
    """
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
    run_stage(porter_stem)
    return sorted(pairs.items())


def count_chunks(pairs: list[tuple[int, int]]) -> int:
    """Maximal runs of matches that are contiguous in both sentences."""
    if not pairs:
        return 0
    chunks = 1
    for (h_prev, r_prev), (h_next, r_next) in zip(pairs, pairs[1:]):
        if h_next != h_prev + 1 or r_next != r_prev + 1:
            chunks += 1
    return chunks


def score_meteor(reference: str, hypothesis: str) -> float:
    """Similarity of hypothesis against one reference, in [0, 1]."""
    ref_tokens = tokenize(reference)
    if not ref_tokens:
        raise ValueError("reference must contain at least one token")
    hyp_tokens = tokenize(hypothesis)
    if not hyp_tokens:
        return 0.0
    pairs = align(ref_tokens, hyp_tokens)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(hyp_tokens)
    recall = m / len(ref_tokens)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (count_chunks(pairs) / m) ** 3
    return fmean * (1 - penalty)
