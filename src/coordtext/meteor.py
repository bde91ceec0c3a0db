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
or paraphrase resources are used. The stem stage stems only the tokens the
exact stage left unmatched, and stems are cached for the life of the
process, so the cache holds one entry per distinct word that reaches that
stage.
"""

import collections
import functools
import re

# str.translate table of _pattern: a vowel to "v", "y" to itself, any other character to "c"
_CV_TABLE = collections.defaultdict(lambda: "c", {ord(ch): "v" for ch in "aeiou"})
_CV_TABLE[ord("y")] = "y"


def _pattern(word: str) -> str:
    """One letter per character: "c" for a consonant, "v" for a vowel.

    "y" is a consonant at the start of a word or after a vowel, and a vowel
    after a consonant. A prefix of the word has the prefix of its pattern.
    """
    pattern = word.translate(_CV_TABLE)
    if "y" not in pattern:
        return pattern
    letters = list(pattern)
    for i, ch in enumerate(letters):
        if ch == "y":
            letters[i] = "c" if i == 0 or letters[i - 1] == "v" else "v"
    return "".join(letters)


def _measure(pattern: str) -> int:
    """Count of vowel-consonant sequences, the m of [C](VC)^m[V]."""
    return pattern.count("vc")


def _ends_double_consonant(word: str, pattern: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and pattern[-1] == "c"


def _ends_cvc(word: str, pattern: str) -> bool:
    return pattern.endswith("cvc") and word[-1] not in "wxy"


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

_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2_RULES)
_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3_RULES)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


@functools.cache
def porter_stem(word: str) -> str:
    """Suffix-strip one lowercase word; words shorter than 3 letters pass through."""
    if len(word) <= 2:
        return word
    # p is w's consonant/vowel pattern; a test on a stem w[:-k] reads p[:-k]
    w = word
    p = _pattern(word)

    # step 1a: plural forms
    if w.endswith(("sses", "ies")):
        w, p = w[:-2], p[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w, p = w[:-1], p[:-1]

    # step 1b: -eed / -ed / -ing
    if w.endswith("eed"):
        if _measure(p[:-3]) > 0:
            w, p = w[:-1], p[:-1]
    else:
        cut = 0
        if w.endswith("ed") and "v" in p[:-2]:
            cut = 2
        elif w.endswith("ing") and "v" in p[:-3]:
            cut = 3
        if cut:
            w, p = w[:-cut], p[:-cut]
            if w.endswith(("at", "bl", "iz")):
                w, p = w + "e", p + "v"
            elif _ends_double_consonant(w, p) and w[-1] not in "lsz":
                w, p = w[:-1], p[:-1]
            elif _measure(p) == 1 and _ends_cvc(w, p):
                w, p = w + "e", p + "v"

    # step 1c: terminal y after a vowel
    if w.endswith("y") and "v" in p[:-1]:
        w, p = w[:-1] + "i", p[:-1] + "v"

    # step 2
    if w.endswith(_STEP2_SUFFIXES):
        for suffix, replacement in _STEP2_RULES:
            if w.endswith(suffix):
                if _measure(p[: -len(suffix)]) > 0:
                    w = w[: -len(suffix)] + replacement
                    p = _pattern(w)
                break

    # step 3
    if w.endswith(_STEP3_SUFFIXES):
        for suffix, replacement in _STEP3_RULES:
            if w.endswith(suffix):
                if _measure(p[: -len(suffix)]) > 0:
                    w = w[: -len(suffix)] + replacement
                    p = _pattern(w)
                break

    # step 4; no step-4 suffix ends in "ion"
    if w.endswith(_STEP4_SUFFIXES):
        for suffix in _STEP4_SUFFIXES:
            if w.endswith(suffix):
                if _measure(p[: -len(suffix)]) > 1:
                    w, p = w[: -len(suffix)], p[: -len(suffix)]
                break
    elif w.endswith("ion") and len(w) > 3 and w[-4] in "st" and _measure(p[:-3]) > 1:
        w, p = w[:-3], p[:-3]

    # step 5a: drop a trailing e
    if w.endswith("e"):
        m = _measure(p[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1], p[:-1])):
            w, p = w[:-1], p[:-1]

    # step 5b: reduce a trailing double l
    if _ends_double_consonant(w, p) and w[-1] == "l" and _measure(p) > 1:
        w = w[:-1]
    return w


TOKEN_RE = re.compile(r"[a-z0-9]+")  # of lowercased text


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def align(reference_tokens: list[str], hypothesis_tokens: list[str]) -> list[tuple[int, int]]:
    """Match hypothesis to reference unigrams: exact stage then stem stage.

    Every token matches at most once; within a stage, each hypothesis token
    takes the leftmost unmatched reference candidate. Only tokens the exact
    stage left unmatched are stemmed. Returns (hyp_index, ref_index) pairs
    in hypothesis order.
    """
    exact: dict[str, list[int]] = {}
    for ri, token in enumerate(reference_tokens):
        exact.setdefault(token, []).append(ri)
    pairs: dict[int, int] = {}
    unmatched_hyp = []
    for hi, token in enumerate(hypothesis_tokens):
        slots = exact.get(token)
        if slots:
            pairs[hi] = slots.pop(0)
        else:
            unmatched_hyp.append(hi)
    if not unmatched_hyp:
        return list(pairs.items())

    matched_ref = set(pairs.values())
    by_stem: dict[str, list[int]] = {}
    for ri, token in enumerate(reference_tokens):
        if ri not in matched_ref:
            by_stem.setdefault(porter_stem(token), []).append(ri)
    for hi in unmatched_hyp:
        slots = by_stem.get(porter_stem(hypothesis_tokens[hi]))
        if slots:
            pairs[hi] = slots.pop(0)
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
    """Similarity of hypothesis against one reference, in [0, 1]; 0 where either has no token."""
    ref_tokens = tokenize(reference)
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
