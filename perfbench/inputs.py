"""Seeded inputs for the benchmark workloads.

Everything the program reads is generated here from the workload seed: the
same seed gives the same files, byte for byte. Annotations come from
``coordtext.fixtures``; captions and paraphrased responses come from a
generated lexicon, because the fixture captions hold only a few dozen
distinct words and would make a stem cache look free.
"""

import itertools
import json
import random

from coordtext import fixtures

# Common English suffixes, chosen so that porter_stem runs its step 1-5 rules.
SUFFIXES = (
    "", "s", "ing", "ed", "er", "ers", "ly", "ness", "ful", "fulness", "ational",
    "ation", "ations", "ization", "izer", "ism", "ment", "ments", "able", "ive",
    "iveness", "ous", "ousness", "al", "ance", "ence", "ity",
)
# Neutral closed syllables; stems join two or three of them.
_SYLLABLES = (
    "bel", "dor", "tal", "vor", "zen", "lum", "ter", "pol", "rin", "sal", "ven", "mor", "dal", "lin", "bor",
    "tem", "sor", "mel", "ral", "ver", "dem", "lor", "ben", "tor", "pel", "mon", "ril", "bal", "tin", "vel",
)
# Two parameters follow published figures:
# - VOCABULARY is the 10,000-word caption vocabulary commonly used for COCO
#   captions (Xu et al. 2015, "Show, Attend and Tell", section 5.1).
# - ZIPF_EXPONENT is Zipf's law: word frequency falls as 1/rank (Zipf 1949;
#   Piantadosi 2014, "Zipf's word frequency law in natural language",
#   Psychonomic Bulletin & Review 21:1112-1130, finds exponents near 1).
# The rest are this benchmark's own choices, not measured traffic: three
# inflected forms per stem, 4-10 words plus the category per caption, and
# the paraphrase rates below.
VOCABULARY = 10_000
ZIPF_EXPONENT = 1.0
FORMS_PER_STEM = 3
CAPTION_WORDS = (4, 10)
VERBATIM_SHARE = 0.1  # responses left verbatim, which check_region scores exactly
DROP_SHARE = 0.12  # words a paraphrase leaves out
REINFLECT_SHARE = 0.33  # lexicon words it gives a random suffix
SWAP_SHARE = 0.6  # paraphrases that swap two neighbouring words


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


class Lexicon:
    """VOCABULARY generated words, each a stem plus a common suffix."""

    def __init__(self, seed: int):
        rng = _rng("lexicon", seed)
        stems: list[str] = []
        seen = set()
        while len(stems) * FORMS_PER_STEM < VOCABULARY:
            stem = "".join(rng.choices(_SYLLABLES, k=rng.choice((2, 2, 3))))
            if stem not in seen:
                seen.add(stem)
                stems.append(stem)
        self.words: list[str] = []
        self.stem_of: dict[str, str] = {}
        for stem in stems:
            for suffix in rng.sample(SUFFIXES, FORMS_PER_STEM):
                word = stem + suffix
                if word not in self.stem_of and len(self.words) < VOCABULARY:
                    self.stem_of[word] = stem
                    self.words.append(word)
        rng.shuffle(self.words)
        self._cum = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.words))))

    def caption(self, rng: random.Random, category: str) -> str:
        words = rng.choices(self.words, cum_weights=self._cum, k=rng.randint(*CAPTION_WORDS))
        words.insert(rng.randrange(len(words) + 1), category)
        return " ".join(words)

    def paraphrase(self, rng: random.Random, text: str) -> str:
        """Drop, re-inflect and reorder words; a tenth of the texts stay verbatim."""
        if rng.random() < VERBATIM_SHARE:
            return text
        out = []
        for word in text.split():
            roll = rng.random()
            if roll < DROP_SHARE:
                continue
            stem = self.stem_of.get(word)
            if stem is not None and roll < DROP_SHARE + REINFLECT_SHARE:
                word = stem + rng.choice(SUFFIXES)
            out.append(word)
        if not out:
            out = text.split()[:1]
        if len(out) > 2 and rng.random() < SWAP_SHARE:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        return " ".join(out)


def write_spatial_inputs(directory, seed: int, n_images: int) -> None:
    images = fixtures.spatial_fixture(n_images, seed=seed)
    fixtures.write_coco_json(images, directory / "annotations.json")


def write_presence_inputs(directory, seed: int, n_images: int) -> None:
    """Annotations for presence questions, plus the answer key the stub server reads."""
    images = fixtures.annotation_fixture(n_images, seed=seed)
    fixtures.write_coco_json(images, directory / "annotations.json")
    key = {
        "vocabulary": list(fixtures.CATEGORIES),
        "present": {im.image_id: sorted(im.present_categories()) for im in images},
    }
    with open(directory / "answer_key.json", "w", encoding="utf-8") as fh:
        json.dump(key, fh, sort_keys=True)


def write_region_inputs(directory, seed: int, n_images: int) -> Lexicon:
    """Annotations plus one generated caption per instance of every image whose
    categories are all distinct (the only images caption ingestion keeps)."""
    images = fixtures.annotation_fixture(n_images, seed=seed)
    fixtures.write_coco_json(images, directory / "annotations.json")
    lexicon = Lexicon(seed)
    rng = _rng("captions", seed)
    with open(directory / "captions.jsonl", "w", encoding="utf-8") as fh:
        for image in images:
            counts = image.category_counts()
            if counts and max(counts.values()) > 1:
                continue
            for obj in image.objects:
                row = {"image_id": image.image_id, "instance_id": obj.instance_id,
                       "caption": lexicon.caption(rng, obj.category)}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return lexicon


def paraphrase_responses(lexicon: Lexicon, seed: int, rows: list[dict]) -> list[dict]:
    """Model responses that paraphrase the oracle's text for each item."""
    return [
        {"item_id": row["item_id"], "text": lexicon.paraphrase(_rng("paraphrase", seed, row["item_id"]), row["text"])}
        for row in rows
    ]
