"""Seeded, numpy-only generator for the benchmark's synthetic inputs.

Everything here is a pure function of its parameters and seed, so two runs
with the same seed write byte-identical files; ``sha256`` of each file goes
into the benchmark record so that can be confirmed.

The corpus imitates patent abstracts: ~150 tokens drawn from a Zipf
vocabulary of pseudo-words, skewed per industry towards a topic set, with
English function words and patent boilerplate mixed in.  Pseudo-words are
consonant-vowel syllables, so they never spell a query word, an industry
name or any other word that ends in a consonant.  A share of the documents carries one of the phrases the
benchmark query looks for; the others may carry decoys (a phrase's words
out of order or alone) so the query must scan them to the end.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

INDUSTRIES = (
    "agriculture",
    "energy",
    "factory",
    "finance",
    "medical",
    "retail",
    "security",
    "transport",
)
FUNCTION_WORDS = (
    "a an and are as at be by for from has in is it its of on or that the this to "
    "was which with within into using based further each other more such"
).split()
BOILERPLATE = (
    "method methods device devices apparatus disclosed disclosure wherein comprising "
    "comprises configured provided unit module"
).split()
QUERY = "'neural network' OR deep learn* OR blockchain, 'quantum computing'"
# A matching document carries one of these runs; the decoys match no term.
PLANTED = (("neural", "network"), ("deep", "learning"), ("deep", "learner"), ("blockchain",),
           ("quantum", "computing"))
DECOYS = (("network", "neural"), ("deep",), ("quantum",), ("learning",), ("neural",))
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_ZIPF_EXPONENT = 1.05
_ZIPF_OFFSET = 2.7
_TOPIC_WORDS = 300  # per industry
_MATCHING_SHARE = 0.5  # of documents carrying a query phrase


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def lexicon(size: int, seed: int) -> list[str]:
    """``size`` distinct pseudo-words of 2-4 CV syllables, in Zipf rank order."""
    rng = np.random.default_rng([seed, 0x1E7])
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    reserved = set(FUNCTION_WORDS) | set(BOILERPLATE)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        lengths = rng.integers(2, 5, size=size)
        picks = rng.integers(0, len(syllables), size=(size, 4))
        for n, row in zip(lengths, picks):
            word = "".join(syllables[i] for i in row[:n])
            if word not in seen and word not in reserved:
                seen.add(word)
                words.append(word)
                if len(words) == size:
                    break
    return words


def _zipf(n: int) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + _ZIPF_OFFSET) ** _ZIPF_EXPONENT
    return weights / weights.sum()


def make_corpus(path: Path, seed: int, lexicon_seed: int, docs: int, vocab: int,
                doc_tokens: int) -> int:
    """Write a JSONL corpus; returns how many documents the query matches.

    ``seed`` drives every draw; ``lexicon_seed`` only fixes the pseudo-words,
    so corpora of different seeds share a vocabulary with one model file.
    """
    rng = np.random.default_rng([seed, 0xC0])
    words = lexicon(vocab, lexicon_seed)
    cdf = np.cumsum(_zipf(vocab))
    topics = [rng.choice(np.arange(200, vocab), size=_TOPIC_WORDS, replace=False)
              for _ in INDUSTRIES]
    # one table: function words, then boilerplate, then the pseudo-words
    table = FUNCTION_WORDS + BOILERPLATE + words
    offset = len(FUNCTION_WORDS) + len(BOILERPLATE)
    lengths = rng.integers(doc_tokens * 4 // 5, doc_tokens * 6 // 5 + 1, size=docs)
    industries = rng.integers(0, len(INDUSTRIES), size=docs)
    matching = rng.random(docs) < _MATCHING_SHARE
    kept = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(docs):
            n = int(lengths[i])
            kind = rng.random(n)
            general = np.minimum(np.searchsorted(cdf, rng.random(n)), vocab - 1)
            topical = rng.choice(topics[industries[i]], size=n)
            # 20% function words, 5% boilerplate, 20% industry topic, 55% general
            ids = np.where(
                kind < 0.2,
                rng.integers(0, len(FUNCTION_WORDS), size=n),
                np.where(
                    kind < 0.25,
                    len(FUNCTION_WORDS) + rng.integers(0, len(BOILERPLATE), size=n),
                    offset + np.where(kind < 0.45, topical, general),
                ),
            )
            tokens = [table[j] for j in ids.tolist()]
            if matching[i]:
                kept += 1
                extra = PLANTED[rng.integers(len(PLANTED))]
            else:
                extra = DECOYS[rng.integers(len(DECOYS))]
            at = int(rng.integers(0, n))
            tokens[at:at] = extra
            title_ids = rng.choice(topics[industries[i]], size=int(rng.integers(4, 8)))
            record = {
                "id": f"P{seed % 1000:03d}-{i:06d}",
                "industry": INDUSTRIES[industries[i]],
                "year": int(rng.integers(2005, 2022)),
                "title": " ".join(words[t] for t in title_ids).capitalize(),
                "abstract": _sentences(tokens, rng),
            }
            fh.write(json.dumps(record) + "\n")
    return kept


def _sentences(tokens: list[str], rng: np.random.Generator) -> str:
    out: list[str] = []
    start = 0
    while start < len(tokens):
        stop = min(len(tokens), start + int(rng.integers(8, 21)))
        sentence = " ".join(tokens[start:stop])
        out.append(sentence[:1].upper() + sentence[1:] + ".")
        start = stop
    return " ".join(out)


def make_model(path: Path, lexicon_seed: int, vocab: int, model_words: int, dim: int) -> None:
    """Write a pretrained-model file in the text format ``load_model`` reads.

    The rows are the ``model_words`` most frequent pseudo-words plus the
    industry names and planted query words (so anchors and query terms are
    in vocabulary), with seeded Gaussian vectors; floats use shortest
    round-trip repr, as ``save_model`` writes them.
    """
    rng = np.random.default_rng([lexicon_seed, 0x30DE1])
    extra = list(INDUSTRIES) + sorted({t for tokens in PLANTED for t in tokens})
    words = lexicon(vocab, lexicon_seed)[: model_words - len(extra)] + extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"trendlens-w2v 1 {len(words)} {dim} {lexicon_seed}\n")
        for word in words:
            row = rng.standard_normal(dim) * 0.1
            fh.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")


def write_stopwords(path: Path) -> None:
    path.write_text("# patent boilerplate\n" + "\n".join(BOILERPLATE) + "\n", encoding="utf-8")
