"""Keyword and key-sentence scoring from the leading singular pair of a
term-sentence frequency matrix.

Scores follow a mutual reinforcement principle: a term scores high when it
appears in high-scoring sentences, and vice versa.  Those two conditions
are exactly the defining relations A v = sigma u, A^T u = sigma v of the
leading singular pair.  For a nonnegative matrix whose sigma_1 is simple,
that pair is entrywise nonnegative up to one common sign (Perron-Frobenius).
When sigma_1 repeats, as for a matrix of disjoint blocks of equal weight,
``svd`` may return any unit pair of its singular subspace, with entries of
both signs.  ``summarize_scores`` flips only the common sign, so that the
entries sum to at least zero; some scores can then be negative, and a term
or sentence of a block that the pair gives a negative weight ranks last.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..svd import svd

__all__ = ["TermSentenceMatrix", "tokenize", "stem", "build_term_sentence", "summarize_scores"]

_WORD = re.compile(r"[a-z0-9]+")
_SUFFIXES = ("ing", "ed", "s")


@dataclass
class TermSentenceMatrix:
    terms: list[str]    # unique stems, in order of first appearance
    a: np.ndarray       # terms x sentences, nonnegative counts


def tokenize(sentence: str) -> list[str]:
    return _WORD.findall(sentence.lower())


def stem(word: str) -> str:
    """Minimal suffix stripper: drops one of -ing/-ed/-s, then a trailing
    'e', so e.g. computing/computed/compute share a stem.  Very short words
    are left alone."""
    for suffix in _SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            word = word[: -len(suffix)]
            break
    if word.endswith("e") and len(word) >= 4:
        word = word[:-1]
    return word


def build_term_sentence(sentences, stopwords=frozenset()) -> TermSentenceMatrix:
    """Count stemmed, stopword-filtered terms per sentence.

    Raises ``ValueError`` when nothing survives filtering (empty
    vocabulary).
    """
    stopwords = {w.lower() for w in stopwords}
    index: dict[str, int] = {}  # stem -> row, in order of first appearance
    columns = [Counter(index.setdefault(stem(w), len(index)) for w in tokenize(sentence) if w not in stopwords)
               for sentence in sentences]
    if not index:
        raise ValueError("no terms left after stopword removal; vocabulary is empty")
    a = np.zeros((len(index), len(columns)))
    for j, counts in enumerate(columns):
        for i, c in counts.items():
            a[i, j] = float(c)
    return TermSentenceMatrix(terms=list(index), a=a)


def summarize_scores(ts: TermSentenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Leading left/right singular vectors of the term-sentence matrix as
    (term_scores, sentence_scores), sign-flipped so the entry sums are
    nonnegative."""
    if not np.any(ts.a):
        raise ValueError("term-sentence matrix is zero; nothing to score")
    f = svd(ts.a, "reduced")
    u = f.u[:, 0].copy()
    v = f.vt[0, :].copy()
    if u.sum() + v.sum() < 0.0:
        u = -u
        v = -v
    return u, v
