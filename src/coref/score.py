"""Coreference evaluation: pairwise P/R/F over mention pairs and B-cubed.

Pairwise counts are pooled across documents before computing P/R/F
(micro-averaging); B-cubed is computed per document and averaged
(macro-averaging), with F derived from the averaged P and R.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .cluster import Clustering


class PairCounts(NamedTuple):
    """Unordered coreferent-pair tallies: each pair counted once."""
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "PairCounts") -> "PairCounts":
        return PairCounts(self.tp + other.tp, self.fp + other.fp,
                          self.fn + other.fn)


class Score(NamedTuple):
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, p: float, r: float) -> "Score":
        """Precision, recall and their harmonic mean (0 when both are 0)."""
        return cls(p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0)


def _ratio(num: int, den: int, other_den: int) -> float:
    # Zero-denominator rule: vacuous perfection only if the other side also
    # has no pairs.
    if den > 0:
        return num / den
    return 1.0 if other_den == 0 else 0.0


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _check_universes(sys: Clustering, gold: Clustering) -> None:
    sys_ids, gold_ids = set(sys.universe), set(gold.universe)
    if sys_ids != gold_ids:
        only_sys = sorted(sys_ids - gold_ids)
        only_gold = sorted(gold_ids - sys_ids)
        raise ValueError(
            "mention universes differ; "
            f"only in system: {only_sys}; only in gold: {only_gold}")


def _overlaps(sys: Clustering,
              gold: Clustering) -> list[tuple[frozenset[int], frozenset[int], int]]:
    """The contingency table: (S, G, |S∩G|) for each system entity S and
    gold entity G that share a mention, from one visit to each mention."""
    _check_universes(sys, gold)
    gold_entity = gold.entity_of
    cells = []
    for s in sys.entities:
        row: dict[frozenset[int], int] = {}
        for mid in s:
            g = gold_entity(mid)
            row[g] = row.get(g, 0) + 1
        for g, overlap in row.items():
            cells.append((s, g, overlap))
    return cells


def pairwise_counts(sys: Clustering, gold: Clustering) -> PairCounts:
    """TP/FP/FN over unordered mention pairs.

    tp sums C(|S∩G|, 2) over system/gold entity intersections; fp and fn are
    the leftover system and gold pairs.
    """
    tp = sum(_pairs(overlap) for _, _, overlap in _overlaps(sys, gold))
    sys_pairs = sum(_pairs(len(e)) for e in sys.entities)
    gold_pairs = sum(_pairs(len(e)) for e in gold.entities)
    return PairCounts(tp=tp, fp=sys_pairs - tp, fn=gold_pairs - tp)


def score_from_counts(counts: PairCounts) -> Score:
    p = _ratio(counts.tp, counts.tp + counts.fp, counts.tp + counts.fn)
    r = _ratio(counts.tp, counts.tp + counts.fn, counts.tp + counts.fp)
    return Score.from_pr(p, r)


def pairwise_micro(counts: Iterable[PairCounts]) -> Score:
    """Pool pair counts across documents, then compute P/R/F."""
    total = PairCounts()
    for c in counts:
        total = total + c
    return score_from_counts(total)


def b_cubed_doc(sys: Clustering, gold: Clustering) -> tuple[float, float]:
    """Per-mention overlap ratios averaged over the document's n mentions."""
    cells = _overlaps(sys, gold)
    n = len(sys.universe)
    if n == 0:
        raise ValueError("B-cubed is undefined for an empty mention universe")
    p_terms: list[float] = []
    r_terms: list[float] = []
    for s, g, overlap in cells:  # the same ratio for each mention of S∩G
        p_terms += [overlap / len(s)] * overlap
        r_terms += [overlap / len(g)] * overlap
    # fsum is exact, so the result depends only on the terms, not their order
    return math.fsum(p_terms) / n, math.fsum(r_terms) / n


def b_cubed_macro(doc_scores: Sequence[tuple[float, float]]) -> Score:
    """Average per-document P and R, then derive F from the averages."""
    if not doc_scores:
        raise ValueError("cannot macro-average zero documents")
    p = sum(s[0] for s in doc_scores) / len(doc_scores)
    r = sum(s[1] for s in doc_scores) / len(doc_scores)
    return Score.from_pr(p, r)
