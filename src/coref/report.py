"""What the CLI reports: bracketed text, the decision breakdown by rule and
pronoun form, and corpus scores as a JSON-ready dict or as text."""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .cluster import Clustering
from .mention import Mention, MentionKind
from .record import Record
from .resolve import Decision, Rule
from .score import (PairCounts, Score, b_cubed_macro, pairwise_micro,
                    score_from_counts)
from .treebank import DocumentTree

# Read per decision, bound once; see the note on ``Gender`` in lexicon.py.
_PRONOUN = MentionKind.PRONOUN


def render_brackets(doc: DocumentTree, mentions: Sequence[Mention],
                    clustering: Clustering) -> list[str]:
    """Original tokens with [ ... ]_k mention brackets, one line per sentence.

    Nested mentions open outermost-first and close innermost-first, as in
    "[[its]_2 top-selling brand]_1".
    """
    per_sentence: dict[int, list[Mention]] = {}
    for m in mentions:
        per_sentence.setdefault(m.sentence_index, []).append(m)
    lines = []
    for s, root in enumerate(doc.sentence_roots):
        tokens = root.tokens()
        prefix = [""] * len(tokens)
        suffix = [""] * len(tokens)
        here = per_sentence.get(s, [])
        for m in here:
            prefix[m.span[0]] += "["
        for m in sorted(here, key=lambda m: (-m.span[0], m.span[1])):
            suffix[m.span[1] - 1] += f"]_{clustering.label_of(m.mention_id)}"
        lines.append(" ".join(prefix[i] + tok + suffix[i]
                              for i, tok in enumerate(tokens)))
    return lines


# ---------------------------------------------------------------------------
# Trace report (decision breakdown)
# ---------------------------------------------------------------------------

class TraceReport(Record):
    """Decision tallies: ``rules`` counts (rule, verdict) pairs and
    ``pronouns`` counts (casefolded pronoun form, verdict) pairs. A verdict
    is True or False when gold is known and None when it is not; pronoun
    forms are tallied only with gold.

    Each tally defaults to a new empty Counter for each report.
    """

    __slots__ = ("rules", "pronouns", "has_gold")

    def __init__(self, rules: Optional[Counter] = None,
                 pronouns: Optional[Counter] = None, has_gold: bool = False):
        self.rules = Counter() if rules is None else rules
        self.pronouns = Counter() if pronouns is None else pronouns
        self.has_gold = has_gold

    @property
    def total(self) -> int:
        return sum(self.rules.values())

    def __add__(self, other: "TraceReport") -> "TraceReport":
        return TraceReport(self.rules + other.rules, self.pronouns + other.pronouns,
                           self.has_gold or other.has_gold)

    def pronoun_rows(self, min_count: int = 1) -> list[tuple[int, int, float, str]]:
        """(correct, incorrect, accuracy, form) rows, least accurate first."""
        rows = []
        for form in {form for form, _ in self.pronouns}:
            good, bad = self.pronouns[form, True], self.pronouns[form, False]
            if good + bad < min_count:
                continue
            rows.append((good, bad, good / (good + bad), form))
        rows.sort(key=lambda row: (row[2], row[3]))
        return rows

    def to_text(self, min_pronoun_count: int = 1) -> str:
        lines = ["rule\tcount" + ("\tcorrect\tincorrect" if self.has_gold else "")]
        for rule in Rule:
            good, bad = self.rules[rule, True], self.rules[rule, False]
            row = f"{rule.value}\t{good + bad + self.rules[rule, None]}"
            if self.has_gold:
                row += f"\t{good}\t{bad}"
            lines.append(row)
        lines.append(f"total\t{self.total}")
        if self.has_gold:
            lines.append("")
            lines.append(f"pronoun\tcorrect\tincorrect\taccuracy"
                         f"\t(min count {min_pronoun_count})")
            for good, bad, acc, form in self.pronoun_rows(min_pronoun_count):
                lines.append(f"{form}\t{good}\t{bad}\t{acc:.2f}")
        return "\n".join(lines)


def trace_report(decisions: Sequence[Decision], mentions: Sequence[Mention],
                 gold: Optional[Clustering] = None) -> TraceReport:
    """Tally one document's decisions by rule, and with gold by pronoun form.

    With gold, a decision is correct iff its mention and antecedent are
    gold-coreferent; a NULL decision is correct iff no previous mention is
    gold-coreferent with the mention.
    """
    report = TraceReport(has_gold=gold is not None)
    if gold is None:
        report.rules.update((decision.rule, None) for decision in decisions)
        return report
    label_of = gold.label_of
    by_id = {m.mention_id: m for m in mentions}
    opener: dict[int, int] = {}  # gold label -> the entity's first mention
    for m in mentions:
        opener.setdefault(label_of(m.mention_id), m.mention_id)
    rules, forms = [], []
    for decision in decisions:
        mid = decision.mention_id
        if decision.antecedent is not None:
            correct = label_of(mid) == label_of(decision.antecedent)
        else:  # correct iff the mention opens its gold entity
            correct = opener[label_of(mid)] == mid
        rules.append((decision.rule, correct))
        mention = by_id[mid]
        if mention.kind is _PRONOUN:
            forms.append((mention.head_word.casefold(), correct))
    report.rules.update(rules)
    report.pronouns.update(forms)
    return report


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

def score_corpus(doc_scores: Sequence[tuple[str, PairCounts, Optional[tuple[float, float]]]]) -> dict:
    """Micro-averaged pairwise scores and macro-averaged B-cubed.

    ``doc_scores`` holds (doc_id, pair counts, per-document B-cubed P/R);
    the B-cubed entry is None for documents without mentions, which are
    excluded from the macro average. Returns the machine-readable report.
    """
    pair = pairwise_micro([counts for _, counts, _ in doc_scores])
    b3_pairs = [b3 for _, _, b3 in doc_scores if b3 is not None]
    if b3_pairs:
        b3 = b_cubed_macro(b3_pairs)
    else:
        b3 = Score(1.0, 1.0, 1.0)  # vacuous: no scorable mentions anywhere
    per_doc = []
    for doc_id, counts, doc_b3 in doc_scores:
        entry = {"id": doc_id, "pairwise": _prf(score_from_counts(counts))}
        if doc_b3 is not None:
            entry["b3"] = _prf(Score.from_pr(*doc_b3))
        per_doc.append(entry)
    return {"pairwise": _prf(pair), "b3": _prf(b3), "per_doc": per_doc}


def _prf(score: Score) -> dict:
    return {"p": score.precision, "r": score.recall, "f": score.f1}


def format_score_text(report: dict) -> str:
    """The text form of a ``score_corpus`` report: one row per document,
    then the corpus pairwise and B-cubed lines."""
    lines = ["# doc\tpair_p\tpair_r\tpair_f\tb3_p\tb3_r\tb3_f"]
    for entry in report["per_doc"]:
        pair = entry["pairwise"]
        b3 = entry.get("b3")
        b3_text = (f"{b3['p']:.4f}\t{b3['r']:.4f}\t{b3['f']:.4f}"
                   if b3 else "-\t-\t-")
        lines.append(f"{entry['id']}\t{pair['p']:.4f}\t{pair['r']:.4f}"
                     f"\t{pair['f']:.4f}\t{b3_text}")
    pair, b3 = report["pairwise"], report["b3"]
    lines.append(f"pairwise (micro)\tP={pair['p']:.4f}\tR={pair['r']:.4f}"
                 f"\tF={pair['f']:.4f}")
    lines.append(f"b3 (macro)\tP={b3['p']:.4f}\tR={b3['r']:.4f}\tF={b3['f']:.4f}")
    return "\n".join(lines)
