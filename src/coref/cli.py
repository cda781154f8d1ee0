"""Command-line front end: resolve, score, and trace over JSON document files.

A document file holds one JSON object (or a list of them, or one per line)
with fields::

    {"id": "...", "sentences": ["(S ...)", ...],
     "annotations": [{"s": 0, "t": 1, "supersense": "noun.person", "ner": "PERSON"}],
     "gold_mentions": [{"s": 0, "start": 0, "end": 2}],
     "gold_clusters": [[0, 3], [1]]}

``gold_clusters`` indices refer to ``gold_mentions`` entries when those are
present, otherwise to extracted mentions in document order; ids not listed
stay singletons. Output is deterministic: same input and flags, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .cluster import Clustering, from_entities, transitive_closure
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon
from .mention import (Mention, MentionKind, TokenAnnotation, annotation_index,
                      attach_profiles, extract_mentions, map_gold_mentions)
from .resolve import Decision, ResolveConfig, Rule, resolve_document
from .score import (PairCounts, Score, b_cubed_doc, b_cubed_macro,
                    pairwise_counts, pairwise_micro, score_from_counts)
from .treebank import DocumentTree, PtbParseError, link_document, read_ptb

RESOURCES_ENV = "COREF_RESOURCES"


class DocumentError(Exception):
    """A single document failed; processing of other documents continues."""

    def __init__(self, doc_id: str, message: str):
        super().__init__(f"document {doc_id!r}: {message}")
        self.doc_id = doc_id


def _integer(value: object) -> int:
    """``value`` as an int, for the integer fields of a document.

    Accepts an integer, an integral float or a string ``int()`` reads.
    Raises ValueError for ``true``/``false``, a fractional number,
    ``Infinity`` and ``NaN``, which ``int()`` would truncate or fail on
    with another error.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


@dataclass
class DocumentInput:
    doc_id: str
    sentences: list[str]
    annotations: list[TokenAnnotation] = field(default_factory=list)
    gold_mentions: Optional[list[tuple[int, int, int]]] = None
    gold_clusters: Optional[list[list[int]]] = None

    @classmethod
    def from_dict(cls, data: dict) -> "DocumentInput":
        """Build from one decoded JSON document; schema errors raise DocumentError."""
        if not isinstance(data, dict):
            raise DocumentError("?", f"expected a JSON object, found {type(data).__name__}")
        doc_id = str(data.get("id", "?"))
        if "sentences" not in data:
            raise DocumentError(doc_id, "missing 'sentences' field")
        sentences = data["sentences"]
        if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
            raise DocumentError(doc_id, "'sentences' is not a list of strings")
        for key in ("annotations", "gold_mentions", "gold_clusters"):
            if data.get(key) is not None and not isinstance(data[key], list):
                raise DocumentError(doc_id, f"{key!r} is not a list")
        annotations = []
        for entry in data.get("annotations") or []:
            try:
                ann = TokenAnnotation(_integer(entry["s"]), _integer(entry["t"]),
                                      entry.get("supersense"), entry.get("ner"))
                if not all(isinstance(label, (str, type(None)))
                           for label in (ann.supersense, ann.ner)):
                    raise TypeError("supersense and ner must be strings")
                annotations.append(ann)
            except (KeyError, TypeError, ValueError) as err:
                raise DocumentError(doc_id, f"bad annotation {entry!r}: {err}") from None
        gold_mentions = None
        if data.get("gold_mentions") is not None:
            gold_mentions = []
            for entry in data["gold_mentions"]:
                try:
                    gold_mentions.append((_integer(entry["s"]), _integer(entry["start"]),
                                          _integer(entry["end"])))
                except (KeyError, TypeError, ValueError) as err:
                    raise DocumentError(doc_id, f"bad gold mention {entry!r}: {err}") from None
        gold_clusters = None
        if data.get("gold_clusters") is not None:
            try:
                if not all(isinstance(cluster, list) for cluster in data["gold_clusters"]):
                    raise TypeError("each cluster must be a list of mention ids")
                gold_clusters = [[_integer(mid) for mid in cluster]
                                 for cluster in data["gold_clusters"]]
            except (TypeError, ValueError) as err:
                raise DocumentError(doc_id, f"bad gold clusters: {err}") from None
        return cls(doc_id=doc_id, sentences=list(sentences), annotations=annotations,
                   gold_mentions=gold_mentions, gold_clusters=gold_clusters)


@dataclass
class PipelineResult:
    input: DocumentInput
    tree: DocumentTree
    mentions: list[Mention]
    decisions: list[Decision]
    clustering: Clustering


def run_pipeline(document: DocumentInput, cfg: Optional[ResolveConfig] = None,
                 lex: Optional[Lexicon] = None,
                 candidate_log: Optional[dict[int, frozenset[int]]] = None
                 ) -> PipelineResult:
    """Parse, link, find and type mentions, resolve, and cluster one document.

    Parse and annotation problems raise DocumentError carrying the document id.
    """
    cfg = cfg or ResolveConfig()
    lex = lex or default_lexicon()
    trees = []
    for i, sentence in enumerate(document.sentences):
        try:
            parsed = read_ptb(sentence)
        except PtbParseError as err:
            raise DocumentError(document.doc_id, f"sentence {i}: {err}") from err
        if len(parsed) != 1:
            raise DocumentError(document.doc_id,
                                f"sentence {i}: expected one tree, found {len(parsed)}")
        trees.append(parsed[0])
    doc = link_document(trees)
    for ann in document.annotations:
        if not 0 <= ann.sentence_index < len(doc.sentence_roots):
            raise DocumentError(document.doc_id, f"annotation names missing sentence "
                                                 f"{ann.sentence_index}")
        limit = doc.sentence_roots[ann.sentence_index].span[1]
        if not 0 <= ann.token_index < limit:
            raise DocumentError(document.doc_id, f"annotation names missing token "
                                                 f"{ann.token_index} in sentence {ann.sentence_index}")
    try:
        if document.gold_mentions is not None:
            mentions = map_gold_mentions(doc, document.gold_mentions)
        else:
            mentions = extract_mentions(doc)
    except ValueError as err:
        raise DocumentError(document.doc_id, str(err)) from err
    attach_profiles(mentions, annotation_index(document.annotations), lex,
                    use_word_lists=cfg.use_word_lists)
    decisions = resolve_document(doc, mentions, lex, cfg, candidate_log)
    clustering = transitive_closure(decisions, [m.mention_id for m in mentions])
    return PipelineResult(input=document, tree=doc, mentions=mentions,
                          decisions=decisions, clustering=clustering)


def gold_clustering(document: DocumentInput, mentions: Sequence[Mention]) -> Optional[Clustering]:
    """Gold partition over the same mention ids the pipeline used, or None."""
    if document.gold_clusters is None:
        return None
    universe = [m.mention_id for m in mentions]
    try:
        return from_entities(universe, document.gold_clusters)
    except ValueError as err:
        raise DocumentError(document.doc_id, f"bad gold clusters: {err}") from err


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
        for m in sorted(here, key=lambda m: (m.span[0], -m.span[1])):
            prefix[m.span[0]] += "["
        for m in sorted(here, key=lambda m: (-m.span[0], m.span[1])):
            suffix[m.span[1] - 1] += f"]_{clustering.label_of(m.mention_id)}"
        lines.append(" ".join(prefix[i] + tok + suffix[i]
                              for i, tok in enumerate(tokens)))
    return lines


# ---------------------------------------------------------------------------
# Trace report (decision breakdown)
# ---------------------------------------------------------------------------

@dataclass
class TraceReport:
    """Per-rule decision counts, plus correctness tallies when gold is known."""
    rule_counts: Counter = field(default_factory=Counter)
    rule_correct: Counter = field(default_factory=Counter)
    rule_incorrect: Counter = field(default_factory=Counter)
    pronoun_correct: Counter = field(default_factory=Counter)
    pronoun_incorrect: Counter = field(default_factory=Counter)
    has_gold: bool = False

    @property
    def total(self) -> int:
        return sum(self.rule_counts.values())

    def __add__(self, other: "TraceReport") -> "TraceReport":
        return TraceReport(
            rule_counts=self.rule_counts + other.rule_counts,
            rule_correct=self.rule_correct + other.rule_correct,
            rule_incorrect=self.rule_incorrect + other.rule_incorrect,
            pronoun_correct=self.pronoun_correct + other.pronoun_correct,
            pronoun_incorrect=self.pronoun_incorrect + other.pronoun_incorrect,
            has_gold=self.has_gold or other.has_gold,
        )

    def pronoun_rows(self, min_count: int = 1) -> list[tuple[int, int, float, str]]:
        """(correct, incorrect, accuracy, form) rows, least accurate first."""
        rows = []
        for form in set(self.pronoun_correct) | set(self.pronoun_incorrect):
            good = self.pronoun_correct[form]
            bad = self.pronoun_incorrect[form]
            if good + bad < min_count:
                continue
            rows.append((good, bad, good / (good + bad), form))
        rows.sort(key=lambda row: (row[2], row[3]))
        return rows

    def to_text(self, min_pronoun_count: int = 1) -> str:
        lines = ["rule\tcount" + ("\tcorrect\tincorrect" if self.has_gold else "")]
        for rule in Rule:
            row = f"{rule.value}\t{self.rule_counts[rule]}"
            if self.has_gold:
                row += f"\t{self.rule_correct[rule]}\t{self.rule_incorrect[rule]}"
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
    """Tally one document's decisions by rule.

    With gold, a decision is correct iff its mention and antecedent are
    gold-coreferent; a NULL decision is correct iff no previous mention is
    gold-coreferent with the mention.
    """
    report = TraceReport(has_gold=gold is not None)
    report.rule_counts.update(decision.rule for decision in decisions)
    if gold is None:
        return report
    by_id = {m.mention_id: m for m in mentions}
    position = {m.mention_id: i for i, m in enumerate(mentions)}
    opener: dict[int, int] = {}  # gold label -> the entity's first mention
    right, wrong, right_forms, wrong_forms = [], [], [], []
    for decision in decisions:
        mid = decision.mention_id
        if decision.antecedent is not None:
            correct = gold.same_entity(mid, decision.antecedent)
        else:  # correct iff the mention opens its gold entity
            label = gold.label_of(mid)
            first = opener.get(label)
            if first is None:
                first = opener[label] = min(gold.entity_of(mid), key=position.__getitem__)
            correct = first == mid
        (right if correct else wrong).append(decision.rule)
        mention = by_id[mid]
        if mention.kind is MentionKind.PRONOUN:
            (right_forms if correct else wrong_forms).append(mention.head_word.casefold())
    report.rule_correct.update(right)
    report.rule_incorrect.update(wrong)
    report.pronoun_correct.update(right_forms)
    report.pronoun_incorrect.update(wrong_forms)
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


def _format_score_text(report: dict) -> str:
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


# ---------------------------------------------------------------------------
# Argument parsing and input loading
# ---------------------------------------------------------------------------

_ABLATION_FLAGS = (
    # (CLI flag, config field, value when the flag is given)
    ("--remove-word-lists", "use_word_lists", False),
    ("--remove-gender-typecheck", "check_gender", False),
    ("--remove-person-typecheck", "check_personhood", False),
    ("--remove-number-typecheck", "check_number", False),
    ("--never-resolve-pronouns", "resolve_pronouns", False),
    ("--never-resolve-2nd-person", "resolve_second_person", False),
    ("--never-match-pro-pro", "allow_pro_pro_match", False),
    ("--strict-typechecking", "strict_typecheck", True),
    ("--check-gram-number", "check_grammatical_person", True),
    ("--no-role-appositive", "enable_role_appositive", False),
    ("--pred-nom-exclude-modals", "pred_nom_exclude_modals", True),
)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="document JSON file, JSON-lines file, or directory")
    parser.add_argument("--resources", metavar="DIR", default=None,
                        help=f"lexicon resource directory (or ${RESOURCES_ENV})")
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON file with ResolveConfig field values")
    for flag, dest, value in _ABLATION_FLAGS:
        parser.add_argument(flag, dest=dest, action="store_const", const=value,
                            default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coref",
        description="Rule-based noun phrase coreference over constituency parses.")
    sub = parser.add_subparsers(dest="command", required=True)

    resolve = sub.add_parser("resolve", help="resolve documents, print mention/entity TSV")
    _add_common_arguments(resolve)
    resolve.add_argument("--render", action="store_true",
                         help="also print bracketed text with entity indices")

    score = sub.add_parser("score", help="score resolved documents against gold clusters")
    _add_common_arguments(score)
    score.add_argument("--gold", action="store_true",
                       help="evaluate against gold clusterings carried in the inputs")
    score.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable JSON report")

    trace = sub.add_parser("trace", help="report antecedent decision breakdown")
    _add_common_arguments(trace)
    trace.add_argument("--gold", action="store_true",
                       help="judge decisions against gold clusterings in the inputs")
    trace.add_argument("--min-pronoun-count", type=int, default=1, metavar="N",
                       help="only list pronoun forms with at least N decisions")
    return parser


def build_config(args: argparse.Namespace) -> ResolveConfig:
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            values = json.load(handle)
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: config file does not hold a JSON object")
    for _, dest, _ in _ABLATION_FLAGS:
        override = getattr(args, dest, None)
        if override is not None:
            values[dest] = override
    return ResolveConfig.from_dict(values)


def _entry(data: object) -> DocumentInput | DocumentError:
    try:
        return DocumentInput.from_dict(data)
    except DocumentError as err:
        return err


def _load_file(path: Path) -> list[DocumentInput | Exception]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        return [ValueError(f"{path}: not UTF-8: {err}")]
    except OSError as err:  # a directory named *.json, no read permission, ...
        return [ValueError(f"{path}: cannot read: {err.strerror or err}")]
    # json raises RecursionError on nesting deeper than the interpreter's
    # recursion limit; such a file or line is as unreadable as invalid JSON.
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as whole:
        entries: list[DocumentInput | Exception] = []
        decoded = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as err:
                entries.append(ValueError(f"{path}: line {lineno}: not valid JSON: {err}"))
                continue
            decoded = True
            entries.append(_entry(value))
        if not entries:
            raise ValueError(f"{path}: no documents found")
        if not decoded:  # not JSON lines either: one error for the file
            return [ValueError(f"{path}: not valid JSON: {whole}")]
        return entries
    return [_entry(entry) for entry in (data if isinstance(data, list) else [data])]


def load_documents(inputs: Sequence[str]) -> list[DocumentInput | Exception]:
    """Every document in ``inputs``, in order.

    An entry that is not a valid document (a schema error, or a JSON-lines
    line that is not JSON), and a file that cannot be read or decoded, is
    returned in its place as the error that describes it, so the caller can
    report it and go on. A missing path, a directory without ``.json`` files
    and a blank file raise ValueError.
    """
    docs: list[DocumentInput | Exception] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            files = sorted(path.glob("*.json"))
            if not files:
                raise ValueError(f"{path}: directory contains no .json files")
            for file in files:
                docs.extend(_load_file(file))
        elif path.is_file():
            docs.extend(_load_file(path))
        else:
            raise ValueError(f"{item}: no such file or directory")
    return docs


# ---------------------------------------------------------------------------
# Running a subcommand
# ---------------------------------------------------------------------------

def _run_command(args: argparse.Namespace) -> int:
    """Run ``args.command`` over every input document, then print its report.

    A document that fails, or an input entry that is not a valid document,
    is reported on stderr and skipped; the exit status is then 1.
    """
    if args.command == "score" and not args.gold:
        print("error: score requires --gold (gold clusters read from the inputs)",
              file=sys.stderr)
        return 2
    directory = args.resources or os.environ.get(RESOURCES_ENV)
    lex = load_lexicon(directory) if directory else default_lexicon()
    cfg = build_config(args)
    use_gold = args.command != "resolve" and args.gold
    failed = False
    doc_scores = []
    trace_total = TraceReport(has_gold=use_gold)
    for document in load_documents(args.inputs):
        try:
            if not isinstance(document, DocumentInput):
                raise document
            result = run_pipeline(document, cfg, lex)
            gold = gold_clustering(document, result.mentions) if use_gold else None
            if use_gold and gold is None:
                raise DocumentError(document.doc_id, "no gold clusters in input")
            if args.command == "score":
                doc_scores.append((document.doc_id, pairwise_counts(result.clustering, gold),
                                   b_cubed_doc(result.clustering, gold)
                                   if result.mentions else None))
            elif args.command == "trace":
                trace_total += trace_report(result.decisions, result.mentions, gold)
        except (DocumentError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            failed = True
            continue
        if args.command == "resolve":
            for m in result.mentions:
                label = result.clustering.label_of(m.mention_id)
                print(f"{document.doc_id}\t{m.sentence_index}\t{m.span[0]}"
                      f"\t{m.span[1]}\t{label}")
            if args.render:
                for line in render_brackets(result.tree, result.mentions,
                                            result.clustering):
                    print(f"# {line}")
    if args.command == "score":
        report = score_corpus(doc_scores)
        print(json.dumps(report, sort_keys=True) if args.as_json
              else _format_score_text(report))
    elif args.command == "trace":
        print(trace_total.to_text(args.min_pronoun_count))
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (DocumentError, LexiconError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
