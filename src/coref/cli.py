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
from pathlib import Path
from typing import Optional, Sequence

from .lexicon import LexiconError, default_lexicon, load_lexicon
# Callers also import the pipeline and report names from here, so this
# module keeps them all.
from .pipeline import DocumentError, DocumentInput, gold_clustering, run_pipeline
from .report import (TraceReport, format_score_text, render_brackets,
                     score_corpus, trace_report)
from .resolve import ResolveConfig
from .score import b_cubed_doc, pairwise_counts

RESOURCES_ENV = "COREF_RESOURCES"


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
    """The config the ``--config`` file and the ablation flags give; flags
    win. A bad config file raises ValueError naming the file."""
    overrides = {dest: getattr(args, dest) for _, dest, _ in _ABLATION_FLAGS
                 if getattr(args, dest, None) is not None}
    if not args.config:
        return ResolveConfig.from_dict(overrides)
    try:
        with open(args.config, encoding="utf-8") as handle:
            values = json.load(handle)
        if not isinstance(values, dict):
            raise ValueError("config file does not hold a JSON object")
        return ResolveConfig.from_dict({**values, **overrides})
    # not UTF-8, not JSON, not a config, or nested deeper than the
    # interpreter's recursion limit
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{args.config}: {err}") from None


def _entry(data: object) -> DocumentInput | DocumentError:
    try:
        return DocumentInput.from_dict(data)
    except DocumentError as err:
        # Returned, not raised: its traceback reaches the caller's frame and
        # the list that will hold it, and its suppressed context has a
        # traceback of its own, so both would make a reference cycle.
        err.__traceback__ = err.__context__ = None
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
    report it and go on. Any other path that is not a directory (a named
    pipe, ``/dev/stdin``) is read as one file. A missing path, a directory
    without ``.json`` files and a blank file raise ValueError.
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
        elif path.exists():
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
              else format_score_text(report))
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
