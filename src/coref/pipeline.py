"""One document through the whole pipeline.

``DocumentInput`` is a decoded document (see ``coref.cli`` for the JSON
schema it is read from), ``run_pipeline`` reads its linked tree, finds and
types its mentions, resolves and clusters them, and ``gold_clustering``
builds its gold partition over the same mention ids.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cluster import Clustering, from_entities, transitive_closure
from .lexicon import Lexicon, default_lexicon
from .mention import (Mention, TokenAnnotation, annotation_index,
                      attach_profiles, extract_mentions, map_gold_mentions)
from .record import Record
from .resolve import Decision, ResolveConfig, resolve_document
from .treebank import DocumentTree, read_document


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
    if type(value) is int:  # what JSON integers decode to; not a bool
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


#: A tab and what ``str.splitlines`` breaks on: in an id they split its rows.
_ROW_BREAKS = frozenset("\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")


class DocumentInput(Record):
    """One document: its sentence parses, and optional token annotations,
    gold mention spans (sentence, start, end) and gold clusters.

    ``annotations`` defaults to a new empty list for each document.
    """

    __slots__ = ("doc_id", "sentences", "annotations", "gold_mentions", "gold_clusters")

    def __init__(self, doc_id: str, sentences: list[str],
                 annotations: Optional[list[TokenAnnotation]] = None,
                 gold_mentions: Optional[list[tuple[int, int, int]]] = None,
                 gold_clusters: Optional[list[list[int]]] = None):
        self.doc_id = doc_id
        self.sentences = sentences
        self.annotations = [] if annotations is None else annotations
        self.gold_mentions = gold_mentions
        self.gold_clusters = gold_clusters

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
        # JSON can hold a lone surrogate ("\ud800"), which no output can
        # encode as UTF-8; the id and tokens are printed, so reject it here.
        try:
            doc_id.encode()
            for sentence in sentences:
                sentence.encode()
        except UnicodeEncodeError as err:
            raise DocumentError(doc_id, f"not encodable as UTF-8: {err}") from None
        if not _ROW_BREAKS.isdisjoint(doc_id):
            raise DocumentError(doc_id, "id holds a tab or a line break")
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


class PipelineResult(Record):
    """What ``run_pipeline`` made of one document."""

    __slots__ = ("input", "tree", "mentions", "decisions", "clustering")

    def __init__(self, input: DocumentInput, tree: DocumentTree,
                 mentions: list[Mention], decisions: list[Decision],
                 clustering: Clustering):
        self.input = input
        self.tree = tree
        self.mentions = mentions
        self.decisions = decisions
        self.clustering = clustering


def run_pipeline(document: DocumentInput, cfg: Optional[ResolveConfig] = None,
                 lex: Optional[Lexicon] = None) -> PipelineResult:
    """Read the linked tree, find and type mentions, resolve, and cluster one
    document.

    Parse and annotation problems raise DocumentError carrying the document id.
    """
    cfg = cfg or ResolveConfig()
    lex = lex or default_lexicon()
    try:
        doc = read_document(document.sentences)
    except ValueError as err:
        raise DocumentError(document.doc_id, str(err)) from err
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
    decisions = resolve_document(doc, mentions, lex, cfg)
    clustering = transitive_closure(decisions, [m.mention_id for m in mentions])
    return PipelineResult(input=document, tree=doc, mentions=mentions,
                          decisions=decisions, clustering=clustering)


def gold_clustering(document: DocumentInput, mentions: Sequence[Mention]) -> Clustering:
    """Gold partition over the same mention ids the pipeline used.

    A document without gold clusters, or whose clusters do not partition its
    mentions, raises DocumentError.
    """
    if document.gold_clusters is None:
        raise DocumentError(document.doc_id, "no gold clusters in input")
    universe = [m.mention_id for m in mentions]
    try:
        return from_entities(universe, document.gold_clusters)
    except ValueError as err:
        raise DocumentError(document.doc_id, f"bad gold clusters: {err}") from err
