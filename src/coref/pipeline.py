"""One document through the whole pipeline.

``DocumentInput`` is a decoded document (see ``coref.cli`` for the JSON
schema it is read from), ``run_pipeline`` reads its document tree, finds and
types its mentions, resolves and clusters them, and ``gold_clustering``
builds its gold partition over the same mention ids.
"""

from __future__ import annotations

import gc
from typing import Optional, Sequence

from .cluster import Clustering
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
        # Each field is read, then checked, before the next is read, so an
        # entry's first bad field is the one reported; ``type(v) is int``
        # passes what JSON integers decode to without a call to ``_integer``.
        annotations = []
        for entry in data.get("annotations") or []:
            try:
                s = entry["s"]
                s = s if type(s) is int else _integer(s)
                t = entry["t"]
                t = t if type(t) is int else _integer(t)
                sup, ner = entry.get("supersense"), entry.get("ner")
                if not ((sup is None or isinstance(sup, str))
                        and (ner is None or isinstance(ner, str))):
                    raise TypeError("supersense and ner must be strings")
                annotations.append(tuple.__new__(TokenAnnotation, (s, t, sup, ner)))
            except (KeyError, TypeError, ValueError) as err:
                raise DocumentError(doc_id, f"bad annotation {entry!r}: {err}") from None
        gold_mentions = None
        if data.get("gold_mentions") is not None:
            gold_mentions = []
            for entry in data["gold_mentions"]:
                try:
                    s = entry["s"]
                    s = s if type(s) is int else _integer(s)
                    start = entry["start"]
                    start = start if type(start) is int else _integer(start)
                    end = entry["end"]
                    end = end if type(end) is int else _integer(end)
                    gold_mentions.append((s, start, end))
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
    """Read the document tree, find and type mentions, resolve, and cluster one
    document.

    Every antecedent the resolver picks is an earlier mention, so the
    decisions are grouped in one forward pass (``Clustering.from_decisions``),
    not by the general ``transitive_closure``.

    Any ValueError a stage raises (a bad parse or annotation, say) comes
    out as a DocumentError carrying the document id, chained from it.

    The cyclic garbage collector is paused while the document runs: if it
    is on, it is turned off here and back on when the run ends, by a return
    or an exception; if the caller had turned it off, it stays off. This is
    safe because the pipeline makes no reference cycle (a node reaches its
    parent through a weak reference), so reference counting frees all it
    makes, and the collector would only walk the document's live nodes again
    and again; a test in ``tests/test_cli.py`` pins that no golden corpus
    leaves cyclic garbage. Gold scoring and the CLI's printing run outside
    the pause. The collector's state is process-wide, so another thread's
    collections wait until the document ends.
    """
    cfg = cfg or ResolveConfig()
    lex = lex or default_lexicon()
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        doc = read_document(document.sentences)
        for ann in document.annotations:
            if not 0 <= ann.sentence_index < len(doc.sentence_roots):
                raise ValueError(f"annotation names missing sentence {ann.sentence_index}")
            limit = doc.sentence_roots[ann.sentence_index].span[1]
            if not 0 <= ann.token_index < limit:
                raise ValueError(f"annotation names missing token {ann.token_index} "
                                 f"in sentence {ann.sentence_index}")
        if document.gold_mentions is not None:
            mentions = map_gold_mentions(doc, document.gold_mentions)
        else:
            mentions = extract_mentions(doc)
        attach_profiles(mentions, annotation_index(document.annotations), lex,
                        use_word_lists=cfg.use_word_lists)
        decisions = resolve_document(doc, mentions, lex, cfg)
        clustering = Clustering.from_decisions(decisions,
                                               [m.mention_id for m in mentions])
        return PipelineResult(input=document, tree=doc, mentions=mentions,
                              decisions=decisions, clustering=clustering)
    except ValueError as err:
        raise DocumentError(document.doc_id, str(err)) from err
    finally:
        if paused:
            gc.enable()


def gold_clustering(document: DocumentInput, mentions: Sequence[Mention]) -> Clustering:
    """Gold partition over the same mention ids the pipeline used.

    A mention no gold cluster lists is an entity of its own. A document
    without gold clusters, or whose clusters do not fit its mentions,
    raises DocumentError.
    """
    if document.gold_clusters is None:
        raise DocumentError(document.doc_id, "no gold clusters in input")
    universe = [m.mention_id for m in mentions]
    try:
        return Clustering(universe, document.gold_clusters)
    except ValueError as err:
        raise DocumentError(document.doc_id, f"bad gold clusters: {err}") from err
