"""Mention identification and gender/personhood/number inference.

A mention is the largest noun phrase for its head word (Collins head rules);
possessive and personal pronoun tags also introduce mentions when no NP is
headed by them, so determiners like "its" are resolved like other pronouns.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .lexicon import (Gender, Lexicon, Number, Personhood, PronounEntry,
                      pronoun_lookup)
from .record import Record
from .treebank import DocumentTree, SyntaxNode

PRONOUN_TAGS = frozenset({"PRP", "PRP$"})
PROPER_TAGS = frozenset({"NNP", "NNPS"})
#: Head tag -> number for non-pronoun mentions; other tags give unknown.
_TAG_NUMBER = {"NN": Number.SINGULAR, "NNP": Number.SINGULAR,
               "NNS": Number.PLURAL, "NNPS": Number.PLURAL}

#: Head annotations that positively mark a person.
_PERSON_SUPERSENSE = "noun.person"
_PERSON_NER = frozenset({"person", "per"})
#: NE labels carrying no usable type evidence.
_UNINFORMATIVE_NER = frozenset({"", "o", "misc"})


class MentionKind(enum.Enum):
    PRONOUN = "pronoun"
    NOMINAL = "nominal"
    PROPER = "proper"


# Members read per mention and per token, bound once; see the note on
# ``Gender`` in lexicon.py.
_PRONOUN, _NOMINAL, _PROPER = MentionKind.PRONOUN, MentionKind.NOMINAL, MentionKind.PROPER
_PERSON, _NOT_PERSON = Personhood.PERSON, Personhood.NOT_PERSON
_UNKNOWN_GENDER, _UNKNOWN_PERSONHOOD, _UNKNOWN_NUMBER = (
    Gender.UNKNOWN, Personhood.UNKNOWN, Number.UNKNOWN)


class TypeProfile(NamedTuple):
    gender: Gender
    personhood: Personhood
    number: Number


class TokenAnnotation(NamedTuple):
    """Optional per-token labels produced upstream (supersense tagger / NER)."""
    sentence_index: int
    token_index: int
    supersense: Optional[str] = None
    ner: Optional[str] = None


AnnotationIndex = Mapping[tuple[int, int], TokenAnnotation]


def annotation_index(annotations: Iterable[TokenAnnotation]) -> dict[tuple[int, int], TokenAnnotation]:
    return {(a.sentence_index, a.token_index): a for a in annotations}


class Mention(Record):
    """A resolvable noun phrase occurrence.

    ``node`` is the highest NP for the head word (or the pronoun leaf itself
    for bare possessives); ``profile`` and ``pronoun`` are attached by
    ``attach_profiles`` once a lexicon is available.

    ``head`` is ``node``'s head leaf and ``kind`` follows the head's tag, so
    mentions at one node agree on both. ``sentence_index``, ``span``,
    ``head_word`` and ``head_tag`` are copied from ``node`` and ``head`` when
    it is made. So a mention made before ``link_document`` re-bases its
    tree's sentence indices keeps the old one; the package and the benchmark
    link first.
    """

    __slots__ = ("mention_id", "node", "head", "kind", "profile", "pronoun",
                 "sentence_index", "span", "head_word", "head_tag")

    def __init__(self, mention_id: int, node: SyntaxNode):
        self.mention_id = mention_id
        self.node = node
        self.head = head = node._head or node
        tag = head.label
        self.kind = (_PRONOUN if tag in PRONOUN_TAGS
                     else _PROPER if tag in PROPER_TAGS else _NOMINAL)
        self.profile: Optional[TypeProfile] = None
        self.pronoun: Optional[PronounEntry] = None
        self.sentence_index = node.sentence_index
        self.span = node.span
        self.head_word = head.token
        self.head_tag = tag

    def __repr__(self) -> str:
        return (f"<Mention {self.mention_id} {self.kind.value} "
                f"{self.head_word!r} s{self.sentence_index}:{self.span[0]}-{self.span[1]}>")


def document_order_key(m: Mention) -> tuple[int, int, int]:
    """Sort key for document order: outer mentions precede the NPs they contain."""
    start, end = m.span
    return m.sentence_index, start, -end


def extract_mentions(doc: DocumentTree) -> list[Mention]:
    """All NPs that are the largest possible for their head word, and the
    PRP/PRP$ leaves that head no NP, numbered in document order.

    One preorder pass makes them in that order, with no sort. NPs sharing a
    head leaf lie on its root path, and a pronoun leaf's heading NP is its
    ancestor, so the first node seen for a head is the highest. No two
    mentions share (sentence, start, -end), since equal spans mean a unary
    chain with one head, so preorder is ``document_order_key`` order.
    """
    by_head: dict[SyntaxNode, Mention] = {}
    for node in doc.nodes:
        label = node.label
        if label == "NP":
            leaf = node._head or node
        elif label in PRONOUN_TAGS and not node.children:
            leaf = node
        else:
            continue
        if leaf not in by_head:
            by_head[leaf] = Mention(len(by_head), node)
    return list(by_head.values())


def map_gold_mentions(doc: DocumentTree,
                      spans: Sequence[tuple[int, int, int]]) -> list[Mention]:
    """Map externally given (sentence, start, end) spans onto the parse.

    Each span becomes one mention whose node is the smallest covering NP (or
    pronoun node; a pronoun node yields to the deepest NP of its own span);
    when no nominal node covers the span, the smallest covering node of any
    label is used. Mention ids keep the input span order; the returned list
    is in document order.

    Every node covering [start, end) is an ancestor-or-self of token
    ``start``'s leaf, so each span climbs from that leaf: first to the
    smallest node that reaches ``end``, then on to the nearest nominal node.
    A span costs its height above its first token, plus one pass over the
    document's nodes to list its leaves.
    """
    roots = doc.sentence_roots
    if not roots:
        if spans:
            raise ValueError("gold mentions supplied for an empty document")
        return []
    leaves = [node for node in doc.nodes if not node.children]
    firsts = list(accumulate(map(len, doc.key), initial=0))  # sentence -> its first leaf
    mentions = []
    for gold_id, (s, start, end) in enumerate(spans):
        if not 0 <= s < len(roots):
            raise ValueError(f"gold mention {gold_id}: no sentence {s}")
        first = firsts[s]
        if not (0 <= start < end <= firsts[s + 1] - first):
            raise ValueError(f"gold mention {gold_id}: span [{start},{end}) out of range")
        node = leaves[first + start]
        while node.span[1] < end:
            node = node._up()
        covering = node
        label = node.label
        while label != "NP" and label not in PRONOUN_TAGS:
            up = node._up
            if up is None:  # no nominal node covers the span
                node = covering
                break
            node = up()
            label = node.label
        else:  # a pronoun node yields to the deepest NP of its own span
            span, above = node.span, node
            while label != "NP" and above._up is not None:
                above = above._up()
                if above.span != span:
                    break
                label = above.label
                if label == "NP":
                    node = above
        mentions.append(Mention(gold_id, node))
    mentions.sort(key=document_order_key)
    return mentions


class _WordCues:
    """Where the gendered titles, unambiguous first names and titles fall in
    one token list, so that the first of each inside a span is one bisect.

    Each token costs a casefold and two dict lookups: ``Lexicon.titles``,
    keyed as the loader's ``_normalize_title`` keys them (casefold, then
    strip trailing dots), and ``Lexicon.first_names``.
    """

    __slots__ = ("titled_at", "gendered_at", "gendered_as", "named_at", "named_as")

    def __init__(self, tokens: Sequence[str], lex: Lexicon):
        titles, first_names = lex.titles.get, lex.first_names.get
        self.titled_at: list[int] = []
        self.gendered_at: list[int] = []
        self.gendered_as: list[Gender] = []
        self.named_at: list[int] = []
        self.named_as: list[Gender] = []
        for i, token in enumerate(tokens):
            folded = token.casefold()
            title = titles(folded.rstrip("."))
            if title is not None:
                self.titled_at.append(i)
                if title is not _UNKNOWN_GENDER:
                    self.gendered_at.append(i)
                    self.gendered_as.append(title)
            gender = first_names(folded)
            if gender is not None:
                self.named_at.append(i)
                self.named_as.append(gender)


def _annotation_personhood(ann: TokenAnnotation) -> Personhood:
    if ann.supersense:
        if ann.supersense.casefold() == _PERSON_SUPERSENSE:
            return _PERSON
        return _NOT_PERSON
    if ann.ner:
        label = ann.ner.casefold()
        if label in _PERSON_NER:
            return _PERSON
        if label not in _UNINFORMATIVE_NER:
            return _NOT_PERSON
    return _UNKNOWN_PERSONHOOD


#: Every profile there is, keyed by its fields, so that mentions share them.
_PROFILES = {(g, p, n): TypeProfile(g, p, n)
             for g in Gender for p in Personhood for n in Number}


def attach_profiles(mentions: Iterable[Mention], annotations: AnnotationIndex,
                    lex: Lexicon, *, use_word_lists: bool = True) -> None:
    """Fill ``profile`` (gender, personhood and number) and ``pronoun`` on
    every mention in place.

    A pronoun takes all three from the pronoun table, or unknown when its
    word is not there. Any other mention takes the gender of its first
    gendered title, else of its first word in ``Lexicon.first_names``, else
    unknown (always unknown without word lists). It is a person when its
    head is annotated as one, its gender is known or a title occurs in it,
    and not a person only from an explicit non-person label. NN/NNP heads
    are singular, NNS/NNPS plural, other heads unknown.

    The word-list cues of a sentence are found once, in one pass over its
    tokens, so a mention costs O(log n) in the length of its sentence rather
    than O(its own length). They are read from the tokens of a
    ``DocumentTree``: with word lists on, a non-pronoun mention whose node
    belongs to no document raises ValueError.
    """
    doc: Optional[list[list[str]]] = []  # no node's doc: the first nominal switches to its own
    cues: dict[int, _WordCues] = {}
    for m in mentions:
        if m.kind is _PRONOUN:
            m.pronoun = entry = pronoun_lookup(m.head_word, lex)
            m.profile = (_PROFILES[_UNKNOWN_GENDER, _UNKNOWN_PERSONHOOD, _UNKNOWN_NUMBER]
                         if entry is None
                         else _PROFILES[entry.gender, entry.personhood, entry.number])
            continue
        gender, titled = _UNKNOWN_GENDER, False
        if use_word_lists:
            if m.node.doc is not doc:
                doc, cues = m.node.doc, {}
                if doc is None:
                    raise ValueError(f"{m!r} is in no document: link its tree first")
            s = m.sentence_index
            sentence = cues.get(s)
            if sentence is None:
                sentence = cues[s] = _WordCues(doc[s], lex)
            # the first gendered title in the span, else the first name;
            # a title is only looked for when neither gives a gender
            start, end = m.span
            at = sentence.gendered_at
            k = bisect_left(at, start)
            if k < len(at) and at[k] < end:
                gender = sentence.gendered_as[k]
            else:
                at = sentence.named_at
                k = bisect_left(at, start)
                if k < len(at) and at[k] < end:
                    gender = sentence.named_as[k]
                else:
                    at = sentence.titled_at
                    k = bisect_left(at, start)
                    titled = k < len(at) and at[k] < end
        if gender is not _UNKNOWN_GENDER or titled:
            personhood = _PERSON
        else:
            ann = annotations.get((m.sentence_index, m.head.span[0]))
            personhood = _UNKNOWN_PERSONHOOD if ann is None else _annotation_personhood(ann)
        m.profile = _PROFILES[gender, personhood, _TAG_NUMBER.get(m.head_tag, _UNKNOWN_NUMBER)]
