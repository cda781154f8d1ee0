"""Mention identification and gender/personhood/number inference.

A mention is the largest noun phrase for its head word (Collins head rules);
possessive and personal pronoun tags also introduce mentions when no NP is
headed by them, so determiners like "its" are resolved like other pronouns.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .lexicon import (Gender, Lexicon, Number, Personhood, PronounEntry,
                      pronoun_lookup)
from .treebank import DOCLINK, DocumentTree, SyntaxNode, head_leaf

PRONOUN_TAGS = frozenset({"PRP", "PRP$"})
PROPER_TAGS = frozenset({"NNP", "NNPS"})
_SINGULAR_TAGS = frozenset({"NN", "NNP"})
_PLURAL_TAGS = frozenset({"NNS", "NNPS"})

#: Head annotations that positively mark a person.
_PERSON_SUPERSENSE = "noun.person"
_PERSON_NER = frozenset({"person", "per"})
#: NE labels carrying no usable type evidence.
_UNINFORMATIVE_NER = frozenset({"", "o", "misc"})


class MentionKind(enum.Enum):
    PRONOUN = "pronoun"
    NOMINAL = "nominal"
    PROPER = "proper"


@dataclass(frozen=True)
class TypeProfile:
    gender: Gender
    personhood: Personhood
    number: Number


@dataclass(frozen=True)
class TokenAnnotation:
    """Optional per-token labels produced upstream (supersense tagger / NER)."""
    sentence_index: int
    token_index: int
    supersense: Optional[str] = None
    ner: Optional[str] = None


AnnotationIndex = Mapping[tuple[int, int], TokenAnnotation]


def annotation_index(annotations: Iterable[TokenAnnotation]) -> dict[tuple[int, int], TokenAnnotation]:
    return {(a.sentence_index, a.token_index): a for a in annotations}


@dataclass
class Mention:
    """A resolvable noun phrase occurrence.

    ``node`` is the highest NP for the head word (or the pronoun leaf itself
    for bare possessives); ``profile`` and ``pronoun`` are attached by
    ``attach_profiles`` once a lexicon is available.
    """
    mention_id: int
    node: SyntaxNode
    head: SyntaxNode
    kind: MentionKind
    profile: Optional[TypeProfile] = None
    pronoun: Optional[PronounEntry] = None

    @property
    def sentence_index(self) -> int:
        return self.node.sentence_index

    @property
    def span(self) -> tuple[int, int]:
        return self.node.span

    @property
    def head_word(self) -> str:
        return self.head.token or ""

    @property
    def head_tag(self) -> str:
        return self.head.label

    def tokens(self) -> list[str]:
        return self.node.tokens()

    def __repr__(self) -> str:
        return (f"<Mention {self.mention_id} {self.kind.value} "
                f"{self.head_word!r} s{self.sentence_index}:{self.span[0]}-{self.span[1]}>")


def _kind_of_tag(tag: str) -> MentionKind:
    if tag in PRONOUN_TAGS:
        return MentionKind.PRONOUN
    if tag in PROPER_TAGS:
        return MentionKind.PROPER
    return MentionKind.NOMINAL


def classify_kind(m: Mention) -> MentionKind:
    """Pronoun for PRP/PRP$ heads, Proper for NNP/NNPS, Nominal otherwise."""
    return _kind_of_tag(m.head_tag)


def document_order_key(m: Mention) -> tuple[int, int, int]:
    """Sort key for document order: outer mentions precede the NPs they contain."""
    return (m.sentence_index, m.span[0], -m.span[1])


def extract_mentions(doc: DocumentTree) -> list[Mention]:
    """All NPs that are the largest possible for their head word.

    NPs sharing a head leaf are nested, so only the outermost survives.
    PRP/PRP$ leaves that head no NP (possessive determiners) become leaf
    mentions. Output is ordered by (sentence, span start, span end desc).
    """
    highest_for_head: dict[SyntaxNode, SyntaxNode] = {}
    pronoun_leaves = []
    for node in doc.nodes:
        if node.label == "NP":
            leaf = head_leaf(node)
            best = highest_for_head.get(leaf)
            if best is None or node.depth < best.depth:
                highest_for_head[leaf] = node
        elif node.label in PRONOUN_TAGS and node.is_leaf():
            pronoun_leaves.append(node)
    for leaf in pronoun_leaves:
        highest_for_head.setdefault(leaf, leaf)
    mentions = [Mention(mention_id=-1, node=node, head=leaf,
                        kind=_kind_of_tag(leaf.label))
                for leaf, node in highest_for_head.items()]
    mentions.sort(key=document_order_key)
    for i, m in enumerate(mentions):
        m.mention_id = i
    return mentions


def map_gold_mentions(doc: DocumentTree,
                      spans: Sequence[tuple[int, int, int]]) -> list[Mention]:
    """Map externally given (sentence, start, end) spans onto the parse.

    Each span becomes one mention whose node is the smallest covering NP (or
    pronoun leaf); when no nominal node covers the span, the smallest covering
    node of any label is used. Mention ids keep the input span order; the
    returned list is in document order.
    """
    if doc.root is None:
        if spans:
            raise ValueError("gold mentions supplied for an empty document")
        return []
    by_sentence: dict[int, list[SyntaxNode]] = {}
    for node in doc.nodes:
        if node.label == DOCLINK:
            continue
        by_sentence.setdefault(node.sentence_index, []).append(node)
    mentions = []
    for gold_id, (s, start, end) in enumerate(spans):
        candidates = by_sentence.get(s)
        if candidates is None:
            raise ValueError(f"gold mention {gold_id}: no sentence {s}")
        if not (0 <= start < end <= doc.sentence_roots[s].span[1]):
            raise ValueError(f"gold mention {gold_id}: span [{start},{end}) out of range")
        covering = [n for n in candidates
                    if n.span[0] <= start and end <= n.span[1]]
        nominal = [n for n in covering
                   if n.label == "NP" or n.label in PRONOUN_TAGS]
        pool = nominal or covering
        # Prefer an NP over a bare pronoun leaf of the same extent so the
        # mention keeps its syntactic context (subject/object detection).
        node = min(pool, key=lambda n: (n.span[1] - n.span[0],
                                        n.label in PRONOUN_TAGS, -n.depth))
        leaf = head_leaf(node)
        mentions.append(Mention(mention_id=gold_id, node=node, head=leaf,
                                kind=_kind_of_tag(leaf.label)))
    mentions.sort(key=document_order_key)
    return mentions


def infer_number(m: Mention, lex: Lexicon) -> Number:
    """NN/NNP singular, NNS/NNPS plural, pronouns from the table, else unknown."""
    if m.kind is MentionKind.PRONOUN:
        entry = pronoun_lookup(m.head_word, lex)
        return entry.number if entry else Number.UNKNOWN
    if m.head_tag in _SINGULAR_TAGS:
        return Number.SINGULAR
    if m.head_tag in _PLURAL_TAGS:
        return Number.PLURAL
    return Number.UNKNOWN


class _WordCues:
    """Where the gendered titles, unambiguous first names and titles fall in
    one token list, so that the first of each inside a span is one bisect.

    Each token costs a casefold and two dict lookups: the title lookup of
    ``Lexicon.title_gender`` (casefold, then strip trailing dots) and
    ``Lexicon.first_names``.
    """

    __slots__ = ("titled_at", "gendered_at", "title_genders", "named_at", "name_genders")

    def __init__(self, tokens: Sequence[str], lex: Lexicon):
        titles, first_names = lex.titles.get, lex.first_names.get
        self.titled_at: list[int] = []
        self.gendered_at: list[int] = []
        self.title_genders: list[Gender] = []
        self.named_at: list[int] = []
        self.name_genders: list[Gender] = []
        for i, token in enumerate(tokens):
            folded = token.casefold()
            title = titles(folded.rstrip("."))
            if title is not None:
                self.titled_at.append(i)
                if title is not Gender.UNKNOWN:
                    self.gendered_at.append(i)
                    self.title_genders.append(title)
            gender = first_names(folded)
            if gender is not None:
                self.named_at.append(i)
                self.name_genders.append(gender)

    def gender(self, start: int, end: int) -> Gender:
        """The first gendered title in tokens [start, end), else the first
        unambiguous first name, else unknown."""
        for at, genders in ((self.gendered_at, self.title_genders),
                            (self.named_at, self.name_genders)):
            k = bisect_left(at, start)
            if k < len(at) and at[k] < end:
                return genders[k]
        return Gender.UNKNOWN

    def has_title(self, start: int, end: int) -> bool:
        k = bisect_left(self.titled_at, start)
        return k < len(self.titled_at) and self.titled_at[k] < end


def infer_gender(m: Mention, lex: Lexicon, *, use_word_lists: bool = True) -> Gender:
    """Gendered title first, then unambiguous census first name, else unknown.

    Pronouns take the table value regardless of word lists.
    """
    if m.kind is MentionKind.PRONOUN:
        entry = pronoun_lookup(m.head_word, lex)
        return entry.gender if entry else Gender.UNKNOWN
    if not use_word_lists:
        return Gender.UNKNOWN
    tokens = m.tokens()
    return _WordCues(tokens, lex).gender(0, len(tokens))


def _head_annotation(m: Mention, annotations: AnnotationIndex) -> Optional[TokenAnnotation]:
    return annotations.get((m.sentence_index, m.head.span[0]))


def _annotation_personhood(ann: Optional[TokenAnnotation]) -> Personhood:
    if ann is None:
        return Personhood.UNKNOWN
    if ann.supersense:
        if ann.supersense.casefold() == _PERSON_SUPERSENSE:
            return Personhood.PERSON
        return Personhood.NOT_PERSON
    if ann.ner:
        label = ann.ner.casefold()
        if label in _PERSON_NER:
            return Personhood.PERSON
        if label not in _UNINFORMATIVE_NER:
            return Personhood.NOT_PERSON
    return Personhood.UNKNOWN


def _personhood(m: Mention, annotations: AnnotationIndex, gender: Gender,
                cues: Optional[_WordCues], start: int, end: int) -> Personhood:
    annotated = _annotation_personhood(_head_annotation(m, annotations))
    if annotated is Personhood.PERSON or gender is not Gender.UNKNOWN:
        return Personhood.PERSON
    if cues is not None and cues.has_title(start, end):
        return Personhood.PERSON
    return annotated  # NOT_PERSON from the annotation, or UNKNOWN


def infer_personhood(m: Mention, annotations: AnnotationIndex, lex: Lexicon, *,
                     gender: Optional[Gender] = None,
                     use_word_lists: bool = True) -> Personhood:
    """Person when the head is tagged as one, the gender is known, or a title
    occurs in the mention; NotPerson only from an explicit non-person label.
    """
    if m.kind is MentionKind.PRONOUN:
        entry = pronoun_lookup(m.head_word, lex)
        return entry.personhood if entry else Personhood.UNKNOWN
    if not use_word_lists:
        return _personhood(m, annotations, gender or Gender.UNKNOWN, None, 0, 0)
    tokens = m.tokens()
    cues = _WordCues(tokens, lex)
    if gender is None:
        gender = cues.gender(0, len(tokens))
    return _personhood(m, annotations, gender, cues, 0, len(tokens))


def _pronoun_profile(entry: Optional[PronounEntry]) -> TypeProfile:
    if entry is None:
        return TypeProfile(Gender.UNKNOWN, Personhood.UNKNOWN, Number.UNKNOWN)
    return TypeProfile(entry.gender, entry.personhood, entry.number)


def _nominal_profile(m: Mention, annotations: AnnotationIndex, lex: Lexicon,
                     cues: Optional[_WordCues], start: int, end: int) -> TypeProfile:
    """The profile of a non-pronoun mention whose tokens are [start, end) of
    the tokens ``cues`` was built from (None: word lists are off)."""
    gender = Gender.UNKNOWN if cues is None else cues.gender(start, end)
    return TypeProfile(gender, _personhood(m, annotations, gender, cues, start, end),
                       infer_number(m, lex))


def build_profile(m: Mention, annotations: AnnotationIndex, lex: Lexicon, *,
                  use_word_lists: bool = True) -> TypeProfile:
    """``infer_gender``, ``infer_personhood`` and ``infer_number`` together."""
    if m.kind is MentionKind.PRONOUN:
        return _pronoun_profile(pronoun_lookup(m.head_word, lex))
    if not use_word_lists:
        return _nominal_profile(m, annotations, lex, None, 0, 0)
    tokens = m.tokens()
    return _nominal_profile(m, annotations, lex, _WordCues(tokens, lex), 0, len(tokens))


def attach_profiles(mentions: Iterable[Mention], annotations: AnnotationIndex,
                    lex: Lexicon, *, use_word_lists: bool = True) -> None:
    """Fill ``profile`` and ``pronoun`` on every mention in place, with the
    profile ``build_profile`` gives.

    The word-list cues of a sentence are found once, in one pass over its
    tokens, so a mention of a ``DocumentTree`` costs O(log n) in the length
    of its sentence rather than O(its own length).
    """
    doc = None
    cues: dict[int, _WordCues] = {}
    for m in mentions:
        node = m.node
        if m.kind is MentionKind.PRONOUN:
            m.pronoun = pronoun_lookup(m.head_word, lex)
            m.profile = _pronoun_profile(m.pronoun)
        elif not use_word_lists or node.doc is None or node.sentence_index < 0:
            # no cues wanted, or no sentence token list to find them in
            m.profile = build_profile(m, annotations, lex, use_word_lists=use_word_lists)
        else:
            if node.doc is not doc:
                doc, cues = node.doc, {}
            s = node.sentence_index
            sentence = cues.get(s)
            if sentence is None:
                sentence = cues[s] = _WordCues(doc[s], lex)
            m.profile = _nominal_profile(m, annotations, lex, sentence, *node.span)
