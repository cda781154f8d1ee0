"""Antecedent selection: immediate syntactic patterns, candidate filtering,
and shortest-path choice.

Each mention, in document order, either matches an immediate pattern
(appositive, role appositive, predicate nominative), or the candidate closest
by tree path distance among those its kind-specific constraints accept wins.
Pre-filters only ever reject; they never force a match.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from itertools import groupby
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .lexicon import Gender, GrammaticalPerson, Lexicon, Number, Personhood
from .mention import Mention, MentionKind, TypeProfile, document_order_key
from .treebank import (CLAUSE_LABELS, DocumentTree, SyntaxNode, dominates,
                       head_leaf, path_distance)


class Rule(enum.Enum):
    """How a decision was made; values are the serialized tag strings."""
    APPOSITIVE = "Appositive"
    ROLE_APPOSITIVE = "RoleAppositive"
    PRED_NOM = "PredNom"
    PRONOUN = "PronounResolve"
    NOMINAL = "NominalResolve"
    NULL = "NullResolve"


@dataclass(frozen=True)
class Decision:
    """One antecedent choice; ``antecedent`` is a mention id or None."""
    mention_id: int
    antecedent: Optional[int]
    rule: Rule


@dataclass(frozen=True)
class ResolveConfig:
    """Ablation switches; the defaults are the full system."""
    use_word_lists: bool = True
    check_gender: bool = True
    check_personhood: bool = True
    check_number: bool = True
    resolve_pronouns: bool = True
    resolve_second_person: bool = True
    allow_pro_pro_match: bool = True
    strict_typecheck: bool = False
    check_grammatical_person: bool = False
    enable_role_appositive: bool = True
    pred_nom_exclude_modals: bool = False

    @classmethod
    def from_dict(cls, values: dict) -> "ResolveConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        not_bool = sorted(k for k, v in values.items() if not isinstance(v, bool))
        if not_bool:
            raise ValueError(f"config values must be true or false: {not_bool}")
        return replace(cls(), **values)


class MentionIndex:
    """Document-order positions and node/head lookup tables for one document.

    ``mentions`` must be in document order, as ``extract_mentions`` and
    ``map_gold_mentions`` return them.
    """

    def __init__(self, doc: DocumentTree, mentions: Sequence[Mention]):
        self.doc = doc
        self.mentions = list(mentions)
        self.position = {m.mention_id: i for i, m in enumerate(self.mentions)}
        self.by_node: dict[int, Mention] = {}
        self.by_head: dict[int, Mention] = {}
        # each position's nominal keys, and nominal key -> ascending
        # positions of the mentions that have it
        self.keys_at = [nominal_keys(m) for m in self.mentions]
        self.by_nominal_key: dict[tuple[str, str], list[int]] = {}
        for i, m in enumerate(self.mentions):
            self.by_node.setdefault(m.node.node_id, m)
            self.by_head.setdefault(m.head.node_id, m)
            for key in self.keys_at[i]:
                self.by_nominal_key.setdefault(key, []).append(i)

    def precedes(self, a: Mention, b: Mention) -> bool:
        return self.position[a.mention_id] < self.position[b.mention_id]

    def before(self, m: Mention) -> Iterator[Mention]:
        """The mentions of ``candidate_pool(m, self)``, most recent first."""
        return map(self.mentions.__getitem__,
                   range(self.position[m.mention_id] - 1, -1, -1))

    def nominal_matches_before(self, m: Mention) -> Iterator[Mention]:
        """The mentions before ``m`` that share a nominal key with it, most
        recent first; ``filter_nominal`` over ``candidate_pool``, reversed."""
        stop = self.position[m.mention_id]
        runs = [map(positions.__getitem__, range(bisect_left(positions, stop) - 1, -1, -1))
                for positions in map(self.by_nominal_key.__getitem__, self.keys_at[stop])]
        if len(runs) == 1:
            order = runs[0]
        else:  # a mention with both keys is in both runs
            order = (i for i, _ in groupby(heapq.merge(*runs, reverse=True)))
        return map(self.mentions.__getitem__, order)

    def mention_of(self, node: SyntaxNode) -> Optional[Mention]:
        m = self.by_node.get(node.node_id)
        if m is not None and m.node is node:
            return m
        m = self.by_head.get(head_leaf(node).node_id)
        return m


def detect_appositive(m: Mention, index: MentionIndex) -> Optional[Mention]:
    """Right NP of (NP [NP] [,] [NP] ...) links to the mention headed by the
    left NP."""
    node, parent = m.node, m.node.parent
    if parent is None or parent.label != "NP" or node.label != "NP":
        return None
    i = parent.children.index(node)
    if i < 2:
        return None
    comma, left = parent.children[i - 1], parent.children[i - 2]
    if not (comma.is_leaf() and comma.label == ","):
        return None
    if left.label != "NP":
        return None
    antecedent = index.mention_of(left)
    if antecedent is None or not index.precedes(antecedent, m):
        return None
    return antecedent


def detect_role_appositive(m: Mention, index: MentionIndex,
                           cfg: ResolveConfig) -> Optional[Mention]:
    """Proper person mention directly preceded by a sibling nominal NP,
    no comma between, e.g. "[Republican candidate] [George Bush]"."""
    if not cfg.enable_role_appositive:
        return None
    if m.kind is not MentionKind.PROPER:
        return None
    if m.profile is None or m.profile.personhood is not Personhood.PERSON:
        return None
    node, parent = m.node, m.node.parent
    if parent is None or node.label != "NP":
        return None
    i = parent.children.index(node)
    if i < 1:
        return None
    left = parent.children[i - 1]
    if left.label != "NP":
        return None
    antecedent = index.mention_of(left)
    if antecedent is None or antecedent.kind is not MentionKind.NOMINAL:
        return None
    if antecedent.profile is not None and \
            antecedent.profile.personhood is Personhood.NOT_PERSON:
        return None
    if not index.precedes(antecedent, m):
        return None
    return antecedent


def _clause_and_subject(vp: SyntaxNode) -> tuple[Optional[SyntaxNode], Optional[SyntaxNode]]:
    """Climb a VP chain to its clause; return (clause, rightmost NP subject
    before the verb group)."""
    node = vp
    while node.parent is not None and node.parent.label == "VP":
        node = node.parent
    clause = node.parent
    if clause is None or clause.label not in CLAUSE_LABELS:
        return None, None
    subject = None
    for child in clause.children:
        if child is node:
            break
        if child.label == "NP":
            subject = child
    return clause, subject


def _verb_group_modal(vp: SyntaxNode) -> Optional[SyntaxNode]:
    """First MD leaf that is a direct child of the VP chain containing vp."""
    node: Optional[SyntaxNode] = vp
    while node is not None and node.label == "VP":
        for child in node.children:
            if child.is_leaf() and child.label == "MD":
                return child
        node = node.parent
    return None


def detect_pred_nom(m: Mention, index: MentionIndex, lex: Lexicon,
                    cfg: ResolveConfig) -> Optional[Mention]:
    """Copular complement links to the clause subject:
    "[Lameu] was the first NHL [player] ..."."""
    node, vp = m.node, m.node.parent
    if vp is None or vp.label != "VP" or node.label != "NP":
        return None
    verb = head_leaf(vp)
    if verb.token is None or verb.token.casefold() not in lex.copulas:
        return None
    if node.span[0] < verb.span[1]:
        return None  # complement must follow the copula
    _, subject = _clause_and_subject(vp)
    if subject is None:
        return None
    if cfg.pred_nom_exclude_modals:
        modal = _verb_group_modal(vp)
        if modal is not None and modal.span[0] < verb.span[0]:
            return None
    antecedent = index.mention_of(subject)
    if antecedent is None or not index.precedes(antecedent, m):
        return None
    return antecedent


def reflexive_subject(pron: Mention) -> Optional[SyntaxNode]:
    """Head leaf of the clause subject that a non-reflexive direct-object
    pronoun cannot corefer with ("The bank ruined it." -> it != bank), or
    None when the pronoun is reflexive, not a direct object, or has no
    subject."""
    if pron.pronoun is not None and pron.pronoun.reflexive:
        return None
    vp = pron.node.parent
    if vp is None or vp.label != "VP":
        return None
    _, subject = _clause_and_subject(vp)
    return None if subject is None else head_leaf(subject)


def initial_adjuncts(pron: Mention) -> list[SyntaxNode]:
    """Sentence-initial non-finite adjuncts a clause-subject pronoun cannot
    refer into ("To call John, he ..."); finite SBAR adjuncts are exempt
    ("Because John likes cars, he ..."). Empty unless the pronoun is a
    clause subject."""
    node, clause = pron.node, pron.node.parent
    if clause is None or clause.label not in CLAUSE_LABELS:
        return []
    if not any(sib.label == "VP" and sib.span[0] >= node.span[1]
               for sib in clause.children):
        return []  # not a subject
    adjuncts = []
    for child in clause.children:
        if child is node:
            break
        if child.label in ("S", "VP") and head_leaf(child).label in ("TO", "VBG"):
            adjuncts.append(child)
    return adjuncts


def _attribute_clash(a, b, unknown) -> bool:
    return a is not unknown and b is not unknown and a is not b


def type_compatible(p: TypeProfile, c: TypeProfile, cfg: ResolveConfig) -> bool:
    """Reject only on definite clashes; Unknown matches everything.

    With strict_typecheck, an Unknown candidate attribute also clashes with a
    definite pronoun attribute (for each enabled check).
    """
    checks = (
        (cfg.check_gender, p.gender, c.gender, Gender.UNKNOWN),
        (cfg.check_personhood, p.personhood, c.personhood, Personhood.UNKNOWN),
        (cfg.check_number, p.number, c.number, Number.UNKNOWN),
    )
    for enabled, mine, theirs, unknown in checks:
        if not enabled:
            continue
        if _attribute_clash(mine, theirs, unknown):
            return False
        if cfg.strict_typecheck and mine is not unknown and theirs is unknown:
            return False
    return True


def candidate_pool(m: Mention, index: MentionIndex) -> list[Mention]:
    """All mentions strictly before ``m`` in document order."""
    return index.mentions[:index.position[m.mention_id]]


def is_second_person(m: Mention) -> bool:
    return (m.pronoun is not None
            and m.pronoun.grammatical_person is GrammaticalPerson.SECOND)


def pronoun_acceptor(m: Mention, cfg: ResolveConfig) -> Callable[[Mention], bool]:
    """The test a candidate antecedent of pronoun ``m`` must pass: it is
    rejected when it violates a syntactic constraint, clashes on type, or
    falls under the pro-pro policy. Never accepts anything outright."""
    subject_head = reflexive_subject(m)
    adjuncts = initial_adjuncts(m)

    def accepts(cand: Mention) -> bool:
        if not cfg.allow_pro_pro_match and cand.kind is MentionKind.PRONOUN:
            return False
        if (cfg.check_grammatical_person
                and cand.kind is MentionKind.PRONOUN
                and m.pronoun is not None and cand.pronoun is not None
                and m.pronoun.grammatical_person is not cand.pronoun.grammatical_person):
            return False
        if dominates(cand.node, m.node):  # i-within-i
            return False
        if cand.head is subject_head or \
                any(dominates(adjunct, cand.node) for adjunct in adjuncts):
            return False
        return not (m.profile and cand.profile
                    and not type_compatible(m.profile, cand.profile, cfg))

    return accepts


def filter_pronoun(m: Mention, pool: Sequence[Mention],
                   cfg: ResolveConfig) -> list[Mention]:
    """The candidates in ``pool`` that ``pronoun_acceptor(m, cfg)`` accepts."""
    accepts = pronoun_acceptor(m, cfg)
    return [cand for cand in pool if accepts(cand)]


def nominal_keys(m: Mention) -> tuple[tuple[str, str], ...]:
    """A nominal or proper mention matches a candidate that shares one of
    these keys with it: the casefolded head word, or for NNP heads of at
    least 4 characters its casefolded 4-character prefix ("Japan" / "the
    Japanese")."""
    head = m.head_word.casefold()
    if m.head_tag == "NNP" and len(head) >= 4:
        return ("head", head), ("prefix", head[:4])
    return (("head", head),)


def filter_nominal(m: Mention, pool: Sequence[Mention]) -> list[Mention]:
    """The candidates in ``pool`` that share a nominal key with ``m``: exact
    head match (case-insensitive) or the proper-noun prefix rule. No
    syntactic constraints."""
    keys = set(nominal_keys(m))
    return [cand for cand in pool if not keys.isdisjoint(nominal_keys(cand))]


def select_antecedent(m: Mention, candidates: Sequence[Mention],
                      doc: DocumentTree) -> Optional[Mention]:
    """The candidate closest by tree path distance; ties go to the most
    recent mention in document order. Empty candidate set resolves to None."""
    best = None
    best_distance = None
    for cand in candidates:
        distance = path_distance(m.node, cand.node, doc)
        if (best is None or distance < best_distance
                or (distance == best_distance
                    and document_order_key(cand) > document_order_key(best))):
            best, best_distance = cand, distance
    return best


def _nearest_acceptable(m: Mention, candidates: Iterable[Mention],
                        accepts: Optional[Callable[[Mention], bool]],
                        doc: DocumentTree,
                        kept: Optional[list[Mention]]) -> Optional[Mention]:
    """``select_antecedent`` over the ``candidates`` that ``accepts`` admits
    (all of them when it is None), given most recent first.

    A candidate in a sentence s before ``m``'s has depth at least s + 1, so
    its distance is at least ``m.node.depth - s + 1``, and that bound grows
    as s falls. The scan therefore stops at the first candidate
    in a sentence before the best one's whose bound reaches the best
    distance: it and all earlier candidates are no closer, and on a tie they
    lose to the best, whose document-order key is larger. When ``kept`` is
    given the scan runs to the end and appends every accepted candidate.
    """
    best = None
    best_distance = 0
    depth = m.node.depth
    for cand in candidates:
        s = cand.node.sentence_index
        if (kept is None and best is not None and s < best.node.sentence_index
                and depth - s + 1 >= best_distance):
            break
        if accepts is not None and not accepts(cand):
            continue
        if kept is not None:
            kept.append(cand)
        distance = path_distance(m.node, cand.node, doc)
        # Scanning backwards, ``>=`` on the key keeps select_antecedent's
        # order: larger key first, then the earlier position.
        if (best is None or distance < best_distance
                or (distance == best_distance
                    and document_order_key(cand) >= document_order_key(best))):
            best, best_distance = cand, distance
    return best


def _resolve_one(m: Mention, index: MentionIndex, lex: Lexicon,
                 cfg: ResolveConfig,
                 candidate_log: Optional[dict[int, frozenset[int]]]) -> Decision:
    antecedent = detect_appositive(m, index)
    if antecedent is not None:
        return Decision(m.mention_id, antecedent.mention_id, Rule.APPOSITIVE)
    antecedent = detect_role_appositive(m, index, cfg)
    if antecedent is not None:
        return Decision(m.mention_id, antecedent.mention_id, Rule.ROLE_APPOSITIVE)
    antecedent = detect_pred_nom(m, index, lex, cfg)
    if antecedent is not None:
        return Decision(m.mention_id, antecedent.mention_id, Rule.PRED_NOM)

    if m.kind is MentionKind.PRONOUN:
        if not cfg.resolve_pronouns:
            return Decision(m.mention_id, None, Rule.NULL)
        if is_second_person(m) and not cfg.resolve_second_person:
            return Decision(m.mention_id, None, Rule.NULL)
        candidates, accepts = index.before(m), pronoun_acceptor(m, cfg)
        rule = Rule.PRONOUN
    else:
        candidates, accepts = index.nominal_matches_before(m), None
        rule = Rule.NOMINAL
    kept = None if candidate_log is None else []
    chosen = _nearest_acceptable(m, candidates, accepts, index.doc, kept)
    if candidate_log is not None:
        candidate_log[m.mention_id] = frozenset(c.mention_id for c in kept)
    if chosen is None:
        return Decision(m.mention_id, None, Rule.NULL)
    return Decision(m.mention_id, chosen.mention_id, rule)


def resolve_document(doc: DocumentTree, mentions: Sequence[Mention],
                     lex: Lexicon, cfg: Optional[ResolveConfig] = None,
                     candidate_log: Optional[dict[int, frozenset[int]]] = None
                     ) -> list[Decision]:
    """One decision per mention, in document order.

    Immediate patterns fire first (appositive, role appositive, predicate
    nominative, in that order); otherwise the closest candidate the
    kind-specific filter accepts wins, as ``select_antecedent`` over
    ``filter_pronoun`` or ``filter_nominal`` of ``candidate_pool`` would pick
    it. ``mentions`` must be in document order. ``candidate_log``, when
    given, records the filtered candidate id set per mention that reached
    filtering; that makes the search visit every earlier candidate.
    """
    cfg = cfg or ResolveConfig()
    index = MentionIndex(doc, mentions)
    return [_resolve_one(m, index, lex, cfg, candidate_log)
            for m in index.mentions]
