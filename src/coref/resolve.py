"""Antecedent selection: immediate syntactic patterns, candidate filtering,
and shortest-path choice.

Each mention, in document order, either matches an immediate pattern
(appositive, role appositive, predicate nominative), or the candidate closest
by tree path distance among those its kind-specific constraints accept wins.
Pre-filters only ever reject; they never force a match.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .lexicon import Gender, GrammaticalPerson, Lexicon, Number, Personhood
from .mention import Mention, MentionKind, TypeProfile, document_order_key
from .treebank import (CLAUSE_LABELS, DocumentTree, SyntaxNode, dominates,
                       head_leaf, path_distance)


class Rule(enum.Enum):
    """How a decision was made; values are the serialized tag strings, and
    the declaration order is the order reports list the rules in."""
    APPOSITIVE = "Appositive"
    ROLE_APPOSITIVE = "RoleAppositive"
    PRED_NOM = "PredNom"
    PRONOUN = "PronounResolve"
    NOMINAL = "NominalResolve"
    NULL = "NullResolve"

    # Members are singletons, so identity hashing is exact, and it runs in C
    # where Enum's own __hash__ is a Python call per rule-keyed tally.
    __hash__ = object.__hash__


# Members read per mention and per candidate, bound once; see the note on
# ``Gender`` in lexicon.py.
_PRONOUN, _NOMINAL, _PROPER = MentionKind.PRONOUN, MentionKind.NOMINAL, MentionKind.PROPER
_PERSON, _NOT_PERSON = Personhood.PERSON, Personhood.NOT_PERSON
_UNKNOWN_GENDER, _UNKNOWN_PERSONHOOD, _UNKNOWN_NUMBER = (
    Gender.UNKNOWN, Personhood.UNKNOWN, Number.UNKNOWN)
_SECOND_PERSON = GrammaticalPerson.SECOND
_APPOSITIVE, _ROLE_APPOSITIVE, _PRED_NOM = Rule.APPOSITIVE, Rule.ROLE_APPOSITIVE, Rule.PRED_NOM
_PRONOUN_RESOLVE, _NOMINAL_RESOLVE, _NULL_RESOLVE = Rule.PRONOUN, Rule.NOMINAL, Rule.NULL


class Decision(NamedTuple):
    """One antecedent choice; ``antecedent`` is a mention id or None."""
    mention_id: int
    antecedent: Optional[int]
    rule: Rule


class ResolveConfig(NamedTuple):
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
        unknown = set(values).difference(cls._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        not_bool = sorted(k for k, v in values.items() if not isinstance(v, bool))
        if not_bool:
            raise ValueError(f"config values must be true or false: {not_bool}")
        return cls()._replace(**values)


class MentionIndex:
    """Node, head and nominal-key lookup tables over one document's
    ``mentions``, which must be in document order (as ``extract_mentions``
    and ``map_gold_mentions`` return them). Each table, method, detector and
    search addresses a mention by its position in ``mentions``, not its id.
    """

    def __init__(self, doc: DocumentTree, mentions: Sequence[Mention]):
        self.doc = doc
        self.mentions = list(mentions)
        # node id -> position of the first mention at that node (mentions
        # at one node share a head, so they share their nominal keys)
        self.by_node: dict[int, int] = {}
        # head-leaf id -> position of the first mention with that head
        self.by_head: dict[int, int] = {}
        # each position's nominal keys, and nominal key -> ascending
        # positions of the mentions that have it
        self.keys_at = [nominal_keys(m) for m in self.mentions]
        self.by_nominal_key: dict[tuple[str, str], list[int]] = {}
        # whether the mention at each position is the first with each of its
        # keys, so that ``nominal_matches_before`` yields nothing for it
        self.opens_keys: list[bool] = []
        for i, m in enumerate(self.mentions):
            self.by_node.setdefault(m.node.node_id, i)
            self.by_head.setdefault(m.head.node_id, i)
            opens = True
            for key in self.keys_at[i]:
                run = self.by_nominal_key.setdefault(key, [])
                opens = opens and not run
                run.append(i)
            self.opens_keys.append(opens)

    def nominal_matches_before(self, i: int) -> Iterator[int]:
        """The positions before ``i`` whose mentions share a nominal key with
        the mention at ``i`` (see ``nominal_keys``), most recent first."""
        keys = self.keys_at[i]
        run = self.by_nominal_key[keys[0]]
        # a one-key mention merges its run with an empty second one
        other = self.by_nominal_key[keys[1]] if len(keys) == 2 else ()
        return _union_latest_first(run, bisect_left(run, i), other, bisect_left(other, i))

    def mention_before(self, node: SyntaxNode, i: int) -> Optional[Mention]:
        """The first mention at ``node``, else the first one headed by
        ``node``'s head leaf, if its position is before ``i``; otherwise
        None."""
        found = self.by_node.get(node.node_id, self.by_head.get(head_leaf(node).node_id, i))
        return self.mentions[found] if found < i else None


def _union_latest_first(a: Sequence[int], i: int,
                        b: Sequence[int], j: int) -> Iterator[int]:
    """The positions in ``a[:i]`` or ``b[:j]``, two ascending runs (either
    may be empty), latest first and each once. Reads each run element at
    most once, and only as far back as the caller draws."""
    x = a[i - 1] if i else -1  # positions are >= 0, so -1 marks an empty run
    y = b[j - 1] if j else -1
    while x >= 0 or y >= 0:
        if x >= y:
            yield x
            if x == y:  # in both runs
                j -= 1
                y = b[j - 1] if j else -1
            i -= 1
            x = a[i - 1] if i else -1
        else:
            yield y
            j -= 1
            y = b[j - 1] if j else -1


_SPAN = attrgetter("span")


def _child_index(parent: SyntaxNode, node: SyntaxNode) -> int:
    """``parent.children.index(node)`` in O(log n): sibling spans are
    disjoint and ascending, so a wide parent (a long coordination) costs
    no scan per child."""
    return bisect_left(parent.children, node.span, key=_SPAN)


def detect_appositive(m: Mention, i: int, index: MentionIndex) -> Optional[Mention]:
    """Right NP of (NP [NP] [,] [NP] ...) links to the mention headed by the
    left NP."""
    node, parent = m.node, m.node.parent
    if parent is None or parent.label != "NP" or node.label != "NP":
        return None
    k = _child_index(parent, node)
    if k < 2:
        return None
    comma, left = parent.children[k - 1], parent.children[k - 2]
    if not (comma.is_leaf() and comma.label == ","):
        return None
    if left.label != "NP":
        return None
    return index.mention_before(left, i)


def detect_role_appositive(m: Mention, i: int, index: MentionIndex,
                           cfg: ResolveConfig) -> Optional[Mention]:
    """Proper person mention directly preceded by a sibling nominal NP,
    no comma between, e.g. "[Republican candidate] [George Bush]"."""
    if not cfg.enable_role_appositive:
        return None
    if m.kind is not _PROPER:
        return None
    if m.profile is None or m.profile.personhood is not _PERSON:
        return None
    node, parent = m.node, m.node.parent
    if parent is None or node.label != "NP":
        return None
    k = _child_index(parent, node)
    if k < 1:
        return None
    left = parent.children[k - 1]
    if left.label != "NP":
        return None
    antecedent = index.mention_before(left, i)
    if antecedent is None or antecedent.kind is not _NOMINAL:
        return None
    if antecedent.profile is not None and \
            antecedent.profile.personhood is _NOT_PERSON:
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


def detect_pred_nom(m: Mention, i: int, index: MentionIndex, lex: Lexicon,
                    cfg: ResolveConfig) -> Optional[Mention]:
    """Copular complement links to the clause subject:
    "[Lameu] was the first NHL [player] ..."."""
    node, vp = m.node, m.node.parent
    if vp is None or vp.label != "VP" or node.label != "NP":
        return None
    verb = head_leaf(vp)
    if verb.token is None or not lex.is_copula(verb.token):
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
    return index.mention_before(subject, i)


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


def _attribute_clash(mine, theirs, unknown, strict: bool) -> bool:
    """A definite ``mine`` clashes with a different definite ``theirs``, and
    with an unknown one when ``strict``."""
    if mine is unknown:
        return False
    if theirs is unknown:
        return strict
    return mine is not theirs


def type_compatible(p: TypeProfile, c: TypeProfile, cfg: ResolveConfig) -> bool:
    """Reject only on definite clashes; Unknown matches everything.

    With strict_typecheck, an Unknown candidate attribute also clashes with a
    definite pronoun attribute (for each enabled check).
    """
    strict = cfg.strict_typecheck
    return not (
        (cfg.check_gender
         and _attribute_clash(p.gender, c.gender, _UNKNOWN_GENDER, strict))
        or (cfg.check_personhood
            and _attribute_clash(p.personhood, c.personhood, _UNKNOWN_PERSONHOOD, strict))
        or (cfg.check_number
            and _attribute_clash(p.number, c.number, _UNKNOWN_NUMBER, strict)))


def is_second_person(m: Mention) -> bool:
    return (m.pronoun is not None
            and m.pronoun.grammatical_person is _SECOND_PERSON)


def pronoun_acceptor(m: Mention, cfg: ResolveConfig) -> Callable[[Mention], bool]:
    """The test a candidate antecedent of pronoun ``m`` must pass: it is
    rejected when it violates a syntactic constraint, clashes on type, or
    falls under the pro-pro policy. Never accepts anything outright.

    The syntactic constraints (i-within-i, the reflexive subject, the
    initial adjuncts) relate nodes of one tree, so they can only reject a
    candidate of ``m``'s own sentence, and only such a candidate is put to
    them. ``reflexive_subject(m)`` and ``initial_adjuncts(m)`` are found on
    the first one that i-within-i does not reject, and kept for the later
    ones; a search that reaches no candidate of ``m``'s sentence never
    computes them."""
    sentence = m.sentence_index
    constraints: Optional[tuple[Optional[SyntaxNode], list[SyntaxNode]]] = None

    def accepts(cand: Mention) -> bool:
        nonlocal constraints
        if not cfg.allow_pro_pro_match and cand.kind is _PRONOUN:
            return False
        if (cfg.check_grammatical_person
                and cand.kind is _PRONOUN
                and m.pronoun is not None and cand.pronoun is not None
                and m.pronoun.grammatical_person is not cand.pronoun.grammatical_person):
            return False
        if cand.sentence_index == sentence:
            if dominates(cand.node, m.node):  # i-within-i
                return False
            if constraints is None:
                constraints = reflexive_subject(m), initial_adjuncts(m)
            subject_head, adjuncts = constraints
            if cand.head is subject_head:
                return False
            if adjuncts and any(dominates(adjunct, cand.node) for adjunct in adjuncts):
                return False
        return not (m.profile and cand.profile
                    and not type_compatible(m.profile, cand.profile, cfg))

    return accepts


def nominal_keys(m: Mention) -> tuple[tuple[str, str], ...]:
    """A nominal or proper mention matches a candidate that shares one of
    these keys with it: the casefolded head word, or for NNP heads of at
    least 4 characters its casefolded 4-character prefix ("Japan" / "the
    Japanese")."""
    head = m.head_word.casefold()
    if m.head_tag == "NNP" and len(head) >= 4:
        return ("head", head), ("prefix", head[:4])
    return (("head", head),)


def _nearest_acceptable(i: int, candidates: Iterable[int],
                        accepts: Optional[Callable[[Mention], bool]],
                        index: MentionIndex) -> Optional[Mention]:
    """Among the mentions at the ``candidates`` positions, given most recent
    first, that ``accepts`` passes (all of them when it is None), the one
    closest to the mention ``m`` at position ``i`` by tree path distance; a
    tie goes to the larger document-order key, and among equal keys to the
    earlier mention. None when no candidate is admitted.

    In ``m``'s sentence, mention order is preorder except between nodes of
    equal span. So for a candidate that is not an ancestor of ``m``, the
    lowest common ancestor (LCA) with ``m`` only rises as the scan goes
    back, and ``lca``, the lowest ancestor of ``m`` that holds every
    candidate of the sentence seen so far, bounds the distance of each
    later one from below by ``m.node.depth - lca.depth + 1``. That bound is
    for stopping only: among equal spans ``lca`` can sit above the true LCA.
    The scan stops at the first candidate whose bound reaches the best
    distance and whose span differs from the best one's: it and all earlier
    candidates that are not ancestors of ``m`` are no closer, and on a tie
    they lose to the best, whose document-order key is larger. Only the
    ancestors, at distance ``m.node.depth - depth``, can then still win.
    A pronoun takes none of them (i-within-i rejects them all), so its best
    stands; a nominal's key-sharing ancestors are looked up by node
    (``_closer_ancestor``).

    Past ``m``'s sentence the same bound holds with the LCA at depth s for
    a candidate of sentence s (``path_distance`` puts it at link s of its
    chain), so that bound grows as s falls. The scan stops at the first
    candidate in a sentence before the best one's whose bound reaches the
    best distance.
    """
    mentions = index.mentions
    m = mentions[i]
    best = None
    best_distance = 0
    node = m.node
    depth = node.depth
    sentence = m.sentence_index
    lca = node
    doc = index.doc
    for p in candidates:
        cand = mentions[p]
        c = cand.node
        s = cand.sentence_index
        if s == sentence:
            while not lca.node_id <= c.node_id < lca._post:
                lca = lca.parent
            if (best is not None and depth - lca.depth + 1 >= best_distance
                    and cand.span != best.span):
                return best if m.kind is _PRONOUN else (
                    _closer_ancestor(i, p, best_distance, index) or best)
        elif (best is not None and s < best.sentence_index
                and depth - s + 1 >= best_distance):
            break
        if accepts is not None and not accepts(cand):
            continue
        distance = path_distance(node, c, doc)
        # Scanning backwards, ``>=`` on the key gives the tie rule: the
        # larger key wins, and among equal keys the earlier position.
        if (best is None or distance < best_distance
                or (distance == best_distance
                    and document_order_key(cand) >= document_order_key(best))):
            best, best_distance = cand, distance
    return best


def _closer_ancestor(i: int, last: int, best_distance: int,
                     index: MentionIndex) -> Optional[Mention]:
    """Among the mentions at position ``last`` or before (the scan has seen
    the later ones) that share a nominal key with the mention at position
    ``i``, the earliest at the lowest ancestor of its node that is closer
    than ``best_distance``; None if there is none. Mentions at one node share
    their keys and tie on distance and document-order key, so the first one,
    which ``by_node`` holds, wins, as the scan's tie rule would pick it."""
    keys = index.keys_at[i]
    node = index.mentions[i].node
    depth = node.depth
    node = node.parent
    while node is not None and depth - node.depth < best_distance:
        p = index.by_node.get(node.node_id, last + 1)
        if p <= last and any(key in keys for key in index.keys_at[p]):
            return index.mentions[p]
        node = node.parent
    return None


def _resolve_one(m: Mention, i: int, index: MentionIndex, lex: Lexicon,
                 cfg: ResolveConfig,
                 candidate_log: Optional[dict[int, frozenset[int]]]
                 ) -> tuple[Optional[Mention], Rule]:
    """The antecedent (or None) of ``m``, the mention at position ``i`` of
    ``index``, and the rule that decided it."""
    antecedent = detect_appositive(m, i, index)
    if antecedent is not None:
        return antecedent, _APPOSITIVE
    antecedent = detect_role_appositive(m, i, index, cfg)
    if antecedent is not None:
        return antecedent, _ROLE_APPOSITIVE
    antecedent = detect_pred_nom(m, i, index, lex, cfg)
    if antecedent is not None:
        return antecedent, _PRED_NOM

    if m.kind is _PRONOUN:
        if not cfg.resolve_pronouns or (is_second_person(m) and not cfg.resolve_second_person):
            return None, _NULL_RESOLVE
        candidates, accepts = range(i - 1, -1, -1), pronoun_acceptor(m, cfg)
        rule = _PRONOUN_RESOLVE
    elif index.opens_keys[i]:
        # No earlier mention shares a nominal key: nothing to search.
        if candidate_log is not None:
            candidate_log[m.mention_id] = frozenset()
        return None, _NULL_RESOLVE
    else:
        candidates, accepts, rule = index.nominal_matches_before(i), None, _NOMINAL_RESOLVE
    if candidate_log is not None:
        # The log needs every accepted candidate; the search over them stops
        # where it would have stopped over all of them.
        mentions = index.mentions
        candidates = [p for p in candidates if accepts is None or accepts(mentions[p])]
        candidate_log[m.mention_id] = frozenset(mentions[p].mention_id for p in candidates)
        accepts = None
    chosen = _nearest_acceptable(i, candidates, accepts, index)
    return chosen, (_NULL_RESOLVE if chosen is None else rule)


def resolve_document(doc: DocumentTree, mentions: Sequence[Mention],
                     lex: Lexicon, cfg: Optional[ResolveConfig] = None,
                     candidate_log: Optional[dict[int, frozenset[int]]] = None
                     ) -> list[Decision]:
    """One decision per mention, in document order.

    Immediate patterns fire first (appositive, role appositive, predicate
    nominative, in that order). Otherwise, among the earlier mentions, a
    pronoun takes those ``pronoun_acceptor`` accepts and a nominal or
    proper mention those that share a nominal key with it, and the one
    closest by tree path distance wins; a tie goes to the most recent in
    document order. ``mentions`` must be in document order; the resolver
    addresses each by its position there (see ``MentionIndex``), and reads
    mention ids only to write the decisions and the log.

    Work whose result is known is skipped: a nominal or proper mention
    that no earlier mention shares a key with (``MentionIndex.opens_keys``)
    takes NullResolve without a search, a pronoun's syntactic constraints
    are only put to candidates of its own sentence (see
    ``pronoun_acceptor``), and its ancestors are never looked up.

    ``candidate_log``, when given, records the filtered candidate id set per
    mention that reached filtering (empty for a mention with no key-sharer);
    that filters every earlier candidate, but the distance search still
    stops early.
    """
    cfg = cfg or ResolveConfig()
    index = MentionIndex(doc, mentions)
    decisions = []
    for i, m in enumerate(index.mentions):
        antecedent, rule = _resolve_one(m, i, index, lex, cfg, candidate_log)
        # tuple.__new__ skips NamedTuple's generated Python __new__, as the
        # reader's object.__new__ does: about 320 ns against 560 ns on 3.11
        decisions.append(tuple.__new__(Decision, (
            m.mention_id, None if antecedent is None else antecedent.mention_id, rule)))
    return decisions
