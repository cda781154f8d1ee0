import json
import random
from itertools import islice
from pathlib import Path

import pytest

import coref.resolve
import coref.treebank
from coref import (Decision, DocumentError, Gender, Mention, MentionIndex,
                   MentionKind, Number,
                   Personhood, ResolveConfig, Rule, TokenAnnotation,
                   TypeProfile, annotation_index, attach_profiles,
                   build_profile, collins_head_child,
                   detect_appositive, detect_pred_nom,
                   detect_role_appositive, dominates, extract_mentions,
                   head_leaf, initial_adjuncts, map_gold_mentions,
                   read_ptb, reflexive_subject, resolve_document, run_pipeline,
                   type_compatible)
from coref.mention import PRONOUN_TAGS, PROPER_TAGS, _PROFILES, document_order_key
from coref.resolve import (_nearest_acceptable, _union_latest_first, is_second_person,
                           pronoun_acceptor)
from helpers import (EXAMPLE1_SENTENCES, bfs_distances, decision_for, doc_with_mentions,
                     eager_pronoun_acceptor, golden_documents, linked_tree,
                     mention_with_head, parse_doc, pipeline, single_flag_configs)

TRIBE = ("(S (NP (NP (NNP Lawrence) (NNP Tribe)) (, ,) (NP (DT the)"
         " (NNP Harvard) (NNP Law) (NNP School) (NN Professor)) (, ,))"
         " (VP (VBD spoke)) (. .))")
BOIES = ("(S (NP (NP (NNP David) (NNP Boies)) (, ,) (NP (NP (NNP Gore) (POS 's))"
         " (JJ chief) (NN trial) (NN lawyer)) (, ,)) (VP (VBD argued)) (. .))")
GRIDIRON = ("(S (NP (DT The) (NNP Gridiron) (NNP Club)) (VP (VBZ is)"
            " (NP (NP (DT an) (NN organization)) (PP (IN of) (NP (CD 60)"
            " (NNP Washington) (NNS journalists))))) (. .))")
LAMEU = ("(S (NP (NNP Lameu)) (VP (VBD was) (NP (NP (DT the) (JJ first)"
         " (NNP NHL) (NN player)) (S (VP (TO to) (VP (VB become)"
         " (NP (DT a) (NN owner))))))) (. .))")
KOETTER = ("(S (NP (NNP Koetter)) (VP (MD may) (RB not) (VP (VB have)"
           " (VP (VBN been) (NP (NP (NNP Arizona) (NNP State) (POS 's))"
           " (JJ top) (NN choice))))) (. .))")
BANK_IT = "(S (NP (DT The) (NN bank)) (VP (VBD ruined) (NP (PRP it))) (. .))"
BANK_ITSELF = "(S (NP (DT The) (NN bank)) (VP (VBD ruined) (NP (PRP itself))) (. .))"
WALMART = ("(S (NP (NNP Walmart)) (VP (VBZ says) (SBAR (S (NP (NP (NNP Gitano))"
           " (, ,) (NP (PRP$ its) (JJ top-selling) (NN brand)) (, ,))"
           " (VP (VBZ is) (VP (VBG underselling)))))) (. .))")
TO_CALL = ("(S (S (VP (TO To) (VP (VB call) (NP (NNP John))))) (, ,)"
           " (NP (PRP he)) (VP (VBD picked) (PRT (RP up)) (NP (DT the)"
           " (NN phone))) (. .))")
BECAUSE = ("(S (SBAR (IN Because) (S (NP (NNP John)) (VP (VBZ likes)"
           " (NP (NNS cars))))) (, ,) (NP (PRP he)) (VP (VBD bought)"
           " (NP (DT a) (NNP Ferrari))) (. .))")
ROLE_APPOS = ("(S (NP (NP (JJ Republican) (NN candidate)) (NP (NNP George)"
              " (NNP Bush))) (VP (VBD won)) (. .))")


def _prepared(lex, *sentences, annotations=()):
    doc, mentions = doc_with_mentions(*sentences)
    attach_profiles(mentions, annotation_index(list(annotations)), lex)
    return doc, mentions, MentionIndex(doc, mentions)


def _at(m, index):
    """The position of mention ``m`` in ``index``."""
    return index.mentions.index(m)


# ---------------------------------------------------------------------------
# Immediate patterns
# ---------------------------------------------------------------------------

def test_mention_before_finds_only_earlier_mentions(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, TRIBE, BOIES)
    for a in mentions:
        for j in range(len(mentions)):
            expected = a if mentions.index(a) < j else None
            assert index.mention_before(a.node, j) is expected
    # a node that is no mention's goes to the mention its head leaf heads
    boies = mention_with_head(mentions, "Boies")
    inner = boies.node.children[0]
    assert inner.label == "NP" and head_leaf(inner) is boies.head
    assert index.mention_before(inner, len(mentions) - 1) is boies
    assert index.mention_before(inner, 0) is None

def test_appositive_lawrence_tribe(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, TRIBE)
    professor = mention_with_head(mentions, "Professor")
    antecedent = detect_appositive(professor, _at(professor, index), index)
    assert antecedent is not None
    assert antecedent.head_word == "Tribe"


def test_appositive_david_boies(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, BOIES)
    lawyer = mention_with_head(mentions, "lawyer")
    antecedent = detect_appositive(lawyer, _at(lawyer, index), index)
    assert antecedent is not None
    assert antecedent.head_word == "Boies"


def test_appositive_requires_comma_sibling(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex, "(S (NP (NP (NN salt)) (CC and) (NP (NN pepper))) (VP (VBD sat)) (. .))")
    pepper = mention_with_head(mentions, "pepper")
    assert detect_appositive(pepper, _at(pepper, index), index) is None
    # a comma, but what precedes it is a pronoun leaf, not an NP
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NP (NNP Smith)) (PRP he) (, ,) (NP (NNP John))) (VP (VBD sat)) (. .))")
    john = mention_with_head(mentions, "John")
    assert mention_with_head(mentions, "he").node.label == "PRP"
    assert john.node.parent.label == "NP"
    assert detect_appositive(john, _at(john, index), index) is None


def test_role_appositive_links_person(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, ROLE_APPOS)
    bush = mention_with_head(mentions, "Bush")
    antecedent = detect_role_appositive(bush, _at(bush, index), index, ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "candidate"


def test_role_appositive_declines_with_comma(fixture_lex):
    with_comma = ("(S (NP (NP (JJ Republican) (NN candidate)) (, ,)"
                  " (NP (NNP George) (NNP Bush))) (VP (VBD won)) (. .))")
    doc, mentions, index = _prepared(fixture_lex, with_comma)
    bush = mention_with_head(mentions, "Bush")
    assert detect_role_appositive(bush, _at(bush, index), index, ResolveConfig()) is None
    # the plain appositive pattern picks it up instead
    assert detect_appositive(bush, _at(bush, index), index) is not None


def test_role_appositive_declines_not_person_sibling(fixture_lex):
    # Sibling nominal is annotated as a location; the proper mention itself
    # is person-annotated so only the compatibility gate can decline.
    fixture = ("(S (NP (NP (JJ coastal) (NN city)) (NP (NNP Quon) (NNP Varen)))"
               " (VP (VBD won)) (. .))")
    doc, mentions, index = _prepared(
        fixture_lex, fixture,
        annotations=[TokenAnnotation(0, 1, supersense="noun.location"),
                     TokenAnnotation(0, 3, supersense="noun.person")])
    varen = mention_with_head(mentions, "Varen")
    assert varen.profile.personhood is Personhood.PERSON
    city = mention_with_head(mentions, "city")
    assert city.profile.personhood is Personhood.NOT_PERSON
    assert detect_role_appositive(varen, _at(varen, index), index, ResolveConfig()) is None


def test_role_appositive_flag_off(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, ROLE_APPOS)
    bush = mention_with_head(mentions, "Bush")
    cfg = ResolveConfig(enable_role_appositive=False)
    assert detect_role_appositive(bush, _at(bush, index), index, cfg) is None


def test_role_appositive_stays_inside_its_sentence():
    """A nominal sentence and a proper person sentence are no role
    appositive: a sentence root has no parent, so the two NPs are not
    siblings."""
    result = pipeline(["(NP (NN candidate))", "(NP (NNP George) (NNP Bush))"],
                      annotations=[TokenAnnotation(1, 1, supersense="noun.person")])
    assert [d.rule for d in result.decisions] == [Rule.NULL, Rule.NULL]
    assert [result.clustering.label_of(m.mention_id) for m in result.mentions] == [1, 2]


def test_golden_syntactic_patterns_link_mentions_of_one_sentence():
    """Under the default config and each single ablation flag, every
    Appositive, RoleAppositive and PredNom decision on the golden corpora
    links two mentions of the same sentence."""
    configs = single_flag_configs()
    documents = golden_documents()
    patterns = {Rule.APPOSITIVE, Rule.ROLE_APPOSITIVE, Rule.PRED_NOM}
    seen = 0
    for cfg in configs:
        for document in documents:
            try:
                result = run_pipeline(document, cfg)
            except DocumentError:
                continue
            sentence = {m.mention_id: m.sentence_index for m in result.mentions}
            for d in result.decisions:
                if d.rule in patterns:
                    assert sentence[d.mention_id] == sentence[d.antecedent]
                    seen += 1
    assert seen > 0


def test_role_appositive_declines_a_mention_that_is_not_an_np(fixture_lex):
    # A gold span over a bare NNP maps to the leaf itself, which the pattern
    # does not take even after a nominal NP sibling.
    doc = parse_doc("(S (NP (JJ Republican) (NN candidate)) (NNP Bush) (VP (VBD won)) (. .))")
    mentions = map_gold_mentions(doc, [(0, 0, 2), (0, 2, 3)])
    attach_profiles(mentions, annotation_index([TokenAnnotation(0, 2, supersense="noun.person")]),
                    fixture_lex)
    bush = mention_with_head(mentions, "Bush")
    assert bush.node.label == "NNP" and bush.profile.personhood is Personhood.PERSON
    index = MentionIndex(doc, mentions)
    assert detect_role_appositive(bush, _at(bush, index), index, ResolveConfig()) is None


def test_pred_nom_gridiron(lex):
    doc, mentions, index = _prepared(lex, GRIDIRON)
    organization = mention_with_head(mentions, "organization")
    antecedent = detect_pred_nom(organization, _at(organization, index), index, lex,
                                 ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "Club"


def test_pred_nom_lameu(lex):
    doc, mentions, index = _prepared(lex, LAMEU)
    player = mention_with_head(mentions, "player")
    antecedent = detect_pred_nom(player, _at(player, index), index, lex, ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "Lameu"


def test_pred_nom_modal_flag(lex):
    doc, mentions, index = _prepared(lex, KOETTER)
    choice = mention_with_head(mentions, "choice")
    default = detect_pred_nom(choice, _at(choice, index), index, lex, ResolveConfig())
    assert default is not None and default.head_word == "Koetter"
    strict = detect_pred_nom(choice, _at(choice, index), index, lex,
                             ResolveConfig(pred_nom_exclude_modals=True))
    assert strict is None


def test_pred_nom_requires_copula(lex):
    doc, mentions, index = _prepared(
        lex, "(S (NP (NNP Lameu)) (VP (VBD bought) (NP (DT a) (NN team))) (. .))")
    team = mention_with_head(mentions, "team")
    assert detect_pred_nom(team, _at(team, index), index, lex, ResolveConfig()) is None


@pytest.mark.parametrize("sentence, head", [
    # an NP inside the copula's VP but before the copula
    ("(S (NP (NNP Lameu)) (VP (NP (DT this) (NN season)) (VBD was) (NP (DT a) (NN star)))"
     " (. .))", "season"),
    # a clause with no subject NP before the verb group
    ("(S (VP (VBZ is) (NP (DT a) (NN star))) (. .))", "star"),
    # a VP chain that is not under a clause (a reduced relative)
    ("(S (NP (NP (NNP Lameu)) (VP (VBG being) (NP (DT a) (NN star)))) (VP (VBD left)) (. .))",
     "star"),
], ids=["complement-before-copula", "no-subject", "not-under-a-clause"])
def test_pred_nom_declines_without_a_subject_before_the_copula(lex, sentence, head):
    doc, mentions, index = _prepared(lex, sentence)
    m = mention_with_head(mentions, head)
    assert detect_pred_nom(m, _at(m, index), index, lex, ResolveConfig()) is None


# ---------------------------------------------------------------------------
# Pronoun constraints
# ---------------------------------------------------------------------------

def test_i_within_i_walmart(lex):
    doc, mentions, index = _prepared(lex, WALMART)
    its = mention_with_head(mentions, "its")
    gitano = mention_with_head(mentions, "Gitano")
    brand = mention_with_head(mentions, "brand")
    assert gitano.node.span == (2, 8)  # the appositive-containing NP
    assert dominates(gitano.node, its.node)
    assert dominates(brand.node, its.node)
    walmart = mention_with_head(mentions, "Walmart")
    assert not dominates(walmart.node, its.node)


def test_i_within_i_cross_sentence_is_false(lex):
    doc, mentions, index = _prepared(
        lex,
        "(S (NP (DT the) (NN bank)) (VP (VBD closed)) (. .))",
        "(S (NP (PRP it)) (VP (VBD reopened)) (. .))")
    it = mention_with_head(mentions, "it")
    bank = mention_with_head(mentions, "bank")
    assert not dominates(bank.node, it.node)


def test_i_within_i_self_is_violation(lex):
    doc, mentions, index = _prepared(lex, "(S (NP (PRP it)) (VP (VBD broke)) (. .))")
    it = mention_with_head(mentions, "it")
    assert dominates(it.node, it.node)


def test_reflexive_violation_bank_it(lex):
    doc, mentions, index = _prepared(lex, BANK_IT)
    it = mention_with_head(mentions, "it")
    bank = mention_with_head(mentions, "bank")
    assert reflexive_subject(it) is bank.head


def test_reflexive_ok_bank_itself(lex):
    doc, mentions, index = _prepared(lex, BANK_ITSELF)
    itself = mention_with_head(mentions, "itself")
    assert reflexive_subject(itself) is None  # the bank is not excluded


def test_reflexive_cross_sentence_candidate_is_false(lex):
    doc, mentions, index = _prepared(
        lex,
        "(S (NP (DT the) (NN fund)) (VP (VBD grew)) (. .))",
        BANK_IT)
    it = mention_with_head(mentions, "it")
    fund = mention_with_head(mentions, "fund")
    assert reflexive_subject(it) is not fund.head


def test_adjunct_violation_to_call_john(lex):
    doc, mentions, index = _prepared(lex, TO_CALL)
    he = mention_with_head(mentions, "he")
    john = mention_with_head(mentions, "John")
    assert any(dominates(a, john.node) for a in initial_adjuncts(he))


def test_adjunct_because_john_is_allowed(lex):
    doc, mentions, index = _prepared(lex, BECAUSE)
    he = mention_with_head(mentions, "he")
    john = mention_with_head(mentions, "John")
    assert not any(dominates(a, john.node) for a in initial_adjuncts(he))


def test_adjunct_candidate_outside_adjunct(lex):
    doc, mentions, index = _prepared(
        lex,
        "(S (NP (NNP John)) (VP (VBD slept)) (. .))",
        TO_CALL)
    he = mention_with_head(mentions, "he")
    earlier_john = mention_with_head(mentions, "John", occurrence=0)
    assert not any(dominates(a, earlier_john.node) for a in initial_adjuncts(he))


def test_adjuncts_only_bind_a_subject_pronoun(lex):
    # "him" sits under the clause with no VP after it: not a subject
    doc, mentions, index = _prepared(
        lex, "(S (S (VP (TO To) (VP (VB call) (NP (NNP John))))) (VP (VBD saw)) (NP (PRP him))"
             " (. .))")
    assert initial_adjuncts(mention_with_head(mentions, "him")) == []


def test_gerund_adjunct_blocks(lex):
    doc, mentions, index = _prepared(
        lex,
        "(S (S (VP (VBG Calling) (NP (NNP John)))) (, ,) (NP (PRP he))"
        " (VP (VBD waved)) (. .))")
    he = mention_with_head(mentions, "he")
    john = mention_with_head(mentions, "John")
    assert any(dominates(a, john.node) for a in initial_adjuncts(he))


# ---------------------------------------------------------------------------
# Type compatibility
# ---------------------------------------------------------------------------

def _profile(g=Gender.UNKNOWN, p=Personhood.UNKNOWN, n=Number.UNKNOWN):
    return TypeProfile(gender=g, personhood=p, number=n)


def test_unknown_never_clashes():
    pron = _profile(Gender.MALE, Personhood.PERSON, Number.SINGULAR)
    cand = _profile(n=Number.SINGULAR)
    assert type_compatible(pron, cand, ResolveConfig())


def test_person_vs_notperson_clash():
    pron = _profile(Gender.MALE, Personhood.PERSON, Number.SINGULAR)
    cand = _profile(p=Personhood.NOT_PERSON)
    assert not type_compatible(pron, cand, ResolveConfig())
    assert type_compatible(pron, cand, ResolveConfig(check_personhood=False))


def test_number_clash():
    pron = _profile(n=Number.SINGULAR)
    cand = _profile(n=Number.PLURAL)
    assert not type_compatible(pron, cand, ResolveConfig())
    assert type_compatible(pron, cand, ResolveConfig(check_number=False))


def test_gender_clash():
    pron = _profile(g=Gender.MALE)
    cand = _profile(g=Gender.FEMALE)
    assert not type_compatible(pron, cand, ResolveConfig())
    assert type_compatible(pron, cand, ResolveConfig(check_gender=False))


def test_strict_typecheck_rejects_unknown_candidate():
    pron = _profile(Gender.MALE, Personhood.PERSON, Number.SINGULAR)
    cand = _profile(n=Number.SINGULAR)
    assert type_compatible(pron, cand, ResolveConfig())
    assert not type_compatible(pron, cand, ResolveConfig(strict_typecheck=True))
    matching = _profile(Gender.MALE, Personhood.PERSON, Number.SINGULAR)
    assert type_compatible(pron, matching, ResolveConfig(strict_typecheck=True))


# ---------------------------------------------------------------------------
# Pools, filters, selection: the candidate scans and decisions the search runs
# ---------------------------------------------------------------------------

def _accepted(m, index, cfg=ResolveConfig()):
    """The earlier mentions that pronoun ``m``'s search admits, most recent
    first."""
    return list(filter(pronoun_acceptor(m, cfg), index.mentions[:_at(m, index)][::-1]))


def _searched_pools(monkeypatch):
    """Replace ``coref.resolve._nearest_acceptable`` with a wrapper that
    records each search's position and its candidate positions, in the
    order drawn, in the dict returned."""
    pools = {}
    original = coref.resolve._nearest_acceptable

    def recorded(i, candidates, accepts, index):
        pools[i] = list(candidates)
        return original(i, pools[i], accepts, index)

    monkeypatch.setattr(coref.resolve, "_nearest_acceptable", recorded)
    return pools


def test_candidate_pool(fixture_lex, monkeypatch):
    """A pronoun's search is offered every earlier position, most recent
    first."""
    pools = _searched_pools(monkeypatch)
    result = pipeline(["(S (NP (PRP He)) (VP (VBD saw) (NP (DT the) (NN dog))"
                       " (NP (PRP it))) (. .))"], lex=fixture_lex)
    assert [m.head_word for m in result.mentions] == ["He", "dog", "it"]
    assert pools[0] == []
    assert pools[2] == [1, 0]
    assert sorted(pools) == [0, 2]
    for i, pool in pools.items():
        assert i not in pool
        assert all(p < i for p in pool)


def test_filter_pronoun_john_bought_himself(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, EXAMPLE1_SENTENCES[0])
    himself = mention_with_head(mentions, "himself")
    kept = _accepted(himself, index)
    assert [m.head_word for m in kept] == ["John"]


def test_filter_pronoun_drops_pro_pro_when_disabled(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (PRP he)) (VP (VBD waved)) (. .))",
        "(S (NP (PRP he)) (VP (VBD left)) (. .))")
    second = mentions[1]
    assert len(_accepted(second, index)) == 1
    assert _accepted(second, index, ResolveConfig(allow_pro_pro_match=False)) == []


def test_filter_pronoun_grammatical_person_check(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (PRP I)) (VP (VBD waved)) (. .))",
        "(S (NP (PRP he)) (VP (VBD left)) (. .))")
    he = mentions[1]
    assert len(_accepted(he, index)) == 1
    assert _accepted(he, index, ResolveConfig(check_grammatical_person=True)) == []


def test_filter_nominal_substring_rule(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NNP Japan)) (VP (VBD exported) (NP (NNS cars))) (. .))",
        "(S (NP (DT the) (NNP Japanese)) (VP (VBD bought) (NP (NNS houses))) (. .))")
    japanese = mention_with_head(mentions, "Japanese")
    kept = [mentions[p] for p in index.nominal_matches_before(_at(japanese, index))]
    assert [m.head_word for m in kept] == ["Japan"]


def test_filter_nominal_exact_head_match_false_positive(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (JJ Korean) (NNS officials)) (VP (VBD met)) (. .))",
        "(S (NP (JJ Iranian) (NNS officials)) (VP (VBD agreed)) (. .))")
    kept = [mentions[p] for p in index.nominal_matches_before(1)]
    assert [m.head_word for m in kept] == ["officials"]


def test_filter_nominal_short_prefix_mismatch(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NNP Iran)) (VP (VBD signed)) (. .))",
        "(S (NP (NNP Iraq)) (VP (VBD refused)) (. .))")
    iraq = mention_with_head(mentions, "Iraq")
    assert list(index.nominal_matches_before(_at(iraq, index))) == []


def test_select_antecedent_empty_is_null(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, "(S (NP (NN rain)))")
    assert resolve_document(doc, mentions, fixture_lex) == [
        Decision(mentions[0].mention_id, None, Rule.NULL)]


def test_select_antecedent_calverts(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (DT the) (NNPS Calverts)) (VP (VBD were) (ADJP (JJ interested)"
        " (PP (IN in) (S (VP (VBG creating) (NP (JJ profitable) (NNS estates)))))))"
        " (. .))",
        "(S (NP (PRP they)) (VP (VBD encouraged) (NP (NN immigration))) (. .))")
    they = mention_with_head(mentions, "they")
    calverts = mention_with_head(mentions, "Calverts")
    estates = mention_with_head(mentions, "estates")
    kept = _accepted(they, index)
    assert calverts in kept and estates in kept
    decisions = resolve_document(doc, mentions, fixture_lex)
    assert decisions[_at(they, index)] == Decision(
        they.mention_id, calverts.mention_id, Rule.PRONOUN)


def test_select_antecedent_tie_prefers_most_recent(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NN cat)) (NP (NN dog)) (NP (NN fox)))")
    fox = mention_with_head(mentions, "fox")
    cat = mention_with_head(mentions, "cat")
    dog = mention_with_head(mentions, "dog")
    # both candidates are siblings of fox: equal distance 2
    adjacency, _ = linked_tree(doc)
    assert _select_antecedent(fox, [cat, dog], adjacency) is dog
    assert _select_antecedent(fox, [dog, cat], adjacency) is dog
    i = _at(fox, index)
    assert _nearest_acceptable(i, range(i - 1, -1, -1), None, index) is dog


# ---------------------------------------------------------------------------
# Whole-document resolution
# ---------------------------------------------------------------------------

def test_resolve_example1_decisions(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    by_head = {}
    for m in result.mentions:
        by_head.setdefault(m.head_word, []).append(m)
    decision = {m.mention_id: d for m, d in zip(result.mentions, result.decisions)}

    john1, john2, john3 = by_head["John"]
    himself1, himself2 = by_head["himself"]
    (he,) = by_head["he"]
    (him,) = by_head["him"]
    (fred,) = by_head["Fred"]

    assert decision[himself1.mention_id].antecedent == john1.mention_id
    assert decision[himself2.mention_id].antecedent == john2.mention_id
    assert decision[he.mention_id].antecedent == fred.mention_id
    assert decision[him.mention_id].antecedent == he.mention_id
    assert decision[john2.mention_id].rule is Rule.NOMINAL
    assert decision[john3.mention_id].antecedent in (john1.mention_id,
                                                     john2.mention_id)
    for word in ("book", "computer", "anything"):
        (m,) = by_head[word]
        assert decision[m.mention_id].rule is Rule.NULL
    assert len(result.clustering) == 5


def test_single_mention_document_resolves_null(fixture_lex):
    result = pipeline(["(S (NP (DT a) (NN storm)) (VP (VBD hit)) (. .))"],
                      lex=fixture_lex)
    assert result.decisions == [type(result.decisions[0])(0, None, Rule.NULL)]


def test_decision_list_length_equals_mention_count(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    assert len(result.decisions) == len(result.mentions)
    position = {m.mention_id: i for i, m in enumerate(result.mentions)}
    for d, m in zip(result.decisions, result.mentions):
        assert d.mention_id == m.mention_id
        if d.antecedent is not None:
            assert position[d.antecedent] < position[d.mention_id]


def test_never_resolve_pronouns(fixture_lex):
    cfg = ResolveConfig(resolve_pronouns=False)
    result = pipeline(EXAMPLE1_SENTENCES, cfg=cfg, lex=fixture_lex)
    assert all(d.rule is not Rule.PRONOUN for d in result.decisions)
    pronouns = [m for m in result.mentions if m.kind is MentionKind.PRONOUN]
    assert pronouns
    decision = {d.mention_id: d for d in result.decisions}
    assert all(decision[m.mention_id].antecedent is None for m in pronouns)


def test_never_resolve_second_person(fixture_lex):
    sentences = [
        "(S (NP (NNP John)) (VP (VBD spoke)) (. .))",
        "(S (NP (PRP You)) (VP (VBD listened)) (. .))",
    ]
    default = pipeline(sentences, lex=fixture_lex)
    you = mention_with_head(default.mentions, "You")
    assert decision_for(default, you).antecedent is not None
    strict = pipeline(sentences, cfg=ResolveConfig(resolve_second_person=False),
                      lex=fixture_lex)
    you = mention_with_head(strict.mentions, "You")
    assert decision_for(strict, you).antecedent is None


def test_ablation_only_grows_candidate_sets(fixture_lex):
    base = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    base_log = {}
    resolve_document(base.tree, base.mentions, fixture_lex, ResolveConfig(), base_log)
    for flag in ("check_gender", "check_personhood", "check_number"):
        cfg = ResolveConfig(**{flag: False})
        result = pipeline(EXAMPLE1_SENTENCES, cfg=cfg, lex=fixture_lex)
        log = {}
        resolve_document(result.tree, result.mentions, fixture_lex, cfg, log)
        assert set(log) == set(base_log)
        for mid, candidates in base_log.items():
            assert candidates <= log[mid]


def test_immediate_rule_fires_before_filtering(fixture_lex):
    result = pipeline([TRIBE], lex=fixture_lex)
    professor = mention_with_head(result.mentions, "Professor")
    d = decision_for(result, professor)
    assert d.rule is Rule.APPOSITIVE
    tribe = mention_with_head(result.mentions, "Tribe")
    assert d.antecedent == tribe.mention_id


# ---------------------------------------------------------------------------
# Nearest-candidate search against the exhaustive reference
# ---------------------------------------------------------------------------

LONG = Path(__file__).resolve().parent / "golden" / "long.jsonl"


def _long_sentences():
    """(sentence, its annotations) pairs from ``golden/long.jsonl``."""
    pairs = []
    for line in LONG.read_text(encoding="utf-8").splitlines():
        data = json.loads(line)
        notes = {}
        for ann in data.get("annotations", []):
            notes.setdefault(ann["s"], []).append(ann)
        pairs += [(text, notes.get(i, [])) for i, text in enumerate(data["sentences"])]
    return pairs


# Same-head siblings (equal-distance ties), both nominal keys at once, and
# the constraint examples above.
_EXTRA_SENTENCES = [
    "(S (NP (NP (NN dog)) (CC and) (NP (NN dog))) (VP (VBD saw) (NP (PRP it))) (. .))",
    "(S (NP (NNP Japan)) (VP (VBD met) (NP (DT the) (NNP Japanese))) (. .))",
    "(S (NP (NNP Japanese)) (VP (VBD left) (NP (NNP Japan) (POS 's)"
    " (NN dog))) (. .))",
    "(S (NP (PRP He)) (VP (VBD told) (NP (PRP him)) (NP (PRP$ his)"
    " (NN story))) (. .))",
    "(S (NP (NP (NN cat)) (NP (NN dog)) (NP (NN fox))) (VP (VBD ran)) (. .))",
    # A gendered title with a trailing dot after an ungendered one, and
    # "Leslie", which is on both census name lists.
    "(S (NP (NP (NNP Leslie) (NNP Mary) (NNP Kim)) (, ,) (NP (NP (NNP Dr.)"
    " (NNP Leslie)) (PP (IN of) (NP (NNP Mr.) (NNP John) (NNP Kim)))))"
    " (VP (VBD left)) (. .))",
    # A title just past the end of a mention ("the boss") is not in it.
    "(S (PP (IN For) (NP (DT the) (NN boss))) (NP (NNP Dr.) (NNP Kim))"
    " (VP (VBD left)) (. .))",
    TRIBE, BOIES, GRIDIRON, LAMEU, KOETTER, BANK_IT, BANK_ITSELF, WALMART,
    TO_CALL, BECAUSE, ROLE_APPOS, *EXAMPLE1_SENTENCES,
]


def _random_documents(seed, count):
    """Seeded documents of 1-30 sentences drawn from ``long.jsonl`` and the
    sentences above; every third one carries random gold mention spans,
    some of them duplicated."""
    rng = random.Random(seed)
    pool = _long_sentences() + [(text, []) for text in _EXTRA_SENTENCES]
    docs = []
    for k in range(count):
        chosen = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
        annotations = [TokenAnnotation(s, ann["t"], ann.get("supersense"), ann.get("ner"))
                       for s, (_, notes) in enumerate(chosen) for ann in notes]
        gold = None
        if k % 3 == 2:
            doc, _ = doc_with_mentions(*(text for text, _ in chosen))
            lengths = [root.span[1] for root in doc.sentence_roots]
            gold = []
            for _ in range(rng.randint(1, 8 * len(chosen))):
                s = rng.randrange(len(chosen))
                start = rng.randrange(lengths[s])
                gold.append((s, start, rng.randint(start + 1, min(start + 4, lengths[s]))))
            gold += rng.sample(gold, len(gold) // 4)
        docs.append(([text for text, _ in chosen], annotations, gold))
    return docs


_WORDS = ["(NNP John)", "(NNP Johnson)", "(NNP Mary)", "(NNP Japan)",
          "(DT the) (NNP Japanese)", "(DT the) (NN dog)", "(PRP$ his) (NN dog)",
          "(PRP he)", "(PRP she)", "(PRP it)", "(PRP him)", "(PRP herself)"]


def _random_np(rng, depth):
    """A random NP: a name, pronoun or common noun, or, ``depth`` levels
    down at most, a unary chain of 1-3 NPs, an "of" phrase, an appositive or
    a coordination, sometimes a wide one."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return "(NP " + rng.choice(_WORDS) + ")"
    if r < 0.45:
        levels = rng.randint(1, 3)
        return "(NP " * levels + _random_np(rng, depth - 1) + ")" * levels
    if r < 0.6:
        return f"(NP {_random_np(rng, depth - 1)} (PP (IN of) {_random_np(rng, depth - 1)}))"
    if r < 0.7:
        return f"(NP {_random_np(rng, depth - 1)} (, ,) {_random_np(rng, depth - 1)})"
    width, inner = rng.choice([(2, depth - 1), (3, depth - 1), (rng.randint(4, 24), 0)])
    return "(NP " + " (CC and) ".join(_random_np(rng, inner) for _ in range(width)) + ")"


def _same_sentence_documents(seed, count):
    """Seeded documents of 1-3 sentences built around ``_random_np``: wide
    coordinations, nested NPs and unary NP chains, so that most candidates
    share the mention's sentence. Every other one carries gold mention
    spans, each repeated 1-3 times: the spans of random NPs (a unary chain's
    spans all map to its lowest NP) and of random nodes, some cut short."""
    rng = random.Random(seed)
    docs = []
    for k in range(count):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            subject, obj = _random_np(rng, 3), _random_np(rng, 2)
            if rng.random() < 0.5:
                obj = f"(SBAR (IN that) (S {_random_np(rng, 2)} (VP (VBD met) {obj})))"
            sentences.append(f"(S {subject} (VP (VBD saw) {obj}) (. .))")
        gold = None
        if k % 2:
            doc = parse_doc(*sentences)
            nps = [node for node in doc.nodes if node.label == "NP"]
            nodes = [node for node in doc.nodes if node.sentence_index >= 0]
            gold = []
            for _ in range(rng.randint(4, 10) * len(sentences)):
                node = rng.choice(nps if rng.random() < 0.7 else nodes)
                s, (start, end) = node.sentence_index, node.span
                if rng.random() < 0.2:
                    end = min(rng.randint(start + 1, start + 3), end)
                gold += [(s, start, end)] * rng.randint(1, 3)
        docs.append((sentences, [], gold))
    return docs


def _every_np_mentions(doc, lex, rng):
    """Every NP and pronoun leaf of ``doc`` as one or two mentions, in
    document order with ties in random order: unlike extraction, which keeps
    the highest NP per head, a unary NP chain gives mentions at each node,
    so mentions of equal span sit at different nodes as well as at one."""
    nodes = [node for node in doc.nodes if node.label in ("NP", "PRP", "PRP$")]
    mentions = [Mention(-1, node) for node in nodes for _ in range(rng.randint(1, 2))]
    mentions.sort(key=lambda m: (document_order_key(m), rng.random()))
    for i, m in enumerate(mentions):
        m.mention_id = i
    attach_profiles(mentions, {}, lex)
    return mentions


def _nominal_match(m, cand):
    """The nominal rule stated directly: equal casefolded heads, or two NNP
    heads of at least 4 characters with the same first 4."""
    x, y = m.head_word.casefold(), cand.head_word.casefold()
    return x == y or (m.head_tag == cand.head_tag == "NNP"
                      and len(x) >= 4 and len(y) >= 4 and x[:4] == y[:4])


def _select_antecedent(m, candidates, adjacency):
    """The candidate closest by tree path distance, counted by one
    breadth-first search from ``m`` over ``adjacency``, the document's
    ``linked_tree``; ties go to the most recent mention in document order.
    No candidates resolve to None."""
    if not candidates:
        return None
    distances = bfs_distances(adjacency, m.node)
    best = None
    best_distance = None
    for cand in candidates:
        distance = distances[cand.node]
        if (best is None or distance < best_distance
                or (distance == best_distance
                    and document_order_key(cand) > document_order_key(best))):
            best, best_distance = cand, distance
    return best


def _exhaustive(doc, mentions, lex, cfg):
    """Decisions and candidate log by filtering the whole candidate pool of
    every mention, then selecting over all survivors."""
    index = MentionIndex(doc, mentions)
    adjacency, _ = linked_tree(doc)
    decisions, log = [], {}
    for i, m in enumerate(index.mentions):
        immediate = [(Rule.APPOSITIVE, detect_appositive(m, i, index)),
                     (Rule.ROLE_APPOSITIVE, detect_role_appositive(m, i, index, cfg)),
                     (Rule.PRED_NOM, detect_pred_nom(m, i, index, lex, cfg))]
        rule, antecedent = next(((r, a) for r, a in immediate if a is not None),
                                (None, None))
        if antecedent is not None:
            decisions.append(Decision(m.mention_id, antecedent.mention_id, rule))
            continue
        pool = index.mentions[:i]
        if m.kind is MentionKind.PRONOUN:
            if not cfg.resolve_pronouns or (is_second_person(m)
                                            and not cfg.resolve_second_person):
                decisions.append(Decision(m.mention_id, None, Rule.NULL))
                continue
            accepts = eager_pronoun_acceptor(m, cfg)
            kept, rule = [cand for cand in pool if accepts(cand)], Rule.PRONOUN
        else:
            kept, rule = [cand for cand in pool if _nominal_match(m, cand)], Rule.NOMINAL
        log[m.mention_id] = frozenset(c.mention_id for c in kept)
        chosen = _select_antecedent(m, kept, adjacency)
        decisions.append(Decision(m.mention_id, None, Rule.NULL) if chosen is None
                         else Decision(m.mention_id, chosen.mention_id, rule))
    return decisions, log


# "he" is 7 edges from John, across the sentence boundary, and 8 from "the
# king", its nearest acceptable mention in its own sentence: a cross-sentence
# distance one edge off sends "he" to the king.
_PREVIOUS_SENTENCE_NEARER = [
    "(S (NP (NNP John)) (VP (VBD left)) (. .))",
    "(S (NP (NP (NNP Mary)) (VP (VBN seen) (PP (IN by) (NP (DT the) (NN king)))))"
    " (VP (VBD said) (SBAR (IN that) (S (NP (PRP he)) (VP (VBD won))))) (. .))",
]


def test_search_matches_exhaustive_reference_on_random_documents(lex):
    """Also over the same-sentence shapes, with extracted, gold and every-NP
    mentions: the last two put duplicated spans at one node, and unary
    chains put equal spans at different nodes; and over a document where a
    pronoun's nearest candidate lies one sentence back, by one edge."""
    docs = _random_documents(20261018, 24)
    assert sum(gold is not None for _, _, gold in docs) == 8
    shapes = _same_sentence_documents(1975, 8)
    docs += shapes
    docs.append((_PREVIOUS_SENTENCE_NEARER, [], None))
    every_np = [(doc, _every_np_mentions(doc, lex, random.Random(k)))
                for k, doc in enumerate(parse_doc(*sentences) for sentences, _, _ in shapes)]
    # gold documents whose mention ids are not their positions, so that a
    # resolver reading an id as a position fails here
    ids_not_positions = 0
    for cfg in single_flag_configs():
        for sentences, annotations, gold in docs:
            result = pipeline(sentences, annotations=annotations,
                              gold_mentions=gold, cfg=cfg, lex=lex)
            ids_not_positions += gold is not None and any(
                m.mention_id != i for i, m in enumerate(result.mentions))
            expected, expected_log = _exhaustive(result.tree, result.mentions, lex, cfg)
            assert result.decisions == expected
            log = {}
            assert resolve_document(result.tree, result.mentions, lex, cfg, log) == expected
            assert log == expected_log
        for doc, mentions in every_np:
            expected, expected_log = _exhaustive(doc, mentions, lex, cfg)
            assert resolve_document(doc, mentions, lex, cfg) == expected
            log = {}
            assert resolve_document(doc, mentions, lex, cfg, log) == expected
            assert log == expected_log
    assert ids_not_positions > 0


def test_lazy_pronoun_acceptor_agrees_with_the_eager_oracle(lex):
    """For every pronoun and every earlier mention of the golden corpora and
    the random documents, under the default config and each single ablation
    flag, ``pronoun_acceptor`` gives the eager oracle's verdict, whether the
    pool is drawn most recent first, as the search draws it, or oldest
    first."""
    results = []
    for cfg in single_flag_configs():
        for document in golden_documents():
            try:
                results.append((cfg, run_pipeline(document, cfg, lex)))
            except DocumentError:
                continue
        results += [(cfg, pipeline(sentences, annotations=annotations,
                                   gold_mentions=gold, cfg=cfg, lex=lex))
                    for sentences, annotations, gold in _random_documents(20261020, 24)]
    rejected_in_sentence = accepted_across = 0
    for cfg, result in results:
        mentions = result.mentions
        for i, m in enumerate(mentions):
            if m.kind is not MentionKind.PRONOUN:
                continue
            oracle = eager_pronoun_acceptor(m, cfg)
            expected = [oracle(cand) for cand in mentions[:i]]
            latest_first = pronoun_acceptor(m, cfg)
            assert [latest_first(cand) for cand in reversed(mentions[:i])] == expected[::-1]
            oldest_first = pronoun_acceptor(m, cfg)
            assert [oldest_first(cand) for cand in mentions[:i]] == expected
            for cand, verdict in zip(mentions, expected):
                same = cand.sentence_index == m.sentence_index
                rejected_in_sentence += same and not verdict
                accepted_across += not same and verdict
    assert rejected_in_sentence > 0 and accepted_across > 0


def test_pronoun_acceptor_rejects_every_mention_at_an_ancestor(lex):
    """i-within-i holds under every config: for every pronoun of the golden
    corpora and the random documents, under the default config and each
    single ablation flag, ``pronoun_acceptor`` rejects each mention at a
    proper ancestor of the pronoun's node. A pronoun's search relies on it
    to skip the ancestor lookup a nominal's search makes."""
    checked = 0
    for cfg in single_flag_configs():
        results = []
        for document in golden_documents():
            try:
                results.append(run_pipeline(document, cfg, lex))
            except DocumentError:
                continue
        results += [pipeline(sentences, annotations=annotations,
                             gold_mentions=gold, cfg=cfg, lex=lex)
                    for sentences, annotations, gold in _random_documents(20261021, 24)]
        for result in results:
            at_node = {}
            for m in result.mentions:
                at_node.setdefault(m.node.node_id, []).append(m)
            for m in result.mentions:
                if m.kind is not MentionKind.PRONOUN:
                    continue
                accepts = pronoun_acceptor(m, cfg)
                node = m.node.parent
                while node is not None:
                    for cand in at_node.get(node.node_id, ()):
                        assert not accepts(cand)
                        checked += 1
                    node = node.parent
    assert checked > 0


def _counting(monkeypatch, name):
    """Replace ``coref.resolve.<name>`` with a wrapper that appends each
    call's first argument to the list returned."""
    calls = []
    original = getattr(coref.resolve, name)

    def counted(first, *args):
        calls.append(first)
        return original(first, *args)

    monkeypatch.setattr(coref.resolve, name, counted)
    return calls


def test_mentions_no_earlier_mention_shares_a_key_with_are_not_searched(lex, monkeypatch):
    """200 sentences of distinct noun heads: no nominal search runs, every
    decision is NullResolve, and a ``candidate_log`` still records an empty
    set for each mention."""
    sentences = [f"(S (NP (DT the) (NN thing{k})) (VP (VBD ran)) (. .))" for k in range(200)]
    searched = _counting(monkeypatch, "_nearest_acceptable")
    result = pipeline(sentences, lex=lex)
    assert len(result.mentions) == 200
    assert all(d.rule is Rule.NULL for d in result.decisions)
    log = {}
    assert resolve_document(result.tree, result.mentions, lex, candidate_log=log) \
        == result.decisions
    assert log == {m.mention_id: frozenset() for m in result.mentions}
    assert searched == []


def test_a_mention_that_shares_one_of_its_two_keys_is_searched(lex):
    """An NNP head of 4 or more characters has a head key and a prefix key.
    "Bush" shares only the head key with the common noun "bush" before it,
    and "Bushnell" only the prefix key with "Bush": each is searched and
    resolved."""
    result = pipeline(["(S (NP (DT The) (NN bush)) (VP (VBD burned)) (. .))",
                       "(S (NP (NNP Bush)) (VP (VBD left)) (. .))",
                       "(S (NP (NNP Bushnell)) (VP (VBD stayed)) (. .))"], lex=lex)
    assert result.decisions == [Decision(0, None, Rule.NULL), Decision(1, 0, Rule.NOMINAL),
                                Decision(2, 1, Rule.NOMINAL)]


def test_pronoun_constraints_are_found_only_for_a_same_sentence_candidate(lex, monkeypatch):
    """"John ran." and "He ran." alternating: no search reaches a candidate
    in its pronoun's sentence, so neither constraint is computed. In "John
    said he won." each is computed once per pronoun."""
    subjects = _counting(monkeypatch, "reflexive_subject")
    adjuncts = _counting(monkeypatch, "initial_adjuncts")
    john = "(S (NP (NNP John)) (VP (VBD ran)) (. .))"
    he = "(S (NP (PRP He)) (VP (VBD ran)) (. .))"
    result = pipeline([john, he] * 50, lex=lex)
    assert [d.rule for d in result.decisions].count(Rule.PRONOUN) == 50
    assert subjects == [] and adjuncts == []
    said = ("(S (NP (NNP John)) (VP (VBD said) (SBAR (S (NP (PRP he))"
            " (VP (VBD won))))) (. .))")
    result = pipeline([said] * 20, lex=lex)
    pronouns = [m for m in result.mentions if m.kind is MentionKind.PRONOUN]
    assert len(pronouns) == 20
    assert subjects == pronouns and adjuncts == pronouns


def test_index_scans_visit_each_pool_candidate_once_most_recent_first(lex, monkeypatch):
    """Each search is offered its stream's positions most recent first,
    each once: a pronoun every earlier one, a nominal or proper mention
    those whose mention shares a nominal key with it."""
    pools = _searched_pools(monkeypatch)
    pronoun_searches = 0
    for sentences, annotations, gold in (_random_documents(1310, 12)
                                         + _same_sentence_documents(1310, 6)):
        pools.clear()
        result = pipeline(sentences, annotations=annotations, gold_mentions=gold, lex=lex)
        index = MentionIndex(result.tree, result.mentions)
        for i, m in enumerate(index.mentions):
            nominal = [p for p in range(i) if _nominal_match(m, index.mentions[p])][::-1]
            assert list(index.nominal_matches_before(i)) == nominal
            if i in pools:
                pronoun = m.kind is MentionKind.PRONOUN
                assert pools[i] == (list(range(i))[::-1] if pronoun else nominal)
                pronoun_searches += pronoun
    assert pronoun_searches > 0


def test_mention_before_compares_positions_where_ids_are_not_positions(lex):
    """On the random documents, gold ones included, ``mention_before(node,
    j)`` gives the first mention at ``node``, else the first headed by its
    head leaf, exactly when that mention's position is before ``j``."""
    ids_not_positions = 0
    for sentences, annotations, gold in _random_documents(1311, 12):
        result = pipeline(sentences, annotations=annotations, gold_mentions=gold, lex=lex)
        index = MentionIndex(result.tree, result.mentions)
        mentions = index.mentions
        ids_not_positions += any(m.mention_id != i for i, m in enumerate(mentions))
        for node in {x for m in mentions for x in (m.node, m.node.parent, m.head) if x}:
            at = ([p for p, m in enumerate(mentions) if m.node is node]
                  or [p for p, m in enumerate(mentions) if m.head is head_leaf(node)])
            first = at[0] if at else len(mentions)
            for j in {0, first, first + 1, len(mentions)}:
                expected = mentions[first] if at and first < j else None
                assert index.mention_before(node, j) is expected
    assert ids_not_positions > 0


def _extract_mentions_by_sorting(doc):
    """Extraction without relying on preorder: the highest NP per head leaf
    by depth, then the PRP/PRP$ leaves that head no NP, stably sorted by
    ``document_order_key`` and numbered in that order."""
    highest_for_head = {}
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
    mentions = [Mention(-1, node) for node in highest_for_head.values()]
    mentions.sort(key=document_order_key)
    for i, m in enumerate(mentions):
        m.mention_id = i
    return mentions


def _extraction_documents():
    """The random and same-sentence documents as linked trees, with their
    gold spans (or None)."""
    return [(parse_doc(*sentences), gold) for sentences, _, gold
            in _random_documents(20261019, 24) + _same_sentence_documents(20261019, 60)]


def test_extraction_in_one_pass_matches_the_sorting_oracle():
    """Same nodes, heads, kinds and ids, in the same order; the documents
    hold unary NP chains, pronoun-headed NPs, PRP$ leaves and wide
    coordinations."""
    shapes = {"unary chain": 0, "pronoun-headed NP": 0, "PRP$ leaf": 0, "wide": 0}
    for doc, _ in _extraction_documents():
        got, expected = extract_mentions(doc), _extract_mentions_by_sorting(doc)
        assert ([(m.mention_id, m.node, m.head, m.kind) for m in got]
                == [(m.mention_id, m.node, m.head, m.kind) for m in expected])
        for node in doc.nodes:
            if node.label == "NP":
                shapes["unary chain"] += [c.label for c in node.children] == ["NP"]
                shapes["pronoun-headed NP"] += head_leaf(node).label in PRONOUN_TAGS
                shapes["wide"] += len(node.children) >= 7
        shapes["PRP$ leaf"] += sum(m.node.label == "PRP$" for m in got)
    assert all(shapes.values()), shapes


def test_mention_fields_are_copies_of_node_and_head_facts():
    for doc, gold in _extraction_documents():
        mentions = extract_mentions(doc)
        if gold is not None:
            mentions += map_gold_mentions(doc, gold)
        for m in mentions:
            assert m.sentence_index == m.node.sentence_index
            assert m.span == m.node.span
            assert m.head is head_leaf(m.node)
            assert m.head_word == m.head.token
            assert m.head_tag == m.head.label
            assert m.kind is (MentionKind.PRONOUN if m.head_tag in PRONOUN_TAGS
                              else MentionKind.PROPER if m.head_tag in PROPER_TAGS
                              else MentionKind.NOMINAL)


class _CountedRun(list):
    """An ascending position run that counts the elements read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_key_runs_read_latest_first_as_a_set_and_only_as_far_as_drawn():
    """The union of two runs (sharing positions, or one of them empty, as
    for a one-key mention) gives ``sorted(set(a) | set(b), reverse=True)``;
    drawing k positions reads O(k) run elements, k + 1 from a lone run,
    never a whole run."""
    rng = random.Random(2013)
    for trial in range(400):
        shared = rng.sample(range(300), rng.randint(0, 10))
        a, b = ([] if trial % 7 == side else
                sorted(set(rng.sample(range(300), rng.randint(0, 40)) + shared))
                for side in (3, 5))
        i, j = rng.randint(0, len(a)), rng.randint(0, len(b))
        expected = sorted(set(a[:i]) | set(b[:j]), reverse=True)
        assert list(_union_latest_first(a, i, b, j)) == expected
        k = rng.randint(0, len(expected))
        ra, rb = _CountedRun(a), _CountedRun(b)
        assert list(islice(_union_latest_first(ra, i, rb, j), k)) == expected[:k]
        assert ra.reads + rb.reads <= 2 * k + 2
        if not b:
            assert ra.reads <= k + 1


def test_search_tie_on_duplicated_gold_span_goes_to_the_earlier_mention(lex):
    """Gold mentions 0 and 2 share a span, so they have equal distance and
    equal document-order keys for any later mention: the one earlier in the
    input (and in document order) wins."""
    sentences = ["(S (NP (NNP John)) (VP (VBD left)) (. .))",
                 "(S (NP (NNP John)) (VP (VBD returned)) (. .))"]
    gold = [(0, 0, 1), (1, 0, 1), (0, 0, 1)]
    result = pipeline(sentences, gold_mentions=gold, lex=lex)
    assert [m.mention_id for m in result.mentions] == [0, 2, 1]
    expected, _ = _exhaustive(result.tree, result.mentions, lex, ResolveConfig())
    assert result.decisions == expected
    assert result.decisions[1:] == [Decision(2, 0, Rule.NOMINAL),
                                    Decision(1, 0, Rule.NOMINAL)]


def test_path_distance_calls_per_mention_stay_flat_on_a_long_document(lex, monkeypatch):
    """400 sentences from ``long.jsonl``, repeated: the search computes few
    distances per mention where filtering every earlier mention computed
    one per surviving candidate (68 per mention on this document), and
    filling a ``candidate_log`` does not turn the early stop off."""
    pairs = _long_sentences()
    sentences = [pairs[i % len(pairs)][0] for i in range(400)]
    calls = 0
    distance = coref.resolve.path_distance

    def counted(a, b, doc):
        nonlocal calls
        calls += 1
        return distance(a, b, doc)

    monkeypatch.setattr(coref.resolve, "path_distance", counted)
    result = pipeline(sentences, lex=lex)
    assert len(result.mentions) == 900
    assert calls <= 4 * len(result.mentions)
    calls, log = 0, {}
    assert resolve_document(result.tree, result.mentions, lex, candidate_log=log) \
        == result.decisions
    assert sum(map(len, log.values())) > 4 * len(result.mentions)
    assert calls <= 4 * len(result.mentions)


# Two-sentence shapes whose pronouns reject every other sentence's mention
# when pronoun-pronoun matches are off: by gender or number, or by being a
# pronoun themselves.
_ALTERNATING_SHAPES = {
    "John-She": ("(S (NP (NNP John)) (VP (VBD ran)) (. .))",
                 "(S (NP (PRP She)) (VP (VBD ran)) (. .))"),
    "cars-it": ("(S (NP (NNS cars)) (VP (VBD ran)) (. .))",
                "(S (NP (PRP it)) (VP (VBD ran)) (. .))"),
    "I-you": ("(S (NP (PRP I)) (VP (VBD ran)) (. .))",
              "(S (NP (PRP you)) (VP (VBD ran)) (. .))"),
}


def _single_flag_cases():
    cases = []
    for cfg in single_flag_configs():
        changed = [name for name in cfg._fields
                   if getattr(cfg, name) != getattr(ResolveConfig(), name)]
        name = changed[0] if changed else "default"
        marks = ()
        if name == "allow_pro_pro_match":
            marks = pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 2: with pronoun-pronoun matches off, every earlier "
                "mention is rejected and the search is quadratic"))
        cases.append(pytest.param(cfg, id=name, marks=marks))
    return cases


@pytest.mark.parametrize("cfg", _single_flag_cases())
def test_pronoun_acceptor_calls_per_pronoun_stay_flat_on_alternating_sentences(
        lex, monkeypatch, cfg):
    """On each alternating shape, the candidates a pronoun's search puts to
    its acceptor stay about the same, per pronoun, from 200 to 400
    sentences: under the default config each pronoun tries about 2."""
    calls = 0
    acceptor = coref.resolve.pronoun_acceptor

    def counting_acceptor(m, config):
        accepts = acceptor(m, config)

        def counted(cand):
            nonlocal calls
            calls += 1
            return accepts(cand)
        return counted

    monkeypatch.setattr(coref.resolve, "pronoun_acceptor", counting_acceptor)
    for shape in _ALTERNATING_SHAPES.values():
        per_pronoun = []
        for n in (200, 400):
            calls = 0
            result = pipeline([shape[i % 2] for i in range(n)], cfg=cfg, lex=lex)
            pronouns = sum(m.kind is MentionKind.PRONOUN for m in result.mentions)
            per_pronoun.append(calls / pronouns)
        assert per_pronoun[1] <= 1.1 * per_pronoun[0] + 0.05, (shape, per_pronoun)


@pytest.mark.parametrize("n", [200, 400])
def test_path_distance_calls_per_mention_stay_flat_on_a_wide_coordination(lex, monkeypatch, n):
    """One sentence of n coordinated "JohnK" NPs, each sharing the "john"
    prefix key with every earlier one: a search that stopped only between
    sentences computed a distance to each, n(n-1)/2 in all (19,900 and
    79,800). The LCA bound stops it after the nearest sibling, and the
    coordination's own mention, an ancestor, wins at distance 1."""
    sentence = ("(S (NP " + " (CC and) ".join(f"(NP (NNP John{k}))" for k in range(n))
                + ") (VP (VBD left)) (. .))")
    calls = 0
    distance = coref.resolve.path_distance

    def counted(a, b, doc):
        nonlocal calls
        calls += 1
        return distance(a, b, doc)

    monkeypatch.setattr(coref.resolve, "path_distance", counted)
    result = pipeline([sentence], lex=lex)
    assert len(result.mentions) == n
    assert calls <= 2 * n
    calls, log = 0, {}
    assert resolve_document(result.tree, result.mentions, lex, candidate_log=log) \
        == result.decisions
    assert calls <= 2 * n
    assert sum(map(len, log.values())) == n * (n - 1) // 2
    first = result.mentions[0]
    assert first.node is result.tree.sentence_roots[0].children[0]
    assert all(d.antecedent == first.mention_id for d in result.decisions[1:])


def test_linked_node_facts_match_their_walks_on_random_documents(lex, fixture_lex):
    """Build-time heads, sliced tokens and per-sentence profile cues give what
    walking each node, and profiling each mention on its own over an
    unlinked copy of its sentence, give."""
    documents = _random_documents(20261018, 24) + [(_EXTRA_SENTENCES, [], None)]
    pairs = []  # (mention, its unlinked copy) of every document
    for sentences, annotations, gold in documents:
        result = pipeline(sentences, annotations=annotations, gold_mentions=gold, lex=lex)
        doc = result.tree
        for node in reversed(doc.nodes):  # deepest first; extraction went top down
            leaf = node
            while leaf.children:
                leaf = leaf.children[collins_head_child(leaf)]
            assert head_leaf(node) is leaf
            assert node.tokens() == [x.token for x in node.leaves()]
        copies = []
        for s, text in enumerate(sentences):
            (root,) = read_ptb(text)
            copies.append(list(root.walk()))
            for node in copies[-1]:
                node.sentence_index = s

        def unlinked(node):
            offset = node.node_id - doc.sentence_roots[node.sentence_index].node_id
            return copies[node.sentence_index][offset]

        here = [(m, Mention(m.mention_id, unlinked(m.node))) for m in result.mentions]
        assert all(copy.head is unlinked(m.head) and copy.kind is m.kind for m, copy in here)
        index = annotation_index(annotations)
        for lexicon in (lex, fixture_lex):
            for use_word_lists in (True, False):
                attach_profiles(result.mentions, index, lexicon,
                                use_word_lists=use_word_lists)
                for m, copy in here:
                    assert copy.node.doc is None and copy.tokens() == m.tokens()
                    assert m.profile == build_profile(copy, index, lexicon,
                                                      use_word_lists=use_word_lists)
                    assert m.profile is _PROFILES[m.profile]  # shared, not built
        pairs += here
    # One call over the mentions of many documents.
    attach_profiles([m for m, _ in pairs], {}, lex)
    assert all(m.profile == build_profile(copy, {}, lex) for m, copy in pairs)


def _np_nest(depth):
    """One sentence whose subject is ``depth`` NPs, each (NP (DT the) NP),
    around (NN dog): every NP has the same head leaf."""
    return ("(S " + "(NP (DT the) " * depth + "(NN dog)" + ")" * depth
            + " (VP (VBD barked)) (. .))")


def _of_chain(levels):
    """One sentence whose subject is "the w0 of the w1 of ...", ``levels``
    NPs deep, with "Mr. Smith" and "Mary" a third and two thirds down."""
    words = [f"(NP (DT the) (NN w{i}))" for i in range(levels)]
    words[levels // 3] = "(NP (NNP Mr.) (NNP Smith))"
    words[2 * levels // 3] = "(NP (NNP Mary))"
    np = words[-1]
    for word in reversed(words[:-1]):
        np = f"(NP (NP {word[4:-1]}) (PP (IN of) {np}))"
    return f"(S {np} (VP (VBD left)) (. .))"


class _Counted(dict):
    """A lexicon table that counts the lookups made through it."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("sentence", [_np_nest(1500), _of_chain(1000)],
                         ids=["np-nest-1500", "of-chain-1000"])
def test_deep_shapes_find_each_head_once_and_look_each_token_up_once(lex, monkeypatch,
                                                                     sentence):
    """Every head child is computed once per document and every token is
    looked up once per table, however deeply the mentions nest. Computed
    per mention instead, they cost about 1.1M head-child calls on the nest
    and 1.3M word-list lookups on the chain."""
    heads = 0
    head_child = coref.treebank.collins_head_child

    def counted(node):
        nonlocal heads
        heads += 1
        return head_child(node)

    monkeypatch.setattr(coref.treebank, "collins_head_child", counted)
    counting = lex._replace(titles=_Counted(lex.titles),
                            first_names=_Counted(lex.first_names))
    sentences = [sentence, "(S (NP (PRP He)) (VP (VBD left)) (. .))"]
    result = pipeline(sentences, lex=counting)
    interior = sum(1 for node in result.tree.nodes if node.children)
    tokens = sum(root.span[1] for root in result.tree.sentence_roots)
    assert heads <= 2 * interior
    assert counting.titles.lookups <= 2 * tokens
    assert counting.first_names.lookups <= 2 * tokens
    expected, _ = _exhaustive(result.tree, result.mentions, lex, ResolveConfig())
    assert result.decisions == expected
