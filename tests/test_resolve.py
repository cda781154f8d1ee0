import json
import random
from itertools import islice
from pathlib import Path

import pytest

import coref.resolve
import coref.treebank
from coref import (Decision, Gender, Mention, MentionIndex, MentionKind, Number,
                   Personhood, ResolveConfig, Rule, TokenAnnotation,
                   TypeProfile, annotation_index, attach_profiles,
                   build_profile, candidate_pool, collins_head_child,
                   detect_appositive, detect_pred_nom,
                   detect_role_appositive, dominates, extract_mentions, filter_nominal,
                   filter_pronoun, head_leaf, initial_adjuncts, map_gold_mentions, read_ptb,
                   reflexive_subject, resolve_document, select_antecedent,
                   type_compatible)
from coref.mention import PRONOUN_TAGS, _PROFILES, _kind_of_tag, document_order_key
from coref.resolve import _latest_first, _union_latest_first, is_second_person
from helpers import (EXAMPLE1_SENTENCES, decision_for, doc_with_mentions,
                     mention_with_head, parse_doc, pipeline)

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


# ---------------------------------------------------------------------------
# Immediate patterns
# ---------------------------------------------------------------------------

def test_mention_before_finds_only_earlier_mentions(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, TRIBE, BOIES)
    for a in mentions:
        for b in mentions:
            expected = a if mentions.index(a) < mentions.index(b) else None
            assert index.mention_before(a.node, b) is expected
    # a node that is no mention's goes to the mention its head leaf heads
    boies = mention_with_head(mentions, "Boies")
    inner = boies.node.children[0]
    assert inner.label == "NP" and head_leaf(inner) is boies.head
    assert index.mention_before(inner, mentions[-1]) is boies
    assert index.mention_before(inner, mentions[0]) is None

def test_appositive_lawrence_tribe(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, TRIBE)
    professor = mention_with_head(mentions, "Professor")
    antecedent = detect_appositive(professor, index)
    assert antecedent is not None
    assert antecedent.head_word == "Tribe"


def test_appositive_david_boies(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, BOIES)
    lawyer = mention_with_head(mentions, "lawyer")
    antecedent = detect_appositive(lawyer, index)
    assert antecedent is not None
    assert antecedent.head_word == "Boies"


def test_appositive_requires_comma_sibling(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex, "(S (NP (NP (NN salt)) (CC and) (NP (NN pepper))) (VP (VBD sat)) (. .))")
    pepper = mention_with_head(mentions, "pepper")
    assert detect_appositive(pepper, index) is None
    # a comma, but what precedes it is a pronoun leaf, not an NP
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NP (NNP Smith)) (PRP he) (, ,) (NP (NNP John))) (VP (VBD sat)) (. .))")
    john = mention_with_head(mentions, "John")
    assert mention_with_head(mentions, "he").node.label == "PRP"
    assert john.node.parent.label == "NP"
    assert detect_appositive(john, index) is None


def test_role_appositive_links_person(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, ROLE_APPOS)
    bush = mention_with_head(mentions, "Bush")
    antecedent = detect_role_appositive(bush, index, ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "candidate"


def test_role_appositive_declines_with_comma(fixture_lex):
    with_comma = ("(S (NP (NP (JJ Republican) (NN candidate)) (, ,)"
                  " (NP (NNP George) (NNP Bush))) (VP (VBD won)) (. .))")
    doc, mentions, index = _prepared(fixture_lex, with_comma)
    bush = mention_with_head(mentions, "Bush")
    assert detect_role_appositive(bush, index, ResolveConfig()) is None
    # the plain appositive pattern picks it up instead
    assert detect_appositive(bush, index) is not None


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
    assert detect_role_appositive(varen, index, ResolveConfig()) is None


def test_role_appositive_flag_off(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, ROLE_APPOS)
    bush = mention_with_head(mentions, "Bush")
    cfg = ResolveConfig(enable_role_appositive=False)
    assert detect_role_appositive(bush, index, cfg) is None


def test_role_appositive_declines_a_mention_that_is_not_an_np(fixture_lex):
    # A gold span over a bare NNP maps to the leaf itself, which the pattern
    # does not take even after a nominal NP sibling.
    doc = parse_doc("(S (NP (JJ Republican) (NN candidate)) (NNP Bush) (VP (VBD won)) (. .))")
    mentions = map_gold_mentions(doc, [(0, 0, 2), (0, 2, 3)])
    attach_profiles(mentions, annotation_index([TokenAnnotation(0, 2, supersense="noun.person")]),
                    fixture_lex)
    bush = mention_with_head(mentions, "Bush")
    assert bush.node.label == "NNP" and bush.profile.personhood is Personhood.PERSON
    assert detect_role_appositive(bush, MentionIndex(doc, mentions), ResolveConfig()) is None


def test_pred_nom_gridiron(lex):
    doc, mentions, index = _prepared(lex, GRIDIRON)
    organization = mention_with_head(mentions, "organization")
    antecedent = detect_pred_nom(organization, index, lex, ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "Club"


def test_pred_nom_lameu(lex):
    doc, mentions, index = _prepared(lex, LAMEU)
    player = mention_with_head(mentions, "player")
    antecedent = detect_pred_nom(player, index, lex, ResolveConfig())
    assert antecedent is not None
    assert antecedent.head_word == "Lameu"


def test_pred_nom_modal_flag(lex):
    doc, mentions, index = _prepared(lex, KOETTER)
    choice = mention_with_head(mentions, "choice")
    default = detect_pred_nom(choice, index, lex, ResolveConfig())
    assert default is not None and default.head_word == "Koetter"
    strict = detect_pred_nom(choice, index, lex,
                             ResolveConfig(pred_nom_exclude_modals=True))
    assert strict is None


def test_pred_nom_requires_copula(lex):
    doc, mentions, index = _prepared(
        lex, "(S (NP (NNP Lameu)) (VP (VBD bought) (NP (DT a) (NN team))) (. .))")
    team = mention_with_head(mentions, "team")
    assert detect_pred_nom(team, index, lex, ResolveConfig()) is None


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
    assert detect_pred_nom(mention_with_head(mentions, head), index, lex, ResolveConfig()) is None


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
# Pools, filters, selection
# ---------------------------------------------------------------------------

def test_candidate_pool(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NNP John)) (VP (VBD saw) (NP (DT the) (NN dog))"
        " (NP (DT a) (NN cat))) (. .))")
    assert candidate_pool(mentions[0], index) == []
    assert candidate_pool(mentions[2], index) == mentions[:2]
    for i, m in enumerate(mentions):
        pool = candidate_pool(m, index)
        assert m not in pool
        assert all(index.position[c.mention_id] < index.position[m.mention_id]
                   for c in pool)


def test_filter_pronoun_john_bought_himself(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, EXAMPLE1_SENTENCES[0])
    himself = mention_with_head(mentions, "himself")
    pool = candidate_pool(himself, index)
    kept = filter_pronoun(himself, pool, ResolveConfig())
    assert [m.head_word for m in kept] == ["John"]


def test_filter_pronoun_drops_pro_pro_when_disabled(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (PRP he)) (VP (VBD waved)) (. .))",
        "(S (NP (PRP he)) (VP (VBD left)) (. .))")
    second = mentions[1]
    pool = candidate_pool(second, index)
    assert len(filter_pronoun(second, pool, ResolveConfig())) == 1
    assert filter_pronoun(second, pool,
                          ResolveConfig(allow_pro_pro_match=False)) == []


def test_filter_pronoun_grammatical_person_check(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (PRP I)) (VP (VBD waved)) (. .))",
        "(S (NP (PRP he)) (VP (VBD left)) (. .))")
    he = mentions[1]
    pool = candidate_pool(he, index)
    assert len(filter_pronoun(he, pool, ResolveConfig())) == 1
    assert filter_pronoun(he, pool,
                          ResolveConfig(check_grammatical_person=True)) == []


def test_filter_nominal_substring_rule(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NNP Japan)) (VP (VBD exported) (NP (NNS cars))) (. .))",
        "(S (NP (DT the) (NNP Japanese)) (VP (VBD bought) (NP (NNS houses))) (. .))")
    japanese = mention_with_head(mentions, "Japanese")
    kept = filter_nominal(japanese, candidate_pool(japanese, index))
    assert [m.head_word for m in kept] == ["Japan"]


def test_filter_nominal_exact_head_match_false_positive(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (JJ Korean) (NNS officials)) (VP (VBD met)) (. .))",
        "(S (NP (JJ Iranian) (NNS officials)) (VP (VBD agreed)) (. .))")
    second = mentions[1]
    kept = filter_nominal(second, candidate_pool(second, index))
    assert [m.head_word for m in kept] == ["officials"]


def test_filter_nominal_short_prefix_mismatch(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NNP Iran)) (VP (VBD signed)) (. .))",
        "(S (NP (NNP Iraq)) (VP (VBD refused)) (. .))")
    iraq = mention_with_head(mentions, "Iraq")
    assert filter_nominal(iraq, candidate_pool(iraq, index)) == []


def test_select_antecedent_empty_is_null(fixture_lex):
    doc, mentions, index = _prepared(fixture_lex, "(S (NP (NN rain)))")
    assert select_antecedent(mentions[0], [], doc) is None


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
    kept = filter_pronoun(they, candidate_pool(they, index), ResolveConfig())
    assert calverts in kept and estates in kept
    assert select_antecedent(they, kept, doc) is calverts


def test_select_antecedent_tie_prefers_most_recent(fixture_lex):
    doc, mentions, index = _prepared(
        fixture_lex,
        "(S (NP (NN cat)) (NP (NN dog)) (NP (NN fox)))")
    fox = mention_with_head(mentions, "fox")
    cat = mention_with_head(mentions, "cat")
    dog = mention_with_head(mentions, "dog")
    # both candidates are siblings of fox: equal distance 2
    assert select_antecedent(fox, [cat, dog], doc) is dog
    assert select_antecedent(fox, [dog, cat], doc) is dog


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
    for d, m in zip(result.decisions, result.mentions):
        assert d.mention_id == m.mention_id
        if d.antecedent is not None:
            assert d.antecedent < d.mention_id or True  # ids follow order
            position = {x.mention_id: i for i, x in enumerate(result.mentions)}
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
    mentions = [Mention(-1, node, head_leaf(node), _kind_of_tag(head_leaf(node).label))
                for node in nodes for _ in range(rng.randint(1, 2))]
    mentions.sort(key=lambda m: (document_order_key(m), rng.random()))
    for i, m in enumerate(mentions):
        m.mention_id = i
    attach_profiles(mentions, {}, lex)
    return mentions


def _configs():
    """The default config and every single-flag ablation."""
    default = ResolveConfig()
    return [default] + [ResolveConfig(**{name: not getattr(default, name)})
                        for name in ResolveConfig._fields]


def _nominal_match(m, cand):
    """The nominal rule stated directly: equal casefolded heads, or two NNP
    heads of at least 4 characters with the same first 4."""
    x, y = m.head_word.casefold(), cand.head_word.casefold()
    return x == y or (m.head_tag == cand.head_tag == "NNP"
                      and len(x) >= 4 and len(y) >= 4 and x[:4] == y[:4])


def _exhaustive(doc, mentions, lex, cfg):
    """Decisions and candidate log by filtering the whole candidate pool of
    every mention, then selecting over all survivors."""
    index = MentionIndex(doc, mentions)
    decisions, log = [], {}
    for m in index.mentions:
        immediate = [(Rule.APPOSITIVE, detect_appositive(m, index)),
                     (Rule.ROLE_APPOSITIVE, detect_role_appositive(m, index, cfg)),
                     (Rule.PRED_NOM, detect_pred_nom(m, index, lex, cfg))]
        rule, antecedent = next(((r, a) for r, a in immediate if a is not None),
                                (None, None))
        if antecedent is not None:
            decisions.append(Decision(m.mention_id, antecedent.mention_id, rule))
            continue
        pool = candidate_pool(m, index)
        if m.kind is MentionKind.PRONOUN:
            if not cfg.resolve_pronouns or (is_second_person(m)
                                            and not cfg.resolve_second_person):
                decisions.append(Decision(m.mention_id, None, Rule.NULL))
                continue
            kept, rule = filter_pronoun(m, pool, cfg), Rule.PRONOUN
        else:
            kept, rule = filter_nominal(m, pool), Rule.NOMINAL
            assert kept == [cand for cand in pool if _nominal_match(m, cand)]
        log[m.mention_id] = frozenset(c.mention_id for c in kept)
        chosen = select_antecedent(m, kept, doc)
        decisions.append(Decision(m.mention_id, None, Rule.NULL) if chosen is None
                         else Decision(m.mention_id, chosen.mention_id, rule))
    return decisions, log


def test_search_matches_exhaustive_reference_on_random_documents(lex):
    """Also over the same-sentence shapes, with extracted, gold and every-NP
    mentions: the last two put duplicated spans at one node, and unary
    chains put equal spans at different nodes."""
    docs = _random_documents(20261018, 24)
    assert sum(gold is not None for _, _, gold in docs) == 8
    shapes = _same_sentence_documents(1975, 8)
    docs += shapes
    every_np = [(doc, _every_np_mentions(doc, lex, random.Random(k)))
                for k, doc in enumerate(parse_doc(*sentences) for sentences, _, _ in shapes)]
    for cfg in _configs():
        for sentences, annotations, gold in docs:
            result = pipeline(sentences, annotations=annotations,
                              gold_mentions=gold, cfg=cfg, lex=lex)
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


def test_index_scans_visit_each_pool_candidate_once_most_recent_first(lex):
    for sentences, annotations, gold in (_random_documents(1310, 12)
                                         + _same_sentence_documents(1310, 6)):
        result = pipeline(sentences, annotations=annotations, gold_mentions=gold, lex=lex)
        index = MentionIndex(result.tree, result.mentions)
        for m in index.mentions:
            pool = candidate_pool(m, index)
            assert list(index.before(m)) == pool[::-1]
            assert list(index.nominal_matches_before(m)) == filter_nominal(m, pool)[::-1]


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
    mentions = [Mention(-1, node, leaf, _kind_of_tag(leaf.label))
                for leaf, node in highest_for_head.items()]
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
            assert m.head_word == (m.head.token or "")
            assert m.head_tag == m.head.label


class _CountedRun(list):
    """An ascending position run that counts the elements read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_key_runs_read_latest_first_as_a_set_and_only_as_far_as_drawn():
    """One run read backwards, and the union of two (sharing positions, or
    one of them empty), give ``sorted(set(a) | set(b), reverse=True)``;
    drawing k positions reads O(k) run elements, never a whole run."""
    positions = range(1000)  # stands in for the mentions: position i -> i
    rng = random.Random(2013)
    for trial in range(400):
        shared = rng.sample(range(300), rng.randint(0, 10))
        a, b = ([] if trial % 7 == side else
                sorted(set(rng.sample(range(300), rng.randint(0, 40)) + shared))
                for side in (3, 5))
        i, j = rng.randint(0, len(a)), rng.randint(0, len(b))
        expected = sorted(set(a[:i]) | set(b[:j]), reverse=True)
        assert list(_union_latest_first(positions, a, i, b, j)) == expected
        assert list(_latest_first(positions, a, i)) == a[:i][::-1]
        k = rng.randint(0, len(expected))
        ra, rb = _CountedRun(a), _CountedRun(b)
        assert list(islice(_union_latest_first(positions, ra, i, rb, j), k)) == expected[:k]
        assert ra.reads + rb.reads <= 2 * k + 2
        ra.reads = 0
        assert list(islice(_latest_first(positions, ra, i), k)) == a[:i][::-1][:k]
        assert ra.reads <= k


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

        here = [(m, Mention(m.mention_id, unlinked(m.node), unlinked(m.head), m.kind))
                for m in result.mentions]
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
