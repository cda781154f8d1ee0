import random

import pytest

from coref import (Gender, Mention, MentionKind, Number, Personhood, PtbParseError,
                   TokenAnnotation, annotation_index, attach_profiles, extract_mentions,
                   map_gold_mentions, read_document, read_ptb)
from coref.mention import PRONOUN_TAGS, PROPER_TAGS, _WordCues
from coref.treebank import dominates, head_leaf
from helpers import (doc_with_mentions, golden_documents, mention_with_head, parse_doc,
                     profile_of, reference_map_gold_mentions)

ACCOUNTING = ("(NP (NP (DT the) (JJ revised) (NN accounting))"
              " (PP (IN of) (NP (DT the) (NN incident))))")


def test_nested_np_same_head_is_one_mention():
    doc, mentions = doc_with_mentions(ACCOUNTING)
    assert [m.head_word for m in mentions] == ["accounting", "incident"]
    outer = mentions[0]
    assert outer.node is doc.sentence_roots[0]  # the largest NP for "accounting"
    assert outer.span == (0, 6)
    assert mentions[1].span == (4, 6)


def test_single_bare_np():
    _, mentions = doc_with_mentions("(NP (DT a) (NN dog))")
    assert len(mentions) == 1
    assert mentions[0].head_word == "dog"


def test_same_word_distinct_occurrences_are_two_mentions():
    _, mentions = doc_with_mentions(
        "(S (NP (NP (DT a) (NN report)) (CC and) (NP (DT a) (NN report))))")
    heads = [m.head_word for m in mentions]
    assert heads == ["report", "report"]
    assert mentions[0].head is not mentions[1].head
    assert mentions[0].span == (0, 5)  # coordination NP shares the left head
    assert mentions[1].span == (3, 5)


def test_no_nps_yields_no_mentions():
    _, mentions = doc_with_mentions("(S (VP (VBD rained)) (. .))")
    assert mentions == []


def test_empty_document():
    from coref import link_document
    assert extract_mentions(link_document([])) == []


def test_possessive_pronoun_leaf_becomes_mention():
    _, mentions = doc_with_mentions(
        "(S (NP (PRP$ its) (JJ top-selling) (NN brand)) (VP (VBD sank)) (. .))")
    heads = {m.head_word for m in mentions}
    assert heads == {"its", "brand"}
    its = mention_with_head(mentions, "its")
    assert its.kind is MentionKind.PRONOUN
    assert its.node.is_leaf()
    assert its.span == (0, 1)


def test_wrapped_pronoun_uses_the_np_node():
    _, mentions = doc_with_mentions("(S (NP (PRP he)) (VP (VBD ran)) (. .))")
    (he,) = mentions
    assert he.kind is MentionKind.PRONOUN
    assert he.node.label == "NP"


def test_mention_order_and_ids():
    _, mentions = doc_with_mentions(
        "(S (NP (NNP John)) (VP (VBD saw) (NP (DT the) (NN dog))) (. .))",
        "(S (NP (PRP He)) (VP (VBD left)) (. .))")
    assert [m.mention_id for m in mentions] == [0, 1, 2]
    assert [m.head_word for m in mentions] == ["John", "dog", "He"]


def test_maximality_and_completeness_brute_force():
    docs = [
        doc_with_mentions(ACCOUNTING),
        doc_with_mentions(
            "(S (NP (NP (NNP Lawrence) (NNP Tribe)) (, ,) (NP (DT the)"
            " (NN Professor)) (, ,)) (VP (VBD said)) (. .))"),
        doc_with_mentions(
            "(S (NP (NP (NNP Gore) (POS 's)) (JJ chief) (NN lawyer))"
            " (VP (VBD argued) (SBAR (IN that) (S (NP (PRP it))"
            " (VP (VBD mattered))))) (. .))"),
    ]
    for doc, mentions in docs:
        np_nodes = [n for n in doc.nodes if n.label == "NP"]
        mention_nodes = {m.node.node_id for m in mentions}
        for m in mentions:
            for np in np_nodes:
                if np is m.node:
                    continue
                if dominates(np, m.node):  # strictly dominating NP
                    assert head_leaf(np) is not m.head
        for np in np_nodes:
            covering = [m for m in mentions
                        if head_leaf(np) is m.head and dominates(m.node, np)]
            assert len(covering) == 1
        assert len(mention_nodes) == len(mentions)


def test_classify_kind(lex):
    _, mentions = doc_with_mentions(
        "(S (NP (NNP Japan)) (VP (VBD shipped) (NP (NNS cars))"
        " (PP (TO to) (NP (PRP them)))) (. .))")
    kinds = {m.head_word: m.kind for m in mentions}
    assert kinds["Japan"] is MentionKind.PROPER
    assert kinds["cars"] is MentionKind.NOMINAL
    assert kinds["them"] is MentionKind.PRONOUN


def test_infer_number(lex):
    _, mentions = doc_with_mentions(
        "(S (NP (NNS dogs)) (VP (VBD chased) (NP (NN cat)) (NP (CD 12))"
        " (NP (PRP they))) (. .))")
    numbers = {m.head_word: profile_of(m, {}, lex).number for m in mentions}
    assert numbers["dogs"] is Number.PLURAL
    assert numbers["cat"] is Number.SINGULAR
    assert numbers["12"] is Number.UNKNOWN
    assert numbers["they"] is Number.PLURAL


def test_infer_gender_titles_and_names(fixture_lex):
    _, mentions = doc_with_mentions(
        "(S (NP (NNP Mrs.) (NNP Stone)) (VP (VBD met) (NP (NNP Mr.) (NNP Reed))"
        " (NP (NNP Mary)) (NP (DT the) (NN door))) (. .))")
    genders = {m.head_word: profile_of(m, {}, fixture_lex).gender for m in mentions}
    assert genders["Stone"] is Gender.FEMALE
    assert genders["Reed"] is Gender.MALE
    assert genders["Mary"] is Gender.FEMALE
    assert genders["door"] is Gender.UNKNOWN


def test_gendered_title_beats_census_name(fixture_lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Mr.) (NNP Mary) (NNP Smith)))")
    (m,) = mentions
    assert profile_of(m, {}, fixture_lex).gender is Gender.MALE


def test_infer_gender_without_word_lists(fixture_lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Mary)))")
    (m,) = mentions
    assert profile_of(m, {}, fixture_lex, use_word_lists=False).gender is Gender.UNKNOWN


def test_pronoun_gender_from_table(lex):
    _, mentions = doc_with_mentions("(S (NP (PRP she)))")
    assert profile_of(mentions[0], {}, lex).gender is Gender.FEMALE


def test_infer_personhood_supersense(lex):
    _, mentions = doc_with_mentions("(S (NP (DT the) (NN teacher)))")
    (m,) = mentions
    anns = annotation_index([TokenAnnotation(0, 1, supersense="noun.person")])
    assert profile_of(m, anns, lex).personhood is Personhood.PERSON


def test_infer_personhood_from_gender(fixture_lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Mary)))")
    (m,) = mentions
    assert profile_of(m, {}, fixture_lex).personhood is Personhood.PERSON


def test_word_cues_mark_a_title_exactly_where_the_lexicon_finds_one(lex):
    """``_WordCues`` folds a token and strips its trailing dots as the
    loader keys ``Lexicon.titles``: it marks a title, and a gendered one with
    the same gender, at just the tokens whose folded, stripped form is a
    key. Over
    every token of the golden corpora and every title, each also upper-,
    lower- and capital-cased and with one or two trailing dots added."""
    words = set(lex.titles) | {"MR", "Mrs.", "dr.."}
    for document in golden_documents():
        for sentence in document.sentences:
            try:
                words.update(token for tree in read_ptb(sentence) for token in tree.tokens())
            except PtbParseError:
                continue
    tokens = sorted({variant for word in words
                     for cased in (word, word.upper(), word.lower(), word.capitalize())
                     for variant in (cased, cased + ".", cased + "..")})
    titled, gendered = [], []
    for k, token in enumerate(tokens):
        gender = lex.titles.get(token.casefold().rstrip("."))
        if gender is not None:
            titled.append(k)
            if gender is not Gender.UNKNOWN:
                gendered.append((k, gender))
    cues = _WordCues(tokens, lex)
    assert cues.titled_at == titled
    assert list(zip(cues.gendered_at, cues.gendered_as)) == gendered
    assert len(titled) > len(gendered) > 0
    assert {"MR", "Mrs.", "dr.."} <= {tokens[k] for k in titled}


def test_infer_personhood_from_title(lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Dr.) (NNP Quartz)))")
    (m,) = mentions
    assert profile_of(m, {}, lex).personhood is Personhood.PERSON


def test_infer_personhood_location_annotation(lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Gabon)))")
    (m,) = mentions
    anns = annotation_index([TokenAnnotation(0, 0, supersense="noun.location")])
    assert profile_of(m, anns, lex).personhood is Personhood.NOT_PERSON


def test_infer_personhood_ner_labels(lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Quon)))")
    (m,) = mentions
    person = annotation_index([TokenAnnotation(0, 0, ner="PERSON")])
    org = annotation_index([TokenAnnotation(0, 0, ner="ORGANIZATION")])
    assert profile_of(m, person, lex).personhood is Personhood.PERSON
    assert profile_of(m, org, lex).personhood is Personhood.NOT_PERSON


def test_personhood_defaults_to_unknown(lex):
    _, mentions = doc_with_mentions("(S (NP (DT the) (NN table)))")
    (m,) = mentions
    assert profile_of(m, {}, lex).personhood is Personhood.UNKNOWN


def test_uninformative_ner_labels_leave_personhood_to_other_evidence(lex):
    """An empty, O or MISC NER label, in any case, says nothing about
    personhood; a supersense on the same token decides over any NER label."""
    _, mentions = doc_with_mentions("(S (NP (NNP Quon)))")
    (m,) = mentions
    for label in ("", "O", "o", "MISC", "misc", "Misc"):
        anns = annotation_index([TokenAnnotation(0, 0, ner=label)])
        assert profile_of(m, anns, lex).personhood is Personhood.UNKNOWN, label
    for supersense, ner, personhood in (("noun.person", "ORGANIZATION", Personhood.PERSON),
                                        ("noun.location", "PERSON", Personhood.NOT_PERSON),
                                        ("noun.location", "MISC", Personhood.NOT_PERSON)):
        anns = annotation_index([TokenAnnotation(0, 0, supersense, ner)])
        assert profile_of(m, anns, lex).personhood is personhood, (supersense, ner)


def test_word_list_cues_need_a_linked_tree(lex):
    """With word lists on, a non-pronoun mention of a tree linked into no
    document has no sentence tokens to find cues in: ValueError, also after
    a linked mention. A pronoun, and any mention without word lists, types."""
    (root,) = read_ptb("(S (NP (NNP Mary)) (VP (VBD saw) (NP (PRP her))))")
    mary, her = Mention(0, root.children[0]), Mention(1, root.children[1].children[1])
    (linked,) = doc_with_mentions("(S (NP (NNP Anne)))")[1]
    for batch in ([mary], [her, mary], [linked, mary]):
        with pytest.raises(ValueError, match="in no document"):
            attach_profiles(batch, {}, lex)
    assert profile_of(her, {}, lex) == (Gender.FEMALE, Personhood.PERSON, Number.SINGULAR)
    assert profile_of(mary, {}, lex, use_word_lists=False) == (
        Gender.UNKNOWN, Personhood.UNKNOWN, Number.SINGULAR)


def test_pronoun_profile_equals_table_entry(lex):
    doc, mentions = doc_with_mentions(
        "(S (NP (PRP it)) (VP (VBD worked)) (. .))")
    attach_profiles(mentions, {}, lex)
    (it,) = mentions
    assert it.profile.gender is Gender.UNKNOWN
    assert it.profile.personhood is Personhood.NOT_PERSON
    assert it.profile.number is Number.SINGULAR
    assert it.pronoun is not None and it.pronoun.surface == "it"


def test_profile_composes(fixture_lex):
    _, mentions = doc_with_mentions("(S (NP (NNP Mrs.) (NNP Stone)))")
    profile = profile_of(mentions[0], {}, fixture_lex)
    assert profile.gender is Gender.FEMALE
    assert profile.personhood is Personhood.PERSON
    assert profile.number is Number.SINGULAR


# ---------------------------------------------------------------------------
# Gold-mention mode
# ---------------------------------------------------------------------------

def test_gold_spans_map_to_smallest_covering_np():
    doc = parse_doc(ACCOUNTING)
    mentions = map_gold_mentions(doc, [(0, 0, 3), (0, 4, 6), (0, 0, 6)])
    by_id = {m.mention_id: m for m in mentions}
    assert by_id[0].node.span == (0, 3)   # inner "the revised accounting"
    assert by_id[1].node.span == (4, 6)
    assert by_id[2].node.span == (0, 6)
    # document order sorts the full NP before the embedded ones
    assert [m.mention_id for m in mentions] == [2, 0, 1]


def test_gold_span_with_no_covering_np_uses_smallest_node():
    doc = parse_doc("(S (NP (NN dog)) (VP (VBD ran) (ADVP (RB far))))")
    (m,) = map_gold_mentions(doc, [(0, 1, 3)])
    assert m.node.label == "VP"


def test_gold_span_on_pronoun_leaf():
    doc = parse_doc("(S (NP (PRP$ its) (NN brand)) (VP (VBD sank)))")
    (m,) = map_gold_mentions(doc, [(0, 0, 1)])
    assert m.node.is_leaf()
    assert m.kind is MentionKind.PRONOUN


def test_gold_span_out_of_range():
    doc = parse_doc("(S (NP (NN dog)))")
    with pytest.raises(ValueError, match="out of range"):
        map_gold_mentions(doc, [(0, 0, 9)])
    with pytest.raises(ValueError, match="no sentence"):
        map_gold_mentions(doc, [(3, 0, 1)])


def covering_node_oracle(nodes, start, end):
    """The exhaustive scan over ``nodes``, one sentence's: of the nodes that
    cover [start, end), the smallest nominal one (NP or pronoun tag) if any,
    else the smallest of any label; an NP beats a pronoun node of the same
    extent, then the deeper node wins."""
    covering = [n for n in nodes if n.span[0] <= start and end <= n.span[1]]
    nominal = [n for n in covering if n.label == "NP" or n.label in PRONOUN_TAGS]
    return min(nominal or covering,
               key=lambda n: (n.span[1] - n.span[0], n.label in PRONOUN_TAGS, -n.depth))


# Subtrees the random trees draw from: equal-span unary chains, an NP over a
# PRP of the same extent, a PRP$ leaf inside an NP, and pronoun tags on
# interior nodes.
_GOLD_SHAPES = [
    "(NP (NP (NP (NN dog))))",
    "(NP (PRP he))",
    "(NP (NP (PRP it)))",
    "(PRP (NP (PRP they)))",
    "(NP (PRP$ its) (NN brand))",
    "(NP (NP (PRP$ his) (NNS sons)) (PP (IN of) (NP (NNP Rome))))",
    "(VP (VBD saw) (NP (PRP her)))",
    "(PRP$ (PRP$ our))",
]


def _random_subtree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return rng.choice(_GOLD_SHAPES)
        tag = rng.choice(["NN", "NNP", "DT", "PRP", "PRP$", "VBD", "IN"])
        return f"({tag} w{rng.randrange(9)})"
    label = rng.choice(["NP", "NP", "VP", "PP", "S", "PRP", "SBAR"])
    fan_out = rng.choice([1, 1, 2, 3, 4, 7])
    children = " ".join(_random_subtree(rng, depth - 1) for _ in range(fan_out))
    return f"({label} {children})"


def test_gold_mapping_matches_exhaustive_scan_on_random_trees():
    rng = random.Random(20261018)
    for _ in range(60):
        doc = parse_doc(*(_random_subtree(rng, rng.randint(1, 4))
                          for _ in range(rng.randint(1, 3))))
        spans = [(s, start, end)
                 for s, root in enumerate(doc.sentence_roots)
                 for start in range(root.span[1])
                 for end in range(start + 1, root.span[1] + 1)]
        spans = rng.sample(spans, min(len(spans), 400))
        mentions = map_gold_mentions(doc, spans)
        assert sorted(m.mention_id for m in mentions) == list(range(len(spans)))
        sentence_nodes = [list(root.walk()) for root in doc.sentence_roots]
        for m in mentions:
            s, start, end = spans[m.mention_id]
            expected = covering_node_oracle(sentence_nodes[s], start, end)
            assert m.node is expected, (spans[m.mention_id], m.node, expected)
            assert m.head is head_leaf(expected)
            assert m.kind is (MentionKind.PRONOUN if m.head_tag in PRONOUN_TAGS
                              else MentionKind.PROPER if m.head_tag in PROPER_TAGS
                              else MentionKind.NOMINAL)


def _every_span(doc):
    return [(s, start, end)
            for s, row in enumerate(doc.key)
            for start in range(len(row))
            for end in range(start + 1, len(row) + 1)]


def _same_mapping(got, want):
    return ([(m.mention_id, m.node, m.head, m.kind) for m in got]
            == [(m.mention_id, m.node, m.head, m.kind) for m in want])


def test_gold_mapping_matches_the_descent_on_every_golden_span():
    """Every (start, end) of every sentence of the golden corpora maps to the
    node the root-down descent of ``reference_map_gold_mentions`` finds."""
    checked = 0
    for document in golden_documents():
        try:
            doc = read_document(document.sentences)
        except ValueError:
            continue
        spans = _every_span(doc)
        assert _same_mapping(map_gold_mentions(doc, spans),
                             reference_map_gold_mentions(doc, spans)), document.doc_id
        checked += len(spans)
    assert checked > 87_000


def test_gold_mapping_matches_the_descent_on_random_documents():
    """Random documents with equal-span unary chains, pronouns under NPs and
    NPs under pronoun tags: 300 spans of each, or all it has, in random
    order, map as the descent maps them."""
    rng = random.Random(20261020)
    yielded = 0  # pronoun nodes passed over for an NP of their span
    for _ in range(80):
        doc = parse_doc(*(_random_subtree(rng, rng.randint(1, 5))
                          for _ in range(rng.randint(1, 4))))
        spans = _every_span(doc)
        spans = rng.sample(spans, min(len(spans), 300))
        mentions = map_gold_mentions(doc, spans)
        assert _same_mapping(mentions, reference_map_gold_mentions(doc, spans))
        yielded += sum(m.node.label == "NP" and any(
            n.label in PRONOUN_TAGS and n.span == m.span for n in m.node.walk())
            for m in mentions)
    assert yielded > 100


def _count_parent_reads(doc):
    """Make every node's parent link count its reads; returns the counter."""
    reads = [0]
    for node in doc.nodes:
        up = node._up
        if up is not None:
            def counted(up=up):
                reads[0] += 1
                return up()
            node._up = counted
    return reads


def test_gold_mapping_reads_two_parents_per_span_on_a_flat_sentence():
    """One sentence of n one-word NPs under one NP, a gold mention on each
    word: each span climbs from its word's leaf to the NP above it, without
    reading the NP of 2,000 children or the sentence root."""
    n = 2000
    doc = parse_doc("(S (NP " + " ".join(f"(NP (NN w{i}))" for i in range(n))
                    + ") (VP (VBD ran)) (. .))")
    reads = _count_parent_reads(doc)
    mentions = map_gold_mentions(doc, [(0, i, i + 1) for i in range(n)])
    assert reads[0] <= 2 * n
    outer = doc.sentence_roots[0].children[0]
    assert [m.node for m in mentions] == outer.children
    assert [m.head_word for m in mentions] == [f"w{i}" for i in range(n)]


def _right_branching(depth):
    """(S (NP (NN w0) (NP (NN w1) ... (NP (NN wk) (VP (VBD ran)))))): an NP
    spine ``depth`` deep, each NP one word and the rest of the sentence."""
    text = "(VP (VBD ran))"
    for k in reversed(range(depth)):
        text = f"(NP (NN w{k}) {text})"
    return parse_doc(f"(S {text})")


def test_gold_mapping_reads_per_span_do_not_grow_with_depth():
    """On a right-branching spine, a span's covering nodes sit just above its
    first word however deep that word is, so the parents a span reads stay
    the same from 1,000 to 2,000 levels; the descent from the root would
    walk down every level above."""
    per_span = []
    for depth in (1000, 2000):
        doc = _right_branching(depth)
        n = depth + 1
        spans = [(0, k, end) for k in range(0, depth, 7)
                 for end in (k + 1, k + 2, min(k + 9, n), n)]
        reads = _count_parent_reads(doc)
        mentions = map_gold_mentions(doc, spans)
        assert max(node.depth for node in doc.nodes) >= depth
        assert _same_mapping(mentions, reference_map_gold_mentions(doc, spans))
        per_span.append(reads[0] / len(spans))
    assert per_span[0] == per_span[1] <= 2
