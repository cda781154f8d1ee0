"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from coref import (Gender, MentionKind, PairCounts, ResolveConfig, Rule,
                   b_cubed_doc, default_lexicon, gold_clustering, pairwise_counts,
                   pairwise_micro, resolve_document, run_pipeline, transitive_closure)
from coref.cluster import from_entities
from coref.resolve import Decision
from helpers import (EXAMPLE1_GOLD, EXAMPLE1_SENTENCES, ablation_corpus,
                     decision_for, doc_with_mentions, mention_with_head,
                     pipeline, run_cli_twice)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Worked three-sentence document
# ---------------------------------------------------------------------------

def test_example1_golden(fixture_lex):
    with criterion("example1-golden"):
        assert fixture_lex.first_names["john"] is Gender.MALE
        assert fixture_lex.first_names["fred"] is Gender.MALE
        start = time.perf_counter()
        result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert len(result.clustering) == 5
        expected = {frozenset(entity) for entity in EXAMPLE1_GOLD}
        assert set(result.clustering.entities) == expected


# ---------------------------------------------------------------------------
# 2. Nine worked constraint examples
# ---------------------------------------------------------------------------

def test_constraint_example_suite(fixture_lex):
    with criterion("constraint-examples-9-of-9"):
        passed = 0

        # 1. "[Lawrence Tribe], the Harvard Law School [Professor]"
        result = pipeline(
            ["(S (NP (NP (NNP Lawrence) (NNP Tribe)) (, ,) (NP (DT the)"
             " (NNP Harvard) (NNP Law) (NNP School) (NN Professor)) (, ,))"
             " (VP (VBD spoke)) (. .))"], lex=fixture_lex)
        professor = mention_with_head(result.mentions, "Professor")
        decision = decision_for(result, professor)
        assert decision.rule is Rule.APPOSITIVE
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "Tribe").mention_id
        passed += 1

        # 2. "[David Boies], Gore 's chief trial [lawyer]"
        result = pipeline(
            ["(S (NP (NP (NNP David) (NNP Boies)) (, ,) (NP (NP (NNP Gore)"
             " (POS 's)) (JJ chief) (NN trial) (NN lawyer)) (, ,))"
             " (VP (VBD argued)) (. .))"], lex=fixture_lex)
        lawyer = mention_with_head(result.mentions, "lawyer")
        decision = decision_for(result, lawyer)
        assert decision.rule is Rule.APPOSITIVE
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "Boies").mention_id
        passed += 1

        # 3. "The [Gridiron Club] is an [organization] of 60 journalists."
        result = pipeline(
            ["(S (NP (DT The) (NNP Gridiron) (NNP Club)) (VP (VBZ is)"
             " (NP (NP (DT an) (NN organization)) (PP (IN of) (NP (CD 60)"
             " (NNP Washington) (NNS journalists))))) (. .))"], lex=fixture_lex)
        organization = mention_with_head(result.mentions, "organization")
        decision = decision_for(result, organization)
        assert decision.rule is Rule.PRED_NOM
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "Club").mention_id
        passed += 1

        # 4. "[Lameu] was the first NHL [player] to become a team owner."
        result = pipeline(
            ["(S (NP (NNP Lameu)) (VP (VBD was) (NP (NP (DT the) (JJ first)"
             " (NNP NHL) (NN player)) (S (VP (TO to) (VP (VB become)"
             " (NP (DT a) (NN owner))))))) (. .))"], lex=fixture_lex)
        player = mention_with_head(result.mentions, "player")
        decision = decision_for(result, player)
        assert decision.rule is Rule.PRED_NOM
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "Lameu").mention_id
        passed += 1

        # 5. "The bank ruined it." -> it != bank
        result = pipeline(
            ["(S (NP (DT The) (NN bank)) (VP (VBD ruined) (NP (PRP it))) (. .))"],
            lex=fixture_lex)
        it = mention_with_head(result.mentions, "it")
        assert decision_for(result, it).antecedent is None
        passed += 1

        # 6. "The bank ruined itself." -> itself = bank
        result = pipeline(
            ["(S (NP (DT The) (NN bank)) (VP (VBD ruined) (NP (PRP itself))) (. .))"],
            lex=fixture_lex)
        itself = mention_with_head(result.mentions, "itself")
        decision = decision_for(result, itself)
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "bank").mention_id
        passed += 1

        # 7. "Walmart says Gitano, its top-selling brand, is underselling."
        #    -> its != Gitano (I-within-I)
        result = pipeline(
            ["(S (NP (NNP Walmart)) (VP (VBZ says) (SBAR (S (NP (NP (NNP Gitano))"
             " (, ,) (NP (PRP$ its) (JJ top-selling) (NN brand)) (, ,))"
             " (VP (VBZ is) (VP (VBG underselling)))))) (. .))"], lex=fixture_lex)
        its = mention_with_head(result.mentions, "its")
        gitano = mention_with_head(result.mentions, "Gitano")
        brand = mention_with_head(result.mentions, "brand")
        decision = decision_for(result, its)
        assert decision.antecedent not in (gitano.mention_id, brand.mention_id)
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "Walmart").mention_id
        passed += 1

        # 8. "To call John, he picked up the phone" -> he != John
        result = pipeline(
            ["(S (S (VP (TO To) (VP (VB call) (NP (NNP John))))) (, ,)"
             " (NP (PRP he)) (VP (VBD picked) (PRT (RP up)) (NP (DT the)"
             " (NN phone))) (. .))"], lex=fixture_lex)
        he = mention_with_head(result.mentions, "he")
        assert decision_for(result, he).antecedent is None
        passed += 1

        # 9. "Because John likes cars, he bought a Ferrari." -> he = John
        result = pipeline(
            ["(S (SBAR (IN Because) (S (NP (NNP John)) (VP (VBZ likes)"
             " (NP (NNS cars))))) (, ,) (NP (PRP he)) (VP (VBD bought)"
             " (NP (DT a) (NNP Ferrari))) (. .))"], lex=fixture_lex)
        he = mention_with_head(result.mentions, "he")
        decision = decision_for(result, he)
        assert decision.antecedent == mention_with_head(result.mentions,
                                                        "John").mention_id
        passed += 1

        assert passed == 9


# ---------------------------------------------------------------------------
# 3. Head-rule cases
# ---------------------------------------------------------------------------

def test_head_rule_cases():
    with criterion("head-rules"):
        from coref import collins_head_child, read_ptb

        doc, mentions = doc_with_mentions(
            "(NP (NP (DT the) (JJ revised) (NN accounting))"
            " (PP (IN of) (NP (DT the) (NN incident))))")
        assert len(mentions) == 2
        assert [m.head_word for m in mentions] == ["accounting", "incident"]

        (flat,) = read_ptb("(NP (DT the) (JJ revised) (NN accounting))")
        assert collins_head_child(flat) == 2  # rightmost noun
        (attached,) = read_ptb("(NP (NP (NN accounting)) (PP (IN of)"
                               " (NP (NN incident))))")
        assert collins_head_child(attached) == 0  # left NP of (NP NP PP)


# ---------------------------------------------------------------------------
# 4. Path-distance selection
# ---------------------------------------------------------------------------

def test_path_distance_selection(fixture_lex):
    with criterion("path-distance-selection"):
        result = pipeline(
            ["(S (NP (DT the) (NNPS Calverts)) (VP (VBD were) (ADJP"
             " (JJ interested) (PP (IN in) (S (VP (VBG creating)"
             " (NP (JJ profitable) (NNS estates))))))) (. .))",
             "(S (NP (PRP they)) (VP (VBD encouraged) (NP (NN immigration)))"
             " (. .))"], lex=fixture_lex)
        they = mention_with_head(result.mentions, "they")
        calverts = mention_with_head(result.mentions, "Calverts")
        estates = mention_with_head(result.mentions, "estates")
        from coref import path_distance
        assert (path_distance(they.node, calverts.node, result.tree)
                < path_distance(they.node, estates.node, result.tree))
        assert decision_for(result, they).antecedent == calverts.mention_id


# ---------------------------------------------------------------------------
# 5. Substring rule
# ---------------------------------------------------------------------------

def test_substring_rule(fixture_lex):
    with criterion("substring-rule"):
        result = pipeline(
            ["(S (NP (NNP Japan)) (VP (VBD exported) (NP (NNS cars))) (. .))",
             "(S (NP (DT the) (NNP Japanese)) (VP (VBD bought)"
             " (NP (NNS houses))) (. .))"], lex=fixture_lex)
        japanese = mention_with_head(result.mentions, "Japanese")
        japan = mention_with_head(result.mentions, "Japan")
        assert decision_for(result, japanese).antecedent == japan.mention_id

        result = pipeline(
            ["(S (NP (NNP Iran)) (VP (VBD signed)) (. .))",
             "(S (NP (NNP Iraq)) (VP (VBD refused)) (. .))"], lex=fixture_lex)
        iraq = mention_with_head(result.mentions, "Iraq")
        assert decision_for(result, iraq).antecedent is None

        result = pipeline(
            ["(S (NP (JJ Korean) (NNS officials)) (VP (VBD met)) (. .))",
             "(S (NP (JJ Iranian) (NNS officials)) (VP (VBD agreed)) (. .))"],
            lex=fixture_lex)
        later = mention_with_head(result.mentions, "officials", occurrence=1)
        first = mention_with_head(result.mentions, "officials", occurrence=0)
        decision = decision_for(result, later)
        assert decision.antecedent == first.mention_id  # known false positive
        assert decision.rule is Rule.NOMINAL


# ---------------------------------------------------------------------------
# 6. Scorer oracle equivalence
# ---------------------------------------------------------------------------

def _random_partition(rng, universe):
    entities = []
    for mid in universe:
        if entities and rng.random() < 0.6:
            rng.choice(entities).append(mid)
        else:
            entities.append([mid])
    return from_entities(universe, entities)


def test_scorer_oracle_equivalence():
    with criterion("scorer-oracle-equivalence"):
        rng = random.Random(190390)
        for _ in range(1000):
            universe = list(range(rng.randint(1, 8)))
            sys_c = _random_partition(rng, universe)
            gold_c = _random_partition(rng, universe)

            tp = fp = fn = 0
            for a, b in itertools.combinations(universe, 2):
                in_sys = sys_c.label_of(a) == sys_c.label_of(b)
                in_gold = gold_c.label_of(a) == gold_c.label_of(b)
                tp += in_sys and in_gold
                fp += in_sys and not in_gold
                fn += in_gold and not in_sys
            assert pairwise_counts(sys_c, gold_c) == PairCounts(tp, fp, fn)

            n = len(universe)
            s = {i: sys_c.entities[sys_c.label_of(i) - 1] for i in universe}
            g = {i: gold_c.entities[gold_c.label_of(i) - 1] for i in universe}
            exact_p = sum(Fraction(len(s[i] & g[i]), len(s[i])) for i in universe) / n
            exact_r = sum(Fraction(len(s[i] & g[i]), len(g[i])) for i in universe) / n
            p, r = b_cubed_doc(sys_c, gold_c)
            assert abs(p - float(exact_p)) < 1e-12
            assert abs(r - float(exact_r)) < 1e-12

        gold4 = from_entities("abcd", [["a", "b", "c"], ["d"]])
        sys4 = from_entities("abcd", [["a", "b"], ["c", "d"]])
        score = pairwise_micro([pairwise_counts(sys4, gold4)])
        assert abs(score.precision - 0.5) < 1e-4
        assert abs(score.recall - 0.3333) < 1e-4
        assert abs(score.f1 - 0.4) < 1e-4
        p, r = b_cubed_doc(sys4, gold4)
        f = 2 * p * r / (p + r)
        assert abs(p - 0.75) < 1e-4
        assert abs(r - 0.6667) < 1e-4
        assert abs(f - 0.7059) < 1e-4


# ---------------------------------------------------------------------------
# 7. Clustering properties
# ---------------------------------------------------------------------------

def test_clustering_properties():
    with criterion("clustering-properties"):
        rng = random.Random(55111)
        for _ in range(1000):
            n = rng.randint(1, 12)
            universe = list(range(n))
            decisions = []
            for mid in range(1, n):
                if rng.random() < 0.5:
                    decisions.append(Decision(mid, rng.randrange(mid), Rule.NOMINAL))
                else:
                    decisions.append(Decision(mid, None, Rule.NULL))
            clustering = transitive_closure(decisions, universe)

            members = [mid for entity in clustering.entities for mid in entity]
            assert len(members) == len(set(members))
            assert set(members) == set(universe)

            shuffled = decisions[:]
            rng.shuffle(shuffled)
            assert transitive_closure(shuffled, universe) == clustering

            implied = [Decision(b, a, Rule.NOMINAL)
                       for entity in clustering.entities
                       for a, b in zip(sorted(entity), sorted(entity)[1:])]
            assert transitive_closure(implied, universe) == clustering


# ---------------------------------------------------------------------------
# 8. Ablation monotonicity
# ---------------------------------------------------------------------------

def _config_for_flags(*flags):
    from coref.cli import build_config, build_parser
    args = build_parser().parse_args(["score", "--gold", *flags, "unused"])
    return build_config(args)


def _corpus_results(cfg):
    results = []
    for document in ablation_corpus():
        result = run_pipeline(document, cfg)
        candidate_log = {}
        resolve_document(result.tree, result.mentions, default_lexicon(), cfg, candidate_log)
        results.append((document, result, candidate_log))
    return results


def _corpus_recall(results):
    counts = []
    for document, result, _ in results:
        gold = gold_clustering(document, result.mentions)
        counts.append(pairwise_counts(result.clustering, gold))
    return pairwise_micro(counts).recall


def test_ablation_monotonicity():
    with criterion("ablation-monotonicity"):
        default_results = _corpus_results(_config_for_flags())
        assert len(default_results) == 20
        assert any(any(m.kind is MentionKind.PRONOUN for m in r.mentions)
                   for _, r, _ in default_results)

        no_pronouns = _corpus_results(_config_for_flags("--never-resolve-pronouns"))
        for _, result, _ in no_pronouns:
            assert all(d.rule is not Rule.PRONOUN for d in result.decisions)
        assert _corpus_recall(no_pronouns) < _corpus_recall(default_results)

        for flag in ("--remove-gender-typecheck", "--remove-person-typecheck",
                     "--remove-number-typecheck"):
            ablated = _corpus_results(_config_for_flags(flag))
            for (_, _, base_log), (_, _, ablated_log) in zip(default_results,
                                                             ablated):
                assert set(base_log) == set(ablated_log)
                for mid, base_candidates in base_log.items():
                    assert base_candidates <= ablated_log[mid]


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_determinism(tmp_path):
    with criterion("determinism"):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for document in ablation_corpus():
            payload = {"id": document.doc_id,
                       "sentences": document.sentences,
                       "annotations": [
                           {"s": a.sentence_index, "t": a.token_index,
                            "supersense": a.supersense, "ner": a.ner}
                           for a in document.annotations],
                       "gold_clusters": document.gold_clusters}
            (corpus / f"{document.doc_id}.json").write_text(json.dumps(payload))
        commands = [
            ["resolve", "--render", str(corpus)],
            ["score", "--gold", "--json", str(corpus)],
            ["score", "--gold", "--remove-number-typecheck", str(corpus)],
            ["trace", "--gold", str(corpus)],
        ]
        for command in commands:
            runs = run_cli_twice(command, tmp_path)
            assert runs[0].returncode == 0, runs[0].stderr.decode()
            assert runs[0].returncode == runs[1].returncode
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout  # produced output
