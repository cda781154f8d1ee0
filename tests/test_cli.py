import gc
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import coref.pipeline
from coref import (Decision, DocumentError, DocumentInput, Mention, MentionKind,
                   PairCounts, ResolveConfig, Rule, TokenAnnotation, TraceReport,
                   b_cubed_doc, default_lexicon, gold_clustering, pairwise_counts,
                   read_ptb, render_brackets, run_pipeline, score_corpus, trace_report)
from coref.cluster import from_entities
from coref.cli import _ABLATION_FLAGS, build_config, build_parser, load_documents, main
from helpers import (EXAMPLE1_GOLD, EXAMPLE1_SENTENCES, ablation_corpus,
                     GOLDEN, cli_digests, golden_documents, pipeline, random_partition,
                     cli_env, run_cli, run_cli_twice, single_flag_configs, write_corpus)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_pipeline_example1_five_entities(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    assert len(result.clustering) == 5
    expected = {frozenset(e) for e in EXAMPLE1_GOLD}
    assert set(result.clustering.entities) == expected


def test_pipeline_empty_document(fixture_lex):
    result = pipeline([], lex=fixture_lex)
    assert result.mentions == []
    assert result.decisions == []
    assert len(result.clustering) == 0


def test_dropped_result_frees_its_document_at_once(fixture_lex):
    """With the cycle collector off, dropping a result frees its document
    tree by reference counting alone; a mention kept from it keeps its own
    node alive, not the node's ancestors."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
        tree, root = weakref.ref(result.tree), weakref.ref(result.tree.sentence_roots[0])
        kept = result.mentions[0]
        assert kept.node.parent is not None
        del result
        assert tree() is None
        assert root() is None
        assert kept.node.parent is None
        assert kept.tokens() == ["John"]
    finally:
        if enabled:
            gc.enable()


def test_golden_corpora_make_no_reference_cycle():
    """Every ``golden/*.jsonl`` document, failing ones included, loaded and
    run through the library under the default config and each single flag
    with the cycle collector off, leaves no cyclic garbage: reference
    counting frees all of it. ``run_pipeline`` pauses the collector on this
    premise; a cycle, such as a strong parent reference, would otherwise
    live until the document ends."""
    lex = default_lexicon()
    configs = single_flag_configs()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        documents = golden_documents()
        failed = 0
        for cfg in configs:
            for document in documents:
                try:
                    result = run_pipeline(document, cfg, lex)
                except DocumentError:
                    failed += 1
                    continue
                render_brackets(result.tree, result.mentions, result.clustering)
                trace_report(result.decisions, result.mentions, None)
                if document.gold_clusters is None:
                    continue
                gold = gold_clustering(document, result.mentions)
                pairwise_counts(result.clustering, gold)
                if result.mentions:
                    b_cubed_doc(result.clustering, gold)
                trace_report(result.decisions, result.mentions, gold)
        assert failed == 4 * len(configs)  # golden/bad.jsonl's bad sentences
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["result", "DocumentError", "RuntimeError"])
def test_pipeline_pauses_the_collector_and_restores_it(monkeypatch, fixture_lex,
                                                       enabled, outcome):
    """The collector is off while a document runs, and afterwards in the
    state the caller left it, whether the run returns or raises."""
    seen = []
    original = coref.pipeline.read_document

    def read_document(sentences):
        seen.append(gc.isenabled())
        return original(sentences)

    def resolve_document(*args):
        raise RuntimeError("resolver failed")

    monkeypatch.setattr(coref.pipeline, "read_document", read_document)
    if outcome == "RuntimeError":
        monkeypatch.setattr(coref.pipeline, "resolve_document", resolve_document)
    sentences = ["(S (NP"] if outcome == "DocumentError" else EXAMPLE1_SENTENCES
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "result":
            pipeline(sentences, lex=fixture_lex)
        else:
            with pytest.raises(DocumentError if outcome == "DocumentError" else RuntimeError):
                pipeline(sentences, lex=fixture_lex)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_pipeline_parse_error_carries_doc_id(fixture_lex):
    document = DocumentInput(doc_id="broken", sentences=["(S (NP"])
    with pytest.raises(DocumentError, match="broken"):
        run_pipeline(document, ResolveConfig(), fixture_lex)


def test_pipeline_rejects_bad_annotation(fixture_lex):
    document = DocumentInput(doc_id="bad-ann",
                             sentences=["(S (NP (NN rain)))"])
    document.annotations = [__import__("coref").TokenAnnotation(0, 9)]
    with pytest.raises(DocumentError, match="missing token"):
        run_pipeline(document, ResolveConfig(), fixture_lex)


def test_gold_mention_mode_matches_automatic_on_aligned_fixture(fixture_lex):
    auto = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    spans = [(m.sentence_index, m.span[0], m.span[1]) for m in auto.mentions]
    gold_mode = pipeline(EXAMPLE1_SENTENCES, gold_mentions=spans, lex=fixture_lex)
    assert gold_mode.clustering == auto.clustering
    assert [m.node.node_id for m in gold_mode.mentions] == \
        [m.node.node_id for m in auto.mentions]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_example1_first_sentence(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    lines = render_brackets(result.tree, result.mentions, result.clustering)
    assert lines[0] == "[John]_1 bought [himself]_1 [a book]_2 ."
    assert lines[2].endswith("[him]_3 [anything]_5 .")


def test_render_document_without_mentions(fixture_lex):
    result = pipeline(["(S (VP (VBD rained)) (. .))"], lex=fixture_lex)
    lines = render_brackets(result.tree, result.mentions, result.clustering)
    assert lines == ["rained ."]


def test_render_nested_mentions_inner_first(fixture_lex):
    result = pipeline(
        ["(S (NP (NP (DT the) (JJ revised) (NN accounting)) (PP (IN of)"
         " (NP (DT the) (NN incident)))) (VP (VBD surprised) (NP (PRP us))) (. .))"],
        lex=fixture_lex)
    (line,) = render_brackets(result.tree, result.mentions, result.clustering)
    assert line == "[the revised accounting of [the incident]_2]_1 surprised [us]_3 ."


def test_render_strip_round_trip(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    lines = render_brackets(result.tree, result.mentions, result.clustering)
    for line, root in zip(lines, result.tree.sentence_roots):
        stripped = re.sub(r"\]_\d+", "", line).replace("[", "")
        assert stripped.split() == root.tokens()


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

def test_score_corpus_perfect_output(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, gold_clusters=EXAMPLE1_GOLD,
                      lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    from coref import b_cubed_doc, pairwise_counts
    counts = pairwise_counts(result.clustering, gold)
    b3 = b_cubed_doc(result.clustering, gold)
    report = score_corpus([("ex1", counts, b3)])
    for metric in ("pairwise", "b3"):
        for key in ("p", "r", "f"):
            assert report[metric][key] == pytest.approx(1.0)


def test_score_corpus_worked_example():
    report = score_corpus([("doc", PairCounts(1, 1, 2), (0.75, 2 / 3))])
    assert report["pairwise"]["p"] == pytest.approx(0.5)
    assert report["pairwise"]["r"] == pytest.approx(1 / 3, abs=1e-4)
    assert report["pairwise"]["f"] == pytest.approx(0.4)
    assert report["b3"]["p"] == pytest.approx(0.75)
    assert report["b3"]["r"] == pytest.approx(2 / 3, abs=1e-4)
    assert report["b3"]["f"] == pytest.approx(0.7059, abs=1e-4)


def test_score_corpus_micro_pools_and_macro_averages():
    docs = [("a", PairCounts(1, 0, 0), (1.0, 1.0)),
            ("b", PairCounts(0, 1, 2), (0.5, 1.0))]
    report = score_corpus(docs)
    pooled = score_corpus([("one", PairCounts(1, 1, 2), (1.0, 1.0))])
    assert report["pairwise"] == pooled["pairwise"]  # counts pooled first
    assert report["b3"]["p"] == pytest.approx(0.75)  # averaged after
    assert report["b3"]["r"] == pytest.approx(1.0)
    assert len(report["per_doc"]) == 2
    assert [d["id"] for d in report["per_doc"]] == ["a", "b"]


# ---------------------------------------------------------------------------
# Trace report
# ---------------------------------------------------------------------------

def _rule_count(report, rule):
    """How many decisions ``rule`` made, whatever their verdict."""
    return sum(report.rules[rule, verdict] for verdict in (True, False, None))


def test_trace_all_null_on_singleton_gold(fixture_lex):
    sentences = ["(S (NP (DT a) (NN cat)) (VP (VBD saw) (NP (DT a) (NN fern))) (. .))"]
    result = pipeline(sentences, gold_clusters=[], lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    assert _rule_count(report, Rule.NULL) == 2
    assert report.rules[Rule.NULL, True] == 2
    assert report.rules[Rule.NULL, False] == 0
    assert report.total == 2


def test_trace_example1_pronoun_accuracy(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, gold_clusters=EXAMPLE1_GOLD,
                      lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    assert report.rules[Rule.PRONOUN, True] >= 3
    assert report.rules[Rule.PRONOUN, False] == 0
    assert _rule_count(report, Rule.PRONOUN) == 4  # himself x2, he, him
    assert report.total == len(result.decisions)


def test_trace_null_correctness_uses_previous_mentions(fixture_lex):
    # "it" wrongly unresolved: a previous gold-coreferent mention exists.
    sentences = ["(S (NP (DT the) (NN ship)) (VP (VBD sank)) (. .))",
                 "(S (NP (PRP they)) (VP (VBD watched)) (. .))"]
    result = pipeline(sentences, gold_clusters=[[0, 1]], lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    # they vs ship clash on number -> NULL, but gold links them: incorrect
    assert report.rules[Rule.NULL, False] == 1
    assert report.pronouns["they", False] == 1


def test_trace_pronoun_rows_sorted_by_accuracy(fixture_lex):
    report = trace_report([], [], None)
    report.pronouns.update({("he", True): 3, ("it", True): 1})
    report.pronouns.update({("he", False): 1, ("it", False): 3, ("you", False): 1})
    rows = report.pronoun_rows(min_count=1)
    accuracies = [row[2] for row in rows]
    assert accuracies == sorted(accuracies)
    assert [row[3] for row in rows] == ["you", "it", "he"]
    assert report.pronoun_rows(min_count=2) == rows[1:]


def test_trace_report_merge(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, lex=fixture_lex)
    single = trace_report(result.decisions, result.mentions, None)
    merged = single + single
    assert merged.total == 2 * single.total
    assert _rule_count(merged, Rule.PRONOUN) == 2 * _rule_count(single, Rule.PRONOUN)


def trace_oracle(decisions, mentions, gold):
    """Tally each decision by the definition, one at a time: a NULL
    decision is correct iff its mention comes first, in ``mentions`` order,
    of all the mentions of its gold entity."""
    position = {m.mention_id: i for i, m in enumerate(mentions)}
    by_id = {m.mention_id: m for m in mentions}
    report = TraceReport(has_gold=gold is not None)
    for decision in decisions:
        if gold is None:
            report.rules[decision.rule, None] += 1
            continue
        mid = decision.mention_id
        entity = gold.entities[gold.label_of(mid) - 1]
        if decision.antecedent is not None:
            correct = decision.antecedent in entity
        else:
            correct = min(entity, key=position.__getitem__) == mid
        report.rules[decision.rule, correct] += 1
        mention = by_id[mid]
        if mention.kind is MentionKind.PRONOUN:
            report.pronouns[mention.head_word.casefold(), correct] += 1
    return report


def _random_trace_case(rng, n, clustering):
    """n mentions with ids unrelated to their order, the gold ``clustering``
    of their ids taken in another order, and one decision per mention."""
    ids = rng.sample(range(10 * n), n)
    mentions = []
    for mid in ids:
        if rng.random() < 0.5:
            (leaf,) = read_ptb(f"(PRP {rng.choice(['he', 'He', 'she', 'it', 'they'])})")
            mentions.append(Mention(mid, leaf))
        else:
            (leaf,) = read_ptb("(NN dog)")
            mentions.append(Mention(mid, leaf))
    universe = rng.sample(ids, n)
    gold = clustering(universe)
    decisions = []
    for i, m in enumerate(mentions):
        if i == 0 or rng.random() < 0.3:
            decisions.append(Decision(m.mention_id, None, Rule.NULL))
        else:
            decisions.append(Decision(m.mention_id, mentions[rng.randrange(i)].mention_id,
                                      rng.choice([r for r in Rule if r is not Rule.NULL])))
    rng.shuffle(decisions)
    return decisions, mentions, gold


def _assert_same_report(report, expected):
    # Counter equality ignores zero counts (Python 3.10+), so compare the
    # text and every value rather than the counters themselves.
    for min_count in (1, 2, 5):
        assert report.to_text(min_count) == expected.to_text(min_count)
    for rule in Rule:
        assert _rule_count(report, rule) == _rule_count(expected, rule)
        assert report.rules[rule, True] == expected.rules[rule, True]
        assert report.rules[rule, False] == expected.rules[rule, False]
    assert report.pronoun_rows() == expected.pronoun_rows()
    assert report.total == expected.total


def test_trace_report_matches_oracle_on_random_documents():
    rng = random.Random(3101)
    total, expected_total = TraceReport(has_gold=True), TraceReport(has_gold=True)
    for _ in range(300):
        case = _random_trace_case(rng, rng.randint(1, 12),
                                  lambda universe: random_partition(rng, universe))
        report = trace_report(*case)
        expected = trace_oracle(*case)
        _assert_same_report(report, expected)
        _assert_same_report(trace_report(*case[:2]), trace_oracle(*case[:2], None))
        total, expected_total = total + report, expected_total + expected
    _assert_same_report(total, expected_total)


def test_trace_report_matches_oracle_with_an_entity_of_2000_mentions():
    rng = random.Random(2000)
    case = _random_trace_case(rng, 2500,
                              lambda universe: from_entities(universe, [universe[:2000]]))
    _assert_same_report(trace_report(*case), trace_oracle(*case))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_build_config_flags_and_file(tmp_path):
    parser = build_parser()
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"check_gender": False}))
    args = parser.parse_args(["resolve", "--config", str(config_file),
                              "--never-match-pro-pro", "in.json"])
    cfg = build_config(args)
    assert cfg.check_gender is False
    assert cfg.allow_pro_pro_match is False
    assert cfg.resolve_pronouns is True


def test_build_config_rejects_unknown_keys(tmp_path):
    parser = build_parser()
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"no_such_flag": True}))
    args = parser.parse_args(["resolve", "--config", str(config_file), "x"])
    with pytest.raises(ValueError, match="no_such_flag"):
        build_config(args)


def test_every_ablation_flag_parses():
    parser = build_parser()
    flags = ["--remove-word-lists", "--remove-gender-typecheck",
             "--remove-person-typecheck", "--remove-number-typecheck",
             "--never-resolve-pronouns", "--never-resolve-2nd-person",
             "--never-match-pro-pro", "--strict-typechecking",
             "--check-gram-number", "--no-role-appositive",
             "--pred-nom-exclude-modals"]
    args = parser.parse_args(["resolve", *flags, "in.json"])
    cfg = build_config(args)
    assert cfg.use_word_lists is False
    assert cfg.check_gender is False
    assert cfg.check_personhood is False
    assert cfg.check_number is False
    assert cfg.resolve_pronouns is False
    assert cfg.resolve_second_person is False
    assert cfg.allow_pro_pro_match is False
    assert cfg.strict_typecheck is True
    assert cfg.check_grammatical_person is True
    assert cfg.enable_role_appositive is False
    assert cfg.pred_nom_exclude_modals is True


def test_load_documents_formats(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps({"id": "a", "sentences": ["(S (NN x))"]}))
    array = tmp_path / "many.json"
    array.write_text(json.dumps([
        {"id": "b", "sentences": ["(S (NN y))"]},
        {"id": "c", "sentences": ["(S (NN z))"]}]))
    stream = tmp_path / "stream.jsonl"
    stream.write_text('{"id": "d", "sentences": ["(S (NN w))"]}\n'
                      '{"id": "e", "sentences": ["(S (NN v))"]}\n')
    docs = load_documents([str(single), str(array), str(stream)])
    assert [d.doc_id for d in docs] == ["a", "b", "c", "d", "e"]
    with pytest.raises(ValueError, match="no such file"):
        load_documents([str(tmp_path / "missing.json")])


def test_cli_resolve_output(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    code = main(["resolve", "--render", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert "synth-00\t0\t0\t1\t1" in lines
    assert any(line.startswith("# [John]_1") for line in lines)


def test_cli_score_gold_required(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    code = main(["score", str(corpus)])
    assert code == 2
    assert "requires --gold" in capsys.readouterr().err


def test_cli_score_json_report(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ablation_corpus())
    code = main(["score", "--gold", "--json", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert set(report) == {"pairwise", "b3", "per_doc"}
    assert set(report["pairwise"]) == {"p", "r", "f"}
    assert len(report["per_doc"]) == 20
    assert report["pairwise"]["r"] == pytest.approx(1.0)


def test_cli_trace_text(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ablation_corpus())
    code = main(["trace", "--gold", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PronounResolve\t20\t20\t0" in captured.out
    # 5 two-mention docs plus 15 three-mention docs
    assert "total\t55" in captured.out


def _doc_ids(out):
    return sorted({line.split("\t")[0] for line in out.splitlines()})


@pytest.mark.parametrize("argv, survivors", [
    (["resolve"], lambda out: _doc_ids(out) == ["synth-00", "synth-01"]),
    (["score", "--gold", "--json"],
     lambda out: [d["id"] for d in json.loads(out)["per_doc"]] == ["synth-00", "synth-01"]),
    # 2 + 3 decisions from the two surviving documents
    (["trace", "--gold"], lambda out: "total\t5" in out.splitlines()),
], ids=["resolve", "score", "trace"])
def test_cli_continues_after_bad_document(tmp_path, capsys, argv, survivors):
    corpus = write_corpus(tmp_path, ablation_corpus()[:2])
    (corpus / "aa-broken.json").write_text(json.dumps(
        {"id": "aa-broken", "sentences": ["(S (NP"]}))
    code = main([*argv, str(corpus)])
    captured = capsys.readouterr()
    assert code == 1
    assert "aa-broken" in captured.err
    assert survivors(captured.out)


_SENTENCE = "(S (NP (NNP John)) (VP (VBD left)) (. .))"


@pytest.mark.parametrize("argv, report, empty", [
    (["score", "--gold", "--json"], json.dumps(score_corpus([]), sort_keys=True),
     '"per_doc": []'),
    (["trace", "--gold"], TraceReport(has_gold=True).to_text(), "\ntotal\t0\n"),
], ids=["score", "trace"])
def test_cli_gold_run_without_gold_clusters_reports_the_document(tmp_path, capsys, argv,
                                                                 report, empty):
    path = tmp_path / "nogold.jsonl"
    path.write_text(json.dumps({"id": "nogold", "sentences": [_SENTENCE]}) + "\n")
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: document 'nogold': no gold clusters in input\n"
    assert captured.out == report + "\n"
    assert empty in captured.out


@pytest.mark.parametrize("argv", [["score", "--gold", "--json"], ["trace", "--gold"]],
                         ids=["score", "trace"])
def test_cli_gold_cluster_listing_a_mention_twice_fails_its_document(tmp_path, capsys,
                                                                     argv):
    """``[[0, 0]]`` lists mention 0 twice in one entity: bad gold, reported
    like a gold partition that misses or repeats a mention across entities,
    and the other document still runs."""
    bad = {"id": "b", "sentences": [_SENTENCE], "gold_clusters": [[0, 0]]}
    good = dict(bad, id="good", gold_clusters=[[0]])
    (tmp_path / "good.jsonl").write_text(json.dumps(good) + "\n")
    (tmp_path / "both.jsonl").write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
    assert main([*argv, str(tmp_path / "good.jsonl")]) == 0
    clean = capsys.readouterr()
    assert main([*argv, str(tmp_path / "both.jsonl")]) == 1
    run = capsys.readouterr()
    assert run.err == ("error: document 'b': bad gold clusters: "
                       "mention 0 appears in one entity twice\n")
    assert run.out == clean.out


@pytest.mark.parametrize("document, doc_id", [
    ({"id": "b"}, "b"),
    (["notadict"], "?"),
    ({"id": "b", "sentences": None}, "b"),
    ({"id": "b", "sentences": [3]}, "b"),
    ({"id": "b", "sentences": _SENTENCE}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "annotations": 5}, "b"),
    ({"id": "b", "sentences": [_SENTENCE],
      "annotations": [{"s": 0, "t": 0, "supersense": 5}]}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "gold_mentions": 5}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "gold_clusters": 5}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "gold_clusters": [5]}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "gold_clusters": ["01"]}, "b"),
    ({"id": "b", "sentences": [_SENTENCE], "gold_clusters": [["x"]]}, "b"),
], ids=["no-sentences", "not-an-object", "null-sentences", "non-string-sentence",
        "string-sentences", "annotations-not-list", "annotation-label-not-string",
        "gold-mentions-not-list", "gold-clusters-not-list", "cluster-not-list",
        "cluster-is-string", "cluster-id-not-int"])
def test_cli_schema_error_is_reported_without_traceback(tmp_path, document, doc_id):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(document))
    run = run_cli(["resolve", str(path)], tmp_path)
    err = run.stderr.decode()
    assert run.returncode == 1
    assert err.startswith(f"error: document {doc_id!r}: ")
    assert "Traceback" not in err
    assert run.stdout == b""


_GOOD = {"id": "good", "sentences": [_SENTENCE]}


@pytest.mark.parametrize("name, text, message", [
    ("x.json", json.dumps([{"id": "b"}, _GOOD]),
     "error: document 'b': missing 'sentences' field\n"),
    ("x.json", json.dumps([_GOOD, ["notadict"]]),
     "error: document '?': expected a JSON object, found list\n"),
    ("x.jsonl", '{"id": "b", "sentences": 5}\n' + json.dumps(_GOOD) + "\n",
     "error: document 'b': 'sentences' is not a list of strings\n"),
    ("x.jsonl", json.dumps(_GOOD) + '\n\n{"id": "b", "sentences": [\n',
     "error: {path}: line 3: not valid JSON: Expecting value: line 1 column 27 "
     "(char 26)\n"),
], ids=["schema-first", "schema-last", "jsonl-schema", "jsonl-invalid-line"])
def test_cli_bad_entry_is_skipped_and_the_rest_runs(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    run = run_cli(["resolve", str(path)], tmp_path)
    assert run.returncode == 1
    assert run.stderr.decode() == message.format(path=path)
    assert run.stdout.decode() == "good\t0\t0\t1\t1\n"


# (document id, sentence) of a document holding a lone surrogate escape,
# which decodes to a str that cannot be written as UTF-8.
_SURROGATE_DOCUMENTS = {
    "in-a-token": ("s", "(S (NP (NNP Jo\ud800hn)) (VP (VBD left)) (. .))"),
    "in-the-id": ("s\ud800", _SENTENCE),
}


@pytest.mark.parametrize("case", list(_SURROGATE_DOCUMENTS))
def test_from_dict_rejects_a_lone_surrogate(case):
    doc_id, sentence = _SURROGATE_DOCUMENTS[case]
    with pytest.raises(DocumentError, match="not encodable as UTF-8") as caught:
        DocumentInput.from_dict({"id": doc_id, "sentences": [_SENTENCE, sentence]})
    assert caught.value.doc_id == doc_id


@pytest.mark.parametrize("case, render", [
    ("in-a-token", False), ("in-a-token", True), ("in-the-id", False),
])
def test_cli_lone_surrogate_fails_its_document_not_the_run(tmp_path, case, render):
    """A subprocess, because only a real stdout encodes what is printed."""
    doc_id, sentence = _SURROGATE_DOCUMENTS[case]
    a, b = ({"id": name, "sentences": [_SENTENCE]} for name in "ab")
    s = {"id": doc_id, "sentences": [sentence]}
    (tmp_path / "asb.jsonl").write_text("".join(json.dumps(d) + "\n" for d in (a, s, b)))
    (tmp_path / "ab.jsonl").write_text("".join(json.dumps(d) + "\n" for d in (a, b)))
    flags = ["--render"] if render else []
    run = run_cli(["resolve", *flags, "asb.jsonl"], tmp_path)
    clean = run_cli(["resolve", *flags, "ab.jsonl"], tmp_path)
    assert clean.returncode == 0
    assert run.returncode == 1
    assert run.stdout == clean.stdout
    assert run.stdout.decode().count("\t1\t1\n") == 2  # a's row and b's
    err = run.stderr.decode()
    assert err.startswith(f"error: document {doc_id!r}: not encodable as UTF-8: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_from_dict_rejects_an_id_that_would_break_a_row():
    """A tab, or any character ``str.splitlines`` breaks on, in the id."""
    breaks = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) > 1]
    assert len(breaks) == 10
    for char in ["\t", *breaks]:
        doc_id = f"a{char}b"
        with pytest.raises(DocumentError, match="id holds a tab or a line break") as caught:
            DocumentInput.from_dict({"id": doc_id, "sentences": [_SENTENCE]})
        assert caught.value.doc_id == doc_id
    for doc_id in ("a b", "a\u00a0b", "a\\tb", "\u00e9"):
        assert DocumentInput.from_dict({"id": doc_id, "sentences": []}).doc_id == doc_id


@pytest.mark.parametrize("argv", [["resolve"], ["score", "--gold"]])
def test_cli_id_that_would_break_a_row_fails_its_document(tmp_path, capsys, argv):
    """The id ``a<TAB>b<LF>c`` would print as two rows; its document is
    reported and skipped, and the documents around it still run."""
    a, b = ({"id": name, "sentences": [_SENTENCE], "gold_clusters": [[0]]} for name in "ab")
    bad = dict(a, id="a\tb\nc")
    (tmp_path / "abad.jsonl").write_text("".join(json.dumps(d) + "\n" for d in (a, bad, b)))
    (tmp_path / "ab.jsonl").write_text("".join(json.dumps(d) + "\n" for d in (a, b)))
    assert main([*argv, str(tmp_path / "ab.jsonl")]) == 0
    clean = capsys.readouterr()
    assert main([*argv, str(tmp_path / "abad.jsonl")]) == 1
    run = capsys.readouterr()
    assert run.out == clean.out
    rows = [line.split("\t")[0] for line in run.out.splitlines()]
    assert rows.count("a") == rows.count("b") == 1
    assert run.err == "error: document 'a\\tb\\nc': id holds a tab or a line break\n"
    assert "Traceback" not in run.err


def test_cli_bad_file_is_skipped_and_other_inputs_run(tmp_path):
    """A file that is neither JSON nor JSON lines is one error; a missing
    input, an empty directory or a file without documents still stop the
    run with status 2 before any document runs."""
    (tmp_path / "good.json").write_text(json.dumps(_GOOD))
    (tmp_path / "bad.json").write_text('{"id": "b",\n "sentences": [}\n')
    run = run_cli(["resolve", "bad.json", "good.json"], tmp_path)
    assert run.returncode == 1
    assert run.stderr.decode().startswith("error: bad.json: not valid JSON: ")
    assert run.stderr.decode().count("\n") == 1
    assert run.stdout.decode() == "good\t0\t0\t1\t1\n"
    (tmp_path / "blank.json").write_text("\n \n")
    (tmp_path / "empty").mkdir()
    for stopper in ["blank.json", "empty", "missing.json"]:
        run = run_cli(["resolve", "good.json", stopper], tmp_path)
        assert run.returncode == 2
        assert run.stderr.decode().startswith(f"error: {stopper}: ")
        assert run.stdout == b""


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_cli_reads_a_document_piped_to_dev_stdin(tmp_path):
    run = run_cli(["resolve", "/dev/stdin"], tmp_path, stdin=json.dumps(_GOOD).encode())
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout.decode() == "good\t0\t0\t1\t1\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_documents_reads_a_fifo_as_one_file(tmp_path):
    fifo = tmp_path / "docs"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(json.dumps([_GOOD, _GOOD]),))
    writer.start()
    try:
        docs = load_documents([str(fifo)])
    finally:  # a read end, opened and closed, frees a writer nothing read
        while writer.is_alive():
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.1)
    assert [doc.doc_id for doc in docs] == ["good", "good"]


# Every integer field of a document, as (field, document with the value V).
_INTEGER_FIELDS = {
    "annotation-s": ("bad annotation", {"annotations": [{"s": "V", "t": 0}]}),
    "annotation-t": ("bad annotation", {"annotations": [{"s": 0, "t": "V"}]}),
    "gold-mention-s": ("bad gold mention",
                       {"gold_mentions": [{"s": "V", "start": 0, "end": 1}]}),
    "gold-mention-start": ("bad gold mention",
                           {"gold_mentions": [{"s": 0, "start": "V", "end": 1}]}),
    "gold-mention-end": ("bad gold mention",
                         {"gold_mentions": [{"s": 0, "start": 0, "end": "V"}]}),
    "gold-clusters": ("bad gold clusters", {"gold_clusters": [["V"]]}),
}


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "true", "1.7"])
@pytest.mark.parametrize("field", list(_INTEGER_FIELDS))
def test_cli_non_integer_field_is_reported_and_skipped(tmp_path, capsys, field, value):
    """Plain ``int()`` raises OverflowError on an infinity and reads
    ``true`` as 1 and 1.7 as 1; each is a schema error of its document
    alone."""
    prefix, extra = _INTEGER_FIELDS[field]
    bad = json.dumps({"id": "b", "sentences": [_SENTENCE], **extra}).replace('"V"', value)
    path = tmp_path / "x.jsonl"
    path.write_text(bad + "\n" + json.dumps(_GOOD) + "\n")
    assert main(["resolve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: document 'b': {prefix}")
    assert captured.err.endswith(f": not an integer: {json.loads(value)!r}\n")
    assert captured.out == "good\t0\t0\t1\t1\n"


def test_cli_integral_numbers_are_still_accepted(tmp_path, capsys):
    document = {"id": "good", "sentences": [_SENTENCE],
                "annotations": [{"s": 0.0, "t": "0", "ner": "PERSON"}],
                "gold_mentions": [{"s": 0, "start": 0.0, "end": 1}],
                "gold_clusters": [["0"]]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(document))
    assert main(["resolve", str(path)]) == 0
    assert capsys.readouterr().out == "good\t0\t0\t1\t1\n"


@pytest.mark.parametrize("key, entry, message", [
    ("annotations", {"s": "x"}, "invalid literal for int() with base 10: 'x'"),
    ("annotations", {"s": True, "t": 0}, "not an integer: True"),
    ("annotations", {"s": 0, "t": 1.5}, "not an integer: 1.5"),
    ("annotations", [0, 1], "list indices must be integers or slices, not str"),
    ("annotations", {"s": 0, "t": 0, "ner": 5}, "supersense and ner must be strings"),
    ("annotations", {"s": 0, "t": 0, "supersense": ["x"]},
     "supersense and ner must be strings"),
    ("gold_mentions", {"s": "x", "end": 1}, "invalid literal for int() with base 10: 'x'"),
    ("gold_mentions", {"s": 0, "start": False, "end": 1}, "not an integer: False"),
    ("gold_mentions", {"s": 0, "start": 0, "end": 2.5}, "not an integer: 2.5"),
    ("gold_mentions", [0, 0, 1], "list indices must be integers or slices, not str"),
], ids=["bad-s-no-t", "bool", "fraction", "list", "ner", "supersense",
        "gold-bad-s-no-start", "gold-bool", "gold-fraction", "gold-list"])
def test_from_dict_reports_the_first_bad_field_of_an_entry(key, entry, message):
    """Fields are read and checked in order, so an entry missing a later
    field still reports its bad earlier one."""
    kind = {"annotations": "annotation", "gold_mentions": "gold mention"}[key]
    with pytest.raises(DocumentError) as caught:
        DocumentInput.from_dict({"id": "b", "sentences": [_SENTENCE], key: [entry]})
    assert str(caught.value) == f"document 'b': bad {kind} {entry!r}: {message}"


def test_from_dict_reads_numeric_strings_and_integral_floats():
    document = DocumentInput.from_dict({
        "id": "good", "sentences": [_SENTENCE],
        "annotations": [{"s": "0", "t": 0.0, "supersense": "noun.person", "ner": None},
                        {"s": 0, "t": 0}],
        "gold_mentions": [{"s": "0", "start": 0.0, "end": 1}]})
    assert document.annotations == [TokenAnnotation(0, 0, "noun.person", None),
                                    TokenAnnotation(0, 0)]
    assert all(type(ann) is TokenAnnotation for ann in document.annotations)
    assert all(type(value) is int for ann in document.annotations for value in ann[:2])
    assert document.gold_mentions == [(0, 0, 1)]
    assert all(type(value) is int for value in document.gold_mentions[0])


@pytest.mark.parametrize("name, content, message", [
    ("deep.json", b"[" * 200_000, "not valid JSON: maximum recursion depth exceeded"),
    ("latin1.json", b'{"id": "caf\xe9", "sentences": []}',
     "not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 11"),
], ids=["deeply-nested", "not-utf8"])
def test_cli_unreadable_file_is_skipped_and_other_inputs_run(tmp_path, name, content,
                                                              message):
    (tmp_path / "good.json").write_text(json.dumps(_GOOD))
    (tmp_path / name).write_bytes(content)
    for order in ([name, "good.json"], ["good.json", name]):
        run = run_cli(["resolve", *order], tmp_path)
        assert run.returncode == 1
        assert run.stderr.decode().startswith(f"error: {name}: {message}")
        assert run.stderr.decode().count("\n") == 1
        assert run.stdout.decode() == "good\t0\t0\t1\t1\n"


def test_cli_directory_named_json_is_skipped_and_the_rest_runs(tmp_path):
    """``*.json`` in an input directory also matches a subdirectory, which
    cannot be read as a file."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(json.dumps(_GOOD))
    (corpus / "sub.json").mkdir()
    run = run_cli(["resolve", "corpus"], tmp_path)
    assert run.returncode == 1
    assert run.stderr.decode().startswith(
        f"error: {Path('corpus', 'sub.json')}: cannot read: ")
    assert run.stderr.decode().count("\n") == 1
    assert run.stdout.decode() == "good\t0\t0\t1\t1\n"


def test_cli_file_without_read_permission_is_skipped(tmp_path, capsys, monkeypatch):
    (tmp_path / "good.json").write_text(json.dumps(_GOOD))
    locked = tmp_path / "locked.json"
    locked.write_text(json.dumps(_GOOD))
    read_text = Path.read_text

    def refuse_locked(path, *args, **kwargs):
        if path.name == locked.name:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse_locked)
    assert main(["resolve", str(locked), str(tmp_path / "good.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {locked}: cannot read: Permission denied\n"
    assert captured.out == "good\t0\t0\t1\t1\n"


@pytest.mark.parametrize("config", [
    "5", "[1]", '[["check_gender", false]]', '{"check_gender": "no"}',
    '{"check_gender": 0}', '{"check_gender": false', "[" * 200_000 + "]" * 200_000,
    b'{"check_gender": "\xff"}',
], ids=["number", "list", "pair-list", "string-value", "integer-value", "not-json",
        "deep-nesting", "not-utf8"])
def test_cli_bad_config_is_reported_without_traceback(tmp_path, config):
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config)
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", "--config", "cfg.json", str(corpus)], tmp_path)
    err = run.stderr.decode()
    assert run.returncode == 2
    assert err.startswith("error: cfg.json: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert run.stdout == b""


@pytest.mark.parametrize("name, argv, broken", [
    ("resolve_render", ["resolve", "--render"], False),
    ("score_gold", ["score", "--gold"], False),
    ("score_gold_json", ["score", "--gold", "--json"], False),
    ("trace_gold", ["trace", "--gold"], False),
    # The flag makes some P/R/F differ from 1.0, so the F1 arithmetic is pinned.
    ("score_gold_json_broken", ["score", "--gold", "--json", "--strict-typechecking"], True),
    # ``*_long`` cases run on long.jsonl: 20-40 sentence documents, one with
    # gold mentions, pin long candidate pools, cross-sentence distances and
    # gold-mention mapping.
    ("resolve_render_long", ["resolve", "--render"], False),
    ("score_gold_json_long", ["score", "--gold", "--json"], False),
    ("trace_gold_long", ["trace", "--gold"], False),
])
def test_cli_output_matches_golden_bytes(tmp_path, capsys, name, argv, broken):
    """Exact output on the ablation corpus (or ``long.jsonl``), pinned in
    ``tests/golden``."""
    if name.endswith("_long"):
        path = GOLDEN / "long.jsonl"
    else:
        path = write_corpus(tmp_path, ablation_corpus())
    if broken:
        (path / "synth-05-broken.json").write_text(json.dumps(
            {"id": "synth-05-broken", "sentences": ["(S (NP"]}))
    assert main([*argv, str(path)]) == (1 if broken else 0)
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    expected_err = (GOLDEN / f"{name}.err").read_text(encoding="utf-8") if broken else ""
    assert captured.err == expected_err


def test_cli_output_matches_digests_under_every_single_flag(tmp_path):
    """stdout, stderr and exit status of ``resolve --render``, ``score --gold
    --json`` and ``trace --gold`` on the ablation corpus and ``long.jsonl``,
    under the default config and each ablation flag, match the sha256
    digests in ``tests/golden/digests.json``. A change that means to alter
    output regenerates them with ``tests/golden/make_digests.py``."""
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    actual = cli_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def test_every_single_flag_changes_some_digested_stdout():
    """Each ablation flag changes the stdout of at least one command on at
    least one corpus from the default run's, so the digest table would see
    a change that broke the filter or rule behind it."""
    table = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))

    def changes_stdout(key):
        default = key.rsplit(" | ", 1)[0] + " | default"
        return table[key]["stdout"] != table[default]["stdout"]

    unseen = [flag for flag, _, _ in _ABLATION_FLAGS
              if not any(changes_stdout(key) for key in table if key.endswith(f" | {flag}"))]
    assert unseen == []


_FUZZ_VALUES = [None, True, -1, 1.5, 10**30, float("inf"), float("nan"), "",
                "(S (NP", ")", [], {}, [[0, 1]], [0, 0, 0]]


def _fuzz(rng, value):
    """A copy of the JSON value ``value`` with one random fault at a random
    depth: a value replaced (retyped, or an overflowing or non-finite
    number), a list or string cut short, a key dropped, the value buried in
    nested lists, or a bracket added or removed in a string."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.75:
        value = value.copy()
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        value[key] = _fuzz(rng, value[key])
        return value
    fault = rng.randrange(5)
    if fault == 1 and isinstance(value, (list, str)):
        return value[:rng.randrange(len(value) + 1)]
    if fault == 2 and isinstance(value, dict) and value:
        value = value.copy()
        del value[rng.choice(list(value))]
        return value
    if fault == 3:
        for _ in range(rng.choice([2, 40])):
            value = [value]
        return value
    if fault == 4 and isinstance(value, str) and value:
        i = rng.randrange(len(value))
        return value[:i] + rng.choice(["(", ")", ""]) + value[i + 1:]
    return rng.choice(_FUZZ_VALUES)


def _fuzz_file(rng, documents):
    """The bytes of a JSON or JSON-lines file of faulty copies of some of
    ``documents``, sometimes with the text itself damaged too."""
    docs = [_fuzz(rng, rng.choice(documents)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        text = "\n".join(json.dumps(doc) for doc in docs)
    else:
        text = json.dumps(docs)
    data = text.encode("utf-8")
    damage = rng.randrange(6)
    brackets = [i for i, byte in enumerate(data) if byte in b"[]{}"]
    if damage == 0 and brackets:  # a bracket of the JSON dropped
        i = rng.choice(brackets)
        data = data[:i] + data[i + 1:]
    elif damage == 1:  # bytes that are not UTF-8
        i = rng.randrange(len(data))
        data = data[:i] + b"\xff\xfe" + data[i:]
    elif damage == 2:  # nesting deeper than the interpreter's recursion limit
        data = b"[" * 100_000 + data + b"]" * 100_000
    return data


_LONE_SURROGATES = ["\ud800", "\udbff", "\udc80", "\udfff"]


def _with_lone_surrogate(rng, document):
    """A copy of ``document`` with a lone surrogate escape placed in its id
    or inside one token of one of its sentences."""
    document = dict(document)
    surrogate = rng.choice(_LONE_SURROGATES)
    if rng.random() < 0.5:
        doc_id = str(document.get("id", ""))
        i = rng.randrange(len(doc_id) + 1)
        document["id"] = doc_id[:i] + surrogate + doc_id[i:]
    else:
        sentences = list(document["sentences"])
        k = rng.randrange(len(sentences))
        tokens = [match.start() for match in re.finditer(r"[^\s()]+\)", sentences[k])]
        i = rng.choice(tokens) + 1
        sentences[k] = sentences[k][:i] + surrogate + sentences[k][i:]
        document["sentences"] = sentences
    return document


def test_cli_survives_seeded_fuzzed_inputs(tmp_path, capsys):
    """Faulty copies of the ``long.jsonl`` documents end, under every
    command, in exit status 0, 1 or 2 with only ``error: `` lines on
    stderr, and never in an exception. The second 100 copies hold a lone
    surrogate escape in an id or a token, drawn from their own generator
    so that the first 200 files keep their bytes."""
    documents = [json.loads(line) for line in
                 (GOLDEN / "long.jsonl").read_text(encoding="utf-8").splitlines()]
    rng = random.Random(20261018)
    lone = random.Random(20261019)
    files = [_fuzz_file(rng, documents) for _ in range(200)]
    files += [_fuzz_file(lone, [_with_lone_surrogate(lone, d) for d in documents])
              for _ in range(100)]
    path = tmp_path / "fuzz.json"
    statuses = set()
    for data in files:
        path.write_bytes(data)
        for argv in (["resolve"], ["score", "--gold"], ["trace", "--gold"]):
            code = main([*argv, str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code)
            assert all(line.startswith("error: ") for line in err.splitlines()), err
            statuses.add(code)
    assert {0, 1} <= statuses  # some copies still run, some are reported


def test_resources_env_var_override(tmp_path, capsys, monkeypatch,
                                    fixture_resources):
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    monkeypatch.setenv("COREF_RESOURCES", str(fixture_resources))
    assert main(["resolve", str(corpus)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("COREF_RESOURCES", str(tmp_path / "nowhere"))
    assert main(["resolve", str(corpus)]) == 2
    assert "file not found" in capsys.readouterr().err


def test_cli_trace_min_pronoun_count(tmp_path, capsys):
    corpus = write_corpus(tmp_path, ablation_corpus())
    code = main(["trace", "--gold", "--min-pronoun-count", "6", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    assert "he\t10\t0" in captured.out  # 10 occurrences
    assert "it\t5" not in captured.out  # below threshold
    assert "she\t5" not in captured.out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_declared_target_runs(tmp_path):
    """The declared ``coref`` script target, run as the installer's wrapper
    runs it; needs no install."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["coref"] == "coref.cli:main"
    module, function = scripts["coref"].split(":")
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", str(corpus)], tmp_path,
                  program=(sys.executable, "-c", wrapper))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.startswith(b"synth-00\t")


@pytest.mark.skipif(shutil.which("coref") is None,
                    reason="no installed coref executable on PATH")
def test_console_script_entry_point(tmp_path):
    corpus = write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", str(corpus)], tmp_path, program=("coref",))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.startswith(b"synth-00\t")


def test_cli_byte_identical_runs(tmp_path):
    corpus = write_corpus(tmp_path, ablation_corpus())
    commands = [
        ["resolve", "--render", str(corpus)],
        ["score", "--gold", "--json", str(corpus)],
        ["trace", "--gold", str(corpus)],
    ]
    for command in commands:
        first, second = run_cli_twice(command, tmp_path)
        assert first.returncode == 0, first.stderr.decode()
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


def _wide_rows_corpus(tmp_path):
    """300 one-sentence documents with 2,000-character ids: ``resolve`` and
    ``score --gold`` each print more than a megabyte of rows, far more than a
    pipe holds, so a closed pipe fails a write while the run is printing."""
    path = tmp_path / "wide.jsonl"
    sentence = "(S (NP (NNP John)) (VP (VBD said) (SBAR (S (NP (PRP he)) (VP (VBD won))))))"
    path.write_text("".join(
        json.dumps({"id": f"{i:03d}" + "x" * 2000, "sentences": [sentence],
                    "gold_clusters": [[0, 1]]}) + "\n" for i in range(300)),
        encoding="utf-8")
    return path


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
@pytest.mark.parametrize("argv", [["resolve"], ["score", "--gold"]], ids=["resolve", "score"])
def test_cli_unwritable_stdout_is_one_error_line(tmp_path, argv, sink):
    """Standard output that fails to take a write ends the run with exit 2
    and the one ``error: <OSError>`` line on stderr, with no traceback: a
    reader that takes one row and closes the pipe, as ``| head -1`` does, or
    the full device ``/dev/full``."""
    command = [sys.executable, "-m", "coref", *argv, str(_wide_rows_corpus(tmp_path))]
    if sink == "closed-pipe":
        run = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               cwd=tmp_path, env=cli_env())
        assert run.stdout.readline().endswith(b"\n")
        run.stdout.close()
        err = run.stderr.read()
        run.stderr.close()
        status = run.wait(timeout=120)
        expected = b"error: [Errno 32] Broken pipe\n"
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            run = subprocess.run(command, stdout=full, stderr=subprocess.PIPE,
                                 cwd=tmp_path, env=cli_env(), timeout=120)
        err, status = run.stderr, run.returncode
        expected = b"error: [Errno 28] No space left on device\n"
    assert b"Traceback" not in err, err.decode()
    assert err == expected
    assert status == 2
