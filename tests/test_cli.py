import gc
import json
import re
import shutil
import sys
import weakref
from pathlib import Path

import pytest

from coref import (DocumentError, DocumentInput, PairCounts, ResolveConfig,
                   Rule, gold_clustering, render_brackets, run_pipeline,
                   score_corpus, trace_report)
from coref.cli import build_config, build_parser, load_documents, main
from helpers import (EXAMPLE1_GOLD, EXAMPLE1_SENTENCES, ablation_corpus,
                     pipeline, run_cli, run_cli_twice)


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
        tree, root = weakref.ref(result.tree), weakref.ref(result.tree.root)
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

def test_trace_all_null_on_singleton_gold(fixture_lex):
    sentences = ["(S (NP (DT a) (NN cat)) (VP (VBD saw) (NP (DT a) (NN fern))) (. .))"]
    result = pipeline(sentences, gold_clusters=[], lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    assert report.rule_counts[Rule.NULL] == 2
    assert report.rule_correct[Rule.NULL] == 2
    assert report.rule_incorrect[Rule.NULL] == 0
    assert report.total == 2


def test_trace_example1_pronoun_accuracy(fixture_lex):
    result = pipeline(EXAMPLE1_SENTENCES, gold_clusters=EXAMPLE1_GOLD,
                      lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    assert report.rule_correct[Rule.PRONOUN] >= 3
    assert report.rule_incorrect[Rule.PRONOUN] == 0
    assert report.rule_counts[Rule.PRONOUN] == 4  # himself x2, he, him
    assert report.total == len(result.decisions)


def test_trace_null_correctness_uses_previous_mentions(fixture_lex):
    # "it" wrongly unresolved: a previous gold-coreferent mention exists.
    sentences = ["(S (NP (DT the) (NN ship)) (VP (VBD sank)) (. .))",
                 "(S (NP (PRP they)) (VP (VBD watched)) (. .))"]
    result = pipeline(sentences, gold_clusters=[[0, 1]], lex=fixture_lex)
    gold = gold_clustering(result.input, result.mentions)
    report = trace_report(result.decisions, result.mentions, gold)
    # they vs ship clash on number -> NULL, but gold links them: incorrect
    assert report.rule_incorrect[Rule.NULL] == 1
    assert report.pronoun_incorrect["they"] == 1


def test_trace_pronoun_rows_sorted_by_accuracy(fixture_lex):
    report = trace_report([], [], None)
    report.pronoun_correct.update({"he": 3, "it": 1})
    report.pronoun_incorrect.update({"he": 1, "it": 3, "you": 1})
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
    assert merged.rule_counts[Rule.PRONOUN] == 2 * single.rule_counts[Rule.PRONOUN]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _write_corpus(tmp_path, docs):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for doc in docs:
        payload = {"id": doc.doc_id, "sentences": doc.sentences}
        if doc.annotations:
            payload["annotations"] = [
                {"s": a.sentence_index, "t": a.token_index,
                 "supersense": a.supersense, "ner": a.ner}
                for a in doc.annotations]
        if doc.gold_clusters is not None:
            payload["gold_clusters"] = doc.gold_clusters
        (directory / f"{doc.doc_id}.json").write_text(json.dumps(payload))
    return directory


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
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    code = main(["resolve", "--render", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert "synth-00\t0\t0\t1\t1" in lines
    assert any(line.startswith("# [John]_1") for line in lines)


def test_cli_score_gold_required(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    code = main(["score", str(corpus)])
    assert code == 2
    assert "requires --gold" in capsys.readouterr().err


def test_cli_score_json_report(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, ablation_corpus())
    code = main(["score", "--gold", "--json", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert set(report) == {"pairwise", "b3", "per_doc"}
    assert set(report["pairwise"]) == {"p", "r", "f"}
    assert len(report["per_doc"]) == 20
    assert report["pairwise"]["r"] == pytest.approx(1.0)


def test_cli_trace_text(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, ablation_corpus())
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
    corpus = _write_corpus(tmp_path, ablation_corpus()[:2])
    (corpus / "aa-broken.json").write_text(json.dumps(
        {"id": "aa-broken", "sentences": ["(S (NP"]}))
    code = main([*argv, str(corpus)])
    captured = capsys.readouterr()
    assert code == 1
    assert "aa-broken" in captured.err
    assert survivors(captured.out)


_SENTENCE = "(S (NP (NNP John)) (VP (VBD left)) (. .))"


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


@pytest.mark.parametrize("config", [
    "5", "[1]", '[["check_gender", false]]', '{"check_gender": "no"}',
    '{"check_gender": 0}',
], ids=["number", "list", "pair-list", "string-value", "integer-value"])
def test_cli_bad_config_is_reported_without_traceback(tmp_path, config):
    (tmp_path / "cfg.json").write_text(config)
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", "--config", "cfg.json", str(corpus)], tmp_path)
    err = run.stderr.decode()
    assert run.returncode == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert run.stdout == b""


GOLDEN = Path(__file__).resolve().parent / "golden"


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
        path = _write_corpus(tmp_path, ablation_corpus())
    if broken:
        (path / "synth-05-broken.json").write_text(json.dumps(
            {"id": "synth-05-broken", "sentences": ["(S (NP"]}))
    assert main([*argv, str(path)]) == (1 if broken else 0)
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    expected_err = (GOLDEN / f"{name}.err").read_text(encoding="utf-8") if broken else ""
    assert captured.err == expected_err


def test_resources_env_var_override(tmp_path, capsys, monkeypatch,
                                    fixture_resources):
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    monkeypatch.setenv("COREF_RESOURCES", str(fixture_resources))
    assert main(["resolve", str(corpus)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("COREF_RESOURCES", str(tmp_path / "nowhere"))
    assert main(["resolve", str(corpus)]) == 2
    assert "file not found" in capsys.readouterr().err


def test_cli_trace_min_pronoun_count(tmp_path, capsys):
    corpus = _write_corpus(tmp_path, ablation_corpus())
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
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", str(corpus)], tmp_path,
                  program=(sys.executable, "-c", wrapper))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.startswith(b"synth-00\t")


@pytest.mark.skipif(shutil.which("coref") is None,
                    reason="no installed coref executable on PATH")
def test_console_script_entry_point(tmp_path):
    corpus = _write_corpus(tmp_path, ablation_corpus()[:1])
    run = run_cli(["resolve", str(corpus)], tmp_path, program=("coref",))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.startswith(b"synth-00\t")


def test_cli_byte_identical_runs(tmp_path):
    corpus = _write_corpus(tmp_path, ablation_corpus())
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
