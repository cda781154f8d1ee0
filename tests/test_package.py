"""The package as a whole: what importing it loads, and the record types'
construction, equality, mutability and hashing."""

import subprocess
import sys
from collections import Counter

import pytest

import coref
import coref.cli
from coref import (Decision, DocumentInput, Gender, GrammaticalPerson, Lexicon,
                   Mention, MentionKind, Number, PairCounts, Personhood,
                   PipelineResult, PronounEntry, ResolveConfig, Rule, Score,
                   TokenAnnotation, TraceReport, TypeProfile, read_ptb, run_pipeline)
from helpers import COREF_IMPORT_ROOT

# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------

_LOADED = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import {module}
print(sys.modules["coref"].__file__)
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("module, absent", [
    ("coref", {"dataclasses", "logging", "argparse", "json", "coref.cli"}),
    ("coref.cli", {"dataclasses", "logging"}),
])
def test_import_loads_no_module_it_does_not_use(module, absent):
    """Start-up cost is what importing loads: the library path needs no CLI
    parsing or JSON, and no module needs dataclasses or logging.

    ``-S`` keeps site ``.pth`` files from importing modules before the
    baseline is taken. ``inspect`` is not checked: ``importlib.resources``
    (which finds the packaged word lists) imports it on Python 3.12 and later."""
    run = subprocess.run([sys.executable, "-I", "-S", "-c", _LOADED.format(module=module),
                          str(COREF_IMPORT_ROOT)], capture_output=True, text=True,
                         check=True, timeout=60)
    origin, loaded = run.stdout.splitlines()
    assert origin.startswith(str(COREF_IMPORT_ROOT))
    assert module in loaded.split()
    assert absent.isdisjoint(loaded.split())


def test_cli_still_offers_the_pipeline_and_report_names():
    for name in ("DocumentError", "DocumentInput", "PipelineResult", "run_pipeline",
                 "gold_clustering", "TraceReport", "trace_report", "score_corpus",
                 "render_brackets"):
        assert getattr(coref.cli, name) is getattr(coref, name)


# ---------------------------------------------------------------------------
# Record contract
# ---------------------------------------------------------------------------

_HE = dict(surface="he", gender=Gender.MALE, personhood=Personhood.PERSON,
           number=Number.SINGULAR, grammatical_person=GrammaticalPerson.THIRD,
           reflexive=False, possessive=False)
_CONFIG_DEFAULTS = dict(
    use_word_lists=True, check_gender=True, check_personhood=True, check_number=True,
    resolve_pronouns=True, resolve_second_person=True, allow_pro_pro_match=True,
    strict_typecheck=False, check_grammatical_person=False,
    enable_role_appositive=True, pred_nom_exclude_modals=False)

# (record, its required fields, its defaults, one field set to another value),
# fields in declaration order.
_FROZEN = [
    (PronounEntry, _HE, {}, {"reflexive": True}),
    (Lexicon, dict(titles={"mr": Gender.MALE}, pronouns={"he": PronounEntry(**_HE)},
                   copulas=frozenset({"is"}), first_names={"john": Gender.MALE}),
     {}, {"copulas": frozenset({"was"})}),
    (TypeProfile, dict(gender=Gender.FEMALE, personhood=Personhood.PERSON,
                       number=Number.SINGULAR), {}, {"number": Number.PLURAL}),
    (TokenAnnotation, dict(sentence_index=0, token_index=2),
     dict(supersense=None, ner=None), {"ner": "PERSON"}),
    (Decision, dict(mention_id=3, antecedent=1, rule=Rule.PRONOUN), {},
     {"antecedent": None}),
    (ResolveConfig, {}, _CONFIG_DEFAULTS, {"check_gender": False}),
    (PairCounts, {}, dict(tp=0, fp=0, fn=0), {"fp": 2}),
    (Score, dict(precision=0.5, recall=0.25, f1=1 / 3), {}, {"f1": 0.0}),
]


def _mutable_records():
    document = DocumentInput("d", ["(S (NP (NNP John)) (VP (VBD left)) (. .))"])
    result = run_pipeline(document)
    leaf = read_ptb("(NP (PRP he))")[0].children[0]
    return [
        (Mention, dict(mention_id=0, node=leaf, head=leaf, kind=MentionKind.PRONOUN),
         dict(profile=None, pronoun=None), {"mention_id": 1}),
        (DocumentInput, dict(doc_id="d", sentences=list(document.sentences)),
         dict(annotations=[], gold_mentions=None, gold_clusters=None),
         {"gold_clusters": [[0]]}),
        (PipelineResult, dict(input=document, tree=result.tree, mentions=result.mentions,
                              decisions=result.decisions, clustering=result.clustering),
         {}, {"decisions": []}),
        (TraceReport, {}, dict(rule_counts=Counter(), rule_correct=Counter(),
                               rule_incorrect=Counter(), pronoun_correct=Counter(),
                               pronoun_incorrect=Counter(), has_gold=False),
         {"has_gold": True}),
    ]


def _check_construction_and_equality(cls, required, defaults, other):
    record = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value
    assert cls(*required.values()) == record
    assert cls(*required.values(), *defaults.values()) == record
    assert cls(**required, **defaults) == record
    changed = cls(**{**required, **defaults, **other})
    assert changed != record
    assert not (changed == record)
    return record, changed


@pytest.mark.parametrize("cls, required, defaults, other", _FROZEN,
                         ids=[case[0].__name__ for case in _FROZEN])
def test_frozen_record_contract(cls, required, defaults, other):
    record, changed = _check_construction_and_equality(cls, required, defaults, other)
    assert cls._fields == (*required, *defaults)
    name, value = next(iter(other.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) != value
    if cls is Lexicon:  # its tables are dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**required, **defaults))


@pytest.mark.parametrize("case", range(4),
                         ids=["Mention", "DocumentInput", "PipelineResult", "TraceReport"])
def test_mutable_record_contract(case):
    cls, required, defaults, other = _mutable_records()[case]
    record, changed = _check_construction_and_equality(cls, required, defaults, other)
    name, value = next(iter(other.items()))
    setattr(record, name, value)
    assert getattr(record, name) == value and record == changed
    with pytest.raises(TypeError):
        hash(record)
    assert cls.__name__ in repr(record)


def test_mutable_record_defaults_are_fresh_per_instance():
    first, second = DocumentInput("a", []), DocumentInput("b", [])
    assert first.annotations is not second.annotations
    first.annotations.append(TokenAnnotation(0, 0))
    assert second.annotations == []
    first, second = TraceReport(), TraceReport()
    tallies = ("rule_counts", "rule_correct", "rule_incorrect",
               "pronoun_correct", "pronoun_incorrect")
    for name in tallies:
        assert getattr(first, name) is not getattr(second, name)
    first.rule_counts[Rule.NULL] += 1
    assert second == TraceReport()
