"""The package as a whole: what importing it loads, the names it exports,
and the record types' construction, equality, mutability and hashing."""

import ast
import enum
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType, SimpleNamespace

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


#: What no ``coref`` module needs: ``dataclasses`` (which brings ``inspect``)
#: and ``logging``, and ``importlib.resources`` with what it imports
#: (``tempfile``, ``shutil``, ``random``, ``bz2``, ``lzma``, and on Python
#: 3.12 and later ``inspect``), since the word lists are read from the
#: package's own directory.
_UNUSED = {"dataclasses", "inspect", "logging", "importlib.resources", "tempfile",
           "shutil", "random", "bz2", "lzma"}


@pytest.mark.parametrize("module, absent", [
    ("coref", _UNUSED | {"argparse", "json", "coref.cli"}),
    ("coref.cli", _UNUSED),
])
def test_import_loads_no_module_it_does_not_use(module, absent):
    """Start-up cost is what importing loads: the library path needs no CLI
    parsing or JSON, and no module needs the modules in ``_UNUSED``.

    ``-S`` keeps site ``.pth`` files from importing modules before the
    baseline is taken."""
    run = subprocess.run([sys.executable, "-I", "-S", "-c", _LOADED.format(module=module),
                          str(COREF_IMPORT_ROOT)], capture_output=True, text=True,
                         check=True, timeout=60)
    origin, loaded = run.stdout.splitlines()
    assert origin.startswith(str(COREF_IMPORT_ROOT))
    assert module in loaded.split()
    assert absent.isdisjoint(loaded.split())


def test_cli_still_offers_the_pipeline_and_report_names():
    for name in ("DocumentError", "DocumentInput", "run_pipeline", "gold_clustering",
                 "TraceReport", "trace_report", "score_corpus", "render_brackets"):
        assert getattr(coref.cli, name) is getattr(coref, name)


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

#: Resolver, treebank and lexicon internals that live in their modules and
#: are not exported from ``coref``, by module.
_INTERNALS = {
    "coref.resolve": ("MentionIndex", "detect_appositive", "detect_role_appositive",
                      "detect_pred_nom", "reflexive_subject", "initial_adjuncts",
                      "type_compatible"),
    "coref.treebank": ("collins_head_child", "dominates", "head_leaf"),
    "coref.lexicon": ("pronoun_lookup",),
}


def test_all_lists_exactly_the_public_names():
    """``__all__`` is the public surface: the names of ``dir(coref)`` that are
    neither underscored nor modules, the count CI's "Line totals" step
    reports."""
    public = sorted(name for name in dir(coref) if not name.startswith("_")
                    and not isinstance(getattr(coref, name), ModuleType))
    assert sorted(coref.__all__) == public
    assert len(coref.__all__) == len(set(coref.__all__)) == 45


@pytest.mark.parametrize("module, name", [(module, name) for module, names in _INTERNALS.items()
                                          for name in names])
def test_internals_are_importable_from_their_module_only(module, name):
    assert not hasattr(coref, name)
    assert callable(getattr(importlib.import_module(module), name))


# ---------------------------------------------------------------------------
# Enum members off the hot paths
# ---------------------------------------------------------------------------

def _enum_member_reads(source: str, namespace) -> list[tuple[int, str]]:
    """The ``Name.attr`` reads inside the function bodies of ``source`` whose
    ``Name`` is bound in ``namespace`` to an Enum class, as (line, text)."""
    found = set()  # a nested function is walked again with its parent
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = function.body if isinstance(function.body, list) else [function.body]
        for node in (node for statement in body for node in ast.walk(statement)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bound = getattr(namespace, node.value.id, None)
                if isinstance(bound, type) and issubclass(bound, enum.Enum):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("name", ["resolve", "mention", "report"])
def test_per_mention_code_reads_no_enum_member_through_its_class(name):
    """On Python 3.11 every ``Gender.UNKNOWN``-style read takes a slow hook
    (see the note on ``Gender`` in lexicon.py), so these modules read
    members through module-level aliases."""
    module = importlib.import_module(f"coref.{name}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert _enum_member_reads(source, module) == []


def test_enum_member_read_check_flags_reads_and_passes_iteration():
    source = (
        "_UNKNOWN = Gender.UNKNOWN\n"  # module level: read once at import
        "def tally(p, kind=MentionKind.PRONOUN):\n"  # a default: read once too
        "    for rule in Rule:\n"
        "        rule.value, p.gender.value, _UNKNOWN.value\n"
        "    return p.gender is Gender.UNKNOWN\n"
        "null = lambda: Rule.NULL\n"
    )
    namespace = SimpleNamespace(Gender=Gender, MentionKind=MentionKind, Rule=Rule,
                                _UNKNOWN=Gender.UNKNOWN)
    assert _enum_member_reads(source, namespace) == [(5, "Gender.UNKNOWN"),
                                                     (6, "Rule.NULL")]


# ---------------------------------------------------------------------------
# Definitions with no caller
# ---------------------------------------------------------------------------

_REPO = Path(__file__).resolve().parents[1]

#: Definitions in ``src/coref`` that nothing in the package or the benchmark
#: refers to, each with the reason it stays.
_UNREFERENCED: set[str] = set()


def _definitions_and_references(paths):
    """The function, method and class names defined in ``paths``, less
    dunders, and the names they refer to: ``ast.Name`` ids, ``ast.Attribute``
    attributes and import aliases (so ``coref/__init__.py``'s exports count)."""
    defined, referenced = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_package_definition_has_a_caller_in_the_package_or_the_benchmark():
    """A function, method or class of ``coref`` that neither the package nor
    the benchmark names is a hook kept only for tests; remove it, or add it
    to ``_UNREFERENCED`` with its reason."""
    package = sorted((_REPO / "src" / "coref").glob("*.py"))
    defined, referenced = _definitions_and_references(
        package + sorted((_REPO / "bench").glob("*.py")))
    assert {name for path, name in defined
            if path in package and name not in referenced} == _UNREFERENCED


def test_reference_profile_reads_only_data_types_of_coref_mention():
    """``helpers.reference_profile`` is an oracle for the typing rules, so it
    names no function, class or table of ``coref.mention`` beyond the data
    types it is handed and returns."""
    mention = (_REPO / "src" / "coref" / "mention.py").read_text(encoding="utf-8")
    own = set()  # the names mention.py defines at module level
    for node in ast.parse(mention).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own.update(name.id for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name))
    helpers = ast.parse((_REPO / "tests" / "helpers.py").read_text(encoding="utf-8"))
    (oracle,) = (node for node in helpers.body
                 if isinstance(node, ast.FunctionDef) and node.name == "reference_profile")
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(oracle) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "attach_profiles" in own and "_TAG_NUMBER" in own
    assert names & own == {"Mention", "MentionKind", "TypeProfile"}


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
        (Mention, dict(mention_id=0, node=leaf), {}, {"mention_id": 1}),
        (DocumentInput, dict(doc_id="d", sentences=list(document.sentences)),
         dict(annotations=[], gold_mentions=None, gold_clusters=None),
         {"gold_clusters": [[0]]}),
        (PipelineResult, dict(input=document, tree=result.tree, mentions=result.mentions,
                              decisions=result.decisions, clustering=result.clustering),
         {}, {"decisions": []}),
        (TraceReport, {}, dict(rules=Counter(), pronouns=Counter(), has_gold=False),
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
    if cls is Mention:  # attach_profiles sets these later
        assert record.profile is None and record.pronoun is None
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
    for name in ("rules", "pronouns"):
        assert getattr(first, name) is not getattr(second, name)
    first.rules[Rule.NULL, None] += 1
    assert second == TraceReport()
