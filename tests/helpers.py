"""Shared parse fixtures and small builders used across the test modules."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import weakref
from bisect import bisect_right
from collections import defaultdict, deque
from itertools import islice
from operator import length_hint
from pathlib import Path

import coref
from coref import (Clustering, DocumentInput, Gender, Mention, MentionKind, Number,
                   Personhood, PipelineResult, ResolveConfig, SyntaxNode, TypeProfile,
                   attach_profiles, extract_mentions, link_document, read_ptb,
                   run_pipeline)
from coref.cli import _ABLATION_FLAGS, load_documents, main
from coref.mention import PRONOUN_TAGS, document_order_key
from coref.resolve import initial_adjuncts, reflexive_subject
from coref.treebank import PtbParseError, collins_head_child, dominates

# Three-sentence worked document: "John bought himself a book. Fred found out
# that John had also bought himself a computer. Next, he found out that John
# had not bought him anything."
EXAMPLE1_SENTENCES = [
    "(S (NP (NNP John)) (VP (VBD bought) (NP (PRP himself)) (NP (DT a) (NN book))) (. .))",
    "(S (NP (NNP Fred)) (VP (VBD found) (PRT (RP out)) (SBAR (IN that)"
    " (S (NP (NNP John)) (VP (VBD had) (ADVP (RB also)) (VP (VBN bought)"
    " (NP (PRP himself)) (NP (DT a) (NN computer))))))) (. .))",
    "(S (ADVP (RB Next)) (, ,) (NP (PRP he)) (VP (VBD found) (PRT (RP out))"
    " (SBAR (IN that) (S (NP (NNP John)) (VP (VBD had) (RB not) (VP (VBN bought)"
    " (NP (PRP him)) (NP (NN anything))))))) (. .))",
]

# Gold entities over extraction order:
# John(0) himself(1) book(2) | Fred(3) John(4) himself(5) computer(6)
# | he(7) John(8) him(9) anything(10)
EXAMPLE1_GOLD = [[0, 1, 4, 5, 8], [2], [3, 7, 9], [6], [10]]


# Directory this test process imported ``coref`` from (``src`` in a checkout).
COREF_IMPORT_ROOT = Path(coref.__file__).resolve().parents[1]


def run_cli(args, cwd, hash_seed: str = "0",
            program=(sys.executable, "-m", "coref"),
            stdin=None) -> subprocess.CompletedProcess:
    """Run ``program args`` in a fresh process that imports the ``coref`` under test.

    The import root goes first on an absolute ``PYTHONPATH``, so neither the
    child's working directory (a relative inherited entry would resolve
    against it) nor another installed ``coref`` can change which code runs.
    ``PYTHONHASHSEED`` is set explicitly to ``hash_seed``. Given ``stdin``
    bytes, the child reads them from a pipe.
    """
    return subprocess.run([*program, *args], capture_output=True, cwd=cwd,
                          env=cli_env(hash_seed), input=stdin)


def cli_env(hash_seed: str = "0") -> dict[str, str]:
    """The environment ``run_cli`` gives its child: ``coref`` imported from
    the tree under test, and ``PYTHONHASHSEED`` set to ``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(COREF_IMPORT_ROOT), env.get("PYTHONPATH")]))
    return env


def run_cli_twice(args, cwd) -> list[subprocess.CompletedProcess]:
    """Run the CLI in two processes under different hash seeds.

    Comparing their output checks determinism across processes; the differing
    seeds make any dependence on the iteration order of sets of strings show
    up even when the caller exports a fixed ``PYTHONHASHSEED``.
    """
    return [run_cli(args, cwd, hash_seed=seed) for seed in ("1", "2")]


def random_partition(rng, universe) -> Clustering:
    """Each id joins a random earlier entity with probability 0.6."""
    entities = []
    for mid in universe:
        if entities and rng.random() < 0.6:
            rng.choice(entities).append(mid)
        else:
            entities.append([mid])
    return Clustering(universe, entities)


def to_ptb(node: SyntaxNode) -> str:
    """Serialize to the single-space-separated canonical bracketed form."""
    parts: list[str] = []
    stack: list[tuple[SyntaxNode, bool]] = [(node, False)]
    while stack:
        current, done = stack.pop()
        if done:
            parts.append(")")
            continue
        if current.is_leaf():
            parts.append(f"({current.label} {current.token})")
            continue
        parts.append(f"({current.label}")
        stack.append((current, True))
        for child in reversed(current.children):
            stack.append((child, False))
    out: list[str] = []
    for part in parts:
        if out and part != ")":
            out.append(" ")
        out.append(part)
    return "".join(out)


# ``coref.treebank._PTB_TOKEN`` with greedy quantifiers in place of its
# possessive ones (which need Python 3.11): the pattern the reader used before
# them, kept to check that no match of the reader's pattern differs from it.
BACKTRACKING_PTB_TOKEN = re.compile(
    r"(?:\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?|(?=\)))(\)*)\s*|(\(|[^\s()]+)\s*")


# The reader ``read_ptb`` is checked against: one token per bracket, except
# that a whole ``(TAG word)`` is one, and each closing node's production
# rebuilt from its children. It raises the same messages at the same offsets.
_REFERENCE_TOKEN = re.compile(r"\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?|([()]|[^\s()]+)")


def _reference_error_at(message, text, tokens, rest, at_close=False) -> PtbParseError:
    index = len(tokens) - length_hint(rest) - 1
    match = next(islice(_REFERENCE_TOKEN.finditer(text), index, None))
    offset = match.end() - 1 if at_close else match.start()
    return PtbParseError(message, len(text[:offset].encode("utf-8")))


def reference_read_ptb(text: str) -> list[SyntaxNode]:
    """``read_ptb(text)``, by a bracket-at-a-time reader."""
    ref = weakref.ref
    new = object.__new__
    nodes: list[SyntaxNode] = []
    trees: list[SyntaxNode] = []
    leaves = 0  # leaves of the current tree
    stack: list[SyntaxNode] = []
    parent = None
    up = None
    depth = 0
    tokens = _REFERENCE_TOKEN.findall(text)
    rest = iter(tokens)
    for label, word, other in rest:
        if label:
            node = new(SyntaxNode)
            node.label = label
            node._up = up
            node.sentence_index = -1
            node.node_id = len(nodes)
            node.depth = depth
            node.doc = None
            node._head = None
            nodes.append(node)
            if word:
                node.children = ()
                node.token = word
                node.span = (leaves, leaves + 1)
                leaves += 1
                node._post = len(nodes)
                if parent is None:
                    trees.append(node)
                    leaves = 0
                elif parent.token is not None:
                    raise _reference_error_at("mixed token and children under one node",
                                              text, tokens, rest, at_close=True)
                else:
                    parent.children.append(node)
            else:
                node.children = []
                node.token = None
                stack.append(node)
                parent = node
                up = ref(node)
                depth += 1
        elif other == ")":
            if parent is None:
                raise _reference_error_at("unbalanced ')'", text, tokens, rest)
            node = stack.pop()
            children = node.children
            if not children:
                raise _reference_error_at(
                    f"node ({node.label} has neither token nor children", text, tokens, rest)
            node.span = (children[0].span[0], children[-1].span[1])
            node._post = len(nodes)
            child = children[collins_head_child(node)]
            node._head = child._head or child
            depth -= 1
            if stack:
                parent = stack[-1]
                if parent.token is not None:
                    raise _reference_error_at("mixed token and children under one node",
                                              text, tokens, rest)
                parent.children.append(node)
                up = ref(parent)
            else:
                parent = None
                up = None
                trees.append(node)
                leaves = 0
        elif other == "(":
            raise _reference_error_at("empty node label", text, tokens, rest)
        else:
            if parent is None:
                raise _reference_error_at(f"unexpected token {other!r} outside brackets",
                                          text, tokens, rest)
            if parent.children:
                raise _reference_error_at("mixed token and children under one node",
                                          text, tokens, rest)
            if parent.token is not None:
                raise _reference_error_at("multiple tokens under one node",
                                          text, tokens, rest)
            parent.token = other
    if stack:
        raise PtbParseError("unbalanced '(' at end of input", len(text.encode("utf-8")))
    if not trees:
        raise PtbParseError("empty input", 0)
    return trees


def parse_doc(*sentences):
    """Join one tree per bracketed sentence string into a DocumentTree."""
    trees = []
    for sentence in sentences:
        parsed = read_ptb(sentence)
        assert len(parsed) == 1
        trees.append(parsed[0])
    return link_document(trees)


def linked_tree(doc):
    """The document tree ``path_distance`` models, built explicitly.

    ``doc.sentence_roots`` hang from a right-branching chain of k - 1 link
    vertices ``("link", i)``: link i has sentence i's root and then link
    i + 1, or the last sentence's root, as its children. Returns the
    adjacency map of that tree, over the document's nodes and the link
    vertices, and its top vertex (None for an empty document).
    """
    roots = doc.sentence_roots
    adjacency = defaultdict(list)

    def join(parent, child):
        adjacency[parent].append(child)
        adjacency[child].append(parent)

    for root in roots:
        for node in root.walk():
            for child in node.children:
                join(node, child)
    links = [("link", i) for i in range(len(roots) - 1)]
    for i, link in enumerate(links):
        join(link, roots[i])
        join(link, links[i + 1] if i + 1 < len(links) else roots[-1])
    top = links[0] if links else roots[0] if roots else None
    return adjacency, top


def bfs_distances(adjacency, source):
    """Edges from ``source`` to every vertex of ``adjacency``, counted by
    breadth-first search."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for other in adjacency[vertex]:
            if other not in distances:
                distances[other] = distances[vertex] + 1
                queue.append(other)
    return distances


def reference_map_gold_mentions(doc, spans) -> list[Mention]:
    """``map_gold_mentions(doc, spans)``, by descending from each sentence
    root: every node covering [start, end) is on the path down to token
    ``start``, so each step bisects the children's span ends for the child
    holding ``start`` and stops where that child no longer reaches ``end``.
    Along the path, a deeper nominal node wins, except that a pronoun node
    does not replace an NP of the same span."""
    if not doc.sentence_roots:
        if spans:
            raise ValueError("gold mentions supplied for an empty document")
        return []
    roots = doc.sentence_roots
    mentions = []
    for gold_id, (s, start, end) in enumerate(spans):
        if not 0 <= s < len(roots):
            raise ValueError(f"gold mention {gold_id}: no sentence {s}")
        node = roots[s]
        if not (0 <= start < end <= node.span[1]):
            raise ValueError(f"gold mention {gold_id}: span [{start},{end}) out of range")
        nominal = None
        while True:
            label = node.label
            if label == "NP" or (label in PRONOUN_TAGS and (
                    nominal is None or nominal.label != "NP" or nominal.span != node.span)):
                nominal = node
            children = node.children
            if not children:
                break
            child = children[bisect_right(children, start, key=lambda c: c.span[1])]
            if child.span[1] < end:
                break
            node = child
        if nominal is not None:
            node = nominal
        mentions.append(Mention(mention_id=gold_id, node=node))
    mentions.sort(key=document_order_key)
    return mentions


def doc_with_mentions(*sentences):
    doc = parse_doc(*sentences)
    return doc, extract_mentions(doc)


def pipeline(sentences, annotations=None, gold_mentions=None, gold_clusters=None,
             cfg=None, lex=None, doc_id="test") -> PipelineResult:
    document = DocumentInput(doc_id=doc_id, sentences=list(sentences))
    if annotations:
        document.annotations = list(annotations)
    if gold_mentions is not None:
        document.gold_mentions = list(gold_mentions)
    if gold_clusters is not None:
        document.gold_clusters = [list(c) for c in gold_clusters]
    return run_pipeline(document, cfg or ResolveConfig(), lex)


def profile_of(m: Mention, annotations, lex, *, use_word_lists=True) -> TypeProfile:
    """The profile ``attach_profiles`` gives ``m`` on its own."""
    attach_profiles([m], annotations, lex, use_word_lists=use_word_lists)
    return m.profile


def reference_profile(m: Mention, annotations, lex, *, use_word_lists=True) -> TypeProfile:
    """The profile of ``m`` by the rules in ``attach_profiles``' docstring,
    restated one token at a time from ``lex.titles``, ``lex.first_names``
    and ``lex.pronouns`` alone; of ``coref.mention`` it reads only the
    fields of ``m``. ``annotations`` maps (sentence, token) to a
    ``TokenAnnotation``.

    A pronoun takes its table entry's three values, or unknown ones. Any
    other mention takes the gender of its first token that is a gendered
    title (titles are keyed casefolded, trailing dots stripped), else of its
    first token that is a census first name, else unknown. Its head's
    supersense decides personhood (``noun.person`` or not), else its NER
    label (PERSON or PER, else not a person unless the label is empty, O or
    MISC); a known gender or any title makes it a person. Its head tag
    decides number."""
    if m.kind is MentionKind.PRONOUN:
        entry = lex.pronouns.get(m.head_word.casefold())
        if entry is None:
            return TypeProfile(Gender.UNKNOWN, Personhood.UNKNOWN, Number.UNKNOWN)
        return TypeProfile(entry.gender, entry.personhood, entry.number)
    gender, titled = Gender.UNKNOWN, False
    if use_word_lists:
        words = [leaf.token.casefold() for leaf in m.node.leaves()]
        for word in words:
            title = lex.titles.get(word.rstrip("."))
            titled = titled or title is not None
            if gender is Gender.UNKNOWN and title not in (None, Gender.UNKNOWN):
                gender = title
        for word in words:
            if gender is Gender.UNKNOWN and word in lex.first_names:
                gender = lex.first_names[word]
    personhood = Personhood.UNKNOWN
    note = annotations.get((m.sentence_index, m.head.span[0]))
    if note is not None and note.supersense:
        personhood = (Personhood.PERSON if note.supersense.casefold() == "noun.person"
                      else Personhood.NOT_PERSON)
    elif note is not None and note.ner:
        label = note.ner.casefold()
        if label in ("person", "per"):
            personhood = Personhood.PERSON
        elif label not in ("o", "misc"):
            personhood = Personhood.NOT_PERSON
    if gender is not Gender.UNKNOWN or titled:
        personhood = Personhood.PERSON
    number = {"NN": Number.SINGULAR, "NNP": Number.SINGULAR,
              "NNS": Number.PLURAL, "NNPS": Number.PLURAL}.get(m.head_tag, Number.UNKNOWN)
    return TypeProfile(gender, personhood, number)


def mention_with_head(mentions, head_word, occurrence=0) -> Mention:
    """The nth mention (document order) whose head word matches."""
    found = [m for m in mentions if m.head_word == head_word]
    return found[occurrence]


def decision_for(result: PipelineResult, mention: Mention):
    return next(d for d in result.decisions if d.mention_id == mention.mention_id)


def ablation_corpus() -> list[DocumentInput]:
    """20 small documents whose gold links include pronouns.

    Four rotating shapes: male name + "he"; female name + "she" with a male
    distractor; inanimate + "it" with a plural distractor; male name + "he"
    with a location-annotated distractor. Gold clusters index extracted
    mentions in document order.
    """
    males = ["John", "David", "Victor", "Thomas", "Henry"]
    females = ["Mary", "Alice", "Susan", "Laura", "Nancy"]
    nouns = ["engine", "program", "table", "market", "statue"]
    docs = []
    for i in range(20):
        kind = i % 4
        male = males[i // 4]
        female = females[i // 4]
        noun = nouns[i // 4]
        if kind == 0:
            sentences = [
                f"(S (NP (NNP {male})) (VP (VBD arrived)) (. .))",
                "(S (NP (PRP He)) (VP (VBD smiled)) (. .))",
            ]
            gold = [[0, 1]]
            annotations = []
        elif kind == 1:
            sentences = [
                f"(S (NP (NNP {female})) (VP (VBD met) (NP (NNP {male}))) (. .))",
                "(S (NP (PRP She)) (VP (VBD left)) (. .))",
            ]
            gold = [[0, 2], [1]]
            annotations = []
        elif kind == 2:
            sentences = [
                f"(S (NP (DT The) (NN {noun})) (VP (VBD pushed) (NP (DT the) (NNS carts))) (. .))",
                "(S (NP (PRP It)) (VP (VBD failed)) (. .))",
            ]
            gold = [[0, 2], [1]]
            annotations = []
        else:
            sentences = [
                f"(S (NP (NNP Paris)) (VP (VBD hosted) (NP (NNP {male}))) (. .))",
                "(S (NP (PRP He)) (VP (VBD spoke)) (. .))",
            ]
            gold = [[1, 2], [0]]
            annotations = [{"s": 0, "t": 0, "supersense": "noun.location"}]
        docs.append(DocumentInput.from_dict({
            "id": f"synth-{i:02d}",
            "sentences": sentences,
            "annotations": annotations,
            "gold_clusters": gold,
        }))
    return docs


def write_corpus(tmp_path, docs):
    """Write each of ``docs`` as one JSON file under ``tmp_path / "corpus"``."""
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


GOLDEN = Path(__file__).resolve().parent / "golden"


def type_clash(p, c, cfg: ResolveConfig) -> bool:
    """Whether pronoun profile ``p`` and candidate profile ``c`` clash, as
    the README defines it: for each of gender, personhood and number whose
    check is on, a definite pronoun value clashes with a different definite
    candidate value, and also with an unknown one under ``strict_typecheck``."""
    for check, mine, theirs, unknown in (
            (cfg.check_gender, p.gender, c.gender, Gender.UNKNOWN),
            (cfg.check_personhood, p.personhood, c.personhood, Personhood.UNKNOWN),
            (cfg.check_number, p.number, c.number, Number.UNKNOWN)):
        if check and mine is not unknown and (
                theirs is unknown and cfg.strict_typecheck
                or theirs is not unknown and theirs is not mine):
            return True
    return False


def eager_pronoun_acceptor(m: Mention, cfg: ResolveConfig):
    """``coref.resolve.pronoun_acceptor`` as it was before it went lazy: it
    finds ``reflexive_subject(m)`` and ``initial_adjuncts(m)`` up front and
    puts every candidate, of any sentence, to every syntactic constraint.
    The reference that the lazy acceptor's verdicts are checked against."""
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
        if cand.head is subject_head:
            return False
        if adjuncts and any(dominates(adjunct, cand.node) for adjunct in adjuncts):
            return False
        return not (m.profile and cand.profile
                    and type_clash(m.profile, cand.profile, cfg))

    return accepts


def golden_documents() -> list[DocumentInput]:
    """Every document of ``golden/*.jsonl`` that decodes, file by file."""
    return [document for path in sorted(GOLDEN.glob("*.jsonl"))
            for document in load_documents([str(path)])
            if isinstance(document, DocumentInput)]


def calls_per_mention(path, cfg: ResolveConfig) -> float:
    """Python-level calls into the ``coref`` package per mention, over
    ``run_pipeline`` on every document of the corpus at ``path``: the
    ``sys.setprofile`` "call" events (a generator's resumption is one) whose
    code lies in the package. Counted on a second pass over the corpus, so
    that the head rule table and the profile-pair table are already filled;
    the profiler in place before is restored whatever happens."""
    documents = [d for d in load_documents([str(path)]) if isinstance(d, DocumentInput)]
    for document in documents:
        run_pipeline(document, cfg)
    package = os.path.dirname(coref.__file__) + os.sep
    calls = mentions = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for document in documents:
            mentions += len(run_pipeline(document, cfg).mentions)
    finally:
        sys.setprofile(previous)
    return calls / mentions


def single_flag_configs() -> list[ResolveConfig]:
    """The default config, then one per ablation flag with that flag set:
    one per ``ResolveConfig`` field, in order, each the default flipped."""
    default = ResolveConfig()
    assert [(field, value) for _, field, value in _ABLATION_FLAGS] == [
        (field, not getattr(default, field)) for field in ResolveConfig._fields]
    return [default] + [default._replace(**{field: value})
                        for _, field, value in _ABLATION_FLAGS]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flag_combinations() -> list[list[str]]:
    """A fixed sample of 8 combinations of 2-4 ablation flags, in CLI order,
    drawn by a seeded generator."""
    rng = random.Random(12)
    flags = [flag for flag, _, _ in _ABLATION_FLAGS]
    return [[flags[i] for i in sorted(rng.sample(range(len(flags)), rng.randint(2, 4)))]
            for _ in range(8)]


def cli_digests(tmp_path) -> dict[str, dict[str, object]]:
    """The sha256 of stdout and stderr, and the exit status, of ``resolve
    --render``, ``score --gold --json`` and ``trace --gold``, run in-process.

    The ablation corpus and ``golden/long.jsonl`` run all three commands
    under the default config, each single ablation flag and each of
    ``flag_combinations``; ``golden/bad.jsonl`` (one document per kind of bad
    sentence, and one good document), ``golden/coord.jsonl`` (a wide
    coordination, nested same-sentence NPs, and gold mentions with duplicated
    spans), ``golden/filters.jsonl`` (a document for each filter or rule
    that only some flag switches), ``golden/gold_spans.jsonl`` (gold spans
    at many depths of a deep tree, on same-span chains and where no nominal
    node covers them) and ``golden/surrogate.jsonl`` (good documents a and b around
    three that cannot be written: a lone surrogate escape in a token, one
    in the id, and an id holding a tab) run them under the default config
    and each single flag. The
    corpora ``bench/corpus.py`` generated (see ``golden/make_digests.py``)
    run under the default config, each single flag and each of
    ``flag_combinations``: ``resolve --render`` on the news and
    long-document corpora, the other two commands on the gold-mention
    corpus.
    Keys read ``"<command> | <corpus> | <flags or default>"``.
    """
    singles = [[]] + [[flag] for flag, _, _ in _ABLATION_FLAGS]
    sampled = singles + flag_combinations()
    every = (["resolve", "--render"], ["score", "--gold", "--json"], ["trace", "--gold"])
    runs = [("ablation", write_corpus(tmp_path, ablation_corpus()), every, sampled),
            ("long", GOLDEN / "long.jsonl", every, sampled),
            ("bad", GOLDEN / "bad.jsonl", every, singles),
            ("coord", GOLDEN / "coord.jsonl", every, singles),
            ("filters", GOLDEN / "filters.jsonl", every, singles),
            ("gold_spans", GOLDEN / "gold_spans.jsonl", every, singles),
            ("surrogate", GOLDEN / "surrogate.jsonl", every, singles),
            ("bench_news", GOLDEN / "bench_news.jsonl", every[:1], sampled),
            ("bench_long_doc", GOLDEN / "bench_long_doc.jsonl", every[:1], sampled),
            ("bench_gold", GOLDEN / "bench_gold.jsonl", every[1:], sampled)]
    table = {}
    for corpus, path, commands, configs in runs:
        for command in commands:
            for config in configs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main([*command, *config, str(path)])
                key = f"{' '.join(command)} | {corpus} | {' '.join(config) or 'default'}"
                table[key] = {"stdout": _sha256(out.getvalue()),
                              "stderr": _sha256(err.getvalue()), "status": status}
    return table
