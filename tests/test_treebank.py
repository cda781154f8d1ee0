import random
import re
import time

import pytest

import coref.treebank
from coref import (DocumentError, DocumentInput, PtbParseError, link_document,
                   path_distance, read_document, read_ptb, run_pipeline)
from coref.treebank import collins_head_child, dominates, head_leaf
from helpers import (BACKTRACKING_PTB_TOKEN, bfs_distances, linked_tree, parse_doc,
                     reference_read_ptb, to_ptb)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

def test_read_minimal_tree():
    trees = read_ptb("(S (NP (NN dog)))")
    assert len(trees) == 1
    root = trees[0]
    assert root.label == "S"
    leaves = list(root.leaves())
    assert len(leaves) == 1
    assert leaves[0].token == "dog"
    assert leaves[0].label == "NN"
    assert leaves[0].span == (0, 1)


def test_read_assigns_spans_left_to_right():
    (tree,) = read_ptb("(S (NP (DT the) (NN dog)) (VP (VBD ran)) (. .))")
    assert tree.span == (0, 4)
    assert [leaf.token for leaf in tree.leaves()] == ["the", "dog", "ran", "."]
    assert [leaf.span for leaf in tree.leaves()] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_read_multiple_sentences():
    trees = read_ptb("(S (NN a)) (S (NN b))")
    assert [t.tokens() for t in trees] == [["a"], ["b"]]


def test_read_unbalanced_open():
    with pytest.raises(PtbParseError, match="unbalanced"):
        read_ptb("(S (NP")
    try:
        read_ptb("(S (NP")
    except PtbParseError as err:
        assert err.offset == len("(S (NP")


def test_read_unbalanced_close():
    with pytest.raises(PtbParseError, match="unbalanced"):
        read_ptb("(S (NN a)))")


def test_read_empty_input():
    for text in ("", "   \n"):
        with pytest.raises(PtbParseError, match="empty input"):
            read_ptb(text)


def test_read_empty_label():
    with pytest.raises(PtbParseError, match="empty node label"):
        read_ptb("( (S (NN a)))")


def test_read_node_without_content():
    with pytest.raises(PtbParseError):
        read_ptb("(S (NP))")


def test_read_mixed_content_rejected():
    with pytest.raises(PtbParseError):
        read_ptb("(NP the (NN dog))")
    with pytest.raises(PtbParseError):
        read_ptb("(NN the dog)")


# Exact message and UTF-8 byte offset for each error path of ``read_ptb``,
# with non-ASCII text before the error and non-space Unicode separators.
PARSE_ERRORS = [
    ("((S (NN a)))", "empty node label", 0),
    ("(S ( (NN a)))", "empty node label", 3),
    ("()", "empty node label", 0),
    ("(S ())", "empty node label", 3),
    ("(S (", "empty node label", 3),
    ("(S (   \n", "empty node label", 3),
    ("(", "empty node label", 0),
    ("(S (NN a)))", "unbalanced ')'", 10),
    (")", "unbalanced ')'", 0),
    ("(S (NP", "unbalanced '(' at end of input", 6),
    ("(S (NN a)) (S", "unbalanced '(' at end of input", 13),
    ("(S (NP))", "node (NP has neither token nor children", 6),
    ("(NP (NN dog) the)", "mixed token and children under one node", 13),
    ("(NP the (NN dog))", "mixed token and children under one node", 15),
    ("(NN the dog)", "multiple tokens under one node", 8),
    ("dog (S (NN a))", "unexpected token 'dog' outside brackets", 0),
    ("(S (NN a)) dog", "unexpected token 'dog' outside brackets", 11),
    ("", "empty input", 0),
    ("   \n\t", "empty input", 0),
    ("(S (NN caf\u00e9) (NP", "unbalanced '(' at end of input", 17),
    ("(NN caf\u00e9 extra)", "multiple tokens under one node", 10),
    ("(S (NN \u00e9)))", "unbalanced ')'", 11),
    ("(\u65e5\u672c (NN a)) x", "unexpected token 'x' outside brackets", 16),
    ("(\u00e9 ())", "empty node label", 4),
    ("(S\x1c(NN a)\x1cb)", "mixed token and children under one node", 10),
    ("(\x1c)", "empty node label", 0),
    ("(NN\u00a0a\u00a0b)", "multiple tokens under one node", 8),
    ("(\u00a0", "empty node label", 0),
]


@pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
def test_read_error_message_and_offset(text, message, offset):
    with pytest.raises(PtbParseError) as info:
        read_ptb(text)
    assert str(info.value) == f"{message} (byte offset {offset})"
    assert info.value.offset == offset


def test_read_unicode_whitespace_separates_tokens():
    (tree,) = read_ptb("(S\x1c(NN\u00a0a)\u3000(NN b))")
    assert to_ptb(tree) == "(S (NN a) (NN b))"
    assert [leaf.span for leaf in tree.leaves()] == [(0, 1), (1, 2)]


def _assert_spans_in_leaf_order(tree):
    leaves = list(tree.leaves())
    assert [leaf.span for leaf in leaves] == [(i, i + 1) for i in range(len(leaves))]
    for node in tree.walk():
        if not node.is_leaf():
            assert node.span == (node.children[0].span[0], node.children[-1].span[1])


def _mutated(rng, text):
    """``text`` after 1-3 random deletions, insertions, replacements or
    truncations."""
    alphabet = "() \x1c\u00a0a\u00e9"
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        else:
            text = text[:i]
    return text


def test_read_mutated_trees_parse_or_fail_with_an_offset():
    rng = random.Random(20261019)
    for _ in range(2000):
        text = " ".join(_random_tree_text(rng) for _ in range(rng.randint(1, 3)))
        text = _mutated(rng, text)
        try:
            trees = read_ptb(text)
        except PtbParseError as err:
            assert 0 <= err.offset <= len(text.encode("utf-8"))
            continue
        canonical = [to_ptb(tree) for tree in trees]
        assert [to_ptb(tree) for tree in read_ptb(" ".join(canonical))] == canonical
        for tree in trees:
            _assert_spans_in_leaf_order(tree)


def _read_facts(read, text):
    """Every node's facts per tree as ``read(text)`` builds them, with
    parent, children and head as node ids; or the error's text and offset."""
    def node_id(node):
        return None if node is None else node.node_id
    try:
        trees = read(text)
    except PtbParseError as err:
        return str(err), err.offset
    return [[(node.label, node.token, node.span, node.node_id, node._post, node.depth,
              node.sentence_index, node.doc, node_id(node.parent),
              [child.node_id for child in node.children], node_id(node._head))
             for node in tree.walk()] for tree in trees]


def _token_matches(pattern, text):
    """Each match of ``pattern`` in ``text``: where it lies and its groups,
    so ``findall``'s tokens and the offsets errors are counted from."""
    return [(match.span(), match.groups()) for match in pattern.finditer(text)]


@pytest.mark.parametrize("text", [
    "", " ", "(", ")", ")(", "((", "))", "( S", "(S", "( S )", "(S(NP(NN a)))",
    "(X a b)", "(X a b c)", "(NN a", "(NN a ", "(NN  a  )", "(NN a)b", "a(NN b)",
    "( (NN a) )", "(S (NN a)) )", "(S (NN a) ) ) (", "(NN a)(NN b)", "a b c",
    "\x1c" * 40, "\u00a0" * 40, " \x1c\u00a0\u3000" * 10 + "(NN a)",
    "(S" + "\x1c" * 30 + "(NN" + "\u00a0" * 30 + "a" + "\x1c" * 30 + ")" * 2,
    "(" + "\u00a0" * 30 + "NN" + "\u00a0" * 30 + ")", ")" + "\x1c )" * 20,
    "(NN a" + "\u00a0" * 30 + "b" + "\u00a0" * 30 + ")",
])
def test_token_pattern_matches_as_the_backtracking_one(text):
    assert (_token_matches(coref.treebank._PTB_TOKEN, text)
            == _token_matches(BACKTRACKING_PTB_TOKEN, text))


def test_read_matches_the_reference_reader_on_mutated_trees():
    rng = random.Random(20261024)
    errors = 0
    for case in range(2400):
        text = " ".join(_random_tree_text(rng) for _ in range(rng.randint(1, 3)))
        if case % 3 == 1:  # every closer spaced from the one before: ") )"
            text = text.replace(")", ") ").rstrip()
        elif case % 3 == 2:  # some closers spaced, by any whitespace
            text = "".join(c + rng.choice(["", "", " ", "\x1c", "\u00a0 "]) * (c == ")")
                           for c in text)
        text = _mutated(rng, text)
        assert (_token_matches(coref.treebank._PTB_TOKEN, text)
                == _token_matches(BACKTRACKING_PTB_TOKEN, text)), text
        expected = _read_facts(reference_read_ptb, text)
        assert _read_facts(read_ptb, text) == expected, text
        errors += type(expected) is tuple
    assert 1200 < errors < 2100  # both outcomes are common


def test_read_whitespace_runs_in_linear_time():
    for spaces in (10_000, 200_000):  # a quadratic reader fails the first in seconds
        ws = " " * spaces
        for text, tokens in ((f"(NN a){ws}", ["a"]), (f"{ws}(NN a)", ["a"]),
                             (f"(S {ws}(NN a))", ["a"]),
                             (f"(S{ws}(NN a){ws}(NN b){ws})", ["a", "b"])):
            start = time.perf_counter()
            (tree,) = read_ptb(text)
            assert time.perf_counter() - start < 1.0, (spaces, text[:12])
            assert tree.tokens() == tokens
        for text, message in ((f"(S{ws}", "unbalanced '(' at end of input"),
                              (f"({ws})", "empty node label"), (ws, "empty input")):
            start = time.perf_counter()
            with pytest.raises(PtbParseError, match=re.escape(message)):
                read_ptb(text)
            assert time.perf_counter() - start < 1.0, (spaces, text[:12])


def test_read_takes_one_token_per_node_of_a_serialized_tree():
    rng = random.Random(20261025)
    for _ in range(200):
        text = _random_tree_text(rng)
        assert len(coref.treebank._PTB_TOKEN.findall(text)) == text.count("(")


def test_read_error_offsets_are_bytes():
    text = "(S (NN café) (NP"
    try:
        read_ptb(text)
    except PtbParseError as err:
        assert err.offset == len(text.encode("utf-8"))
    else:
        pytest.fail("expected parse error")


def test_serializer_round_trip_is_whitespace_normalization():
    text = "(S\n   (NP (DT the)\t(NN dog)))"
    (tree,) = read_ptb(text)
    assert to_ptb(tree) == "(S (NP (DT the) (NN dog)))"


def _random_tree_text(rng, depth=0):
    """A random tree in the canonical bracketed form ``to_ptb`` writes. A
    leaf draws its label before its token; an interior node draws its
    children before its label."""
    if depth >= 4 or rng.random() < 0.35:
        label = rng.choice(["NN", "DT", "JJ", "VBD"])
        return f"({label} {rng.choice(['a', 'bb', 'ccc', '.', 'café'])})"
    children = " ".join(_random_tree_text(rng, depth + 1) for _ in range(rng.randint(1, 4)))
    return f"({rng.choice(['S', 'NP', 'VP', 'PP', 'XYZ'])} {children})"


def test_round_trip_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        text = _random_tree_text(rng)
        (parsed,) = read_ptb(text)
        assert to_ptb(parsed) == text


# ---------------------------------------------------------------------------
# Head rules
# ---------------------------------------------------------------------------

def _np(text):
    (tree,) = read_ptb(text)
    return tree


def test_np_head_rightmost_noun_sequence():
    node = _np("(NP (DT the) (JJ revised) (NN accounting))")
    assert collins_head_child(node) == 2
    assert head_leaf(node).token == "accounting"


def test_np_with_pp_attachment_heads_left_np():
    node = _np("(NP (NP (DT the) (JJ revised) (NN accounting))"
               " (PP (IN of) (NP (DT the) (NN incident))))")
    assert collins_head_child(node) == 0
    assert head_leaf(node).token == "accounting"


def test_single_child_head():
    node = _np("(NP (NNP Japan))")
    assert collins_head_child(node) == 0


def test_head_leaf_of_leaf_is_itself():
    leaf = _np("(NN dog)")
    assert head_leaf(leaf) is leaf


def test_incident_np_head():
    node = _np("(NP (DT the) (NN incident))")
    assert head_leaf(node).token == "incident"


def test_possessive_np_head_is_pos():
    node = _np("(NP (NNP Gore) (POS 's))")
    assert collins_head_child(node) == 1


def test_vp_head_is_first_verb():
    node = _np("(VP (MD may) (RB not) (VP (VB have) (VP (VBN been) (NP (NN choice)))))")
    assert head_leaf(node).token == "may"
    inner = node.children[2].children[1]
    assert head_leaf(inner).token == "been"


def test_s_head_is_vp():
    node = _np("(S (NP (NNP John)) (VP (VBD ran)) (. .))")
    assert collins_head_child(node) == 1


def test_pp_head_is_preposition():
    node = _np("(PP (IN of) (NP (NN incident)))")
    assert collins_head_child(node) == 0


def test_unknown_category_defaults_to_rightmost():
    node = _np("(WEIRD (NN a) (NN b))")
    assert collins_head_child(node) == 1


def test_nml_treated_as_np():
    node = _np("(NML (DT the) (NN accounting))")
    assert head_leaf(node).token == "accounting"


def test_leaf_has_no_head_child():
    leaf = _np("(NN dog)")
    with pytest.raises(ValueError):
        collins_head_child(leaf)


def test_head_leaf_dominated_by_node_on_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        text = _random_tree_text(rng)
        doc = link_document(read_ptb(text))
        for node in doc.nodes:
            assert dominates(node, head_leaf(node))


def _walked_head(node):
    while node.children:
        node = node.children[collins_head_child(node)]
    return node


def _count_head_children(monkeypatch):
    """Count the calls made to ``collins_head_child`` through its module."""
    calls = [0]
    head_child = coref.treebank.collins_head_child

    def counted(node):
        calls[0] += 1
        return head_child(node)

    monkeypatch.setattr(coref.treebank, "collins_head_child", counted)
    return calls


def _random_document(rng):
    return [_random_sentence(rng) for _ in range(rng.choice([1, 2, rng.randint(3, 8)]))]


def test_builders_set_the_heads_a_walk_finds_on_random_documents():
    rng = random.Random(20261018)
    for _ in range(150):
        sentences = _random_document(rng)
        for doc in (read_document(sentences), parse_doc(*sentences)):
            for node in doc.nodes:
                assert head_leaf(node) is _walked_head(node)
                if not node.children:
                    assert node._head is None  # a leaf naming itself would be a cycle
        for root in read_ptb(" ".join(sentences)):
            assert all(head_leaf(node) is _walked_head(node) for node in root.walk())


def test_a_document_of_seen_productions_computes_no_head_child(monkeypatch):
    sentences = ["(S (NP (DT The) (NN dog)) (VP (VBD saw) (NP (NNP John))) (. .))",
                 "(S (NP (PRP He)) (VP (VBD ran)) (. .))"]
    read_document(sentences)
    calls = _count_head_children(monkeypatch)
    again = ["(S (NP (DT A) (NN cat)) (VP (VBD met) (NP (NNP Mary))) (. .))",
             "(S (NP (PRP She)) (VP (VBD left)) (. .))"]
    for doc in (read_document(again), parse_doc(*again)):
        assert calls[0] == 0
        assert [head_leaf(root).token for root in doc.sentence_roots] == ["met", "left"]


def test_head_table_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(coref.treebank, "_HEAD_TABLE", {})
    monkeypatch.setattr(coref.treebank, "_head_table_labels", 0)
    monkeypatch.setattr(coref.treebank, "_HEAD_TABLE_LABELS", 12)
    rng = random.Random(11)
    for _ in range(30):
        sentences = _random_document(rng)
        doc = read_document(sentences)
        table = coref.treebank._HEAD_TABLE
        assert sum(map(len, table)) == coref.treebank._head_table_labels <= 12
        assert all(head_leaf(node) is _walked_head(node) for node in doc.nodes)
    assert table
    # A production the table has no room for is computed every time.
    wide = "(NP " + " ".join(f"(NN w{i})" for i in range(12)) + ")"
    calls = _count_head_children(monkeypatch)
    for _ in range(2):
        assert head_leaf(read_document([wide]).sentence_roots[0]).token == "w11"
    assert calls[0] == 2
    assert ("NP",) + ("NN",) * 12 not in table


def test_leaves_of_a_read_document_share_one_children_tuple():
    rng = random.Random(5)
    doc = read_document(_random_document(rng) + ["(S (NP (NN a)) (VP (VBD b)))"])
    leaves = [node for node in doc.nodes if node.is_leaf()]
    interior = [node for node in doc.nodes if not node.is_leaf()]
    assert len({id(leaf.children) for leaf in leaves}) == 1
    assert leaves[0].children == ()
    assert len({id(node.children) for node in interior}) == len(interior)
    assert all(type(node.children) is list for node in interior)


def test_leaves_at_one_sentence_position_share_one_span(monkeypatch):
    """Across sentences and documents, and across the growth of the shared
    spans, which starts from none and follows the longest sentence read."""
    monkeypatch.setattr(coref.treebank, "_LEAF_SPANS", ())
    short = read_document(["(S (NN a) (NN b))", "(NN c)"])
    assert len(coref.treebank._LEAF_SPANS) == 3  # the first sentence's tokens
    sentences = _random_document(random.Random(6)) + [
        "(S (NP (DT the) (NN a)) (VP (VBD b) (NP (NN c) (NNS d))) (. .))"]
    longer = read_document(sentences)
    shared: dict[int, tuple[int, int]] = {}
    for doc in (short, longer):
        for leaf in doc.nodes:
            if leaf.is_leaf():
                assert leaf.span is shared.setdefault(leaf.span[0], leaf.span)
                assert leaf.span == (leaf.span[0], leaf.span[0] + 1)
    kept = coref.treebank._LEAF_SPANS
    assert max(shared) >= 3  # the second document grew the spans
    assert max(shared) < len(kept) <= max(len(coref.treebank._PTB_TOKEN.findall(s))
                                          for s in sentences)
    assert all(kept[i] is span for i, span in shared.items())


def test_a_sentence_longer_than_the_leaf_span_cap_reads_spans_past_it():
    cap = coref.treebank._LEAF_SPANS_CAP
    n = cap + 10
    text = ("".join(f"(X (NN w{i}) " for i in range(n - 1)) + f"(NN w{n - 1})"
            + ")" * (n - 1))
    assert _read_facts(read_ptb, text) == _read_facts(reference_read_ptb, text)
    doc = read_document(["(NN a)", text, "(S (NN b) (NN c))"])
    leaves = [node for node in doc.nodes if node.sentence_index == 1 and node.is_leaf()]
    assert [leaf.span for leaf in leaves] == [(i, i + 1) for i in range(n)]
    kept = coref.treebank._LEAF_SPANS
    assert len(kept) == cap
    assert all(leaf.span is kept[i] for i, leaf in enumerate(leaves[:cap]))


# ---------------------------------------------------------------------------
# Dominance and linking
# ---------------------------------------------------------------------------

def test_root_dominates_everything():
    doc = parse_doc("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")
    (root,) = doc.sentence_roots
    for node in doc.nodes:
        assert dominates(root, node)


def test_unrelated_leaves_do_not_dominate():
    doc = parse_doc("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")
    leaves = list(doc.sentence_roots[0].leaves())
    assert not dominates(leaves[0], leaves[1])
    assert not dominates(leaves[2], leaves[0])


def test_dominates_is_reflexive():
    doc = parse_doc("(S (NN a))")
    for node in doc.nodes:
        assert dominates(node, node)


def test_dominates_across_documents_is_an_error():
    doc1 = parse_doc("(S (NN a))")
    doc2 = parse_doc("(S (NN b))")
    with pytest.raises(ValueError, match="different documents"):
        dominates(doc1.sentence_roots[0], doc2.sentence_roots[0])
    (unlinked,) = read_ptb("(S (NP (NN a)))")
    with pytest.raises(ValueError, match="different documents"):
        dominates(unlinked, unlinked.children[0])


def _link_read_trees(texts):
    return link_document([read_ptb(text)[0] for text in texts])


_BUILDERS = pytest.mark.parametrize("build", [read_document, _link_read_trees],
                                    ids=["read_document", "link_document"])


@_BUILDERS
def test_dominance_and_depth_follow_parent_chain_on_random_documents(build):
    """Each node's number, extent, sentence, tokens and ancestors against
    walks of the built tree, for both builders."""
    rng = random.Random(20261018)
    for _ in range(25):
        texts = [_random_tree_text(rng) for _ in range(rng.randint(1, 5))]
        doc = build(texts)
        roots = doc.sentence_roots
        assert len(roots) == len(texts)
        assert [node for root in roots for node in root.walk()] == doc.nodes
        for index, node in enumerate(doc.nodes):
            assert node.node_id == index
            assert node._post == index + sum(1 for _ in node.walk())
        for i, root in enumerate(roots):
            assert {node.sentence_index for node in root.walk()} == {i}
            assert doc.key[i] == [leaf.token for leaf in root.leaves()]
        for b in doc.nodes:
            chain = []
            node = b
            while node is not None:
                chain.append(node)
                node = node.parent
            assert chain[-1] is roots[b.sentence_index]
            assert b.depth - chain[-1].depth == len(chain) - 1
            ancestors = {id(node) for node in chain}
            for a in doc.nodes:
                assert dominates(a, b) == (id(a) in ancestors)


@_BUILDERS
def test_sentence_roots_hang_from_nothing_at_their_link_chain_depths(build):
    """No node joins the sentences: every sentence root has no parent and
    sits at the depth of the link chain ``path_distance`` models, i + 1,
    or k - 1 for the last of k; every other node is one below its parent.
    Every depth equals the node's distance from the top of the explicit
    linked tree."""
    rng = random.Random(20261101)
    for _ in range(40):
        texts = [_random_tree_text(rng) for _ in range(rng.randint(1, 7))]
        doc = build(texts)
        k = len(doc.sentence_roots)
        for i, root in enumerate(doc.sentence_roots):
            assert root.parent is None
            assert root.depth == i + (i < k - 1)
        roots = set(doc.sentence_roots)
        for node in doc.nodes:
            if node not in roots:
                assert node.depth == node.parent.depth + 1
        adjacency, top = linked_tree(doc)
        from_top = bfs_distances(adjacency, top)
        assert [node.depth for node in doc.nodes] == [from_top[node] for node in doc.nodes]


def test_link_empty_document():
    doc = link_document([])
    assert doc.sentence_roots == ()
    assert doc.nodes == [] and doc.key == []


def test_link_single_sentence():
    trees = read_ptb("(S (NN a))")
    doc = link_document(trees)
    assert doc.sentence_roots == (trees[0],)
    assert trees[0].parent is None and trees[0].depth == 0


def test_link_two_sentences():
    trees = read_ptb("(S (NN a)) (S (NN b))")
    doc = link_document(trees)
    assert doc.sentence_roots == tuple(trees)
    assert [(root.parent, root.depth) for root in trees] == [(None, 1), (None, 1)]
    a, b = (root.children[0] for root in trees)
    assert path_distance(a, b, doc) == 4


def test_link_three_sentences_right_branching():
    trees = read_ptb("(S (NN a)) (S (NN b)) (S (NN c))")
    doc = link_document(trees)
    assert doc.sentence_roots == tuple(trees)
    assert [root.depth for root in trees] == [1, 2, 2]
    a, b, c = trees
    assert [path_distance(a, b, doc), path_distance(a, c, doc),
            path_distance(b, c, doc)] == [3, 3, 2]


def test_link_node_count_and_leaf_order():
    """Linking adds no node: a document's nodes are its sentences' own."""
    sentences = ["(S (NN a) (NN b))", "(S (NN c))", "(S (NN d) (NN e))",
                 "(S (NN f))"]
    trees = read_ptb(" ".join(sentences))
    sizes = [sum(1 for _ in tree.walk()) for tree in trees]
    doc = link_document(trees)
    assert len(doc.nodes) == sum(sizes)
    assert [leaf.token for tree in trees for leaf in tree.leaves()] == list("abcdef")
    for node in doc.nodes:
        sentence_root = node
        while sentence_root.parent is not None:
            sentence_root = sentence_root.parent
        assert node.sentence_index == trees.index(sentence_root)


# Separators the reader must treat as whitespace: ``\x1c`` (a control
# character ``str.isspace`` accepts), no-break and ideographic spaces.
_SEPARATORS = [" ", "  ", "\n", "\t", "\x1c", "\u00a0", "\u3000"]


def _render(node, rng):
    """``node`` in bracketed form, with random whitespace wherever the
    grammar allows it (``( NP ( DT the ) )``) and none where it may be left
    out (``(NP(DT the))``)."""
    def gap(required=False):
        if required or rng.random() < 0.3:
            return "".join(rng.choice(_SEPARATORS) for _ in range(rng.randint(1, 2)))
        return ""
    if node.is_leaf():
        return f"({gap()}{node.label}{gap(True)}{node.token}{gap()})"
    inside = "".join(gap() + _render(child, rng) for child in node.children)
    return f"({gap()}{node.label}{inside}{gap()})"


def _random_sentence(rng):
    if rng.random() < 0.15:  # a single-leaf sentence
        return rng.choice(["(NN a)", "(PRP he)", "( PRP\x1cshe )", "(NNP café)"])
    return _render(read_ptb(_random_tree_text(rng))[0], rng)


def _facts(doc):
    """Every node's facts, with parent and children as node ids."""
    def node_id(node):
        return None if node is None else node.node_id
    return [(node.label, node.token, node.span, node.node_id, node.depth,
             node.sentence_index, node._post, node_id(node.parent),
             [child.node_id for child in node.children], node.doc is doc.key,
             node_id(node._head))
            for node in doc.nodes]


def test_read_document_builds_the_linked_tree_on_random_documents():
    rng = random.Random(20261020)
    for case in range(300):
        count = case if case < 3 else rng.choice([2, 3, rng.randint(4, 12)])
        sentences = [_random_sentence(rng) for _ in range(count)]
        fused = read_document(sentences)
        linked = link_document([read_ptb(s)[0] for s in sentences])
        assert _facts(fused) == _facts(linked)
        assert fused.key == linked.key
        assert ([n.node_id for n in fused.sentence_roots]
                == [n.node_id for n in linked.sentence_roots])
        walked = [n.node_id for root in fused.sentence_roots for n in root.walk()]
        assert walked == list(range(len(fused.nodes)))
        if not count:
            assert fused.nodes == [] and fused.key == []


def test_link_document_rebases_trees_numbered_from_anywhere():
    """``link_document`` shifts each tree's numbers and lifts its depths.
    Every tree after the first of one text is numbered from above 0; linked
    in reverse, the first tree's shift is negative; the sentence roots of a
    linked document also start below link nodes, so their depths move."""
    def assert_links_as_read(doc, sentences):
        read = read_document(sentences)
        assert _facts(doc) == _facts(read)
        assert doc.key == read.key

    rng = random.Random(20261024)
    for _ in range(100):
        sentences = [_random_sentence(rng) for _ in range(rng.randint(1, 8))]
        text = " ".join(sentences)
        trees = read_ptb(text)
        assert trees[-1].node_id > 0 or len(trees) == 1
        assert_links_as_read(link_document(trees), sentences)
        assert_links_as_read(link_document(trees[::-1]), sentences[::-1])
        assert_links_as_read(link_document(read_ptb(text)[::-1]), sentences[::-1])
        assert_links_as_read(link_document(read_document(sentences).sentence_roots),
                             sentences)


@pytest.mark.parametrize("pick", [lambda first, second: [first, second, first],
                                  lambda first, second: [second, first.children[0], first],
                                  lambda first, second: [first, second, first.children[0]]],
                         ids=["whole", "subtree_first", "subtree_last"])
def test_link_document_rejects_a_tree_given_twice(pick):
    first, second = read_ptb("(S (NP (NN a)) (VP (VBD b))) (S (NN c))")
    with pytest.raises(ValueError, match="^tree 2 was given twice, in whole or in part$"):
        link_document(pick(first, second))


def _oracle_error(document):
    """The ``DocumentError`` text of the per-sentence loop ``run_pipeline``
    ran before it read documents in one pass, or None."""
    for i, sentence in enumerate(document.sentences):
        try:
            parsed = read_ptb(sentence)
        except PtbParseError as err:
            return str(DocumentError(document.doc_id, f"sentence {i}: {err}"))
        if len(parsed) != 1:
            return str(DocumentError(document.doc_id,
                                     f"sentence {i}: expected one tree, found {len(parsed)}"))
    return None


def test_run_pipeline_reports_the_same_sentence_errors_on_mutated_documents():
    rng = random.Random(20261021)
    alphabet = "() \x1c\u00a0a\u00e9"
    failures = 0
    for case in range(2000):
        sentences = [_random_tree_text(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 2)):
            s = rng.randrange(len(sentences))
            text = sentences[s]
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(7)
            if op == 0:
                text = text[:i] + text[i + 1:]
            elif op == 1:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            elif op == 2:
                text = text[:i] + rng.choice(alphabet) + text[i + 1:]
            elif op == 3:
                text = text[:i]
            elif op == 4:  # a second tree after a valid one
                text += " " + _random_tree_text(rng)
            elif op == 5:  # a malformed second tree
                second = _random_tree_text(rng)
                text += " " + second[:rng.randrange(len(second))]
            else:
                text = rng.choice(["", "  \n", "(S)", "((NN b))", "(NN a) (NN b)"])
            sentences[s] = text
        document = DocumentInput(f"d{case}", sentences)
        expected = _oracle_error(document)
        if expected is None:
            run_pipeline(document)
            continue
        failures += 1
        with pytest.raises(DocumentError) as info:
            run_pipeline(document)
        assert str(info.value) == expected
    assert failures > 1000


# ---------------------------------------------------------------------------
# Path distance
# ---------------------------------------------------------------------------

def test_path_distance_trivial_cases():
    doc = parse_doc("(S (NP (NN a)) (VP (VBD b)))")
    np, vp = doc.sentence_roots[0].children
    assert path_distance(np, np, doc) == 0
    assert path_distance(np, vp, doc) == 2


def test_path_distance_node_not_in_document():
    """The error names the first node not in ``doc``, of another document
    or of none (an unlinked tree)."""
    doc = parse_doc("(S (NN a))")
    mine = doc.sentence_roots[0]
    (unlinked,) = read_ptb("(S (NN c))")
    for foreign in (parse_doc("(S (NN b))").sentence_roots[0], unlinked):
        for a, b, name in ((foreign, mine, "first"), (mine, foreign, "second"),
                           (foreign, foreign, "first")):
            message = f"{name} node {foreign!r} is not in this document"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                path_distance(a, b, doc)


def test_path_distance_prefers_prior_subject_over_embedded_np():
    # Sentence 1 subject vs an NP two clause levels deep in its predicate;
    # the pronoun is the subject of sentence 2.
    doc = parse_doc(
        "(S (NP (DT the) (NNPS Calverts)) (VP (VBD were) (ADJP (JJ interested)"
        " (PP (IN in) (S (VP (VBG creating) (NP (JJ profitable) (NNS estates)))))))"
        " (. .))",
        "(S (NP (PRP they)) (VP (VBD encouraged) (NP (NN immigration))) (. .))",
    )
    s1, s2 = doc.sentence_roots
    subject = s1.children[0]
    embedded = None
    for node in s1.walk():
        if node.label == "NP" and "estates" in node.tokens():
            embedded = node
    pronoun = s2.children[0]
    assert path_distance(pronoun, subject, doc) < path_distance(pronoun, embedded, doc)


def test_path_distance_symmetry_and_triangle():
    rng = random.Random(99)
    texts = [_random_tree_text(rng) for _ in range(3)]
    doc = link_document(read_ptb(" ".join(texts)))
    nodes = doc.nodes
    sample = rng.sample(nodes, min(12, len(nodes)))
    for a in sample:
        for b in sample:
            assert path_distance(a, b, doc) == path_distance(b, a, doc)
            for c in sample[:6]:
                assert (path_distance(a, c, doc)
                        <= path_distance(a, b, doc) + path_distance(b, c, doc))


def test_path_distance_matches_the_linked_tree_on_random_documents():
    """Every node pair of documents of 1-6 sentences, against breadth-first
    search over the explicitly built linked tree."""
    rng = random.Random(1310)
    for _ in range(30):
        texts = [_random_tree_text(rng) for _ in range(rng.randint(1, 6))]
        doc = link_document(read_ptb(" ".join(texts)))
        adjacency, _ = linked_tree(doc)
        for a in doc.nodes:
            from_a = bfs_distances(adjacency, a)
            for b in doc.nodes:
                assert path_distance(a, b, doc) == from_a[b]


def test_path_distance_monotone_in_sentence_separation():
    # Uniform-depth sentences: distance from sentence 0 grows strictly with
    # the sentence gap (up to the final sentence, which shares the deepest
    # link node with its neighbour).
    k = 8
    trees = read_ptb(" ".join("(S (NP (NN x)) (VP (VBD y)))" for _ in range(k)))
    doc = link_document(trees)
    anchor = doc.sentence_roots[0].children[0]
    distances = [path_distance(anchor, doc.sentence_roots[j].children[0], doc)
                 for j in range(1, k - 1)]
    assert distances == sorted(distances)
    assert len(set(distances)) == len(distances)
