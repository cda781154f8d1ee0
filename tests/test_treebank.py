import random

import pytest

from coref import (DOCLINK, PtbParseError, SyntaxNode, collins_head_child,
                   dominates, head_leaf, link_document, path_distance,
                   read_ptb, to_ptb)
from helpers import parse_doc


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


def test_read_mutated_trees_parse_or_fail_with_an_offset():
    rng = random.Random(20261019)
    alphabet = "() \x1c\u00a0a\u00e9"
    for _ in range(2000):
        text = " ".join(to_ptb(_random_tree(rng)) for _ in range(rng.randint(1, 3)))
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
        try:
            trees = read_ptb(text)
        except PtbParseError as err:
            assert 0 <= err.offset <= len(text.encode("utf-8"))
            continue
        canonical = [to_ptb(tree) for tree in trees]
        assert [to_ptb(tree) for tree in read_ptb(" ".join(canonical))] == canonical
        for tree in trees:
            _assert_spans_in_leaf_order(tree)


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


def _random_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.35:
        return SyntaxNode(rng.choice(["NN", "DT", "JJ", "VBD"]),
                          token=rng.choice(["a", "bb", "ccc", ".", "café"]))
    children = [_random_tree(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    return SyntaxNode(rng.choice(["S", "NP", "VP", "PP", "XYZ"]), children=children)


def test_round_trip_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        text = to_ptb(_random_tree(rng))
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
        text = to_ptb(_random_tree(rng))
        doc = link_document(read_ptb(text))
        for node in doc.root.walk():
            assert dominates(node, head_leaf(node))


# ---------------------------------------------------------------------------
# Dominance and linking
# ---------------------------------------------------------------------------

def test_root_dominates_everything():
    doc = parse_doc("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")
    for node in doc.root.walk():
        assert dominates(doc.root, node)


def test_unrelated_leaves_do_not_dominate():
    doc = parse_doc("(S (NP (DT the) (NN dog)) (VP (VBD ran)))")
    leaves = list(doc.root.leaves())
    assert not dominates(leaves[0], leaves[1])
    assert not dominates(leaves[2], leaves[0])


def test_dominates_is_reflexive():
    doc = parse_doc("(S (NN a))")
    for node in doc.root.walk():
        assert dominates(node, node)


def test_dominates_across_documents_is_an_error():
    doc1 = parse_doc("(S (NN a))")
    doc2 = parse_doc("(S (NN b))")
    with pytest.raises(ValueError, match="different documents"):
        dominates(doc1.root, doc2.root)
    (unlinked,) = read_ptb("(S (NP (NN a)))")
    with pytest.raises(ValueError, match="different documents"):
        dominates(unlinked, unlinked.children[0])


def test_dominance_and_depth_follow_parent_chain_on_random_documents():
    rng = random.Random(20261018)
    for _ in range(25):
        texts = [to_ptb(_random_tree(rng)) for _ in range(rng.randint(1, 5))]
        doc = link_document(read_ptb(" ".join(texts)))
        for b in doc.nodes:
            chain = []
            node = b
            while node is not None:
                chain.append(node)
                node = node.parent
            assert chain[-1] is doc.root
            assert b.depth == len(chain) - 1
            ancestors = {id(node) for node in chain}
            for a in doc.nodes:
                assert dominates(a, b) == (id(a) in ancestors)


def test_link_empty_document():
    doc = link_document([])
    assert doc.root is None
    assert doc.sentence_roots == ()
    assert doc.link_nodes == ()


def test_link_single_sentence():
    trees = read_ptb("(S (NN a))")
    doc = link_document(trees)
    assert doc.root is trees[0]
    assert doc.link_nodes == ()


def test_link_two_sentences():
    trees = read_ptb("(S (NN a)) (S (NN b))")
    doc = link_document(trees)
    assert len(doc.link_nodes) == 1
    assert doc.root.label == DOCLINK
    assert doc.root.children[0] is trees[0]
    assert doc.root.children[1] is trees[1]


def test_link_three_sentences_right_branching():
    trees = read_ptb("(S (NN a)) (S (NN b)) (S (NN c))")
    doc = link_document(trees)
    assert len(doc.link_nodes) == 2
    top = doc.root
    assert top.children[0] is trees[0]
    inner = top.children[1]
    assert inner.label == DOCLINK
    assert inner.children[0] is trees[1]
    assert inner.children[1] is trees[2]


def test_link_node_count_and_leaf_order():
    sentences = ["(S (NN a) (NN b))", "(S (NN c))", "(S (NN d) (NN e))",
                 "(S (NN f))"]
    trees = read_ptb(" ".join(sentences))
    doc = link_document(trees)
    assert len(doc.link_nodes) == len(sentences) - 1
    assert [leaf.token for leaf in doc.root.leaves()] == list("abcdef")
    for node in doc.root.walk():
        sentence_root = node
        while sentence_root.parent is not None and sentence_root.parent.label != DOCLINK:
            sentence_root = sentence_root.parent
        if node.label == DOCLINK:
            assert node.sentence_index == -1
        else:
            assert node.sentence_index == trees.index(sentence_root)


# ---------------------------------------------------------------------------
# Path distance
# ---------------------------------------------------------------------------

def test_path_distance_trivial_cases():
    doc = parse_doc("(S (NP (NN a)) (VP (VBD b)))")
    np, vp = doc.root.children
    assert path_distance(np, np, doc) == 0
    assert path_distance(np, vp, doc) == 2


def test_path_distance_node_not_in_document():
    doc = parse_doc("(S (NN a))")
    other = parse_doc("(S (NN b))")
    with pytest.raises(ValueError, match="not in this document"):
        path_distance(doc.root, other.root, doc)


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


def _all_nodes(doc):
    return list(doc.root.walk())


def test_path_distance_symmetry_and_triangle():
    rng = random.Random(99)
    texts = [to_ptb(_random_tree(rng)) for _ in range(3)]
    doc = link_document(read_ptb(" ".join(texts)))
    nodes = _all_nodes(doc)
    sample = rng.sample(nodes, min(12, len(nodes)))
    for a in sample:
        for b in sample:
            assert path_distance(a, b, doc) == path_distance(b, a, doc)
            for c in sample[:6]:
                assert (path_distance(a, c, doc)
                        <= path_distance(a, b, doc) + path_distance(b, c, doc))


def _climbing_distance(a, b):
    """Edges from ``a`` and ``b`` up to their lowest common ancestor, found
    by following ``parent`` links only."""
    up = {}
    node, steps = a, 0
    while node is not None:
        up[id(node)] = steps
        node, steps = node.parent, steps + 1
    node, steps = b, 0
    while id(node) not in up:
        node, steps = node.parent, steps + 1
    return steps + up[id(node)]


def test_path_distance_matches_climbing_on_random_documents():
    """Every node pair, link nodes included, of documents of 1-6 sentences."""
    rng = random.Random(1310)
    for _ in range(30):
        texts = [to_ptb(_random_tree(rng)) for _ in range(rng.randint(1, 6))]
        doc = link_document(read_ptb(" ".join(texts)))
        for a in doc.nodes:
            for b in doc.nodes:
                assert path_distance(a, b, doc) == _climbing_distance(a, b)


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
