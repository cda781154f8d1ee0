"""Penn Treebank bracketed parses, Collins head finding, and document tree queries.

A document is a sequence of per-sentence constituency trees. Path distance
across sentence boundaries is that of one right-branching tree joining them,
which is never built: each node's depth counts its edges in that tree (see
``path_distance``).
"""

from __future__ import annotations

import re
import weakref
from itertools import islice
from operator import length_hint
from typing import Iterator, Optional, Sequence

#: Clause categories used for subject/object detection downstream.
CLAUSE_LABELS = frozenset({"S", "SINV", "SQ"})

#: Parser-variant nominal labels treated as NP during head finding.
_NP_ALIASES = frozenset({"NP", "NML", "NX"})


class PtbParseError(ValueError):
    """Malformed bracketed input; ``offset`` is the UTF-8 byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SyntaxNode:
    """One constituency tree node.

    Leaves carry a ``token`` and have no children; interior nodes have one or
    more children and no token. ``span`` is a half-open token interval within
    the node's sentence. Only ``read_ptb`` and ``read_document`` make nodes:
    the leaves share one empty tuple as ``children``, and the leaves at one
    position share one ``span``; each interior node has a list.

    An interior node gets its head leaf (see ``head_leaf``) when the reader
    closes it. So its label and children must not change afterwards.

    A node keeps its subtree alive, not its ancestors: ``parent`` is a weak
    reference, so the tree holds no reference cycle and a document is freed
    as soon as its ``DocumentTree`` and sentence roots are dropped. Once
    they are, ``parent`` of a node kept on its own reads None.
    """

    __slots__ = ("label", "token", "children", "_up", "sentence_index",
                 "span", "node_id", "depth", "doc", "_post", "_head",
                 "__weakref__")

    @property
    def parent(self) -> Optional["SyntaxNode"]:
        return None if self._up is None else self._up()

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["SyntaxNode"]:
        """Preorder traversal of the subtree rooted here (iterative)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["SyntaxNode"]:
        for node in self.walk():
            if node.is_leaf():
                yield node

    def tokens(self) -> list[str]:
        """The leaf tokens of this subtree, left to right.

        A node owned by a ``DocumentTree`` slices its sentence's token list
        by ``span``: such nodes are immutable, so the slice stays valid.
        Other nodes walk their leaves.
        """
        doc = self.doc
        if doc is not None:
            start, end = self.span
            return doc[self.sentence_index][start:end]
        return [leaf.token for leaf in self.leaves()]

    def __repr__(self) -> str:
        if self.is_leaf():
            return f"<{self.label} {self.token!r} s{self.sentence_index}:{self.span[0]}>"
        return (f"<{self.label} s{self.sentence_index}:"
                f"{self.span[0]}-{self.span[1]}>")


class DocumentTree:
    """The sentence trees of one document, numbered as one.

    ``read_document`` and ``link_document`` build it; both set every node's
    ``node_id`` (its preorder index in ``nodes``, sentence after sentence),
    ``depth`` (see ``path_distance``), ``_post`` and ``sentence_index``, and
    set its ``doc`` to ``key``: the list of each sentence's tokens. A
    sentence root has no parent. Nodes refer to the key, not to the tree,
    so that no reference cycle keeps a dropped document alive.

    The nodes a ``DocumentTree`` owns are immutable from then on: no label,
    token, child or span changes. ``SyntaxNode.tokens`` slices ``key`` on
    that condition.
    """

    def __init__(self, sentence_roots: tuple[SyntaxNode, ...],
                 key: list[list[str]], nodes: list[SyntaxNode]):
        self.sentence_roots = sentence_roots
        self.key = key
        self.nodes = nodes


#: One PTB token per node. A whole preterminal ``(TAG word)`` is one token,
#: with the tag and the word as the first two groups, and ``(LABEL`` is one
#: with the label alone; either takes the run of ``)`` right after it as the
#: third group, as does a run of ``)`` on its own. Otherwise the fourth group
#: holds a lone ``(`` or a run of characters that are neither brackets nor
#: whitespace (``\s`` matches exactly what ``str.isspace`` does). A token
#: takes the whitespace after it and none before: a leading ``\s*`` would
#: retry each position of a whitespace run that no token follows, taking
#: quadratic time. No match needs to give back what a quantifier took, so
#: each is possessive, and the engine saves no state to backtrack to.
_PTB_TOKEN = re.compile(
    r"(?:\(\s*+([^\s()]++)(?:\s++([^\s()]++)\s*+\))?+|(?=\)))(\)*+)\s*+|(\(|[^\s()]++)\s*+")


#: The ``children`` of every leaf the reader builds.
_NO_CHILDREN: tuple[SyntaxNode, ...] = ()

#: ``_LEAF_SPANS[i]`` is ``(i, i + 1)``, the span every leaf at position i of
#: its sentence shares. Growing replaces it, so another thread's copy stays
#: whole. It keeps at most the cap; past it, a document makes its own spans.
_LEAF_SPANS: tuple[tuple[int, int], ...] = ()
_LEAF_SPANS_CAP = 1024


def _error_at(message: str, text: str, tokens: list[tuple[str, str, str, str]],
              rest: Iterator[tuple[str, str, str, str]],
              closer: Optional[int] = None) -> PtbParseError:
    """The error for the token ``rest`` yielded last: at its start, or at the
    ``closer``-th bracket of its closing run (-1 is a preterminal's own
    ``)``); only this raising path scans ``text`` again for the offset."""
    index = len(tokens) - length_hint(rest) - 1
    match = next(islice(_PTB_TOKEN.finditer(text), index, None))
    offset = match.start() if closer is None else match.start(3) + closer
    return PtbParseError(message, len(text[:offset].encode("utf-8")))


def _read_trees(texts: Sequence[str], doc: Optional[list[list[str]]] = None
                ) -> tuple[list[SyntaxNode], list[SyntaxNode]]:
    """The trees of ``texts`` and all their nodes, in preorder, in one pass.

    Each node gets all of its facts as it opens or closes: ``node_id`` is
    its preorder index, ``_post`` the node count when it closes, and it
    takes ``doc``. A root has no parent. Spans number each tree's leaves
    from 0. An open node gathers its production (its label and its
    children's) as children attach, and closing it looks the head child up
    by that in ``_HEAD_TABLE``. Without ``doc``, ``texts`` is ``read_ptb``'s
    one text. With it, text i is sentence i: its tokens are appended to
    ``doc``, its root sits at depth i + 1 (the last at i), and it raises as
    ``read_document`` documents.
    """
    global _LEAF_SPANS
    ref = weakref.ref
    new = object.__new__  # every slot is set below, so skip __init__'s defaults
    nodes: list[SyntaxNode] = []
    append = nodes.append
    head_table = _HEAD_TABLE
    spans = _LEAF_SPANS
    count = 0
    trees: list[SyntaxNode] = []
    rows = [] if doc is None else doc
    row: list[str] = []  # the tokens of the current tree
    stack: list[tuple[SyntaxNode, list[str]]] = []  # the open nodes above parent
    parent: Optional[SyntaxNode] = None  # the innermost open node, if any
    labels: list[str] = []  # parent's production, gathered so far
    up: Optional[weakref.ref] = None  # the weak reference to parent
    last = len(texts) - 1
    try:  # each text that reads leaves no node open, so the state above carries over
        for i, text in enumerate(texts):
            sentence_index, depth = (-1, 0) if doc is None else (i, i + (i < last))
            tokens = _PTB_TOKEN.findall(text)
            if len(tokens) > len(spans):  # no text has more leaves than tokens
                spans += tuple((j, j + 1) for j in range(len(spans), len(tokens)))
                _LEAF_SPANS = spans[:_LEAF_SPANS_CAP]
            rest = iter(tokens)
            for label, word, closers, other in rest:
                if label:
                    node = new(SyntaxNode)
                    node.label = label
                    node._up = up
                    node.sentence_index = sentence_index
                    node.node_id = count
                    node.depth = depth
                    node.doc = doc
                    node._head = None
                    append(node)
                    count += 1
                    if word:
                        node.children = _NO_CHILDREN
                        node.token = word
                        node.span = spans[len(row)]
                        row.append(word)
                        node._post = count
                        if parent is None:
                            trees.append(node)
                            rows.append(row)
                            row = []
                        elif parent.token is not None:
                            raise _error_at("mixed token and children under one node",
                                            text, tokens, rest, -1)
                        else:
                            parent.children.append(node)
                            labels.append(label)
                    else:
                        node.children = []
                        node.token = None
                        if parent is not None:
                            stack.append((parent, labels))
                        parent = node
                        labels = [label]
                        up = ref(node)
                        depth += 1
                elif other == "(":
                    raise _error_at("empty node label", text, tokens, rest)
                elif other:
                    # A word on its own: valid trees have none, as every leaf
                    # reads as one preterminal token, so this only finds the error.
                    if parent is None:
                        raise _error_at(f"unexpected token {other!r} outside brackets",
                                        text, tokens, rest)
                    if parent.children:
                        raise _error_at("mixed token and children under one node",
                                        text, tokens, rest)
                    if parent.token is not None:
                        raise _error_at("multiple tokens under one node",
                                        text, tokens, rest)
                    parent.token = other
                if not closers:
                    continue
                for k in range(len(closers)):
                    node = parent
                    if node is None:
                        raise _error_at("unbalanced ')'", text, tokens, rest, k)
                    children = node.children
                    if not children:
                        raise _error_at(f"node ({node.label} has neither token nor children",
                                        text, tokens, rest, k)
                    node.span = (children[0].span[0], children[-1].span[1])
                    node._post = count
                    index = head_table.get(key := tuple(labels))
                    child = children[_head_index(node, key) if index is None else index]
                    node._head = child._head or child
                    depth -= 1
                    up = node._up
                    if stack:
                        parent, labels = stack.pop()
                        if parent.token is not None:
                            raise _error_at("mixed token and children under one node",
                                            text, tokens, rest, k)
                        parent.children.append(node)
                        labels.append(node.label)
                    else:
                        parent = None
                        trees.append(node)
                        rows.append(row)
                        row = []
            if parent is not None:
                raise PtbParseError("unbalanced '(' at end of input",
                                    len(text.encode("utf-8")))
            if len(trees) == i:  # every earlier text read as one tree
                raise PtbParseError("empty input", 0)
            if len(trees) > i + 1 and doc is not None:
                raise ValueError(f"sentence {i}: expected one tree, found {len(trees) - i}")
    except PtbParseError as err:
        if doc is None:
            raise
        raise ValueError(f"sentence {i}: {err}") from err
    return trees, nodes


def read_ptb(text: str) -> list[SyntaxNode]:
    """Parse bracketed trees, one sentence per top-level expression.

    Labels and leaf tokens are preserved verbatim; spans are assigned by
    left-to-right leaf order within each sentence. Raises PtbParseError,
    naming the UTF-8 byte offset of the problem, with one of eight
    messages: ``unbalanced ')'``, ``unbalanced '(' at end of input``,
    ``empty node label``, ``node (X has neither token nor children``,
    ``mixed token and children under one node``, ``multiple tokens under
    one node``, ``unexpected token 'w' outside brackets`` and ``empty
    input``.

    Every node carries the facts a document needs, counted within
    ``text``: its preorder ``node_id``, ``_post``, ``depth`` from 0 at its
    root, and its head leaf. The trees belong to no document (``doc`` is
    None) until ``link_document`` re-bases them into one.
    """
    return _read_trees((text,))[0]


def read_document(sentences: Sequence[str]) -> DocumentTree:
    """Read one bracketed tree per sentence into a document tree.

    The result equals ``link_document([read_ptb(s)[0] for s in sentences])``
    node for node, but all sentences are read in one loop, and each node is
    built once, with all of its document facts.

    Raises ValueError on the first sentence that is not exactly one tree:
    ``sentence i: <PtbParseError text>``, or, when the whole sentence
    reads, ``sentence i: expected one tree, found N``.
    """
    key: list[list[str]] = []
    roots, nodes = _read_trees(sentences, key)
    return DocumentTree(tuple(roots), key, nodes)


# ---------------------------------------------------------------------------
# Collins head rules
#
# Each category's rule is a sequence of passes (direction, labels): "left"
# scans the children left to right and "right" right to left; the first
# child whose label is in ``labels`` is the head. Most categories' rules are
# priority lists from the standard head-percolation table. Unlisted
# categories and unmatched nodes take the rightmost child.
# ---------------------------------------------------------------------------

def _priority(direction: str, tags: str) -> tuple[tuple[str, frozenset[str]], ...]:
    """One pass per tag, in order; "NP" matches any of ``_NP_ALIASES``."""
    return tuple((direction, _NP_ALIASES if tag == "NP" else frozenset((tag,)))
                 for tag in tags.split())


# A last child tagged POS heads an NP: the first pass, from the right, finds it.
_NP_RULE = (("right", frozenset({"NN", "NNP", "NNPS", "NNS", "NX", "NML", "POS", "JJR"})),
            ("left", _NP_ALIASES),
            ("right", frozenset({"$", "ADJP", "PRN"})),
            ("right", frozenset({"CD"})),
            ("right", frozenset({"JJ", "JJS", "RB", "QP"})))

_HEAD_RULES: dict[str, tuple[tuple[str, frozenset[str]], ...]] = {
    **dict.fromkeys(_NP_ALIASES, _NP_RULE),
    "S": _priority("left", "TO IN VP S SBAR ADJP UCP NP"),
    "SBAR": _priority("left", "WHNP WHPP WHADVP WHADJP IN DT S SQ SINV SBAR FRAG"),
    "VP": _priority("left", "TO VBD VBN MD VBZ VB VBG VBP AUX AUXG VP ADJP NN NNS NP"),
    "PP": _priority("right", "IN TO VBG VBN RP FW"),
    "ADJP": _priority("left", "NNS QP NN $ ADVP JJ VBN VBG ADJP JJR NP JJS DT FW RBR RBS"
                              " SBAR RB"),
    "ADVP": _priority("right", "RB RBR RBS FW ADVP TO CD JJR JJ IN NP JJS NN"),
    "QP": _priority("left", "$ IN NNS NN JJ RB DT CD NCD QP JJR JJS"),
}


def collins_head_child(node: SyntaxNode) -> int:
    """Index of the head child per the Collins head-percolation rules.

    Runs the passes of ``_HEAD_RULES`` for the node's label in order; NML
    and NX share the NP rule. Raises ValueError on a node without children.
    """
    if node.is_leaf():
        raise ValueError(f"leaf node {node!r} has no head child")
    labels = [child.label for child in node.children]
    last = len(labels) - 1
    scans = {"left": range(last + 1), "right": range(last, -1, -1)}
    for direction, wanted in _HEAD_RULES.get(node.label, ()):
        for i in scans[direction]:
            if labels[i] in wanted:
                return i
    return last


#: Production (label, *child labels) -> the index ``collins_head_child``
#: gives for it. A grammar has few productions, so after the first
#: documents nearly every interior node is one lookup. The keys hold at most
#: ``_HEAD_TABLE_LABELS`` labels in all, so wide nodes (a long coordination
#: is a production of its own) cannot grow it without limit; past that a
#: production's head is computed each time.
_HEAD_TABLE: dict[tuple[str, ...], int] = {}
_HEAD_TABLE_LABELS = 65_536
_head_table_labels = 0  # labels held by the keys of _HEAD_TABLE


def _head_index(node: SyntaxNode, key: tuple[str, ...]) -> int:
    """``collins_head_child(node)`` for production ``key``, which
    ``_HEAD_TABLE`` lacks; the table keeps it while it has room."""
    global _head_table_labels
    index = collins_head_child(node)
    if _head_table_labels + len(key) <= _HEAD_TABLE_LABELS:
        _HEAD_TABLE[key] = index
        _head_table_labels += len(key)
    return index


def head_leaf(node: SyntaxNode) -> SyntaxNode:
    """The leaf reached by following head children down; a leaf is its own
    head. Every interior node got it when it was made, so this reads it."""
    return node._head or node


def dominates(a: SyntaxNode, b: SyntaxNode) -> bool:
    """True iff ``b`` lies in ``a``'s subtree; a node dominates itself.

    Both nodes must belong to one ``DocumentTree``; nodes of different
    documents, or of trees not yet linked into one, raise ValueError.
    """
    if a.doc is None or a.doc is not b.doc:
        raise ValueError("nodes belong to different documents")
    return a.node_id <= b.node_id < a._post


def link_document(trees: Sequence[SyntaxNode]) -> DocumentTree:
    """Join sentence trees into one document tree, as ``read_document`` would.

    The trees must come from ``read_ptb``, or be the sentence roots of a
    document: such a tree already carries its spans, heads, and
    ``node_id``, ``_post`` and ``depth`` counted within its text, so it is
    re-based, not rebuilt. One preorder walk over it shifts each
    ``node_id`` and ``_post`` by one offset, lifts each ``depth`` by
    another, and sets ``sentence_index`` and ``doc``. The trees become the
    document's nodes, and each tree's root loses its parent.

    Raises ValueError naming the index of a tree given twice, whole or as
    part of another tree.
    """
    key: list[list[str]] = []
    nodes: list[SyntaxNode] = []
    last = len(trees) - 1
    for i, root in enumerate(trees):
        shift = len(nodes) - root.node_id
        lift = i + (i < last) - root.depth
        root._up = None
        row: list[str] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.doc is key:
                raise ValueError(f"tree {i} was given twice, in whole or in part")
            node.node_id += shift
            node._post += shift
            node.depth += lift
            node.sentence_index = i
            node.doc = key
            nodes.append(node)
            if node.children:
                stack.extend(reversed(node.children))
            else:
                row.append(node.token)
        key.append(row)
    return DocumentTree(tuple(trees), key, nodes)


def path_distance(a: SyntaxNode, b: SyntaxNode, doc: DocumentTree) -> int:
    """Number of edges on the tree path between two nodes of one document.

    Across sentences the path runs through a right-branching chain of
    k - 1 link nodes that is a model, not a tree that is built: link i sits
    at depth i, with sentence i's root as its left child and link i + 1, or
    the last sentence's root, as its right child. ``read_document`` and
    ``link_document`` set every depth on that model. So for nodes of sentences i != j the lowest common
    ancestor is link min(i, j), at depth min(i, j), and that case takes
    O(1); same-sentence pairs climb to their common ancestor. Raises
    ValueError when a node is not part of ``doc``.
    """
    key = doc.key
    if a.doc is not key or b.doc is not key:
        name, node = ("first", a) if a.doc is not key else ("second", b)
        raise ValueError(f"{name} node {node!r} is not in this document")
    i, j = a.sentence_index, b.sentence_index
    if i != j:
        return a.depth + b.depth - 2 * min(i, j)
    x, y = a, b
    while x.depth > y.depth:
        x = x.parent
    while y.depth > x.depth:
        y = y.parent
    while x is not y:
        x = x.parent
        y = y.parent
    return (a.depth - x.depth) + (b.depth - x.depth)
