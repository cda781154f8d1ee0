"""Penn Treebank bracketed parses, Collins head finding, and document tree queries.

A document is a sequence of per-sentence constituency trees joined into one
right-branching tree so that path distance is defined across sentence
boundaries.
"""

from __future__ import annotations

import re
import weakref
from itertools import islice
from operator import length_hint
from typing import Iterator, Optional, Sequence

#: Label of the synthetic nodes that join sentence trees.
DOCLINK = "DOCLINK"

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
    the node's sentence.

    A node keeps its subtree alive, not its ancestors: ``parent`` is a weak
    reference, so the tree holds no reference cycle and a document is freed
    as soon as its ``DocumentTree`` and root are dropped. Once they are,
    ``parent`` of a node kept on its own reads None.
    """

    __slots__ = ("label", "token", "children", "_up", "sentence_index",
                 "span", "node_id", "depth", "doc", "_post", "_head",
                 "__weakref__")

    def __init__(self, label: str, token: Optional[str] = None,
                 children: Sequence["SyntaxNode"] = ()):
        self.label = label
        self.token = token
        self.children: list[SyntaxNode] = list(children)
        self._up: Optional[weakref.ref] = None
        self.sentence_index = -1
        self.span = (0, 0)
        self.node_id = -1
        self.depth = 0
        self.doc: Optional[list[list[str]]] = None  # the owning DocumentTree's key
        self._post = -1
        self._head: Optional[SyntaxNode] = None  # memoised by head_leaf

    @property
    def parent(self) -> Optional["SyntaxNode"]:
        return None if self._up is None else self._up()

    @parent.setter
    def parent(self, node: Optional["SyntaxNode"]) -> None:
        self._up = None if node is None else weakref.ref(node)

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

        A node owned by a ``DocumentTree``, link nodes aside, slices its
        sentence's token list by ``span``: such nodes are immutable, so the
        slice stays valid. Other nodes walk their leaves.
        """
        doc = self.doc
        if doc is not None and self.sentence_index >= 0:
            start, end = self.span
            return doc[self.sentence_index][start:end]
        return [leaf.token for leaf in self.leaves()]

    def __repr__(self) -> str:
        if self.is_leaf():
            return f"<{self.label} {self.token!r} s{self.sentence_index}:{self.span[0]}>"
        return (f"<{self.label} s{self.sentence_index}:"
                f"{self.span[0]}-{self.span[1]}>")


class DocumentTree:
    """Sentence trees joined under right-branching DOCLINK nodes.

    With k sentences there are max(k-1, 0) link nodes. An empty document
    has ``root is None``. The sentence trees must come from ``read_ptb``,
    whose spans number the leaves of each sentence left to right.

    Construction sets every node's ``node_id``, ``depth`` and
    ``sentence_index`` (-1 on link nodes), and sets its ``doc`` to this
    tree's ``key``: the list of each sentence's tokens, filled by the same
    pass. Nodes refer to the key, not to the tree, so that no reference
    cycle keeps a dropped document alive.

    The nodes a ``DocumentTree`` owns are immutable from then on: no label,
    token, child or span changes. ``head_leaf`` memoises heads and
    ``SyntaxNode.tokens`` slices ``key`` on that condition.
    """

    def __init__(self, sentence_roots: Sequence[SyntaxNode],
                 link_nodes: Sequence[SyntaxNode],
                 root: Optional[SyntaxNode]):
        self.sentence_roots = tuple(sentence_roots)
        self.link_nodes = tuple(link_nodes)
        self.root = root
        self.key: list[list[str]] = [[] for _ in self.sentence_roots]
        self.nodes: list[SyntaxNode] = []
        for i, sentence in enumerate(self.sentence_roots):
            sentence.sentence_index = i
        # One preorder pass numbers the nodes and copies depth and sentence
        # index down; leaves arrive in sentence order, each sentence's left
        # to right. A node below a sentence root takes its parent's index.
        key, nodes = self.key, self.nodes
        stack = []
        if root is not None:
            root.depth = 0
            stack.append(root)
        while stack:
            node = stack.pop()
            node.node_id = len(nodes)
            node.doc = key
            nodes.append(node)
            children = node.children
            if not children:
                key[node.sentence_index].append(node.token)
                continue
            depth, sentence_index = node.depth + 1, node.sentence_index
            for child in children:
                child.depth = depth
                if sentence_index >= 0:
                    child.sentence_index = sentence_index
            stack.extend(reversed(children))
        # _post is the first number past the subtree, so dominance is an
        # interval test; a subtree ends where its last child's does.
        for node in reversed(nodes):
            children = node.children
            node._post = children[-1]._post if children else node.node_id + 1

    def __len__(self) -> int:
        return len(self.nodes)


#: One PTB token: a bracket, or a run of characters that are neither
#: brackets nor whitespace (``\s`` matches exactly what ``str.isspace`` does).
_PTB_TOKEN = re.compile(r"[()]|[^\s()]+")


def _error_at(message: str, text: str, tokens: list[str], rest: Iterator[str],
              back: int = 1) -> PtbParseError:
    """The error for the token ``back`` places before the next one ``rest``
    yields; only this raising path scans ``text`` again for its offset."""
    index = len(tokens) - length_hint(rest) - back
    match = next(islice(_PTB_TOKEN.finditer(text), index, None))
    return PtbParseError(message, len(text[:match.start()].encode("utf-8")))


def read_ptb(text: str) -> list[SyntaxNode]:
    """Parse bracketed trees, one sentence per top-level expression.

    Labels and leaf tokens are preserved verbatim; spans are assigned by
    left-to-right leaf order within each sentence. Raises PtbParseError on
    unbalanced parentheses, an empty label, a node with no content, or
    empty input, naming the byte offset of the problem.
    """
    ref = weakref.ref
    trees: list[SyntaxNode] = []
    stack: list[SyntaxNode] = []
    leaf_count = 0  # leaves closed so far in the current sentence
    tokens = _PTB_TOKEN.findall(text)
    rest = iter(tokens)
    for token in rest:
        if token == "(":
            label = next(rest, None)
            if label is None:
                raise _error_at("empty node label", text, tokens, rest)
            if label == "(" or label == ")":
                raise _error_at("empty node label", text, tokens, rest, back=2)
            stack.append(SyntaxNode(label))
        elif token == ")":
            if not stack:
                raise _error_at("unbalanced ')'", text, tokens, rest)
            node = stack.pop()
            if node.token is not None:
                node.span = (leaf_count, leaf_count + 1)
                leaf_count += 1
            elif node.children:
                node.span = (node.children[0].span[0], node.children[-1].span[1])
            else:
                raise _error_at(f"node ({node.label} has neither token nor children",
                                text, tokens, rest)
            if stack:
                parent = stack[-1]
                if parent.token is not None:
                    raise _error_at("mixed token and children under one node",
                                    text, tokens, rest)
                node._up = ref(parent)
                parent.children.append(node)
            else:
                trees.append(node)
                leaf_count = 0
        else:
            if not stack:
                raise _error_at(f"unexpected token {token!r} outside brackets",
                                text, tokens, rest)
            node = stack[-1]
            if node.children:
                raise _error_at("mixed token and children under one node",
                                text, tokens, rest)
            if node.token is not None:
                raise _error_at("multiple tokens under one node", text, tokens, rest)
            node.token = token
    if stack:
        raise PtbParseError("unbalanced '(' at end of input", len(text.encode("utf-8")))
    if not trees:
        raise PtbParseError("empty input", 0)
    return trees


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


# ---------------------------------------------------------------------------
# Collins head rules
#
# Priority lists from the standard head-percolation table; "left" scans the
# priority list against children left-to-right, "right" right-to-left. NP has
# its own rule below. Categories not listed fall back to the rightmost child.
# ---------------------------------------------------------------------------

_HEAD_RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "S": ("left", ("TO", "IN", "VP", "S", "SBAR", "ADJP", "UCP", "NP")),
    "SBAR": ("left", ("WHNP", "WHPP", "WHADVP", "WHADJP", "IN", "DT", "S",
                      "SQ", "SINV", "SBAR", "FRAG")),
    "VP": ("left", ("TO", "VBD", "VBN", "MD", "VBZ", "VB", "VBG", "VBP",
                    "AUX", "AUXG", "VP", "ADJP", "NN", "NNS", "NP")),
    "PP": ("right", ("IN", "TO", "VBG", "VBN", "RP", "FW")),
    "ADJP": ("left", ("NNS", "QP", "NN", "$", "ADVP", "JJ", "VBN", "VBG",
                      "ADJP", "JJR", "NP", "JJS", "DT", "FW", "RBR", "RBS",
                      "SBAR", "RB")),
    "ADVP": ("right", ("RB", "RBR", "RBS", "FW", "ADVP", "TO", "CD", "JJR",
                       "JJ", "IN", "NP", "JJS", "NN")),
    "QP": ("left", ("$", "IN", "NNS", "NN", "JJ", "RB", "DT", "CD", "NCD",
                    "QP", "JJR", "JJS")),
}

_NP_NOMINAL_TAGS = frozenset({"NN", "NNP", "NNPS", "NNS", "NX", "NML", "POS", "JJR"})


def _matches(child_label: str, tag: str) -> bool:
    if tag == "NP":
        return child_label in _NP_ALIASES
    return child_label == tag


def _np_head_index(labels: Sequence[str]) -> int:
    last = len(labels) - 1
    if labels[last] == "POS":
        return last
    for i in range(last, -1, -1):
        if labels[i] in _NP_NOMINAL_TAGS:
            return i
    for i, lab in enumerate(labels):
        if lab in _NP_ALIASES:
            return i
    for i in range(last, -1, -1):
        if labels[i] in ("$", "ADJP", "PRN"):
            return i
    for i in range(last, -1, -1):
        if labels[i] == "CD":
            return i
    for i in range(last, -1, -1):
        if labels[i] in ("JJ", "JJS", "RB", "QP"):
            return i
    return last


def collins_head_child(node: SyntaxNode) -> int:
    """Index of the head child per the Collins head-percolation rules.

    NML/NX parents use the NP rule; categories outside the table default to
    the rightmost child. Raises ValueError on a node without children.
    """
    if node.is_leaf():
        raise ValueError(f"leaf node {node!r} has no head child")
    labels = [child.label for child in node.children]
    category = "NP" if node.label in _NP_ALIASES else node.label
    if category == "NP":
        return _np_head_index(labels)
    rule = _HEAD_RULES.get(category)
    if rule is None:
        return len(labels) - 1
    direction, priority = rule
    positions = range(len(labels)) if direction == "left" else range(len(labels) - 1, -1, -1)
    for tag in priority:
        for i in positions:
            if _matches(labels[i], tag):
                return i
    return len(labels) - 1


def head_leaf(node: SyntaxNode) -> SyntaxNode:
    """Follow head children down to a leaf; a leaf is its own head.

    Nodes owned by a ``DocumentTree`` are immutable, so the head found for
    one stays valid: it is memoised on every interior node of the path
    walked, and each head child is computed once per document. Nodes of an
    unlinked ``read_ptb`` tree are walked every time.
    """
    if node.doc is None:
        while node.children:
            node = node.children[collins_head_child(node)]
        return node
    path = []
    while node.children and node._head is None:
        path.append(node)
        node = node.children[collins_head_child(node)]
    head = node._head or node
    for above in path:
        above._head = head
    return head


def dominates(a: SyntaxNode, b: SyntaxNode) -> bool:
    """True iff ``b`` lies in ``a``'s subtree; a node dominates itself.

    Both nodes must belong to one ``DocumentTree``; nodes of different
    documents, or of trees not yet linked into one, raise ValueError.
    """
    if a.doc is None or a.doc is not b.doc:
        raise ValueError("nodes belong to different documents")
    return a.node_id <= b.node_id < a._post


def link_document(trees: Sequence[SyntaxNode]) -> DocumentTree:
    """Join sentence trees into one right-branching document tree.

    link(S1, link(S2, ... Sk)): each DOCLINK node has a sentence as its left
    child and the linked remainder as its right child.
    """
    trees = list(trees)
    if not trees:
        return DocumentTree([], [], None)
    if len(trees) == 1:
        return DocumentTree(trees, [], trees[0])
    links: list[SyntaxNode] = []
    spine = trees[-1]
    for tree in reversed(trees[:-1]):
        link = SyntaxNode(DOCLINK, children=[tree, spine])
        tree.parent = link
        spine.parent = link
        links.append(link)
        spine = link
    links.reverse()  # top-down order
    return DocumentTree(trees, links, spine)


def path_distance(a: SyntaxNode, b: SyntaxNode, doc: DocumentTree) -> int:
    """Number of edges on the tree path between two nodes of one document.

    DOCLINK edges count like ordinary edges. Raises ValueError when a node
    is not part of ``doc``.

    For nodes of sentences i != j the lowest common ancestor is link node
    min(i, j), at depth min(i, j), so that case takes O(1); same-sentence
    pairs and link nodes climb to their common ancestor.
    """
    for name, node in (("first", a), ("second", b)):
        if node.doc is not doc.key:
            raise ValueError(f"{name} node {node!r} is not in this document")
    i, j = a.sentence_index, b.sentence_index
    if i != j and i >= 0 and j >= 0:
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
