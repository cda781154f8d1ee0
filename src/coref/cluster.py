"""Entity clustering: antecedent decisions grouped into entities.

A clustering holds one label per mention, numbering the entities on first
sight. The pipeline's antecedents are all earlier mentions, so
``Clustering.from_decisions`` groups its decisions in one forward pass;
``transitive_closure`` is the general routine, for decisions in any order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .resolve import Decision


class Clustering:
    """A partition of mention ids into entities.

    Each mention's entity is one label, 1..E; the labels number the entities
    in order of first sight in ``universe``, and ``entities[label - 1]`` is
    the entity's member set. ``label_of(mention_id)`` reads a mention's label
    (KeyError for an id not in ``universe``); it is the label dict's own
    ``__getitem__``, so a read makes no Python call.
    """

    __slots__ = ("universe", "entities", "label_of")

    def __init__(self, universe: Sequence[int],
                 entities: Iterable[Iterable[int]]):
        self.universe = tuple(universe)
        ids = set(self.universe)
        if len(ids) != len(self.universe):
            raise ValueError("duplicate mention ids in universe")
        owner: dict[int, frozenset[int]] = {}
        for entity in entities:
            members = tuple(entity)
            group = frozenset(members)
            if not group:
                raise ValueError("empty entity")
            for mid in members:
                if mid not in ids:
                    raise ValueError(f"entity member {mid} not in universe")
                if mid in owner:
                    where = "one entity twice" if owner[mid] is group else "two entities"
                    raise ValueError(f"mention {mid} appears in {where}")
                owner[mid] = group
        if len(owner) != len(ids):
            missing = sorted(ids - owner.keys())
            raise ValueError(f"mentions not covered by any entity: {missing}")
        # Disjoint, non-empty groups are equal only when they are one group.
        labels: dict[frozenset[int], int] = {}
        self.label_of = {mid: labels.setdefault(owner[mid], len(labels) + 1)
                         for mid in self.universe}.__getitem__
        self.entities: tuple[frozenset[int], ...] = tuple(labels)

    @classmethod
    def from_decisions(cls, decisions: Sequence[Decision],
                       universe: Sequence[int]) -> "Clustering":
        """The clustering of one decision per mention of ``universe``, in its
        order, each naming an earlier mention as antecedent or none.

        A decision without an antecedent opens the next entity, and any other
        joins its antecedent's, so the entities are made in one pass and
        numbered by their first mention; ``transitive_closure`` of the same
        decisions is the same clustering. Raises ValueError if the counts
        differ, if decision i is not for ``universe[i]``, or if an antecedent
        is unknown or not an earlier mention.
        """
        ids = tuple(universe)
        if len(decisions) != len(ids):
            raise ValueError(f"{len(decisions)} decisions for {len(ids)} mentions")
        label: dict[int, int] = {}
        groups: list[list[int]] = []
        for mid, (of, antecedent, _) in zip(ids, decisions):
            if of != mid:
                raise ValueError(f"decision for mention {of} where mention {mid} is due")
            if antecedent is None:
                groups.append([mid])
                label[mid] = len(groups)
                continue
            at = label.get(antecedent)
            if at is None:
                if antecedent in ids:
                    raise ValueError(f"antecedent {antecedent} of mention {mid} "
                                     "is not an earlier mention")
                raise ValueError(f"decision references unknown antecedent {antecedent}")
            groups[at - 1].append(mid)
            label[mid] = at
        if len(label) != len(ids):
            raise ValueError("duplicate mention ids in universe")
        self = cls.__new__(cls)
        self.universe = ids
        self.entities = tuple(map(frozenset, groups))
        self.label_of = label.__getitem__
        return self

    def __len__(self) -> int:
        return len(self.entities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return (set(self.universe) == set(other.universe)
                and set(self.entities) == set(other.entities))

    def __hash__(self) -> int:
        return hash((frozenset(self.universe), frozenset(self.entities)))

    def __repr__(self) -> str:
        return f"<Clustering {len(self.universe)} mentions, {len(self.entities)} entities>"


def transitive_closure(decisions: Iterable[Decision],
                       universe: Sequence[int]) -> Clustering:
    """Smallest equivalence relation containing the (mention, antecedent)
    pairs; NULL decisions contribute nothing, uncovered ids stay singletons.

    Each id maps to the member list of its entity. A link moves the shorter
    list into the longer one, so an id moves at most log2(n) times.
    """
    ids = list(universe)
    members = {mid: [mid] for mid in ids}
    for decision in decisions:
        mine = members.get(decision.mention_id)
        if mine is None:
            raise ValueError(f"decision references unknown mention {decision.mention_id}")
        if decision.antecedent is None:
            continue
        theirs = members.get(decision.antecedent)
        if theirs is None:
            raise ValueError(f"decision references unknown antecedent {decision.antecedent}")
        if mine is theirs:
            continue
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        mine.extend(theirs)
        for mid in theirs:
            members[mid] = mine
    return Clustering(ids, {id(group): group for group in members.values()}.values())


def from_entities(universe: Sequence[int],
                  entities: Iterable[Iterable[int]]) -> Clustering:
    """Build a clustering from explicit entity sets; ids not listed in any
    entity become singletons."""
    groups = [list(e) for e in entities]
    listed = {mid for group in groups for mid in group}
    for mid in universe:
        if mid not in listed:
            groups.append([mid])
    return Clustering(universe, groups)
