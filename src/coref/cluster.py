"""Entity clustering: antecedent decisions grouped into entities.

The pipeline's antecedents are all earlier mentions, so
``Clustering.from_decisions`` groups its decisions in one forward pass;
``transitive_closure`` is the general routine, for decisions in any order.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .resolve import Decision


class Clustering:
    """A partition of mention ids into entities.

    Entity labels are 1..E, ordered by the document position of each entity's
    earliest mention (positions follow the order of ``universe``).
    """

    def __init__(self, universe: Sequence[int],
                 entities: Iterable[Iterable[int]]):
        self.universe = tuple(universe)
        position = {mid: i for i, mid in enumerate(self.universe)}
        if len(position) != len(self.universe):
            raise ValueError("duplicate mention ids in universe")
        # Each group goes to the slot of its earliest position, which no
        # other group shares, so reading the slots in order sorts them.
        slots: list[Optional[frozenset[int]]] = [None] * len(position)
        entity_of: dict[int, frozenset[int]] = {}
        for entity in entities:
            members = tuple(entity)
            group = frozenset(members)
            if not group:
                raise ValueError("empty entity")
            first = len(position)
            for mid in members:
                at = position.get(mid)
                if at is None:
                    raise ValueError(f"entity member {mid} not in universe")
                if mid in entity_of:
                    where = "one entity twice" if entity_of[mid] is group else "two entities"
                    raise ValueError(f"mention {mid} appears in {where}")
                entity_of[mid] = group
                if at < first:
                    first = at
            slots[first] = group
        if len(entity_of) != len(position):
            missing = sorted(set(self.universe) - entity_of.keys())
            raise ValueError(f"mentions not covered by any entity: {missing}")
        self.entities: tuple[frozenset[int], ...] = tuple(
            group for group in slots if group is not None)
        self._label = {mid: i + 1 for i, group in enumerate(self.entities)
                       for mid in group}
        self._entity_of = entity_of

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
        self.entities = entities = tuple(map(frozenset, groups))
        self._label = label
        self._entity_of = {mid: entities[at - 1] for mid, at in label.items()}
        return self

    def label_of(self, mention_id: int) -> int:
        return self._label[mention_id]

    def entity_of(self, mention_id: int) -> frozenset[int]:
        return self._entity_of[mention_id]

    def same_entity(self, a: int, b: int) -> bool:
        return self._entity_of[a] is self._entity_of[b]

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
