import random
from collections import deque

import pytest

from coref import (Clustering, Decision, DocumentError, Rule, default_lexicon,
                   run_pipeline, transitive_closure)
from helpers import golden_documents, single_flag_configs


def _link(mid, ante):
    return Decision(mid, ante, Rule.NOMINAL if ante is not None else Rule.NULL)


def test_chain_closure():
    clustering = transitive_closure([_link("b", "a"), _link("c", "b")],
                                    ["a", "b", "c"])
    assert clustering.entities == (frozenset({"a", "b", "c"}),)
    assert clustering.label_of("c") == 1


def test_all_null_decisions_are_singletons():
    decisions = [_link(i, None) for i in range(4)]
    clustering = transitive_closure(decisions, range(4))
    assert len(clustering) == 4
    assert all(len(entity) == 1 for entity in clustering.entities)


def test_example_shape_five_entities():
    # John himself | a book | Fred he him | a computer | anything
    universe = list(range(11))
    decisions = [_link(1, 0), _link(4, 0), _link(5, 4), _link(7, 3),
                 _link(9, 7), _link(8, 4)]
    clustering = transitive_closure(decisions, universe)
    assert len(clustering) == 5
    assert clustering.entities[clustering.label_of(5) - 1] == frozenset({0, 1, 4, 5, 8})
    assert clustering.entities[clustering.label_of(9) - 1] == frozenset({3, 7, 9})
    assert [clustering.label_of(m) for m in (0, 2, 3, 6, 10)] == [1, 2, 3, 4, 5]


def test_labels_follow_first_mention_order():
    clustering = transitive_closure([_link(3, 1)], [0, 1, 2, 3])
    # entity of 1 starts at position 1, after singleton 0
    assert clustering.label_of(0) == 1
    assert clustering.label_of(1) == 2
    assert clustering.label_of(3) == 2
    assert clustering.label_of(2) == 3


def test_unknown_mention_id_is_an_error():
    with pytest.raises(ValueError, match="unknown"):
        transitive_closure([_link(5, 0)], [0, 1])
    with pytest.raises(ValueError, match="unknown"):
        transitive_closure([_link(1, 9)], [0, 1])


def test_label_of_an_unknown_id_raises_key_error():
    """Under either constructor, ``label_of`` reads a known id's label and
    raises KeyError, naming the id, for any other."""
    for clustering, labels in (
            (Clustering([3, 7], [[7], [3]]), [1, 2]),
            (Clustering.from_decisions([_link(3, None), _link(7, 3)], [3, 7]), [1, 1])):
        assert [clustering.label_of(mid) for mid in (3, 7)] == labels
        with pytest.raises(KeyError) as raised:
            clustering.label_of(5)
        assert raised.value.args == (5,)


def _random_decisions(rng, n):
    decisions = []
    for mid in range(1, n):
        if rng.random() < 0.5:
            decisions.append(_link(mid, rng.randrange(mid)))
        else:
            decisions.append(_link(mid, None))
    return decisions


def _is_partition(clustering, universe):
    seen = [mid for entity in clustering.entities for mid in entity]
    return len(seen) == len(set(seen)) and set(seen) == set(universe)


def test_random_decisions_properties():
    rng = random.Random(20230405)
    for _ in range(300):
        n = rng.randint(1, 10)
        universe = list(range(n))
        decisions = _random_decisions(rng, n)
        clustering = transitive_closure(decisions, universe)
        assert _is_partition(clustering, universe)

        shuffled = decisions[:]
        rng.shuffle(shuffled)
        assert transitive_closure(shuffled, universe) == clustering

        implied = [_link(mid, ante)
                   for entity in clustering.entities
                   for mid, ante in zip(sorted(entity)[1:], sorted(entity))]
        assert transitive_closure(implied, universe) == clustering


def _components(universe, decisions):
    """Connected components of the graph whose edges are the non-NULL
    decisions, found by breadth-first search."""
    neighbours = {mid: [] for mid in universe}
    for d in decisions:
        if d.antecedent is not None:
            neighbours[d.mention_id].append(d.antecedent)
            neighbours[d.antecedent].append(d.mention_id)
    seen, components = set(), []
    for start in universe:
        if start in seen:
            continue
        seen.add(start)
        component, queue = set(), deque([start])
        while queue:
            mid = queue.popleft()
            component.add(mid)
            for other in neighbours[mid]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append(frozenset(component))
    return components


def test_closure_equals_connected_components_on_random_decisions():
    # Ids unrelated to universe order; antecedents before or after their
    # mention, self-links, repeated pairs and several decisions per mention.
    rng = random.Random(1310)
    for _ in range(400):
        n = rng.randint(1, 60)
        universe = rng.sample(range(1000), n)
        decisions = []
        for _ in range(rng.randint(0, 2 * n)):
            mid = rng.choice(universe)
            kind = rng.random()
            if kind < 0.2:
                decisions.append(_link(mid, None))
            elif kind < 0.3:
                decisions.append(_link(mid, mid))
            elif kind < 0.4 and decisions:
                decisions.append(rng.choice(decisions))
            else:
                decisions.append(_link(mid, rng.choice(universe)))
        clustering = transitive_closure(decisions, universe)
        components = _components(universe, decisions)
        # components come out in order of their earliest universe position
        assert clustering.entities == tuple(components)


def test_singleton_preservation():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 9)
        decisions = _random_decisions(rng, n)
        clustering = transitive_closure(decisions, range(n))
        named = {d.mention_id for d in decisions if d.antecedent is not None}
        named |= {d.antecedent for d in decisions if d.antecedent is not None}
        for mid in range(n):
            if mid not in named:
                assert clustering.entities[clustering.label_of(mid) - 1] == frozenset({mid})


def _built_four_ways(rng, universe):
    """One clustering of ``universe`` from each constructor, each from its
    own random input, and one from half of ``Clustering``'s entities, which
    leaves the other half's mentions singletons."""
    forward = [_link(mid, rng.choice(universe[:i]) if i and rng.random() < 0.6 else None)
               for i, mid in enumerate(universe)]
    anywhere = [_link(rng.choice(universe), rng.choice(universe + [None]))
                for _ in range(len(universe))]
    groups = {}
    for mid in universe:
        groups.setdefault(rng.randrange(len(universe)), []).append(mid)
    entities = [rng.sample(group, len(group)) for group in groups.values()]
    rng.shuffle(entities)
    return [Clustering(universe, entities),
            Clustering(universe, entities[:len(entities) // 2]),
            transitive_closure(anywhere, universe),
            Clustering.from_decisions(forward, universe)]


def test_every_constructor_keeps_one_label_per_mention():
    rng = random.Random(2026)
    for _ in range(200):
        universe = rng.sample(range(1000), rng.randint(1, 25))
        for clustering in _built_four_ways(rng, universe):
            labels = [clustering.label_of(mid) for mid in universe]
            # numbered on first sight in universe order
            seen = []
            for label in labels:
                if label not in seen:
                    assert label == len(seen) + 1
                    seen.append(label)
            assert len(seen) == len(clustering.entities)
            for mid, label in zip(universe, labels):
                assert [k for k, entity in enumerate(clustering.entities, 1)
                        if mid in entity] == [label]
            for a, label_a in zip(universe, labels):
                for b, label_b in zip(universe, labels):
                    assert (b in clustering.entities[label_a - 1]) == (label_a == label_b)


def test_clustering_rejects_bad_partitions():
    with pytest.raises(ValueError, match="two entities"):
        Clustering([0, 1], [[0, 1], [1]])
    with pytest.raises(ValueError, match="not in universe"):
        Clustering([0], [[0, 5]])


def test_clustering_makes_each_unlisted_mention_a_singleton():
    clustering = Clustering([0, 1, 2, 3], [[2, 0]])
    assert [clustering.label_of(mid) for mid in range(4)] == [1, 2, 1, 3]
    assert clustering.entities == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert len(clustering) == 3


def test_clustering_rejects_a_mention_listed_twice_in_one_entity():
    with pytest.raises(ValueError, match="mention 0 appears in one entity twice"):
        Clustering([0, 1], [[0, 0], [1]])
    with pytest.raises(ValueError, match="mention 1 appears in one entity twice"):
        Clustering([0, 1, 2], [[1, 2, 1]])


def _assert_same_clustering(got, want):
    assert got.universe == want.universe
    assert got.entities == want.entities
    assert [got.label_of(mid) for mid in got.universe] == \
        [want.label_of(mid) for mid in want.universe]
    assert all(got.entities[got.label_of(mid) - 1] == want.entities[want.label_of(mid) - 1]
               for mid in got.universe)


def test_forward_clustering_equals_the_closure_on_random_forward_decisions():
    rng = random.Random(1110)
    for _ in range(300):
        n = rng.randint(0, 30)
        universe = rng.sample(range(1000), n)
        decisions = [_link(mid, rng.choice(universe[:i]) if i and rng.random() < 0.6
                           else None)
                     for i, mid in enumerate(universe)]
        _assert_same_clustering(Clustering.from_decisions(decisions, universe),
                                transitive_closure(decisions, universe))


def test_forward_clustering_equals_the_closure_on_every_golden_corpus():
    """Under the default config and each single ablation flag, every
    antecedent the resolver picks on ``golden/*.jsonl`` is an earlier
    mention, and grouping the decisions forward gives the clustering
    ``transitive_closure`` gives, labels included."""
    lex = default_lexicon()
    configs = single_flag_configs()
    documents = golden_documents()
    decisions = 0
    for cfg in configs:
        for document in documents:
            try:
                result = run_pipeline(document, cfg, lex)
            except DocumentError:
                continue
            universe = [m.mention_id for m in result.mentions]
            closure = transitive_closure(result.decisions, universe)
            _assert_same_clustering(Clustering.from_decisions(result.decisions, universe),
                                    closure)
            _assert_same_clustering(result.clustering, closure)
            decisions += len(result.decisions)
    assert decisions > 10_000


_FORWARD = [_link(0, None), _link(1, 0), _link(2, None), _link(3, 1)]


@pytest.mark.parametrize("decisions, message", [
    ([_link(0, None), _link(1, 3), _link(2, None), _link(3, 1)],
     "antecedent 3 of mention 1 is not an earlier mention"),
    ([_link(0, None), _link(1, 1), _link(2, None), _link(3, 1)],
     "antecedent 1 of mention 1 is not an earlier mention"),
    ([_link(0, None), _link(1, 0), _link(2, None), _link(3, 9)],
     "unknown antecedent 9"),
    ([_link(0, None), _link(2, None), _link(1, 0), _link(3, 1)],
     "decision for mention 2 where mention 1 is due"),
    (_FORWARD[:3], "3 decisions for 4 mentions"),
    (_FORWARD + [_link(4, None)], "5 decisions for 4 mentions"),
], ids=["later-antecedent", "self-antecedent", "unknown-antecedent",
        "out-of-order", "missing-decision", "extra-decision"])
def test_forward_clustering_rejects_decisions_it_cannot_group(decisions, message):
    assert Clustering.from_decisions(_FORWARD, range(4)).entities == (
        frozenset({0, 1, 3}), frozenset({2}))
    with pytest.raises(ValueError, match=message):
        Clustering.from_decisions(decisions, range(4))


def test_forward_clustering_rejects_a_repeated_universe_id():
    with pytest.raises(ValueError, match="duplicate mention ids in universe"):
        Clustering.from_decisions([_link(0, None), _link(0, None)], [0, 0])
