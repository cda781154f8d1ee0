import itertools
import math
import random
from fractions import Fraction

import pytest

from coref import (Clustering, PairCounts, b_cubed_doc, b_cubed_macro,
                   pairwise_counts, pairwise_micro)
from coref.score import score_from_counts
from helpers import random_partition


GOLD4 = Clustering("abcd", [["a", "b", "c"], ["d"]])
SYS4 = Clustering("abcd", [["a", "b"], ["c", "d"]])


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_force_pairs(sys, gold):
    """Count every unordered mention pair with a double loop."""
    universe = sorted(sys.universe)
    tp = fp = fn = 0
    for a, b in itertools.combinations(universe, 2):
        in_sys = sys.label_of(a) == sys.label_of(b)
        in_gold = gold.label_of(a) == gold.label_of(b)
        tp += in_sys and in_gold
        fp += in_sys and not in_gold
        fn += in_gold and not in_sys
    return PairCounts(tp=tp, fp=fp, fn=fn)


def brute_force_b_cubed(sys, gold):
    """Exact rational evaluation of the per-mention overlap sums."""
    n = len(sys.universe)
    s = {i: sys.entities[sys.label_of(i) - 1] for i in sys.universe}
    g = {i: gold.entities[gold.label_of(i) - 1] for i in sys.universe}
    p = sum(Fraction(len(s[i] & g[i]), len(s[i])) for i in sys.universe) / n
    r = sum(Fraction(len(s[i] & g[i]), len(g[i])) for i in sys.universe) / n
    return p, r


def per_mention_b_cubed(sys, gold):
    """B-cubed as a scan of each mention's |S∩G|, summed with fsum: the same
    floats as ``b_cubed_doc``, not only close ones."""
    n = len(sys.universe)
    s = {i: sys.entities[sys.label_of(i) - 1] for i in sys.universe}
    g = {i: gold.entities[gold.label_of(i) - 1] for i in sys.universe}
    p_terms = [len(s[i] & g[i]) / len(s[i]) for i in sys.universe]
    r_terms = [len(s[i] & g[i]) / len(g[i]) for i in sys.universe]
    return math.fsum(p_terms) / n, math.fsum(r_terms) / n


def intersection_pairs(sys, gold):
    """Pair counts from |S∩G| over every pair of entities."""
    tp = sum(math.comb(len(s & g), 2) for s in sys.entities for g in gold.entities)
    sys_pairs = sum(math.comb(len(s), 2) for s in sys.entities)
    gold_pairs = sum(math.comb(len(g), 2) for g in gold.entities)
    return PairCounts(tp=tp, fp=sys_pairs - tp, fn=gold_pairs - tp)


# ---------------------------------------------------------------------------
# Pairwise
# ---------------------------------------------------------------------------

def test_identical_clusterings_have_no_errors():
    counts = pairwise_counts(GOLD4, GOLD4)
    assert counts == PairCounts(tp=3, fp=0, fn=0)


def test_worked_four_mention_example():
    counts = pairwise_counts(SYS4, GOLD4)
    assert counts == PairCounts(tp=1, fp=1, fn=2)


def test_all_singletons_system():
    singletons = Clustering("abcd", [])
    counts = pairwise_counts(singletons, GOLD4)
    assert counts == PairCounts(tp=0, fp=0, fn=3)


def test_universe_mismatch_lists_ids():
    other = Clustering("abce", [])
    with pytest.raises(ValueError) as err:
        pairwise_counts(other, GOLD4)
    assert "'d'" in str(err.value) and "'e'" in str(err.value)


def test_micro_worked_example():
    score = pairwise_micro([PairCounts(1, 1, 2)])
    assert score.precision == pytest.approx(0.5)
    assert score.recall == pytest.approx(1 / 3)
    assert score.f1 == pytest.approx(0.4)


def test_micro_pools_before_dividing():
    pooled = pairwise_micro([PairCounts(1, 0, 0), PairCounts(0, 1, 2)])
    direct = pairwise_micro([PairCounts(1, 1, 2)])
    assert pooled == direct


def test_micro_zero_counts_are_vacuously_perfect():
    score = pairwise_micro([PairCounts(0, 0, 0), PairCounts(0, 0, 0)])
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_zero_denominator_with_other_side_pairs():
    # system proposes nothing but gold has pairs: P=1 rule does not apply
    score = score_from_counts(PairCounts(0, 0, 3))
    assert score.precision == 0.0
    assert score.recall == 0.0
    assert score.f1 == 0.0
    # system proposes pairs, gold empty
    score = score_from_counts(PairCounts(0, 2, 0))
    assert score.precision == 0.0
    assert score.recall == 0.0


def test_pairwise_matches_brute_force():
    rng = random.Random(1234)
    for _ in range(400):
        universe = list(range(rng.randint(1, 8)))
        sys = random_partition(rng, universe)
        gold = random_partition(rng, universe)
        assert pairwise_counts(sys, gold) == brute_force_pairs(sys, gold)


# ---------------------------------------------------------------------------
# B-cubed
# ---------------------------------------------------------------------------

def test_b_cubed_identical():
    assert b_cubed_doc(GOLD4, GOLD4) == (1.0, 1.0)


def test_b_cubed_worked_example():
    p, r = b_cubed_doc(SYS4, GOLD4)
    assert p == pytest.approx(0.75)
    assert r == pytest.approx(2 / 3)


def test_b_cubed_singletons_vs_one_entity():
    n = 5
    universe = list(range(n))
    singletons = Clustering(universe, [])
    one = Clustering(universe, [universe])
    p, r = b_cubed_doc(singletons, one)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(1 / n)


def test_b_cubed_empty_universe_is_an_error():
    empty = Clustering([], [])
    with pytest.raises(ValueError):
        b_cubed_doc(empty, empty)


def test_b_cubed_matches_exact_formula():
    rng = random.Random(777)
    for _ in range(400):
        universe = list(range(rng.randint(1, 8)))
        sys = random_partition(rng, universe)
        gold = random_partition(rng, universe)
        p, r = b_cubed_doc(sys, gold)
        exact_p, exact_r = brute_force_b_cubed(sys, gold)
        assert abs(p - float(exact_p)) < 1e-12
        assert abs(r - float(exact_r)) < 1e-12
        assert (p, r) == per_mention_b_cubed(sys, gold)


@pytest.mark.parametrize("big_side", ["gold", "system", "both"])
def test_scorers_match_oracles_with_an_entity_of_2000_mentions(big_side):
    rng = random.Random(2000)
    universe = list(range(2600))
    rng.shuffle(universe)
    one_big = Clustering(universe, [rng.sample(universe, 2000)])
    sys = one_big if big_side != "gold" else random_partition(rng, universe)
    gold = one_big if big_side != "system" else random_partition(rng, universe)
    assert pairwise_counts(sys, gold) == intersection_pairs(sys, gold)
    p, r = b_cubed_doc(sys, gold)
    assert (p, r) == per_mention_b_cubed(sys, gold)
    exact_p, exact_r = brute_force_b_cubed(sys, gold)
    assert abs(p - float(exact_p)) < 1e-12
    assert abs(r - float(exact_r)) < 1e-12


def test_b_cubed_macro_single_document():
    score = b_cubed_macro([(0.75, 2 / 3)])
    assert score.f1 == pytest.approx(2 * 0.75 * (2 / 3) / (0.75 + 2 / 3))
    assert score.f1 == pytest.approx(0.7059, abs=1e-4)


def test_b_cubed_macro_perfect_documents():
    score = b_cubed_macro([(1.0, 1.0), (1.0, 1.0)])
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_b_cubed_macro_averages_p_and_r_before_f():
    score = b_cubed_macro([(1.0, 0.5), (0.5, 1.0)])
    assert score.precision == pytest.approx(0.75)
    assert score.recall == pytest.approx(0.75)
    assert score.f1 == pytest.approx(0.75)


def test_b_cubed_macro_adds_left_to_right_on_every_python():
    """Ten 0.1s add up to 0.9999999999999999 left to right; the compensated
    sum() of Python 3.12 and later gives 1.0, which would change the
    report's last digits by interpreter."""
    score = b_cubed_macro([(0.1, 0.3)] * 10)
    assert (score.precision, score.recall) == (0.9999999999999999 / 10,
                                               2.9999999999999996 / 10)


def test_b_cubed_macro_empty_is_an_error():
    with pytest.raises(ValueError):
        b_cubed_macro([])


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_scores_bounded_and_f_below_max():
    rng = random.Random(4321)
    for _ in range(200):
        universe = list(range(rng.randint(1, 8)))
        sys = random_partition(rng, universe)
        gold = random_partition(rng, universe)
        score = score_from_counts(pairwise_counts(sys, gold))
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0
        assert score.f1 <= max(score.precision, score.recall) + 1e-12
        p, r = b_cubed_doc(sys, gold)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0


def test_permutation_invariance():
    rng = random.Random(99)
    for _ in range(100):
        universe = list(range(rng.randint(2, 8)))
        sys = random_partition(rng, universe)
        gold = random_partition(rng, universe)
        relabeled_sys = Clustering(list(reversed(universe)),
                                   [sorted(e) for e in reversed(sys.entities)])
        assert pairwise_counts(relabeled_sys, gold) == pairwise_counts(sys, gold)
        assert b_cubed_doc(relabeled_sys, gold) == b_cubed_doc(sys, gold)
