import math
import random
from fractions import Fraction

import pytest

from conftest import random_basket, src_env
from reidbasket import canonical, core
from reidbasket.canonical import (
    CanonicalSequence,
    Infeasible,
    b0_from_plurigenera,
    b5_from_plurigenera,
    canonical_sequence,
    epsilon5_from_plurigenera,
    epsilon6_residual,
    epsilon7_from_plurigenera,
    epsilon8_from_plurigenera,
    epsilon_n,
    farey_neighbors,
    in_level_set,
    unpack,
)
from reidbasket.core import Basket, WeightedBasket, delta_n, plurigenus_sequence, sigma
from reidbasket.packing import dominates

B = Basket.of


class TestFareyNeighbors:
    def test_examples(self):
        assert farey_neighbors(Fraction(2, 5), 0) == (Fraction(1, 2), Fraction(1, 3))
        assert farey_neighbors(Fraction(3, 7), 5) == (Fraction(1, 2), Fraction(2, 5))
        assert in_level_set(Fraction(1, 4), 0)

    def test_level_set_object(self):
        assert in_level_set(Fraction(2, 5), 5) and not in_level_set(Fraction(2, 5), 0)
        assert farey_neighbors(Fraction(3, 7), 5) == (Fraction(1, 2), Fraction(2, 5))
        with pytest.raises(ValueError):
            in_level_set(Fraction(1, 3), 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            farey_neighbors(Fraction(3, 5), 0)
        with pytest.raises(ValueError):
            farey_neighbors(Fraction(2, 7), 3)   # levels 1-4 undefined
        with pytest.raises(ValueError):
            farey_neighbors(Fraction(1, 4), 0)   # member: caller short-circuits

    def test_unimodular_and_adjacent(self):
        # brute-force the level sets to check adjacency of the result
        for level in (0, 5, 7, 11, 16):
            members = {Fraction(1, k) for k in range(2, 70)}
            for den in range(5, max(level, 5) + 1):
                if den <= level:
                    members |= {
                        Fraction(b, den) for b in range(1, (den + 1) // 2)
                        if Fraction(b, den).denominator == den
                    }
            for frac in [Fraction(a, b) for b in range(7, 30) for a in range(2, b // 2 + 1)]:
                if frac in members or frac.denominator <= max(level, 4):
                    continue
                upper, lower = farey_neighbors(frac, level)
                assert lower < frac < upper
                assert upper in members and lower in members
                between = [x for x in members if lower < x < upper]
                assert between == []
                assert upper.numerator * lower.denominator - upper.denominator * lower.numerator == 1


def mediant_neighbors(frac: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """The definition of the neighbours (upper, lower) of ``frac`` in S(level):
    refine 1/(k+1) < frac < 1/k one Stern-Brocot mediant at a time while the
    mediant's denominator stays <= level."""
    k = frac.denominator // frac.numerator
    upper, lower = Fraction(1, k), Fraction(1, k + 1)
    while level and k < level:
        med = Fraction(upper.numerator + lower.numerator, upper.denominator + lower.denominator)
        if med.denominator > level:
            break
        if med < frac:
            lower = med
        else:
            upper = med
    return upper, lower


def mediant_unpacking(b: int, r: int, level: int) -> tuple[tuple[int, int, int], ...]:
    """(b, r) at ``level`` as (b, r, multiplicity) triples, from the mediant loop."""
    frac = Fraction(b, r)
    if in_level_set(frac, level):
        return ((b, r, 1),)
    upper, lower = mediant_neighbors(frac, level)
    return (
        (lower.numerator, lower.denominator, r * upper.numerator - b * upper.denominator),
        (upper.numerator, upper.denominator, b * lower.denominator - r * lower.numerator),
    )


class TestDescentOracle:
    """The integer descent of ``_unpack_entry`` and ``farey_neighbors``
    against the mediant loop that defines the neighbours."""

    @staticmethod
    def check(b, r, level):
        assert canonical._unpack_entry(b, r, level) == mediant_unpacking(b, r, level), (b, r, level)
        frac = Fraction(b, r)
        if not in_level_set(frac, level):
            assert farey_neighbors(frac, level) == mediant_neighbors(frac, level), (b, r, level)

    def test_every_pair_up_to_r_60(self):
        # non-coprime pairs included, at level 0 and every level 5..r+1
        cases = 0
        for r in range(2, 61):
            for b in range(1, r // 2 + 1):
                for level in (0, *range(5, r + 2)):
                    self.check(b, r, level)
                    cases += 1
        assert cases == 34656

    def test_seeded_pairs_up_to_r_10000(self):
        # near-Farey-point pairs such as (n, 2n+1) are where the runs are long
        rng = random.Random(47)
        cases = [(n, 2 * n + 1, level) for n in (2500, 4999) for level in (0, 5, 6, 1001, 2 * n)]
        for _ in range(20000):
            r = rng.randint(5, 10 ** 4)
            cases.append((rng.randint(1, r // 2), r, rng.choice((0, rng.randint(5, r + 1)))))
        for case in cases:
            self.check(*case)


class TestUnpack:
    def test_examples(self):
        assert unpack(B((2, 5)), 0) == B((1, 2), (1, 3))
        assert unpack(B((2, 5)), 5) == B((2, 5))
        assert unpack(B((3, 7), (1, 5)), 0) == B((1, 2), (1, 2), (1, 3), (1, 5))

    def test_rejects_levels_1_to_4(self):
        with pytest.raises(ValueError):
            unpack(B((2, 5)), 3)

    def test_idempotent_and_composing(self):
        rng = random.Random(31)
        for _ in range(120):
            basket = random_basket(rng, max_entries=5, rmax=24)
            for level in (0, 5, 6, 9, 13):
                approx = unpack(basket, level)
                assert unpack(approx, level) == approx
            # B^(n-1)(B) = B^(n-1)(B^(n)(B))
            for level in (5, 6, 9, 13):
                prev = 0 if level == 5 else level - 1
                assert unpack(basket, prev) == unpack(unpack(basket, level), prev)

    def test_preserves_sigma_and_weight(self):
        rng = random.Random(32)
        for _ in range(150):
            basket = random_basket(rng, max_entries=6, rmax=24)
            for level in (0, 5, 8):
                approx = unpack(basket, level)
                assert sigma(approx) == sigma(basket)
                assert sum(p.r for p in approx) == sum(p.r for p in basket)

    def test_delta_consistency_level0(self):
        # Delta^3 = n0[1,2] and Delta^4 = 2 n0[1,2] + n0[1,3] on the unpacking
        rng = random.Random(33)
        for _ in range(150):
            basket = random_basket(rng, max_entries=6, rmax=24)
            level0 = unpack(basket, 0)
            n12 = sum(1 for p in level0 if p.r == 2)
            n13 = sum(1 for p in level0 if p.r == 3)
            assert delta_n(basket, 3) == n12
            assert delta_n(basket, 4) == 2 * n12 + n13

    def test_level0_entries_are_unit_fractions(self):
        rng = random.Random(34)
        for _ in range(80):
            level0 = unpack(random_basket(rng, max_entries=6), 0)
            assert all(Fraction(p.b, p.r).numerator == 1 for p in level0)

    def test_plurigenus_preserved_up_to_level(self):
        rng = random.Random(35)
        for _ in range(60):
            basket = random_basket(rng, max_entries=5, rmax=18)
            p1 = rng.randint(0, 2)
            base = plurigenus_sequence(WeightedBasket(basket, p1), 14)
            for level in (5, 8, 11, 14):
                approx = plurigenus_sequence(WeightedBasket(unpack(basket, level), p1), 14)
                for j in range(1, level + 1):
                    if j <= 14:
                        assert approx[j] == base[j]
            level0 = plurigenus_sequence(WeightedBasket(unpack(basket, 0), p1), 4)
            assert level0[1:5] == base[1:5]


class TestEpsilon:
    def test_examples(self):
        assert epsilon_n(B((2, 5)), 5) == 1
        assert epsilon_n(B((1, 3)), 5) == 0

    def test_epsilon6_vanishes(self):
        rng = random.Random(41)
        for _ in range(100):
            assert epsilon_n(random_basket(rng, max_entries=6), 6) == 0

    def test_nonnegative_integers(self):
        rng = random.Random(42)
        for _ in range(100):
            basket = random_basket(rng, max_entries=5, rmax=20)
            for n in (5, 7, 8, 12):
                assert epsilon_n(basket, n) >= 0

    def test_sequence_structure(self):
        seq = canonical_sequence(B((2, 5), (3, 7)))
        assert isinstance(seq, CanonicalSequence)
        assert seq.stabilization_level == 7
        levels = dict((n, approx) for n, approx, _ in seq.levels)
        assert levels[0] == B((1, 2), (1, 2), (1, 2), (1, 3), (1, 3))
        assert levels[5] == B((1, 2), (2, 5), (2, 5))
        assert levels[7] == B((2, 5), (3, 7))
        assert dominates(levels[0], levels[5])
        assert dominates(levels[5], levels[7])

    def test_chain_via_dominates_small(self):
        rng = random.Random(43)
        for _ in range(25):
            basket = random_basket(rng, max_entries=3, rmax=11, min_entries=1)
            seq = canonical_sequence(basket)
            for (_, upper, _), (_, lower, _) in zip(seq.levels, seq.levels[1:]):
                assert dominates(upper, lower)


def reference_sequence(basket: Basket) -> CanonicalSequence:
    """Levels 0 and 5..max(s, 5) by ``unpack`` and ``epsilon_n``, each level on
    its own, with s the first level of 0, 5, 6, ... that equals the basket."""
    s = 0
    if unpack(basket, 0) != basket:
        s = 5
        while unpack(basket, s) != basket:
            s += 1
    levels = [(0, unpack(basket, 0), 0)]
    levels += [(n, unpack(basket, n), epsilon_n(basket, n)) for n in range(5, max(s, 5) + 1)]
    return CanonicalSequence(levels=tuple(levels), stabilization_level=s)


class TestSequenceOracle:
    """``canonical_sequence`` walks the levels once; the reference unpacks
    every level on its own, the way the construction defines them."""

    def test_equals_the_level_by_level_definition(self, bench_universe):
        # the bench's whole terminal gamma >= 0 universe, from the empty
        # basket on, seeded baskets, a level-0 basket, and seeded baskets
        # with r <= 40, non-coprime pairs such as (2,6) and (4,10) and
        # repeated pairs
        rng = random.Random(44)
        baskets = [random_basket(rng, max_entries=8, rmax=30) for _ in range(600)]
        baskets += bench_universe + [B((1, 2), (1, 2), (1, 3), (1, 7))]
        baskets += [B((2, 6), (4, 10)), B((2, 6), (2, 6), (4, 10), (4, 10), (3, 7))]
        for _ in range(2000):
            entries = list(random_basket(rng, max_entries=6, rmax=40, coprime=False))
            if entries:
                entries += [rng.choice(entries)] * rng.randint(0, 3)
            baskets.append(Basket(entries))
        assert len(baskets) >= 10900
        assert Basket() in baskets and B((1, 2), (1, 2), (1, 3), (1, 7)) in baskets
        assert sum(not basket.all_terminal for basket in baskets) > 1000
        assert sum(len(set(basket)) < len(basket) for basket in baskets) > 1000
        assert max(p.r for basket in baskets for p in basket) == 40
        stabilizations, non_unit = set(), set()
        for basket in baskets:
            seq = canonical_sequence(basket)
            assert seq == reference_sequence(basket), str(basket)
            stabilizations.add(seq.stabilization_level)
            non_unit.add(min(sum(math.gcd(p.b, p.r) < p.b for p in basket), 2))
        # level 0 already the basket, level 5, and levels beyond 5 all occur
        assert {0, 5} < stabilizations and max(stabilizations) > 12
        # the sequence reads no, one and several entries that are no unit fraction
        assert non_unit == {0, 1, 2}

    def test_equal_levels_share_one_basket(self, bench_universe):
        # a level equal to the one before it is that same object, and the
        # last level is the input basket itself
        rng = random.Random(46)
        baskets = bench_universe[::5]
        baskets += [random_basket(rng, max_entries=6, rmax=40, coprime=False) for _ in range(300)]
        shared = 0
        for basket in baskets:
            levels = [level for _, level, _ in canonical_sequence(basket).levels]
            assert levels[-1] is basket
            for before, level in zip(levels, levels[1:]):
                assert (level == before) is (level is before), str(basket)
                shared += level is before
        assert shared > len(baskets)
        seq = canonical_sequence(B((2, 5), (3, 7)))
        assert seq.levels[2][1] is seq.levels[1][1]

    def test_level0_basket_lists_levels_0_and_5(self):
        for basket in (Basket(), B((1, 2), (1, 3))):
            seq = canonical_sequence(basket)
            assert seq.stabilization_level == 0
            assert seq.levels == ((0, basket, 0), (5, basket, 0))


def test_invariant_checks_survive_optimize_flag():
    # epsilon_n's non-negativity check must fire even when asserts are stripped
    import subprocess
    import sys

    code = (
        "from reidbasket import canonical\n"
        "from reidbasket.core import Basket\n"
        "canonical._delta = lambda triples, n: -len(triples)\n"
        "canonical.epsilon_n(Basket.of((2, 5)), 5)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 1
    assert "AssertionError: invariant violated: epsilon_5 = -1" in proc.stderr


def test_sequence_checks_epsilon_under_optimize_flag():
    # the walk shares epsilon_n's explicit check, so -O keeps it too; (2,5)
    # is the basket's one entry that is no unit fraction
    import subprocess
    import sys

    code = (
        "from reidbasket import canonical\n"
        "from reidbasket.core import Basket\n"
        "canonical._delta = lambda triples, n: -len(triples)\n"
        "canonical.canonical_sequence(Basket.of((2, 5)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 1
    assert "AssertionError: invariant violated: epsilon_5 = -1" in proc.stderr


@pytest.mark.parametrize("bracket, message", [
    # 1/2 and 1/4 are not unimodular
    ((1, 2, 1, 4), "invariant violated: Farey neighbors 1/2, 1/4 of 3/7 at level 5 are not unimodular"),
    # 1/3 and 1/4 are unimodular but lie below 3/7
    ((1, 3, 1, 4), "invariant violated: unpacking (3,7) at level 5 needs positive multiplicities, got -2 and 5"),
], ids=["unimodular", "positive"])
def test_descent_checks_survive_optimize_flag(bracket, message):
    # a descent that returns a wrong bracket is caught by explicit raises
    import subprocess
    import sys

    code = (
        "from reidbasket import canonical, core\n"
        "from reidbasket.core import Basket\n"
        f"core._bracket = lambda q, p, level: {bracket}\n"
        "canonical.unpack(Basket.of((3, 7)), 5)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 1
    assert f"AssertionError: {message}" in proc.stderr


class TestFromPlurigenera:
    def test_b0_example(self):
        assert b0_from_plurigenera(1, 2, 2, 3) == B(*([(1, 2)] * 5 + [(1, 3), (1, 4)]))

    def test_b0_with_p1_zero_specialization(self):
        # with P_{-1} = 0 the first multiplicity reduces to 5 + 4 P_{-2} - P_{-3}
        basket = b0_from_plurigenera(0, 1, 2, 5, {5: 1})
        assert not isinstance(basket, Infeasible)
        n12 = sum(1 for p in basket if p.r == 2)
        assert n12 == 5 + 4 * 1 - 2

    def test_b0_infeasible(self):
        result = b0_from_plurigenera(2, 0, 0, 0)
        assert isinstance(result, Infeasible)
        assert result.coefficient == "n0[1,2]"
        assert not result

    def test_round_trip_through_plurigenera(self):
        # plurigenera of (B, p1) regenerate unpack(B, 0), any p1
        rng = random.Random(51)
        for _ in range(150):
            basket = random_basket(rng, max_entries=5, rmax=20)
            p1 = rng.randint(0, 3)
            seq = plurigenus_sequence(WeightedBasket(basket, p1), 5)
            if any(v.denominator != 1 for v in seq[1:]):
                continue
            level0 = unpack(basket, 0)
            tail = {}
            for p in level0:
                if p.r >= 5:
                    tail[p.r] = tail.get(p.r, 0) + 1
            rebuilt = b0_from_plurigenera(
                int(seq[1]), int(seq[2]), int(seq[3]), int(seq[4]), tail
            )
            assert rebuilt == level0

    def test_b5_round_trip(self):
        rng = random.Random(52)
        for _ in range(150):
            basket = random_basket(rng, max_entries=5, rmax=20)
            p1 = rng.randint(0, 3)
            seq = plurigenus_sequence(WeightedBasket(basket, p1), 8)
            if any(v.denominator != 1 for v in seq[1:]):
                continue
            level0 = unpack(basket, 0)
            tail = {}
            for p in level0:
                if p.r >= 5:
                    tail[p.r] = tail.get(p.r, 0) + 1
            ps = [int(v) for v in seq]
            rebuilt = b5_from_plurigenera(ps[1], ps[2], ps[3], ps[4], ps[5], tail)
            assert rebuilt == unpack(basket, 5)
            # epsilon_5 formula against the Delta route
            assert epsilon5_from_plurigenera(ps[2], ps[4], ps[5], sum(tail.values())) \
                == epsilon_n(basket, 5)
            # epsilon_6 identity and the higher packing counts
            eps6, eps = epsilon6_residual(ps[1], ps[2], ps[3], ps[4], ps[5], ps[6], tail)
            assert eps6 == 0 and eps >= 0
            assert epsilon7_from_plurigenera(ps[1], ps[2], ps[5], ps[6], ps[7], tail) \
                == epsilon_n(basket, 7)
            assert epsilon8_from_plurigenera(
                ps[1], ps[2], ps[3], ps[4], ps[5], ps[7], ps[8], tail
            ) == epsilon_n(basket, 8)

    def test_b5_singleton_round_trip(self):
        seq = plurigenus_sequence(WeightedBasket(B((2, 5)), 1), 5)
        ps = [int(v) for v in seq]
        assert b5_from_plurigenera(ps[1], ps[2], ps[3], ps[4], ps[5]) == B((2, 5))


@pytest.mark.parametrize("call, message", [
    (lambda: in_level_set(Fraction(3, 5), 5), "fraction 3/5 outside (0, 1/2]"),
    (lambda: in_level_set(Fraction(0), 0), "fraction 0 outside (0, 1/2]"),
    (lambda: epsilon_n(B((2, 5), (3, 7)), 4), "epsilon_n needs n >= 5, got 4"),
    # feasible P_{-1..4}, so the tail itself is read
    (lambda: b0_from_plurigenera(0, 1, 2, 5, {4: 1}), "tail indices start at r = 5, got 4"),
    (lambda: b0_from_plurigenera(0, 1, 2, 5, {5: -1}), "tail multiplicity for r = 5 is negative"),
], ids=["in_level_set-above", "in_level_set-zero", "epsilon_n", "b0-tail-index", "b0-tail-count"])
def test_argument_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_pair_caches_are_bounded_and_hold_the_session_working_set():
    # every coprime pair with r <= 24, at n <= 24 and on its own for the
    # per-pair chain table; the base rows of P_{-1} <= 8
    pairs = [(b, r) for r in range(2, 25) for b in range(1, r // 2 + 1) if math.gcd(b, r) == 1]
    working_sets = {
        core._l_entry: [(b, r, n) for b, r in pairs for n in range(1, 25)],
        canonical._chain: pairs,
        core._base_row: [(p1,) for p1 in range(9)],
    }
    for helper, keys in working_sets.items():
        assert isinstance(helper.cache_info().maxsize, int)
        helper.cache_clear()
        for _ in range(2):
            for key in keys:
                helper(*key)
        info = helper.cache_info()
        # the second pass is all hits: nothing of the working set was evicted
        assert (info.misses, info.hits, info.currsize) == (len(keys),) * 3, helper


def test_b5_witnesses_against_the_explicit_coefficients():
    # every witness name and value of b5_from_plurigenera over a grid of
    # P_{-1..5} and tails, against the level-5 coefficients written out
    tails = ({}, {5: 1}, {6: 2}, {5: 1, 7: 1, 11: 2})
    seen = set()
    for tail in tails:
        s5 = sum(tail.values())
        for p1 in range(3):
            for p2 in range(4):
                for p3 in range(5):
                    for p4 in range(6):
                        for p5 in range(8):
                            n0_14 = 1 + 3 * p1 - p2 - 2 * p3 + p4 - s5
                            named = (
                                ("n5[1,2]", 3 - 6 * p1 + 3 * p2 - p3 + 2 * p4 - p5 + s5),
                                ("n5[2,5]", 2 + p2 - 2 * p4 + p5 - s5),
                                ("n5[1,3]", 2 - 2 * p1 - 3 * p2 + 3 * p3 + p4 - p5 + s5),
                                ("n5[1,4]", n0_14),
                            )
                            got = b5_from_plurigenera(p1, p2, p3, p4, p5, tail)
                            witness = next((Infeasible(n, v) for n, v in named if v < 0), None)
                            if witness is not None:
                                assert isinstance(got, Infeasible) and tuple(got) == tuple(witness)
                                seen.add(witness.coefficient)
                                continue
                            assert isinstance(got, Basket)
                            assert [got.entries.count(core.OrbifoldPair(b, r)) for b, r in
                                    ((1, 2), (2, 5), (1, 3), (1, 4))] == [v for _, v in named]
                            assert len(got) == sum(v for _, v in named) + s5
    assert seen == {"n5[1,2]", "n5[2,5]", "n5[1,3]", "n5[1,4]"}
