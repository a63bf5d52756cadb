import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_strategy, random_basket, random_pair
from reidbasket.core import (
    Basket,
    OrbifoldPair,
    WeightedBasket,
    anti_volume,
    delta_n,
    gamma,
    plurigenus_sequence,
    r_max,
    sigma,
    sigma_prime,
)
from reidbasket.packing import (
    ClosureResult,
    all_of,
    closure,
    coprime_only,
    dominates,
    gamma_at_least,
    is_prime_packing,
    pack_once,
    single_packings,
    volume_at_most,
)

B = Basket.of


class TestSingleSteps:
    def test_pack_once_examples(self):
        assert pack_once(B((1, 2), (1, 3)), 0, 1) == B((2, 5))
        assert pack_once(B((1, 2), (1, 2)), 0, 1) == B((2, 4))
        src = B((1, 2), (2, 5), (1, 3), (1, 4), (1, 9))
        # canonical positions: (1,2) (1,3) (1,4) (2,5) (1,9)
        assert pack_once(src, 2, 4) == B((1, 2), (2, 5), (1, 3), (2, 13))

    def test_pack_once_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            pack_once(B((1, 2), (1, 3)), 0, 0)
        with pytest.raises(ValueError):
            pack_once(B((1, 2), (1, 3)), 0, 5)

    def test_prime_packing_examples(self):
        assert is_prime_packing(OrbifoldPair(1, 2), OrbifoldPair(1, 3))
        assert not is_prime_packing(OrbifoldPair(1, 2), OrbifoldPair(1, 2))
        assert is_prime_packing(OrbifoldPair(2, 5), OrbifoldPair(1, 3))

    def test_merged_pair_keeps_half_bound(self):
        rng = random.Random(11)
        for _ in range(300):
            basket = random_basket(rng, min_entries=2, coprime=False)
            child = pack_once(basket, 0, 1)
            assert all(2 * p.b <= p.r for p in child)


class TestMonotonicity:
    def test_single_packing_monotonicity(self):
        rng = random.Random(13)
        for _ in range(400):
            basket = random_basket(rng, min_entries=2, max_entries=6, coprime=False)
            i, j = rng.sample(range(len(basket)), 2)
            child = pack_once(basket, i, j)
            assert sigma(child) == sigma(basket)
            assert sigma_prime(child) <= sigma_prime(basket)
            assert gamma(child) <= gamma(basket)
            for n in range(2, 31):
                assert delta_n(child, n) <= delta_n(basket, n)
            p1 = rng.randint(0, 3)
            assert anti_volume(WeightedBasket(child, p1)) >= anti_volume(WeightedBasket(basket, p1))
            before = plurigenus_sequence(WeightedBasket(basket, p1), 12)
            after = plurigenus_sequence(WeightedBasket(child, p1), 12)
            assert before[1] == after[1]
            for m in range(2, 13):
                assert after[m] >= before[m]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_volume_plus_sigma_prime_is_a_packing_invariant(self, data):
        pairs = data.draw(st.lists(pair_strategy(), min_size=2, max_size=6))
        basket = Basket(pairs)
        i, j = sorted(data.draw(
            st.permutations(range(len(basket)))
        )[:2])
        child = pack_once(basket, i, j)
        for p1 in (0, 2):
            assert (
                anti_volume(WeightedBasket(basket, p1)) + sigma_prime(basket)
                == anti_volume(WeightedBasket(child, p1)) + sigma_prime(child)
            )


class TestClosure:
    def test_two_entry_closure(self):
        result = closure(B((1, 2), (1, 3)), prune=gamma_at_least(0))
        assert set(result.baskets) == {B((1, 2), (1, 3)), B((2, 5))}
        assert not result.truncated

    def test_closure_of_seven_halves_chain(self):
        # packings of {7x(1,2),(1,3)} that stay coprime with r_max >= 11
        root = B(*([(1, 2)] * 7 + [(1, 3)]))
        result = closure(
            root,
            prune=gamma_at_least(0),
            emit=all_of(coprime_only, lambda basket: r_max(basket) >= 11),
        )
        assert set(result.baskets) == {
            B((1, 2), (1, 2), (1, 2), (5, 11)),
            B((1, 2), (1, 2), (6, 13)),
            B((1, 2), (7, 15)),
            B((8, 17)),
        }
        volumes = {anti_volume(WeightedBasket(b, 1)) for b in result.baskets}
        assert volumes == {Fraction(5, 22), Fraction(3, 13), Fraction(7, 30), Fraction(4, 17)}

    def test_closure_reproduces_half_point_table_chain(self):
        # the ten coprime packings of {11x(1,2),(1,3)} with gamma >= 0
        root = B(*([(1, 2)] * 11 + [(1, 3)]))
        result = closure(root, prune=gamma_at_least(0), emit=coprime_only)
        expected = {
            B(*([(1, 2)] * (11 - k) + [(1 + k, 3 + 2 * k)])) for k in range(10)
        }
        assert set(result.baskets) == expected

    def test_truncation_is_explicit(self):
        root = B(*([(1, 2)] * 10 + [(1, 3)] * 4))
        result = closure(root, max_visited=5)
        assert result.truncated
        with pytest.raises(Exception):
            result.require_complete()

    def test_closure_order_independent(self):
        # a shuffled depth-first walk must land on the same canonical set
        def dfs_closure(root, prune, rng):
            seen = {root} if prune(root) else set()
            stack = list(seen)
            while stack:
                current = stack.pop()
                children = single_packings(current)
                rng.shuffle(children)
                for child in children:
                    if child not in seen and prune(child):
                        seen.add(child)
                        stack.append(child)
            return tuple(sorted(seen))

        rng = random.Random(3)
        for _ in range(30):
            basket = random_basket(rng, max_entries=5, rmax=9, min_entries=2)
            bfs = closure(basket, prune=gamma_at_least(0)).baskets
            assert bfs == dfs_closure(basket, gamma_at_least(0), rng)
            assert bfs == closure(basket, prune=gamma_at_least(0)).baskets

    def test_volume_prune_is_safe(self):
        # pruned closure = unpruned closure filtered, for a monotone clause
        rng = random.Random(4)
        for _ in range(25):
            basket = random_basket(rng, max_entries=5, rmax=8, min_entries=2)
            p1 = 1
            bound = anti_volume(WeightedBasket(basket, p1)) + Fraction(1, 5)
            free = {
                b for b in closure(basket).baskets
                if anti_volume(WeightedBasket(b, p1)) <= bound
            }
            pruned = set(closure(basket, prune=volume_at_most(bound, p1)).baskets)
            assert free == pruned

    def test_one_root_and_a_budget_of_at_least_one(self):
        # one root: a root that fails the prune gives an empty closure, and
        # a second root is no longer accepted
        root = B((1, 2), (1, 3))
        empty = closure(root, prune=lambda basket: False)
        assert empty == ClosureResult(baskets=(), visited=0, truncated=False)
        assert closure(root).baskets == (root, B((2, 5)))
        with pytest.raises(TypeError):
            closure(root, B((1, 2)))
        for budget in (0, -1):
            with pytest.raises(ValueError, match=f"max_visited must be >= 1, got {budget}"):
                closure(root, max_visited=budget)


class TestDominates:
    def test_examples(self):
        assert dominates(B((1, 2), (1, 3)), B((2, 5)))
        assert dominates(B((2, 5)), B((2, 5)))
        assert not dominates(B((2, 5)), B((1, 2), (1, 3)))

    def test_fast_reject_on_sigma(self):
        assert not dominates(B((1, 2), (1, 3)), B((1, 5)))

    def test_matches_closure_membership(self):
        rng = random.Random(9)
        for _ in range(20):
            basket = random_basket(rng, max_entries=5, rmax=7, min_entries=2)
            reachable = set(closure(basket).baskets)
            for other in list(reachable)[:10]:
                assert dominates(basket, other)
            stranger = random_basket(rng, max_entries=4, rmax=7)
            assert dominates(basket, stranger) == (stranger in reachable)


def test_single_packings_covers_all_position_pairs():
    # up to 12 entries drawn from fewer distinct pairs, so some pair repeats
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 12)
        pool = [random_pair(rng, coprime=False) for _ in range(rng.randint(1, n - 1))]
        entries = pool + [rng.choice(pool) for _ in range(n - len(pool))]
        rng.shuffle(entries)
        basket = Basket(entries)
        # the keyed sort in Basket agrees with OrbifoldPair.__lt__
        assert basket.entries == tuple(sorted(entries))
        via_positions = {
            pack_once(basket, i, j)
            for i in range(n)
            for j in range(i + 1, n)
        }
        # the same children, canonically ordered, each once
        assert single_packings(basket) == sorted(via_positions, key=Basket.sort_key)
