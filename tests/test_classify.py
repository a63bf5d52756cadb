import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_coprime_baskets
import reidbasket.classify as classify_module
from reidbasket.canonical import (
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
from reidbasket.classify import (
    _FILTER_FIELDS,
    S,
    TOP,
    ClassificationConstraints,
    _chain_state,
    _classify_walk,
    _merge_steps,
    _roots,
    _walk,
    classify,
    enumerate_b0,
    enumerate_index_profiles,
    parse_constraints,
)
from reidbasket.core import (
    Basket,
    FilterConfig,
    WeightedBasket,
    anti_volume,
    format_rational,
    gamma,
    geometric_filter,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
    sigma_prime,
)
from reidbasket.packing import ClosureTruncated

B = Basket.of
INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


class TestEnumerateB0:
    def test_p2_1_family_contains_table12_source(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 3: 2, 4: 2})
        baskets = {wb.basket for wb, _ in enumerate_b0(c)}
        assert B((1, 2), (1, 3), (1, 3), (1, 3), (1, 3), (1, 7)) in baskets

    def test_p2_2_multiplicity_profiles(self):
        # P_{-1} = 0, P_{-2} = 2, (P_{-3}, P_{-4}) in {(1,3), (2,5)} yields the
        # two classical multiplicity profiles of the half-point-dominated case
        c = ClassificationConstraints(p_fixed={1: 0, 2: 2}, sigma5=(0, 0),
                                      p_ranges={3: (1, 2)})
        profiles = set()
        for wb, (p1, p2, p3, p4) in enumerate_b0(c):
            if (p3, p4) in ((1, 3), (2, 5)):
                n12 = sum(1 for p in wb.basket if p.r == 2)
                n13 = sum(1 for p in wb.basket if p.r == 3)
                n14 = sum(1 for p in wb.basket if p.r == 4)
                profiles.add((n12, n13, n14))
        assert profiles == {(12, 0, 0), (11, 1, 0)}

    def test_six_sources_of_deep_subcase(self):
        # P_{-1} = 1, (P_{-2}, P_{-3}) = (2, 3): exactly six level-0 shapes,
        # one per feasible (P_{-4}, sigma5) pair, all with four half points
        c = ClassificationConstraints(p_fixed={1: 1, 2: 2, 3: 3},
                                      p_ranges={4: (4, 6)})
        shapes = set()
        for wb, (p1, p2, p3, p4) in enumerate_b0(c):
            n12 = sum(1 for p in wb.basket if p.r == 2)
            n13 = sum(1 for p in wb.basket if p.r == 3)
            n14 = sum(1 for p in wb.basket if p.r == 4)
            sigma5 = sum(1 for p in wb.basket if p.r >= 5)
            assert n12 == 4
            shapes.add((p4, sigma5, n13, n14))
        assert {(s[0], s[1]) for s in shapes} == {
            (6, 0), (6, 1), (6, 2), (5, 0), (5, 1), (4, 0),
        }
        # the sigma5 = 0 rows are single concrete baskets
        both = {wb.basket for wb, t in enumerate_b0(c) if t[3] == 6}
        assert B((1, 2), (1, 2), (1, 2), (1, 2), (1, 3), (1, 4), (1, 4)) in both

    def test_generating_tuple_matches_actual_plurigenera(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1}, sigma5=(0, 2))
        for wb, (p1, p2, p3, p4) in enumerate_b0(c):
            seq = plurigenus_sequence(wb, 4)
            assert [int(x) for x in seq[1:5]] == [p1, p2, p3, p4]

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            enumerate_b0(ClassificationConstraints(p_fixed={2: 1}))

    # root counts from before the feasibility and duplicate guards went: the
    # caps keep every level-0 multiplicity >= 0 and the loop tuples give
    # distinct roots, so neither guard ever fired
    @pytest.mark.parametrize("text, count", [
        ((INPUTS / "census_p0.txt").read_text(), 66),
        ((INPUTS / "census_p8.txt").read_text(), 213),
        ((INPUTS / "census_rx840.txt").read_text(), 243),
        ("p[1]=0..6", 11517),
    ])
    def test_roots_are_distinct_and_counted(self, text, count):
        roots = [wb for wb, _ in enumerate_b0(parse_constraints(text))]
        assert len(roots) == len(set(roots)) == count


class TestClassify:
    def test_p8_equals_2_with_p1_p2_1(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
        result = classify(c)
        assert {wb.basket for wb in result} == {
            B((1, 2), (2, 5), (1, 3), (1, 4), (1, s)) for s in (9, 10, 11)
        }

    def test_p8_equals_2_with_p1_p2_0(self):
        c = ClassificationConstraints(p_fixed={1: 0, 2: 0, 8: 2})
        result = classify(c)
        assert {wb.basket for wb in result} == {
            B((1, 2), (1, 2), (2, 5), (2, 5), (2, 5), (1, 3), (1, 4)),
            B(*([(1, 2)] * 5 + [(1, 3), (1, 3), (2, 7), (1, 4)])),
            B(*([(1, 2)] * 5 + [(1, 3), (1, 3), (3, 11)])),
            B(*([(1, 2)] * 5 + [(1, 3), (3, 10), (1, 4)])),
        }

    def test_reformulated_constraints_same_output(self):
        fixed = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
        ranged = ClassificationConstraints(
            p_fixed={1: 1}, p_ranges={2: (1, 1), 8: (2, 2)}
        )
        assert classify(fixed) == classify(ranged)

    def test_truncation_is_loud(self):
        c = ClassificationConstraints(
            p_fixed={1: 0, 2: 0, 8: 2}, max_visited=10,
        )
        with pytest.raises(ClosureTruncated):
            classify(c)

    def test_one_budget_for_the_whole_call(self):
        # the roots of each P_{-1} alone stay below the budget, and all of
        # them, walked in one call, go above it
        c = parse_constraints("p[1]=0..3")
        assert [_walk(group, c)[1] for group in roots_by_p1(c)] == [376, 5554, 8183, 8338]
        with pytest.raises(ClosureTruncated, match="after visiting 20000 states"):
            classify(c._replace(max_visited=20000))
        # a budget of exactly the states visited is enough, one less is not
        c = parse_constraints("p[1]=0..1")
        assert classify(c._replace(max_visited=376 + 5554)) == classify(c)
        with pytest.raises(ClosureTruncated):
            classify(c._replace(max_visited=376 + 5554 - 1))

    def test_a_p3_window_cuts_a_wide_p1_range(self):
        # P_{-3} = 3 holds every root to P_{-1} <= 2 out of 0..3000
        c = parse_constraints("p[1]=0..3000 p[3]=3")
        assert Counter(p1 for p1, _ in _roots(c)) == {0: 8, 1: 98, 2: 19}
        found = classify(c)
        assert len(found) == 501 and Counter(wb.p1 for wb in found) == {0: 40, 1: 461}

    def test_every_emitted_basket_readmits(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
        for wb in classify(c):
            assert c.admits(wb)

    @pytest.mark.parametrize("text", [
        *((INPUTS / name).read_text() for name in ("census_p0.txt", "census_p8.txt", "census_rx840.txt")),
        "p[1]=0..3 k3=(0,1/30)",
    ])
    def test_listing_is_sorted_without_duplicates(self, text):
        # the closures' own order is the listing's: no set, no final sort
        found = classify(parse_constraints(text))
        keys = [(wb.p1, wb.basket.sort_key()) for wb in found]
        assert found and len(set(found)) == len(found)
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_listing_spans_several_p1(self):
        p1s = [wb.p1 for wb in classify(parse_constraints("p[1]=0..3 k3=(0,1/30)"))]
        assert len(set(p1s)) >= 3 and p1s == sorted(p1s)

    def test_subcase_with_absent_golden_table(self):
        # the P_{-1} = 0, P_{-2} = 1, sigma5 = 0 classification has no usable
        # published body; the three baskets that its surrounding discussion
        # names individually must appear in the computed output
        c = ClassificationConstraints(
            p_fixed={1: 0, 2: 1}, p_ranges={3: (1, 2), 4: (2, 4)},
            sigma5=(0, 0), k3_max=Fraction(21, 100), k3_max_strict=True,
        )
        result = {wb.basket for wb in classify(c)}
        assert B((1, 2), (8, 17), (1, 3), (1, 3)) in result
        assert B((1, 2), (1, 2), (6, 13), (2, 5), (1, 3)) in result
        assert B((1, 2), (6, 13), (3, 7), (1, 3)) in result


class TestBruteForceOracle:
    @pytest.mark.parametrize("kwargs", [
        dict(p_fixed={1: 1, 2: 1, 3: 1, 4: 2}, sigma5=(0, 0)),
        dict(p_fixed={1: 1, 2: 1}, p_ranges={3: (1, 2), 4: (2, 4)}, sigma5=(0, 0)),
        dict(p_fixed={1: 2, 2: 4}, p_ranges={3: (4, 6)}, sigma5=(0, 0)),
        dict(p_fixed={1: 1, 2: 1, 3: 1, 4: 2}, sigma5=(0, 1), tail_max_index=5),
        dict(p_fixed={1: 1, 2: 0}),
    ])
    def test_classify_equals_direct_enumeration(self, kwargs, baskets_sum_r_20):
        c = ClassificationConstraints(**kwargs)
        roots = enumerate_b0(c)
        assert all(sum(p.r for p in wb.basket) <= 20 for wb, _ in roots)
        via_engine = set(classify(c))
        via_oracle = set()
        for basket in baskets_sum_r_20:
            for p1 in c.p1_values():
                wb = WeightedBasket(basket, p1)
                if c.admits(wb):
                    via_oracle.add(wb)
        assert via_engine == via_oracle


# the kinds of constraint the universe sets take in turn, besides P_{-1} and
# one P_{-m} window each
UNIVERSE_KINDS = ("k3", "rmax", "rx", "rx<=", "indices", "sigma5", "filters")
UNIVERSE_SETS = 14


def universe_constraint_sets(universe: list[Basket]) -> list[ClassificationConstraints]:
    """Seeded constraint sets, each built around an anchor that it admits.

    The anchor is a universe basket that passes the whole geometric filter
    at the set's lowest P_{-1}; sets 4 and 9 take it among the baskets with
    gamma = 0, on the end of the gamma filter.  Set i takes P_{-1} from i mod 4, a P_{-m}
    window around the anchor's value with m = 2 + i mod 7, and two or more
    of ``UNIVERSE_KINDS`` in turn.  The ends the anchor sits on are
    inclusive: rmax= and rx<= end at its r_max and r_X, one k3 end is its
    -K^3, and the other k3 end is strict.  Every set keeps the gamma filter.
    """
    rng = random.Random(20)
    pool = [basket for basket in universe if len(basket)]
    on_the_gamma_end = [basket for basket in pool if gamma(basket) == 0]
    sets = []
    for i in range(UNIVERSE_SETS):
        p1 = i % 4
        while True:
            anchor = WeightedBasket(rng.choice(on_the_gamma_end if i % 5 == 4 else pool), p1)
            if geometric_filter(anchor).ok:
                break
        basket = anchor.basket
        p_fixed: dict[int, int] = {}
        p_ranges: dict[int, tuple[int, int]] = {}
        for m, lo, hi in (
            (1, p1, min(3, p1 + rng.randint(0, 1))),
            (2 + i % 7, None, None),
        ):
            if lo is None:
                value = plurigenus_sequence(anchor, m)[m]
                spread = max(2, value // 4)
                lo, hi = value - rng.randint(0, spread), value + rng.randint(0, spread)
            if lo == hi:
                p_fixed[m] = lo
            else:
                p_ranges[m] = (lo, hi)
        kinds = {UNIVERSE_KINDS[i % 7], UNIVERSE_KINDS[(i + 3) % 7]}
        kinds |= {kind for kind in UNIVERSE_KINDS if rng.random() < 0.1}
        kwargs: dict = {}
        if "k3" in kinds:
            volume, step = anti_volume(anchor), Fraction(rng.randint(1, 12), 12)
            strict_low = i % 2 == 0
            kwargs.update(
                k3_min=volume - step if strict_low else volume, k3_min_strict=strict_low,
                k3_max=volume if strict_low else volume + step, k3_max_strict=not strict_low,
            )
        if "rmax" in kinds:
            kwargs["rmax_range"] = (rng.randint(2, r_max(basket)), r_max(basket))
        if "rx" in kinds:
            kwargs["rx_exact"] = r_index(basket)
        if "rx<=" in kinds:
            kwargs["rx_max"] = r_index(basket)
        if "indices" in kinds:
            extra = set(rng.sample(range(2, 25), 3))
            kwargs["allowed_indices"] = frozenset({p.r for p in basket} | extra)
        if "sigma5" in kinds:
            s5 = sum(1 for p in unpack(basket, 0) if p.r >= 5)
            kwargs["sigma5"] = (max(0, s5 - rng.randint(0, 1)), s5 + rng.randint(0, 1))
        if "filters" in kinds:
            others = [name for name in FilterConfig._fields if name != "gamma_nonneg"]
            chosen = rng.sample(others, rng.randint(0, len(others)))
            kwargs["filters"] = FilterConfig.none()._replace(
                gamma_nonneg=True, **{name: True for name in chosen},
            )
        sets.append(ClassificationConstraints(p_fixed=p_fixed, p_ranges=p_ranges, **kwargs))
    return sets


@pytest.fixture(scope="module")
def universe_sets(bench_universe) -> list[ClassificationConstraints]:
    return universe_constraint_sets(bench_universe)


# baskets that ``admits`` once took and ``classify`` never lists: one that is
# not coprime, and one whose level-0 basket has gamma < 0
OFF_THE_LIST = (
    ("p[1]=3", WeightedBasket(B((2, 4), (1, 2), (1, 2), (1, 2)), 3)),
    ("p[1]=5 filters=none", WeightedBasket(B(*[(1, 2)] * 25), 5)),
)


@pytest.fixture(scope="module")
def superset(bench_universe) -> list[Basket]:
    """The universe and baskets off it, in canonical order: seeded packings
    of two universe entries into one that is not coprime, and every coprime
    basket with Sigma r <= 26 whose level-0 basket has gamma < 0."""
    rng = random.Random(27)
    off = {wb.basket for _, wb in OFF_THE_LIST}
    while len(off) < 1000:
        entries = list(rng.choice(bench_universe).entries)
        if len(entries) >= 2:
            p, q = (entries.pop(i) for i in sorted(rng.sample(range(len(entries)), 2), reverse=True))
            if math.gcd(p.b + q.b, p.r + q.r) > 1:
                off.add(B(*((e.b, e.r) for e in entries), (p.b + q.b, p.r + q.r)))
    negative = [b for b in all_coprime_baskets(26) if gamma(unpack(b, 0)) < 0]
    assert len(negative) == 1050
    return sorted(off.union(bench_universe, negative))


def universe_scan(c: ClassificationConstraints, universe: list[Basket]) -> list[WeightedBasket]:
    """The weighted baskets over ``universe`` that ``admits`` accepts, in
    ``classify``'s order."""
    found = [
        wb
        for p1 in c.p1_values()
        for wb in (WeightedBasket(basket, p1) for basket in universe)
        if c.admits(wb)
    ]
    return sorted(found, key=lambda wb: (wb.p1, wb.basket.sort_key()))


class TestUniverseOracle:
    """``classify`` against a plain scan of the bench's 8338-basket universe.

    With the gamma filter on, every basket that ``classify`` can admit is a
    terminal gamma >= 0 basket, so the universe holds them all, and the
    scan with ``admits`` is the whole answer.  Scanned over a superset of
    the universe, that answer is ``admits`` = membership in the listing.
    """

    def test_the_sets_cover_every_kind(self, universe_sets):
        assert len(universe_sets) == UNIVERSE_SETS
        assert {c.p1_values()[0] for c in universe_sets} == {0, 1, 2, 3}
        windows = {m for c in universe_sets for m in c.constrained_ms() if m > 1}
        assert windows == set(range(2, 9))
        # windows with a lower and an upper end that P_{-1} does not fix
        assert any(m > 1 for c in universe_sets for m in c.p_ranges)
        assert {c.k3_min_strict for c in universe_sets if c.k3_min is not None} == {True, False}
        assert {c.k3_max_strict for c in universe_sets if c.k3_max is not None} == {True, False}
        for field in ("rmax_range", "rx_exact", "rx_max", "allowed_indices", "sigma5"):
            assert any(getattr(c, field) is not None for c in universe_sets), field
        assert all(c.filters.gamma_nonneg for c in universe_sets)
        assert len({c.filters for c in universe_sets}) >= 3

    @pytest.mark.parametrize("index", range(UNIVERSE_SETS))
    def test_classify_equals_the_universe_scan(self, index, universe_sets, superset):
        c = universe_sets[index]
        scan = universe_scan(c, superset)
        assert scan, c
        assert classify(c) == scan

    @pytest.mark.parametrize("text", [
        "p[1]=5 filters=none", "p[1]=1..4 p[3]=2..6 filters=none", "p[1]=2..3 p[2]=4..8 filters=volume,p8",
    ])
    def test_admits_is_membership_without_the_gamma_filter(self, text, superset):
        # the listing leaves the superset here (gamma < 0), so it is
        # checked both ways
        c = parse_constraints(text)
        listed = set(classify(c))
        assert all(c.admits(wb) for wb in listed)
        assert set(universe_scan(c, superset)) <= listed
        assert any(gamma(wb.basket) < 0 for wb in listed), c

    @pytest.mark.parametrize("text, wb", OFF_THE_LIST)
    def test_a_basket_off_the_list_is_refused(self, text, wb, superset):
        c = parse_constraints(text)
        assert wb.basket in superset and wb not in classify(c)
        assert not c.admits(wb)
        # without the rule that refuses it, the rest of admits takes it
        counts = wb.basket.counts()
        gamma, volume, _ = classify_module._chain_state(wb.p1, counts, ())
        assert c._admits(wb.p1, counts, gamma, volume)

    @pytest.mark.parametrize("text, count", [("p[1]=1 filters=gamma", 5554), ("p[1]=1 tailmax=6", 4218)])
    def test_admits_holds_the_rules_of_the_roots(self, text, count, bench_universe):
        # every root has P_{-2..4} >= 0 and its level-0 indices at most
        # tailmax; without those rules the scan admits 8338 and 5262 here
        c = parse_constraints(text)
        found = classify(c)
        assert found == universe_scan(c, bench_universe) and len(found) == count

    def test_leaf_check_is_admits_on_the_sets(self, universe_sets):
        rejecting = 0
        for c in universe_sets:
            rejected, admitted = leaf_verdicts(c)
            assert admitted == len(classify(c)), c
            rejecting += rejected > 0
        # rejected leaves included: most sets' walks leave some
        assert rejecting >= UNIVERSE_SETS // 2, rejecting


class TestIndexProfiles:
    def test_table16(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840)
        result = enumerate_index_profiles(c)
        assert {wb.basket for wb in result} == {
            B((1, 2), (1, 3), (2, 5), (1, 7), (1, 8)),
            B((1, 2), (1, 3), (1, 5), (2, 7), (1, 8)),
            B((1, 3), (1, 5), (1, 7), (3, 8)),
            B((1, 3), (1, 5), (3, 7), (1, 8)),
            B((1, 3), (2, 5), (2, 7), (1, 8)),
        }
        assert all(sigma(wb.basket) == 6 for wb in result)

    def test_840_small_p2_forces_the_five_baskets(self):
        # over the whole index-840 family, P_{-2} <= 1 happens exactly on
        # the five special baskets (elsewhere P_{-2} >= 2)
        c = ClassificationConstraints(p_ranges={1: (0, 4), 2: (0, 1)}, rx_exact=840)
        got = {wb.basket for wb in enumerate_index_profiles(c)}
        table16 = ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840)
        assert got == {wb.basket for wb in enumerate_index_profiles(table16)}

    def test_840_forces_p1_positive_and_volume_bound(self):
        c = ClassificationConstraints(p_ranges={1: (0, 4)}, rx_exact=840)
        result = enumerate_index_profiles(c)
        assert result, "the 840 family is non-empty"
        assert all(wb.p1 >= 1 for wb in result)
        assert min(anti_volume(wb) for wb in result) == Fraction(47, 840)
        # the volume-positivity route: every admissible numerator assignment
        # has sigma' - sigma + 6 > 0, which forces P_{-1} >= 1
        for wb in result:
            assert sigma_prime(wb.basket) - sigma(wb.basket) + 6 > 0

    @pytest.mark.parametrize("lcm", [0, -4])
    def test_lcm_below_one_is_rejected(self, lcm):
        # the scan reads r_X from the record, which holds rx_exact >= 1
        c = ClassificationConstraints(p_fixed={1: 1})
        with pytest.raises(ValueError) as info:
            c._replace(rx_exact=lcm)
        assert str(info.value) == f"rx_exact must be >= 1, got {lcm}"

    def test_the_record_gives_the_lcm(self):
        # r_X has one source: a record without rx_exact has none to scan
        c = parse_constraints("p[1]=1 p[2]=1")
        with pytest.raises(ValueError, match="rx_exact"):
            enumerate_index_profiles(c)
        table16 = enumerate_index_profiles(c._replace(rx_exact=840))
        assert len(table16) == 5 and {r_index(wb.basket) for wb in table16} == {840}
        assert enumerate_index_profiles(c._replace(rx_exact=630)) == classify(c._replace(rx_exact=630))

    def test_lcm_one_is_the_empty_basket(self):
        # at P_{-1} = 0, 1, 2 the empty basket has P_{-2} = -10, -5 and
        # P_{-3} = -7, so no root holds it
        c = ClassificationConstraints(p_ranges={1: (0, 3)}, filters=FilterConfig.none(), rx_exact=1)
        assert enumerate_index_profiles(c) == [WeightedBasket(Basket(), 3)]

    @pytest.mark.parametrize("text, candidates", [
        ((INPUTS / "census_rx840.txt").read_text(), 5), ("p[1]=0..3 rx=60", 1224),
        ("p[1]=0..3000 p[2]=1 rx=60", 78),
    ])
    def test_the_budget_counts_the_candidates(self, text, candidates):
        # each (basket, P_{-1}) checked is one step of the call's budget, at
        # the P_{-1} that the basket's P_{-2..4} windows allow
        c = parse_constraints(text)
        assert classify(c._replace(max_visited=candidates)) == classify(c)
        with pytest.raises(ClosureTruncated, match=f"after visiting {candidates - 1} states"):
            classify(c._replace(max_visited=candidates - 1))

    def test_630_case_split(self):
        c = ClassificationConstraints(
            p_fixed={1: 1},
            k3_min=Fraction(1, 30),
            k3_max=Fraction(12, 100), k3_max_strict=True,
            rx_exact=630,
        )
        result = enumerate_index_profiles(c)
        assert {wb.basket for wb in result} == {
            B((1, 2), (2, 5), (1, 7), (2, 9)),
            B((1, 2), (1, 2), (1, 5), (2, 7), (1, 9)),
        }
        assert {anti_volume(wb) for wb in result} == {Fraction(71, 630), Fraction(37, 315)}


# the rx= sets of ROADMAP item 7, then sets that cut by tailmax= and by the
# gamma filter alone
ITEM7_SETS = (
    "p[1]=0..4 p[2]=0..1 rx=840", "p[1]=0..4 rx=840", "p[1]=1 p[2]=1 rx=840", "p[1]=0..3 rx=630",
    "p[1]=0..3 rx=60", "p[1]=0..3 rx=60 k3=(0,1/2) sigma5=0..2", "p[1]=0..3 rx=30 indices={2,3,5}",
    "p[1]=0..2 rx=2520", "p[1]=0..5 rx=1",
)
ROOT_RULE_SETS = ("p[1]=0..3 rx=12 tailmax=4", "p[1]=0..3 rx=60 tailmax=5", "p[1]=0..3 rx=12 filters=gamma")
# wide P_{-1} ranges that the P_{-2..3} windows cut to a few values per basket
WIDE_P1_SETS = (
    "p[1]=0..3000 p[2]=1 rx=60", "p[1]=0..3000 p[2]=2..10 rx=840", "p[1]=0..3000 p[2]=0..5 p[3]=3..8 rx=12",
)


class TestRoutes:
    """``classify`` scans the index profiles of an exact rx= under the gamma
    filter and walks the canonical chain on any other record; the walk is
    the profile route's oracle."""

    @pytest.mark.parametrize("text, route", [
        ("p[1]=1 rx=840", ("profiles", 840)),
        ("p[1]=1 rx=12 filters=gamma", ("profiles", 12)),
        ("p[1]=1 rx=840 filters=volume,index", "walk"),
        ("p[1]=1 rx<=840", "walk"),
        ("p[1]=1", "walk"),
    ])
    def test_the_record_picks_the_route(self, text, route, monkeypatch):
        taken = []
        monkeypatch.setattr(classify_module, "_classify_walk", lambda c: taken.append("walk") or [])
        monkeypatch.setattr(
            classify_module, "enumerate_index_profiles", lambda c: taken.append(("profiles", c.rx_exact)) or [],
        )
        assert classify(parse_constraints(text)) == [] and taken == [route]

    def test_profiles_equal_the_universe_scan_on_every_rx(self, bench_universe):
        # admits turns away every basket of another r_X, so each rx scans
        # its own baskets
        by_rx: dict[int, list[Basket]] = {}
        for basket in bench_universe:
            by_rx.setdefault(r_index(basket), []).append(basket)
        assert len(by_rx) == 112
        listed = 0
        for rx, baskets in by_rx.items():
            c = parse_constraints(f"p[1]=0..3 rx={rx}")
            found = classify(c)
            assert found == universe_scan(c, baskets), rx
            listed += bool(found)
        assert listed > 50

    @pytest.mark.parametrize("text", ITEM7_SETS + ROOT_RULE_SETS + WIDE_P1_SETS)
    def test_walk_equals_the_profiles(self, text):
        c = parse_constraints(text)
        assert _classify_walk(c) == enumerate_index_profiles(c)

    def test_walk_equals_the_profiles_on_the_universe_sets(self, universe_sets):
        # a set without rx= takes the r_X of the first basket it lists
        for c in universe_sets:
            if c.rx_exact is None:
                c = c._replace(rx_exact=r_index(_classify_walk(c)[0].basket))
            found = _classify_walk(c)
            assert found and found == enumerate_index_profiles(c), c


class TestConstraintsText:
    def test_round_trip_of_documented_example(self):
        c = parse_constraints("p[1]=1  p[2]=1  p[8]=2  sigma5=0..3  k3=(0,1/30)  rmax=2..24  filters=default")
        assert c.p_fixed == {1: 1, 2: 1, 8: 2}
        assert c.sigma5 == (0, 3)
        assert c.k3_min == 0 and c.k3_min_strict
        assert c.k3_max == Fraction(1, 30) and c.k3_max_strict
        assert c.rmax_range == (2, 24)
        assert c.filters == FilterConfig()

    def test_decimal_bounds_are_exact(self):
        c = parse_constraints("p[1]=0 k3=[1/330,0.21)")
        assert c.k3_max == Fraction(21, 100)
        assert not c.k3_min_strict and c.k3_max_strict
        c = parse_constraints("p[1]=0 k3=(-1.5,1e-3]")
        assert c.k3_min == Fraction(-3, 2) and c.k3_max == Fraction(1, 1000)
        assert c.k3_min_strict and not c.k3_max_strict

    def test_a_point_k3_interval_is_valid(self):
        # [a,a] holds one volume; (a,a], [a,a) and (a,a) are empty and rejected
        c = parse_constraints("p[1]=1 p[2]=1 p[8]=2 k3=[1/60,1/60]")
        assert [str(wb) for wb in classify(c)] == ["((1,2),(1,3),(1,4),(2,5),(1,10); p1=1)"]

    def test_rx_and_indices(self):
        c = parse_constraints("p[1]=1 rx=840 indices={2,3,5,7,8}")
        assert c.rx_exact == 840
        assert c.allowed_indices == frozenset({2, 3, 5, 7, 8})
        # 4300 digits, the most an integer token holds
        assert parse_constraints("p[1]=1 rx=" + "0" * 4299 + "1").rx_exact == 1

    def test_filter_subset(self):
        c = parse_constraints("p[1]=1 filters=volume,gamma")
        assert c.filters.volume_positive and c.filters.gamma_nonneg
        assert not c.filters.p8_at_least_2

    def test_sigma_filter_selects_no_check(self):
        # the recursion satisfies the sigma identity on every basket
        assert parse_constraints("p[1]=1 filters=sigma").filters == FilterConfig.none()
        assert parse_constraints("p[1]=1 filters=sigma,gamma").filters == (
            parse_constraints("p[1]=1 filters=gamma").filters
        )
        for text in ("p[1]=1 p[2]=1 p[8]=2", "p[1]=0..4 p[2]=0..1 rx=840"):
            found = classify(parse_constraints(f"{text} filters=sigma"))
            assert found and found == classify(parse_constraints(f"{text} filters=none"))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_printed_constraints_parse_back(self, data):
        c = data.draw(constraint_sets())
        tokens = data.draw(st.permutations(constraints_tokens(c)))
        assert parse_constraints(" ".join(tokens)) == c

    def test_comments_and_newlines(self):
        c = parse_constraints("# header\np[1]=1 # inline\np[2]=0..3\n")
        assert c.p_fixed == {1: 1}
        assert c.p_ranges == {2: (0, 3)}

    def test_rejects_inverted_ranges(self):
        for text in ("p[1]=1 p[2]=1..0", "p[1]=1 sigma5=3..2", "p[1]=1 rmax=9..5"):
            with pytest.raises(ValueError, match="empty range"):
                parse_constraints(text)

    @pytest.mark.parametrize("token", ["k3=", "k3=(1/2)", "k3=[0,1,2]", "k3=(", "k3=0,1"])
    def test_malformed_k3_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad constraints token '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 {token}")

    @pytest.mark.parametrize("token", ["p[0]=3", "p[-2]=1", "p[]=1", "p[x]=1", "p[1=1"])
    def test_plurigenus_index_below_one_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad constraints token '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 p[2]=1 p[8]=2 {token}")

    @pytest.mark.parametrize("token", [
        "sigma5=1..2..3", "sigma5=x", "rmax=a..3", "rmax=", "rx=abc", "rx<=abc",
        "indices={2,x}", "tailmax=abc", "tailmax=3", "tailmax=0", "filters=", "filters=,",
        "k3=(a,1/30)", "filters=gamma,foo", "k3=(1/2,1/30)", "k3=(1/30,1/30)", "k3=[1/30,1/30)",
        "k3=(1/30,1/30]", "rx=0", "rx<=0", "rx=-840", "tailmax=x", "p[2]=1_0", "rx=8_40",
        "rx=\u0668\u0664\u0660", "rx=+840", pytest.param("rx=" + "1" * 4301, id="rx=4301 digits"),
    ])
    def test_malformed_value_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad constraints token '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 {token}")

    @pytest.mark.parametrize("token, value", [
        ("rx=abc", "abc"), ("rx<=1_0", "1_0"), ("tailmax=x", "x"), ("indices={2,x}", "x"),
        ("rx=+840", "+840"), ("p[2]=\u0661", "\u0661"),
        pytest.param("rx=" + "9" * 4301, "9" * 4301, id="rx=4301 digits"),
    ])
    def test_an_integer_is_ascii_digits(self, token, value):
        # one token, -?[0-9]+ of at most 4300 digits; a p[m] range says so
        with pytest.raises(ValueError) as info:
            parse_constraints(f"p[1]=1 {token}")
        reason = f"expected an integer{' or a range lo..hi' if token[0] == 'p' else ''}, got {value!r}"
        assert str(info.value) == f"bad constraints token {token!r}: {reason}"

    def test_an_empty_k3_interval_with_a_huge_end_is_worded_without_it(self):
        with pytest.raises(ValueError) as info:
            parse_constraints("p[1]=1 k3=(1e4300,1)")
        assert str(info.value) == "bad constraints token 'k3=(1e4300,1)': empty k3 interval"

    @pytest.mark.parametrize("token", ["indices=2,3", "indices={2,3", "indices=2,3}"])
    def test_indices_without_braces_pins_the_message(self, token):
        with pytest.raises(ValueError) as info:
            parse_constraints(f"p[1]=1 {token}")
        assert str(info.value) == f"bad constraints token {token!r}: expected indices={{r,r,...}}"

    def test_k3_end_with_a_huge_exponent_is_rejected_at_once(self):
        # Fraction would spend minutes on 10 ** 100000000
        with pytest.raises(ValueError) as info:
            parse_constraints("p[1]=1 k3=(1e-100000000,1/30)")
        assert str(info.value) == (
            "bad constraints token 'k3=(1e-100000000,1/30)': not an exact rational: '1e-100000000'"
        )
        assert parse_constraints("p[1]=1 k3=(1e-4300,1/30)").k3_min == Fraction(1, 10 ** 4300)

    @pytest.mark.parametrize("token", ["p[1]=-1", "p[1]=-1..2", "p[1]=-3..-1"])
    def test_negative_p1_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad constraints token '{re.escape(token)}'"):
            parse_constraints(token)

    @pytest.mark.parametrize("first, second", [
        ("p[8]=2", "p[8]=0..5"), ("p[8]=0..5", "p[8]=2"), ("p[8]=2", "p[08]=2"),
        ("p[1]=1", "p[1]=2"), ("sigma5=0", "sigma5=1..2"), ("k3=(0,1)", "k3=[0,1/2]"),
        ("rmax=2..7", "rmax=3"), ("rx=840", "rx=420"), ("rx<=60", "rx<=12"),
        ("indices={2,3}", "indices={2,5}"), ("tailmax=5", "tailmax=7"),
        ("filters=none", "filters=default"),
    ])
    def test_repeated_key_names_the_second_token(self, first, second):
        with pytest.raises(ValueError, match=f"repeated constraints key in '{re.escape(second)}'"):
            parse_constraints(f"p[2]=1 {first} {second}")

    def test_rx_and_rx_at_most_are_different_keys(self):
        c = parse_constraints("p[1]=1 rx=840 rx<=840")
        assert (c.rx_exact, c.rx_max) == (840, 840)

    def test_rejects_garbage_and_empty(self):
        with pytest.raises(ValueError):
            parse_constraints("p[1]=1 bogus")
        with pytest.raises(ValueError):
            parse_constraints("")


class TestAgainstCanonicalStructure:
    def test_emitted_baskets_descend_from_their_level0(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
        roots = {wb.basket for wb, _ in enumerate_b0(c)}
        for wb in classify(c):
            assert unpack(wb.basket, 0) in roots


CENSUS_TEXTS = [
    (INPUTS / name).read_text() for name in ("census_p0.txt", "census_p8.txt", "census_rx840.txt")
]


def roots_by_p1(constraints) -> list[list[tuple]]:
    """The walk's roots of ``constraints`` in one group per P_{-1}, ascending."""
    roots: dict[int, list[tuple]] = {}
    for root in _roots(constraints):
        roots.setdefault(root[0], []).append(root)
    return [roots[p1] for p1 in sorted(roots)]


def built(p1: int, triples: list[tuple[int, int, int]]) -> WeightedBasket:
    """The weighted basket of ``p1`` and (b, r, multiplicity) ``triples``."""
    return WeightedBasket(Basket.of(*((b, r) for b, r, k in triples for _ in range(k))), p1)


def invariants_over_s(wb: WeightedBasket, ms: tuple[int, ...]) -> tuple:
    """gamma and -K^3 times S, and P_{-m} for ``ms``, read off the built basket."""
    seq = plurigenus_sequence(wb, max(ms, default=1))
    return gamma(wb.basket) * S, anti_volume(wb) * S, tuple(seq[m] for m in ms)


def built_leaves(leaves: list[tuple]) -> list[tuple[WeightedBasket, tuple]]:
    """``_walk``'s leaf states, each with the weighted basket built from its
    P_{-1} and (b, r, multiplicity) triples."""
    return [(built(leaf[0], leaf[1]), leaf) for leaf in leaves]


def walk_all(constraints) -> tuple[list[WeightedBasket], int]:
    """``_walk`` over every root of ``constraints``: the leaves as weighted
    baskets, and the states visited."""
    found, visited = _walk(_roots(constraints), constraints)
    return [wb for wb, _ in built_leaves(found)], visited


def leaf_verdicts(constraints) -> tuple[int, int]:
    """On every leaf state of the walk, ``classify``'s check from the
    carried integers agrees with ``admits`` on the built weighted basket;
    returns the counts of (rejected, admitted) leaves."""
    verdicts = [0, 0]
    found, _ = _walk(_roots(constraints), constraints)
    for wb, (p1, triples, gamma, volume) in built_leaves(found):
        got = constraints._admits(p1, triples, gamma, volume)
        assert got == constraints.admits(wb), (constraints, str(wb))
        verdicts[got] += 1
    return verdicts[0], verdicts[1]


class TestChainWalk:
    """The walk up the canonical chain against the chain's own definition."""

    @staticmethod
    def new_fractions():
        """(n, b, the level before n) for every fraction b/n of S(n) outside
        S(n-1), n = 5..32; the level before 5 is 0."""
        for n in range(5, TOP + 1):
            below = 0 if n == 5 else n - 1
            for b in range(1, n // 2 + 1):
                if math.gcd(b, n) == 1 and not in_level_set(Fraction(b, n), below):
                    yield n, b, below

    def test_every_merge_undoes_one_unpacking(self):
        # b/n unpacks at the level before into its two Farey neighbours,
        # one entry each, so one merge of them leads up to level n; every
        # index below TOP divides the scale S
        for n, b, below in self.new_fractions():
            parts = unpack(B((b, n)), below)
            (p, q) = parts.entries
            assert p.b * q.r - q.b * p.r in (1, -1) and (p.b + q.b, p.r + q.r) == (b, n)
            assert farey_neighbors(Fraction(b, n), below) in ((Fraction(p.b, p.r), Fraction(q.b, q.r)),
                                                              (Fraction(q.b, q.r), Fraction(p.b, p.r)))
        assert all(S % r == 0 for r in range(2, TOP + 1))

    def test_growth_is_the_generic_window_rule(self, bench_universe):
        # each merge at level n raises P_{-n} by one and no P_{-m} with m < n,
        # so P_{-n}(B) = P_{-n}(B^(n-1)) + epsilon_n: a window on P_{-n} pins
        # the merge count of level n, and P_{-n} is final once level n is done
        ms = tuple(range(2, TOP + 1))
        for n, b, below in self.new_fractions():
            for p1 in range(3):
                before, after = (
                    _chain_state(p1, x.counts(), ms)[2] for x in (unpack(B((b, n)), below), B((b, n)))
                )
                growth = dict(zip(ms, (y - x for x, y in zip(before, after))))
                assert [growth[m] for m in range(2, n + 1)] == [0] * (n - 2) + [1]
        # the paper's special cases, epsilon_5 .. epsilon_8 from plurigenera
        for basket in bench_universe[::16]:
            tail = {}
            for pair in unpack(basket, 0):
                if pair.r >= 5:
                    tail[pair.r] = tail.get(pair.r, 0) + 1
            for p1 in range(3):
                p = plurigenus_sequence(WeightedBasket(basket, p1), 8)
                eps = {}
                for n in range(5, 9):
                    below = unpack(basket, 0 if n == 5 else n - 1)
                    eps[n] = p[n] - plurigenus_sequence(WeightedBasket(below, p1), n)[n]
                    assert eps[n] == epsilon_n(basket, n)
                assert eps[5] == epsilon5_from_plurigenera(p[2], p[4], p[5], sum(tail.values()))
                assert eps[6] == 0 == epsilon6_residual(*p[1:7], tail)[0]
                assert eps[7] == epsilon7_from_plurigenera(p[1], p[2], p[5], p[6], p[7], tail)
                assert eps[8] == epsilon8_from_plurigenera(*p[1:6], p[7], p[8], tail)

    @pytest.mark.parametrize("text", CENSUS_TEXTS)
    def test_every_path_is_the_canonical_sequence_of_its_leaf(self, text, monkeypatch):
        # the walk stopped after level n (TOP = n) lists the level-n states
        # of every path: each once, each one unpacking step above a state of
        # the level before, and holding the level-n basket of every leaf
        constraints = parse_constraints(text)
        leaves, _ = walk_all(constraints)
        assert leaves
        top = classify_module._rmax_ceiling(constraints)
        states: dict[int, set[WeightedBasket]] = {}
        for n in [0] + list(range(5, top + 1)):
            monkeypatch.setattr(classify_module, "TOP", n)
            found, _ = walk_all(constraints)
            states[n] = set(found)
            assert len(found) == len(states[n])
            if n:
                below = 0 if n == 5 else n - 1
                assert {WeightedBasket(unpack(wb.basket, below), wb.p1) for wb in found} <= states[below]
        assert states[top] == set(leaves)
        for wb in leaves:
            seq = canonical_sequence(wb.basket)
            path = {n: level for n, level, _ in seq.levels}
            for n in states:
                assert WeightedBasket(path.get(n, wb.basket), wb.p1) in states[n], (str(wb), n)

    @pytest.mark.parametrize("text", CENSUS_TEXTS)
    def test_carried_integers_are_the_leaf_invariants(self, text, monkeypatch):
        # with a window on every P_{-m}, m = 5..24, the state the walk carries
        # into each leaf is gamma, -K^3 and P_{-5..24} of that leaf
        constraints = parse_constraints(text)
        ms = tuple(range(5, 25))
        windows, factory = classify_module._windows, classify_module._prune_factory
        events = []

        def every_window(c):
            own = {m: (lo, hi) for m, lo, hi in windows(c)}
            return tuple((m, *own.get(m, (-10 ** 9, 10 ** 9))) for m in ms)

        def recording_factory(c):
            prune_ok = factory(c)

            def recording(gamma, volume, window, final):
                ok = prune_ok(gamma, volume, window, final)
                if ok:
                    events.append((final, gamma, volume, window))
                return ok

            return recording

        found = _classify_walk(constraints)
        roots = list(_roots(constraints))
        monkeypatch.setattr(classify_module, "_windows", every_window)
        assert _classify_walk(constraints) == found
        monkeypatch.setattr(classify_module, "_prune_factory", recording_factory)
        checked = 0
        for root in roots:
            # one root at a time: each leaf follows the one check at the
            # root's last level (at 4, the root itself, below level 5) that
            # passes with the leaf's state, and those come in leaf order
            events.clear()
            leaves = built_leaves(_walk([root], constraints)[0])
            if not leaves:
                continue
            last = max(final for final, *_ in events)
            carried = [state for final, *state in events if final == last]
            assert len(carried) == len(leaves)
            for (wb, (_, triples, gamma, volume)), (g, v, window) in zip(leaves, carried):
                assert (gamma, volume) == (g, v)
                assert _chain_state(wb.p1, triples, ms) == (gamma, volume, window), str(wb)
                assert invariants_over_s(wb, ms) == (gamma, volume, window), str(wb)
                checked += 1
        assert checked > 0

    def test_chain_state_reads_the_built_basket(self):
        # on both sides of every merge, and on every root of the census sets,
        # the integers the walk carries are the basket's own invariants, a
        # P_{-m} past the table's horizon included
        ms = (5, 8, 24, 30)
        merges = [step for step in _merge_steps(TOP, ms)[0] if step[1] is not None]
        assert len(merges) > 100
        for p1 in (0, 2):
            for n, p, q, new, dg, dv, dw in merges:
                parents, child = [(*p, 1), (*q, 1)], [(*new, 1)]
                before, after = (_chain_state(p1, triples, ms) for triples in (parents, child))
                assert before == invariants_over_s(built(p1, parents), ms)
                assert after == invariants_over_s(built(p1, child), ms)
                assert (after[0] - before[0], after[1] - before[1]) == (dg, dv)
                assert tuple(y - x for x, y in zip(before[2], after[2])) == dw
        for text in CENSUS_TEXTS:
            roots = list(_roots(parse_constraints(text)))
            assert roots
            for p1, triples in roots:
                assert _chain_state(p1, triples, ms) == invariants_over_s(built(p1, triples), ms)

    @pytest.mark.parametrize("text, count", [
        *zip(CENSUS_TEXTS, (293, 3, 5)),
        ("p[1]=1", 5262),
        # constrained P_{-m} above the table's horizon 24, counted before the
        # table kernel
        ("p[1]=1 p[30]=5..100000", 5262),
        ("p[1]=1 p[2]=1 p[25]=0..100000", 826),
    ])
    def test_leaf_check_is_admits_on_the_census_sets(self, text, count):
        rejected, admitted = leaf_verdicts(parse_constraints(text))
        assert rejected > 0 and admitted == len(classify(parse_constraints(text))) == count

    def test_leaves_are_the_universe_each_once(self, bench_universe):
        # from every root at P_{-1} = 3 under the gamma filter alone, the
        # leaves are every terminal gamma >= 0 basket, each once
        leaves, visited = walk_all(parse_constraints("p[1]=3 filters=gamma"))
        assert sorted(wb.basket for wb in leaves) == bench_universe
        assert visited >= len(leaves) == len(bench_universe) == 8338

    def test_a_set_without_the_gamma_filter_lists_the_chains_of_its_roots(self):
        # without the gamma filter a basket is listed when it is admitted and
        # its own level-0 basket is a root; the closure of the roots under
        # packing listed 27,531 here, 1,710 more, whose level-0 baskets have
        # gamma < 0
        c = parse_constraints("p[1]=0..2 filters=none")
        found = classify(c)
        assert len(found) == 25821
        roots = {wb for wb, _ in enumerate_b0(c)}
        assert all(WeightedBasket(unpack(wb.basket, 0), wb.p1) in roots for wb in found)
        assert any(gamma(wb.basket) < 0 for wb in found)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected(self, budget):
        # when the record is built, so also for a set with no roots to walk
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2})
        for build in (
            lambda: ClassificationConstraints(p_fixed={1: 0, 2: 100}, max_visited=budget),
            lambda: c._replace(max_visited=budget),
        ):
            with pytest.raises(ValueError, match=f"max_visited must be >= 1, got {budget}"):
                build()
        assert classify(c._replace(max_visited=1, p_fixed={1: 0, 2: 100})) == []

    @pytest.mark.parametrize("tail", [3, 0, -1])
    def test_tail_index_below_four_is_rejected(self, tail):
        # the level-0 indices 2..4 are always used, so a lower tailmax would
        # silently act as 4
        with pytest.raises(ValueError, match=f"tail_max_index must be >= 4, got {tail}"):
            ClassificationConstraints(p_fixed={1: 0}, tail_max_index=tail)
        assert classify(ClassificationConstraints(p_fixed={1: 0}, tail_max_index=4))

    def test_one_walk_over_p1_equals_the_walks_at_each_p1(self):
        # the merge steps depend on the ceiling and the windows alone, so the
        # one walk over the four P_{-1} lists what four walks of one list
        text = "k3=(0,1/30)"
        found = classify(parse_constraints(f"p[1]=0..3 {text}"))
        separate = [wb for p1 in range(4) for wb in classify(parse_constraints(f"p[1]={p1} {text}"))]
        assert len({wb.p1 for wb in found}) >= 3 and found == separate


@st.composite
def constraint_sets(draw) -> ClassificationConstraints:
    """Constraint sets that the text format can say; P_{-1} is always set."""
    p_fixed: dict[int, int] = {}
    p_ranges: dict[int, tuple[int, int]] = {}
    for m in {1} | draw(st.sets(st.integers(2, 30), max_size=4)):
        lo = draw(st.integers(0 if m == 1 else -5, 40))
        hi = lo + draw(st.integers(0, 8))
        if lo == hi:
            p_fixed[m] = lo
        else:
            p_ranges[m] = (lo, hi)

    def maybe(strategy):
        return draw(st.none() | strategy)

    def int_range(lo, hi):
        return st.tuples(st.integers(lo, hi), st.integers(0, 10)).map(lambda t: (t[0], t[0] + t[1]))

    kwargs = {}
    if draw(st.booleans()):
        # a non-empty interval: its ends ascend, and a point [a,a] is inclusive
        ends = st.fractions(min_value=-3, max_value=3, max_denominator=1000)
        lo, hi = sorted((draw(ends), draw(ends)))
        kwargs.update(
            k3_min=lo, k3_min_strict=lo < hi and draw(st.booleans()),
            k3_max=hi, k3_max_strict=lo < hi and draw(st.booleans()),
        )
    names = draw(st.sets(st.sampled_from(sorted(n for n, f in _FILTER_FIELDS.items() if f))))
    return ClassificationConstraints(
        p_fixed=p_fixed,
        p_ranges=p_ranges,
        sigma5=maybe(int_range(0, 6)),
        rmax_range=maybe(int_range(2, 30)),
        rx_exact=maybe(st.integers(1, 1000)),
        rx_max=maybe(st.integers(1, 1000)),
        allowed_indices=maybe(st.frozensets(st.integers(2, 30), max_size=6)),
        filters=FilterConfig.none()._replace(**{_FILTER_FIELDS[n]: True for n in names}),
        tail_max_index=draw(st.integers(5, 40)),
        **kwargs,
    )


def constraints_tokens(c: ClassificationConstraints) -> list[str]:
    """The constraints text of ``c``, one token per constraint."""
    tokens = [f"p[{m}]={v}" for m, v in c.p_fixed.items()]
    tokens += [f"p[{m}]={lo}..{hi}" for m, (lo, hi) in c.p_ranges.items()]
    if c.sigma5 is not None:
        tokens.append("sigma5={}..{}".format(*c.sigma5))
    if c.k3_min is not None:
        tokens.append(
            f"k3={'(' if c.k3_min_strict else '['}{format_rational(c.k3_min)},"
            f"{format_rational(c.k3_max)}{')' if c.k3_max_strict else ']'}"
        )
    if c.rmax_range is not None:
        tokens.append("rmax={}..{}".format(*c.rmax_range))
    if c.rx_exact is not None:
        tokens.append(f"rx={c.rx_exact}")
    if c.rx_max is not None:
        tokens.append(f"rx<={c.rx_max}")
    if c.allowed_indices is not None:
        tokens.append("indices={" + ",".join(map(str, sorted(c.allowed_indices))) + "}")
    tokens.append(f"tailmax={c.tail_max_index}")
    names = [n for n, f in _FILTER_FIELDS.items() if f and getattr(c.filters, f)]
    tokens.append("filters=" + (",".join(names) or "none"))
    return tokens
