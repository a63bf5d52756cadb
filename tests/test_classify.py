import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_coprime_baskets
from reidbasket.canonical import unpack
from reidbasket.classify import (
    _FILTER_FIELDS,
    ClassificationConstraints,
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
    plurigenus_sequence,
    r_index,
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


class TestIndexProfiles:
    def test_table16(self):
        c = ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840)
        result = enumerate_index_profiles(840, c)
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
        got = {wb.basket for wb in enumerate_index_profiles(840, c)}
        table16 = ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840)
        assert got == {wb.basket for wb in enumerate_index_profiles(840, table16)}

    def test_840_forces_p1_positive_and_volume_bound(self):
        c = ClassificationConstraints(p_ranges={1: (0, 4)}, rx_exact=840)
        result = enumerate_index_profiles(840, c)
        assert result, "the 840 family is non-empty"
        assert all(wb.p1 >= 1 for wb in result)
        assert min(anti_volume(wb) for wb in result) == Fraction(47, 840)
        # the volume-positivity route: every admissible numerator assignment
        # has sigma' - sigma + 6 > 0, which forces P_{-1} >= 1
        for wb in result:
            assert sigma_prime(wb.basket) - sigma(wb.basket) + 6 > 0

    @pytest.mark.parametrize("lcm", [0, -4])
    def test_lcm_below_one_is_rejected(self, lcm):
        c = ClassificationConstraints(p_fixed={1: 1})
        with pytest.raises(ValueError) as info:
            enumerate_index_profiles(lcm, c)
        assert str(info.value) == f"index profile lcm must be >= 1, got {lcm}"

    def test_lcm_one_is_the_empty_basket(self):
        c = ClassificationConstraints(p_ranges={1: (0, 3)}, filters=FilterConfig.none())
        assert enumerate_index_profiles(1, c) == [WeightedBasket(Basket(), p1) for p1 in range(4)]

    def test_630_case_split(self):
        c = ClassificationConstraints(
            p_fixed={1: 1},
            k3_min=Fraction(1, 30),
            k3_max=Fraction(12, 100), k3_max_strict=True,
            rx_exact=630,
        )
        result = enumerate_index_profiles(630, c)
        assert {wb.basket for wb in result} == {
            B((1, 2), (2, 5), (1, 7), (2, 9)),
            B((1, 2), (1, 2), (1, 5), (2, 7), (1, 9)),
        }
        assert {anti_volume(wb) for wb in result} == {Fraction(71, 630), Fraction(37, 315)}


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

    def test_rx_and_indices(self):
        c = parse_constraints("p[1]=1 rx=840 indices={2,3,5,7,8}")
        assert c.rx_exact == 840
        assert c.allowed_indices == frozenset({2, 3, 5, 7, 8})

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
        with pytest.raises(ValueError, match=f"bad k3 interval '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 {token}")

    @pytest.mark.parametrize("token", ["p[0]=3", "p[-2]=1", "p[]=1", "p[x]=1", "p[1=1"])
    def test_plurigenus_index_below_one_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad plurigenus token '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 p[2]=1 p[8]=2 {token}")

    @pytest.mark.parametrize("token", [
        "sigma5=1..2..3", "sigma5=x", "rmax=a..3", "rmax=", "rx=abc", "rx<=abc",
        "indices={2,x}", "tailmax=abc",
    ])
    def test_malformed_value_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad constraints token '{re.escape(token)}'"):
            parse_constraints(f"p[1]=1 {token}")

    @pytest.mark.parametrize("token", ["p[1]=-1", "p[1]=-1..2", "p[1]=-3..-1"])
    def test_negative_p1_names_the_token(self, token):
        with pytest.raises(ValueError, match=f"bad plurigenus token '{re.escape(token)}'"):
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
        ends = st.fractions(min_value=-3, max_value=3, max_denominator=1000)
        kwargs.update(
            k3_min=draw(ends), k3_min_strict=draw(st.booleans()),
            k3_max=draw(ends), k3_max_strict=draw(st.booleans()),
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
