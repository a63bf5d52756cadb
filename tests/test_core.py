import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_strategy, random_basket
from reidbasket.core import (
    Basket,
    BasketSyntaxError,
    FilterConfig,
    MAX_BASKET_ENTRIES,
    OrbifoldPair,
    WeightedBasket,
    anti_volume,
    delta_n,
    format_basket,
    format_rational,
    gamma,
    geometric_filter,
    l_term,
    parse_basket,
    parse_rational,
    plurigenus,
    plurigenus_closed,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
    sigma_prime,
)

B = Basket.of
X66 = B((1, 2), (2, 5), (1, 3), (2, 11))
MIXED = B((1, 2), (1, 2), (2, 5), (2, 5), (2, 5), (1, 3), (1, 4))


class TestPairAndBasket:
    def test_pair_validation(self):
        with pytest.raises(ValueError):
            OrbifoldPair(0, 2)
        with pytest.raises(ValueError):
            OrbifoldPair(1, 1)
        with pytest.raises(ValueError):
            OrbifoldPair(3, 5)

    def test_terminal_flag(self):
        assert OrbifoldPair(2, 5).terminal
        assert not OrbifoldPair(2, 4).terminal

    def test_canonical_form_is_order_independent(self):
        assert B((2, 11), (1, 2), (2, 5), (1, 3)) == X66
        assert hash(B((2, 11), (1, 2), (2, 5), (1, 3))) == hash(X66)

    def test_empty_basket_is_legal(self):
        assert sigma(Basket()) == 0
        assert sigma_prime(Basket()) == 0
        assert gamma(Basket()) == 24
        assert r_index(Basket()) == 1
        with pytest.raises(ValueError):
            r_max(Basket())

    def test_immutability(self):
        with pytest.raises(AttributeError):
            X66.entries = ()


class TestGrammar:
    def test_parse_examples(self):
        assert parse_basket("2x(1,2),(2,5),(1,3)") == B((1, 2), (1, 2), (2, 5), (1, 3))
        assert parse_basket("") == Basket()
        assert parse_basket("  ") == Basket()
        assert parse_basket(" 2 x ( 1 , 2 ) ") == B((1, 2), (1, 2))

    def test_format_groups_multiplicities(self):
        assert format_basket(MIXED) == "2x(1,2),(1,3),(1,4),3x(2,5)"
        assert format_basket(Basket()) == ""

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            basket = random_basket(rng)
            assert parse_basket(format_basket(basket)) == basket

    @given(st.lists(st.tuples(pair_strategy(), st.integers(min_value=1, max_value=4)), max_size=6))
    def test_parse_inverts_format(self, items):
        # multiplicities from repeated pairs, and the empty basket at max_size 0
        basket = Basket(pair for pair, k in items for _ in range(k))
        assert parse_basket(format_basket(basket)) == basket

    @pytest.mark.parametrize("bad", [
        "(1,2),,(2,5)", "(1,2", "0x(1,2)", "x(1,2)", "(2,3)", "(1,2)(2,5)", "(1)",
    ])
    def test_rejects_bad_text(self, bad):
        with pytest.raises(BasketSyntaxError):
            parse_basket(bad)

    def test_multiplicity_is_bounded_before_allocation(self):
        # checked before the list is built, so no large allocation starts
        with pytest.raises(BasketSyntaxError, match=rf"'{10 ** 12}x\(1,2\)'"):
            parse_basket(f"{10 ** 12}x(1,2)")
        # the bound is on all the items together
        with pytest.raises(BasketSyntaxError, match=r"too many basket entries at '\(1,3\)'"):
            parse_basket(f"{MAX_BASKET_ENTRIES}x(1,2),(1,3)")
        assert len(parse_basket(f"{MAX_BASKET_ENTRIES}x(1,2)")) == MAX_BASKET_ENTRIES

    def test_rational_serialization(self):
        assert format_rational(Fraction(1, 330)) == "1/330"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-6)) == "-6"

    @given(st.fractions())
    def test_parse_rational_inverts_format_rational(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_parse_rational_reads_a_bare_decimal_point(self):
        assert parse_rational(" .5 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "3/-4", "", "1/2/3", "x"])
    def test_parse_rational_names_the_bad_token(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"not an exact rational: {bad!r}")):
            parse_rational(bad)

    def test_parse_rational_reads_exponents_up_to_4300(self):
        assert parse_rational("1e-4300") == Fraction(1, 10 ** 4300)
        assert parse_rational(" 25E+4300 ") == 25 * 10 ** 4300
        assert parse_rational("-1.5e-3") == Fraction(-3, 2000)

    @pytest.mark.parametrize("bad", [
        "1e-4301", "1E4301", "2.5e+100000000", "1e-100000000", "1e-" + "9" * 5000,
    ], ids=["e-4301", "E4301", "e+10^8", "e-10^8", "5000 digits"])
    def test_parse_rational_rejects_a_larger_exponent_at_once(self, bad):
        # Fraction would spend seconds on 10 ** 10000000 and minutes on more
        with pytest.raises(ValueError) as info:
            parse_rational(bad)
        assert str(info.value) == f"not an exact rational: {bad!r}"

    @pytest.mark.parametrize("text", [
        "1", "-0", "007", "17/660", "3/04", "0/5", "1/0", "1/-2", "--1", "+1", " 1", "1 ", "1_000",
        "\u0661\u0662", "0x10", "1.5", "1e5", "1e4301", "", "7" * 4301, "-" + "7" * 4300 + "/3",
    ], ids=lambda text: text if len(text) < 20 else f"{len(text)} chars")
    def test_parse_rational_equals_the_fraction_parser(self, text):
        # ASCII "p" and "p/q" skip Fraction's text parser; every token reads
        # as it did through it alone: the same value, or the same error
        def through_fraction(text):
            try:
                if abs(int(text.lower().partition("e")[2] or 0)) > 4300:
                    raise ValueError("exponent beyond 4300")
                return Fraction(text.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"not an exact rational: {text!r}") from exc

        def outcome(parse):
            try:
                value = parse(text)
            except ValueError as exc:
                return "error", str(exc)
            return type(value), value

        assert outcome(parse_rational) == outcome(through_fraction)

    def test_counts_are_integer_triples_in_canonical_order(self):
        assert Basket().counts() == []
        assert MIXED.counts() == [(1, 2, 2), (1, 3, 1), (1, 4, 1), (2, 5, 3)]
        # a non-coprime packing keeps its own (b, r), apart from its lowest terms
        packed = B((2, 6), (1, 3), (1, 2), (2, 4), (1, 3), (3, 6))
        assert packed.counts() == [(1, 2, 1), (1, 3, 2), (2, 4, 1), (2, 6, 1), (3, 6, 1)]
        assert all(type(x) is int for triple in packed.counts() for x in triple)


class TestInvariants:
    def test_sigma(self):
        assert sigma(MIXED) == 10
        assert sigma(X66) == 6

    def test_sigma_prime(self):
        assert sigma_prime(MIXED) == Fraction(239, 60)
        assert sigma_prime(X66) == Fraction(659, 330)

    def test_delta_examples(self):
        assert delta_n(B((1, 2)), 3) == 1
        assert delta_n(B((1, 2)), 4) == 2
        assert delta_n(B((2, 5)), 5) == 5
        with pytest.raises(ValueError):
            delta_n(B((1, 2)), 1)

    def test_gamma_examples(self):
        assert gamma(X66) == Fraction(1361, 330)
        assert gamma(B(*[(1, 2)] * 12)) == 6

    def test_r_index_examples(self):
        assert (r_index(X66), r_max(X66)) == (330, 11)
        assert r_index(B((1, 2), (1, 3), (2, 5), (1, 7), (1, 8))) == 840
        assert (r_index(B((1, 2))), r_max(B((1, 2)))) == (2, 2)


class TestPlurigenera:
    def test_volume_examples(self):
        assert anti_volume(WeightedBasket(X66, 1)) == Fraction(1, 330)
        assert anti_volume(WeightedBasket(MIXED, 0)) == Fraction(1, 60)
        assert anti_volume(WeightedBasket(Basket(), 3)) == 0

    def test_recursion_examples(self):
        assert plurigenus(WeightedBasket(X66, 1), 24) == 16
        assert plurigenus(WeightedBasket(B((1, 2), (2, 5), (2, 7), (1, 9)), 1), 31) == 96
        assert plurigenus(WeightedBasket(X66, 1), 1) == 1

    def test_public_values_are_ints(self):
        # the kernel's integers cross the public boundary unwrapped
        rng = random.Random(5)
        for _ in range(50):
            wb = WeightedBasket(random_basket(rng, coprime=False), rng.randint(0, 4))
            assert all(type(p) is int for p in plurigenus_sequence(wb, 12))
            assert type(plurigenus(wb, 7)) is int
            assert type(delta_n(wb.basket, 5)) is int

    def test_closed_form_examples(self):
        assert plurigenus_closed(X66, Fraction(1, 330), 24) == 16
        assert plurigenus_closed(Basket(), Fraction(0), 5) == 11

    def test_closed_form_seed_matches_p1_formula(self):
        # the closed form at n = 1 must reproduce
        # P_{-1} = (-K^3 + sigma')/2 - sigma/2 + 3 for any volume
        basket = B((1, 2))
        for k3 in (Fraction(1, 7), Fraction(3), Fraction(-2, 5)):
            expected = (k3 + sigma_prime(basket)) / 2 - Fraction(sigma(basket), 2) + 3
            assert plurigenus_closed(basket, k3, 1) == expected

    def test_l_term_examples(self):
        assert l_term(Basket(), 9) == 0
        assert l_term(B((1, 2)), 1) == Fraction(1, 4)
        assert l_term(B((1, 2)), 2) == Fraction(1, 4)

    def test_recursion_equals_closed_form(self):
        rng = random.Random(2024)
        for _ in range(100):
            wb = WeightedBasket(random_basket(rng), rng.randint(0, 3))
            seq = plurigenus_sequence(wb, 30)
            k3 = anti_volume(wb)
            for m in (1, 2, 3, 7, 18, 30):
                assert seq[m] == plurigenus_closed(wb.basket, k3, m)

    @given(pair_strategy(rmax=60), st.integers(min_value=1, max_value=60))
    @settings(max_examples=300, deadline=None)
    def test_delta_pair_terms_are_integers(self, pair, n):
        # the kernel's premise, non-coprime pairs included: with bn = qr + s
        # the pair term (s(r - s) - bn(r - bn)) / (2r) is q(qr + 2s - r)/2
        b, r = pair.b, pair.r
        bn = b * n
        q, s = divmod(bn, r)
        assert (s * (r - s) - bn * (r - bn)) % (2 * r) == 0
        assert q * (q * r + 2 * s - r) % 2 == 0
        if n >= 2:
            assert delta_n(Basket([pair]), n) == q * (q * r + 2 * s - r) // 2

    def test_sigma_identity_is_automatic(self):
        # 10 - 5 P_{-1} + P_{-2} = sigma holds identically for the recursion
        rng = random.Random(5)
        for _ in range(200):
            wb = WeightedBasket(random_basket(rng, coprime=False), rng.randint(0, 4))
            seq = plurigenus_sequence(wb, 2)
            assert 10 - 5 * seq[1] + seq[2] == sigma(wb.basket)

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_empty_basket_closed_form(self, p1, m):
        # no orbifold part: P_{-m} is a pure polynomial in m
        wb = WeightedBasket(Basket(), p1)
        assert plurigenus(wb, m) == plurigenus_closed(Basket(), anti_volume(wb), m)


@pytest.mark.parametrize("call, message", [
    (lambda: plurigenus(WeightedBasket(X66, 1), 0), "plurigenus needs m >= 1, got 0"),
    (lambda: plurigenus_sequence(WeightedBasket(X66, 1), -2), "plurigenus_sequence needs upto >= 1, got -2"),
    (lambda: l_term(X66, 0), "l_term needs n >= 1, got 0"),
    (lambda: plurigenus_closed(X66, Fraction(1, 330), 0), "plurigenus_closed needs n >= 1, got 0"),
], ids=["plurigenus", "plurigenus_sequence", "l_term", "plurigenus_closed"])
def test_argument_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestGeometricFilter:
    def test_x66_passes_all_defaults(self):
        assert geometric_filter(WeightedBasket(X66, 1)).ok

    def test_zero_volume_fails_first(self):
        res = geometric_filter(WeightedBasket(B(*[(1, 2)] * 12), 0))
        assert not res.ok
        assert res.first_failure.startswith("volume_positive")

    def test_empty_basket_seed_zero(self):
        res = geometric_filter(WeightedBasket(Basket(), 0))
        assert not res.ok
        assert res.first_failure.startswith("volume_positive")

    def test_toggles_are_individual(self):
        wb = WeightedBasket(B(*[(1, 2)] * 12), 0)
        config = FilterConfig.none()
        assert geometric_filter(wb, config).ok
        only_gamma = FilterConfig(
            **{**config._asdict(), "gamma_nonneg": True}
        )
        assert geometric_filter(wb, only_gamma).ok

    def test_index_bound(self):
        # lcm 7 * 11 * 13 = 1001 > 660 and != 840
        wb = WeightedBasket(B((1, 7), (1, 11), (1, 13)), 1)
        res = geometric_filter(wb, FilterConfig(**{
            **FilterConfig.none()._asdict(), "index_bound": True,
        }))
        assert not res.ok and "index_bound" in res.first_failure

    def test_integrality_is_automatic_negativity_is_not(self):
        # the recursion increment is an integer for every basket (both the
        # orbifold correction and the polynomial part are), so the
        # integrality toggle is a pure safety net; negativity is the signal
        # that actually fires on non-geometric seeds
        rng = random.Random(99)
        for _ in range(300):
            wb = WeightedBasket(random_basket(rng, coprime=False), rng.randint(0, 4))
            assert all(p.denominator == 1 for p in plurigenus_sequence(wb, 16)[1:])
        res = geometric_filter(WeightedBasket(B((2, 5)), 0))
        assert not res.ok
        assert any(f.startswith("integrality") for f in res.failures) or \
            res.first_failure.startswith("volume_positive")
