"""The public record types: plain NamedTuples and the __slots__ classes
``OrbifoldPair`` and ``Basket``.

No module of the package loads ``dataclasses`` (nor ``inspect`` through
it), which keeps every CLI process's start-up short.  These tests pin what
the records promise: immutability, value equality and hashing, the (r, b)
order of basket entries, the validation messages and pickling.
"""

import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import src_env
from reidbasket.canonical import in_level_set
from reidbasket.classify import ClassificationConstraints, parse_constraints
from reidbasket.core import (
    Basket,
    FilterConfig,
    OrbifoldPair,
    WeightedBasket,
    gamma,
    geometric_filter,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
)
from reidbasket.criteria import CriterionInputs

X66 = Basket.of((1, 2), (2, 5), (1, 3), (2, 11))


def test_no_dataclasses_or_inspect_on_import():
    code = (
        "import sys, reidbasket.cli, reidbasket.fixtures; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestOrbifoldPair:
    def test_immutable(self):
        pair = OrbifoldPair(2, 5)
        with pytest.raises(AttributeError):
            pair.b = 1
        with pytest.raises(AttributeError):
            del pair.r
        with pytest.raises(AttributeError):
            pair.extra = 0
        assert (pair.b, pair.r) == (2, 5)

    def test_value_equality_and_hash(self):
        assert OrbifoldPair(2, 5) == OrbifoldPair(2, 5)
        assert hash(OrbifoldPair(2, 5)) == hash(OrbifoldPair(2, 5))
        assert OrbifoldPair(2, 5) != OrbifoldPair(1, 5)
        assert len({OrbifoldPair(1, 2), OrbifoldPair(1, 2), OrbifoldPair(1, 3)}) == 2

    def test_not_a_tuple(self):
        assert not isinstance(OrbifoldPair(1, 2), tuple)
        assert OrbifoldPair(1, 2) != (1, 2)
        assert (1, 2) != OrbifoldPair(1, 2)

    def test_order_is_r_then_b(self):
        # in (b, r) order (2,5) would follow (1,6); in (r, b) order it precedes it
        low, high = OrbifoldPair(2, 5), OrbifoldPair(1, 6)
        assert low < high and high > low and not high < low
        assert max(low, high) is high and min(low, high) is low
        pairs = [OrbifoldPair(1, 6), OrbifoldPair(2, 5), OrbifoldPair(1, 5), OrbifoldPair(1, 2)]
        assert [(p.b, p.r) for p in sorted(pairs)] == [(1, 2), (1, 5), (2, 5), (1, 6)]

    @pytest.mark.parametrize("b, r, message", [
        (0, 2, "pair (0,2): b must be >= 1"),
        (1, 1, "pair (1,1): r must be >= 2"),
        (3, 5, "pair (3,5): needs 2b <= r"),
    ])
    def test_validation_messages(self, b, r, message):
        with pytest.raises(ValueError) as info:
            OrbifoldPair(b, r)
        assert str(info.value) == message

    def test_repr(self):
        assert repr(OrbifoldPair(2, 5)) == "OrbifoldPair(b=2, r=5)"


def test_basket_is_immutable():
    basket = Basket.of((1, 2), (2, 5))
    with pytest.raises(AttributeError):
        basket.entries = ()
    with pytest.raises(AttributeError):
        del basket.entries
    assert basket == Basket.of((2, 5), (1, 2)) and len(basket) == 2


class TestBasketCaches:
    """A basket fills its hash and its integer record on first use; neither
    shows in its value, its hash or its pickle."""

    def test_caches_cannot_be_set_or_deleted(self):
        fresh, filled = Basket.of((1, 2), (2, 5)), Basket.of((1, 2), (2, 5))
        hash(filled), gamma(filled)
        for basket in (fresh, filled):
            for name in ("_ints", "_hash"):
                with pytest.raises(AttributeError, match="Basket is immutable"):
                    setattr(basket, name, None)
                with pytest.raises(AttributeError, match="Basket is immutable"):
                    delattr(basket, name)
        assert fresh == filled and hash(fresh) == hash(filled) and gamma(fresh) == gamma(filled)

    @pytest.mark.parametrize("basket", [X66, Basket(), Basket.of(*[(1, 2)] * 1000)],
                             ids=["x66", "empty", "1000x(1,2)"])
    def test_hash_is_the_entry_tuple_hash(self, basket):
        # so every set and dict of baskets iterates as it did before the cache
        assert hash(basket) == hash(basket.entries) == hash(Basket(basket.entries))

    def test_pickle_round_trip_of_filled_caches(self):
        basket = Basket.of((1, 2), (2, 5), (1, 3), (3, 7))
        value = (hash(basket), r_index(basket), sigma(basket), gamma(basket))
        copy = pickle.loads(pickle.dumps(basket))
        assert copy == basket and copy is not basket
        assert (hash(copy), r_index(copy), sigma(copy), gamma(copy)) == value

    def test_plurigenus_sequence_is_a_fresh_list_on_each_call(self):
        wb = WeightedBasket(X66, 1)
        first, second = plurigenus_sequence(wb, 24), plurigenus_sequence(wb, 24)
        assert first == second and first is not second and len(first) == 25
        first[8] = -1
        assert plurigenus_sequence(wb, 24) == second

    def test_r_max_of_the_empty_basket_still_raises_after_its_record(self):
        empty = Basket()
        assert (r_index(empty), sigma(empty), gamma(empty)) == (1, 0, 24)
        with pytest.raises(ValueError, match="r_max is undefined on the empty basket"):
            r_max(empty)


class TestWeightedBasket:
    def test_immutable_equal_hashable(self):
        wb = WeightedBasket(X66, 1)
        with pytest.raises(AttributeError):
            wb.p1 = 2
        assert wb == WeightedBasket(Basket.of((2, 11), (1, 2), (2, 5), (1, 3)), 1)
        assert hash(wb) == hash(WeightedBasket(X66, 1))
        assert wb != WeightedBasket(X66, 2)
        assert (wb.basket, wb.p1) == (X66, 1)

    def test_validation_message(self):
        for build in (lambda: WeightedBasket(X66, -1),
                      lambda: WeightedBasket(X66, 1)._replace(p1=-1)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == "P_{-1} must be a non-negative integer"

    def test_replace_keeps_the_type(self):
        wb = WeightedBasket(X66, 1)._replace(p1=3)
        assert type(wb) is WeightedBasket and wb.p1 == 3
        assert str(wb) == "((1,2),(1,3),(2,5),(2,11); p1=3)"


class TestFilterResult:
    def test_a_passing_result(self):
        result = geometric_filter(WeightedBasket(X66, 1))
        assert (result.ok, result.failures, result.first_failure, bool(result)) == (True, (), None, True)

    def test_a_failing_result_words_its_failures_on_each_read(self):
        result = geometric_filter(WeightedBasket(Basket.of(*[(1, 2)] * 12), 0))
        assert (result.ok, bool(result)) == (False, False)
        failures = ("volume_positive: -K^3 = 0 <= 0", "min_volume: -K^3 = 0 < 1/330")
        assert result.failures == failures and result.failures is not result.failures
        assert result.first_failure == failures[0]
        only_rmax = FilterConfig.none()._replace(rmax_le_24=True)
        result = geometric_filter(WeightedBasket(Basket.of((1, 25)), 4), only_rmax)
        assert result.failures == ("rmax_le_24: r_max = 25",)

    def test_immutable_and_not_a_tuple(self):
        result = geometric_filter(WeightedBasket(X66, 1))
        for attr in ("ok", "failures", "first_failure", "_volume"):
            with pytest.raises(AttributeError):
                setattr(result, attr, None)
            with pytest.raises(AttributeError):
                delattr(result, attr)
        with pytest.raises(AttributeError):
            result.extra = 0
        assert not isinstance(result, tuple)
        assert not hasattr(result, "_replace") and not hasattr(result, "_asdict")


class TestCriterionInputs:
    FIELDS = dict(k3=Fraction(1, 66), rx=660, rmax=11, m_big=10, m0=4, m1=5, mu0=Fraction(4))

    def test_fields_and_defaults(self):
        inputs = CriterionInputs(**self.FIELDS)
        assert (inputs.nu0, inputs.n0, inputs.a_m0) == (1, None, 6)
        assert inputs._replace(m1=8).m1 == 8

    @pytest.mark.parametrize("change, message", [
        ({"m_big": 11}, "M must equal r_X * (-K^3) exactly"),
        ({"m1": 3}, "m1 >= m0 is required"),
    ])
    def test_validation_messages(self, change, message):
        for build in (lambda: CriterionInputs(**{**self.FIELDS, **change}),
                      lambda: CriterionInputs(**self.FIELDS)._replace(**change)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message


class TestFractionLevelSet:
    # the admissible fraction sets S(level) are queried by ``in_level_set``
    def test_validation_message(self):
        with pytest.raises(ValueError) as info:
            in_level_set(Fraction(1, 3), 3)
        assert str(info.value) == "levels 1-4 are not defined (got 3)"


class TestClassificationConstraints:
    def test_default_maps_are_read_only(self):
        c = ClassificationConstraints(p_ranges={1: (0, 2)})
        assert dict(c.p_fixed) == {} and c.p_bounds(2) == (None, None)
        with pytest.raises(TypeError):
            c.p_fixed[1] = 1

    @pytest.mark.parametrize("m", [1, 8])
    def test_an_m_both_fixed_and_ranged_is_rejected(self, m):
        c = ClassificationConstraints(p_fixed={1: 1, 8: 2}, p_ranges={2: (0, 3)})
        message = f"P_{{-m}} for m = {m} is both in p_fixed and in p_ranges"
        for build in (
            lambda: ClassificationConstraints(p_fixed={1: 1, 8: 2}, p_ranges={m: (0, 3)}),
            lambda: c._replace(p_ranges={2: (0, 3), m: (0, 3)}),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("change, message", [
        ({"p_fixed": {0: 3}}, "P_{-m} needs m >= 1, got m = 0"),
        ({"p_ranges": {1: (-2, 0)}}, "P_{-1} must be >= 0, got -2"),
        ({"p_ranges": {2: (3, 1)}}, "empty range 3..1 for P_{-2}"),
        ({"sigma5": (3, 2)}, "empty range 3..2 for sigma5"),
        ({"rmax_range": (9, 5)}, "empty range 9..5 for rmax_range"),
        ({"k3_min": Fraction(1, 2), "k3_max": Fraction(1, 30)}, "empty k3 interval [1/2,1/30]"),
        ({"k3_min": Fraction(1, 30), "k3_max": Fraction(1, 30), "k3_max_strict": True},
         "empty k3 interval [1/30,1/30)"),
        ({"rx_exact": 0}, "rx_exact must be >= 1, got 0"),
        ({"rx_max": -840}, "rx_max must be >= 1, got -840"),
    ])
    def test_value_rules(self, change, message):
        c = ClassificationConstraints(p_fixed={8: 2}, p_ranges={3: (0, 4)})
        for build in (lambda: ClassificationConstraints(**change), lambda: c._replace(**change)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_value_rules_hold_under_optimize_flag(self):
        # the rules are explicit checks, not asserts
        code = (
            "from reidbasket.classify import ClassificationConstraints, parse_constraints\n"
            "for build in (lambda: ClassificationConstraints(p_fixed={0: 3}),\n"
            "              lambda: parse_constraints('p[1]=1 p[2]=3..1'),\n"
            "              lambda: parse_constraints('p[1]=1 k3=(1/2,1/30)'),\n"
            "              lambda: parse_constraints('p[1]=1 rx=0')):\n"
            "    try:\n"
            "        build()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=src_env()
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "P_{-m} needs m >= 1, got m = 0\n"
            "bad constraints token 'p[2]=3..1': empty range 3..1 for P_{-2}\n"
            "bad constraints token 'k3=(1/2,1/30)': empty k3 interval (1/2,1/30)\n"
            "bad constraints token 'rx=0': rx_exact must be >= 1, got 0\n"
        )

    def test_replace(self):
        c = parse_constraints("p[1]=1 p[2]=1 p[8]=2")
        wide = c._replace(tail_max_index=30)
        assert (wide.tail_max_index, c.tail_max_index) == (30, 24)
        assert wide._replace(tail_max_index=24) == c


@pytest.mark.parametrize("value", [
    X66,
    Basket(),
    OrbifoldPair(2, 5),
    WeightedBasket(X66, 1),
    FilterConfig.none(),
    parse_constraints("p[1]=0..4 p[2]=0..1 rx=840 k3=(0,1/30) indices={2,3,5,7,8}"),
    ClassificationConstraints(p_ranges={1: (0, 2)}),
], ids=["basket", "empty-basket", "pair", "weighted-basket", "filters",
        "parsed-constraints", "default-map-constraints"])
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)
