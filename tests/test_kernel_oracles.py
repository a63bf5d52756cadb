"""The integer plurigenus kernel and its fast paths against plain Fraction references.

Each reference below is written out here in ``Fraction``s, independently of
the package's integer kernel: the recursion, the geometric filter, the
eager pencil scan, the basket invariants and the classification
predicates.  The fast paths must agree with them exactly, failure messages
included.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reidbasket.classify as classify_module
import reidbasket.core as core_module
from conftest import random_basket
from reidbasket.canonical import b0_from_plurigenera, unpack
from reidbasket.classify import (
    ClassificationConstraints,
    S,
    _chain_state,
    _index_profiles,
    _k3_window,
    _multisets,
    _prune_factory,
    _roots,
    _windows,
    classify,
    enumerate_b0,
    parse_constraints,
)
from reidbasket.core import (
    MAX_VISITED,
    Basket,
    FilterConfig,
    WeightedBasket,
    _record,
    _superadditivity_failure,
    anti_volume,
    delta_n,
    format_rational,
    gamma,
    geometric_filter,
    plurigenus_closed,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
    sigma_prime,
)
from reidbasket.criteria import first_not_pencil, lambda_of
from reidbasket.fixtures import available_tables, load_table
from reidbasket.packing import all_of, closure, dominates, gamma_at_least, pack_once, single_packings, volume_at_most

SINGLE_CHECKS = tuple(
    name for name in FilterConfig._fields if type(FilterConfig._field_defaults[name]) is bool
)


def reference_delta(basket: Basket, n: int) -> Fraction:
    total = Fraction(0)
    for p in basket:
        s = (p.b * n) % p.r
        total += Fraction(s * (p.r - s) - p.b * n * (p.r - p.b * n), 2 * p.r)
    return total


def reference_sigma_prime(basket: Basket) -> Fraction:
    return sum((Fraction(p.b * p.b, p.r) for p in basket), Fraction(0))


def reference_gamma(basket: Basket) -> Fraction:
    return 24 + sum((Fraction(1, p.r) - p.r for p in basket), Fraction(0))


def reference_volume(wb: WeightedBasket) -> Fraction:
    return 2 * wb.p1 + sum(p.b for p in wb.basket) - reference_sigma_prime(wb.basket) - 6


# memoized: the filter oracle reads one basket's sequence once per config
@functools.lru_cache(maxsize=4096)
def reference_sequence(wb: WeightedBasket, upto: int) -> list[Fraction]:
    sig = sum(p.b for p in wb.basket)
    seq = [Fraction(0), Fraction(wb.p1)]
    for m in range(2, upto + 1):
        step = (Fraction(m * m, 2) * (2 * wb.p1 + sig - 6) + 2
                - Fraction(m, 2) * sig - reference_delta(wb.basket, m))
        seq.append(seq[-1] + step)
    return seq


def reference_filter(wb: WeightedBasket, config: FilterConfig) -> tuple[str, ...]:
    failures: list[str] = []
    basket = wb.basket
    vol = reference_volume(wb)
    if config.volume_positive and not vol > 0:
        failures.append(f"volume_positive: -K^3 = {format_rational(vol)} <= 0")
    if config.min_volume and not vol >= Fraction(1, 330):
        failures.append(f"min_volume: -K^3 = {format_rational(vol)} < 1/330")
    if config.gamma_nonneg:
        g = reference_gamma(basket)
        if g < 0:
            failures.append(f"gamma_nonneg: gamma = {format_rational(g)} < 0")
    if config.rmax_le_24 and len(basket) and r_max(basket) > 24:
        failures.append(f"rmax_le_24: r_max = {r_max(basket)}")
    if config.index_bound:
        rx = r_index(basket)
        if rx > 660 and rx != 840:
            failures.append(f"index_bound: r_X = {rx}")
        elif rx == 840 and r_max(basket) != 8:
            failures.append(f"index_bound: r_X = 840 needs r_max = 8, got {r_max(basket)}")
    horizon = 24
    seq = reference_sequence(wb, horizon)
    if config.integrality:
        for m in range(1, horizon + 1):
            if seq[m].denominator != 1 or seq[m] < 0:
                failures.append(f"integrality: P[-{m}] = {format_rational(seq[m])}")
                break
    if config.p_positive_from_6:
        for m in range(6, horizon + 1):
            if not seq[m] > 0:
                failures.append(f"p_positive_from_6: P[-{m}] = {format_rational(seq[m])}")
                break
    if config.p8_at_least_2 and not seq[8] >= 2:
        failures.append(f"p8_at_least_2: P[-8] = {format_rational(seq[8])}")
    if config.superadditivity:
        pairs = ((m, n) for m in range(1, horizon) for n in range(m, horizon - m + 1))
        for m, n in pairs:
            if seq[m] > 0 and seq[n] > 0 and seq[m + n] < seq[m] + seq[n] - 1:
                failures.append(
                    f"superadditivity: P[-{m + n}] = {format_rational(seq[m + n])} "
                    f"< P[-{m}] + P[-{n}] - 1"
                )
                break
    return tuple(failures)


def eager_first_not_pencil(wb: WeightedBasket, window: int, limit: int) -> int:
    rx = r_index(wb.basket)
    m_big = rx * anti_volume(wb)
    lam = lambda_of(int(m_big), rx)
    seq = reference_sequence(wb, limit + window)
    good = [False, *(seq[n] > lam * n + 1 for n in range(1, limit + window))]
    for m in range(1, limit + 1):
        if all(good[m:m + window]):
            return m
    raise RuntimeError(f"no pencil-free m found below {limit}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def table_weighted_baskets() -> list[WeightedBasket]:
    out = []
    for table_id in available_tables():
        fixture = load_table(table_id)
        if fixture.kind == "pipeline":
            out.extend(WeightedBasket(row.basket, fixture.p1) for row in fixture.rows)
    return out


def seeded_weighted_baskets(
    seed: int, count: int, coprime: bool = True, rmax: int = 24
) -> list[WeightedBasket]:
    rng = random.Random(seed)
    return [
        WeightedBasket(random_basket(rng, max_entries=9, rmax=rmax, coprime=coprime), rng.randint(0, 3))
        for _ in range(count)
    ]


class TestRecursion:
    def test_sequence_and_delta_match_fraction_recursion(self):
        # the per-pair table up to the horizon 24 and the recursion after it,
        # on non-coprime pairs with r up to 30
        for wb in seeded_weighted_baskets(31, 150, coprime=False, rmax=30):
            reference = reference_sequence(wb, 40)
            assert plurigenus_sequence(wb, 40) == reference
            assert [plurigenus_sequence(wb, m) for m in (1, 8, 24)] == [reference[:m + 1] for m in (1, 8, 24)]
            for n in (2, 3, 7, 29):
                assert delta_n(wb.basket, n) == reference_delta(wb.basket, n)

    def test_empty_basket(self):
        wb = WeightedBasket(Basket(), 2)
        assert plurigenus_sequence(wb, 10) == reference_sequence(wb, 10)


class TestGeometricFilter:
    CONFIGS = (FilterConfig(), FilterConfig.none()) + tuple(
        FilterConfig.none()._replace(**{name: True}) for name in SINGLE_CHECKS
    )

    def test_failures_identical_to_fraction_filter(self, bench_universe):
        # a result decides ok when it is built and words its failures when
        # they are read, so every order of reading must give the reference:
        # the cases take the six orders in turn and read each value twice
        cases = table_weighted_baskets()[::7] + seeded_weighted_baskets(32, 150)
        cases += seeded_weighted_baskets(33, 60, coprime=False, rmax=30)
        cases += [WeightedBasket(b, p1) for b in bench_universe[::41] for p1 in range(4)]
        orders = itertools.cycle(itertools.permutations(("ok", "failures", "first_failure")))
        seen: set[str] = set()
        passed = 0
        for wb in cases:
            for config in self.CONFIGS:
                expected = reference_filter(wb, config)
                reference = {"ok": not expected, "failures": expected,
                             "first_failure": expected[0] if expected else None}
                order = next(orders)
                result = geometric_filter(wb, config)
                for name in order + order:
                    assert getattr(result, name) == reference[name], (str(wb), config, order)
                assert bool(result) == reference["ok"]
                seen.update(f.split(":")[0] for f in expected)
            passed += geometric_filter(wb).ok
        # the sample exercises every check and includes geometric baskets
        assert seen == set(SINGLE_CHECKS)
        assert passed > 0
        assert {wb.p1 for wb in cases} == {0, 1, 2, 3}

    def test_deciding_ok_words_no_failure(self, monkeypatch):
        # 12x(1,2) at P_{-1} = 0 fails volume_positive and min_volume
        wb = WeightedBasket(Basket.of(*[(1, 2)] * 12), 0)

        def refuse(result):
            raise AssertionError("a failure was worded")

        checks = [(name, failed, refuse) for name, failed, _ in core_module._CHECKS]
        monkeypatch.setattr(core_module, "_CHECKS", tuple(checks))
        result = geometric_filter(wb)
        assert result.ok is False and not result
        assert not ClassificationConstraints(p_fixed={1: 0}).admits(wb)
        with pytest.raises(AssertionError, match="worded"):
            result.first_failure
        with pytest.raises(AssertionError, match="worded"):
            result.failures

    def test_superadditivity_one_pass_matches_the_ordered_scan(self, bench_universe):
        # the one-pass test on the increments is only sufficient: where it
        # fails the ordered scan decides, and both must give the first failing
        # (m, n) of the plain scan over every pair
        outcomes = {"one pass": 0, "scan holds": 0, "fails": 0}
        for wb in [WeightedBasket(b, p1) for b in bench_universe[::4] for p1 in range(4)] + (
            seeded_weighted_baskets(34, 300, coprime=False, rmax=30)
        ):
            p = plurigenus_sequence(wb, 24)
            expected = next((
                (m, n) for m in range(1, 24) for n in range(m, 25 - m)
                if p[m] > 0 and p[n] > 0 and p[m + n] < p[m] + p[n] - 1
            ), None)
            assert _superadditivity_failure(p) == expected, str(wb)
            d = [p[k] - p[k - 1] - (k == 1) for k in range(1, 25)]
            one_pass = all(d[j - 1] >= max(d[:j // 2]) for j in range(2, 25))
            assert not (one_pass and expected)
            outcomes["fails" if expected else "one pass" if one_pass else "scan holds"] += 1
        assert min(outcomes.values()) > 0, outcomes


class TestFirstNotPencil:
    def cases(self) -> list[WeightedBasket]:
        cases = table_weighted_baskets()[::5] + seeded_weighted_baskets(35, 120)[:60]
        return [wb for wb in cases if anti_volume(wb) > 0]

    @pytest.mark.parametrize("window", [1, 6])
    def test_lazy_scan_matches_eager_scan(self, window):
        results = []
        for wb in self.cases():
            got = outcome(first_not_pencil, wb, window)
            assert got == outcome(eager_first_not_pencil, wb, window, 400), str(wb)
            results.append(got)
        assert any(isinstance(r, int) and r > 1 for r in results)

    @pytest.mark.parametrize("window", [1, 6])
    def test_small_limit_still_raises(self, window):
        raised = 0
        for wb in self.cases():
            got = outcome(first_not_pencil, wb, window, 4)
            assert got == outcome(eager_first_not_pencil, wb, window, 4), str(wb)
            raised += isinstance(got, str)
        assert raised > 0
        with pytest.raises(RuntimeError, match="below 4"):
            first_not_pencil(WeightedBasket(Basket.of((1, 2), (2, 5), (1, 3), (2, 11)), 1), window, 4)


def invariant_cases() -> list[Basket]:
    rng = random.Random(36)
    return [Basket()] + [
        random_basket(rng, max_entries=12, rmax=30, coprime=rng.random() < 0.5)
        for _ in range(500)
    ]


class TestGamma:
    def test_matches_fraction_sum(self):
        for basket in invariant_cases():
            assert gamma(basket) == reference_gamma(basket)


class TestVolume:
    def test_sigma_prime_and_volume_match_fraction_sums(self):
        for basket in invariant_cases():
            assert sigma_prime(basket) == reference_sigma_prime(basket)
            for p1 in (0, 1, 3):
                wb = WeightedBasket(basket, p1)
                assert anti_volume(wb) == reference_volume(wb)


def reference_record(basket: Basket) -> tuple:
    """(r_X, r_max, sigma, r_X sigma', r_X gamma), with r_max 0 on the empty basket."""
    rs = [p.r for p in basket]
    rx = math.lcm(*rs)
    return (rx, max(rs, default=0), sum(p.b for p in basket),
            reference_sigma_prime(basket) * rx, reference_gamma(basket) * rx)


# the public reads that fill a fresh basket's record, any one of them first
FIRST_READS = (
    sigma, sigma_prime, gamma, r_index, hash,
    lambda b: r_max(b) if len(b) else None,
    lambda b: anti_volume(WeightedBasket(b, 1)),
    lambda b: geometric_filter(WeightedBasket(b, 2)),
)


def nonterminal_packings(seed: int, count: int) -> list[Basket]:
    """Seeded packings of coprime roots that hold a non-terminal entry."""
    rng = random.Random(seed)
    out: list[Basket] = []
    while len(out) < count:
        basket = random_basket(rng, max_entries=10, rmax=12, min_entries=3)
        for _ in range(rng.randint(1, len(basket) - 1)):
            basket = pack_once(basket, *rng.sample(range(len(basket)), 2))
        if not basket.all_terminal:
            out.append(basket)
    return out


class TestRecord:
    SPECIAL = (Basket(), Basket.of(*[(1, 2)] * 1000), Basket.of((1, 8), (1, 3), (2, 5), (3, 7)))

    @staticmethod
    def check(basket: Basket, first) -> None:
        fresh = Basket(basket.entries)
        first(fresh)
        expected = reference_record(basket)
        assert _record(fresh) == expected, str(basket)
        assert (r_index(fresh), sigma(fresh), sigma_prime(fresh), gamma(fresh)) == (
            expected[0], expected[2], reference_sigma_prime(basket), reference_gamma(basket))
        for p1 in (0, 3):
            wb = WeightedBasket(fresh, p1)
            assert anti_volume(wb) == reference_volume(wb)
        if len(fresh):
            assert r_max(fresh) == expected[1]
        else:
            with pytest.raises(ValueError, match="r_max is undefined on the empty basket"):
                r_max(fresh)

    def test_universe_baskets(self, bench_universe):
        # each basket reads one of the public invariants first, in turn
        for i, basket in enumerate(bench_universe):
            self.check(basket, FIRST_READS[i % len(FIRST_READS)])

    def test_nonterminal_packings_and_edge_baskets(self):
        cases = nonterminal_packings(41, 500) + list(self.SPECIAL)
        assert TestRecord.SPECIAL[2] in cases and r_index(TestRecord.SPECIAL[2]) == 840
        for basket in cases:
            for first in FIRST_READS:
                self.check(basket, first)


# the bounds of the clause oracle: negative, zero, the smallest volume and a
# positive one, each on both sides of some basket of the seeded roots
CLAUSE_BOUNDS = (Fraction(-7, 3), Fraction(0), Fraction(1, 330), Fraction(5, 2))


def clause_roots() -> list[Basket]:
    """Seeded roots, most of them level-0 unpackings as in the session's
    pack op, and 16x(1,2), whose gamma is exactly 0."""
    rng = random.Random(42)
    roots = [Basket.of(*[(1, 2)] * 16)]
    while len(roots) < 31:
        basket = random_basket(rng, max_entries=5, rmax=13, min_entries=1)
        if reference_gamma(basket) >= -2:
            roots.append(unpack(basket, 0) if rng.random() < 0.7 else basket)
    return roots


class TestClauseIntegerForms:
    """The prune clauses compare a basket's record integers; the Fraction
    clauses they replaced are the reference."""

    @pytest.mark.parametrize("bound", CLAUSE_BOUNDS, ids=str)
    def test_closures_match_the_fraction_clauses(self, bound):
        # the same baskets, visited count and truncation, on full and on
        # truncated searches; ``cut_inside`` counts the searches that a
        # clause cut below the root
        cut_inside = {"gamma": 0, "volume": 0, "both": 0}
        for root in clause_roots():
            free = len(closure(root).baskets)
            for p1 in range(4):
                ref_gamma = lambda b: reference_gamma(b) >= bound  # noqa: E731
                ref_volume = lambda b: reference_volume(WeightedBasket(b, p1)) <= bound  # noqa: E731
                cases = (
                    ("gamma", gamma_at_least(bound), ref_gamma),
                    ("volume", volume_at_most(bound, p1), ref_volume),
                    ("both", all_of(gamma_at_least(bound), volume_at_most(bound, p1)),
                     lambda b: ref_gamma(b) and ref_volume(b)),
                )
                for name, clause, reference in cases:
                    for budget in (MAX_VISITED, 6):
                        got = closure(Basket(root.entries), prune=clause, max_visited=budget)
                        assert got == closure(root, prune=reference, max_visited=budget), (str(root), p1, budget)
                    cut_inside[name] += 0 < len(got.baskets) < free
        assert all(cut_inside.values()), cut_inside

    def test_the_bound_itself_passes(self):
        root = Basket.of(*[(1, 2)] * 16)
        assert gamma(root) == 0
        assert closure(root, prune=gamma_at_least(0)).baskets == (root,)
        assert not gamma_at_least(Fraction(1, 10 ** 9))(root)
        wb = WeightedBasket(Basket.of((1, 2), (2, 5)), 2)
        assert volume_at_most(anti_volume(wb), 2)(wb.basket)
        assert not volume_at_most(anti_volume(wb) - Fraction(1, 10 ** 9), 2)(wb.basket)

    def test_a_negative_p1_is_rejected_when_the_clause_is_built(self):
        with pytest.raises(ValueError, match="P_{-1} must be a non-negative integer"):
            volume_at_most(1, -1)

    def test_dominates_matches_closure_membership(self):
        # two siblings share sigma and sum(r), so their closures meet the
        # fast rejects and the pruned search decides
        rng = random.Random(43)
        verdicts = []
        for _ in range(40):
            root = random_basket(rng, max_entries=6, rmax=9, min_entries=4)
            first, second = rng.sample(single_packings(root), 2)
            reachable = set(closure(first).baskets)
            for other in closure(second).baskets:
                verdicts.append(dominates(first, other))
                assert verdicts[-1] == (other in reachable), (str(first), str(other))
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def reference_rmax_ceiling(constraints) -> int | None:
    """The r_max no admitted basket can exceed: the upper ends of rmax=,
    indices= and the r_X bounds (r_max divides r_X), 8 for r_X = 840 under
    the index filter, and 24 wherever r_max <= 24 is checked."""
    caps = []
    if constraints.rmax_range is not None:
        caps.append(constraints.rmax_range[1])
    if constraints.allowed_indices is not None:
        caps.append(max(constraints.allowed_indices, default=1))
    caps += [rx for rx in (constraints.rx_max, constraints.rx_exact) if rx is not None]
    if constraints.rx_exact == 840 and constraints.filters.index_bound:
        caps.append(8)
    if constraints.filters.rmax_le_24:
        caps.append(24)
    return min(caps) if caps else None


def reference_prune(constraints, p1: int, basket: Basket, final: int) -> bool:
    """The chain walk's cut, in Fractions: gamma >= 0, the upper k3 end, and
    the P_{-m} windows with m >= 5, their lower ends only for m <= ``final``.

    The root fixes P_{-1}..P_{-4} (``_roots`` draws the roots from
    their ranges), and the walk stops at the r_max ceiling, so neither is a
    clause here."""
    if constraints.filters.gamma_nonneg and reference_gamma(basket) < 0:
        return False
    wb = WeightedBasket(basket, p1)
    vol = reference_volume(wb)
    hi = constraints.k3_max
    if hi is not None and (vol > hi or (vol == hi and constraints.k3_max_strict)):
        return False
    for m in constraints.constrained_ms():
        low, top = constraints.p_bounds(m)
        value = plurigenus_closed(basket, vol, m)
        if m >= 5 and (value > top or (m <= final and value < low)):
            return False
    return True


def reference_k3_ok(constraints, vol: Fraction) -> bool:
    """Whether -K^3 = ``vol`` lies within the k3 ends, each strict or inclusive."""
    lo, hi = constraints.k3_min, constraints.k3_max
    if lo is not None and (vol < lo or (vol == lo and constraints.k3_min_strict)):
        return False
    return hi is None or vol < hi or (vol == hi and not constraints.k3_max_strict)


def reference_admits(constraints, wb: WeightedBasket) -> bool:
    assert constraints.sigma5 is None
    vol = reference_volume(wb)
    # the rules of the walk's roots: coprime entries, a level-0 basket with
    # gamma >= 0 and indices at most tailmax, and P_{-2..4} >= 0
    if not wb.basket.all_terminal:
        return False
    level0 = unpack(wb.basket, 0)
    if gamma(level0) < 0 or any(p.r > constraints.tail_max_index for p in level0):
        return False
    if any(plurigenus_closed(wb.basket, vol, m) < 0 for m in (2, 3, 4)):
        return False
    if not reference_k3_ok(constraints, vol):
        return False
    rs = [p.r for p in wb.basket]
    rx = math.lcm(*rs)
    if constraints.allowed_indices is not None and any(r not in constraints.allowed_indices for r in rs):
        return False
    if constraints.rmax_range is not None:
        low, top = constraints.rmax_range
        if not rs or max(rs) < low or max(rs) > top:
            return False
    if constraints.rx_exact is not None and rx != constraints.rx_exact:
        return False
    if constraints.rx_max is not None and rx > constraints.rx_max:
        return False
    for m in constraints.constrained_ms():
        v = plurigenus_closed(wb.basket, vol, m)
        low, top = constraints.p_bounds(m)
        if v.denominator != 1 or v < low or v > top:
            return False
    return not reference_filter(wb, constraints.filters)


CENSUS_INPUTS = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "inputs").glob("census_*.txt")
)

# sets with volume bounds, met by -K^3 on strict and on inclusive ends; the
# lower end 0 is also cut by the filter's volume_positive, so the last two
# sets put a lower end on a geometric basket.  p[3]=3..9 is a lower P bound
# that the filter does not imply.
BOUNDED_SETS = (
    "p[1]=0..3 p[2]=0..6 k3=(0,1/30)",
    "p[1]=0..3 p[3]=3..9 k3=[0,1/2]",
    "p[1]=1 p[2]=1 k3=(1/330,1/30)",
    "p[1]=1 p[2]=1 k3=[1/330,1/30]",
)

# sets with index bounds: the largest r_X and r_max they admit are met by
# the baskets they find
INDEX_SETS = ("p[1]=0 rx<=12", "p[1]=0..1 rmax=5..7 indices={2,3,5,7}")

# sets where the rules of the walk's roots decide what the filter does not:
# P_{-2..4} >= 0 under the gamma filter alone, and the level-0 tail cap
ROOT_RULE_SETS = ("p[1]=0..2 filters=gamma", "p[1]=0..2 tailmax=6")

# each sits on an end of a bounded set: -K^3 = 0, 1/30 and 1/2 on
# non-geometric baskets, and 1/2, 1/30, 1/330 on geometric ones
ON_THE_BOUNDS = (
    WeightedBasket(Basket(), 3),
    WeightedBasket(Basket.of((2, 5), (1, 6)), 2),
    WeightedBasket(Basket.of((1, 2)), 3),
    WeightedBasket(Basket.of(*[(1, 2)] * 13), 0),
    WeightedBasket(Basket.of((1, 2), (1, 3), (2, 5), (1, 6), (1, 6)), 1),
    WeightedBasket(Basket.of((1, 2), (2, 5), (1, 3), (2, 11)), 1),
)


# k3 ends off the S grid, on it (1/30; 0), negative, and past the float range
K3_ENDS = {
    "1/37": Fraction(1, 37), "1/330": Fraction(1, 330), "1/30": Fraction(1, 30), "0": Fraction(0),
    "-1/37": Fraction(-1, 37), "-7/330": Fraction(-7, 330), "1e-4300": Fraction(10) ** -4300,
    "1e4300": Fraction(10) ** 4300, "-1e4300": -Fraction(10) ** 4300,
}


class TestClassifyPredicates:
    """``prune_ok`` and ``admits`` on one shared pool of weighted baskets.

    The pool mixes seeded baskets (non-geometric ones included), the
    baskets on the volume bounds, and a sample of what ``classify`` finds
    for every set, so each set also meets baskets found by its neighbours
    (a P_{-3} = 2 basket for the lower end of ``p[3]=3..9``, say).
    ``prune_ok`` reads the integers ``_chain_state`` carries for a basket,
    at the root (final = 4), at the level of each window and with every
    window final.
    """

    def constraint_sets(self) -> list:
        assert len(CENSUS_INPUTS) == 3
        texts = [path.read_text() for path in CENSUS_INPUTS] + list(BOUNDED_SETS + INDEX_SETS + ROOT_RULE_SETS)
        return [parse_constraints(text) for text in texts]

    def pool(self, sets) -> list[WeightedBasket]:
        rng = random.Random(40)
        pool = [
            WeightedBasket(
                random_basket(rng, max_entries=9, rmax=30, coprime=rng.random() < 0.5),
                rng.randint(0, 4),
            )
            for _ in range(150)
        ]
        pool += ON_THE_BOUNDS
        for constraints in sets:
            found = classify(constraints)
            pool += found[::max(1, len(found) // 30)]
        return pool

    @pytest.mark.parametrize("strict", [False, True], ids=["inclusive", "strict"])
    @pytest.mark.parametrize("end", K3_ENDS.values(), ids=K3_ENDS)
    def test_k3_window_matches_fraction_reference(self, end, strict):
        # each end alone, then as the upper end with a lower end one below it
        for fields in ({"k3_min": end, "k3_min_strict": strict}, {"k3_max": end, "k3_max_strict": strict},
                       {"k3_min": end - 1, "k3_max": end, "k3_max_strict": strict}):
            c = ClassificationConstraints(p_fixed={1: 1}, **fields)
            lo, hi = _k3_window(c)
            assert (lo == -math.inf) == (c.k3_min is None) and (hi == math.inf) == (c.k3_max is None)
            for v, inside in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
                if v not in (-math.inf, math.inf):
                    assert reference_k3_ok(c, Fraction(v, S)) == inside, (fields, v)

    def test_prune_and_admits_match_fraction_references(self):
        sets = self.constraint_sets()
        pool = self.pool(sets)
        verdicts = {True: 0, False: 0}
        on_bounds = 0
        windows_cut = 0
        for constraints in sets:
            prune_ok = _prune_factory(constraints)
            ms = tuple(m for m, _, _ in _windows(constraints))
            for wb in pool:
                if wb.p1 not in constraints.p1_values():
                    continue
                on_bounds += reference_volume(wb) in (constraints.k3_min, constraints.k3_max)
                got = constraints.admits(wb)
                assert got == reference_admits(constraints, wb), (constraints, str(wb))
                verdicts[got] += 1
                state = _chain_state(wb.p1, wb.basket.counts(), ms)
                for final in {4, 24, *ms}:
                    kept = prune_ok(*state, final)
                    expected = reference_prune(constraints, wb.p1, wb.basket, final)
                    assert kept == expected, (constraints, str(wb), final)
                    verdicts[kept] += 1
                windows_cut += prune_ok(*state, 4) and not prune_ok(*state, 24)
        assert verdicts[True] > 0 and verdicts[False] > 0
        # every basket of ON_THE_BOUNDS lies on an end of some set
        assert on_bounds >= len(ON_THE_BOUNDS)
        # a final lower end cuts what the upper ends keep
        assert windows_cut > 0


def census_sets() -> list:
    assert len(CENSUS_INPUTS) == 3
    return [parse_constraints(path.read_text()) for path in CENSUS_INPUTS]


class TestRmaxCeiling:
    """The r_max-ceiling prune cuts states only, never an admitted basket."""

    # the census rx=840 set, then sets whose ceiling comes from rx<=N
    # (below and above the gamma cap 24), rmax= and indices=
    SETS = (
        "p[1]=0..4 p[2]=0..1 rx=840",
        "p[1]=0 rx<=12",
        "p[1]=0 rx<=60",
        "p[1]=0 rmax=2..7",
        "p[1]=0 indices={2,3,5,7}",
    )

    @staticmethod
    def run(constraints, monkeypatch, ceiling: bool):
        visited = []
        walk = classify_module._walk

        def counting_walk(roots, constraints):
            leaves, states = walk(roots, constraints)
            visited.append(states)
            return leaves, states

        with monkeypatch.context() as patch:
            patch.setattr(classify_module, "_walk", counting_walk)
            if not ceiling:
                patch.setattr(classify_module, "_rmax_ceiling", lambda constraints: None)
            return classify_module._classify_walk(constraints), sum(visited)

    @pytest.mark.parametrize("text", SETS)
    def test_same_baskets_fewer_states(self, text, monkeypatch):
        constraints = parse_constraints(text)
        found, visited = self.run(constraints, monkeypatch, ceiling=True)
        unpruned, visited_unpruned = self.run(constraints, monkeypatch, ceiling=False)
        assert found and found == unpruned
        if reference_rmax_ceiling(constraints) < 24:
            assert visited < visited_unpruned
        else:
            assert visited == visited_unpruned

    @pytest.mark.parametrize("text, ceiling", [
        ("p[1]=0", 24),
        ("p[1]=0 filters=none", None),
        ("p[1]=0 filters=rmax24", 24),
        ("p[1]=0 rmax=3..9", 9),
        ("p[1]=0 rmax=30..40 filters=none", 40),
        ("p[1]=0 indices={2,5,11}", 11),
        ("p[1]=0 rx<=12", 12),
        ("p[1]=0 rx=10 filters=none", 10),
        ("p[1]=0 rx=840", 8),
        ("p[1]=0 rx=840 filters=gamma", 840),
        ("p[1]=0 filters=gamma", None),
    ])
    def test_ceiling_follows_the_upper_ends(self, text, ceiling):
        constraints = parse_constraints(text)
        assert classify_module._rmax_ceiling(constraints) == ceiling
        assert reference_rmax_ceiling(constraints) == ceiling


class TestNoP2Clause:
    """``prune_ok`` has no P_{-2} clause: P_{-2} = 5 P_{-1} + sigma - 10 and
    sigma is a packing invariant, so every state keeps the P_{-2} of its
    root, and ``_roots`` draws the roots from the p[2] range."""

    P2_SETS = ("p[1]=1 p[2]=1 p[8]=2", "p[1]=0..4 p[2]=0..1 rx=840", "p[1]=1 p[2]=1..3")

    @pytest.mark.parametrize("text", ("p[1]=0",) + P2_SETS)
    def test_every_root_lies_in_its_p2_range(self, text):
        constraints = parse_constraints(text)
        lo, hi = constraints.p_bounds(2)
        roots = enumerate_b0(constraints)
        assert roots
        for wb, (_, p2, _, _) in roots:
            assert plurigenus_closed(wb.basket, reference_volume(wb), 2) == p2
            assert (lo is None or lo <= p2) and (hi is None or p2 <= hi)

    @pytest.mark.parametrize("text", P2_SETS)
    def test_classify_unchanged_by_a_p2_clause(self, text, monkeypatch):
        # the walk carries P_{-2} too, and prune_ok cuts on both its ends
        constraints = parse_constraints(text)
        windows = classify_module._windows

        def with_p2_window(constraints):
            return ((2, *constraints.p_bounds(2)),) + windows(constraints)

        def with_empty_p2_window(constraints):
            return ((2, 1, 0),) + windows(constraints)

        walk = classify_module._classify_walk
        found = walk(constraints)
        monkeypatch.setattr(classify_module, "_windows", with_p2_window)
        assert found and walk(constraints) == found
        # the window is read: one that no P_{-2} meets cuts every root
        monkeypatch.setattr(classify_module, "_windows", with_empty_p2_window)
        assert walk(constraints) == []


class TestNoMinVolumeClause:
    """``prune_ok`` has no min-volume clause 2 P_{-1} + sigma - 6 <= 0: sigma
    is a packing invariant, so along a chain the clause reads its root, and
    every root keeps P_{-2..4} >= 0, which leaves one root it cuts, the
    empty basket at P_{-1} = 3.  That root has no packings, and ``admits``
    turns it away by its -K^3 = 0."""

    SETS = [path.read_text() for path in CENSUS_INPUTS] + ["p[1]=3"]

    @staticmethod
    def clause_cuts(p1: int, sig: int) -> bool:
        return 2 * p1 + sig - 6 <= 0

    def test_the_clause_cuts_one_root(self):
        roots = enumerate_b0(parse_constraints("p[1]=0..6"))
        assert len(roots) == 11517
        cut = [wb for wb, _ in roots if self.clause_cuts(wb.p1, sigma(wb.basket))]
        assert cut == [WeightedBasket(Basket(), 3)]
        assert not parse_constraints("p[1]=3").admits(cut[0])

    @pytest.mark.parametrize("text", SETS)
    def test_classify_unchanged_by_a_min_volume_clause(self, text, monkeypatch):
        constraints = parse_constraints(text)
        assert constraints.filters.min_volume
        roots = classify_module._roots
        kept = []

        def without_the_roots_it_cuts(constraints):
            for p1, triples in roots(constraints):
                if not self.clause_cuts(p1, sum(b * k for b, _, k in triples)):
                    kept.append(p1)
                    yield p1, triples

        walk = classify_module._classify_walk
        found = walk(constraints)
        monkeypatch.setattr(classify_module, "_roots", without_the_roots_it_cuts)
        assert found and walk(constraints) == found
        # the walk drew its roots through the clause
        assert len(kept) == len(list(roots(constraints))) - (text == "p[1]=3")


def reference_root_gamma(n12: int, n13: int, n14: int, tail: dict[int, int]) -> Fraction:
    entries = {2: n12, 3: n13, 4: n14, **tail}
    return 24 - sum((k * (r - Fraction(1, r)) for r, k in entries.items()), Fraction(0))


def reference_tails(p1, p2, p3, p4, sigma5_cap, tail_max=24) -> list[dict[int, int]]:
    """Every tail {r >= 5: n0[1,r]} of at most sigma5_cap entries whose
    level-0 basket has gamma >= 0, gamma summed in Fractions entry by entry."""
    n12 = 5 - 6 * p1 + 4 * p2 - p3
    n13 = 4 - 2 * p1 - 2 * p2 + 3 * p3 - p4
    n14_full = 1 + 3 * p1 - p2 - 2 * p3 + p4
    if n12 < 0 or n13 < 0 or reference_root_gamma(n12, n13, n14_full, {}) < 0:
        return []
    out = []

    def rec(start: int, tail: dict[int, int]) -> None:
        out.append(dict(tail))
        if sum(tail.values()) >= sigma5_cap:
            return
        for r in range(start, tail_max + 1):
            grown = {**tail, r: tail.get(r, 0) + 1}
            if reference_root_gamma(n12, n13, n14_full - sum(grown.values()), grown) < 0:
                break  # the cost r - 1/r grows with r
            rec(r, grown)

    rec(5, {})
    return out


def census_level0_tuples(constraints):
    """(p1, p2, p3, p4, sigma5 cap) over the ranges ``enumerate_b0`` walks."""
    for p1 in constraints.p1_values():
        lo2, hi2 = constraints.p_bounds(2)
        cap2 = 6 + 5 * p1  # sigma(B0) = 10 - 5 p1 + p2 <= 16
        for p2 in range(lo2 or 0, (cap2 if hi2 is None else min(hi2, cap2)) + 1):
            for p3 in range(0, 5 - 6 * p1 + 4 * p2 + 1):
                for p4 in range(0, 4 - 2 * p1 - 2 * p2 + 3 * p3 + 1):
                    yield p1, p2, p3, p4, 1 + 3 * p1 - p2 - 2 * p3 + p4


def reference_roots(constraints) -> list:
    """``enumerate_b0`` the long way, for sets that bound P_{-m} only at m <= 2:
    the plurigenus tuples, the Fraction tails and ``b0_from_plurigenera``,
    sorted by (P_{-1}, basket)."""
    s5lo, s5hi = constraints.sigma5 or (0, math.inf)
    roots = []
    for p1, p2, p3, p4, cap in census_level0_tuples(constraints):
        cap = min(cap, s5hi)
        if cap < s5lo:
            continue  # n0[1,4] < sigma5: the tuple has no level-0 basket
        for tail in reference_tails(p1, p2, p3, p4, cap, constraints.tail_max_index):
            if sum(tail.values()) >= s5lo:
                wb = WeightedBasket(b0_from_plurigenera(p1, p2, p3, p4, tail), p1)
                roots.append((wb, (p1, p2, p3, p4)))
    return sorted(roots, key=lambda item: (item[0].p1, item[0].basket.sort_key()))


def reference_root_set(constraints) -> set:
    """The walk's roots the long way, for any P_{-2..4} windows: every
    multiset of (1, r) entries within the gamma budget, at every P_{-1} in
    range, kept when its tail meets ``tail_max_index`` and ``sigma5`` and
    ``plurigenus_sequence`` puts its P_{-2..4} at >= 0 within their ranges."""
    s5lo, s5hi = constraints.sigma5 or (0, math.inf)
    windows = [(m, *constraints.p_bounds(m)) for m in (2, 3, 4)]
    roots = set()
    for entries in _multisets(tuple(range(2, 25))):
        tail = [r for r in entries if r >= 5]
        if any(r > constraints.tail_max_index for r in tail) or not s5lo <= len(tail) <= s5hi:
            continue
        basket = Basket.of(*((1, r) for r in entries))
        for p1 in constraints.p1_values():
            wb = WeightedBasket(basket, p1)
            p = plurigenus_sequence(wb, 4)
            if all(p[m] >= 0 and (lo is None or p[m] >= lo) and (hi is None or p[m] <= hi) for m, lo, hi in windows):
                roots.add(wb)
    return roots


def reference_profiles(lcm_target: int) -> list[tuple[int, ...]]:
    """Every multiset of divisors d >= 2 of the target with lcm equal to it
    and Sigma(d - 1/d) <= 24, summed in Fractions."""
    divisors = [d for d in range(2, lcm_target + 1) if lcm_target % d == 0]
    out = []

    def rec(start: int, current: list[int], spent: Fraction) -> None:
        if current and math.lcm(*current) == lcm_target:
            out.append(tuple(sorted(current, reverse=True)))
        for i in range(start, len(divisors)):
            d = divisors[i]
            cost = spent + d - Fraction(1, d)
            if cost > 24:
                break
            rec(i, current + [d], cost)

    rec(0, [], Fraction(0))
    return sorted(out)


class TestIntegerGammaBudgets:
    """``_multisets`` spends gamma in integers scaled by S = lcm(2..32) for
    the roots and the profiles; the references spend it in Fractions."""

    def test_tails_match_fraction_reference_on_census_tuples(self):
        # whole root lists, tuples and order included, and per root its
        # P_{-1..4} by the kernel and its rebuild from them
        texts = [path.read_text() for path in CENSUS_INPUTS]
        texts += ["p[1]=0..6", "p[1]=0..3 sigma5=1..2", "p[1]=0..3 tailmax=7", "p[1]=0..3 k3=(0,1/30)"]
        for text in texts:
            constraints = parse_constraints(text)
            roots = enumerate_b0(constraints)
            assert roots and roots == reference_roots(constraints), text
            for wb, plurigenera in roots:
                assert tuple(plurigenus_sequence(wb, 4)[1:]) == plurigenera
                tail: dict[int, int] = {}
                for pair in wb.basket:
                    if pair.r >= 5:
                        tail[pair.r] = tail.get(pair.r, 0) + 1
                assert b0_from_plurigenera(*plurigenera, tail) == wb.basket

    @pytest.mark.parametrize("text", [
        "p[1]=0..60 p[3]=3..40", "p[1]=0..60 p[4]=10..80", "p[1]=0..60 p[2]=20..90 p[3]=40..200 p[4]=0..600",
        "p[1]=0..8 p[3]=0..9 p[4]=5..30 sigma5=1..3 tailmax=11",
    ])
    def test_roots_meet_their_p3_and_p4_windows(self, text):
        # every P_{-1} of the range, each root once
        constraints = parse_constraints(text)
        roots = [
            WeightedBasket(Basket.of(*((b, r) for b, r, k in triples for _ in range(k))), p1)
            for p1, triples in _roots(constraints)
        ]
        assert roots and len(roots) == len(set(roots))
        assert set(roots) == reference_root_set(constraints)

    def test_tail_index_cap_beyond_24_changes_nothing(self):
        # no index above 24 fits a gamma budget, so a huge tailmax= is cut
        # to 24 instead of asking for lcm(2..tailmax)
        for text in ("p[1]=0..6", "p[1]=0..3 sigma5=1..2"):
            unbounded = parse_constraints(f"{text} tailmax=1000000000")
            assert enumerate_b0(unbounded) == enumerate_b0(parse_constraints(text))
        # the cap itself is reached: 1x(1,24) alone is a root, gamma = 1/24
        roots = dict(enumerate_b0(parse_constraints("p[1]=3")))
        assert roots[WeightedBasket(Basket.of((1, 24)), 3)] == (3, 6, 11, 19)
        assert b0_from_plurigenera(3, 6, 11, 19, {24: 1}) == Basket.of((1, 24))
        text = "p[1]=0..4 p[2]=0..1 rx=840"
        assert classify(parse_constraints(f"{text} tailmax=1000000000")) == classify(
            parse_constraints(text)
        )

    def test_budget_exactly_zero(self):
        # 16x(1,2): n0[1,2] = 16, the rest 0, gamma = 24 - 16 * 3/2 = 0
        sixteen = Basket.of(*[(1, 2)] * 16)
        roots = dict(enumerate_b0(parse_constraints("p[1]=0")))
        assert roots[WeightedBasket(sixteen, 0)] == (0, 6, 13, 31)
        assert b0_from_plurigenera(0, 6, 13, 31) == sixteen
        assert reference_root_gamma(16, 0, 0, {}) == 0
        # one (1,2) more and nothing is left
        universe = list(_multisets(tuple(range(2, 25))))
        assert (2,) * 16 in universe and (2,) * 17 not in universe
        assert reference_root_gamma(17, 0, 0, {}) < 0

    def test_multiset_universe(self):
        # every level-0 basket with gamma >= 0, the empty one first
        universe = list(_multisets(tuple(range(2, 25))))
        assert len(universe) == len(set(universe)) == 2152
        assert universe[0] == () and max(map(len, universe)) == 16
        assert all(list(m) == sorted(m) for m in universe)
        assert all(sum(r - Fraction(1, r) for r in m) <= 24 for m in universe)

    def test_roots_keep_gamma_nonnegative(self):
        for constraints in census_sets():
            roots = enumerate_b0(constraints)
            assert roots
            for wb, _ in roots:
                assert reference_gamma(wb.basket) >= 0

    @pytest.mark.parametrize("lcm_target", [12, 60, 420, 660, 840])
    def test_profiles_match_fraction_reference(self, lcm_target):
        got = _index_profiles(lcm_target)
        assert sorted(got) == reference_profiles(lcm_target)
        assert all(list(p) == sorted(p, reverse=True) for p in got)

    def test_profile_spending_the_whole_budget(self):
        # 12 + 4 + 3 + 3 + 2 + 2 - (1/12 + 1/4 + 2/3 + 1) = 24
        profile = (12, 4, 3, 3, 2, 2)
        assert sum(d - Fraction(1, d) for d in profile) == 24
        assert profile in _index_profiles(12)
