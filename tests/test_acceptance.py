"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Every tolerance here is exact: the computations are rational arithmetic,
so equality is equality.
"""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

from conftest import random_basket
from reidbasket.canonical import epsilon_n, unpack
from reidbasket.classify import ClassificationConstraints, classify, enumerate_b0, enumerate_index_profiles
from reidbasket.core import (
    Basket,
    WeightedBasket,
    anti_volume,
    delta_n,
    gamma,
    plurigenus_closed,
    plurigenus_sequence,
    r_index,
    r_max,
    sigma,
    sigma_prime,
)
from reidbasket.criteria import (
    BranchSpec,
    PipelinePolicy,
    floor_plus_sqrt,
    lambda_of,
    rr_lower_bound,
    table_pipeline,
    theta,
    theta_max,
)
from reidbasket.fixtures import load_table, verify_table
from reidbasket.packing import pack_once

B = Basket.of
ACCEPTANCE_TABLES = [1, 6, 9, 10, 11, 12, 13, 15, 16, 17, 18, 20, 24, 26, 28, 30]


def test_acceptance_1_cross_formula_oracle():
    """Recursion and Riemann-Roch closed form agree on 500 random weighted
    baskets for every 1 <= m <= 60."""
    rng = random.Random(20260808)
    checked = 0
    for _ in range(500):
        wb = WeightedBasket(
            random_basket(rng, max_entries=8, rmax=24, coprime=True),
            rng.randint(0, 3),
        )
        seq = plurigenus_sequence(wb, 60)
        k3 = anti_volume(wb)
        for m in range(1, 61):
            assert seq[m] == plurigenus_closed(wb.basket, k3, m), (wb, m)
            checked += 1
    assert checked == 500 * 60
    print(f"\nPASS acceptance 1: recursion == closed form on {checked} (basket, m) pairs")


def test_acceptance_2_x66_reproduction():
    wb = WeightedBasket(B((1, 2), (2, 5), (1, 3), (2, 11)), 1)
    assert anti_volume(wb) == Fraction(1, 330)
    assert r_index(wb.basket) == 330
    assert plurigenus_sequence(wb, 24)[24] == 16
    report = table_pipeline(wb, PipelinePolicy(case=3, branches=(
        BranchSpec("|-24K| and |-5K| not composed with the same pencil",
                   "b", case=3, m1=24),
        BranchSpec("|-24K| and |-5K| composed with the same pencil",
                   "b2", mu0=Fraction(24, 15), n0=1),
    )))
    assert report.m_big == 1
    assert report.lam == 1
    assert report.n1 == 37
    assert report.m0 == 5
    b2_branch = [br for br in report.branches if br.criterion == "b2"]
    assert b2_branch and b2_branch[0].n2 == 52
    assert report.headline_n2 == 52
    print("\nPASS acceptance 2: X66 invariants and the m >= 52 birationality bound")


def test_acceptance_3_table_verification():
    total_cells = 0
    for table_id in ACCEPTANCE_TABLES:
        report = verify_table(table_id)
        assert report.ok, "\n".join(report.lines())
        total_cells += report.cells_checked
    print(f"\nPASS acceptance 3: {len(ACCEPTANCE_TABLES)} tables verified "
          f"({total_cells} cells, flags honored)")


def test_acceptance_4_classifications():
    # (a) P_{-1} = P_{-2} = 1, P_{-8} = 2
    result_a = classify(ClassificationConstraints(p_fixed={1: 1, 2: 1, 8: 2}))
    assert {wb.basket for wb in result_a} == {
        B((1, 2), (2, 5), (1, 3), (1, 4), (1, s)) for s in (9, 10, 11)
    }
    # (b) P_{-1} = P_{-2} = 0, P_{-8} = 2: exactly the published four
    result_b = classify(ClassificationConstraints(p_fixed={1: 0, 2: 0, 8: 2}))
    table18 = {row.basket for row in load_table(18).rows}
    assert {wb.basket for wb in result_b} == table18
    # (c) Gorenstein index 840 with P_{-1} = P_{-2} = 1: the published five,
    # and the volume bound holds on every admissible index-840 basket
    result_c = enumerate_index_profiles(ClassificationConstraints(p_fixed={1: 1, 2: 1}, rx_exact=840))
    table16 = {row.basket for row in load_table(16).rows}
    assert {wb.basket for wb in result_c} == table16
    every_840 = enumerate_index_profiles(ClassificationConstraints(p_ranges={1: (0, 4)}, rx_exact=840))
    assert every_840 and all(anti_volume(wb) >= Fraction(47, 840) for wb in every_840)
    print("\nPASS acceptance 4: classifications a (3 baskets), b (4 baskets), "
          "c (5 baskets, volume >= 47/840)")


def test_acceptance_5_rr_lower_bound_spot_checks():
    value = rr_lower_bound(Fraction(1, 30), 24, 18, Fraction(18, 8))
    assert value == Fraction(403, 20)
    assert value > 20          # hence P_{-18} >= 21
    value = rr_lower_bound(Fraction(3, 25), 13, 10, Fraction(30, 13))
    assert value == Fraction(463, 30)
    assert value > 15          # hence P_{-10} >= 16
    print("\nPASS acceptance 5: Riemann-Roch lower bounds 403/20 and 463/30")


def test_acceptance_6a_packing_monotonicity():
    rng = random.Random(6001)
    cases = 0
    for _ in range(10_000):
        basket = random_basket(rng, min_entries=2, max_entries=6, rmax=24, coprime=False)
        i, j = rng.sample(range(len(basket)), 2)
        child = pack_once(basket, i, j)
        p1 = rng.randint(0, 3)
        assert sigma(child) == sigma(basket)
        assert sigma_prime(child) <= sigma_prime(basket)
        assert gamma(child) <= gamma(basket)
        n = rng.randint(2, 30)
        assert delta_n(child, n) <= delta_n(basket, n)
        assert anti_volume(WeightedBasket(child, p1)) >= anti_volume(WeightedBasket(basket, p1))
        m = rng.randint(2, 10)
        before = plurigenus_sequence(WeightedBasket(basket, p1), m)
        after = plurigenus_sequence(WeightedBasket(child, p1), m)
        assert after[m] >= before[m]
        cases += 1
    print(f"\nPASS acceptance 6a: packing monotonicity on {cases} random packings")


def test_acceptance_6b_canonical_coherence():
    rng = random.Random(6002)
    cases = 0
    for _ in range(10_000):
        basket = random_basket(rng, max_entries=5, rmax=24, coprime=True)
        n = rng.choice((5, 6, 7, 8, 10, 13, 17, 24))
        prev = 0 if n == 5 else n - 1
        level_n = unpack(basket, n)
        assert unpack(level_n, prev) == unpack(basket, prev)
        eps = epsilon_n(basket, n)       # asserts integrality and >= 0 itself
        assert eps >= 0
        assert epsilon_n(basket, 6) == 0
        p1 = rng.randint(0, 2)
        j = rng.randint(1, min(n, 9))
        assert (
            plurigenus_sequence(WeightedBasket(level_n, p1), j)[j]
            == plurigenus_sequence(WeightedBasket(basket, p1), j)[j]
        )
        cases += 1
    print(f"\nPASS acceptance 6b: canonical-sequence coherence on {cases} random baskets")


def test_acceptance_6c_lambda_dominates_theta():
    cases = 0
    for m_big in range(1, 2001):
        for rx in (60, 330, 660, 840):
            lam = lambda_of(m_big, rx)
            if m_big <= 650:
                # exhaustive in N
                for n_part in range(1, m_big + 1):
                    assert lam >= theta(m_big, rx, n_part)
                    cases += 1
            else:
                assert lam >= theta_max(m_big, rx)
                cases += 1
    assert cases >= 10_000
    print(f"\nPASS acceptance 6c: lambda >= theta on {cases} (M, r_X, N) cases")


def test_acceptance_6d_sqrt_bracketing_vs_decimal():
    getcontext().prec = 50

    def reference(mu: Fraction, v: Fraction) -> int:
        value = (
            Decimal(mu.numerator) / Decimal(mu.denominator)
            + (Decimal(v.numerator) / Decimal(v.denominator)).sqrt()
        )
        return int(value.__floor__())

    cases = 0
    # every threshold the fixture rows give rise to
    for table_id in ACCEPTANCE_TABLES:
        fixture = load_table(table_id)
        if fixture.kind != "pipeline":
            continue
        for row in fixture.rows:
            basket = row.basket
            wb = WeightedBasket(basket, fixture.p1)
            k3 = anti_volume(wb)
            if k3 <= 0:
                continue
            rx = r_index(basket)
            m_big = rx * k3
            if m_big.denominator != 1:
                continue
            lam = lambda_of(int(m_big), rx)
            seq = plurigenus_sequence(wb, 8)
            m0 = next((m for m in range(1, 9) if seq[m] >= 2), 8)
            # small-index thresholds floor(mu0' + sqrt(8 r_X / N0))
            for n0 in (1, 2):
                mu = Fraction(m0)
                v = Fraction(8 * rx, n0)
                assert floor_plus_sqrt(mu, v) == reference(mu, v)
                cases += 1
            # pencil-exclusion thresholds floor(-3/4 + sqrt(...)) + 1
            for t in (Fraction(1), Fraction(35, 8), Fraction(37, 8), Fraction(12)):
                v = 12 / (t * k3) + 6 * lam / k3 + Fraction(1, 16)
                assert floor_plus_sqrt(Fraction(-3, 4), v) == reference(Fraction(-3, 4), v)
                cases += 1
    fixture_cases = cases
    rng = random.Random(6004)
    while cases < 12_000:
        mu = Fraction(rng.randint(-3, 60), rng.randint(1, 16))
        v = Fraction(rng.randint(0, 10 ** 8), rng.randint(1, 10 ** 3))
        assert floor_plus_sqrt(mu, v) == reference(mu, v)
        cases += 1
    print(f"\nPASS acceptance 6d: exact sqrt bracketing == 50-digit decimal on "
          f"{cases} thresholds ({fixture_cases} from fixtures)")


def test_acceptance_7_brute_force_equivalence(baskets_sum_r_20):
    constraint_sets = [
        ClassificationConstraints(p_fixed={1: 1, 2: 1, 3: 1, 4: 2}, sigma5=(0, 0)),
        ClassificationConstraints(p_fixed={1: 1, 2: 1}, p_ranges={3: (1, 2), 4: (2, 4)},
                                  sigma5=(0, 0)),
        ClassificationConstraints(p_fixed={1: 1, 2: 1, 3: 1, 4: 2}, sigma5=(0, 1),
                                  tail_max_index=5),
        ClassificationConstraints(p_fixed={1: 2, 2: 4}, p_ranges={3: (4, 6)}, sigma5=(0, 0)),
        ClassificationConstraints(p_fixed={1: 1, 2: 0}),
    ]
    for constraints in constraint_sets:
        roots = enumerate_b0(constraints)
        assert all(sum(p.r for p in wb.basket) <= 20 for wb, _ in roots), \
            "constraint set out of the oracle's reach"
        via_engine = set(classify(constraints))
        via_oracle = {
            WeightedBasket(basket, p1)
            for basket in baskets_sum_r_20
            for p1 in constraints.p1_values()
            if constraints.admits(WeightedBasket(basket, p1))
        }
        assert via_engine == via_oracle
    print(f"\nPASS acceptance 7: classify == direct enumeration on "
          f"{len(constraint_sets)} constraint sets over {len(baskets_sum_r_20)} baskets")
