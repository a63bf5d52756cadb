import io
import random
from contextlib import redirect_stdout
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from reidbasket import criteria
from reidbasket.cli import main
from reidbasket.core import (
    Basket,
    WeightedBasket,
    anti_volume,
    geometric_filter,
    plurigenus_sequence,
    r_max,
)
from reidbasket.criteria import (
    BranchSpec,
    _lambda_for,
    _pencil_scan,
    CriterionInputs,
    Mu0Candidate,
    PipelinePolicy,
    a_of,
    birational_bound_b,
    birational_bound_b2,
    ceil_sqrt,
    first_not_pencil,
    floor_plus_sqrt,
    floor_sqrt,
    lambda_of,
    lambda_ratio_bound,
    mu0_candidates,
    not_pencil_by_plurigenus,
    not_pencil_threshold,
    rr_lower_bound,
    table_pipeline,
    theta,
    theta_max,
)

B = Basket.of
X66 = WeightedBasket(B((1, 2), (2, 5), (1, 3), (2, 11)), 1)


def decimal_floor_plus_sqrt(mu: Fraction, v: Fraction, prec: int = 50) -> int:
    getcontext().prec = prec
    value = (
        Decimal(mu.numerator) / Decimal(mu.denominator)
        + (Decimal(v.numerator) / Decimal(v.denominator)).sqrt()
    )
    return int(value.__floor__())


class TestExactSqrt:
    def test_floor_ceil_sqrt(self):
        assert floor_sqrt(Fraction(17, 2)) == 2
        assert ceil_sqrt(Fraction(17, 2)) == 3
        assert floor_sqrt(16) == 4 and ceil_sqrt(16) == 4
        assert ceil_sqrt(Fraction(39600)) == 199

    def test_floor_plus_sqrt_examples(self):
        assert floor_plus_sqrt(Fraction(24, 15), 2640) == 52
        assert floor_plus_sqrt(Fraction(1, 2), 2640) == 51
        assert floor_plus_sqrt(0, 16) == 4

    def test_against_decimal_reference(self):
        rng = random.Random(71)
        for _ in range(500):
            mu = Fraction(rng.randint(0, 40), rng.randint(1, 12))
            v = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 100))
            assert floor_plus_sqrt(mu, v) == decimal_floor_plus_sqrt(mu, v)


class TestLambdaTheta:
    def test_lambda_examples(self):
        assert lambda_of(1, 330) == 1
        assert lambda_of(83, 840) == 12
        assert lambda_of(47, 840) == Fraction(47, 5)
        assert lambda_of(227, 840) == Fraction(227, 11)
        assert lambda_of(3, 999) == 3

    def test_theta_examples(self):
        assert theta(1, 330, 1) == 1
        assert theta(8, 40, 2) == 4

    def test_theta_max_candidates_match_exhaustive(self):
        # the oracle scans every N in 1..M; theta(M, N) < 1 beyond M
        for m_big in range(1, 200):
            for rx in (60, 330, 660, 840):
                exhaustive = max(theta(m_big, rx, n) for n in range(1, m_big + 1))
                assert theta_max(m_big, rx) == exhaustive

    def test_lambda_dominates_theta(self):
        for m_big in range(1, 2001):
            for rx in (60, 330, 660, 840):
                assert lambda_of(m_big, rx) >= theta_max(m_big, rx)

    def test_lambda_at_most_m(self):
        for m_big in range(1, 500):
            for rx in (7, 60, 840):
                assert lambda_of(m_big, rx) <= m_big


class TestPencilExclusion:
    def test_examples(self):
        wb = WeightedBasket(B((1, 2), (1, 2), (2, 5), (2, 5), (2, 5), (1, 3), (1, 4)), 0)
        assert not_pencil_by_plurigenus(wb, 20)
        assert not not_pencil_by_plurigenus(wb, 19)
        assert first_not_pencil(wb) == 20
        assert first_not_pencil(X66) == 37
        assert not not_pencil_by_plurigenus(X66, 2)  # P_{-2} = 1 <= lambda*2+1

    def test_rr_lower_bound_spot_checks(self):
        assert rr_lower_bound(Fraction(1, 30), 24, 18, Fraction(18, 8)) == Fraction(403, 20)
        value = rr_lower_bound(Fraction(3, 25), 13, 10, Fraction(30, 13))
        assert value == Fraction(463, 30)
        assert value > 15
        assert rr_lower_bound(Fraction(1, 30), 24, 1, 2) is None
        assert rr_lower_bound(Fraction(1, 30), 24, 5, Fraction(18, 8)) is None

    def test_threshold_examples(self):
        assert not_pencil_threshold(Fraction(1, 165), 165, 24, Fraction(37, 8), Fraction(165)) == 37
        assert not_pencil_threshold(Fraction(1, 30), 660, 24, Fraction(35, 8), Fraction(199)) == 35
        assert not_pencil_threshold(Fraction(47, 840), 840, 8, 12, Fraction(174)) == 32

    def test_threshold_uses_ratio_bound_when_omitted(self):
        assert lambda_ratio_bound(Fraction(1, 30), 660) == 199
        assert lambda_ratio_bound(Fraction(47, 840), 840) == 174
        assert lambda_ratio_bound(Fraction(1, 165), 165) == 165
        with_bound = not_pencil_threshold(Fraction(1, 30), 660, 24, Fraction(35, 8), Fraction(199))
        derived = not_pencil_threshold(Fraction(1, 30), 660, 24, Fraction(35, 8))
        assert derived == with_bound

    def test_threshold_monotone(self):
        # every m at or above the returned value satisfies the criterion
        k3, rx, rmax, t = Fraction(1, 30), 660, 24, Fraction(35, 8)
        bound = lambda_ratio_bound(k3, rx)
        m_min = not_pencil_threshold(k3, rx, rmax, t, bound)
        radicand = 12 / (t * k3) + 6 * bound + Fraction(1, 16)
        for m in range(m_min, m_min + 30):
            assert m >= t and 3 * m >= rmax * t
            assert Fraction(4 * m + 3, 4) ** 2 > radicand
        assert not (Fraction(4 * (m_min - 1) + 3, 4) ** 2 > radicand
                    and m_min - 1 >= t and 3 * (m_min - 1) >= rmax * t)


class TestBirationalityBounds:
    def test_case_constant(self):
        assert a_of(1) == 1
        assert a_of(2) == a_of(8) == 6

    def test_case2_table_row(self):
        ci = CriterionInputs(k3=Fraction(1, 60), rx=60, rmax=5, m_big=1,
                             m0=8, m1=20, mu0=Fraction(8))
        assert birational_bound_b(ci, 2) == 46

    def test_case3_table_row(self):
        ci = CriterionInputs(k3=Fraction(83, 840), rx=840, rmax=8, m_big=83,
                             m0=5, m1=27, mu0=Fraction(5), nu0=1)
        assert birational_bound_b(ci, 3) == 48

    def test_case3_degenerate_mu0(self):
        ci = CriterionInputs(k3=Fraction(1, 60), rx=60, rmax=5, m_big=1,
                             m0=8, m1=20, mu0=Fraction(0), nu0=1)
        assert birational_bound_b(ci, 3) == max(8 + 20 + 6, 20 + 2 * 5)

    def test_b2_examples(self):
        ci = CriterionInputs(k3=Fraction(17, 660), rx=660, rmax=11, m_big=17,
                             m0=8, m1=21, mu0=Fraction(1, 2), nu0=1, n0=2)
        assert birational_bound_b2(ci) == 51
        ci = CriterionInputs(k3=Fraction(1, 330), rx=330, rmax=11, m_big=1,
                             m0=5, m1=24, mu0=Fraction(24, 15), nu0=1, n0=1)
        assert birational_bound_b2(ci) == 52

    def test_b2_monotone_in_n0(self):
        base = dict(k3=Fraction(1, 330), rx=330, rmax=11, m_big=1,
                    m0=5, m1=24, mu0=Fraction(24, 15), nu0=1)
        values = [
            birational_bound_b2(CriterionInputs(**base, n0=n0))
            for n0 in (1, 2, 8, 2640, 10 ** 6)
        ]
        assert values == sorted(values, reverse=True)
        # huge N0: the sqrt term collapses to floor(mu0'), second term rules
        assert values[-1] == max(5 + 6, 2 + 44 - 1)

    def test_b2_requires_n0(self):
        ci = CriterionInputs(k3=Fraction(1, 330), rx=330, rmax=11, m_big=1,
                             m0=5, m1=24, mu0=Fraction(24, 15), nu0=1)
        with pytest.raises(ValueError):
            birational_bound_b2(ci)


class TestMu0Candidates:
    def test_always_m0_first(self):
        cands = mu0_candidates(X66, 5)
        assert cands[0].value == 5 and cands[0].kind == "unconditional"

    def test_same_pencil_candidate(self):
        wb = WeightedBasket(B((1, 2), (2, 5), (2, 7), (1, 9)), 1)
        cands = mu0_candidates(wb, 7, horizon=18)
        match = [c for c in cands if c.k == 18]
        assert match and match[0].value == Fraction(18, 21)
        assert match[0].kind == "same_pencil"

    def test_pencil_candidate_no_improvement_when_p_is_2(self):
        cands = mu0_candidates(X66, 5)  # P_{-5} = 2
        pencil = [c for c in cands if c.kind == "pencil"][0]
        assert pencil.value == Fraction(5)


class TestPipeline:
    def test_table_row_840(self):
        rep = table_pipeline(WeightedBasket(B((1, 2), (1, 3), (2, 5), (1, 7), (1, 8)), 1),
                             PipelinePolicy(case=3))
        assert (rep.k3, rep.m_big, rep.lam, rep.n1, rep.m0, rep.headline_n2) == \
            (Fraction(83, 840), 83, 12, 27, 5, 48)

    def test_table_row_small_volume(self):
        wb = WeightedBasket(B(*([(1, 2)] * 5 + [(1, 3), (1, 3), (2, 7), (1, 4)])), 0)
        rep = table_pipeline(wb, PipelinePolicy(case=2, n1_window=6))
        assert (rep.k3, rep.m_big, rep.lam, rep.n1, rep.m0, rep.headline_n2) == \
            (Fraction(1, 84), 1, 1, 22, 8, 50)

    def test_table_row_two_entry(self):
        rep = table_pipeline(WeightedBasket(B((6, 13), (1, 5)), 1), PipelinePolicy(case=3))
        assert (rep.k3, rep.m_big, rep.lam, rep.n1, rep.m0, rep.headline_n2) == \
            (Fraction(2, 65), 2, 2, 17, 2, 45)

    def test_branches_replace_headline(self):
        rep = table_pipeline(X66, PipelinePolicy(case=3, branches=(
            BranchSpec("not same pencil", "b", case=3, m1=24),
            BranchSpec("same pencil", "b2", mu0=Fraction(24, 15), n0=1),
        )))
        assert [br.n2 for br in rep.branches] == [64, 51, 52]
        assert rep.headline_n2 == 52
        assert all(br.assumption for br in rep.branches)

    def test_rejects_non_geometric(self):
        with pytest.raises(ValueError):
            table_pipeline(WeightedBasket(B(*[(1, 2)] * 12), 0))

    def test_records_are_stable(self):
        rep = table_pipeline(X66)
        records = rep.to_records()
        assert records[0].startswith("basket=(1,2),(1,3),(2,5),(2,11) p1=1 k3=1/330")
        assert rep.summary_row().split("\t") == [
            "(1,2),(1,3),(2,5),(2,11)", "1/330", "1", "1", "37", "5", "11", "64",
        ]


def auto_policy(p1: int) -> PipelinePolicy:
    # the CLI's "auto" policy: six consecutive values and case 2 when P_{-1} = 0
    return PipelinePolicy(n1_window=6 if p1 == 0 else 1, case=2 if p1 == 0 else 3)


ARGUMENT_CHECKS = {
    "floor_sqrt": (lambda: floor_sqrt(-1), "floor_sqrt needs q >= 0"),
    "floor_plus_sqrt": (lambda: floor_plus_sqrt(0, Fraction(-1, 2)), "floor_plus_sqrt needs v >= 0"),
    "lambda_of": (lambda: lambda_of(0, 1), "lambda_of needs M >= 1"),
    "theta": (lambda: theta(10, 2, 0), "theta needs N >= 1"),
    "lambda_ratio_bound": (lambda: lambda_ratio_bound(Fraction(0), 2), "lambda_ratio_bound needs -K^3 > 0"),
    # -K^3 = -6 on the empty basket at P_{-1} = 0, and r_X = 1
    "first_not_pencil-M": (
        lambda: first_not_pencil(WeightedBasket(Basket(), 0)), "M = r_X * (-K^3) = -6 is not a positive integer",
    ),
    "for_weighted_basket-M": (
        lambda: CriterionInputs.for_weighted_basket(WeightedBasket(Basket(), 0), m0=1, m1=1, mu0=1),
        "M = r_X * (-K^3) = -6 is not a positive integer",
    ),
    "first_not_pencil-window": (lambda: first_not_pencil(X66, window=0), "window must be >= 1"),
    "table_pipeline-window": (lambda: table_pipeline(X66, PipelinePolicy(n1_window=0)), "window must be >= 1"),
    "rr_lower_bound": (lambda: rr_lower_bound(Fraction(1, 330), 11, 10, 0), "rr_lower_bound needs t > 0"),
    "not_pencil_threshold": (
        lambda: not_pencil_threshold(Fraction(1, 330), 330, 11, Fraction(-1, 2)), "not_pencil_threshold needs t > 0",
    ),
    "birational_bound_b": (
        lambda: birational_bound_b(CriterionInputs.for_weighted_basket(X66, m0=5, m1=37, mu0=5), case=4),
        "case must be 1, 2 or 3, got 4",
    ),
    # P_{-1} = 1 on X66
    "mu0_candidates": (lambda: mu0_candidates(X66, 1), "mu0_candidates needs P[-1] >= 2"),
    "table_pipeline-criterion": (
        lambda: table_pipeline(X66, PipelinePolicy(branches=(BranchSpec("any", criterion="c"),))),
        "unknown criterion 'c'",
    ),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS.keys())
def test_argument_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_pipeline_fields_against_independent_routes(bench_universe):
    """Every 4th universe basket that passes the filter at P_{-1} = 0..3:
    each report field by a route of its own.  n1 is the least m whose
    window ``not_pencil_by_plurigenus`` certifies, m0 and nu0 come from
    ``plurigenus_sequence``, -K^3 from ``anti_volume`` and (M, lambda)
    from ``_lambda_for``."""
    checked = set()
    for basket in bench_universe[::4]:
        for p1 in range(4):
            wb = WeightedBasket(basket, p1)
            if not geometric_filter(wb).ok:
                continue
            policy = auto_policy(p1)
            report = table_pipeline(wb, policy)
            m_big, rx, lam = _lambda_for(wb)
            certified = {}

            def window_certified(m: int) -> bool:
                for n in range(m, m + policy.n1_window):
                    if n not in certified:
                        certified[n] = not_pencil_by_plurigenus(wb, n)
                return all(certified[n] for n in range(m, m + policy.n1_window))

            n1 = next(m for m in range(1, 401) if window_certified(m))
            seq = plurigenus_sequence(wb, max(8, n1))
            m0 = next(m for m in range(1, len(seq)) if seq[m] >= 2)
            nu0 = next(m for m in range(1, len(seq)) if seq[m] >= 1)
            assert (report.m_big, report.rx, report.lam) == (m_big, rx, lam), str(wb)
            assert (report.n1, report.m0, report.nu0) == (n1, m0, nu0), str(wb)
            assert (report.k3, report.rmax) == (anti_volume(wb), r_max(basket)), str(wb)
            inputs = CriterionInputs.for_weighted_basket(wb, m0, max(n1, m0), m0, nu0)
            assert report.headline_n2 == birational_bound_b(inputs, policy.case), str(wb)
            checked.add(p1)
    assert checked == {0, 1, 2, 3}


@pytest.mark.parametrize("entries, p1, values", [
    ((), 4, (1, 1, 2, Fraction(2))),
    (((1, 2), (2, 5), (1, 3), (2, 11)), 1, (11, 330, 1, Fraction(1, 330))),
])
def test_both_routes_to_the_criterion_inputs_agree(entries, p1, values):
    # table_pipeline reads the basket through the filter and
    # for_weighted_basket reads it directly; on the empty basket, the
    # Gorenstein case, both read r_max as 1
    wb = WeightedBasket(Basket.of(*entries), p1)
    report = table_pipeline(wb)
    inputs = CriterionInputs.for_weighted_basket(
        wb, report.m0, max(report.n1, report.m0), report.m0, report.nu0
    )
    assert (inputs.rmax, inputs.rx, inputs.m_big, inputs.k3) == values
    assert (report.rmax, report.rx, report.m_big, report.k3) == values


def test_pencil_scan_window_starts_after_a_gap():
    # with lambda = 0 a value is certified when P_{-n} > 1: n = 1 is, n = 2 is
    # not, n = 3..8 are; one value starts at 1, six consecutive ones at 3
    values = [(1, 2), (2, 1)] + [(n, 2) for n in range(3, 9)]
    assert _pencil_scan(iter(values), Fraction(0), 1, 400) == 1
    assert _pencil_scan(iter(values), Fraction(0), 6, 400) == 3


@pytest.mark.parametrize("p1, window", [("0", 6), ("1", 1)])
def test_auto_policy_hands_its_window_to_the_scan(monkeypatch, p1, window):
    # the CLI's auto policy scans six consecutive values at P_{-1} = 0 and
    # one value otherwise; 13x(1,2) passes the filter at both
    windows = []
    scan = criteria._pencil_scan

    def recorded(values, lam, size, limit):
        windows.append(size)
        return scan(values, lam, size, limit)

    monkeypatch.setattr(criteria, "_pencil_scan", recorded)
    with redirect_stdout(io.StringIO()):
        assert main(["criteria", "--basket", "13x(1,2)", "--p1", p1]) == 0
    assert windows == [window]
