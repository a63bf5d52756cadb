"""The integer row work of ``verify`` against the Fraction bodies it replaced.

Each reference below keeps a body the package used before it read integers:
lambda(M) and the floors of the three-case bound in ``Fraction``s, a pair's
table summed from ``_delta``, the geometric filter's checks as one
predicate each, and a table cell parsed before it is compared.  The fast
paths must agree with them on every input listed here.
"""

import math
import random
from fractions import Fraction
from itertools import compress

import pytest

from conftest import random_basket
from reidbasket.core import (
    FILTER_HORIZON,
    FilterConfig,
    FilterResult,
    WeightedBasket,
    _delta,
    _pair_terms,
    _superadditivity_failure,
    format_rational,
    geometric_filter,
    parse_rational,
)
from reidbasket.criteria import CriterionInputs, birational_bound_b, ceil_sqrt, floor_sqrt, lambda_of
from reidbasket.fixtures import TableReport, TableRow, _check_cell, available_tables, load_table

RX_VALUES = (*range(1, 31), 60, 420, 660, 840, 2520)


def reference_lambda_free(m_big: int) -> Fraction:
    """The part of lambda(M) > 3 that reads no r_X: max{3, 2 floor(sqrt(M/2)),
    M/ceil(sqrt(M/2))}, as the Fraction body computed it."""
    half = Fraction(m_big, 2)
    lo, hi = floor_sqrt(half), ceil_sqrt(half)
    return max(Fraction(3), Fraction(2 * lo), Fraction(m_big, hi))


def test_lambda_matches_the_fraction_body():
    # the body was max(3, M/r_X, 2 lo, M/hi) in Fractions; its r_X-free
    # part is taken once per M, which max allows
    for m_big in range(1, 4):
        assert {lambda_of(m_big, rx) for rx in RX_VALUES} == {Fraction(m_big)}
    for m_big in range(4, 20_001):
        free = reference_lambda_free(m_big)
        assert [lambda_of(m_big, rx) for rx in RX_VALUES] == [max(free, Fraction(m_big, rx)) for rx in RX_VALUES], m_big
    assert type(lambda_of(5, 7)) is Fraction


def reference_bound_b(inputs: CriterionInputs, case: int) -> int:
    m0, m1, mu0 = inputs.m0, inputs.m1, inputs.mu0
    base = m0 + m1 + inputs.a_m0
    if case == 1:
        return max(base, math.floor(3 * mu0) + 3 * m1)
    if case == 2:
        return max(
            base,
            math.floor(Fraction(5, 3) * mu0 + Fraction(5, 3) * m1),
            math.floor(mu0) + m1 + 2 * inputs.rmax,
        )
    return max(base, math.floor(mu0) + m1 + 2 * inputs.nu0 * inputs.rmax)


def test_bound_b_floors_match_fraction_floors():
    rng = random.Random(3401)
    for _ in range(3000):
        m0 = rng.randint(1, 40)
        inputs = CriterionInputs(
            k3=Fraction(1, 330), rx=330, rmax=rng.randint(2, 24), m_big=1, m0=m0, m1=m0 + rng.randint(0, 200),
            mu0=Fraction(rng.randint(1, 10 ** rng.randint(1, 6)), rng.randint(1, 10 ** rng.randint(0, 4))),
            nu0=rng.randint(1, 8),
        )
        for case in (1, 2, 3):
            assert birational_bound_b(inputs, case) == reference_bound_b(inputs, case), (inputs, case)


def test_the_volume_check_is_exact():
    # M = r_X (-K^3) checked by cross-multiplication: one unit off either
    # way is refused
    fields = dict(k3=Fraction(17, 660), rx=660, rmax=11, m0=5, m1=20, mu0=Fraction(5))
    assert CriterionInputs(**fields, m_big=17).m_big == 17
    for m_big in (16, 18):
        with pytest.raises(ValueError, match="M must equal"):
            CriterionInputs(**fields, m_big=m_big)


def reference_pair_terms(b: int, r: int) -> tuple[int, ...]:
    total, out = 0, [0]
    for j in range(1, FILTER_HORIZON + 1):
        total += b * (j * (j - 1) // 2) - _delta(((b, r, 1),), j)
        out.append(total)
    return tuple(out)


def test_pair_table_matches_the_delta_sum():
    # every pair with r <= 64, coprime or not, then seeded large indices;
    # the unwrapped function leaves the cache as it was
    pairs = [(b, r) for r in range(2, 65) for b in range(1, r // 2 + 1)]
    rng = random.Random(3402)
    for _ in range(400):
        r = rng.randint(65, 10 ** 6)
        pairs.append((rng.randint(1, r // 2), r))
    for b, r in pairs:
        assert _pair_terms.__wrapped__(b, r) == reference_pair_terms(b, r), (b, r)


# the checks as the filter wrote them before: one predicate per field, in
# FilterConfig order, each read only when its field is on
REFERENCE_CHECKS = (
    lambda f: f._volume <= 0,
    lambda f: 330 * f._volume < f._den,
    lambda f: f._gamma < 0,
    lambda f: f._rmax > 24,
    lambda f: f._rx > 660 and (f._rx != 840 or f._rmax != 8),
    lambda f: min(f._p) < 0,
    lambda f: min(f._p[6:]) < 1,
    lambda f: f._p[8] < 2,
    lambda f: _superadditivity_failure(f._p) is not None,
)
CONFIGS = (FilterConfig(), FilterConfig.none()) + tuple(
    FilterConfig.none()._replace(**{name: True}) for name in FilterConfig._fields
)


def test_filter_decides_as_the_predicate_table(bench_universe):
    # every universe basket at P_{-1} = 0..3 under the default, none() and
    # each single check: the same verdict and the same failed checks; the
    # seeded baskets with indices up to 30 fail gamma, r_max and r_X too
    rng = random.Random(3403)
    seeded = [random_basket(rng, max_entries=9, rmax=30, coprime=False) for _ in range(300)]
    seen = set()
    for basket in bench_universe + seeded:
        for p1 in range(4):
            full = geometric_filter(WeightedBasket(basket, p1))
            ints = (full._volume, full._gamma, full._den, full._rx, full._rmax, full._p)
            for config in CONFIGS:
                result = FilterResult(config, *ints)
                failed = [name for name, check in compress(zip(FilterConfig._fields, REFERENCE_CHECKS), config)
                          if check(result)]
                assert result.ok == (not failed) and list(result._failed()) == failed, (basket, p1, config)
                seen.update(failed)
    assert seen == set(FilterConfig._fields)
    # and the wording, on a sample
    for basket in bench_universe[::97]:
        result = geometric_filter(WeightedBasket(basket, 0))
        assert [f.split(":")[0] for f in result.failures] == list(result._failed())


def check_one_cell(cell: str, value, typo: str | None = None) -> TableReport:
    row = TableRow("(1,2)", {"n1": cell}, frozenset(), {} if typo is None else {"n1": typo})
    report = TableReport(0)
    _check_cell(report, 1, row, "n1", value)
    return report


def reference_cell_ok(wanted: str, value) -> bool:
    return value < 0 if wanted == "<0" else parse_rational(wanted) == value


def bundled_cells() -> list[str]:
    cells = []
    for table_id in available_tables():
        for row in load_table(table_id).rows:
            cells.extend(row.cells.values())
            cells.extend(row.typos.values())
    return cells


def test_every_bundled_cell_is_canonical_text():
    # so the text comparison decides every bundled cell without a parse
    cells = bundled_cells()
    assert len(cells) == 893 and cells.count("<0") == 2
    assert [c for c in cells if c != "<0" and format_rational(parse_rational(c)) != c] == []


@pytest.mark.parametrize("cell, values", [
    ("2/4", [Fraction(1, 2), 1, Fraction(2, 4) + 1]),
    ("0.5", [Fraction(1, 2), 0]),
    ("06", [6, Fraction(6), 60]),
    ("-0", [0, Fraction(0), 1]),
    ("1e0", [1, Fraction(1), 10]),
    ("<0", [Fraction(-1, 2), -3, 0, Fraction(1, 330)]),
])
def test_text_first_cell_check_matches_parsing(cell, values):
    for value in values:
        report = check_one_cell(cell, value)
        assert (not report.mismatches) == reference_cell_ok(cell, value), value
        assert [d.computed for d in report.mismatches] in ([], [format_rational(value)])


def test_text_first_check_on_every_bundled_cell():
    for cell in {c for c in bundled_cells() if c != "<0"}:
        q = parse_rational(cell)
        values = [q, q + 1, q - Fraction(1, 3)] + ([int(q)] if q.denominator == 1 else [])
        for value in values:
            assert (not check_one_cell(cell, value).mismatches) == reference_cell_ok(cell, value), (cell, value)


def test_a_typo_cell_is_read_by_its_annotation():
    # printed 35, annotated 37: a known discrepancy where the row forces 37
    for annotation in ("37", "074/2", "36"):
        for value in (37, Fraction(37)):
            report = check_one_cell("35", value, typo=annotation)
            assert (len(report.known_discrepancies) == 1) == reference_cell_ok(annotation, value)
            assert (not report.mismatches) == reference_cell_ok(annotation, value)
