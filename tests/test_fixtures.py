import os

import pytest

from reidbasket.fixtures import (
    available_tables,
    fixtures_dir,
    load_table,
    verify_manifest,
    verify_table,
)

SHIPPED = [1, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 20, 24, 26, 28, 30]


def test_shipped_table_set():
    assert available_tables() == SHIPPED


def test_manifest_is_intact():
    assert verify_manifest() == []


def test_fixture_loading_keeps_blanks_absent():
    fixture = load_table(6)
    first = fixture.rows[0]
    assert first.basket_text == "12x(1,2)"
    assert first.cells == {"k3": "0"}  # only the volume is printed
    # a checkmark row has no comparable cells at all
    check_rows = [r for r in fixture.rows if "check" in r.flags]
    assert check_rows and all(not r.cells for r in check_rows)


def test_fixture_flags_parse():
    fixture = load_table(30)
    stars = [r for r in fixture.rows if "star" in r.flags]
    questions = [r for r in fixture.rows if "question" in r.flags]
    typos = [r for r in fixture.rows if r.typos]
    assert stars and questions
    assert len(typos) == 2
    assert {tuple(r.typos) for r in typos} == {("m0",), ("lambda",)}


@pytest.mark.parametrize("table_id", SHIPPED)
def test_verify_each_table(table_id):
    report = verify_table(table_id)
    assert report.ok, "\n".join(report.lines())


def test_known_discrepancies_are_exactly_the_two_annotated_cells():
    report = verify_table(30)
    assert report.ok
    assert len(report.known_discrepancies) == 2
    columns = {d.column for d in report.known_discrepancies}
    assert columns == {"m0", "lambda"}


def test_absent_table_reports_absence():
    report = verify_table(8)
    assert report.missing
    assert not report.ok
    assert "no fixture" in report.summary()


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = fixtures_dir()
    (tmp_path / "table99.tsv").write_text(
        "# table: 99\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"
        "(1,2),(1,3),(2,5),(2,11)\t1/330\t1\t1\t37\t5\t11\t-\t-\n"
    )
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    assert available_tables() == [99]
    report = verify_table(99)
    assert report.ok and report.cells_checked == 6
    monkeypatch.delenv("REID_BASKET_FIXTURES")
    assert fixtures_dir() == src


def test_mismatch_is_detected(tmp_path, monkeypatch):
    # corrupt one cell and make sure the harness flags it with the recomputed value
    (tmp_path / "table50.tsv").write_text(
        "# table: 50\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"
        "(1,2),(1,3),(2,5),(2,11)\t1/330\t1\t1\t36\t5\t11\t-\t-\n"
    )
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    report = verify_table(50)
    assert not report.ok
    [diff] = report.mismatches
    assert diff.column == "n1" and diff.expected == "36" and diff.computed == "37"


def test_table16_is_checked_against_profile_enumeration():
    fixture = load_table(16)
    assert fixture.kind == "index_profiles"
    assert verify_table(16).ok


def test_lambda_bounds_hold_on_every_fixture_basket():
    # lambda(M) <= M and lambda(M)/(-K^3) <= r_X whenever M = r_X * (-K^3)
    from reidbasket.core import WeightedBasket, anti_volume, r_index
    from reidbasket.criteria import lambda_of

    for table_id in SHIPPED:
        fixture = load_table(table_id)
        if fixture.kind != "pipeline":
            continue
        for row in fixture.rows:
            wb = WeightedBasket(row.basket, fixture.p1)
            k3 = anti_volume(wb)
            if k3 <= 0:
                continue
            rx = r_index(row.basket)
            m_big = rx * k3
            if m_big.denominator != 1:
                continue
            lam = lambda_of(int(m_big), rx)
            assert lam <= m_big
            assert lam / k3 <= rx


def test_table7_is_checked_against_level0_enumeration():
    fixture = load_table(7)
    assert fixture.kind == "b0_list"
    assert verify_table(7).ok
