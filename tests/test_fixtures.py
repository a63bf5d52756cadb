import os

import pytest

from reidbasket.fixtures import (
    TableFixture,
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
    # through classify, which its rx=840 routes to the profile scan: the
    # fixture carries no lcm of its own
    fixture = load_table(16)
    assert fixture.kind == "index_profiles" and "rx=840" in fixture.constraints
    assert "lcm" not in TableFixture._fields
    assert "# lcm:" not in (fixtures_dir() / "table16.tsv").read_text()
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


# the harness's failure paths, on one-row tables of the extremal basket at
# P_{-1} = 1: -K^3 = 1/330, M = 1, lambda = 1, n1 = 37, m0 = 5, r_max = 11, n2 = 64
EXTREMAL_HEADER = "# table: 50\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"


def verify_one_row(tmp_path, monkeypatch, fields: str):
    (tmp_path / "table50.tsv").write_text(f"{EXTREMAL_HEADER}(1,2),(1,3),(2,5),(2,11)\t{fields}\n")
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    return verify_table(50)


def test_negative_volume_cell_on_a_positive_volume(tmp_path, monkeypatch):
    report = verify_one_row(tmp_path, monkeypatch, "<0\t-\t-\t-\t-\t-\t-\t-")
    [diff] = report.mismatches
    assert (report.rows_checked, report.cells_checked, report.known_discrepancies) == (1, 1, [])
    assert (diff.row, diff.column, diff.expected, diff.computed, diff.known) == (1, "k3", "<0", "1/330", False)
    assert str(diff) == "  MISMATCH: row 1 {(1,2),(1,3),(2,5),(2,11)} k3: table says <0, recomputed 1/330"


def test_typo_cell_the_row_does_not_force(tmp_path, monkeypatch):
    # the annotation says the row forces 36; it forces 37, so this is a failure
    report = verify_one_row(tmp_path, monkeypatch, "-\t-\t-\t35\t-\t-\t-\ttypo:n1=36")
    [diff] = report.mismatches
    assert report.cells_checked == 1 and report.known_discrepancies == []
    assert (diff.column, diff.expected, diff.computed) == ("n1", "35 (annotated 36)", "37")
    # and an annotation the row does force is a known discrepancy
    report = verify_one_row(tmp_path, monkeypatch, "-\t-\t-\t35\t-\t-\t-\ttypo:n1=37")
    [known] = report.known_discrepancies
    assert report.ok and report.mismatches == []
    assert (known.column, known.expected, known.computed, known.known) == ("n1", "35", "37", True)
    assert str(known) == (
        "  known discrepancy: row 1 {(1,2),(1,3),(2,5),(2,11)} n1: table says 35, recomputed 37"
    )


def test_mismatch_order(tmp_path, monkeypatch):
    # rmax is reported before M, though the file prints it after m0
    report = verify_one_row(tmp_path, monkeypatch, "1/330\t2\t1\t37\t5\t12\t64")
    assert [(d.column, d.expected, d.computed) for d in report.mismatches] == [
        ("rmax", "12", "11"), ("M", "2", "1"),
    ]
    assert report.cells_checked == 7
    report = verify_one_row(tmp_path, monkeypatch, "1/331\t2\t2\t36\t6\t12\t63")
    assert [(d.column, d.computed) for d in report.mismatches] == [
        ("k3", "1/330"), ("rmax", "11"), ("M", "1"), ("lambda", "1"), ("n1", "37"), ("m0", "5"), ("n2", "64"),
    ]
    # a question row does not compare n2; check and cross rows compare k3 and rmax only
    for flag, checked in (("question", 6), ("check", 2), ("cross", 2)):
        report = verify_one_row(tmp_path, monkeypatch, f"1/331\t2\t2\t36\t6\t12\t63\t{flag}")
        assert report.cells_checked == checked == len(report.mismatches)


def test_b0_list_reports_both_directions(tmp_path, monkeypatch):
    # one listed basket removed, one basket no enumeration produces added
    rows = load_table(7).rows
    text = (fixtures_dir() / "table7.tsv").read_text()
    text = text.replace("8x(1,2),2x(1,3),(1,4)\n", "9x(1,2)\n")
    (tmp_path / "table7.tsv").write_text(text)
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    report = verify_table(7)
    assert (report.rows_checked, report.cells_checked) == (len(rows), len(rows))
    assert [str(d) for d in report.mismatches] == [
        "  MISMATCH: row -1 {9x(1,2)} basket: table says listed, recomputed not produced by enumeration",
        "  MISMATCH: row -1 {8x(1,2),2x(1,3),(1,4)} basket: table says absent from table, "
        "recomputed produced by enumeration",
    ]


@pytest.mark.parametrize("text, message", [
    (f"{EXTREMAL_HEADER}(1,2),(1,3),(2,5),(2,11)\t1/330\t1\t1\t37\t5\t11\t64\tstar\n",
     "table 50 has a star row but no star_case"),
    ("# table: 50\n# kind: basket_list\n# constraints: p[1]=0\n(1,2)\n", "unknown fixture kind 'basket_list'"),
], ids=["star-row-without-star-case", "unknown-kind"])
def test_malformed_fixture_names_its_fault(tmp_path, monkeypatch, text, message):
    (tmp_path / "table50.tsv").write_text(text)
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    with pytest.raises(ValueError) as info:
        verify_table(50)
    assert str(info.value) == message


def test_missing_manifest_is_the_one_problem(tmp_path, monkeypatch):
    (tmp_path / "table50.tsv").write_text(EXTREMAL_HEADER)
    monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
    assert verify_manifest() == [f"manifest missing: {tmp_path / 'MANIFEST.sha256'}"]
