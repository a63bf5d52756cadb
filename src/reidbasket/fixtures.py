"""Bundled reference tables and the cell-level verification harness.

Each fixture file transcribes one published classification table for
terminal weak Q-Fano 3-folds: rows are baskets, columns are
(-K^3, M, lambda, n1, m0, r_max, n2).  Blank cells are stored as absent
("-"), never as zero.  Row flags encode the marks used in the published
tables:

* ``check``    -- the row was delegated to a small-index lemma; only the
                  cells actually printed (usually none) are comparable;
* ``cross``    -- the row falls outside the case under discussion (only
                  its volume is printed);
* ``star``     -- n2 was computed with the table's alternate criterion;
* ``question`` -- n2 was later improved by a finer branch argument, so
                  only the (-K^3, M, lambda, n1, m0) prefix is checkable;
* ``typo:col=v`` -- the printed cell is provably inconsistent with the
                  rest of its own row; v is the value forced by the row
                  (reported as a known discrepancy, not a failure).

The harness recomputes every comparable cell from scratch and diffs.
Fixture integrity is pinned by a SHA-256 manifest; the directory can be
overridden with the ``REID_BASKET_FIXTURES`` environment variable.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .classify import classify, enumerate_b0, parse_constraints
from .core import Basket, WeightedBasket, anti_volume, format_rational, parse_basket, parse_rational, r_max
from .criteria import PipelinePolicy, table_pipeline

__all__ = [
    "TableFixture",
    "TableRow",
    "CellDiff",
    "TableReport",
    "fixtures_dir",
    "available_tables",
    "load_table",
    "verify_table",
    "verify_all",
    "verify_manifest",
]

_COLUMNS = ("k3", "M", "lambda", "n1", "m0", "rmax", "n2")


class TableRow(NamedTuple):
    basket_text: str
    cells: dict[str, str]
    flags: frozenset[str]
    typos: dict[str, str]

    @property
    def basket(self) -> Basket:
        return parse_basket(self.basket_text)


class TableFixture(NamedTuple):
    table_id: int
    kind: str            # "pipeline" | "index_profiles" | "b0_list"
    p1: int
    n1_window: int
    case: int
    star_case: int | None
    constraints: str | None
    rows: tuple[TableRow, ...]


class CellDiff(NamedTuple):
    row: int
    basket_text: str
    column: str
    expected: str
    computed: str
    known: bool = False

    def __str__(self) -> str:
        tag = "known discrepancy" if self.known else "MISMATCH"
        return (
            f"  {tag}: row {self.row} {{{self.basket_text}}} "
            f"{self.column}: table says {self.expected}, recomputed {self.computed}"
        )


class TableReport:
    """The verification tally of one table, filled in as its rows are checked."""

    def __init__(self, table_id: int) -> None:
        self.table_id = table_id
        self.rows_checked = 0
        self.cells_checked = 0
        self.mismatches: list[CellDiff] = []
        self.known_discrepancies: list[CellDiff] = []
        self.missing = False

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.missing

    def summary(self) -> str:
        if self.missing:
            return f"table {self.table_id}: no fixture shipped (absent from the source)"
        state = "OK" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        extra = (
            f", {len(self.known_discrepancies)} known discrepancy(ies)"
            if self.known_discrepancies else ""
        )
        return (
            f"table {self.table_id}: {self.rows_checked} rows, "
            f"{self.cells_checked} cells checked, {state}{extra}"
        )

    def lines(self) -> list[str]:
        out = [self.summary()]
        out.extend(str(d) for d in self.known_discrepancies)
        out.extend(str(d) for d in self.mismatches)
        return out


def fixtures_dir() -> Path:
    override = os.environ.get("REID_BASKET_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "tables"


def available_tables() -> list[int]:
    ids = []
    for path in fixtures_dir().glob("table*.tsv"):
        ids.append(int(path.stem.removeprefix("table")))
    return sorted(ids)


def load_table(table_id: int) -> TableFixture | None:
    path = fixtures_dir() / f"table{table_id}.tsv"
    if not path.exists():
        return None
    meta: dict[str, str] = {}
    rows: list[TableRow] = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        parts = line.split("\t")
        basket_text = parts[0]
        if meta.get("kind") != "pipeline":
            rows.append(TableRow(basket_text, {}, frozenset(), {}))
            continue
        cells: dict[str, str] = {}
        for col, raw in zip(_COLUMNS, parts[1:8]):
            if raw != "-":
                cells[col] = raw
        flags: set[str] = set()
        typos: dict[str, str] = {}
        flag_field = parts[8] if len(parts) > 8 else "-"
        if flag_field != "-":
            for item in flag_field.split(","):
                if item.startswith("typo:"):
                    col, val = item[len("typo:"):].split("=")
                    typos[col] = val
                else:
                    flags.add(item)
        rows.append(TableRow(basket_text, cells, frozenset(flags), typos))
    return TableFixture(
        table_id=int(meta["table"]),
        kind=meta.get("kind", "pipeline"),
        p1=int(meta.get("p1", 0)),
        n1_window=int(meta.get("n1_window", 1)),
        case=int(meta.get("case", 3)),
        star_case=int(meta["star_case"]) if "star_case" in meta else None,
        constraints=meta.get("constraints"),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

# the order in which a row's cells are checked and its mismatches listed
_CHECK_ORDER = ("k3", "rmax", "M", "lambda", "n1", "m0", "n2")


def _check_cell(report: TableReport, index: int, row: TableRow, column: str, computed: Fraction | int) -> None:
    """Count one printed cell and compare it with its recomputed value.

    A cell printed as ``<0`` asks for the sign alone.  A ``typo:col=v``
    cell is a known discrepancy when the row forces v, and a failure
    otherwise; any other cell must equal the value exactly.
    """
    printed = row.cells[column]
    wanted = row.typos.get(column, printed)
    ok = computed < 0 if wanted == "<0" else parse_rational(wanted) == computed
    report.cells_checked += 1
    if column in row.typos and ok:
        report.known_discrepancies.append(
            CellDiff(index, row.basket_text, column, printed, format_rational(computed), known=True)
        )
    elif not ok:
        expected = f"{printed} (annotated {wanted})" if column in row.typos else printed
        report.mismatches.append(CellDiff(index, row.basket_text, column, expected, format_rational(computed)))


def _verify_pipeline_row(
    fixture: TableFixture, index: int, row: TableRow, report: TableReport
) -> None:
    wb = WeightedBasket(row.basket, fixture.p1)
    computed: dict[str, Fraction | int] = {}
    if "k3" in row.cells:
        computed["k3"] = anti_volume(wb)
    if "rmax" in row.cells:
        computed["rmax"] = r_max(wb.basket)
    derived = row.cells.keys() & {"M", "lambda", "n1", "m0", "n2"}
    if derived and not row.flags & {"check", "cross"}:
        case = fixture.case
        if "star" in row.flags:
            if fixture.star_case is None:
                raise ValueError(f"table {fixture.table_id} has a star row but no star_case")
            case = fixture.star_case
        rep = table_pipeline(wb, PipelinePolicy(n1_window=fixture.n1_window, case=case))
        computed.update({"M": rep.m_big, "lambda": rep.lam, "n1": rep.n1, "m0": rep.m0})
        if "question" not in row.flags:
            computed["n2"] = rep.headline_n2
    for column in _CHECK_ORDER:
        if column in row.cells and column in computed:
            _check_cell(report, index, row, column, computed[column])
    report.rows_checked += 1


def _verify_basket_list(fixture: TableFixture, report: TableReport) -> None:
    constraints = parse_constraints(fixture.constraints or "")
    if fixture.kind == "index_profiles":
        computed = {wb.basket for wb in classify(constraints)}
    elif fixture.kind == "b0_list":
        computed = {wb.basket for wb, _ in enumerate_b0(constraints)}
    else:
        raise ValueError(f"unknown fixture kind {fixture.kind!r}")
    listed = {row.basket for row in fixture.rows}
    report.rows_checked = len(fixture.rows)
    report.cells_checked = len(fixture.rows)
    for basket in sorted(listed - computed):
        report.mismatches.append(
            CellDiff(-1, str(basket), "basket", "listed", "not produced by enumeration")
        )
    for basket in sorted(computed - listed):
        report.mismatches.append(
            CellDiff(-1, str(basket), "basket", "absent from table", "produced by enumeration")
        )


def verify_table(table_id: int) -> TableReport:
    """Recompute every comparable cell of one table and diff."""
    fixture = load_table(table_id)
    report = TableReport(table_id=table_id)
    if fixture is None:
        report.missing = True
        return report
    if fixture.kind == "pipeline":
        for index, row in enumerate(fixture.rows, start=1):
            _verify_pipeline_row(fixture, index, row, report)
    else:
        _verify_basket_list(fixture, report)
    return report


def verify_all() -> list[TableReport]:
    return [verify_table(i) for i in available_tables()]


def verify_manifest() -> list[str]:
    """Check every fixture file against the SHA-256 manifest.

    Returns a list of problems (empty means intact).  Editing golden data
    must be a deliberate act: regenerate the manifest when you do.
    """
    # loads OpenSSL, which only this check needs
    import hashlib

    directory = fixtures_dir()
    manifest = directory / "MANIFEST.sha256"
    problems: list[str] = []
    if not manifest.exists():
        return [f"manifest missing: {manifest}"]
    listed: dict[str, str] = {}
    for line in manifest.read_text().splitlines():
        if not line.strip():
            continue
        digest, name = line.split(None, 1)
        listed[name.strip()] = digest
    for name, digest in listed.items():
        path = directory / name
        if not path.exists():
            problems.append(f"listed but missing: {name}")
            continue
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"checksum mismatch: {name}")
    for path in sorted(directory.glob("table*.tsv")):
        if path.name not in listed:
            problems.append(f"present but unlisted: {path.name}")
    return problems
