import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import src_env
from reidbasket.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_x66(self):
        code, out, _ = run_cli(
            "eval", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1", "--upto", "24"
        )
        assert code == 0
        lines = out.splitlines()
        assert "sigma = 6" in lines
        assert "sigma' = 659/330" in lines
        assert "r_X = 330" in lines
        assert "r_max = 11" in lines
        assert "-K^3 = 1/330" in lines
        assert lines[-1] == "P[-24] = 16"

    def test_empty_basket(self):
        code, out, _ = run_cli("eval", "--basket", "", "--p1", "0", "--upto", "3")
        assert code == 0
        assert "gamma = 24" in out
        assert "-K^3 = -6" in out

    def test_bad_grammar_is_usage_error(self):
        code, _, err = run_cli("eval", "--basket", "(1,2),,(2,5)", "--p1", "0")
        assert code == 2
        assert "bad basket item" in err

    @pytest.mark.parametrize("upto", ["0", "-5"])
    def test_upto_below_one_is_usage_error(self, upto):
        code, out, err = run_cli("eval", "--basket", "(2,5)", "--p1", "1", "--upto", upto)
        assert (code, out) == (2, "")
        assert f"--upto must be >= 1, got {upto}" in err

    def test_upto_one_prints_p1_alone(self):
        code, out, _ = run_cli("eval", "--basket", "(2,5)", "--p1", "1", "--upto", "1")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("P[")] == ["P[-1] = 1"]


class TestCanonical:
    def test_default_run(self):
        code, out, _ = run_cli("canonical", "--basket", "(2,5),(3,7)")
        assert code == 0
        assert "B(0) = 3x(1,2),2x(1,3)" in out
        assert "B(5) = (1,2),2x(2,5)" in out
        assert "epsilon_5 = 2" in out
        assert "stabilizes at level 7" in out

    def test_levels_flag(self):
        code, out, _ = run_cli("canonical", "--basket", "(2,5)", "--levels", "0,5")
        assert code == 0
        assert out.splitlines() == ["B(0) = (1,2),(1,3)", "B(5) = (2,5)", "epsilon_5 = 1"]

    def test_rejects_levels_1_to_4(self):
        code, _, err = run_cli("canonical", "--basket", "(2,5)", "--levels", "3")
        assert code == 2

    @pytest.mark.parametrize("levels", ["0,3,7", "0,3", "7,3,x"])
    def test_undefined_level_is_refused_before_any_listing(self, levels):
        # every item is checked first, and main reports the refusal
        code, out, err = run_cli("canonical", "--basket", "(2,5),(3,7)", "--levels", levels)
        assert (code, out, err) == (2, "", "error: levels 1-4 are not defined (got 3)\n")

    def test_far_level_costs_one_level(self):
        # only the levels asked for are built, not every level below them
        start = time.perf_counter()
        code, out, _ = run_cli("canonical", "--basket", "(2,5),(3,7)", "--levels", "0,1000000")
        assert code == 0
        assert out.splitlines()[-2:] == ["B(1000000) = (2,5),(3,7)", "epsilon_1000000 = 0"]
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("r", [1000001, 10 ** 29 + 1])
    def test_chain_past_the_level_budget_exits_3(self, r):
        # before any level is built: unbounded, this printed 1,999,996 lines
        # in 27 s at r = 1000001, and nothing in 30 s at r = 10**29 + 1
        start = time.perf_counter()
        code, out, err = run_cli("canonical", "--basket", f"(1,2),(3,{r})")
        assert (code, out) == (3, "")
        assert err == f"error: canonical chain of (3,{r}) runs to level {r}, past the level budget 600000\n"
        assert time.perf_counter() - start < 1

    def test_chain_below_the_level_budget_is_listed_as_before(self):
        # a child process, so that the chain's 100 MB of levels is not kept
        # in this one's pair cache
        run = subprocess.run(
            [sys.executable, "-m", "reidbasket", "canonical", "--basket", "(1,2),(3,300001)"],
            capture_output=True, env=src_env(),
        )
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout.count(b"\n") == 599996
        assert hashlib.sha256(run.stdout).hexdigest() == (
            "8acb7a463752753c7377f51214b8db296201955ee00a4560c1cce017aa6b955f"
        )

    @pytest.mark.parametrize("argv, message", [
        # level 5 of the pair would hold 49,999,999 entries
        (["--basket", "(50000000,100000001)", "--levels", "5"], "level 5 holds 49999999 entries"),
        # a chain that stops at level 5, but whose level 0 holds 2,500,000 entries
        (["--basket", "(2500000,6250000)"],
         "level 0 of the canonical chain of (2500000,6250000) holds 2500000 entries"),
        # two pairs whose chains pass the budget each, with a level 0 of
        # 1,200,000 entries apiece: unbounded, this printed in 1.5 s at 245 MB
        (["--basket", "2x(1200000,3000000)"], "level 0 holds 2400000 entries"),
        # the unit-fraction entries count too: 2,249,997 + 4 entries
        (["--basket", "(2249997,5249993),4x(1,2)"], "level 0 holds 2250001 entries"),
    ], ids=["unpack", "chain", "basket", "basket with unit entries"])
    def test_level_past_the_entry_budget_exits_3(self, argv, message):
        # read off the multiplicities before any level basket is built
        start = time.perf_counter()
        code, out, err = run_cli("canonical", *argv)
        assert (code, out, err) == (3, "", f"error: {message}, past the entry budget 2250000\n")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("basket, level, lines", [
        # the lower end runs up from 1/3 to 49999999/99999999
        ("(50000000,100000001)", "99999999",
         [b"B(99999999) = (1,2),(49999999,99999999)", b"epsilon_99999999 = 1"]),
        # the upper end runs down from 1/2 to 33333333/99999998
        ("(33333334,100000001)", "100000000",
         [b"B(100000000) = (1,3),(33333333,99999998)", b"epsilon_100000000 = 0"]),
    ])
    def test_deep_level_is_one_descent(self, basket, level, lines):
        # a child with a timeout: one Stern-Brocot mediant per step would
        # take either query past a minute
        run = subprocess.run(
            [sys.executable, "-m", "reidbasket", "canonical", "--basket", basket, "--levels", level],
            capture_output=True, env=src_env(), timeout=30,
        )
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout.splitlines() == lines

    @pytest.mark.parametrize("levels, item", [
        ("0,,5", ""), ("0,x", "x"), ("5,", ""), ("0,1_0", "1_0"), ("0,\u0665", "\u0665"), ("0,+5", "+5"),
    ])
    def test_malformed_levels_item_is_usage_error(self, levels, item):
        code, out, err = run_cli("canonical", "--basket", "(2,5)", "--levels", levels)
        assert (code, out) == (2, "")
        assert f"bad --levels item {item!r}" in err

    def test_listings_are_pinned_byte_for_byte(self):
        # unit fractions only, a non-coprime pair, and a chain of 24 levels
        blocks = []
        for basket in ("(2,5),(3,7)", "(2,6),(3,10)", "(1,2),(1,3)", "(5,24)"):
            code, out, err = run_cli("canonical", "--basket", basket)
            assert (code, err) == (0, "")
            blocks.append(f'$ reidbasket canonical --basket "{basket}"\n{out}')
        expected = (Path(__file__).parent / "expected" / "canonical.txt").read_bytes()
        assert "".join(blocks).encode() == expected


class TestPack:
    def test_closure_listing(self):
        code, out, _ = run_cli(
            "pack", "--basket", "7x(1,2),(1,3)", "--gamma-min", "0",
            "--coprime-only", "--p1", "1",
        )
        assert code == 0
        baskets = [line.split("\t")[0] for line in out.splitlines() if not line.startswith("#")]
        assert "3x(1,2),(5,11)" in baskets
        assert "(8,17)" in baskets

    def test_truncation_exit_code(self):
        code, out, err = run_cli(
            "pack", "--basket", "10x(1,2),4x(1,3)", "--max-states", "5",
        )
        assert code == 3
        assert "TRUNCATED" in err

    @pytest.mark.parametrize("states", ["0", "-1"])
    def test_max_states_below_one_is_usage_error(self, states):
        code, out, err = run_cli("pack", "--basket", "(1,2),(1,3)", "--max-states", states)
        assert (code, out) == (2, "")
        assert f"--max-states must be >= 1, got {states}" in err

    def test_max_states_one_visits_the_root(self):
        code, out, err = run_cli("pack", "--basket", "(1,2),(1,3)", "--max-states", "1")
        assert code == 3 and "TRUNCATED" in err
        assert out == "(1,2),(1,3)\t-29/6\t6\t3\n# visited 1 baskets, emitted 1\n"

    @pytest.mark.parametrize("option", ["--gamma-min", "--k3-max"])
    def test_huge_exponent_is_an_argparse_error_at_once(self, option):
        # Fraction would spend minutes on 10 ** 100000000
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            main(["pack", "--basket", "(1,2),(1,3)", option, "1e-100000000"])
        assert time.perf_counter() - start < 1
        assert exit_.value.code == 2
        assert err.getvalue().endswith(
            f"\nreidbasket pack: error: argument {option}: invalid parse_rational value: '1e-100000000'\n"
        )
        assert run_cli("pack", "--basket", "(1,2),(1,3)", option, "1e-4300")[0] == 0

    @pytest.mark.parametrize("argv", [
        # a search that lists nothing, so no row would ever read --p1
        ("--basket", "(1,2)", "--gamma-min", "100"),
        # a search that lists baskets
        ("--basket", "7x(1,2),(1,3)",),
    ])
    def test_negative_p1_is_refused_before_the_search(self, argv, monkeypatch):
        import reidbasket.packing

        monkeypatch.setattr(reidbasket.packing, "closure", lambda *a, **k: pytest.fail("the search ran"))
        assert run_cli("pack", *argv, "--p1", "-1") == (2, "", "error: P_{-1} must be a non-negative integer\n")

    def test_k3_max_prunes_as_volume_at_most(self):
        # the option's listing is the closure under volume_at_most(Q, P), in
        # order, and it cuts baskets the unpruned closure lists
        from fractions import Fraction

        from reidbasket.core import parse_basket
        from reidbasket.packing import closure, volume_at_most

        root = "4x(1,2),2x(1,3),(1,4)"
        code, out, err = run_cli("pack", "--basket", root, "--k3-max", "1/10", "--p1", "1")
        assert (code, err) == (0, "")
        result = closure(parse_basket(root), prune=volume_at_most(Fraction(1, 10), 1))
        *rows, last = out.splitlines()
        assert [row.split("\t")[0] for row in rows] == [str(b) for b in result.baskets]
        assert last == f"# visited {result.visited} baskets, emitted {len(result.baskets)}"
        assert 0 < len(rows) < len(closure(parse_basket(root)).baskets)


class TestClassify:
    def test_from_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1 p[8]=2\n")
        code, out, _ = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert [l.split("\t")[0] for l in lines] == [
            "(1,2),(1,3),(1,4),(2,5),(1,9)",
            "(1,2),(1,3),(1,4),(2,5),(1,10)",
            "(1,2),(1,3),(1,4),(2,5),(1,11)",
        ]
        assert lines[0].split("\t")[1:] == ["1/180", "180", "9"]

    def test_profiles_mode(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1 rx=840\n")
        code, out, _ = run_cli("classify", "--constraints", str(path), "--profiles", "840")
        assert code == 0
        assert "# 5 basket(s)" in out

    @pytest.mark.parametrize("lcm", ["0", "-4"])
    def test_profiles_below_one_is_usage_error(self, tmp_path, lcm):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1 p[8]=2\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--profiles", lcm)
        assert (code, out) == (2, "")
        assert err == f"error: --profiles must be >= 1, got {lcm}\n"

    def test_profiles_against_another_rx_is_usage_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1 rx=840\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--profiles", "630")
        assert (code, out) == (2, "")
        assert err == "error: --profiles 630 differs from rx=840 in the file\n"

    def test_profiles_is_the_files_rx(self, tmp_path):
        # one answer per file: without the gamma filter both run the walk
        path = tmp_path / "c.txt"
        path.write_text("p[1]=0..2 rx=840 filters=none\n")
        plain = run_cli("classify", "--constraints", str(path))
        assert plain[1].endswith("# 109 basket(s)\n")
        assert run_cli("classify", "--constraints", str(path), "--profiles", "840") == plain

    def test_profiles_one_is_the_empty_basket(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=4 filters=none\n")
        code, out, _ = run_cli("classify", "--constraints", str(path), "--profiles", "1")
        assert (code, out) == (0, "\t2\t1\t-\n# 1 basket(s)\n")

    @pytest.mark.parametrize("table_id", [7, 16])
    def test_a_list_table_is_the_classify_query_of_its_constraints_line(self, tmp_path, table_id):
        # in a child, as a reader reruns it: the listing is the table's rows
        from reidbasket.core import parse_basket
        from reidbasket.fixtures import load_table

        fixture = load_table(table_id)
        assert fixture.kind == "classify"
        path = tmp_path / "c.txt"
        path.write_text(fixture.constraints + "\n")
        run = subprocess.run(
            [sys.executable, "-m", "reidbasket", "classify", "--constraints", str(path)],
            capture_output=True, text=True, env=src_env(),
        )
        assert (run.returncode, run.stderr) == (0, "")
        *rows, last = run.stdout.splitlines()
        assert last == f"# {len(fixture.rows)} basket(s)"
        assert sorted(parse_basket(row.split("\t")[0]) for row in rows) == sorted(r.basket for r in fixture.rows)

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli("classify", "--constraints", "/nonexistent/c.txt")
        assert code == 2

    def test_unreadable_path_is_usage_error(self, tmp_path):
        code, out, err = run_cli("classify", "--constraints", str(tmp_path))
        assert (code, out) == (2, "")
        assert str(tmp_path) in err and "internal error" not in err

    def test_zero_denominator_is_usage_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 k3=(0,1/0)\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 2
        assert "'1/0'" in err and out == ""

    def test_huge_k3_exponent_is_usage_error_at_once(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1 p[8]=2 k3=(1e-100000000,1/30)\n")
        start = time.perf_counter()
        code, out, err = run_cli("classify", "--constraints", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: bad constraints token 'k3=(1e-100000000,1/30)': not an exact rational: '1e-100000000'\n"
        )
        # 10 ** -4300 is read, and lies below every volume of the set
        path.write_text("p[1]=1 p[2]=1 p[8]=2 k3=(1e-4300,1/30)\n")
        assert run_cli("classify", "--constraints", str(path)) == (
            0, (BENCH / "expected" / "census_p8.txt").read_text(), "",
        )

    def test_inverted_range_is_usage_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("p[1]=1 p[2]=1..0\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 2
        assert "'p[2]=1..0'" in err and out == ""

    @pytest.mark.parametrize("token", ["k3=", "k3=(1/2)", "k3=[0,1,2]"])
    def test_malformed_k3_is_usage_error(self, tmp_path, token):
        path = tmp_path / "c.txt"
        path.write_text(f"p[1]=1 {token}\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 2
        assert f"'{token}'" in err and out == ""

    @pytest.mark.parametrize("text, token", [
        ("p[1]=1 p[2]=1 p[8]=2 p[0]=3", "p[0]=3"),
        ("p[1]=1 p[-2]=1", "p[-2]=1"),
    ])
    def test_plurigenus_index_below_one_is_usage_error(self, tmp_path, text, token):
        path = tmp_path / "c.txt"
        path.write_text(text + "\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 2
        assert f"'{token}'" in err and out == ""

    @pytest.mark.parametrize("token", [
        "sigma5=1..2..3", "rmax=a..3", "rx=abc", "rx<=abc", "indices={2,x}", "tailmax=abc",
        "tailmax=3", "filters=", "filters=,", "p[1]=-1", "p[1]=-1..2", "k3=(a,1/30)",
        "filters=gamma,foo", "k3=(1/2,1/30)", "k3=(1/30,1/30)", "rx=0", "rx<=0", "rx=-840",
        "rx=8_40", "p[1]=1_0", "k3=(1e4300,1)",
    ])
    def test_malformed_token_is_usage_error(self, tmp_path, token):
        path = tmp_path / "c.txt"
        path.write_text(f"p[2]=1 {token}\n")
        code, out, err = run_cli("classify", "--constraints", str(path), "--jobs", "1")
        assert code == 2
        assert f"'{token}'" in err and out == ""

    @pytest.mark.parametrize("text, token", [
        ("p[1]=1 p[2]=1 p[8]=2 p[8]=0..5", "p[8]=0..5"),
        ("p[1]=1 p[2]=1 p[8]=0..5 p[8]=2", "p[8]=2"),
        ("p[1]=1 sigma5=0 sigma5=1", "sigma5=1"),
        ("p[1]=1 filters=none\nfilters=gamma", "filters=gamma"),
    ])
    def test_repeated_key_is_usage_error(self, tmp_path, text, token):
        path = tmp_path / "c.txt"
        path.write_text(text + "\n")
        code, out, err = run_cli("classify", "--constraints", str(path))
        assert (code, out) == (2, "")
        assert f"repeated constraints key in '{token}'" in err


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name, extra", [
    ("census_p8", ()),
    ("census_p0", ()),
    ("census_rx840", ()),
    ("census_rx840", ("--profiles", "840")),
])
def test_census_stdout_matches_golden_file(name, extra):
    constraints = BENCH / "inputs" / f"{name}.txt"
    code, out, err = run_cli("classify", "--constraints", str(constraints), "--jobs", "1", *extra)
    assert (code, err) == (0, "")
    assert out.encode() == (BENCH / "expected" / f"{name}.txt").read_bytes()


# runs the CLI on its arguments, then writes its exit code and its own peak
# RSS (VmHWM, kB) to stderr
_PEAK_REPORT = """
import sys
from reidbasket.cli import main
code = main(sys.argv[1:])
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, peak.split()[1], file=sys.stderr)
"""


class TestCriteria:
    def test_text_report(self):
        code, out, _ = run_cli(
            "criteria", "--basket", "(1,2),(1,3),(2,5),(1,7),(1,8)", "--p1", "1",
        )
        assert code == 0
        assert out.splitlines()[1].split("\t") == [
            "(1,2),(1,3),(2,5),(1,7),(1,8)", "83/840", "83", "12", "27", "5", "8", "48",
        ]

    def test_record_format_and_branches(self):
        code, out, _ = run_cli(
            "criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1",
            "--same-pencil-k", "24", "--n0", "1", "--format", "records",
        )
        assert code == 0
        assert "headline_n2=52" in out.splitlines()[0]

    @pytest.mark.parametrize("p1, row", [
        ("4", "\t2\t2\t2\t1\t1\t1\t4"),
        ("5", "\t4\t4\t4\t2\t1\t1\t5"),
        ("8", "\t10\t10\t10\t2\t1\t1\t5"),
    ])
    def test_empty_basket_is_gorenstein(self, p1, row):
        # the empty basket passes the filter from P_{-1} = 4 on, with r_max = r_X = 1
        code, out, err = run_cli("criteria", "--basket", "", "--p1", p1)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == row

    def test_empty_basket_below_p1_4_is_rejected(self):
        assert run_cli("criteria", "--basket", "", "--p1", "3") == (
            2, "", "error: rejected by geometric filter: volume_positive: -K^3 = 0 <= 0\n",
        )

    def test_same_pencil_k_needs_two_sections(self):
        # P_{-1} = 1 < 2: no same-pencil branch at K = 1
        assert run_cli(
            "criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1", "--same-pencil-k", "1",
        ) == (2, "", "error: P[-1] = 1 < 2, no same-pencil branch available\n")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the child's VmHWM")
    def test_same_pencil_k_reads_one_plurigenus_in_flat_memory(self):
        # P_{-K} is read off the recursion's stream: a list of P_{-1..K}
        # held about 125 MB at this K, against 16 MB at K = 24
        def child(k: int) -> tuple[list[str], int]:
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_REPORT, "criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)",
                 "--p1", "1", "--same-pencil-k", str(k), "--format", "records"],
                capture_output=True, text=True, env=src_env(),
            )
            code, peak_kb = map(int, proc.stderr.split())
            assert code == 0
            return proc.stdout.splitlines(), peak_kb

        _, small = child(24)
        lines, large = child(2_000_000)
        assert lines[-1].startswith("branch criterion=b2 n2=51 mu0=2000000/4040407071394949 ")
        assert large < small + 8 * 1024

    @pytest.mark.parametrize("flags, message", [
        (("--same-pencil-k", "0"), "--same-pencil-k must be >= 1, got 0"),
        (("--same-pencil-k", "-3", "--n0", "0"), "--same-pencil-k must be >= 1, got -3"),
        (("--same-pencil-k", "8", "--n0", "0"), "--n0 must be >= 1, got 0"),
        (("--n0", "-1"), "--n0 must be >= 1, got -1"),
    ])
    def test_bad_flag_value_names_the_flag(self, flags, message):
        # checked before the basket is read
        for basket in ("(1,2),(2,5),(1,3),(2,11)", "(1,2),(2,5"):
            assert run_cli("criteria", "--basket", basket, "--p1", "1", *flags) == (2, "", f"error: {message}\n")

    def test_deterministic_output(self):
        args = ("criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1")
        assert run_cli(*args) == run_cli(*args)


class TestVerify:
    def test_single_table(self):
        code, out, _ = run_cli("verify", "--table", "17")
        assert code == 0
        assert "table 17" in out and "OK" in out

    def test_absent_table(self):
        code, out, _ = run_cli("verify", "--table", "8")
        assert code == 0
        assert "no fixture" in out

    def test_manifest(self):
        code, out, _ = run_cli("verify", "--manifest")
        assert code == 0
        assert "manifest OK" in out

    def test_manifest_lists_each_problem(self, tmp_path, monkeypatch):
        # one table edited, one unlisted and one missing, on a copy
        from reidbasket.fixtures import fixtures_dir

        for path in fixtures_dir().iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        with open(tmp_path / "table1.tsv", "a") as handle:
            handle.write("(1,2)\t-\t-\t-\t-\t-\t-\t-\t-\n")
        (tmp_path / "table17.tsv").unlink()
        (tmp_path / "table99.tsv").write_text("# table: 99\n")
        monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
        assert run_cli("verify", "--manifest") == (1, (
            "checksum mismatch: table1.tsv\n"
            "listed but missing: table17.tsv\n"
            "present but unlisted: table99.tsv\n"
            "3 problem(s)\n"
        ), "")

    def test_all(self):
        code, out, _ = run_cli("verify", "--all", "--jobs", "2")
        assert code == 0
        assert out.count("OK") >= 17

    def test_mismatch_exit_code(self, tmp_path, monkeypatch):
        (tmp_path / "table50.tsv").write_text(
            "# table: 50\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"
            "(1,2),(1,3),(2,5),(2,11)\t1/331\t-\t-\t-\t-\t-\t-\t-\n"
        )
        monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
        code, out, _ = run_cli("verify", "--table", "50")
        assert code == 1
        assert "MISMATCH" in out and "1/330" in out

    def test_bad_rational_cell_is_usage_error(self, tmp_path, monkeypatch):
        (tmp_path / "table50.tsv").write_text(
            "# table: 50\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"
            "(1,2),(1,3),(2,5),(2,11)\t1/0\t-\t-\t-\t-\t-\t-\t-\n"
        )
        monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
        code, out, err = run_cli("verify", "--table", "50")
        assert (code, out) == (2, "")
        assert err == "error: not an exact rational: '1/0'\n"

    def test_audit_mode_downgrades_mismatches(self, tmp_path, monkeypatch):
        (tmp_path / "table50.tsv").write_text(
            "# table: 50\n# kind: pipeline\n# p1: 1\n# n1_window: 1\n# case: 3\n"
            "(1,2),(1,3),(2,5),(2,11)\t1/331\t-\t-\t-\t-\t-\t-\t-\n"
        )
        monkeypatch.setenv("REID_BASKET_FIXTURES", str(tmp_path))
        code, out, _ = run_cli("verify", "--table", "50", "--audit")
        assert code == 0
        assert "MISMATCH" in out and "audit mode" in out

    def test_all_stdout_matches_golden_file(self):
        code, out, err = run_cli("verify", "--all", "--jobs", "1")
        assert (code, err) == (0, "")
        assert out.encode() == (BENCH / "expected" / "verify.txt").read_bytes()

    def test_verify_all_is_byte_deterministic(self):
        assert run_cli("verify", "--all", "--jobs", "2") == run_cli("verify", "--all")


def test_classify_is_byte_deterministic(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("p[1]=0 p[2]=0 p[8]=2\n")
    first = run_cli("classify", "--constraints", str(path), "--jobs", "2")
    second = run_cli("classify", "--constraints", str(path), "--jobs", "1")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reidbasket", "eval", "--basket", "(2,5)", "--p1", "1",
         "--upto", "2"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    assert "sigma' = 4/5" in proc.stdout


def test_internal_error_has_its_own_exit_code(monkeypatch):
    import reidbasket.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "eval", broken)
    code, out, err = run_cli("eval", "--basket", "(2,5)", "--p1", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert err == "internal error: RuntimeError: boom\n" and out == ""


def test_truncation_has_its_own_exit_code(monkeypatch):
    # ClosureTruncated is a RuntimeError: only its own clause keeps it from
    # being reported as an internal error
    import reidbasket.cli as cli
    from reidbasket.packing import ClosureTruncated

    def truncated(args):
        raise ClosureTruncated("budget gone")

    monkeypatch.setitem(cli._HANDLERS, "classify", truncated)
    code, out, err = run_cli("classify", "--constraints", "unread.txt")
    assert code == cli.EXIT_TRUNCATED == 3
    assert err == "error: budget gone\n" and out == ""


HELP_COMMANDS = ("", "eval", "canonical", "pack", "classify", "criteria", "verify")


def test_help_output_is_pinned(monkeypatch):
    # argparse wraps help at the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for command in HELP_COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            main(argv)
        assert (exit_.value.code, err.getvalue()) == (0, "")
        blocks.append(f"$ reidbasket {' '.join(argv)}\n{out.getvalue()}")
    assert "".join(blocks) == (Path(__file__).parent / "expected" / "cli_help.txt").read_text()


_EVAL = ("eval", "--basket", "(1,2)")
_CRITERIA = ("criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1")


@pytest.mark.parametrize("argv, option, value, kind", [
    pytest.param(("pack", "--basket", "(1,2)"), "--gamma-min", "abc", "parse_rational", id="--gamma-min"),
    pytest.param(("pack", "--basket", "(1,2)"), "--k3-max", "abc", "parse_rational", id="--k3-max"),
    # every integer option reads one token, ASCII digits with an optional -
    pytest.param(("classify", "--constraints", "c.txt"), "--profiles", "8_40", "parse_int", id="--profiles"),
    pytest.param(("classify", "--constraints", "c.txt"), "--jobs", "\u0661", "parse_int", id="classify --jobs"),
    pytest.param(_EVAL, "--p1", "\u0663", "parse_int", id="eval --p1"),
    pytest.param(_EVAL, "--p1", "1_0", "parse_int", id="eval --p1 1_0"),
    pytest.param((*_EVAL, "--p1", "0"), "--upto", "+3", "parse_int", id="--upto"),
    pytest.param(("pack", "--basket", "(1,2)"), "--p1", " 1", "parse_int", id="pack --p1"),
    pytest.param(("pack", "--basket", "(1,2)"), "--max-states", "1" * 4301, "parse_int", id="--max-states"),
    pytest.param(_CRITERIA, "--same-pencil-k", "2_4", "parse_int", id="--same-pencil-k"),
    pytest.param(_CRITERIA, "--n0", "\u0661", "parse_int", id="--n0"),
    pytest.param(_CRITERIA, "--case", "\u0662", "parse_int", id="--case"),
    pytest.param(("verify",), "--table", "1_7", "parse_int", id="--table"),
    pytest.param(("verify", "--all"), "--jobs", "\u0661", "parse_int", id="verify --jobs"),
])
def test_bad_option_value_is_an_argparse_error(argv, option, value, kind):
    # argparse names the option's type function in its message
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main([*argv, option, value])
    assert exit_.value.code == 2
    assert err.getvalue().startswith(f"usage: reidbasket {argv[0]} [-h]")
    assert err.getvalue().endswith(
        f"\nreidbasket {argv[0]}: error: argument {option}: invalid {kind} value: {value!r}\n"
    )


@pytest.mark.parametrize("command, basket, at", [
    pytest.param(command, "(1,2),(2,5", "(2,5", id=f"command{i}")
    for i, command in enumerate([("eval", "--p1", "0"), ("canonical",), ("pack",), ("criteria", "--p1", "0")])
] + [
    # an integer of a basket is ASCII digits, at most 4300 of them
    pytest.param(("eval", "--p1", "0"), "(\u0661,\u0662)", "(\u0661,\u0662)", id="non-ASCII digits"),
    pytest.param(("canonical",), "(1,2),\u0662x(1,3)", "\u0662x(1,3)", id="non-ASCII multiplicity"),
    pytest.param(("pack",), "(1,2),(1_0,21)", "(1_0,21)", id="1_0"),
    pytest.param(("eval", "--p1", "0"), "(1,2),(" + "1" * 4301 + ",2)", "(" + "1" * 19, id="4301 digits"),
])
def test_bad_basket_names_the_token(command, basket, at):
    code, out, err = run_cli(*command, "--basket", basket)
    assert (code, out) == (2, "")
    assert err == f"error: bad basket item at {at!r} (expected '[Nx](b,r)')\n"


def test_verify_all_under_optimize_flag():
    # the invariant checks are explicit, so stripping asserts changes nothing
    def run(*flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "reidbasket", "verify", "--all", "--jobs", "1"],
            capture_output=True, text=True, env=src_env(),
        )
        return proc.returncode, proc.stdout

    plain = run()
    assert plain[0] == 0
    assert run("-O") == plain


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self._fd


def test_closed_stdout_exits_141_silently(tmp_path, monkeypatch):
    import reidbasket.cli as cli

    target = tmp_path / "stdout"
    err = io.StringIO()
    with open(target, "wb") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle.fileno()))
        with redirect_stderr(err):
            code = cli.main(["eval", "--basket", "(2,5)", "--p1", "1"])
        # the descriptor now points at os.devnull, so a late flush is harmless
        os.write(handle.fileno(), b"late flush")
    assert code == cli.EXIT_PIPE == 141
    assert err.getvalue() == ""
    assert target.read_bytes() == b""


class _ShortPipe(_ClosedPipe):
    """A stdout whose reader leaves after the first 100 writes."""

    def __init__(self, fd: int) -> None:
        super().__init__(fd)
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > 100:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)


def test_eval_stops_when_the_reader_leaves(tmp_path, monkeypatch):
    # the terms are printed as they are computed, so ``| head`` ends the run
    import reidbasket.cli as cli

    start = time.perf_counter()
    with open(tmp_path / "stdout", "wb") as handle:
        monkeypatch.setattr(sys, "stdout", _ShortPipe(handle.fileno()))
        with redirect_stderr(io.StringIO()):
            code = cli.main(["eval", "--basket", "(2,5)", "--p1", "1", "--upto", str(10 ** 7)])
    assert code == cli.EXIT_PIPE
    assert time.perf_counter() - start < 5


def test_closed_pipe_in_a_child_process():
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reidbasket", "eval", "--basket", "(2,5)", "--p1", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# an index above sys.maxsize, which islice would refuse with a message that
# names no option or token
_PAST_MAXSIZE = "99999999999999999999999"


@pytest.mark.parametrize("argv, message", [
    (("eval", "--basket", "(1,2)", "--p1", "1", "--upto", _PAST_MAXSIZE),
     f"--upto must be <= {sys.maxsize}, got {_PAST_MAXSIZE}"),
    (("criteria", "--basket", "(1,2),(2,5),(1,3),(2,11)", "--p1", "1", "--same-pencil-k", _PAST_MAXSIZE),
     f"--same-pencil-k must be <= {sys.maxsize}, got {_PAST_MAXSIZE}"),
    (("classify", "--constraints", f"p[1]=1 p[{_PAST_MAXSIZE}]=1"),
     f"bad constraints token 'p[{_PAST_MAXSIZE}]=1': P_{{-m}} needs m <= {sys.maxsize}, got m = {_PAST_MAXSIZE}"),
], ids=["eval", "criteria", "classify"])
def test_an_index_past_maxsize_is_named_before_any_output(argv, message, tmp_path):
    if argv[0] == "classify":
        path = tmp_path / "c.txt"
        path.write_text(argv[2] + "\n")
        argv = (*argv[:2], str(path))
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


def test_huge_multiplicity_is_a_usage_error():
    code, out, err = run_cli("eval", "--basket", f"{10 ** 12}x(1,2)", "--p1", "0")
    assert (code, out) == (2, "")
    assert f"'{10 ** 12}x(1,2)'" in err


# a child that runs one command and reports what it imported; stdout and
# stderr are swallowed so only the report is printed
_LOADED_REPORT = """
import contextlib, io, json, sys
from reidbasket.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("reidbasket"))]
                 + [m in sys.modules for m in ("fractions", "hashlib")]))
"""
_PARSING = ["reidbasket", "reidbasket.cli"]
_CLASSIFYING = sorted(_PARSING + ["reidbasket.core", "reidbasket.classify"])
_VERIFYING = sorted(_CLASSIFYING + ["reidbasket.criteria", "reidbasket.fixtures"])


@pytest.mark.parametrize("argv, code, loaded, fractions, hashlib", [
    (["--help"], 0, _PARSING, False, False),
    (["eval", "--basket", "(2,5)"], 2, _PARSING, False, False),
    (["eval", "--basket", "(2,5)", "--p1", "1"], 0, sorted(_PARSING + ["reidbasket.core"]), True, False),
    (["canonical", "--basket", "(2,5),(3,7)"], 0,
     sorted(_PARSING + ["reidbasket.core", "reidbasket.canonical"]), True, False),
    (["pack", "--basket", "(2,5)"], 0,
     sorted(_PARSING + ["reidbasket.core", "reidbasket.packing"]), True, False),
    (["classify", "--constraints", str(BENCH / "inputs" / "census_p8.txt")], 0, _CLASSIFYING, True, False),
    (["verify", "--all", "--jobs", "1"], 0, _VERIFYING, True, False),
    (["verify", "--manifest"], 0, _VERIFYING, True, True),
], ids=["help", "usage-error", "eval", "canonical", "pack", "classify", "verify-all",
        "verify-manifest"])
def test_each_command_loads_only_the_modules_it_runs(argv, code, loaded, fractions, hashlib):
    # without a bytecode cache every module loaded is compiled from source,
    # so an import that a command does not use costs its start-up time
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_REPORT, *argv], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [code, loaded, fractions, hashlib]


def test_the_fixtures_do_not_load_canonical():
    # the library itself, not only the CLI: verifying the tables reads the
    # Farey descent from core
    code = "import sys, reidbasket.fixtures; print('reidbasket.canonical' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
