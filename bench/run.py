"""The reidbasket benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {verify,census,session} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source tree that has ``src/reidbasket``; the
package is imported from there (``PYTHONPATH=src``), nothing is installed.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced work and reports the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_frac``.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it, starting with ``#``, give the run record
and the details behind each metric.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import speed
import tracer
import universe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
PY = sys.executable

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
SESSION_DRAWS = 20000
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

VERIFY = (("verify", ["verify", "--all", "--jobs", "1"], "verify.txt"),)
CENSUS = (
    ("p8", ["classify", "--constraints", "bench/inputs/census_p8.txt", "--jobs", "1"],
     "census_p8.txt"),
    ("p0", ["classify", "--constraints", "bench/inputs/census_p0.txt", "--jobs", "1"],
     "census_p0.txt"),
    ("rx840", ["classify", "--constraints", "bench/inputs/census_rx840.txt", "--jobs", "1"],
     "census_rx840.txt"),
    ("rx840_profiles", ["classify", "--constraints", "bench/inputs/census_rx840.txt",
                        "--jobs", "1", "--profiles", "840"], "census_rx840.txt"),
)
SETUP_REPORT = OUT / "report-setup.json"
CLI_SETUP = ["bench/cli_run.py", str(SETUP_REPORT), "--", "--help"]
LIBRARY_SETUP = ["bench/session.py", str(SETUP_REPORT), "--seconds", "0"]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    stdout: bytes
    code: int
    seconds: float
    rss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], stdin: bytes | None = None) -> Child:
    """Run ``python3 <args>`` from the tree root; wall time, exit code and peak RSS.

    The watchdog kills a child that outlives ``CHILD_TIMEOUT_S``; its exit
    code then marks the op as failed.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PY, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if stdin is not None:
                try:
                    proc.stdin.write(stdin)
                    proc.stdin.close()
                except BrokenPipeError:
                    pass  # the child died early; its exit code reports it
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(out, proc.returncode, seconds, usage.ru_maxrss / 1024, stderr)


def preflight() -> None:
    """Fail (exit 2) unless the package under test imports from this tree."""
    if not (SRC / "reidbasket" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'reidbasket'}; run from a reidbasket source tree")
    child = run_child(["-c", "import reidbasket; print(reidbasket.__file__)"])
    where = Path(child.stdout.decode().strip() or ".").resolve()
    if child.code != 0 or SRC.resolve() not in where.parents:
        sys.exit(f"bench: reidbasket did not import from {SRC}: {child.stderr.strip()}")


def measure_setup(args: list[str]) -> tuple[float, str]:
    """Median time of fresh interpreters running ``args`` (after one warm-up).

    ``args`` is ``cli_run.py -- --help`` or ``session.py`` with no input:
    each samples the kernel as it starts and ends, and the samples' own
    time is subtracted.
    """
    run_child(args, stdin=b"")
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        child = run_child(args, stdin=b"")
        if child.code != 0:
            sys.exit(f"bench: set-up command failed: {child.stderr.strip()}")
        report = json.loads(SETUP_REPORT.read_text())
        wall = child.seconds - report["kernel_s"]
        ref.append(wall * speed.scale(report["samples"]))
        raw.append(wall)
    return statistics.median(ref), f"setup_s raw median {statistics.median(raw):.4f} s"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[str, float]:
    """The highest of ``TAIL_LADDER`` with at least 10 samples beyond it, else the median.

    Nearest-rank percentiles.  The rungs are coarse so that the rung does
    not change between runs of similar length.  Below 100 samples no rung
    has 10 beyond it, and the median is the highest percentile that has
    10 beyond it or, under 20 samples, the one least moved by the
    machine's noise (the maximum of a few process runs measures only that).
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return f"p{p:g}", xs[rank - 1]
    return "p50", statistics.median(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# workloads driven through the CLI: verify and census
# ---------------------------------------------------------------------------

def cli_pass(commands, traced: bool, label: str) -> dict:
    """One pass: every command of the workload in a fresh process, checked."""
    walls, raw, rss, failures, totals, outputs = [], [], [], [], [], []
    for name, args, expected in commands:
        report_path = OUT / f"report-{label}-{name}.json"
        report_path.unlink(missing_ok=True)
        trace_args = ["--trace", str(OUT / f"spans-{label}-{name}.jsonl")] if traced else []
        child = run_child(["bench/cli_run.py", str(report_path), *trace_args, "--", *args])
        wall, scale = child.seconds, 1.0
        if report_path.exists():
            report = json.loads(report_path.read_text())
            wall -= report["kernel_s"] + report["dump_s"]
            scale = speed.scale(report["samples"])
            if traced:
                totals.append({k: v * scale if unit_of(k) == "s" else v
                               for k, v in report["totals"].items()})
        want = (BENCH / "expected" / expected).read_bytes()
        if child.code != 0 or child.stdout != want:
            failures.append(f"{name}: exit {child.code}, stdout "
                            f"{'matches' if child.stdout == want else 'differs'}; "
                            f"{child.stderr.strip()[-300:]}")
        walls.append(wall * scale)
        raw.append(wall)
        rss.append(child.rss_mb)
        outputs.append(child.stdout)
    return {"walls": walls, "raw": sum(raw), "rss": max(rss), "failures": failures,
            "totals": tracer.merge_totals(totals), "outputs": outputs}


def run_cli_workload(label, commands, seconds: float, trace: bool) -> tuple[dict, int, int, list[str]]:
    notes: list[str] = []
    passes, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (trace and not traced_passes):
        passes.append(cli_pass(commands, False, label))
        if trace:
            traced_passes.append(cli_pass(commands, True, label))
    every = passes + traced_passes
    attempted = sum(len(p["walls"]) for p in every)
    failed = sum(len(p["failures"]) for p in every)
    for p in every:
        notes.extend(f"FAILED {f}" for f in p["failures"])
    for untraced, traced in zip(passes, traced_passes):
        if untraced["outputs"] != traced["outputs"]:
            failed += 1
            notes.append("FAILED traced stdout differs from untraced stdout")

    if trace:
        wall = statistics.median(sum(p["walls"]) for p in passes)
        traced_wall = statistics.median(sum(p["walls"]) for p in traced_passes)
        per_pass = [tracer.layer_metrics(p["totals"]) for p in traced_passes]
        metrics = {k: metric(statistics.median(m[k] for m in per_pass), unit_of(k)) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = metric(traced_wall / wall - 1, "ratio")
        notes.append(f"passes untraced {len(passes)} traced {len(traced_passes)}; "
                     f"median pass {wall:.4f} s untraced, {traced_wall:.4f} s traced")
        return metrics, attempted, failed, notes

    setup, setup_note = measure_setup(CLI_SETUP)
    notes.append(setup_note)
    # the latency of a CLI op is its whole pass: the median over the four
    # different census commands would sit between two of them and jump
    pass_times = [sum(p["walls"]) for p in passes]
    tail_label, tail_value = tail(pass_times)
    notes.append(f"passes {len(passes)}, processes {attempted}; op_tail_ms is {tail_label} "
                 f"of {len(passes)} passes; raw median pass "
                 f"{statistics.median(p['raw'] for p in passes):.4f} s")
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(statistics.median(pass_times), "s"),
        "op_p50_ms": metric(statistics.median(pass_times) * 1000, "ms"),
        "op_tail_ms": metric(tail_value * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(p["rss"] for p in passes), "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------
# the session workload: one long-lived library process
# ---------------------------------------------------------------------------

def check_basket(p1: int, text: str, records: list) -> list[str]:
    """Problems with one basket's four op results (empty when all are right)."""
    from reidbasket.core import WeightedBasket, parse_basket, plurigenus_closed
    from reidbasket.criteria import not_pencil_by_plurigenus

    basket = parse_basket(text)
    wb = WeightedBasket(basket, p1)
    by_op = {rec[1]: rec for rec in records}
    problems = [f"{op}: {by_op[op][3]}" for op in by_op if by_op[op][3] is not None]
    if len(by_op) != 4:
        problems.append(f"ops run: {sorted(by_op)}")
    if problems:
        return problems
    ev = by_op["eval"][4]
    k3 = Fraction(ev["k3"])
    closed = [plurigenus_closed(basket, k3, m) for m in range(1, len(ev["p"]) + 1)]
    if len(ev["p"]) != 24 or [Fraction(v) for v in ev["p"]] != closed:
        problems.append("eval: recursion differs from the closed form")
    if not by_op["canonical"][4]["stable"]:
        problems.append("canonical: last level is not the basket itself")
    pack = by_op["pack"][4]
    if pack["truncated"] or not pack["contains"]:
        problems.append("pack: basket missing from its own closure")
    crit = by_op["criteria"][4]
    if crit["passed"]:
        n1, window = crit["n1"], 6 if p1 == 0 else 1

        def certified(m: int) -> bool:
            return all(not_pencil_by_plurigenus(wb, n) for n in range(m, m + window))

        if not certified(n1) or (n1 > 1 and certified(n1 - 1)):
            problems.append(f"criteria: n1 = {n1} is not the least certified start")
    return problems


def session_child(lines: list[str], seconds: float, limit: int | None, spans: Path | None):
    report = OUT / "report-session.json"
    report.unlink(missing_ok=True)
    args = ["bench/session.py", str(report), "--seconds", str(seconds)]
    if limit is not None:
        args += ["--limit", str(limit)]
    if spans is not None:
        args += ["--trace", str(spans)]
    child = run_child(args, stdin="".join(line + "\n" for line in lines).encode())
    if child.code != 0:
        return child, None
    return child, json.loads(report.read_text())


def check_session(lines: list[str], records: list) -> tuple[int, list[str]]:
    by_basket: dict[int, list] = {}
    for rec in records:
        by_basket.setdefault(rec[0], []).append(rec)
    failed_ops, notes = 0, []
    for index, recs in by_basket.items():
        p1_text, text = lines[index].split("\t")
        problems = check_basket(int(p1_text), text, recs)
        if problems:
            failed_ops += len(problems)
            notes.append(f"FAILED basket {text} p1={p1_text}: {'; '.join(problems)}")
    return failed_ops, notes


def basket_scales(kernel: list, baskets: int) -> list[float]:
    """Reference-speed factor per basket, from the kernel samples around it."""
    scales, k = [], 0
    for j in range(baskets):
        while kernel[k + 1][0] <= j:
            k += 1
        scales.append(speed.scale([kernel[k][1], kernel[k + 1][1]]))
    return scales


def scaled_ops(result: dict) -> list[float]:
    """Each op's latency in reference seconds."""
    scales = basket_scales(result["kernel"], result["kernel"][-1][0])
    return [rec[2] * scales[rec[0]] for rec in result["ops"]]


def run_session_workload(seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, list[str]]:
    draws = universe.draw_session(universe.terminal_baskets(), seed, SESSION_DRAWS)
    lines = [f"{p1}\t{text}" for text, p1 in draws]
    notes: list[str] = []

    # tracing off: the whole budget, or its first half when a traced run follows
    child, result = session_child(lines, seconds / 2 if trace else seconds, None, None)
    if result is None:
        return {}, 1, 1, notes + [f"FAILED session process exit {child.code}: {child.stderr[-500:]}"]
    records = result["ops"]
    failed, check_notes = check_session(lines, records)
    notes.extend(check_notes)
    baskets = result["kernel"][-1][0]
    attempted = len(records)
    ops = scaled_ops(result)

    if trace:
        spans = OUT / "spans-session.jsonl"
        tchild, traced = session_child(lines, 0, baskets, spans)
        if traced is None:
            return {}, attempted + 1, failed + 1, notes + [
                f"FAILED traced session process exit {tchild.code}: {tchild.stderr[-500:]}"]
        attempted += len(traced["ops"])
        if [r[4] for r in traced["ops"]] != [r[4] for r in records]:
            failed += 1
            notes.append("FAILED traced session results differ from untraced results")
        op_time, traced_time = sum(ops), sum(scaled_ops(traced))
        scale = speed.scale(traced["samples"])
        metrics = {k: metric(v * scale if unit_of(k) == "s" else v, unit_of(k))
                   for k, v in tracer.layer_metrics(traced["totals"]).items()}
        metrics["trace.overhead_frac"] = metric(traced_time / op_time - 1, "ratio")
        notes.append(f"baskets {baskets}; op time {op_time:.4f} s untraced, "
                     f"{traced_time:.4f} s traced (reference seconds)")
        return metrics, attempted, failed, notes

    setup, setup_note = measure_setup(LIBRARY_SETUP)
    notes.append(setup_note)
    tail_label, tail_value = tail(ops)
    for op in ("eval", "canonical", "pack", "criteria"):
        xs = [s * 1000 for rec, s in zip(records, ops) if rec[1] == op]
        notes.append(f"op {op}: n {len(xs)}, p50 {statistics.median(xs):.4f} ms, "
                     f"{tail(xs)[0]} {tail(xs)[1]:.4f} ms")
    notes.append(f"baskets {baskets} (one pass = the four ops on one basket), ops {len(ops)}; "
                 f"op_tail_ms is {tail_label} of {len(ops)} ops; raw op p50 "
                 f"{statistics.median(rec[2] for rec in records) * 1000:.4f} ms")
    metrics = {
        "setup_s": metric(setup, "s"),
        # the mean, not the median: a basket's cost is bimodal (criteria runs
        # the pipeline only when the filter passes), and the median jumps
        # between the modes with the seed's pass fraction
        "wall_s": metric(sum(ops) / baskets, "s"),
        "op_p50_ms": metric(statistics.median(ops) * 1000, "ms"),
        "op_tail_ms": metric(tail_value * 1000, "ms"),
        "peak_rss_mb": metric(child.rss_mb, "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------
# run record and entry point
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def git_revision() -> str | None:
    """HEAD of the tree's own .git, read without running git (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and tables, to identify the code run."""
    digest = hashlib.sha256()
    package = SRC / "reidbasket"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


WORKLOADS = ("verify", "census", "session")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="reidbasket benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    preflight()
    sys.path.insert(0, str(SRC))  # the output checks call the library in this process
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "git_revision": git_revision(),
        "source_sha256": source_digest(), "loadavg_before": loadavg(),
    }
    trace = bool(args.trace)
    if args.workload == "session":
        metrics, attempted, failed, notes = run_session_workload(args.seed, args.seconds, trace)
    else:
        commands = VERIFY if args.workload == "verify" else CENSUS
        metrics, attempted, failed, notes = run_cli_workload(args.workload, commands, args.seconds, trace)
    record["loadavg_after"] = loadavg()

    with open(OUT / "runs.jsonl", "a") as handle:
        handle.write(json.dumps({**record, "attempted": attempted, "failed": failed,
                                 "metrics": metrics}) + "\n")
    print("# run " + json.dumps(record))
    for note in notes:
        print("# " + note)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
