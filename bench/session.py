"""The ``session`` workload's worker: one long-lived process using the library.

It reads ``P_{-1}<TAB>basket`` lines on stdin and, basket by basket, times
four calls through the public API, the way a script or notebook user would:

* ``eval``      -- ``plurigenus_sequence`` to 24 plus the basket invariants
* ``canonical`` -- ``canonical_sequence``
* ``pack``      -- ``closure(unpack(B, 0))`` pruned by gamma >= 0, coprime output
* ``criteria``  -- ``geometric_filter``, then ``table_pipeline`` if it passes

Calls go through module attributes so that ``tracer.Tracer`` sees them.
Each op's result is reduced to the data the benchmark checks, outside the
timed region.  Between baskets, about every ``CALIBRATE_EVERY_S``, it times
the reference kernel of ``speed.py``.  It stops between baskets once
``--seconds`` have passed or ``--limit`` baskets are processed, and writes
one JSON document to REPORT.  With no input it only starts up, which is
how the benchmark times the library's set-up.

Usage: python3 bench/session.py REPORT --seconds S [--limit N] [--trace SPANS]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import speed
from reidbasket import canonical, core, criteria, packing

OPS = ("eval", "canonical", "pack", "criteria")
HORIZON = 24
CALIBRATE_EVERY_S = 0.5


def op_eval(basket, wb):
    seq = core.plurigenus_sequence(wb, HORIZON)
    invariants = (
        core.sigma(basket), core.sigma_prime(basket), core.gamma(basket),
        core.anti_volume(wb), core.r_index(basket), core.r_max(basket),
    )
    return seq, invariants


def op_canonical(basket, wb):
    return canonical.canonical_sequence(basket)


def op_pack(basket, wb):
    return packing.closure(
        canonical.unpack(basket, 0),
        prune=packing.gamma_at_least(0),
        emit=packing.coprime_only,
    )


def policy_for(p1: int) -> criteria.PipelinePolicy:
    # the CLI's "auto" policy: six consecutive values and case 2 when P_{-1} = 0
    return criteria.PipelinePolicy(n1_window=6 if p1 == 0 else 1, case=2 if p1 == 0 else 3)


def op_criteria(basket, wb):
    if not core.geometric_filter(wb).ok:
        return None
    return criteria.table_pipeline(wb, policy_for(wb.p1))


def summarize(op: str, basket, result):
    """The part of an op's result that the benchmark checks."""
    if op == "eval":
        seq, invariants = result
        return {"p": [core.format_rational(v) for v in seq[1:]],
                "k3": core.format_rational(invariants[3])}
    if op == "canonical":
        return {"stable": result.levels[-1][1] == basket}
    if op == "pack":
        return {"contains": basket in result.baskets, "emitted": len(result.baskets),
                "visited": result.visited, "truncated": result.truncated}
    if result is None:
        return {"passed": False}
    return {"passed": True, "n1": result.n1, "n2": result.headline_n2}


RUNNERS = {"eval": op_eval, "canonical": op_canonical, "pack": op_pack, "criteria": op_criteria}


def run_session(lines: list[str], seconds: float, limit: int | None, sampler: speed.Sampler):
    """Op records ``[basket index, op, seconds, error or None, checked data]``
    and kernel samples ``[index of the next basket, kernel seconds]``."""
    records: list[list] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    sampler.sample()
    kernel = [[0, sampler.samples[-1]]]
    calibrated = clock()
    done = 0
    for index, line in enumerate(lines):
        if (limit is not None and index >= limit) or (limit is None and clock() >= deadline):
            break
        if clock() - calibrated >= CALIBRATE_EVERY_S:
            sampler.sample()
            kernel.append([index, sampler.samples[-1]])
            calibrated = clock()
        done = index + 1
        p1_text, text = line.split("\t")
        basket = core.parse_basket(text)
        wb = core.WeightedBasket(basket, int(p1_text))
        for op in OPS:
            start = clock()
            try:
                result = RUNNERS[op](basket, wb)
            except Exception as exc:  # an op failure is data, counted by the benchmark
                records.append([index, op, clock() - start, f"{type(exc).__name__}: {exc}", None])
                continue
            elapsed = clock() - start
            records.append([index, op, elapsed, None, summarize(op, basket, result)])
    sampler.sample()
    kernel.append([done, sampler.samples[-1]])
    return records, kernel


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--trace", metavar="SPANS", default=None)
    args = parser.parse_args(argv)
    lines = sys.stdin.read().splitlines()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    sampler = speed.Sampler()
    records, kernel = run_session(lines, args.seconds, args.limit, sampler)
    out = {"ops": records, "kernel": kernel, "samples": sampler.samples,
           "kernel_s": sampler.spent, "totals": None}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.trace)
        out["totals"] = tracer.totals()
    with open(args.report, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
