"""One reidbasket CLI command, run the way the benchmark measures it.

    python3 bench/cli_run.py REPORT [--trace SPANS] -- <reidbasket arguments>

Runs ``reidbasket.cli.main`` with the reference kernel sampled in-process
(``speed.Sampler``) and, with ``--trace``, under ``tracer.Tracer``.  The
command's stdout is untouched.  ``-- --help`` is how the benchmark times
the CLI's set-up.  REPORT gets the kernel samples, the time
they took, and when traced the per-layer totals and the time spent writing
the spans to SPANS; the benchmark subtracts both times from the process's
wall time.  The exit status is the command's.
"""

from __future__ import annotations

import json
import sys
import time

import speed


def main(argv: list[str]) -> int:
    report_path, *rest = argv
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit(__doc__)
    tracer = None
    with speed.Sampler() as sampler:
        if spans_path is not None:
            from tracer import Tracer

            tracer = Tracer().install()
        from reidbasket import cli

        try:
            code = cli.main(rest[1:])
        except SystemExit as exc:  # argparse exits for --help and usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    report = {"samples": sampler.samples, "kernel_s": sampler.spent, "dump_s": 0.0}
    if tracer is not None:
        started = time.perf_counter()
        tracer.uninstall()
        tracer.write_spans(spans_path)
        report["totals"] = tracer.totals()
        report["dump_s"] = time.perf_counter() - started
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
