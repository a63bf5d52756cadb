"""Command-line front end.

Subcommands: eval, canonical, pack, classify, criteria, verify.
Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 resource truncation, 4 internal error (any other exception, reported
on one stderr line), 141 stdout closed by its reader (128 + SIGPIPE, as
``cat`` reports it; nothing on stderr).  All output is deterministic
byte-for-byte for a fixed command line: canonical ordering everywhere,
no timestamps.

Imports: the top level takes only the standard modules that parsing the
command line needs.  Each ``_cmd_*`` handler imports the library names it
runs, so ``--help`` and argparse usage errors load no library module, and
a command compiles only the modules it uses.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


# process pools never beat one process on these searches, so none is started;
# the option still parses for the command lines and scripts that pass it
_JOBS_HELP = "accepted and ignored: every run uses one process"


def parse_rational(text: str):
    # the type of --gamma-min and --k3-max, which loads ``core`` only when an
    # option is given; argparse names it in its error message
    from . import core

    return core.parse_rational(text)


def parse_int(text: str) -> int:
    # the type of every integer option, ``core``'s one integer token, loaded
    # the same way
    from . import core

    return core._int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidbasket",
        description="Exact Reid-basket calculus for terminal weak Q-Fano 3-folds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="basket invariants and anti-plurigenera")
    p_eval.add_argument("--basket", required=True)
    p_eval.add_argument("--p1", type=parse_int, required=True)
    p_eval.add_argument("--upto", type=parse_int, default=12)

    p_canon = sub.add_parser("canonical", help="level approximations and packing counts")
    p_canon.add_argument("--basket", required=True)
    p_canon.add_argument("--levels", help="comma list, e.g. 0,5,6,7")

    p_pack = sub.add_parser("pack", help="closure of a basket under packing")
    p_pack.add_argument("--basket", required=True)
    p_pack.add_argument("--gamma-min", type=parse_rational, default=None)
    p_pack.add_argument("--k3-max", type=parse_rational, default=None)
    p_pack.add_argument("--p1", type=parse_int, default=0,
                        help="weight used for volume columns and --k3-max")
    p_pack.add_argument("--coprime-only", action="store_true")
    # None: ``_cmd_pack`` reads core.MAX_VISITED, so parsing loads no library module
    p_pack.add_argument("--max-states", type=parse_int, default=None)

    p_cls = sub.add_parser("classify", help="enumerate baskets from a constraints file")
    p_cls.add_argument("--constraints", required=True)
    p_cls.add_argument("--jobs", type=parse_int, metavar="N", help=_JOBS_HELP)
    p_cls.add_argument("--profiles", type=parse_int, metavar="LCM", default=None,
                       help="the same as rx=LCM in the constraints file")

    p_crit = sub.add_parser("criteria", help="birationality report for one basket")
    p_crit.add_argument("--basket", required=True)
    p_crit.add_argument("--p1", type=parse_int, required=True)
    p_crit.add_argument("--policy", choices=("auto", "single", "six"), default="auto",
                        help="n1 convention: six consecutive values (P_{-1} = 0) or a single one")
    p_crit.add_argument("--case", type=parse_int, choices=(1, 2, 3), default=None,
                        help="criterion case for the default branch (default: 2 if P_{-1}=0 else 3)")
    p_crit.add_argument("--same-pencil-k", type=parse_int, default=None, metavar="K",
                        help="add the branch pair for |-KK| being (or not) the same pencil as |-m0 K|")
    p_crit.add_argument("--n0", type=parse_int, default=1,
                        help="N0 used by the same-pencil b2 branch (default 1)")
    p_crit.add_argument("--format", choices=("text", "records"), default="text")

    p_ver = sub.add_parser("verify", help="diff pipeline output against the bundled tables")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=parse_int)
    group.add_argument("--all", action="store_true")
    group.add_argument("--manifest", action="store_true")
    p_ver.add_argument("--jobs", type=parse_int, metavar="N", help=_JOBS_HELP)
    p_ver.add_argument("--audit", action="store_true",
                       help="downgrade mismatches to discrepancy reports (exit 0)")

    return parser


def _print_rows(weighted) -> None:
    """One line per weighted basket: basket, -K^3, r_X and r_max, tab-separated."""
    from .core import anti_volume, format_basket, format_rational, r_index, r_max

    for wb in weighted:
        b = wb.basket
        print(f"{format_basket(b)}\t{format_rational(anti_volume(wb))}"
              f"\t{r_index(b)}\t{r_max(b) if len(b) else '-'}")


def _cmd_eval(args) -> int:
    from itertools import islice

    from .core import (
        WeightedBasket,
        _plurigenera,
        anti_volume,
        format_basket,
        format_rational,
        gamma,
        parse_basket,
        r_index,
        r_max,
        sigma,
        sigma_prime,
    )

    if args.upto < 1:
        raise ValueError(f"--upto must be >= 1, got {args.upto}")
    if args.upto > sys.maxsize:
        raise ValueError(f"--upto must be <= {sys.maxsize}, got {args.upto}")
    basket = parse_basket(args.basket)
    wb = WeightedBasket(basket, args.p1)
    print(f"basket = {format_basket(basket)}")
    print(f"p1 = {args.p1}")
    print(f"sigma = {sigma(basket)}")
    print(f"sigma' = {format_rational(sigma_prime(basket))}")
    print(f"gamma = {format_rational(gamma(basket))}")
    print(f"r_X = {r_index(basket)}")
    print(f"r_max = {r_max(basket) if len(basket) else '-'}")
    print(f"-K^3 = {format_rational(anti_volume(wb))}")
    for m, p in islice(_plurigenera(wb), args.upto):
        print(f"P[-{m}] = {p}")
    return EXIT_OK


def _level(item: str) -> int:
    from .canonical import _check_level
    from .core import _int

    try:
        level = _int(item.strip())
    except ValueError:
        raise ValueError(f"bad --levels item {item!r} (expected an integer)") from None
    _check_level(level)
    return level


def _cmd_canonical(args) -> int:
    from .canonical import canonical_sequence, epsilon_n, unpack
    from .core import format_basket, parse_basket

    basket = parse_basket(args.basket)
    if args.levels:
        # every item is checked before any level prints; each level is built
        # on its own, so one far past stabilization costs no more than one near it
        for n in sorted({_level(x) for x in args.levels.split(",")}):
            print(f"B({n}) = {format_basket(unpack(basket, n))}")
            if n >= 5:
                print(f"epsilon_{n} = {epsilon_n(basket, n)}")
    else:
        seq = canonical_sequence(basket)
        for n, approx, eps in seq.levels:
            print(f"B({n}) = {format_basket(approx)}")
            if n >= 5:
                print(f"epsilon_{n} = {eps}")
        print(f"stabilizes at level {seq.stabilization_level}")
    return EXIT_OK


def _cmd_pack(args) -> int:
    from .core import MAX_VISITED, WeightedBasket, parse_basket
    from .packing import all_of, closure, coprime_only, gamma_at_least, volume_at_most

    max_states = MAX_VISITED if args.max_states is None else args.max_states
    if max_states < 1:
        raise ValueError(f"--max-states must be >= 1, got {max_states}")
    # a bad --p1 is refused here, before the search
    root = WeightedBasket(parse_basket(args.basket), args.p1)
    prune_clauses = []
    if args.gamma_min is not None:
        prune_clauses.append(gamma_at_least(args.gamma_min))
    if args.k3_max is not None:
        prune_clauses.append(volume_at_most(args.k3_max, args.p1))
    prune = all_of(*prune_clauses) if prune_clauses else None
    emit = coprime_only if args.coprime_only else None
    result = closure(root.basket, prune=prune, emit=emit, max_visited=max_states)
    _print_rows(WeightedBasket(b, args.p1) for b in result.baskets)
    print(f"# visited {result.visited} baskets, emitted {len(result.baskets)}")
    if result.truncated:
        print("# TRUNCATED: state budget exhausted, listing is partial", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .classify import classify, parse_constraints

    if args.profiles is not None and args.profiles < 1:
        raise ValueError(f"--profiles must be >= 1, got {args.profiles}")
    try:
        with open(args.constraints) as handle:
            text = handle.read()
    except OSError as exc:
        # a missing, unreadable or directory path is the caller's to fix
        raise ValueError(
            f"cannot read constraints file {args.constraints!r}: {exc.strerror}"
        ) from None
    constraints = parse_constraints(text)
    if args.profiles is not None:
        if constraints.rx_exact not in (None, args.profiles):
            raise ValueError(f"--profiles {args.profiles} differs from rx={constraints.rx_exact} in the file")
        constraints = constraints._replace(rx_exact=args.profiles)
    found = classify(constraints)
    _print_rows(found)
    print(f"# {len(found)} basket(s)")
    return EXIT_OK


def _cmd_criteria(args) -> int:
    from fractions import Fraction

    from .core import WeightedBasket, parse_basket, plurigenus
    from .criteria import BranchSpec, PipelinePolicy, table_pipeline

    if args.same_pencil_k is not None and args.same_pencil_k < 1:
        raise ValueError(f"--same-pencil-k must be >= 1, got {args.same_pencil_k}")
    if args.same_pencil_k is not None and args.same_pencil_k > sys.maxsize:
        raise ValueError(f"--same-pencil-k must be <= {sys.maxsize}, got {args.same_pencil_k}")
    if args.n0 < 1:
        raise ValueError(f"--n0 must be >= 1, got {args.n0}")
    basket = parse_basket(args.basket)
    wb = WeightedBasket(basket, args.p1)
    p1_zero = args.p1 == 0
    window = 6 if (args.policy == "six" or (args.policy == "auto" and p1_zero)) else 1
    case = args.case if args.case is not None else (2 if p1_zero else 3)
    branches: tuple[BranchSpec, ...] = ()
    if args.same_pencil_k is not None:
        k = args.same_pencil_k
        pk = plurigenus(wb, k)
        if pk < 2:
            raise ValueError(f"P[-{k}] = {pk} < 2, no same-pencil branch available")
        branches = (
            BranchSpec(
                f"|-{k}K| and the m0-system not composed with the same pencil",
                "b", case=3, m1=k,
            ),
            BranchSpec(
                f"|-{k}K| and the m0-system composed with the same pencil",
                "b2", mu0=Fraction(k, pk - 1), n0=args.n0,
            ),
        )
    report = table_pipeline(wb, PipelinePolicy(n1_window=window, case=case, branches=branches))
    if args.format == "records":
        for line in report.to_records():
            print(line)
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .fixtures import verify_all, verify_manifest, verify_table

    if args.manifest:
        problems = verify_manifest()
        for problem in problems:
            print(problem)
        print("manifest OK" if not problems else f"{len(problems)} problem(s)")
        return EXIT_OK if not problems else EXIT_MISMATCH
    if args.all:
        reports = verify_all()
    else:
        reports = [verify_table(args.table)]
    bad = False
    for report in reports:
        for line in report.lines():
            print(line)
        if report.mismatches:
            bad = True
    if bad and args.audit:
        print("# audit mode: mismatches reported above with recomputed values")
        return EXIT_OK
    return EXIT_MISMATCH if bad else EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "canonical": _cmd_canonical,
    "pack": _cmd_pack,
    "classify": _cmd_classify,
    "criteria": _cmd_criteria,
    "verify": _cmd_verify,
}


def _stdout_to_devnull() -> None:
    # the reader closed stdout early (``| head``); what is still buffered
    # goes to os.devnull, so the flush at interpreter exit cannot raise again
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    # --help and usage errors exit here, before any library module loads
    args = _build_parser().parse_args(argv)
    from .core import ClosureTruncated

    try:
        code = _HANDLERS[args.command](args)
        # a closed pipe surfaces here rather than in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_PIPE
    except ClosureTruncated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
