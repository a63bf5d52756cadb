"""Numeric criteria for anti-canonical maps of terminal weak Q-Fano 3-folds.

Two families of bounds are implemented, both purely arithmetic in the
basket data (the geometric hypotheses behind them, such as the Picard
number of the Mori fiber space being > 1, are *recorded as assumptions*,
never verified):

* pencil exclusion: |-mK| is not composed with a pencil of surfaces once
  P_{-m} > lambda(M) * m + 1, where M = r_X * (-K^3) and lambda is a
  threshold function of M; plus a Riemann-Roch lower bound route that
  certifies the same inequality from a volume bound alone.

* birationality: once a pencil-free m1 and an m0 with P_{-m0} >= 2 are
  known, explicit bounds n2 guarantee that the m-th anti-canonical map is
  birational for all m >= n2.  Branches differ in which "composed with a
  pencil / same pencil" assumption they take and in the choice of the
  auxiliary rational mu0'.

Every square-root comparison is resolved by exact integer squaring; no
floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .core import (
    Basket,
    WeightedBasket,
    _plurigenera,
    _record,
    _volume,
    anti_volume,
    format_basket,
    format_rational,
    geometric_filter,
    plurigenus,
    plurigenus_sequence,
)

__all__ = [
    "floor_sqrt",
    "ceil_sqrt",
    "floor_plus_sqrt",
    "lambda_of",
    "theta",
    "theta_max",
    "lambda_ratio_bound",
    "not_pencil_by_plurigenus",
    "first_not_pencil",
    "rr_lower_bound",
    "not_pencil_threshold",
    "a_of",
    "CriterionInputs",
    "birational_bound_b",
    "birational_bound_b2",
    "Mu0Candidate",
    "mu0_candidates",
    "BranchSpec",
    "BranchResult",
    "PipelinePolicy",
    "BirationalityReport",
    "table_pipeline",
]


# ---------------------------------------------------------------------------
# exact integer square roots of rationals
# ---------------------------------------------------------------------------

def floor_sqrt(q: Fraction | int) -> int:
    """Largest integer s with s*s <= q (q >= 0)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("floor_sqrt needs q >= 0")
    # floor(sqrt(q)) == isqrt(floor(q)): any integer square <= q is <= floor(q)
    return math.isqrt(q.numerator // q.denominator)


def ceil_sqrt(q: Fraction | int) -> int:
    """Smallest integer s with s*s >= q (q >= 0)."""
    q = Fraction(q)
    s = floor_sqrt(q)
    return s if s * s >= q else s + 1


def _le_sqrt(x: Fraction, v: Fraction) -> bool:
    # x <= sqrt(v), decided by squaring
    return x <= 0 or x * x <= v


def floor_plus_sqrt(mu: Fraction | int, v: Fraction | int) -> int:
    """floor(mu + sqrt(v)) by exact bracketing (v >= 0)."""
    mu, v = Fraction(mu), Fraction(v)
    if v < 0:
        raise ValueError("floor_plus_sqrt needs v >= 0")
    # floor(mu) <= mu and floor_sqrt(v) <= sqrt(v), so f <= mu + sqrt(v)
    # from the start, and only the upward correction can be needed
    f = math.floor(mu) + floor_sqrt(v)
    while _le_sqrt(f + 1 - mu, v):
        f += 1
    return f


# ---------------------------------------------------------------------------
# the threshold functions lambda and theta
# ---------------------------------------------------------------------------

def lambda_of(m_big: int, rx: int) -> Fraction:
    """lambda(M) = M for M <= 3, else
    max{3, M/r_X, 2*floor(sqrt(M/2)), M/ceil(sqrt(M/2))}.

    Read on integers: floor(sqrt(M/2)) is isqrt(M // 2), the ceiling
    follows from it, and the largest candidate is picked by
    cross-multiplication, so one Fraction is built.
    """
    if m_big < 1:
        raise ValueError("lambda_of needs M >= 1")
    if rx < 1:
        raise ValueError("lambda_of needs r_X >= 1")
    if m_big <= 3:
        return Fraction(m_big)
    lo = math.isqrt(m_big // 2)
    hi = lo if 2 * lo * lo == m_big else lo + 1
    num, den = max(3, 2 * lo), 1
    for d in (rx, hi):
        if m_big * den > num * d:
            num, den = m_big, d
    return Fraction(num, den)


def theta(m_big: int, rx: int, n_part: int) -> Fraction:
    """theta(M, N) = min{M/N, max{3, M/r_X, 2N}}."""
    if n_part < 1:
        raise ValueError("theta needs N >= 1")
    return min(
        Fraction(m_big, n_part),
        max(Fraction(3), Fraction(m_big, rx), Fraction(2 * n_part)),
    )


def theta_max(m_big: int, rx: int) -> Fraction:
    """theta(M) = max over N >= 1 of theta(M, N).

    For N > M the value M/N < 1 <= theta(M, 1), so the search space is
    N in 1..M; the maximum sits either at N = 1, or where 2N crosses M/N
    (N near sqrt(M/2)), or where 2N crosses max(3, M/r_X), and only those
    candidates are scanned.
    """
    c = max(Fraction(3), Fraction(m_big, rx))
    candidates = {1, m_big}
    mid = floor_sqrt(Fraction(m_big, 2))
    edge = math.ceil(c / 2)
    for base in (mid, edge):
        for d in (-2, -1, 0, 1, 2):
            candidates.add(base + d)
    return max(
        theta(m_big, rx, n) for n in candidates if 1 <= n <= m_big
    )


def lambda_ratio_bound(k3: Fraction, rx: int) -> Fraction:
    """A rational upper bound for lambda(M)/(-K^3) that needs no M.

    Two routes, both valid whenever M = r_X * (-K^3) is a positive
    integer, combined by taking the smaller:

        lambda(M)/(-K^3) <= max{1, 3/(-K^3), sqrt(2 r_X / (-K^3))}
        lambda(M)/(-K^3) <= r_X            (since lambda(M) <= M)

    with the square root rounded up to the next integer to stay rational.
    Monotone in both arguments, so (k3 lower bound, r_X upper bound) for a
    family yields a bound valid across the family.
    """
    if k3 <= 0:
        raise ValueError("lambda_ratio_bound needs -K^3 > 0")
    sqrt_route = max(Fraction(1), 3 / k3, Fraction(ceil_sqrt(2 * rx / k3)))
    return min(sqrt_route, Fraction(rx))


# ---------------------------------------------------------------------------
# pencil exclusion
# ---------------------------------------------------------------------------

def _lambda_for(wb: WeightedBasket) -> tuple[int, int, Fraction]:
    """(M, r_X, lambda(M)) for M = r_X * (-K^3), an integer; M must be positive."""
    rec = _record(wb.basket)
    rx, m_big = rec[0], _volume(wb.p1, rec)
    if m_big <= 0:
        raise ValueError(f"M = r_X * (-K^3) = {m_big} is not a positive integer")
    return m_big, rx, lambda_of(m_big, rx)


def _rmax(basket: Basket) -> int:
    """r_max, read as 1 on the empty basket: the Gorenstein case, r_X = 1."""
    return _record(basket)[1] or 1


def not_pencil_by_plurigenus(wb: WeightedBasket, m: int) -> bool:
    """True iff P_{-m} > lambda(M) * m + 1, exactly.

    Under the recorded hypotheses this certifies that |-mK| is not
    composed with a pencil.
    """
    return plurigenus(wb, m) > _lambda_for(wb)[2] * m + 1


def first_not_pencil(wb: WeightedBasket, window: int = 1, limit: int = 400) -> int:
    """Least m such that P_{-n} > lambda(M)*n + 1 for every n in [m, m+window-1].

    window = 1 is the right notion when P_{-1} > 0 (the property then
    propagates to all larger m by superadditivity); window = 6 is the
    P_{-1} = 0 convention, where six consecutive certified values plus
    P_{-m} > 0 for m >= 6 cover everything beyond.
    """
    return _pencil_scan(_plurigenera(wb), _lambda_for(wb)[2], window, limit)


def _pencil_scan(values: Iterator[tuple[int, int]], lam: Fraction, window: int, limit: int) -> int:
    """``first_not_pencil`` on the (n, P_{-n}) that ``values`` yields from n = 1 on."""
    if window < 1:
        raise ValueError("window must be >= 1")
    # P_{-n} > lam * n + 1 reads, in integers, P_{-n} * lam.den >
    # lam.num * n + lam.den; the sequence is extended only until the first
    # certified window ends
    num, den = lam.numerator, lam.denominator
    run = 0
    for n, p in islice(values, max(limit + window - 1, 0)):
        if p * den > num * n + den:
            run += 1
            if run == window:
                return n - window + 1
        else:
            run = 0
    raise RuntimeError(f"no pencil-free m found below {limit}")


def rr_lower_bound(k3: Fraction, rmax: int, n: int, t: Fraction | int) -> Fraction | None:
    """Riemann-Roch lower bound for P_{-n}:

        P_{-n} >= n(n+1)(2n+1)/12 * (-K^3) + 1 - 2n/t,

    valid when n >= t and 3n >= r_max * t.  Returns None ("bound not
    applicable") when the validity conditions fail; never a silent value.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("rr_lower_bound needs t > 0")
    if n < t or 3 * n < rmax * t:
        return None
    return Fraction(n * (n + 1) * (2 * n + 1), 12) * k3 + 1 - Fraction(2 * n) / t


def not_pencil_threshold(
    k3: Fraction,
    rx: int,
    rmax: int,
    t: Fraction | int,
    lambda_bound: Fraction | None = None,
) -> int:
    """Least integer m with m >= t, 3m >= r_max * t and

        (m + 3/4)^2 > 12/(t * (-K^3)) + 6 * lambda_bound + 1/16,

    where lambda_bound is an upper bound for lambda(M)/(-K^3) (supplied
    exactly, or derived from r_X when omitted).  Every m at or above the
    returned value satisfies all three conditions.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("not_pencil_threshold needs t > 0")
    if lambda_bound is None:
        lambda_bound = lambda_ratio_bound(k3, rx)
    radicand = 12 / (t * k3) + 6 * lambda_bound + Fraction(1, 16)
    m_square = floor_plus_sqrt(Fraction(-3, 4), radicand) + 1
    return max(1, math.ceil(t), math.ceil(rmax * t / 3), m_square)


# ---------------------------------------------------------------------------
# birationality bounds
# ---------------------------------------------------------------------------

def a_of(m0: int) -> int:
    """The case constant a(m0): 6 for m0 >= 2, 1 for m0 = 1."""
    return 6 if m0 >= 2 else 1


class _CriterionFields(NamedTuple):
    k3: Fraction
    rx: int
    rmax: int
    m_big: int
    m0: int
    m1: int
    mu0: Fraction
    nu0: int = 1
    n0: int | None = None


class CriterionInputs(_CriterionFields):
    """Everything the birationality bounds consume.

    mu0 is the chosen rational witness mu0' (an upper bound for the true
    infimum); n0 = r_X * (pi* K^2 . S) is unknown a priori and supplied
    per branch.
    """

    __slots__ = ()

    def __new__(
        cls, k3: Fraction, rx: int, rmax: int, m_big: int, m0: int, m1: int,
        mu0: Fraction, nu0: int = 1, n0: int | None = None,
    ) -> "CriterionInputs":
        if m_big * k3.denominator != rx * k3.numerator:
            raise ValueError("M must equal r_X * (-K^3) exactly")
        if m1 < m0:
            raise ValueError("m1 >= m0 is required")
        return tuple.__new__(cls, (k3, rx, rmax, m_big, m0, m1, mu0, nu0, n0))

    @classmethod
    def _make(cls, iterable) -> "CriterionInputs":
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    @property
    def a_m0(self) -> int:
        return a_of(self.m0)

    @staticmethod
    def for_weighted_basket(
        wb: WeightedBasket, m0: int, m1: int, mu0: Fraction | int,
        nu0: int = 1, n0: int | None = None,
    ) -> "CriterionInputs":
        m_big, rx, _ = _lambda_for(wb)
        return CriterionInputs(
            k3=anti_volume(wb), rx=rx, rmax=_rmax(wb.basket), m_big=m_big,
            m0=m0, m1=m1, mu0=Fraction(mu0), nu0=nu0, n0=n0,
        )


def birational_bound_b(inputs: CriterionInputs, case: int) -> int:
    """The three-case birationality bound; phi_{-m} is birational for all
    m at or above the returned value, provided |-m0 K| and |-m1 K| are not
    composed with the same pencil.

    case 1: max{m0 + m1 + a(m0), floor(3 mu0) + 3 m1}
    case 2: max{m0 + m1 + a(m0), floor(5/3 mu0 + 5/3 m1),
                floor(mu0) + m1 + 2 r_max}
    case 3: max{m0 + m1 + a(m0), floor(mu0) + m1 + 2 nu0 r_max}
    """
    m0, m1 = inputs.m0, inputs.m1
    # every floor is a floor division of mu0's numerator and denominator
    num, den = inputs.mu0.numerator, inputs.mu0.denominator
    base = m0 + m1 + inputs.a_m0
    if case == 1:
        return max(base, 3 * num // den + 3 * m1)
    if case == 2:
        return max(
            base,
            5 * (num + m1 * den) // (3 * den),
            num // den + m1 + 2 * inputs.rmax,
        )
    if case == 3:
        return max(base, num // den + m1 + 2 * inputs.nu0 * inputs.rmax)
    raise ValueError(f"case must be 1, 2 or 3, got {case}")


def birational_bound_b2(inputs: CriterionInputs) -> int:
    """The small-index bound

        max{m0 + a(m0), ceil(mu0') + 4 nu0 r_max - 1,
            floor(mu0' + sqrt(8 r_X / N0))},

    with the last floor resolved by exact square-root bracketing.
    """
    if inputs.n0 is None or inputs.n0 < 1:
        raise ValueError("birational_bound_b2 needs N0 >= 1")
    return max(
        inputs.m0 + inputs.a_m0,
        math.ceil(inputs.mu0) + 4 * inputs.nu0 * inputs.rmax - 1,
        floor_plus_sqrt(inputs.mu0, Fraction(8 * inputs.rx, inputs.n0)),
    )


class Mu0Candidate(NamedTuple):
    value: Fraction
    assumption: str
    kind: str  # "unconditional" | "pencil" | "same_pencil"
    k: int | None = None


def mu0_candidates(wb: WeightedBasket, m0: int, horizon: int = 40) -> list[Mu0Candidate]:
    """The usable mu0' choices with their pencil assumptions.

    The first candidate m0 is always valid; m0/(P_{-m0}-1) applies when
    |-m0 K| is composed with a pencil; and for any k <= horizon with
    P_{-k} >= 2, k/(P_{-k}-1) applies when |-k K| and |-m0 K| are composed
    with the same pencil.
    """
    seq = plurigenus_sequence(wb, max(horizon, m0))
    if seq[m0] < 2:
        raise ValueError(f"mu0_candidates needs P[-{m0}] >= 2")
    out = [Mu0Candidate(Fraction(m0), "unconditional (mu0' = m0)", "unconditional")]
    out.append(
        Mu0Candidate(
            Fraction(m0, seq[m0] - 1),
            f"if |-{m0}K| is composed with a pencil",
            "pencil",
            k=m0,
        )
    )
    for k in range(m0 + 1, horizon + 1):
        if seq[k] >= 2:
            out.append(
                Mu0Candidate(
                    Fraction(k, seq[k] - 1),
                    f"if |-{k}K| and |-{m0}K| are composed with the same pencil",
                    "same_pencil",
                    k=k,
                )
            )
    return out


# ---------------------------------------------------------------------------
# the per-basket pipeline
# ---------------------------------------------------------------------------

class BranchSpec(NamedTuple):
    """One explicit branch of the birationality argument.

    criterion "b" is the three-case bound (pick ``case``); criterion "b2"
    is the small-index bound and needs ``n0``.
    """

    assumption: str
    criterion: str = "b"           # "b" | "b2"
    case: int = 3                  # only for criterion "b"
    m1: int | None = None          # None -> use the computed n1
    mu0: Fraction | int | None = None  # None -> mu0' = m0
    n0: int | None = None          # only for criterion "b2"

    @property
    def label(self) -> str:
        return "b2" if self.criterion == "b2" else f"b({self.case})"


class BranchResult(NamedTuple):
    assumption: str
    criterion: str
    n2: int
    mu0: Fraction
    m1: int | None


class PipelinePolicy(NamedTuple):
    """How to run the pipeline on one weighted basket.

    n1_window = 6 is the P_{-1} = 0 convention (six consecutive certified
    values); the default single-value convention applies when P_{-1} > 0.
    ``case`` picks the default criterion; ``branches``, when non-empty,
    REPLACE the default branch for the headline bound (each branch states
    its own assumption, and the headline is the worst case over them).
    """

    n1_window: int = 1
    case: int = 3
    branches: tuple[BranchSpec, ...] = ()


class BirationalityReport(NamedTuple):
    basket: Basket
    p1: int
    k3: Fraction
    rx: int
    rmax: int
    m_big: int
    lam: Fraction
    n1: int
    m0: int
    nu0: int
    branches: tuple[BranchResult, ...]
    headline_n2: int

    def summary_row(self) -> str:
        return "\t".join([
            format_basket(self.basket),
            format_rational(self.k3),
            str(self.m_big),
            format_rational(self.lam),
            str(self.n1),
            str(self.m0),
            str(self.rmax),
            str(self.headline_n2),
        ])

    def to_text(self) -> str:
        lines = [
            "basket\t-K^3\tM\tlambda\tn1\tm0\trmax\tn2",
            self.summary_row(),
        ]
        for br in self.branches:
            lines.append(
                f"  [{br.criterion}] n2 = {br.n2}  (mu0' = {format_rational(br.mu0)}"
                + (f", m1 = {br.m1}" if br.m1 is not None else "")
                + f"; {br.assumption})"
            )
        return "\n".join(lines)

    def to_records(self) -> list[str]:
        head = (
            f"basket={format_basket(self.basket)} p1={self.p1} "
            f"k3={format_rational(self.k3)} rx={self.rx} rmax={self.rmax} "
            f"M={self.m_big} lambda={format_rational(self.lam)} "
            f"n1={self.n1} m0={self.m0} nu0={self.nu0} headline_n2={self.headline_n2}"
        )
        out = [head]
        for br in self.branches:
            out.append(
                f"branch criterion={br.criterion} n2={br.n2} "
                f"mu0={format_rational(br.mu0)} m1={br.m1 if br.m1 is not None else '-'} "
                f"assumption={br.assumption!r}"
            )
        return out


def table_pipeline(wb: WeightedBasket, policy: PipelinePolicy = PipelinePolicy()) -> BirationalityReport:
    """Compute (M, lambda, n1, m0, nu0) and the branch tree of n2 bounds.

    The default branch takes m1 = n1, mu0' = m0 and the policy's criterion
    case, which is how every summary table row is produced; explicit
    branches refine the bound under finer pencil assumptions.  The basket
    is read once, by the filter: its M = r_X * (-K^3), r_X and P_{-1..24}
    feed the n1 scan, m0 and nu0 (at most 8, as P_{-8} >= 2 passed) and
    -K^3.  r_max follows the same rule as ``for_weighted_basket``.  Every
    step reads integers; the only Fractions built are the ones the report
    returns: -K^3, lambda and each branch's mu0'.
    """
    check = geometric_filter(wb)
    if not check.ok:
        raise ValueError(f"rejected by geometric filter: {check.first_failure}")
    m_big, rx, p = check._volume, check._rx, check._p
    lam = lambda_of(m_big, rx)
    n1 = _pencil_scan(_plurigenera(wb, p), lam, policy.n1_window, 400)
    m0 = next(m for m, v in enumerate(p) if v >= 2)
    nu0 = next(m for m, v in enumerate(p) if v >= 1)
    rmax = _rmax(wb.basket)
    k3 = Fraction(m_big, rx)

    def run_branch(spec: BranchSpec) -> BranchResult:
        m1 = spec.m1 if spec.m1 is not None else n1
        mu0 = Fraction(spec.mu0) if spec.mu0 is not None else Fraction(m0)
        inputs = CriterionInputs(
            k3=k3, rx=rx, rmax=rmax, m_big=m_big,
            m0=m0, m1=max(m1, m0), mu0=mu0, nu0=nu0, n0=spec.n0,
        )
        if spec.criterion == "b2":
            n2 = birational_bound_b2(inputs)
        elif spec.criterion == "b":
            n2 = birational_bound_b(inputs, case=spec.case)
        else:
            raise ValueError(f"unknown criterion {spec.criterion!r}")
        return BranchResult(
            assumption=spec.assumption, criterion=spec.label,
            n2=n2, mu0=mu0,
            m1=None if spec.criterion == "b2" else m1,
        )

    default = run_branch(
        BranchSpec(
            assumption=(
                f"table default: m1 = n1 = {n1}, mu0' = m0, "
                f"|-{m0}K| and |-{n1}K| not composed with the same pencil"
            ),
            criterion="b",
            case=policy.case,
        )
    )
    extra = tuple(run_branch(spec) for spec in policy.branches)
    leaves = extra if extra else (default,)
    return BirationalityReport(
        basket=wb.basket, p1=wb.p1, k3=k3, rx=rx, rmax=rmax, m_big=m_big,
        lam=lam, n1=n1, m0=m0, nu0=nu0,
        branches=(default, *extra),
        headline_n2=max(br.n2 for br in leaves),
    )
