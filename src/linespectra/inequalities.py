"""Exact checks of the incidence identities and inequalities.

Every check consumes a LineSpectrum (plus a realness flag where the statement
only holds over the reals) and produces InequalityReport values with exact
rational lhs/rhs/slack.  No floating point is involved anywhere in a verdict;
the two irrational thresholds alpha = (6+sqrt(3))/9 and beta = (4+sqrt(2))/6
are read as integers (u + v*sqrt(d))/w, and "more than threshold*n points"
is decided once, by `_above`, as w*mc - u*n > 0 and (w*mc - u*n)^2 >
d*v^2*n^2.

Applicability gates mirror each statement's hypotheses (realness, maximum
collinearity caps, minimum size); `_gate` reads them in order and the first
one that fails names the reason.  A report that is not applicable still
carries the computed lhs/rhs, so e.g. the failure of the ordinary-line bound
on the Fermat configurations is visible rather than suppressed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, List

from .fields import FieldElement, quadratic_field
from .projective import LineSpectrum

# Thresholds for the two-alternative line-count theorems.
ALPHA = quadratic_field(3).element([Fraction(2, 3), Fraction(1, 9)])
BETA = quadratic_field(2).element([Fraction(2, 3), Fraction(1, 6)])

# Kinds whose applicable failures are treated as bugs (CLI exit code 2).
PROVEN_KINDS = frozenset({"identity", "theorem", "corollary"})

RICH_LINE_RANGE = range(5, 11)


# One evaluated statement: exact Fraction lhs, rhs and slack, and the
# booleans derived from them.
InequalityReport = namedtuple("InequalityReport", (
    "name kind applicable applicability_reason relation lhs rhs slack "
    "satisfied tight strict"))


def _report(name: str, kind: str, applicable: bool, reason: str, relation: str,
            lhs, rhs) -> InequalityReport:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    strict = relation in (">", "<")
    if relation == "==":
        slack = -abs(lhs - rhs)
    elif relation in (">=", ">"):
        slack = lhs - rhs
    elif relation in ("<=", "<"):
        slack = rhs - lhs
    else:
        raise ValueError(f"unknown relation {relation!r}")
    satisfied = slack > 0 if strict else slack >= 0
    return InequalityReport(
        name=name, kind=kind, applicable=applicable,
        applicability_reason=reason, relation=relation,
        lhs=lhs, rhs=rhs, slack=slack,
        satisfied=satisfied, tight=(lhs == rhs), strict=strict,
    )


# ---------------------------------------------------------------------------
# The two shared rules: a line above an irrational share, and a gate.

def _above(mc: int, n: int, threshold: FieldElement):
    """(lhs, rhs, mc > threshold*n) for threshold = (u + v*sqrt(d))/w in a
    real quadratic field, with nums (u, v), v >= 0, and den w > 0.

    mc > threshold*n reads w*mc - u*n > v*sqrt(d)*n >= 0, that is
    gap = w*mc - u*n > 0 and gap^2 > d*v^2*n^2, all in integers; lhs and
    rhs are those two squares."""
    (u, v), w = threshold.nums, threshold.den
    gap = w * mc - u * n
    lhs, rhs = gap * gap, threshold.field.d * v * v * n * n
    return lhs, rhs, gap > 0 and lhs > rhs


def _gate(success: str, *hypotheses):
    """(applicable, reason) for hypotheses given as (holds, reason_if_not)
    pairs: the reason of the first that fails, or success if none does."""
    for holds, reason in hypotheses:
        if not holds:
            return False, reason
    return True, success


# ---------------------------------------------------------------------------
# Spectrum aggregates.

def _sum_ell(s: LineSpectrum, lo: int, weight) -> Fraction:
    total = Fraction(0)
    for i, cnt in s.ell.items():
        if i >= lo:
            total += Fraction(weight(i)) * cnt
    return total


def _cap(s: LineSpectrum):
    """The gate of the statements that assume at most 2n/3 collinear."""
    mc, bound = s.max_collinear, Fraction(2 * s.n, 3)
    return _gate(f"max collinearity {mc} <= 2n/3 = {bound}",
                 (3 * mc <= 2 * s.n, f"max collinearity {mc} exceeds 2n/3 = {bound}"))


def _real_reason(real: bool) -> str:
    return "coordinates are real" if real else "coordinates are not all real"


# ---------------------------------------------------------------------------
# Individual checks.

def check_basic(s: LineSpectrum) -> List[InequalityReport]:
    """The three counting identities tying the spectrum to n, |L|, I."""
    n = s.n
    reason = "identity, always applicable"
    return [
        _report("basic_line_count", "identity", True, reason, "==",
                sum(s.ell.values()), s.total_lines),
        _report("basic_incidences", "identity", True, reason, "==",
                sum(i * c for i, c in s.ell.items()), s.incidences),
        _report("basic_pair_count", "identity", True, reason, "==",
                sum(i * (i - 1) // 2 * c for i, c in s.ell.items()),
                n * (n - 1) // 2),
    ]


def check_langer(s: LineSpectrum) -> InequalityReport:
    """I >= n(n+3)/3 whenever at most 2n/3 points are collinear."""
    return _report("langer", "theorem", *_cap(s), ">=",
                   s.incidences, Fraction(s.n * (s.n + 3), 3))


def check_melchior(s: LineSpectrum, real: bool) -> InequalityReport:
    """l2 >= 3 + sum_{i>=4} (i-3) l_i for real non-collinear sets.

    Computed even when not applicable: the complex configurations that break
    it are exactly the interesting ones to look at."""
    gate = _gate("real and not collinear", (real, _real_reason(real)),
                 (s.max_collinear < s.n, "all points collinear"),
                 (s.n >= 3, "needs at least 3 points"))
    rhs = 3 + _sum_ell(s, 4, lambda i: i - 3)
    return _report("melchior", "theorem", *gate, ">=", s.count(2), rhs)


def check_hirzebruch(s: LineSpectrum) -> InequalityReport:
    """l2 + (3/4) l3 >= n + sum_{i>=5} (2i-9) l_i when at most n-3 collinear."""
    mc, cap = s.max_collinear, s.n - 3
    gate = _gate(f"max collinearity {mc} <= n-3 = {cap}",
                 (s.n >= 4, "needs at least 4 points"),
                 (mc <= cap, f"max collinearity {mc} exceeds n-3 = {cap}"))
    lhs = s.count(2) + Fraction(3, 4) * s.count(3)
    rhs = s.n + _sum_ell(s, 5, lambda i: 2 * i - 9)
    return _report("hirzebruch", "theorem", *gate, ">=", lhs, rhs)


def check_bojanowski(s: LineSpectrum) -> List[InequalityReport]:
    """The two equivalent sharpenings of the Hirzebruch bound under the
    2n/3 cap: the weighted form and the quadratic-weight rearrangement
    sum (4i - i^2) l_i >= 4n.  The latter restates the incidence bound, so
    its verdict must always agree with check_langer."""
    gate = _cap(s)
    lhs6 = s.count(2) + Fraction(3, 4) * s.count(3)
    rhs6 = s.n + _sum_ell(s, 5, lambda i: Fraction(i * i - 4 * i, 4))
    lhs7 = sum(Fraction(4 * i - i * i) * c for i, c in s.ell.items())
    return [
        _report("bojanowski_weighted", "theorem", *gate, ">=", lhs6, rhs6),
        _report("bojanowski_quadratic", "theorem", *gate, ">=", lhs7, 4 * s.n),
    ]


def _beck_two_alternatives(name: str, s: LineSpectrum, applicable: bool,
                           gate_reason: str, threshold: FieldElement,
                           lines_rhs: Fraction) -> InequalityReport:
    """Shared shape of the two-extremes theorems: either some line holds more
    than threshold*n points, or the configuration spans many lines.  When
    the first alternative fires, the margin is irrational, so the report
    compares `_above`'s squares."""
    lhs, rhs, above = _above(s.max_collinear, s.n, threshold)
    if above:
        reason = gate_reason + "; a single line exceeds the threshold share"
        return _report(name, "theorem", applicable, reason, ">", lhs, rhs)
    reason = gate_reason + "; no line exceeds the threshold share"
    return _report(name, "theorem", applicable, reason, ">=",
                   Fraction(s.total_lines), lines_rhs)


def check_beck_real(s: LineSpectrum, real: bool) -> List[InequalityReport]:
    """Two-extremes over the reals: a line with more than alpha*n points,
    alpha = (6+sqrt(3))/9, or at least n^2/9 spanned lines.  Under the 2n/3
    cap the sharper count 3|L| >= (n^2+3n+9)/3 also applies."""
    n = s.n
    main = _beck_two_alternatives(
        "beck_real", s, real, _real_reason(real), ALPHA, Fraction(n * n, 9))
    capped, reason = _cap(s)
    refinement = _report("beck_real_line_count", "theorem", real and capped,
                         _real_reason(real) + "; " + reason, ">=", 3 * s.total_lines,
                         Fraction(n * n + 3 * n + 9, 3))
    return [main, refinement]


def check_beck_complex(s: LineSpectrum) -> List[InequalityReport]:
    """Two-extremes without a realness hypothesis: a line with more than
    beta*n points, beta = (4+sqrt(2))/6, or at least n^2/12 spanned lines;
    refinement |L| >= (n+3)^2/12 under the 2n/3 cap."""
    n = s.n
    main = _beck_two_alternatives(
        "beck_complex", s, True, "no realness hypothesis", BETA, Fraction(n * n, 12))
    refinement = _report("beck_complex_line_count", "theorem", *_cap(s),
                         ">=", s.total_lines,
                         Fraction((n + 3) ** 2, 12))
    return [main, refinement]


def check_kn_lines(s: LineSpectrum, real: bool) -> InequalityReport:
    """With at most n-k collinear, at least kn/9 spanned lines (real)."""
    applicable, reason = _gate(_real_reason(real), (s.n >= 3, "needs at least 3 points"),
                               (real, _real_reason(real)))
    k = s.n - s.max_collinear
    reason += f"; k = n - max collinearity = {k}"
    return _report("kn_lines", "corollary", applicable, reason, ">=",
                   s.total_lines, Fraction(k * s.n, 9))


def check_l2l3_real(s: LineSpectrum, real: bool) -> List[InequalityReport]:
    """Ordinary and 3-point lines over the reals: l2 + l3 >= n^2/18 when at
    most alpha*n points are collinear, plus the half-the-lines lemma
    2 l2 + 2 l3 >= 3 + |L| that drives it."""
    mc = s.max_collinear
    within = not _above(mc, s.n, ALPHA)[2]
    gate = _gate(f"real; max collinearity {mc} within alpha*n",
                 (s.n >= 3, "needs at least 3 points"), (real, _real_reason(real)),
                 (within, f"real; max collinearity {mc} exceeds alpha*n"))
    lhs = s.count(2) + s.count(3)
    return [
        _report("l2l3_quadratic", "corollary", *gate, ">=", lhs, Fraction(s.n * s.n, 18)),
        _report("l2l3_majority", "corollary", *gate, ">=", 2 * lhs, 3 + s.total_lines),
    ]


def check_rich_lines(s: LineSpectrum, k: int) -> List[InequalityReport]:
    """Lines with k or more points are rare under the 2n/3 cap: their count
    is under 4|L|/(k-2)^2 and under 2n^2/(k-2)^2.  For k = 5 the complement
    is a strict majority: l2 + l3 + l4 > (5/9)|L| > (5/108) n^2 ... the last
    step using the n^2/12 line count."""
    if k < 5:
        raise ValueError(f"rich-line bound needs k >= 5, got {k}")
    gate = _cap(s)
    rich = _sum_ell(s, k, lambda i: 1)
    denom = (k - 2) ** 2
    out = [
        _report(f"rich_lines_fraction_k{k}", "corollary", *gate, "<=",
                rich, Fraction(4 * s.total_lines, denom)),
        _report(f"rich_lines_count_k{k}", "corollary", *gate, "<=",
                rich, Fraction(2 * s.n * s.n, denom)),
    ]
    if k == 5:
        poor = s.count(2) + s.count(3) + s.count(4)
        out.append(_report("poor_lines_majority", "corollary", *gate,
                           ">", poor, Fraction(5 * s.total_lines, 9)))
        out.append(_report("poor_lines_quadratic", "corollary", *gate,
                           ">", poor, Fraction(5 * s.n * s.n, 108)))
    return out


def check_weak_dirac(s: LineSpectrum) -> InequalityReport:
    """Some point lies on at least (n+3)/3 spanned lines (non-collinear)."""
    gate = _gate("not all points collinear", (s.n >= 3, "needs at least 3 points"),
                 (s.max_collinear < s.n, "all points collinear"))
    return _report("weak_dirac", "corollary", *gate, ">=",
                   max(s.degrees), Fraction(s.n + 3, 3))


def check_section3_chain(s: LineSpectrum) -> List[InequalityReport]:
    """Consequences under the 2n/3 cap: l4 <= n^2/12 (pair counting),
    l2 + l3 >= n/4 + 3/8 (via the complex line count), and the direct
    l2 + l3 >= n."""
    gate = _cap(s)
    n = s.n
    l23 = s.count(2) + s.count(3)
    return [
        _report("l4_bound", "corollary", *gate, "<=", s.count(4), Fraction(n * n, 12)),
        _report("l2l3_vs_quarter_n", "corollary", *gate, ">=",
                l23, Fraction(n, 4) + Fraction(3, 8)),
        _report("l2l3_at_least_n", "corollary", *gate, ">=", l23, n),
    ]


def check_conjecture3(s: LineSpectrum, real: bool) -> InequalityReport:
    """Conjectured I >= (3/8) n^2 for real sets with at most n/2 collinear.
    Report-only: never fails a run."""
    mc = s.max_collinear
    gate = _gate(f"real; max collinearity {mc} <= n/2", (real, _real_reason(real)),
                 (2 * mc <= s.n, f"real; max collinearity {mc} exceeds n/2"))
    return _report("incidence_conjecture", "conjecture", *gate, ">=",
                   s.incidences, Fraction(3 * s.n * s.n, 8))


def check_brass_l4(s: LineSpectrum, real: bool) -> InequalityReport:
    """Informational real-plane bound l4 < n^2/14."""
    gate = _gate(_real_reason(real), (s.n >= 4, "needs at least 4 points"),
                 (real, _real_reason(real)))
    return _report("brass_l4", "informational", *gate, "<",
                   s.count(4), Fraction(s.n * s.n, 14))


# ---------------------------------------------------------------------------
# Driver.

def all_reports(s: LineSpectrum, real: bool) -> List[InequalityReport]:
    out: List[InequalityReport] = []
    out.extend(check_basic(s))
    out.append(check_langer(s))
    out.append(check_melchior(s, real))
    out.append(check_hirzebruch(s))
    out.extend(check_bojanowski(s))
    out.extend(check_beck_real(s, real))
    out.extend(check_beck_complex(s))
    out.append(check_kn_lines(s, real))
    out.extend(check_l2l3_real(s, real))
    for k in RICH_LINE_RANGE:
        out.extend(check_rich_lines(s, k))
    out.append(check_weak_dirac(s))
    out.extend(check_section3_chain(s))
    out.append(check_conjecture3(s, real))
    out.append(check_brass_l4(s, real))
    return out


def run_checks(s: LineSpectrum, real: bool, which: str = "all") -> List[InequalityReport]:
    """All reports, or those whose name equals or starts with `which`."""
    if s.n < 2:
        raise ValueError("inequality checks need at least 2 points")
    reports = all_reports(s, real)
    if which == "all":
        return reports
    picked = [r for r in reports if r.name == which]
    if not picked:
        picked = [r for r in reports if r.name.startswith(which)]
    if not picked:
        known = ", ".join(sorted({r.name for r in reports}))
        raise KeyError(f"no check named {which!r}; known checks: {known}")
    return picked


def violations(reports: Iterable[InequalityReport]) -> List[InequalityReport]:
    """Applicable proven statements that failed; any entry means a bug."""
    return [r for r in reports
            if r.applicable and r.kind in PROVEN_KINDS and not r.satisfied]


def exit_code_for(reports: Iterable[InequalityReport]) -> int:
    return 2 if violations(reports) else 0
