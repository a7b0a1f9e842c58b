"""Inequality reports: worked examples, report invariants, exit codes."""

import hashlib
import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linespectra.constructions import (
    boroczky,
    fermat,
    grid,
    near_pencil,
    random_config,
    two_lines,
)
from linespectra.fields import FieldElement
from linespectra.inequalities import (
    ALPHA,
    BETA,
    PROVEN_KINDS,
    InequalityReport,
    _above,
    all_reports,
    check_rich_lines,
    exit_code_for,
    run_checks,
    violations,
)
from linespectra.projective import LineSpectrum, _spectrum_of, spectrum
from linespectra.serialization import report_to_json

from conftest import corpus_cases


def by_name(reports):
    return {r.name: r for r in reports}


# --- the two irrational thresholds ---


def test_alpha_comparator():
    # _above(mc, n, t)[2] decides mc > t*n, that is mc/n > t
    assert _above(86, 100, ALPHA)[2]
    assert not _above(85, 100, ALPHA)[2]
    assert not _above(2, 3, ALPHA)[2]
    assert _above(9, 10, ALPHA)[2]


def test_beta_comparator():
    assert _above(91, 100, BETA)[2]
    assert not _above(90, 100, BETA)[2]
    assert _above(1, 1, BETA)[2]


def test_rational_threshold_can_be_hit_exactly():
    from linespectra.fields import quadratic_field

    half = quadratic_field(2).element([Fraction(1, 2), Fraction(0)])
    assert _above(1, 2, half) == (0, 0, False)
    # a negative gap squares above d*v^2*n^2 = 0 but is not above
    assert _above(1, 3, half) == (1, 0, False)
    assert _above(2, 3, half) == (1, 0, True)


def test_the_battery_builds_no_field_element(monkeypatch, get_spectrum):
    # alpha and beta are read as integers, never multiplied
    s = get_spectrum("boroczky", 6)
    calls = []
    init = FieldElement.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    all_reports(s, real=True)
    assert len(calls) == 0


# --- worked examples with frozen numbers ---


def test_fermat3_reports(get_spectrum):
    reps = by_name(all_reports(get_spectrum("fermat", 3), real=False))
    assert reps["langer"].tight
    assert reps["langer"].lhs == 36
    assert reps["hirzebruch"].tight and reps["hirzebruch"].lhs == 9
    assert reps["bojanowski_weighted"].tight
    assert reps["beck_complex_line_count"].tight
    assert reps["beck_complex_line_count"].lhs == 12
    assert reps["weak_dirac"].tight and reps["weak_dirac"].lhs == 4
    # the signature feature of this family: the real-only rank bound is
    # computed for reference and visibly fails, flagged inapplicable
    mel = reps["melchior"]
    assert not mel.applicable
    assert not mel.satisfied
    assert mel.lhs == 0 and mel.rhs == 3
    for name in ("beck_real", "kn_lines", "incidence_conjecture", "brass_l4"):
        assert not reps[name].applicable


def test_boroczky6_reports(get_spectrum):
    s = get_spectrum("boroczky", 6)
    assert s.ell == {2: 6, 3: 15, 6: 1}
    reps = by_name(all_reports(s, real=True))
    assert reps["melchior"].applicable and reps["melchior"].tight
    assert reps["melchior"].lhs == 6
    assert reps["langer"].slack == 3
    assert reps["beck_real"].applicable
    assert reps["beck_real"].lhs == 22 and reps["beck_real"].rhs == 16
    assert reps["beck_real_line_count"].lhs == 66
    assert reps["beck_real_line_count"].rhs == 63
    assert reps["kn_lines"].lhs == 22 and reps["kn_lines"].rhs == 8
    conj = reps["incidence_conjecture"]
    assert conj.applicable and conj.slack == Fraction(9)


def test_boroczky4_melchior_tight(get_spectrum):
    reps = by_name(all_reports(get_spectrum("boroczky", 4), real=True))
    assert reps["melchior"].tight
    assert reps["melchior"].lhs == 4 and reps["melchior"].rhs == 4


def test_near_pencil_triggers_dominant_line_branch(get_spectrum):
    # 9 of 10 points on one line crosses the irrational density threshold,
    # so the report carries the squared margin instead of the line count
    reps = by_name(all_reports(get_spectrum("near_pencil", 10), real=True))
    beck = reps["beck_real"]
    assert beck.applicable and beck.satisfied and beck.strict
    assert beck.lhs == 441 and beck.rhs == 300

    reps = by_name(all_reports(get_spectrum("near_pencil", 100), real=True))
    beck = reps["beck_real"]
    assert beck.lhs == 84681 and beck.rhs == 30000


def test_two_lines_kn_bound(get_spectrum):
    reps = by_name(all_reports(get_spectrum("two_lines", 5), real=True))
    kn = reps["kn_lines"]
    assert kn.applicable
    assert kn.lhs == 27
    assert kn.rhs == Fraction(50, 9)


def test_grid_brass_bound(get_spectrum):
    reps = by_name(all_reports(get_spectrum("grid", 4, 4), real=True))
    brass = reps["brass_l4"]
    assert brass.applicable and brass.strict and brass.satisfied
    assert brass.lhs == 10
    assert brass.rhs == Fraction(256, 14)


def test_rich_line_reports_cover_requested_range(get_spectrum):
    reps = all_reports(get_spectrum("grid", 3, 3), real=True)
    names = {r.name for r in reps}
    for k in range(5, 11):
        assert f"rich_lines_fraction_k{k}" in names
        assert f"rich_lines_count_k{k}" in names
    assert len(reps) == 35


def test_rich_lines_requires_k_at_least_five(get_spectrum):
    with pytest.raises(ValueError):
        check_rich_lines(get_spectrum("grid", 3, 3), 4)


# --- structural invariants every report obeys ---

SAMPLE = [
    ("fermat", (4,), False),
    ("boroczky", (7,), True),
    ("near_pencil", (12,), True),
    ("two_lines", (6,), True),
    ("grid", (4, 5), True),
    ("sylvester_cubic", (5,), True),
    ("random", (18, 2), True),
]


@pytest.mark.parametrize("name,params,real", SAMPLE)
def test_report_invariants(name, params, real, get_spectrum):
    for r in all_reports(get_spectrum(name, *params), real=real):
        assert r.strict == (r.relation in (">", "<"))
        if r.relation == "==":
            assert r.slack == -abs(r.lhs - r.rhs)
        elif r.relation in (">=", ">"):
            assert r.slack == r.lhs - r.rhs
        else:
            assert r.slack == r.rhs - r.lhs
        assert r.satisfied == (r.slack > 0 if r.strict else r.slack >= 0)
        assert r.tight == (r.lhs == r.rhs)
        assert r.kind in ("identity", "theorem", "corollary", "conjecture", "informational")
        assert isinstance(r.applicability_reason, str)


@pytest.mark.parametrize("name,params,real", SAMPLE)
def test_no_proven_statement_fails_on_generated_configs(name, params, real, get_spectrum):
    reps = all_reports(get_spectrum(name, *params), real=real)
    assert violations(reps) == []
    assert exit_code_for(reps) == 0


@pytest.mark.parametrize("name,params,real", SAMPLE)
def test_quadratic_and_weighted_forms_agree(name, params, real, get_spectrum):
    # the two printed forms of the same theorem must reach one verdict
    reps = by_name(all_reports(get_spectrum(name, *params), real=real))
    a, b = reps["bojanowski_quadratic"], reps["langer"]
    assert a.applicable == b.applicable
    if a.applicable:
        assert a.satisfied == b.satisfied


# --- run_checks plumbing ---


def test_run_checks_filters_by_name(get_spectrum):
    s = get_spectrum("grid", 3, 3)
    only = run_checks(s, real=True, which="melchior")
    assert [r.name for r in only] == ["melchior"]
    basic = run_checks(s, real=True, which="basic")
    assert {r.name for r in basic} == {
        "basic_line_count",
        "basic_incidences",
        "basic_pair_count",
    }


def test_run_checks_rejects_unknown_name(get_spectrum):
    with pytest.raises(KeyError):
        run_checks(get_spectrum("grid", 3, 3), real=True, which="nonsense")


def test_run_checks_needs_two_points():
    lonely = LineSpectrum(
        n=1, ell={}, total_lines=0, incidences=0, max_collinear=1, degrees=(0,)
    )
    with pytest.raises(ValueError):
        run_checks(lonely, real=True)


# --- exit codes ---


def _report(kind, applicable, satisfied):
    return InequalityReport(
        name="synthetic",
        kind=kind,
        applicable=applicable,
        applicability_reason="",
        relation=">=",
        lhs=Fraction(0),
        rhs=Fraction(1),
        slack=Fraction(-1) if not satisfied else Fraction(0),
        satisfied=satisfied,
        tight=False,
        strict=False,
    )


def test_exit_code_rules():
    assert exit_code_for([_report("theorem", True, True)]) == 0
    assert exit_code_for([_report("theorem", True, False)]) == 2
    assert exit_code_for([_report("identity", True, False)]) == 2
    assert exit_code_for([_report("corollary", True, False)]) == 2
    # inapplicable or unproven statements never fail the run
    assert exit_code_for([_report("theorem", False, False)]) == 0
    assert exit_code_for([_report("conjecture", True, False)]) == 0
    assert exit_code_for([_report("informational", True, False)]) == 0
    assert set(PROVEN_KINDS) == {"identity", "theorem", "corollary"}


def test_inconsistent_spectrum_fails_the_identities():
    fake = LineSpectrum(
        n=5,
        ell={2: 1},
        total_lines=1,
        incidences=2,
        max_collinear=2,
        degrees=(1, 1, 0, 0, 0),
    )
    reps = run_checks(fake, real=True)
    bad = {r.name for r in violations(reps)}
    assert "basic_pair_count" in bad
    assert exit_code_for(reps) == 2


# --- randomized sweep ---


@settings(deadline=None, max_examples=25)
@given(st.integers(4, 30), st.integers(0, 10_000))
def test_random_configurations_satisfy_everything(n, seed):
    reps = all_reports(spectrum(random_config(n, seed=seed)), real=True)
    assert violations(reps) == []


# --- every report byte, over every gate branch ---


def _one_rich_line(n, k):
    """n points, k of them on one line and every other pair on an ordinary
    line: it reaches the n < 3, n < 4 and all-collinear reasons."""
    ell = {k: 1}
    ordinary = comb(n, 2) - comb(k, 2)
    if ordinary:
        ell[2] = ell.get(2, 0) + ordinary
    return _spectrum_of(n, ell, [n - k + 1] * k + [n - 1] * (n - k))


# sha256 of json.dumps of the 580 report lists below, as report_to_json
# writes them; any change of a verdict, number or reason moves it.
PINNED_REPORTS = "dd60fb58469d8d5c69090585883e4631f39d97a0a6e6d40b870d8d022f58777c"


def test_report_bytes_are_pinned(get_spectrum):
    spectra = [get_spectrum(name, *params) for name, params in corpus_cases()]
    spectra += [_one_rich_line(n, k) for n in range(2, 15) for k in range(2, n + 1)]
    lists = [[report_to_json(r) for r in all_reports(s, real)]
             for s in spectra for real in (True, False)]
    assert len(lists) == 580
    assert hashlib.sha256(json.dumps(lists).encode()).hexdigest() == PINNED_REPORTS


# --- the corollaries follow from the theorems on every integer spectrum ---


def _integer_spectra(n):
    """Every {k: l_k} with 2 <= k <= n and sum C(k, 2) l_k = C(n, 2)."""
    def fill(k, pairs):
        if k == 2:
            yield {2: pairs} if pairs else {}
            return
        for count in range(pairs // comb(k, 2) + 1):
            for rest in fill(k - 1, pairs - count * comb(k, 2)):
                yield {k: count, **rest} if count else rest
    yield from fill(n, comb(n, 2))


def test_theorems_imply_the_corollaries_on_every_integer_spectrum():
    # a spectrum fixes no degrees, so weak_dirac is left out; the bound it
    # implies through the average degree, I/n >= (n+3)/3, is checked instead
    pairs = kept = 0
    failed = []
    for n in range(4, 13):
        for ell in _integer_spectra(n):
            s = _spectrum_of(n, ell, [0] * n)
            for real in (True, False):
                pairs += 1
                reps = all_reports(s, real)
                if any(r.applicable and not r.satisfied for r in reps
                       if r.kind in ("identity", "theorem")):
                    continue
                kept += 1
                failed += [(n, ell, real, r.name) for r in reps
                           if r.kind == "corollary" and r.name != "weak_dirac"
                           and r.applicable and not r.satisfied]
                if by_name(reps)["langer"].applicable:
                    assert Fraction(s.incidences, n) >= Fraction(n + 3, 3)
    assert (pairs, kept) == (4930, 2080)
    assert failed == []


@pytest.mark.parametrize("n,ell,tight", [
    (5, {2: 4, 4: 1}, {"l2l3_majority", "melchior"}),
    (12, {2: 12, 4: 9}, {"l2l3_majority", "l2l3_at_least_n", "melchior", "langer"}),
])
def test_tight_integer_spectra(n, ell, tight):
    reps = by_name(all_reports(_spectrum_of(n, ell, [0] * n), real=True))
    for name in tight:
        assert reps[name].applicable and reps[name].satisfied and reps[name].tight
