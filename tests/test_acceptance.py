"""End-to-end acceptance checks.

One test per criterion, in order; each prints a single
"criterion N PASS/FAIL" line to the real terminal (bypassing capture) so a
plain pytest run yields a compact scoreboard.  Budgets are wall-clock
seconds on commodity hardware, measured cold inside the test.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from linespectra.cli import main
from linespectra.constructions import random_config
from linespectra.inequalities import all_reports, violations
from linespectra.projective import (
    apply_projective_map,
    oracle_spanned_lines,
    spanned_lines,
    spectrum,
)
from linespectra.search import exhaustive_search
from linespectra.serialization import save_configuration

from conftest import corpus_cases


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_triangle_family_counts(capsys, get_spectrum):
    t0 = time.perf_counter()
    ok, bad = True, []
    for m in range(3, 13):
        s = get_spectrum("fermat", m)
        n = 3 * m
        good = (
            s.n == n
            and s.total_lines == n * n // 9 + 3
            and s.incidences == n * (n + 3) // 3
            and s.ell.get(2, 0) == 0
            and all(d == (n + 3) // 3 for d in s.degrees)
        )
        ok &= good
        if not good:
            bad.append(m)
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    report(capsys, 1, ok,
           f"fermat m=3..12: lines n^2/9+3, incidences n(n+3)/3, no ordinary "
           f"lines, all degrees (n+3)/3; {dt:.2f}s (budget 5s)"
           + (f"; failed m={bad}" if bad else ""))


def test_criterion_02_conic_family_counts(capsys, get_spectrum, get_config):
    t0 = time.perf_counter()
    ok, bad = True, []
    for m in range(3, 21):
        s = get_spectrum("boroczky", m)
        n = 2 * m
        good = (
            s.n == n
            and s.incidences == 3 * n * (n + 2) // 8
            and s.total_lines == comb(m, 2) + m + 1
            and s.degrees[:m] == (n // 2,) * m
            and get_config("boroczky", m).is_real()
        )
        ok &= good
        if not good:
            bad.append(m)
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    report(capsys, 2, ok,
           f"boroczky m=3..20: incidences 3n(n+2)/8, lines C(m,2)+m+1, conic "
           f"degrees n/2, real coordinates; {dt:.2f}s (budget 30s)"
           + (f"; failed m={bad}" if bad else ""))


def test_criterion_03_tightness_of_the_sharp_bounds(capsys, get_spectrum):
    ok = True
    for m in range(3, 13):
        reps = {r.name: r for r in all_reports(get_spectrum("fermat", m), real=False)}
        ok &= reps["langer"].slack == 0 and reps["langer"].applicable
        ok &= reps["weak_dirac"].slack == 0 and reps["weak_dirac"].applicable
    report(capsys, 3, ok,
           "incidence lower bound and max-degree bound both have slack 0 "
           "on fermat m=3..12")


def test_criterion_04_ordinary_line_bound_fails_over_complex(capsys, get_spectrum):
    ok = True
    for m in range(3, 13):
        reps = {r.name: r for r in all_reports(get_spectrum("fermat", m), real=False)}
        mel = reps["melchior"]
        ok &= (not mel.satisfied) and (not mel.applicable) and mel.slack < 0
    report(capsys, 4, ok,
           "the real-only ordinary-line bound is numerically violated on "
           "fermat m=3..12 and flagged inapplicable")


def test_criterion_05_line_sets_match_the_oracle(capsys, get_config):
    t0 = time.perf_counter()
    ok, checked, bad = True, 0, []
    for name, params in corpus_cases():
        config = get_config(name, *params)
        if config.n > 40:
            continue
        checked += 1
        if spanned_lines(config) != oracle_spanned_lines(config):
            ok = False
            bad.append((name, params))
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(capsys, 5, ok,
           f"grouped and pairwise line enumeration agree on {checked} "
           f"configurations with n <= 40 (incl. 100 seeded random); "
           f"{dt:.2f}s (budget 60s)" + (f"; failed {bad[:3]}" if bad else ""))


def test_criterion_06_no_proven_statement_fails(capsys, get_config, get_spectrum):
    t0 = time.perf_counter()
    ok, checked, bad = True, 0, []
    for name, params in corpus_cases():
        real = get_config(name, *params).is_real()
        reps = all_reports(get_spectrum(name, *params), real)
        checked += 1
        broken = violations(reps)
        if broken:
            ok = False
            bad.append((name, params, [r.name for r in broken]))
    dt = time.perf_counter() - t0
    report(capsys, 6, ok,
           f"every applicable identity/theorem/corollary holds on all "
           f"{checked} corpus configurations; {dt:.2f}s"
           + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_07_equivalent_forms_reach_one_verdict(capsys, get_config, get_spectrum):
    ok, bad = True, []
    for name, params in corpus_cases():
        real = get_config(name, *params).is_real()
        reps = {r.name: r for r in all_reports(get_spectrum(name, *params), real)}
        a, b = reps["bojanowski_quadratic"], reps["langer"]
        good = a.applicable == b.applicable
        if a.applicable:
            good &= a.satisfied == b.satisfied and a.tight == b.tight
        ok &= good
        if not good:
            bad.append((name, params))
    report(capsys, 7, ok,
           "the weighted rearrangement and the incidence form agree in "
           "applicability, verdict and tightness on the whole corpus"
           + (f"; failed {bad[:3]}" if bad else ""))


def test_criterion_08_projective_invariance(capsys, get_config):
    bases = [
        ("fermat", (4,)),
        ("boroczky", (5,)),
        ("boroczky", (8,)),
        ("grid", (4, 4)),
        ("grid", (3, 5)),
        ("near_pencil", (10,)),
        ("two_lines", (5,)),
        ("sylvester_cubic", (6,)),
        ("random", (20, 0)),
        ("random", (25, 1)),
    ]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    rng = random.Random(2024)
    ok, applied, bad = True, 0, []
    for name, params in bases:
        config = get_config(name, *params)
        base = spectrum(config)
        for _ in range(20):
            while True:
                matrix = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
                if det3(matrix) != 0:
                    break
            applied += 1
            if spectrum(apply_projective_map(config, matrix)) != base:
                ok = False
                bad.append((name, params, matrix))
    report(capsys, 8, ok,
           f"spectrum invariant under {applied} seeded invertible maps "
           f"across {len(bases)} configurations"
           + (f"; failed {bad[:2]}" if bad else ""))


def test_criterion_09_density_landmarks(capsys, get_spectrum):
    s = get_spectrum("sylvester_cubic", 30)
    ratio = Fraction(s.total_lines, s.n * s.n)
    lo = Fraction(1, 6) - Fraction(2, 100)
    hi = Fraction(1, 6) + Fraction(2, 100)
    ok = s.n == 60 and lo <= ratio <= hi
    exact = True
    for m in range(2, 16):
        t = get_spectrum("two_lines", m)
        n = 2 * m
        exact &= t.incidences == n * n // 2 + n
    ok &= exact
    report(capsys, 9, ok,
           f"cubic-group family at n=60 spans {s.total_lines} lines, ratio "
           f"{float(ratio):.5f} within 1/6 +/- 0.02; crossed-pair family has "
           f"exactly n^2/2+n incidences for m=2..15")


def test_criterion_10_exhaustive_search_sanity(capsys):
    t0 = time.perf_counter()
    first = exhaustive_search(6, 4, 3)
    second = exhaustive_search(6, 4, 3)
    dt = time.perf_counter() - t0
    ok = first == second
    ok &= spectrum(first.best_config).incidences == first.best_value
    ok &= dt < 300.0
    code = main(["search", "exhaustive", "--n", "6", "--g", "4", "--cap", "3"])
    out = capsys.readouterr().out
    manifest = json.loads(out)
    ref = manifest["result"]["conjecture_reference"]
    ok &= code == 0
    ok &= ref["threshold"] == "3/8"
    ok &= isinstance(ref["at_or_above"], bool)
    ok &= exhaustive_search(4, 3, 2).best_value == 12
    report(capsys, 10, ok,
           f"6-point exhaustive run is deterministic, recomputes to "
           f"{first.best_value} incidences in {dt:.1f}s (budget 300s), and "
           f"the open-question ratio is reported without being asserted")


def test_criterion_11_large_input_and_thread_neutrality(capsys, tmp_path):
    big = tmp_path / "big.json"
    save_configuration(random_config(3000, seed=0), str(big))
    out_path = tmp_path / "big_out.json"
    t0 = time.perf_counter()
    code = main(["analyze", str(big), "--out", str(out_path)])
    dt = time.perf_counter() - t0
    ok = code == 0 and dt <= 60.0
    payload = json.loads(out_path.read_text())
    ok &= payload["result"]["n"] == 3000

    mid = tmp_path / "mid.json"
    save_configuration(random_config(300, seed=1), str(mid))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok &= main(["analyze", str(mid), "--out", str(a)]) == 0
    ok &= main(["analyze", str(mid), "--threads", "4", "--out", str(b)]) == 0
    ok &= a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    report(capsys, 11, ok,
           f"3000-point analysis finished in {dt:.1f}s (budget 60s); thread "
           f"count left every output byte unchanged at n=300")
