"""The benchmark's own checks of CLI output documents.

Each function takes a parsed JSON result and returns a list of problems; an
empty list means the output is correct.  Nothing here imports linespectra, so
a defect in the program cannot hide itself by also breaking its verifier.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional


def spectrum_problems(doc: Dict, n: int,
                      expected: Optional[Dict[int, int]]) -> List[str]:
    """A spectrum document ({n, ell, total_lines, incidences, max_collinear,
    degrees}) against the identities every spectrum satisfies and, where the
    family has one, its closed form."""
    out = []
    ell = {int(k): v for k, v in doc["ell"].items()}
    if doc["n"] != n:
        out.append(f"n is {doc['n']}, the input has {n} points")
    pairs = sum(comb(i, 2) * c for i, c in ell.items())
    if pairs != comb(n, 2):
        out.append(f"sum C(i,2) l_i = {pairs} != C(n,2) = {comb(n, 2)}")
    if sum(i * c for i, c in ell.items()) != doc["incidences"]:
        out.append("sum i l_i differs from incidences")
    if sum(ell.values()) != doc["total_lines"]:
        out.append("sum l_i differs from total_lines")
    if ell and max(ell) != doc["max_collinear"]:
        out.append("largest line size differs from max_collinear")
    degrees = doc["degrees"]
    if len(degrees) != n or sum(degrees) != doc["incidences"]:
        out.append("degrees do not sum to incidences over n points")
    if expected is not None and ell != expected:
        out.append(f"spectrum {ell} differs from the closed form {expected}")
    return out


def check_problems(manifest: Dict, n: int,
                   expected: Optional[Dict[int, int]]) -> List[str]:
    """A `check` manifest: no violations, the counting identities hold with
    the right n, and a closed-form family shows its known line count,
    incidences and pair count."""
    result = manifest["result"]
    out = []
    if result["exit_code"] != 0 or result["violations"]:
        out.append(f"violations reported: {result['violations']}")
    if result["n"] != n:
        out.append(f"n is {result['n']}, the input has {n} points")
    reports = {r["name"]: r for r in result["reports"]}
    want = {"basic_pair_count": comb(n, 2)}
    if expected is not None:
        want["basic_line_count"] = sum(expected.values())
        want["basic_incidences"] = sum(i * c for i, c in expected.items())
        want["basic_pair_count"] = sum(comb(i, 2) * c for i, c in expected.items())
    for name in ("basic_line_count", "basic_incidences", "basic_pair_count"):
        rep = reports.get(name)
        if rep is None:
            out.append(f"report {name} is missing")
            continue
        if rep["lhs"] != rep["rhs"] or not rep["satisfied"]:
            out.append(f"identity {name} fails: {rep['lhs']} vs {rep['rhs']}")
        if name in want and Fraction(rep["lhs"]) != want[name]:
            out.append(f"{name} is {rep['lhs']}, expected {want[name]}")
    return out


def _affine(point) -> tuple:
    a, b, c = (Fraction(x) for x in point)
    x, y = a / c, b / c
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"search point {point} is not an integer point")
    return int(x), int(y)


def grid_stats(pts) -> tuple:
    """(lines, incidences, max collinear) of distinct integer points, by a
    cubic scan over pairs; independent of the program's line grouping."""
    lines = set()
    for p, q in combinations(pts, 2):
        members = frozenset(
            k for k, r in enumerate(pts)
            if (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
        )
        lines.add(members)
    sizes = [len(m) for m in lines]
    return len(lines), sum(sizes), max(sizes, default=0)


def search_problems(manifest: Dict, n: int, cap: int, side: int) -> List[str]:
    """A `search` manifest: the returned points are n distinct integer
    points in [0, side)^2 whose recomputed incidences equal best_value, with
    max collinearity at most the cap."""
    result = manifest["result"]
    record = result["record"]
    pts = [_affine(p) for p in record["best_config"]["points"]]
    out = []
    if len(pts) != n or len(set(pts)) != n:
        out.append(f"expected {n} distinct points, got {len(set(pts))}")
    if any(not (0 <= c < side) for p in pts for c in p):
        out.append(f"a point lies outside [0, {side})^2")
    _, incidences, top = grid_stats(pts)
    if incidences != record["best_value"]:
        out.append(f"best_value {record['best_value']} but the points "
                   f"have {incidences} incidences")
    if Fraction(record["objective"]) != Fraction(incidences, n * n):
        out.append("objective is not best_value / n^2")
    if top > cap:
        out.append(f"max collinearity {top} exceeds the cap {cap}")
    if result["conjecture_reference"]["max_collinear"] != top:
        out.append("conjecture reference reports another max collinearity")
    return out
