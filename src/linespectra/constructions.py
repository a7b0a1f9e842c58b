"""Generators for the named extremal point configurations.

Each generator returns a Configuration over the smallest field of the
supported kinds that represents its coordinates exactly, built from integer
vectors: int triples over Q, and over Q(zeta_L) sums of power-table rows
(_powers, _vector).  Where a family has a closed-form line spectrum,
expected_spectrum returns it (with the small-m bucket merges applied), so
generated output can be verified without running the spectrum computation.

The Boroczky and cubic points are written in the chart of their first
coordinate, which is rational there, so no point takes a norm.  Division is
by x - 1, x = zeta^e of order M > 1: 1 + x + ... + x^(M-1) = 0 gives
(x - 1) sum_{j<M} j x^j = (M - 1) x^M - (x + ... + x^(M-1)) = M,
so M / (x - 1) = sum_{j<M} j x^j, a sum of rows (_over_x_minus_1).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from .fields import (
    FieldDescriptor,
    _powers,
    cyclotomic_field,
    rational_field,
)
from .projective import Configuration, ProjectivePoint


class ConstructionError(ValueError):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstructionError(msg)


# ---------------------------------------------------------------------------
# Integer vectors over Q(zeta_L) as sums of power-table rows.

def _vector(L: int, terms) -> tuple:
    """The integer vector of sum(c * zeta^k) over the pairs (k, c) in terms:
    the c-weighted sum of the rows _powers(L)[k]."""
    rows = _powers(L)
    out = [0] * len(rows[0])
    for k, c in terms:
        for i, r in enumerate(rows[k % L]):
            if r:
                out[i] += c * r
    return tuple(out)


def _over_x_minus_1(M: int, e: int, c: int, scale: int) -> list:
    """Terms of scale * M * zeta^c / (x - 1) for x = zeta^e of order M > 1,
    by the identity in the module docstring."""
    return [(c + e * j, scale * j) for j in range(1, M)]


def _points(field: FieldDescriptor, triples) -> tuple:
    """The points whose coordinates are the _vector sums of the triples."""
    return tuple(ProjectivePoint._of_vectors(field, tuple(_vector(field.N, t) for t in triple))
                 for triple in triples)


def fermat(m: int) -> Configuration:
    """3m points on the coordinate triangle over Q(zeta_m): for j < m the
    points (1 : -w^j : 0), (0 : 1 : -w^j), (-w^j : 0 : 1) where w = zeta_m.
    A cross triple (a, b, c), one point per side, is collinear exactly when
    a + b + c = 0 (mod m); the three side lines carry m points each."""
    _require(m >= 3, f"fermat wants m >= 3, got {m}")
    field = cyclotomic_field(m)
    one, zero = _powers(m)[0], (0,) * field.degree
    minus = [tuple(-x for x in w) for w in _powers(m)]
    triples = ([(one, w, zero) for w in minus] + [(zero, one, w) for w in minus]
               + [(w, zero, one) for w in minus])
    pts = tuple(ProjectivePoint._of_vectors(field, t) for t in triples)
    return Configuration(field, pts, label=f"fermat(m={m})")


def boroczky(m: int) -> Configuration:
    """2m real points: m on the unit circle at angles 2*pi*j/m and the m
    directions (-sin(pi*k/m) : cos(pi*k/m) : 0) on the line at infinity.
    The chord through circle points a and b meets infinity at k = a + b
    (mod m); the tangent at a meets it at k = 2a (mod m).  In the chart of
    the first coordinate, with w = zeta^a at the point's angle, i = zeta^(L/4)
    and y = -w^2, a circle point (cos : sin : 1) is
    (1 : -i - 2i/(y - 1) : -2w/(y - 1)), or (0 : +-1 : 1) when cos = 0, and
    a direction is (1 : -i - 2i/(w^2 - 1) : 0), or (0 : 1 : 0) for k = 0;
    each 1/(z - 1) is the closed form in the module docstring."""
    _require(m >= 3, f"boroczky wants m >= 3, got {m}")
    field = cyclotomic_field(math.lcm(4, 2 * m))
    L, q = field.N, field.N // 4  # i = zeta^q
    triples = []
    for a in range(0, L, L // m):
        e = (2 * a + L // 2) % L  # y = zeta^e
        M = L // math.gcd(e, L)
        triples.append(([(0, M)], [(q, -M)] + _over_x_minus_1(M, e, q, -2),
                        _over_x_minus_1(M, e, a, -2)) if e
                       else ((), [(0, 1 if a == q else -1)], [(0, 1)]))
    triples.append(((), [(0, 1)], ()))
    for e in range(L // m, L, L // m):  # w^2 = zeta^e
        M = L // math.gcd(e, L)
        triples.append(([(0, M)], [(q, -M)] + _over_x_minus_1(M, e, q, -2), ()))
    return Configuration(field, _points(field, triples), label=f"boroczky(m={m})")


def sylvester_cubic(k: int) -> Configuration:
    """Group construction on the acnodal cubic y^2 z = x^3 - x^2 z, whose
    smooth real points form a circle group: with m = 2k, c = cos(pi*j/m)
    and s = sin(pi*j/m), the points P_j = (s : -c : s^3) for 0 < j < m
    plus P_0 = (0 : 1 : 0) satisfy "P_a, P_b, P_c collinear iff
    a + b + c = 0 (mod m)" (a line meets the cubic three times, so no four
    are collinear).  This gives roughly n^2/6 spanned lines.  A cusp-model
    cubic cannot do that: its smooth points form the torsion-free group
    (R, +), which caps the three-point-line density well below n^2/6; hence
    the acnodal model.  In the chart of the first coordinate, with
    x = zeta^(2j) and i = zeta^(L/4), P_j = (4 : -4 cot : 4 s^2) for
    cot = c/s = i + 2i/(x - 1) and 4 s^2 = 2 - x - 1/x, with 1/(x - 1) the
    closed form in the module docstring."""
    _require(k >= 2, f"sylvester_cubic wants k >= 2, got {k}")
    field = cyclotomic_field(4 * k)
    L, q = field.N, k  # i = zeta^q
    triples = [((), [(0, 1)], ())]
    for e in range(2, L, 2):  # x = zeta^e
        M = L // math.gcd(e, L)
        triples.append(([(0, 4 * M)], [(q, -4 * M)] + _over_x_minus_1(M, e, q, -8),
                        [(0, 2 * M), (e, -M), (-e, -M)]))
    return Configuration(field, _points(field, triples), label=f"sylvester_cubic(k={k})")


def two_lines(m: int) -> Configuration:
    """2m rational points, m on each coordinate axis: (j, 0) and (0, j) for
    j = 1..m.  Every cross line carries exactly two points."""
    _require(m >= 2, f"two_lines wants m >= 2, got {m}")
    field = rational_field()
    pts = [ProjectivePoint((j, 0, 1), field) for j in range(1, m + 1)]
    pts += [ProjectivePoint((0, j, 1), field) for j in range(1, m + 1)]
    return Configuration(field, tuple(pts), label=f"two_lines(m={m})")


def near_pencil(n: int) -> Configuration:
    """n - 1 collinear points (j, 0) for j = 1..n-1 plus the apex (0, 1)."""
    _require(n >= 3, f"near_pencil wants n >= 3, got {n}")
    field = rational_field()
    pts = [ProjectivePoint((j, 0, 1), field) for j in range(1, n)]
    pts.append(ProjectivePoint((0, 1, 1), field))
    return Configuration(field, tuple(pts), label=f"near_pencil(n={n})")


def grid(a: int, b: int) -> Configuration:
    """The a x b integer grid [0, a) x [0, b)."""
    _require(a >= 2 and b >= 2, f"grid wants a, b >= 2, got {a}x{b}")
    field = rational_field()
    pts = tuple(
        ProjectivePoint((x, y, 1), field) for x in range(a) for y in range(b)
    )
    return Configuration(field, pts, label=f"grid(a={a},b={b})")


def _distinct_points(rng: random.Random, n: int, bound: int) -> List[Tuple[int, int]]:
    """n distinct points (x, y) drawn uniformly from [0, bound)^2 by rng, in
    the order first drawn; a repeated draw is skipped."""
    pts: Dict[Tuple[int, int], None] = {}
    while len(pts) < n:
        pts[rng.randrange(bound), rng.randrange(bound)] = None
    return list(pts)


def random_config(n: int, seed: int, bound: Optional[int] = None) -> Configuration:
    """n distinct integer points drawn uniformly from [0, bound)^2 with a
    deterministic seeded generator (same seed, same configuration, on every
    platform)."""
    _require(n >= 1, f"random_config wants n >= 1, got {n}")
    if bound is None:
        bound = 4 * n
    _require(bound >= 1 and bound * bound >= n,
             f"bound {bound} leaves too little room for {n} distinct points")
    field = rational_field()
    pts = tuple(ProjectivePoint((x, y, 1), field)
                for x, y in _distinct_points(random.Random(seed), n, bound))
    return Configuration(
        field, pts, label=f"random(n={n},seed={seed},bound={bound})"
    )


# ---------------------------------------------------------------------------
# Closed-form spectra (with the small-parameter bucket merges).

def expected_spectrum(name: str, **params) -> Optional[Dict[int, int]]:
    """Known exact line spectrum {i: l_i} for a generator call, or None when
    the family has no closed form here (grid, random)."""
    if name == "fermat":
        m = params["m"]
        if m == 3:
            return {3: 12}
        return {3: m * m, m: 3}
    if name == "boroczky":
        m = params["m"]
        chords = m * (m - 1) // 2
        if m == 3:
            return {2: 3, 3: chords + 1}
        if m == 4:
            return {2: 4, 3: chords, 4: 1}
        return {2: m, 3: chords, m: 1}
    if name == "sylvester_cubic":
        m = 2 * params["k"]
        g = 3 if m % 3 == 0 else 1
        triples = (m * m - 3 * m + 2 * g) // 6
        out = {3: triples}
        ordinary = m - g
        if ordinary:
            out[2] = ordinary
        return out
    if name == "two_lines":
        m = params["m"]
        if m == 2:
            return {2: 6}
        return {2: m * m, m: 2}
    if name == "near_pencil":
        n = params["n"]
        if n == 3:
            return {2: 3}
        return {2: n - 1, n - 1: 1}
    return None


GENERATORS = {
    "fermat": fermat,
    "boroczky": boroczky,
    "sylvester_cubic": sylvester_cubic,
    "two_lines": two_lines,
    "near_pencil": near_pencil,
    "grid": grid,
    "random": random_config,
}
