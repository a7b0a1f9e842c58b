"""Generators for the named extremal point configurations.

Each generator returns a Configuration over the smallest field of the
supported kinds that represents its coordinates exactly, built from integer
vectors: int triples over Q, and over Q(zeta_N) rows of the power table
_powers(N) and their _mul_intvec products.  Where a family has a closed-form
line spectrum, expected_spectrum returns it (with the small-m bucket merges
applied), so generated output can be verified without running the spectrum
computation.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from .fields import (
    FieldDescriptor,
    _mul_intvec,
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
# Trigonometric helpers over Q(zeta_L): exact cos/sin of multiples of 2*pi/L.

def _trig_field(m: int) -> FieldDescriptor:
    return cyclotomic_field(math.lcm(4, 2 * m))


def _cos_sin(field: FieldDescriptor, numerator: int):
    """Integer vectors (C, S) with (cos, sin) = (C, S) / 2 for the angle
    2*pi*numerator/L in Q(zeta_L), 4 | L: with w = zeta_L^numerator,
    C = w + w^-1 and S = (w - w^-1) / i.  zeta^k, zeta^(L-k) and
    zeta^(3L/4) = 1/i are rows of the power table _powers(L), already
    reduced modulo Phi_L."""
    L = field.N
    powers = _powers(L)
    k = numerator % L
    zk, zmk = powers[k], powers[-k % L]
    diff = tuple(x - y for x, y in zip(zk, zmk))
    return tuple(x + y for x, y in zip(zk, zmk)), _mul_intvec(field, diff, powers[3 * L // 4])


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
    (mod m); the tangent at a meets it at k = 2a (mod m).  For (C, S) from
    _cos_sin, they are (C : S : 2) and (-S : C : 0)."""
    _require(m >= 3, f"boroczky wants m >= 3, got {m}")
    field = _trig_field(m)
    L = field.N
    zero = (0,) * field.degree
    two = (2,) + zero[1:]
    pts = [ProjectivePoint._of_vectors(field, (c, s, two))
           for c, s in (_cos_sin(field, j * (L // m)) for j in range(m))]
    pts += [ProjectivePoint._of_vectors(field, (tuple(-x for x in s), c, zero))
            for c, s in (_cos_sin(field, k * (L // (2 * m))) for k in range(m))]
    return Configuration(field, tuple(pts), label=f"boroczky(m={m})")


def sylvester_cubic(k: int) -> Configuration:
    """Group construction on the acnodal cubic y^2 z = x^3 - x^2 z, whose
    smooth real points form a circle group: with m = 2k, c = cos(pi*j/m)
    and s = sin(pi*j/m), the points P_j = (s : -c : s^3) for 0 < j < m
    plus P_0 = (0 : 1 : 0) satisfy "P_a, P_b, P_c collinear iff
    a + b + c = 0 (mod m)" (a line meets the cubic three times, so no four
    are collinear).  This gives roughly n^2/6 spanned lines.  A cusp-model
    cubic cannot do that: its smooth points form the torsion-free group
    (R, +), which caps the three-point-line density well below n^2/6; hence
    the acnodal model.  P_j = (4S : -4C : S^3) for (C, S) from _cos_sin."""
    _require(k >= 2, f"sylvester_cubic wants k >= 2, got {k}")
    m = 2 * k
    field = _trig_field(m)
    L = field.N
    pts = [ProjectivePoint((0, 1, 0), field)]
    for j in range(1, m):
        c, s = _cos_sin(field, j * (L // (2 * m)))
        cube = _mul_intvec(field, _mul_intvec(field, s, s), s)
        pts.append(ProjectivePoint._of_vectors(
            field, (tuple(4 * x for x in s), tuple(-4 * x for x in c), cube)))
    return Configuration(field, tuple(pts), label=f"sylvester_cubic(k={k})")


# Historical alias: the generator originally modeled a cuspidal cubic, whose
# group (R, +) provably cannot reach the ~n^2/6 spanned-line density; the
# acnodal group model replaced it.  Same signature, n = 2k points.
cuspidal_cubic = sylvester_cubic


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
    if name in ("sylvester_cubic", "cuspidal_cubic"):
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
    "cuspidal_cubic": cuspidal_cubic,
    "two_lines": two_lines,
    "near_pencil": near_pencil,
    "grid": grid,
    "random": random_config,
}
