"""Projective points, lines, configurations, and spanned-line spectra.

Points and line keys are homogeneous coordinate triples over one exact field,
canonicalized so the first nonzero coordinate is 1; equal projective objects
are therefore structurally equal and hash alike.  Collinearity is the exact
vanishing of a 3x3 determinant.

Every spanned-line count comes from one kernel, _row_groups: for each point
i it groups the later points j > i by the line through i and j, keyed by the
primitive integer cross product over Q and by line_through over the other
fields.  spectrum folds the rows into line counts and degrees without
keeping any line; spanned_lines keeps each line from the row of its
smallest member.  oracle_spanned_lines is the deliberately naive cross-check
that retests membership of every other point with collinear() and must
agree everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Dict, FrozenSet, Sequence

from .fields import (
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    RATIONAL,
    _mul_intvec,
    _screen,
    rational_field,
)


class GeometryError(ValueError):
    """Invalid geometric construction (zero vector, duplicate points, ...)."""


class DuplicatePointError(GeometryError):
    pass


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in this package, never bad input."""


def _coerce_triple(coords, field: FieldDescriptor | None):
    items = list(coords)
    if len(items) != 3:
        raise GeometryError(f"homogeneous triple wants 3 coordinates, got {len(items)}")
    for c in items:
        if isinstance(c, FieldElement):
            if field is None:
                field = c.field
            elif c.field != field:
                raise FieldMismatchError("mixed fields in one coordinate triple")
    if field is None:
        field = rational_field()
    out = tuple(
        c if isinstance(c, FieldElement) else field.from_rational(c) for c in items
    )
    return field, out


class _HomogeneousTriple:
    """Shared canonical form for points and line keys."""

    __slots__ = ("field", "coords", "_intvecs", "_images", "_hash")

    def __init__(self, coords, field: FieldDescriptor | None = None):
        fld, triple = _coerce_triple(coords, field)
        pivot = next((i for i, c in enumerate(triple) if not c.is_zero()), None)
        if pivot is None:
            raise GeometryError("the zero triple is not projective")
        inv = triple[pivot].inverse()
        canon = []
        for i, c in enumerate(triple):
            if i < pivot:
                canon.append(fld.zero())
            elif i == pivot:
                canon.append(fld.one())
            else:
                canon.append(c * inv)
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "coords", tuple(canon))
        object.__setattr__(self, "_intvecs", None)
        object.__setattr__(self, "_images", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # integer-cleared coordinate vectors (denominators removed; the common
    # positive scale is projectively irrelevant)
    @property
    def intvecs(self):
        cached = self._intvecs
        if cached is None:
            dens = [c.den for c in self.coords]
            lcm = math.lcm(*dens)
            cached = tuple(
                tuple(x * (lcm // c.den) for x in c.nums) for c in self.coords
            )
            object.__setattr__(self, "_intvecs", cached)
        return cached

    @property
    def images(self):
        """Coordinates reduced into GF(p) through the field's screen."""
        cached = self._images
        if cached is None:
            p, basis = _screen(self.field)
            out = []
            for vec in self.intvecs:
                total = 0
                for c, b in zip(vec, basis):
                    if c:
                        total += c * b
                out.append(total % p)
            cached = tuple(out)
            object.__setattr__(self, "_images", cached)
        return cached

    def sort_token(self):
        return tuple(
            (c.nums, c.den) for c in self.coords
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((type(self).__name__, self.field, self.sort_token()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        inner = " : ".join(repr(c) for c in self.coords)
        return f"{type(self).__name__}({inner})"


class ProjectivePoint(_HomogeneousTriple):
    pass


class LineKey(_HomogeneousTriple):
    """Canonical dual triple (a : b : c) of the line ax + by + cz = 0."""


def collinear(p: ProjectivePoint, q: ProjectivePoint, r: ProjectivePoint) -> bool:
    """Exact test: do three points lie on one line?

    A fast reduction into GF(p) rejects most non-collinear triples; a zero
    image is always confirmed with the exact integer determinant, so the
    answer is exact in both directions.
    """
    fld = p.field
    if q.field != fld or r.field != fld:
        raise FieldMismatchError("collinear wants three points over one field")
    sp, sq, sr = p.images, q.images, r.images
    prime, _ = _screen(fld)
    det = (
        sp[0] * (sq[1] * sr[2] - sq[2] * sr[1])
        - sp[1] * (sq[0] * sr[2] - sq[2] * sr[0])
        + sp[2] * (sq[0] * sr[1] - sq[1] * sr[0])
    ) % prime
    if det:
        return False
    a, b, c = p.intvecs, q.intvecs, r.intvecs
    mul = _mul_intvec
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        cof = tuple(
            x - y for x, y in zip(mul(fld, b[j], c[k]), mul(fld, b[k], c[j]))
        )
        term = mul(fld, a[i], cof)
        if i == 0:
            acc = list(term)
        elif i == 1:
            acc = [x - y for x, y in zip(acc, term)]
        else:
            acc = [x + y for x, y in zip(acc, term)]
    return not any(acc)


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> LineKey:
    """Canonical key of the unique line through two distinct points."""
    if p.field != q.field:
        raise FieldMismatchError("line_through wants two points over one field")
    a, b = p.coords, q.coords
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    if all(c.is_zero() for c in cross):
        raise GeometryError("line_through wants two distinct points")
    return LineKey(cross, p.field)


@dataclass(frozen=True)
class Configuration:
    """A finite list of distinct projective points over one field."""

    field: FieldDescriptor
    points: tuple
    label: str = ""

    def __post_init__(self):
        if not self.points:
            raise GeometryError("a configuration needs at least one point")
        pts = tuple(
            p if isinstance(p, ProjectivePoint) else ProjectivePoint(p, self.field)
            for p in self.points
        )
        for p in pts:
            if p.field != self.field:
                raise FieldMismatchError("configuration points must share its field")
        if len(set(pts)) != len(pts):
            seen = set()
            for i, p in enumerate(pts):
                if p in seen:
                    raise DuplicatePointError(
                        f"duplicate point at index {i}: {p!r}"
                    )
                seen.add(p)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def is_real(self) -> bool:
        return all(c.is_real() for p in self.points for c in p.coords)


@dataclass(frozen=True)
class LineSpectrum:
    """Line-size counts l_i plus the derived totals of one configuration."""

    n: int
    ell: dict
    total_lines: int
    incidences: int
    max_collinear: int
    degrees: tuple

    def count(self, i: int) -> int:
        return self.ell.get(i, 0)

    def rich_line_count(self, k: int) -> int:
        return sum(c for i, c in self.ell.items() if i >= k)


# ---------------------------------------------------------------------------
# Spanned lines.

def _primitive_cross(u, v):
    a = u[1] * v[2] - u[2] * v[1]
    b = u[2] * v[0] - u[0] * v[2]
    c = u[0] * v[1] - u[1] * v[0]
    g = math.gcd(math.gcd(a, b), c)
    if g:
        a //= g
        b //= g
        c //= g
    if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):
        a, b, c = -a, -b, -c
    return a, b, c


def _row_groups(items, line_key):
    """The one pair-grouping kernel.  For each index i, yields (i, row) where
    row maps the key of each line through items[i] and a later item to the
    ascending indices j > i of the items on it.  `line_key(u, v)` must name
    the line through u and v canonically.  Each row's dict is dropped once
    the consumer moves on, so memory stays O(n)."""
    n = len(items)
    for i in range(n - 1):
        u = items[i]
        row: Dict = {}
        for j in range(i + 1, n):
            key = line_key(u, items[j])
            group = row.get(key)
            if group is None:
                row[key] = [j]
            else:
                group.append(j)
        yield i, row


def _keyed_items(config: Configuration):
    """Kernel input for a configuration: primitive integer triples keyed by
    their primitive cross product over Q, the points themselves keyed by
    line_through over every other field."""
    if config.field.kind == RATIONAL:
        return [tuple(v[0] for v in p.intvecs) for p in config.points], _primitive_cross
    return config.points, line_through


def _fold_rows(n: int, rows) -> LineSpectrum:
    """Spectrum and degrees of n >= 2 points from the kernel's rows.

    A line with members m1 < ... < mk shows up in row m_t as a group of the
    k - t points after m_t, so it leaves one group of each size 1 .. k-1.
    With G[s] the number of groups of size s, G[s] counts the lines with
    more than s members, hence l_k = G[k-1] - G[k].  The line's only
    singleton group is {mk}, in row m_(k-1); every other member m_t meets
    it as one group of its own row.  So deg(i) = (groups in row i) +
    (singleton groups equal to {i})."""
    group_sizes: Dict[int, int] = {}
    degrees = [0] * n
    for i, row in rows:
        degrees[i] += len(row)
        for group in row.values():
            size = len(group)
            group_sizes[size] = group_sizes.get(size, 0) + 1
            if size == 1:
                degrees[group[0]] += 1
    ell: Dict[int, int] = {}
    for k in range(2, max(group_sizes, default=0) + 2):
        count = group_sizes.get(k - 1, 0) - group_sizes.get(k, 0)
        if count < 0:
            raise InternalError(f"line grouping is inconsistent: l_{k} = {count}")
        if count:
            ell[k] = count
    if sum(k * (k - 1) // 2 * c for k, c in ell.items()) != n * (n - 1) // 2:
        raise InternalError("line grouping does not cover every point pair once")
    return LineSpectrum(
        n=n,
        ell=ell,
        total_lines=sum(ell.values()),
        incidences=sum(k * c for k, c in ell.items()),
        max_collinear=max(ell),
        degrees=tuple(degrees),
    )


def spanned_lines(config: Configuration):
    """Map each spanned line's canonical key to the frozenset of indices of
    the configuration points on it."""
    items, line_key = _keyed_items(config)
    found = {}
    # a key's first row is the row of the line's smallest member
    for i, row in _row_groups(items, line_key):
        for key, group in row.items():
            if key not in found:
                found[key] = frozenset([i, *group])
    if config.field.kind == RATIONAL:
        fld = config.field
        found = {
            LineKey([Fraction(a), Fraction(b), Fraction(c)], fld): members
            for (a, b, c), members in found.items()
        }
    return dict(sorted(found.items(), key=lambda kv: kv[0].sort_token()))


def oracle_spanned_lines(config: Configuration):
    """Independent brute-force route: for every pair, membership of every
    other point is decided by collinear().  Quadratic in pairs; used to
    cross-check spanned_lines."""
    n = config.n
    if n < 2:
        return {}
    points = config.points
    out: Dict[LineKey, FrozenSet[int]] = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            key = line_through(points[i], points[j])
            if key in out:
                continue
            members = {i, j}
            for k in range(n):
                if k != i and k != j and collinear(points[i], points[j], points[k]):
                    members.add(k)
            out[key] = frozenset(members)
    return dict(sorted(out.items(), key=lambda kv: kv[0].sort_token()))


# ---------------------------------------------------------------------------
# Spectrum.

def spectrum_from_lines(n: int, lines) -> LineSpectrum:
    ell: Dict[int, int] = {}
    degrees = [0] * n
    for members in lines.values():
        k = len(members)
        ell[k] = ell.get(k, 0) + 1
        for idx in members:
            degrees[idx] += 1
    max_collinear = max(ell) if ell else (1 if n == 1 else 0)
    return LineSpectrum(
        n=n,
        ell=ell,
        total_lines=len(lines),
        incidences=sum(i * c for i, c in ell.items()),
        max_collinear=max_collinear,
        degrees=tuple(degrees),
    )


def spectrum(config: Configuration) -> LineSpectrum:
    """Line spectrum of a configuration.  n < 2 yields the empty spectrum."""
    n = config.n
    if n < 2:
        return LineSpectrum(
            n=n, ell={}, total_lines=0, incidences=0,
            max_collinear=min(n, 1), degrees=(0,) * n,
        )
    return _fold_rows(n, _row_groups(*_keyed_items(config)))


# ---------------------------------------------------------------------------
# Projective maps.

def _as_matrix(field: FieldDescriptor, matrix):
    rows = list(matrix)
    if len(rows) != 3 or any(len(list(r)) != 3 for r in rows):
        raise GeometryError("projective map wants a 3x3 matrix")
    out = []
    for row in rows:
        out.append(
            tuple(
                c if isinstance(c, FieldElement) else field.from_rational(c)
                for c in row
            )
        )
        for c in out[-1]:
            if c.field != field:
                raise FieldMismatchError("matrix entries must share the configuration field")
    return tuple(out)


def matrix_determinant(m) -> FieldElement:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def apply_projective_map(config: Configuration, matrix) -> Configuration:
    """Image of the configuration under an invertible 3x3 matrix over its field."""
    m = _as_matrix(config.field, matrix)
    if matrix_determinant(m).is_zero():
        raise GeometryError("projective map must be invertible (determinant is zero)")
    new_points = []
    for p in config.points:
        x, y, z = p.coords
        new_points.append(
            ProjectivePoint(
                (
                    m[0][0] * x + m[0][1] * y + m[0][2] * z,
                    m[1][0] * x + m[1][1] * y + m[1][2] * z,
                    m[2][0] * x + m[2][1] * y + m[2][2] * z,
                ),
                config.field,
            )
        )
    return Configuration(config.field, tuple(new_points), label=config.label)
