"""Projective points, lines, configurations, and spanned-line spectra.

Every point and line has one canonical form over every field (_canonical):
its coordinates as integer coefficient vectors, multiplied by the adjugate
of the first nonzero coordinate (turning it into its norm, a rational
integer), then made primitive with that coordinate positive.  Equal
projective objects have equal forms, so they compare and hash alike, and
field elements are built only when `coords` is read.  line_through is the
canonical form of a cross product; collinear is the exact vanishing of
p . (q x r) (_on_line) behind a GF(p) screen.

Every spanned-line count comes from one kernel, _row_groups: for each point
i it groups the later points j > i by a key of the line through i and j.
spanned_lines keys every row by the exact canonical form (over Q,
_primitive_cross on scalar triples), keeps each line from the row of its
smallest member and wraps only those in LineKeys.  spectrum keeps that key
over Q; over Q(sqrt d) and Q(zeta_N) it keys each row by the line's image in
P^2(GF(p)), certifies every group of two or more points with _on_line, and
rebuilds a row with the exact key if any pair in it has a zero image or a
group fails (_screened_rows).  It then folds the rows into line counts and
degrees.  oracle_spanned_lines is the deliberately naive cross-check that
retests membership of every other point with collinear() and must agree
everywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Dict, FrozenSet

from .fields import (
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    RATIONAL,
    _adjugate,
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
    """The field and the integer coefficient vectors of a coordinate triple
    (ints, Fractions or FieldElements), cleared of denominators."""
    items = list(coords)
    if len(items) != 3:
        raise GeometryError(f"homogeneous triple wants 3 coordinates, got {len(items)}")
    fields = {c.field for c in items if isinstance(c, FieldElement)}
    if field is not None:
        fields.add(field)
    if len(fields) > 1:
        raise FieldMismatchError("mixed fields in one coordinate triple")
    field = fields.pop() if fields else rational_field()
    pad = (0,) * (field.degree - 1)
    pairs = []
    for c in items:
        if isinstance(c, FieldElement):
            pairs.append((c.nums, c.den))
        else:
            c = Fraction(c)
            pairs.append(((c.numerator,) + pad, c.denominator))
    lcm = math.lcm(*[den for _, den in pairs])
    return field, tuple(nums if den == lcm else tuple(x * (lcm // den) for x in nums)
                        for nums, den in pairs)


def _cross(field: FieldDescriptor, u, v) -> tuple:
    """Cross product of two triples of integer coefficient vectors."""
    mul = _mul_intvec

    def minor(i, j):
        return tuple(x - y for x, y in zip(mul(field, u[i], v[j]), mul(field, u[j], v[i])))

    return minor(1, 2), minor(2, 0), minor(0, 1)


def _canonical(field: FieldDescriptor, vecs) -> tuple:
    """The primitive integer form of a nonzero triple of integer coefficient
    vectors.  Multiplying by the adjugate of the first nonzero coordinate
    turns that coordinate into its norm, a rational integer; dividing by the
    gcd of all entries, signed, makes the vectors primitive and that
    coordinate positive.  Two triples name the same projective object
    exactly when their forms are equal."""
    k = next((i for i, v in enumerate(vecs) if any(v)), None)
    if k is None:
        raise GeometryError("the zero triple is not projective")
    pivot = vecs[k]
    if any(pivot[1:]):
        adj, norm = _adjugate(field, pivot)
        vecs = [
            (norm,) + (0,) * (len(pivot) - 1) if i == k else _mul_intvec(field, v, adj)
            for i, v in enumerate(vecs)
        ]
    g = math.gcd(*[x for v in vecs for x in v])
    if vecs[k][0] < 0:
        g = -g
    if g == 1:
        return tuple(vecs)
    return tuple(tuple(x // g for x in v) for v in vecs)


def _on_line(field: FieldDescriptor, point, line) -> bool:
    """Exact incidence of two triples of integer coefficient vectors: does
    point . line vanish?"""
    terms = [_mul_intvec(field, a, c) for a, c in zip(point, line)]
    return not any(map(sum, zip(*terms)))


class _HomogeneousTriple:
    """A point or line key, identified by its canonical form: the primitive
    integer coefficient vectors `intvecs` of _canonical, over one field.
    Equality compares the vectors and the field, hashing the vectors.  The
    field-element coordinates `coords`, scaled so the first nonzero one is
    1, are built from the vectors on first read."""

    __slots__ = ("field", "intvecs", "_coords", "_images")

    def __new__(cls, coords, field: FieldDescriptor | None = None):
        fld, vecs = _coerce_triple(coords, field)
        return cls._of_canonical(fld, _canonical(fld, vecs))

    @classmethod
    def _of_canonical(cls, field: FieldDescriptor, vecs):
        """The triple whose canonical form is vecs (not rechecked)."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (field, vecs, None, None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coords(self):
        if self._coords is None:
            pivot = next(v[0] for v in self.intvecs if any(v))
            coords = tuple(FieldElement(self.field, v, pivot) for v in self.intvecs)
            object.__setattr__(self, "_coords", coords)
        return self._coords

    @property
    def images(self):
        """Coordinates reduced into GF(p) through the field's screen."""
        if self._images is None:
            p, basis = _screen(self.field)
            images = tuple(sum(map(operator.mul, v, basis)) % p for v in self.intvecs)
            object.__setattr__(self, "_images", images)
        return self._images

    def sort_token(self):
        """(numerators, denominator) of each coordinate in lowest terms, the
        first nonzero coordinate scaled to 1: the data of `coords`, built
        without field elements."""
        vecs = self.intvecs
        pivot = next(v[0] for v in vecs if any(v))
        gcds = [math.gcd(pivot, *v) for v in vecs]
        return tuple((tuple(x // g for x in v), pivot // g) for v, g in zip(vecs, gcds))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.intvecs == other.intvecs and self.field == other.field

    def __hash__(self):
        return hash(self.intvecs)

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
    image is always confirmed with the exact integer determinant
    p . (q x r), so the answer is exact in both directions.
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
    return _on_line(fld, p.intvecs, _cross(fld, q.intvecs, r.intvecs))


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> LineKey:
    """Canonical key of the unique line through two distinct points."""
    fld = p.field
    if q.field != fld:
        raise FieldMismatchError("line_through wants two points over one field")
    cross = _cross(fld, p.intvecs, q.intvecs)
    if not any(map(any, cross)):
        raise GeometryError("line_through wants two distinct points")
    return LineKey._of_canonical(fld, _canonical(fld, cross))


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


def _row_groups(items, line_key, rows=None):
    """The one pair-grouping kernel.  For each index i in rows (default: all
    but the last), yields (i, row) where row maps the key of each line
    through items[i] and a later item to the ascending indices j > i of the
    items on it.  `line_key(u, v)` must name the line through u and v
    canonically.  Each row's dict is dropped once the consumer moves on, so
    memory stays O(n)."""
    n = len(items)
    for i in range(n - 1) if rows is None else rows:
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
    """Exact kernel input for a configuration: the points' canonical integer
    vectors, keyed by the canonical form of their cross product.  Over Q the
    vectors are flattened to scalar triples keyed by _primitive_cross, which
    is _canonical in degree 1 written out on ints: on random_config(1200) the
    kernel takes 1.3 s on scalar triples against 10.4 s on triples of
    1-tuples (Python 3.11, one core of a 2-vCPU Xeon VM).  spanned_lines
    keys every row by it; spectrum over Q(sqrt d) and Q(zeta_N) keys rows
    mod p instead and falls back to this key (_screened_rows)."""
    fld = config.field
    if fld.kind == RATIONAL:
        return [tuple(v[0] for v in p.intvecs) for p in config.points], _primitive_cross
    return [p.intvecs for p in config.points], lambda u, v: _canonical(fld, _cross(fld, u, v))


def _screened_rows(config: Configuration):
    """The kernel's rows over Q(sqrt d) or Q(zeta_N), grouped mod p and
    certified exactly.

    Each pair (i, j) is keyed by the cross product of the points' GF(p)
    images, scaled so its first nonzero coordinate is 1, or None when that
    product vanishes.  The screen is a ring homomorphism, so points on one
    exact line through point i never get two different non-None keys.  A
    group of two or more is kept only if every member lies on the exact
    line through i and its first member (_on_line), which catches any two
    lines that collide mod p.  A row with a None key or a failed group is
    rebuilt with the exact key of _keyed_items.  So every row yielded is
    the exact row, up to the names of its keys.  One pow per pair replaces
    the phi(N) - 1 conjugate products of _canonical: spectrum of
    sylvester_cubic(20) takes 0.06 s against 3.8 s with the exact key
    (Python 3.11, one core of a 2-vCPU Xeon VM)."""
    fld = config.field
    prime, _ = _screen(fld)
    items, exact_key = _keyed_items(config)

    def screen_key(a, b):
        x = (a[1] * b[2] - a[2] * b[1]) % prime
        y = (a[2] * b[0] - a[0] * b[2]) % prime
        z = (a[0] * b[1] - a[1] * b[0]) % prime
        if x:
            inv = pow(x, -1, prime)
            return 1, y * inv % prime, z * inv % prime
        if y:
            return 0, 1, z * pow(y, -1, prime) % prime
        return (0, 0, 1) if z else None

    def certified(i, group):
        line = _cross(fld, items[i], items[group[0]])
        return all(_on_line(fld, items[j], line) for j in group[1:])

    for i, row in _row_groups([p.images for p in config.points], screen_key):
        if None in row or not all(certified(i, g) for g in row.values() if len(g) > 1):
            _, row = next(_row_groups(items, exact_key, (i,)))
        yield i, row


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
    return _spectrum_of(n, ell, degrees)


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
    fld = config.field
    scalar = fld.kind == RATIONAL
    lines = (
        (LineKey._of_canonical(fld, tuple((x,) for x in key) if scalar else key), members)
        for key, members in found.items()
    )
    return dict(sorted(lines, key=lambda kv: kv[0].sort_token()))


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

def _spectrum_of(n: int, ell: dict, degrees) -> LineSpectrum:
    """The spectrum with line counts ell, its totals derived from them."""
    return LineSpectrum(
        n=n,
        ell=ell,
        total_lines=sum(ell.values()),
        incidences=sum(k * c for k, c in ell.items()),
        max_collinear=max(ell, default=min(n, 1)),
        degrees=tuple(degrees),
    )


def spectrum_from_lines(n: int, lines) -> LineSpectrum:
    ell: Dict[int, int] = {}
    degrees = [0] * n
    for members in lines.values():
        k = len(members)
        ell[k] = ell.get(k, 0) + 1
        for idx in members:
            degrees[idx] += 1
    return _spectrum_of(n, ell, degrees)


def spectrum(config: Configuration) -> LineSpectrum:
    """Line spectrum of a configuration.  n < 2 yields the empty spectrum."""
    n = config.n
    if n < 2:
        return spectrum_from_lines(n, {})
    if config.field.kind == RATIONAL:
        return _fold_rows(n, _row_groups(*_keyed_items(config)))
    return _fold_rows(n, _screened_rows(config))


# ---------------------------------------------------------------------------
# Projective maps.

def _as_matrix(field: FieldDescriptor, matrix):
    m = tuple(
        tuple(c if isinstance(c, FieldElement) else field.from_rational(c) for c in row)
        for row in matrix
    )
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise GeometryError("projective map wants a 3x3 matrix")
    if any(c.field != field for row in m for c in row):
        raise FieldMismatchError("matrix entries must share the configuration field")
    return m


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
    new_points = tuple(
        ProjectivePoint([a * x + b * y + c * z for a, b, c in m], config.field)
        for x, y, z in (p.coords for p in config.points)
    )
    return Configuration(config.field, new_points, label=config.label)
