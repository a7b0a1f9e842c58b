"""Projective points, lines, configurations, and spanned-line spectra.

Every point and line has one canonical form over every field (_canonical):
its coordinates as integer coefficient vectors, multiplied by the adjugate
of the first nonzero coordinate (turning it into its norm, a rational
integer), then made primitive with that coordinate positive.  Equal
projective objects have equal forms, so they compare and hash alike, and
field elements are built only when `coords` is read.  Every package route
builds its points from integer vectors: the rational generators, search and
the loader hand three ints over Q to _HomogeneousTriple._of_ints, which makes
them primitive by _primitive_scalars, _canonical written out on ints, and
every other route hands coefficient vectors to _HomogeneousTriple._of_vectors.
line_through is the canonical form of a cross product; collinear is the exact
vanishing of p . (q x r) (_on_line), in integer arithmetic with no screen.

Every spanned-line count comes from one kernel, _screened_rows: for each
point i it keys the later points j > i by the line through i and j, in one
pass per row.  Over Q the key is the line's slope, a correctly rounded
float (_slope_screen): on exact float affine coordinates, sheared by
t = 2 L + 1 so that no pair is vertical and the keys' hashes spread, when
every point has z = +-1 and L (2 L + 2) < 2**52 for L the largest
|coordinate| (_affine_slopes), and in the affine chart of point i
otherwise (_projective_slopes).  Over Q(sqrt d) and Q(zeta_N) the key is
the line's image in P^2(GF(p)), scaled with one modular inverse per row
(_image_screen, _inverses).  Each row is hashed once, into the set of its
keys (_counted_row).  A row whose keys are all distinct holds only 2-point
lines, which is exact.  On sheared affine points with L <= 65,535 the slope
keys are injective, 8 L**2 (L + 1) < 2**51 (_slope_screen), so a repeated
key is an exact line; on every other route the key is only a hash key, and
every key that repeats is certified exactly before it counts, the same way
over every field.  A row with a failed certificate, or one the screen cannot
key (over Q, a row point with z = 0 or a slope too large for a double;
elsewhere, a vanishing image mod p), is keyed again by the exact canonical
form (over Q, _primitive_cross on scalar triples).  No float reaches a
count.
_tally_rows reduces any set of rows to an O(n) tally, a group-size
histogram and degree deltas, and _fold_rows turns the tally of every row
into line counts and degrees and checks them.  _serial_spectrum counts
every row in one process, for spectrum and for search's scalar triples.
spectrum(config, workers) with workers > 1 counts a configuration of at
least _FORK_FLOOR points in interleaved stripes of rows, the first in the
caller and each other one in a forked process (_forked_tallies); each
process holds O(n) memory beyond the input it inherits, and only the
tallies travel back.  spanned_lines folds the same rows into each line's
members, keys each line once by the exact form and wraps it in a LineKey.
oracle_spanned_lines is the deliberately naive cross-check that keys each
pair by line_through and tests the later points against each new line with
_on_line.  It shares no screen and no certificate with the kernel, and
must agree with it everywhere.
"""

from __future__ import annotations

import marshal
import math
import operator
import os
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from typing import Dict, FrozenSet

from .fields import (
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    RATIONAL,
    _adjugate,
    _conjugate,
    _evaluation,
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
    """The field and the integer coefficient vectors of any number of
    coordinates (ints, Fractions or FieldElements, never floats), cleared of
    denominators over one lcm: the integer vectors that every package route
    builds points from, here from a triple or a projective map's entries."""
    items = list(coords)
    fields = {c.field for c in items if isinstance(c, FieldElement)}
    if field is not None:
        fields.add(field)
    if len(fields) > 1:
        raise FieldMismatchError("mixed fields in one coordinate triple or matrix")
    field = fields.pop() if fields else rational_field()
    pad = (0,) * (field.degree - 1)
    pairs = []
    for c in items:
        if isinstance(c, FieldElement):
            pairs.append((c.nums, c.den))
        elif isinstance(c, float):
            raise GeometryError(f"coordinates must be exact, got the float {c!r}")
        else:
            c = c if isinstance(c, (int, Fraction)) else Fraction(c)
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
    """A point or line key: a field and its canonical form, the primitive
    integer coefficient vectors `intvecs` of _canonical, and nothing else.
    Equality compares the vectors and the field, hashing the vectors.  The
    field-element coordinates `coords`, scaled so the first nonzero one is
    1, are built from the vectors on each read."""

    __slots__ = ("field", "intvecs")

    def __new__(cls, coords, field: FieldDescriptor | None = None):
        """The triple of `coords` over `field`, or over the coordinates'
        field if None.  A tuple of three ints (not bools) over Q goes to
        _of_ints; every other input is cleared of denominators by
        _coerce_triple and passed to _of_vectors.  Both give the same
        form."""
        if (type(coords) is tuple and len(coords) == 3
                and (field is None or field.kind == RATIONAL)
                and type(coords[0]) is int and type(coords[1]) is int
                and type(coords[2]) is int):
            return cls._of_ints(field or rational_field(), *coords)
        fld, vecs = _coerce_triple(coords, field)
        if len(vecs) != 3:
            raise GeometryError(f"homogeneous triple wants 3 coordinates, got {len(vecs)}")
        return cls._of_vectors(fld, vecs)

    @classmethod
    def _of_vectors(cls, field: FieldDescriptor, vecs):
        """The triple of a nonzero triple of integer coefficient vectors."""
        return cls._of_canonical(field, _canonical(field, vecs))

    @classmethod
    def _of_ints(cls, field: FieldDescriptor, a: int, b: int, c: int):
        """The triple of three ints over Q, made primitive by
        _primitive_scalars: every package route that holds int triples
        builds its points here, with no type dispatch per point."""
        self = object.__new__(cls)
        _set_field(self, field)
        _set_intvecs(self, _primitive_scalars(a, b, c))
        return self

    @classmethod
    def _of_canonical(cls, field: FieldDescriptor, vecs):
        """The triple whose canonical form is vecs (not rechecked)."""
        self = object.__new__(cls)
        _set_field(self, field)
        _set_intvecs(self, vecs)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coords(self):
        pivot = next(v[0] for v in self.intvecs if any(v))
        return tuple(FieldElement(self.field, v, pivot) for v in self.intvecs)

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


# the slots' own setters, which __setattr__ does not reach
_set_field = _HomogeneousTriple.field.__set__
_set_intvecs = _HomogeneousTriple.intvecs.__set__


class ProjectivePoint(_HomogeneousTriple):
    __slots__ = ()


class LineKey(_HomogeneousTriple):
    """Canonical dual triple (a : b : c) of the line ax + by + cz = 0."""

    __slots__ = ()


def collinear(p: ProjectivePoint, q: ProjectivePoint, r: ProjectivePoint) -> bool:
    """Exact test: do three points lie on one line?  The determinant
    p . (q x r) vanishes, computed on the canonical integer vectors."""
    fld = p.field
    if q.field != fld or r.field != fld:
        raise FieldMismatchError("collinear wants three points over one field")
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


class Configuration(namedtuple("Configuration", "field points label")):
    """A finite list of distinct projective points over one field: an
    immutable (field, points, label) tuple."""

    __slots__ = ()

    def __new__(cls, field: FieldDescriptor, points, label: str = ""):
        pts = tuple(
            p if isinstance(p, ProjectivePoint) else ProjectivePoint(p, field)
            for p in points
        )
        if not pts:
            raise GeometryError("a configuration needs at least one point")
        for p in pts:
            if p.field != field:
                raise FieldMismatchError("configuration points must share its field")
        if len(set(pts)) != len(pts):
            seen = set()
            for i, p in enumerate(pts):
                if p in seen:
                    raise DuplicatePointError(
                        f"duplicate point at index {i}: {p!r}"
                    )
                seen.add(p)
        return tuple.__new__(cls, (field, pts, label))

    @property
    def n(self) -> int:
        return len(self.points)

    def is_real(self) -> bool:
        """True iff every coordinate is real.  A canonical form's pivot is a
        rational integer, so a point is real exactly when each of its
        integer vectors is fixed by conjugation: no field element is
        built."""
        fld = self.field
        return fld.is_real() or all(
            _conjugate(fld, v) == v for p in self.points for v in p.intvecs)


class LineSpectrum(namedtuple(
        "LineSpectrum", "n ell total_lines incidences max_collinear degrees")):
    """Line-size counts l_i (the dict `ell`) plus the derived totals of one
    configuration, as an immutable tuple."""

    __slots__ = ()

    def count(self, i: int) -> int:
        return self.ell.get(i, 0)


# ---------------------------------------------------------------------------
# Spanned lines.

def _scalar_cross(u, v):
    """_cross in degree 1: the cross product of two scalar triples."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _primitive_scalars(a: int, b: int, c: int):
    """_canonical in degree 1, written out on ints: the triple divided by
    the gcd of its entries and signed so its first nonzero entry is
    positive, as ProjectivePoint and LineKey store it."""
    g = math.gcd(a, b, c)
    if not g:
        raise GeometryError("the zero triple is not projective")
    if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):
        g = -g
    if g == 1:
        return (a,), (b,), (c,)
    return (a // g,), (b // g,), (c // g,)


def _primitive_cross(u, v):
    """_canonical(_cross) in degree 1 on scalar triples, as LineKey stores it."""
    return _primitive_scalars(u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                              u[0] * v[1] - u[1] * v[0])


# Sheared affine coordinates stay below this bound, so slope keys are exact,
# and while 8 L**2 (L + 1) stays below the second, distinct slopes get
# distinct keys: see _slope_screen.
_AFFINE_LIMIT = 2 ** 52
_INJECTIVE_LIMIT = 2 ** 51


def _affine_slopes(points, i):
    """The keys of row i over sheared affine points (X, Y): the slope
    (Y_j - Y_i) / (X_j - X_i) to each later point j.  The coordinates are
    floats of integers below 2**52 in magnitude and no two points share an
    X (see _slope_screen), so every difference is exact and every divisor
    is at least 1: no pair is vertical and no quotient overflows."""
    x0, y0 = points[i]
    return [(y - y0) / (x - x0) for x, y in points[i + 1:]]


def _projective_slopes(items, i):
    """The keys of row i over scalar triples: the slope, in the affine chart
    of u = items[i] = (a, b, c), of the line through u and each later point
    v = (x, y, z), (y c - b z) / (x c - a z), or math.inf for a vertical
    line.  None if c = 0 or a slope is too large for a double."""
    a, b, c = items[i]
    if not c:
        return None
    try:
        return [(y * c - b * z) / d if (d := x * c - a * z) else math.inf
                for x, y, z in items[i + 1:]]
    except OverflowError:
        return None


def _slope_screen(items):
    """The row screen over Q, on scalar triples: (row_keys, triples, modulus).

    A row's keys are the slopes of the lines through its point and each
    later point, correctly rounded to doubles.  Equal rationals round to
    equal doubles, and -0.0 == 0.0, so an exact line never splits; distinct
    slopes may still round to one double.  A finite slope never becomes
    inf, since an int/int division too large for a double raises
    OverflowError.

    Let L be the largest |coordinate|.  When every triple has z = +-1 and
    L (2 L + 2) < 2**52 (up to L = 47,453,132), the rows are keyed on the
    sheared affine points (X, Y) = ((x + t y) z, y z), t = 2 L + 1, built
    once as floats (_affine_slopes).  Two distinct points never share X:
    with equal y their x differ, and otherwise t |y_i - y_j| >= t > 2 L >=
    |x_i - x_j|.  So no pair is vertical.  Every |X| <= L (2 L + 2) < 2**52,
    so the floats are exact and so are their differences, which stay below
    2**53, where every integer is a double.  The shear is a linear map, so
    each key is the correctly rounded slope of the line in the sheared
    chart, as int/int division would give it, and equal lines get equal
    doubles.  The keys lie near +-1/t, in binades where the low bits of
    CPython's float hash (the value mod 2**61 - 1) come from the mantissa,
    so they spread over a set's slots; unsheared slopes hash to their
    integer part and crowd a few slots.  Any other input, with a point at
    infinity, a point with a fractional affine coordinate (its primitive z
    is not +-1) or a larger L, keeps the projective formula
    (_projective_slopes), and its rows through a point with z = 0 or with a
    slope too large for a double get None: they take the exact key.

    On the affine route with 8 L**2 (L + 1) < 2**51, that is L <= 65,535,
    the keys are injective and the modulus is None: a repeated key is an
    exact line and needs no certificate.  A key is the double nearest
    a / b, for integers a = dY and b = dX with |a| <= 2 L and
    1 <= |b| <= 2 max |X| <= 4 L (L + 1).  A distinct slope c / d through
    the same point differs from it by at least 1 / |b d|.  If both rounded
    to one double f, each would lie within 2**-53 |f| of f, so they would
    differ by at most 2**-52 |f| <= 2**-52 |a / b| / (1 - 2**-53), which
    forces |a d| > 2**51, while |a d| <= 8 L**2 (L + 1).  (A slope 0 / b
    rounds to 0.0 and a nonzero one, at least 1 / (4 L (L + 1)) in
    magnitude, never does.)  The projective route and larger affine inputs
    keep the certificate.  Its triples are the items: each of a
    determinant's six terms takes one entry per column, so the modulus is
    6 * 2**104 on the affine route and 6 L**3 + 1 otherwise."""
    bound = max(map(abs, chain.from_iterable(items)))
    if bound * (2 * bound + 2) < _AFFINE_LIMIT and all(z in (1, -1) for _, _, z in items):
        t = 2 * bound + 1
        points = [(float((x + t * y) * z), float(y * z)) for x, y, z in items]
        injective = 8 * bound ** 2 * (bound + 1) < _INJECTIVE_LIMIT
        return (partial(_affine_slopes, points), items,
                None if injective else 6 * _AFFINE_LIMIT ** 2)
    return partial(_projective_slopes, items), items, 6 * bound ** 3 + 1


def _on_line_mod(point, line, modulus) -> bool:
    """The certificate of _screened_rows: point . line vanishes mod m."""
    return not (point[0] * line[0] + point[1] * line[1] + point[2] * line[2]) % modulus


def _inverses(values, p):
    """The inverses of nonzero residues mod p by one pow (Montgomery 1987):
    invert the product of all of them, then peel each factor off by the
    prefix products, at three products mod p per value."""
    prefix = list(accumulate(values, lambda a, b: a * b % p))
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for t in range(len(values) - 1, 0, -1):
        out[t] = inv * prefix[t - 1] % p
        inv = inv * values[t] % p
    out[0] = inv
    return out


def _image_screen(config: Configuration):
    """The row screen over Q(sqrt d) or Q(zeta_N): (row_keys, triples, modulus).

    row_keys(i) keys each later point by the cross product of the two
    points' images in GF(p) (fields._screen), scaled so its first nonzero
    coordinate is 1.  The screen is a ring homomorphism, so the points of
    one exact line through point i never get two different keys.  A row in
    which some product vanishes gets None: it takes the exact key.  The
    scalings of a row take one pow for the whole row (_inverses) in place
    of the norm products of _canonical.  The certificate triples are the points' evaluations mod m,
    and the modulus is m (fields._evaluation)."""
    fld = config.field
    prime, residues = _screen(fld)
    images = [tuple(sum(map(operator.mul, v, residues)) % prime for v in p.intvecs)
              for p in config.points]
    modulus, basis = _evaluation(fld, [v for p in config.points for v in p.intvecs])
    triples = [tuple(sum(map(operator.mul, v, basis)) % modulus for v in p.intvecs)
               for p in config.points]

    def row_keys(i):
        u0, u1, u2 = images[i]
        crosses = [((u1 * c - u2 * b) % prime, (u2 * a - u0 * c) % prime,
                    (u0 * b - u1 * a) % prime) for a, b, c in images[i + 1:]]
        pivots = [x or y or z for x, y, z in crosses]
        if 0 in pivots:
            return None
        return [(x and 1, y * inv % prime, z * inv % prime)
                for (x, y, z), inv in zip(crosses, _inverses(pivots, prime))]

    return row_keys, triples, modulus


def _keyed_items(config: Configuration):
    """Kernel input for a configuration: the points' canonical integer
    vectors, the exact line key (the canonical form of their cross
    product) and the row screen for _screened_rows.  Over Q the vectors
    are flattened to scalar triples, keyed exactly by _primitive_cross
    (_canonical in degree 1 written out on ints) and screened by slope
    (_slope_screen), since exact grouping runs several times faster on
    scalar triples than on triples of 1-tuples.  Elsewhere rows are
    screened mod p (_image_screen).  _screened_rows keys rows by the
    screen and falls back to the exact key; spanned_lines also keys each
    line by it."""
    fld = config.field
    if fld.kind == RATIONAL:
        items = [(a, b, c) for p in config.points for (a,), (b,), (c,) in [p.intvecs]]
        return items, _primitive_cross, _slope_screen(items)
    items = [p.intvecs for p in config.points]
    return items, lambda u, v: _canonical(fld, _cross(fld, u, v)), _image_screen(config)


# A row in which at most one key in this many repeats finds its repeats by
# removal from its set (_counted_row).  Each repeat costs an exception and
# an index scan there, so a row with more repeats takes the dict pass.
_FEW_REPEATS = 128


def _counted_row(i, keys):
    """The number of distinct keys in a row and the ascending members j > i
    of each repeated key, for keys[j - i - 1] the key of the pair (i, j),
    the groups in the order of their second members.

    The row is hashed once, into the set of its keys.  A row whose keys are
    all distinct holds only 2-point lines: it collects no members.  In a
    row with few repeats, at most len(keys) / _FEW_REPEATS, the keys are
    removed from that set in order at C level: a KeyError names a key met
    before, at the position the scan has reached, where the scan then goes
    on.  A new repeated key's first member is found by list.index.  Each
    repeat costs an exception and an index scan, so a row with more repeats
    (a grid's rows) records each key's first index in one dict pass and
    starts a group only when that key repeats."""
    seen = set(keys)
    distinct = len(seen)
    size = len(keys)
    if distinct == size:
        return distinct, []
    groups: Dict = {}
    if (size - distinct) * _FEW_REPEATS <= size:
        remove, rest = seen.remove, iter(keys)
        while True:
            try:
                any(map(remove, rest))
                return distinct, list(groups.values())
            except KeyError as repeated:
                key = repeated.args[0]
                j = i + size - operator.length_hint(rest)
                group = groups.get(key)
                if group is None:
                    groups[key] = [i + 1 + keys.index(key), j]
                else:
                    group.append(j)
    first: Dict = {}
    for j, key in enumerate(keys, i + 1):
        k = first.setdefault(key, j)
        if k != j:
            group = groups.get(k)
            if group is None:
                groups[k] = [k, j]
            else:
                group.append(j)
    return distinct, list(groups.values())


def _screened_rows(items, exact_key, screen, stripe):
    """The one pair-grouping kernel.  For each index i in `stripe`, a range
    of row indices below len(items) - 1, it yields (i, distinct, groups):
    the number of lines through items[i] and a later item, and the
    ascending indices j > i of the later items on each such line that holds
    two or more of them.

    The row is keyed by `screen` = (row_keys, triples, modulus).  With
    modulus None the keys are injective (_slope_screen's sheared affine
    slopes for L <= 65,535), so each repeated key is an exact line and
    counts as it is.  Otherwise the screened key is only a hash key: every
    repeated key is certified before it counts, the same way over every
    field.  With line the _scalar_cross of triples[i] and the group's first
    member's triples, each further member j must pass
    _on_line_mod(triples[j], line, modulus).  Its dot product is the
    determinant of the three points over Q, and its evaluation mod m
    elsewhere; the modulus exceeds every nonzero determinant's norm, so the
    test is exact incidence.  A key that repeats by collision fails there,
    and the row is keyed again with exact_key, as is a row the screen gives
    None.  A key that does not repeat needs no certificate, since the
    screen never splits an exact line.  So every row yielded is the exact
    row.  Each row's keys are dropped once the consumer moves on, so memory
    stays O(n)."""
    row_keys, triples, modulus = screen

    def certified(i, group):
        line = _scalar_cross(triples[i], triples[group[0]])
        return all(_on_line_mod(triples[j], line, modulus) for j in group[1:])

    for i in stripe:
        keys = row_keys(i)
        if keys is not None:
            distinct, groups = _counted_row(i, keys)
            if groups and modulus is not None and not all(
                    certified(i, group) for group in groups):
                keys = None
        if keys is None:
            distinct, groups = _counted_row(i, [exact_key(items[i], v) for v in items[i + 1:]])
        yield i, distinct, groups


def _tally_rows(n: int, rows):
    """The O(n) tally of some of the kernel's rows: (G, deltas), with G[s]
    the number of listed groups of s >= 2 points and G[1] the number of
    size-1 groups, and deltas[j] what the rows add to deg(j) - j (see
    _fold_rows).  Tallies of disjoint sets of rows add up: G key by key,
    deltas entry by entry.  It holds no row, so a tally costs O(n) memory
    however many rows it counts."""
    group_sizes = {1: 0}
    deltas = [0] * n
    for i, distinct, groups in rows:
        deltas[i] += distinct
        group_sizes[1] += distinct - len(groups)
        for group in groups:
            size = len(group)
            group_sizes[size] = group_sizes.get(size, 0) + 1
            for j in group:
                deltas[j] -= 1
    return group_sizes, deltas


def _fold_rows(n: int, group_sizes, deltas) -> LineSpectrum:
    """Spectrum and degrees of n >= 1 points from the tally (_tally_rows) of
    every row of the kernel, whether one process tallied them all or
    spectrum's stripes each tallied some.  It raises InternalError unless
    the tally is consistent three ways: no line count is negative, the
    lines cover every point pair once, and the degrees sum to the
    incidences.

    A line with members m1 < ... < mk shows up in row m_t as a group of the
    k - t points after m_t, so it leaves one group of each size 1 .. k-1;
    a row's groups of size 1 are its lines less its listed groups.  With
    G[s] the number of groups of size s, G[s] counts the lines with more
    than s members, hence l_k = G[k-1] - G[k].

    Point j lies on the lines of row j and on the lines it ends.  The lines
    through j and an earlier point cover the j pairs (i, j), i < j, one
    with t members below j covering t of them; j shares a listed group in
    the rows of all t of them if the line goes on past j, of t - 1 if j
    ends it.  So deg(j) = (lines in row j) + j - (rows i < j in which j is
    in a listed group), which is j + deltas[j]."""
    degrees = [j + d for j, d in enumerate(deltas)]
    ell: Dict[int, int] = {}
    for k in range(2, max(group_sizes) + 2):
        count = group_sizes.get(k - 1, 0) - group_sizes.get(k, 0)
        if count < 0:
            raise InternalError(f"line grouping is inconsistent: l_{k} = {count}")
        if count:
            ell[k] = count
    if sum(k * (k - 1) // 2 * c for k, c in ell.items()) != n * (n - 1) // 2:
        raise InternalError("line grouping does not cover every point pair once")
    spec = _spectrum_of(n, ell, degrees)
    if sum(degrees) != spec.incidences:
        raise InternalError("line grouping gives degrees that do not sum to the incidences")
    return spec


def spanned_lines(config: Configuration):
    """Map each spanned line's canonical key to the frozenset of indices of
    the configuration points on it, in sort_token order.

    A fold over the rows of _screened_rows: the lines of row i are its
    groups and one singleton [j] for each later j in none of them.  A line
    is new in row i exactly when i is its least member; after[m] holds the
    next member after m of every line found so far, so a group or singleton
    whose first member is in after[i] passes through i but was found in an
    earlier row.  Each new line is keyed once by the exact key."""
    items, exact_key, screen = _keyed_items(config)
    after = [set() for _ in items]
    lines = []
    for i, _, groups in _screened_rows(items, exact_key, screen, range(len(items) - 1)):
        skip = after[i].union(*groups)
        new = [g for g in groups if g[0] not in after[i]]
        new += [[j] for j in range(i + 1, len(items)) if j not in skip]
        for members in new:
            for a, b in zip(members, members[1:]):
                after[a].add(b)
            key = exact_key(items[i], items[members[0]])
            lines.append((LineKey._of_canonical(config.field, key), frozenset([i, *members])))
    return dict(sorted(lines, key=lambda kv: kv[0].sort_token()))


def oracle_spanned_lines(config: Configuration):
    """Independent brute-force route: every pair i < j is keyed by
    line_through.  A new key's members are i, j and each later point k > j
    on it by exact incidence (_on_line), with no screen; an earlier point on
    the line would have keyed it at an earlier pair.  Used to cross-check
    spanned_lines."""
    n = config.n
    points = config.points
    out: Dict[LineKey, FrozenSet[int]] = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            key = line_through(points[i], points[j])
            if key not in out:
                out[key] = frozenset([i, j, *(
                    k for k in range(j + 1, n)
                    if _on_line(config.field, points[k].intvecs, key.intvecs))])
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


# Below this many points spectrum tallies every row in the caller, whatever
# its worker count: on smaller inputs forking costs more than it saves.
_FORK_FLOOR = 2100


def _merged(tallies):
    """The tally of the union of disjoint sets of rows, from theirs."""
    (group_sizes, deltas), *rest = tallies
    for sizes, more in rest:
        for size, count in sizes.items():
            group_sizes[size] = group_sizes.get(size, 0) + count
        deltas = list(map(operator.add, deltas, more))
    return group_sizes, deltas


def _stripe_worker(n: int, keyed, workers: int, w: int, write_end):
    """The body of forked worker w, which never returns: tally the rows of
    stripe w, write the tally to the pipe `write_end` as marshal bytes and
    leave through os._exit, with status 0 only if the whole tally was
    written.  It never flushes the stdio it inherited."""
    code = 1
    try:
        stripe = range(w, n - 1, workers)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(_tally_rows(n, _screened_rows(*keyed, stripe))))
        code = 0
    finally:
        os._exit(code)


def _forked_tallies(n: int, keyed, workers: int):
    """The tallies of the kernel's rows in `workers` interleaved stripes,
    range(w, n - 1, workers): stripe 0 in this process and each other
    stripe in an os.fork()ed _stripe_worker, which inherits the keyed input
    and sends back only its tally.  Row i has n - 1 - i pairs, so
    interleaving balances the stripes.  If os.fork fails (no process or
    memory left), this process counts the stripes it could not hand out.

    Every worker is reaped before this returns or raises, and killed first
    if this process raised; a worker that failed raises InternalError."""
    pids, read_ends, encoded = [], [], []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _stripe_worker(n, keyed, workers, w, write_end)
            except OSError:
                os.close(read_ends.pop())
                break
            finally:
                os.close(write_end)
            pids.append(pid)
        own = [_tally_rows(n, _screened_rows(*keyed, range(w, n - 1, workers)))
               for w in (0, *range(len(pids) + 1, workers))]
        for read_end in read_ends:
            with open(read_end, "rb", closefd=False) as pipe:
                encoded.append(pipe.read())
    except BaseException:
        from signal import SIGKILL
        for pid in pids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for read_end in read_ends:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise InternalError(f"a counting worker failed (wait statuses {statuses})")
    return [*own, *map(marshal.loads, encoded)]


def spectrum(config: Configuration, workers: int = 1) -> LineSpectrum:
    """Line spectrum of a configuration.  n = 1 yields the empty spectrum.

    With workers > 1 and at least _FORK_FLOOR points, where os.fork
    exists, the kernel's rows are counted in that many interleaved stripes,
    each in its own process (_forked_tallies) holding O(n) memory beyond
    the inherited input, and their tallies are merged and checked once
    here.  Otherwise, and by default, this process counts every row.  The
    result is the same either way."""
    n = config.n
    keyed = _keyed_items(config)
    if workers > 1 and n >= _FORK_FLOOR and hasattr(os, "fork"):
        return _fold_rows(n, *_merged(_forked_tallies(n, keyed, workers)))
    return _serial_spectrum(*keyed)


def _serial_spectrum(items, exact_key=None, screen=None) -> LineSpectrum:
    """The spectrum of n >= 1 distinct points, every row counted in this
    process: of the kernel input _keyed_items makes, or, given only items,
    of scalar triples over Q keyed as _keyed_items keys them (search's
    score)."""
    n = len(items)
    if exact_key is None:
        exact_key, screen = _primitive_cross, _slope_screen(items)
    return _fold_rows(n, *_tally_rows(n, _screened_rows(items, exact_key, screen, range(n - 1))))


# ---------------------------------------------------------------------------
# Projective maps.

def apply_projective_map(config: Configuration, matrix) -> Configuration:
    """Image of the configuration under an invertible 3x3 matrix over its
    field, on integer vectors: the nine entries are cleared over one lcm,
    the matrix is invertible exactly when row0 . (row1 x row2) is nonzero,
    and each image coordinate is a sum of _mul_intvec products."""
    rows = [list(row) for row in matrix]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise GeometryError("projective map wants a 3x3 matrix")
    fld = config.field
    entries = _coerce_triple(chain(*rows), fld)[1]
    m = entries[0:3], entries[3:6], entries[6:9]
    if _on_line(fld, m[0], _cross(fld, m[1], m[2])):
        raise GeometryError("projective map must be invertible (determinant is zero)")
    mul = partial(_mul_intvec, fld)
    return Configuration(fld, tuple(
        ProjectivePoint._of_vectors(fld, [tuple(map(sum, zip(*map(mul, row, p.intvecs))))
                                          for row in m])
        for p in config.points), label=config.label)
