"""A closed-form oracle for the a x b grid, against the kernel at every size.

The lines of the grid [0, a) x [0, b) follow from its primitive directions
v = (p, q), p >= 0, with p = 0 only for q = 1, with no geometry and no field
arithmetic.  A(j) = max(0, a - j p) * max(0, b - j |q|) counts the points P
with P + j v in the grid, so a line of m points in direction v adds m - j
to A(j) when m > j.  Hence A(k - 1) - A(k) lines in direction v hold at
least k points.  A point P lies on a spanned line in direction v exactly
when P + v or P - v is in the grid; each of the two is a rectangle of P, so
one 2-D difference array gives every degree.

spectrum is compared with the closed form on plain grids, above the fork
floor with two workers, and on projective images that take every route of
the kernel: the projective slopes, rows through a point at infinity (the
exact key), coordinates beyond the affine limit, and images in Q(sqrt 2)
and Q(zeta_5).  Projective maps keep the points' order, so the degrees are
compared point by point.
"""

import math
import operator
from itertools import accumulate

import pytest

from linespectra import projective
from linespectra.constructions import grid
from linespectra.fields import QUADRATIC, cyclotomic_field, quadratic_field
from linespectra.projective import (
    Configuration,
    ProjectivePoint,
    apply_projective_map,
    spanned_lines,
    spectrum,
)


def _directions(a, b):
    """The primitive directions (p, q) of the grid's spanned lines."""
    out = [(0, 1)]
    for p in range(1, a):
        out += [(p, q) for q in range(1 - b, b) if math.gcd(p, q) == 1]
    return out


def grid_spectrum(a, b):
    """(ell, degrees) of grid(a, b) in closed form, degrees in the order of
    grid's points: (x, y) at index x * b + y."""
    at_least = {}
    diff = [[0] * (b + 1) for _ in range(a + 1)]

    def add(x0, x1, y0, y1, w):  # w on [x0, x1) x [y0, y1)
        if x0 < x1 and y0 < y1:
            diff[x0][y0] += w
            diff[x1][y0] -= w
            diff[x0][y1] -= w
            diff[x1][y1] += w

    for p, q in _directions(a, b):
        def starts(j):
            return max(0, a - j * p) * max(0, b - j * abs(q))
        k = 2
        while starts(k - 1):
            at_least[k] = at_least.get(k, 0) + starts(k - 1) - starts(k)
            k += 1
        # P + v in the grid, P - v in the grid, and both
        y_plus = (max(0, -q), min(b, b - q))
        y_minus = (max(0, q), min(b, b + q))
        add(0, a - p, *y_plus, 1)
        add(p, a, *y_minus, 1)
        add(p, a - p, max(y_plus[0], y_minus[0]), min(y_plus[1], y_minus[1]), -1)
    ell = {k: at_least[k] - at_least.get(k + 1, 0) for k in at_least}
    # prefix sums along y, then along x
    rows = accumulate((list(accumulate(row)) for row in diff[:a]),
                      lambda above, row: list(map(operator.add, above, row)))
    degrees = [d for row in rows for d in row[:b]]
    return {k: c for k, c in ell.items() if c}, degrees


def grid_lines(a, b):
    """The member sets of grid(a, b)'s spanned lines, as point indices."""
    lines = set()
    for p, q in _directions(a, b):
        for x in range(a):
            for y in range(b):
                if 0 <= x - p < a and 0 <= y - q < b:
                    continue  # not the first point of its line
                members = []
                u, v = x, y
                while 0 <= u < a and 0 <= v < b:
                    members.append(u * b + v)
                    u, v = u + p, v + q
                if len(members) > 1:
                    lines.add(frozenset(members))
    return lines


def _assert_closed_form(config, a, b, workers=1):
    ell, degrees = grid_spectrum(a, b)
    s = spectrum(config, workers=workers)
    assert s.ell == ell
    assert list(s.degrees) == degrees


def test_closed_form_by_hand():
    # grid(3, 3): 3 rows, 3 columns and 2 diagonals of 3 points, and 12
    # lines of 2; a corner lies on 5 lines, an edge midpoint on 6 and the
    # centre on 4
    ell, degrees = grid_spectrum(3, 3)
    assert ell == {2: 12, 3: 8}
    assert degrees == [5, 6, 5, 6, 4, 6, 5, 6, 5]


@pytest.mark.parametrize("a, b", [(2, 2), (2, 7), (3, 5), (6, 6), (9, 4), (13, 17), (24, 30)])
def test_spectrum_of_grids_matches_the_closed_form(a, b):
    _assert_closed_form(grid(a, b), a, b)


@pytest.mark.parametrize("a, b", [(3, 3), (4, 7), (8, 8)])
def test_spanned_lines_of_grids_are_the_closed_form_lines(a, b):
    assert set(spanned_lines(grid(a, b)).values()) == grid_lines(a, b)


def test_grid_above_the_fork_floor_matches_the_closed_form():
    # 2,116 points, counted in two forked stripes
    config = grid(46, 46)
    assert config.n >= projective._FORK_FLOOR
    _assert_closed_form(config, 46, 46, workers=2)


# (x, y, z) -> (x, y, z - y): the row y = 1 goes to infinity, so its rows
# take the exact key and every other row the projective slopes
_ROW_TO_INFINITY = [[1, 0, 0], [0, 1, 0], [0, -1, 1]]
# a translation by more than the affine route's limit on |coordinate|
_BEYOND_AFFINE = [[1, 0, 3 * 2 ** 52], [0, 1, -2 ** 60], [0, 0, 1]]
_GENERIC = [[2, 1, 0], [1, 1, 3], [1, -2, 5]]


@pytest.mark.parametrize("matrix", [_ROW_TO_INFINITY, _BEYOND_AFFINE, _GENERIC],
                         ids=["row-to-infinity", "beyond-affine-limit", "generic"])
@pytest.mark.parametrize("a, b", [(5, 7), (12, 11)])
def test_rational_images_of_grids_match_the_closed_form(matrix, a, b):
    config = apply_projective_map(grid(a, b), matrix)
    if matrix is _ROW_TO_INFINITY:
        assert sum(not p.intvecs[2][0] for p in config.points) == a
    _assert_closed_form(config, a, b)
    if a * b < 40:
        assert set(spanned_lines(config).values()) == grid_lines(a, b)


def test_moved_grid_above_the_fork_floor_matches_the_closed_form():
    config = apply_projective_map(grid(45, 47), _GENERIC)
    assert config.n >= projective._FORK_FLOOR
    _assert_closed_form(config, 45, 47, workers=2)


def _moved_embedding(fld, a, b):
    # grid(a, b) read in fld, then moved by a map with entries outside Q
    g = fld.sqrt_gen() if fld.kind == QUADRATIC else fld.zeta()
    embedded = Configuration(fld, tuple(
        ProjectivePoint([fld.from_rational(x) for (x,) in p.intvecs], fld)
        for p in grid(a, b).points))
    return apply_projective_map(embedded, [[g, 1, 0], [0, g, 1], [1, 0, g + 2]])


@pytest.mark.parametrize("fld", [quadratic_field(2), cyclotomic_field(5)], ids=str)
def test_images_in_extension_fields_match_the_closed_form(fld):
    config = _moved_embedding(fld, 10, 10)
    assert config.field == fld
    _assert_closed_form(config, 10, 10)
    small = _moved_embedding(fld, 4, 5)
    assert set(spanned_lines(small).values()) == grid_lines(4, 5)
