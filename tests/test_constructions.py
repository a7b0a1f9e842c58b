"""Generator families: closed-form spectra, incidence rules, validation."""

import itertools
import math

import pytest

from linespectra.constructions import (
    GENERATORS,
    ConstructionError,
    _over_x_minus_1,
    _vector,
    boroczky,
    expected_spectrum,
    fermat,
    grid,
    near_pencil,
    random_config,
    sylvester_cubic,
    two_lines,
)
from linespectra.fields import _mul_intvec, _powers, cyclotomic_field
from linespectra.projective import Configuration, ProjectivePoint, collinear, spectrum

CLOSED_FORM_CASES = (
    [("fermat", {"m": m}) for m in range(3, 9)]
    + [("boroczky", {"m": m}) for m in range(3, 11)]
    + [("sylvester_cubic", {"k": k}) for k in range(2, 13)]
    + [("two_lines", {"m": m}) for m in range(2, 11)]
    + [("near_pencil", {"n": n}) for n in range(3, 13)]
    # the sizes the check-families benchmark workload runs
    + [("boroczky", {"m": 30}), ("sylvester_cubic", {"k": 20}), ("fermat", {"m": 16})]
)


@pytest.mark.parametrize("name,params", CLOSED_FORM_CASES)
def test_closed_form_matches_computed_spectrum(name, params, get_spectrum):
    expected = expected_spectrum(name, **params)
    assert expected is not None
    s = get_spectrum(name, *params.values())
    assert s.ell == expected


def test_expected_spectrum_unavailable_for_irregular_families():
    assert expected_spectrum("grid", a=3, b=4) is None
    assert expected_spectrum("random", n=10, seed=0) is None


def test_point_counts():
    assert fermat(5).n == 15
    assert boroczky(7).n == 14
    assert sylvester_cubic(6).n == 12
    assert two_lines(9).n == 18
    assert near_pencil(11).n == 11
    assert grid(3, 5).n == 15
    assert random_config(23, seed=1).n == 23


def test_reality_flags():
    assert not fermat(3).is_real()
    assert not fermat(4).is_real()
    assert boroczky(5).is_real()
    assert sylvester_cubic(3).is_real()
    assert two_lines(4).is_real()
    assert near_pencil(6).is_real()
    assert grid(2, 2).is_real()
    assert random_config(8, seed=0).is_real()


def test_boroczky_chord_rule():
    # circle points come first, then the m direction points; the chord
    # through circle points a, b hits infinity at direction a + b (mod m)
    m = 5
    config = boroczky(m)
    circle = config.points[:m]
    directions = config.points[m:]
    for a, b in itertools.combinations(range(m), 2):
        for k in range(m):
            hit = collinear(circle[a], circle[b], directions[k])
            assert hit == ((a + b - k) % m == 0)


def test_boroczky_circle_points_in_general_position():
    config = boroczky(6)
    circle = config.points[:6]
    for a, b, c in itertools.combinations(range(6), 3):
        assert not collinear(circle[a], circle[b], circle[c])


def test_boroczky_directions_share_the_infinity_line():
    config = boroczky(6)
    directions = config.points[6:]
    for a, b, c in itertools.combinations(range(6), 3):
        assert collinear(directions[a], directions[b], directions[c])


def test_boroczky_tangent_direction_degrees(get_spectrum):
    # each circle point lies on m - 1 chords plus one tangent, so its
    # degree is m; each direction point collects its chords plus the
    # infinity line
    m = 6
    s = get_spectrum("boroczky", m)
    assert s.degrees[:m] == (m,) * m


def test_sylvester_group_law():
    k = 4
    m = 2 * k
    pts = sylvester_cubic(k).points
    for i, j, l in itertools.combinations(range(m), 3):
        assert collinear(pts[i], pts[j], pts[l]) == ((i + j + l) % m == 0)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_sylvester_no_four_collinear(k, get_spectrum):
    assert get_spectrum("sylvester_cubic", k).max_collinear == 3


def test_cuspidal_cubic_is_not_a_public_name():
    import linespectra
    import linespectra.constructions

    assert "cuspidal_cubic" not in GENERATORS
    assert not hasattr(linespectra.constructions, "cuspidal_cubic")
    assert "cuspidal_cubic" not in linespectra.__all__
    assert expected_spectrum("cuspidal_cubic", k=3) is None


def test_grid_frozen_spectra(get_spectrum):
    s33 = get_spectrum("grid", 3, 3)
    assert s33.ell == {2: 12, 3: 8}
    assert s33.total_lines == 20
    assert s33.incidences == 48
    s44 = get_spectrum("grid", 4, 4)
    assert s44.ell == {2: 48, 3: 4, 4: 10}
    assert s44.total_lines == 62


def test_near_pencil_shape():
    config = near_pencil(7)
    s = spectrum(config)
    assert s.ell == {2: 6, 6: 1}
    assert s.max_collinear == 6


def test_random_config_is_deterministic():
    a = random_config(20, seed=5)
    b = random_config(20, seed=5)
    assert a.points == b.points
    c = random_config(20, seed=6)
    assert a.points != c.points


def test_random_config_respects_bound():
    config = random_config(12, seed=9, bound=30)
    for point in config.points:
        x, y, z = point.coords
        # canonical scaling divides by the leading coordinate, so recover
        # the affine pair before checking the sampling box
        ax = x.coeffs[0] / z.coeffs[0]
        ay = y.coeffs[0] / z.coeffs[0]
        assert ax.denominator == 1 and ay.denominator == 1
        assert 0 <= ax < 30 and 0 <= ay < 30
    assert len(set(config.points)) == 12


def test_labels_identify_the_family():
    assert "fermat" in fermat(3).label
    assert "boroczky" in boroczky(4).label
    assert "grid" in grid(2, 3).label
    assert "seed=7" in random_config(5, seed=7).label


@pytest.mark.parametrize(
    "call",
    [
        lambda: fermat(2),
        lambda: boroczky(2),
        lambda: sylvester_cubic(1),
        lambda: two_lines(1),
        lambda: near_pencil(2),
        lambda: grid(1, 3),
        lambda: grid(3, 1),
        lambda: random_config(0, seed=0),
        lambda: random_config(10, seed=0, bound=3),
        lambda: random_config(1, seed=0, bound=0),
        lambda: random_config(1, seed=0, bound=-2),
    ],
)
def test_parameter_validation(call):
    with pytest.raises(ConstructionError):
        call()


def test_random_config_fills_a_small_square():
    # [0, bound)^2 holds bound^2 points, so n may exceed bound
    config = random_config(12, seed=4, bound=5)
    assert config.n == 12
    full = random_config(9, seed=1, bound=3)
    assert set(full.points) == set(grid(3, 3).points)


def test_construction_error_is_a_value_error():
    assert issubclass(ConstructionError, ValueError)


def test_registry_covers_every_generator():
    assert set(GENERATORS) == {
        "fermat",
        "boroczky",
        "sylvester_cubic",
        "two_lines",
        "near_pencil",
        "grid",
        "random",
    }
    assert all(callable(g) for g in GENERATORS.values())


@pytest.mark.parametrize("L", [4, 12, 60, 80])
def test_closed_form_inverse_of_a_root_of_unity_minus_one(L):
    # (zeta^e - 1) * sum_{j<M} j zeta^(e j) = M for zeta^e of order M > 1
    field = cyclotomic_field(L)
    one = _powers(L)[0]
    for e in range(1, L):
        M = L // math.gcd(e, L)
        x_minus_1 = tuple(a - b for a, b in zip(_powers(L)[e], one))
        product = _mul_intvec(field, x_minus_1, _vector(L, _over_x_minus_1(M, e, 0, 1)))
        assert product == (M,) + (0,) * (field.degree - 1)


def _reference_cos_sin(field, numerator):
    # (C, S) = (2 cos, 2 sin) of the angle 2*pi*numerator/L by products of
    # power-table rows: C = w + 1/w and S = (w - 1/w) * zeta^(3L/4)
    L = field.N
    rows = _powers(L)
    w, w_inv = rows[numerator % L], rows[-numerator % L]
    diff = tuple(a - b for a, b in zip(w, w_inv))
    return tuple(a + b for a, b in zip(w, w_inv)), _mul_intvec(field, diff, rows[3 * L // 4])


def _reference_config(field, label, triples):
    return Configuration(field, tuple(ProjectivePoint._of_vectors(field, t) for t in triples),
                         label=label)


def _reference_boroczky(m):
    # the circle points (C : S : 2) and the directions (-S : C : 0)
    field = cyclotomic_field(math.lcm(4, 2 * m))
    L, zero = field.N, (0,) * field.degree
    two = (2,) + zero[1:]
    circle = [_reference_cos_sin(field, j * (L // m)) for j in range(m)]
    directions = [_reference_cos_sin(field, k * (L // (2 * m))) for k in range(m)]
    return _reference_config(field, f"boroczky(m={m})",
                             [(c, s, two) for c, s in circle]
                             + [(tuple(-x for x in s), c, zero) for c, s in directions])


def _reference_sylvester_cubic(k):
    # P_0 = (0 : 1 : 0) and P_j = (4S : -4C : S^3)
    m = 2 * k
    field = cyclotomic_field(math.lcm(4, 2 * m))
    L, zero = field.N, (0,) * field.degree
    triples = [(zero, (1,) + zero[1:], zero)]
    for j in range(1, m):
        c, s = _reference_cos_sin(field, j * (L // (2 * m)))
        cube = _mul_intvec(field, _mul_intvec(field, s, s), s)
        triples.append((tuple(4 * x for x in s), tuple(-4 * x for x in c), cube))
    return _reference_config(field, f"sylvester_cubic(k={k})", triples)


# m = 3..40 takes cos = 0 (4 | m) and rational cos (3 | m, 6 | m) at some
# circle point; every cubic has a rational cos at j = m/2
@pytest.mark.parametrize("m", range(3, 41))
def test_boroczky_matches_the_cos_sin_construction(m):
    assert boroczky(m) == _reference_boroczky(m)


@pytest.mark.parametrize("k", range(2, 31))
def test_sylvester_cubic_matches_the_cos_sin_construction(k):
    assert sylvester_cubic(k) == _reference_sylvester_cubic(k)
