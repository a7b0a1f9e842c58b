"""Exact projective primitives and the line spectrum machinery."""

import itertools
import math
import operator
import os
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linespectra.constructions import (
    boroczky,
    fermat,
    grid,
    near_pencil,
    random_config,
    sylvester_cubic,
)
from linespectra import projective
from linespectra.fields import (
    QUADRATIC,
    _is_prime,
    _nth_root_mod,
    cyclotomic_field,
    quadratic_field,
    rational_field,
)
from linespectra.projective import (
    Configuration,
    DuplicatePointError,
    FieldMismatchError,
    GeometryError,
    LineKey,
    ProjectivePoint,
    apply_projective_map,
    collinear,
    line_through,
    matrix_determinant,
    oracle_spanned_lines,
    spanned_lines,
    spectrum,
    spectrum_from_lines,
)

Q = rational_field()
Q2 = quadratic_field(2)
Qm3 = quadratic_field(-3)
Z2 = cyclotomic_field(2)
Z5 = cyclotomic_field(5)


def pt(*coords):
    return ProjectivePoint(coords, Q)


def cfg(*triples):
    return Configuration(Q, tuple(pt(*t) for t in triples))


# --- point canonicalization ---


def test_first_nonzero_coordinate_scaled_to_one():
    assert pt(2, 4, 6).coords == (1, 2, 3)
    assert pt(0, -3, 6).coords == (0, 1, -2)
    assert pt(Fraction(1, 2), 0, Fraction(3, 4)).coords == (1, 0, Fraction(3, 2))
    assert pt(0, 0, -7).coords == (0, 0, 1)


def test_scalar_multiples_are_the_same_point():
    assert pt(2, 4, 6) == pt(1, 2, 3)
    assert hash(pt(2, 4, 6)) == hash(pt(1, 2, 3))
    assert pt(0, -1, -2) == pt(0, 5, 10)
    assert pt(1, 2, 3) != pt(1, 2, 4)
    # scalars outside Q: the canonical form multiplies by the adjugate of the
    # first nonzero coordinate, whose norm may be negative
    for fld in (Q2, quadratic_field(-3), cyclotomic_field(12)):
        g, one, zero = _gen(fld), fld.one(), fld.zero()
        triples = [
            (g, one, zero),
            (zero, g * 3 - 1, fld.from_rational(Fraction(2, 3))),
            (one, g, g * g + 1),
            (g + 1, g - 2, one),
        ]
        scalars = [g, -g, g + 1, (g + 1) * (g - 2) / 5]
        for triple, other in zip(triples, triples[1:]):
            p, q = ProjectivePoint(triple, fld), ProjectivePoint(other, fld)
            for s in scalars:
                sp = ProjectivePoint([s * c for c in triple], fld)
                sq = ProjectivePoint([s * s * c for c in other], fld)
                assert sp == p and hash(sp) == hash(p) and sp.coords == p.coords
                assert sq == q and hash(sq) == hash(q) and sq.coords == q.coords
                assert line_through(sp, sq) == line_through(p, q)
                assert line_through(sp, sq).coords == line_through(p, q).coords
    # 1 + sqrt 2 has norm -1: its adjugate flips the sign, and the canonical
    # form flips it back so the first nonzero entry is positive
    g = Q2.sqrt_gen()
    p = ProjectivePoint((g + 1, Q2.one(), Q2.zero()), Q2)
    assert p.intvecs == ((1, 0), (-1, 1), (0, 0))
    assert p.coords == (Q2.one(), g - 1, Q2.zero())
    assert p == ProjectivePoint((-g - 1, -Q2.one(), Q2.zero()), Q2)


def test_zero_triple_rejected():
    with pytest.raises(GeometryError):
        pt(0, 0, 0)


# --- collinearity and joins ---


def test_collinear_basic_examples():
    assert not collinear(pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 1))
    assert collinear(pt(0, 0, 1), pt(1, 0, 1), pt(2, 0, 1))


def test_collinear_cross_triples_cyclotomic():
    # one point on each coordinate axis side; the join closes up exactly
    # when the three exponents cancel mod the field order
    F = cyclotomic_field(4)
    w = F.zeta()
    for a, b, c in itertools.product(range(4), repeat=3):
        p = ProjectivePoint((F.one(), -(w ** a), F.zero()), F)
        q = ProjectivePoint((F.zero(), F.one(), -(w ** b)), F)
        r = ProjectivePoint((-(w ** c), F.zero(), F.one()), F)
        assert collinear(p, q, r) == ((a + b + c) % 4 == 0)


@pytest.mark.parametrize("fld", [Q, Q2, Qm3, Z5, cyclotomic_field(12)], ids=str)
def test_collinear_is_a_vanishing_determinant(fld):
    # seeded triples, triples with a repeated point and triples drawn from
    # one line: collinear is exactly det(coords) == 0
    rng = random.Random(12)

    def element():
        return fld.element([rng.choice([0, 0, 1, -1, 2, rng.randint(-50, 50)])
                            for _ in range(fld.degree)])

    def point():
        while True:
            coords = [element() for _ in range(3)]
            if any(coords):
                return ProjectivePoint(coords, fld)

    triples = []
    for _ in range(40):
        p, q = point(), point()
        triples += [(p, q, point()), (p, q, p), (q, q, p), (p, p, p)]
        if p != q:
            alpha, beta = element(), element()
            w = [alpha * a + beta * b for a, b in zip(p.coords, q.coords)]
            if any(w):
                triples.append((p, q, ProjectivePoint(w, fld)))
    hits = 0
    for p, q, r in triples:
        det = matrix_determinant([p.coords, q.coords, r.coords])
        assert collinear(p, q, r) == det.is_zero(), (p, q, r)
        hits += det.is_zero()
    assert 0 < hits < len(triples)


def test_line_through_examples():
    assert line_through(pt(0, 0, 1), pt(1, 0, 1)).coords == (0, 1, 0)
    assert line_through(pt(1, 0, 1), pt(0, 1, 1)).coords == (1, 1, -1)


def test_line_through_is_symmetric():
    a, b = pt(3, 1, 4), pt(1, 5, 9)
    assert line_through(a, b) == line_through(b, a)


def test_line_through_identical_points_rejected():
    with pytest.raises(GeometryError):
        line_through(pt(1, 2, 3), pt(2, 4, 6))


def test_join_passes_through_both_points():
    rng = random.Random(7)
    for _ in range(25):
        a = pt(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        b = pt(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9) + 10)
        if a == b:
            continue
        line = line_through(a, b)
        for point in (a, b):
            dot = sum((u * v for u, v in zip(line.coords, point.coords)), Q.zero())
            assert not dot


def test_line_key_is_not_a_point():
    key = line_through(pt(0, 0, 1), pt(1, 0, 1))
    same_coords = pt(0, 1, 0)
    assert key != same_coords
    assert same_coords != key


def test_mixed_fields_rejected():
    F = cyclotomic_field(4)
    foreign = ProjectivePoint((F.one(), F.zero(), F.one()), F)
    with pytest.raises(FieldMismatchError):
        collinear(pt(1, 0, 1), pt(0, 1, 1), foreign)
    with pytest.raises(FieldMismatchError):
        Configuration(Q, (pt(0, 0, 1), foreign))


# --- spanned lines ---


def test_spanned_lines_triangle():
    lines = spanned_lines(cfg((0, 0, 1), (1, 0, 1), (0, 1, 1)))
    assert len(lines) == 3
    assert sorted(sorted(v) for v in lines.values()) == [[0, 1], [0, 2], [1, 2]]


def test_spanned_lines_all_collinear():
    lines = spanned_lines(cfg((0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1)))
    assert len(lines) == 1
    (members,) = lines.values()
    assert members == frozenset(range(5))


def test_spanned_lines_two_points():
    lines = spanned_lines(cfg((0, 0, 1), (1, 1, 1)))
    assert len(lines) == 1


def test_spanned_lines_matches_oracle_on_random_configs():
    for seed in range(30):
        config = random_config(4 + seed % 22, seed=seed)
        assert spanned_lines(config) == oracle_spanned_lines(config)


def test_counting_identities():
    configs = [
        grid(3, 3),
        fermat(4),
        near_pencil(8),
        random_config(15, seed=3),
        random_config(20, seed=11),
    ]
    for config in configs:
        s = spectrum(config)
        n = s.n
        assert sum(s.ell.values()) == s.total_lines
        assert sum(i * c for i, c in s.ell.items()) == s.incidences
        assert sum(comb(i, 2) * c for i, c in s.ell.items()) == comb(n, 2)
        assert sum(s.degrees) == s.incidences
        assert s.max_collinear == max(s.ell)
        assert all(d >= 1 for d in s.degrees)


def test_near_pencil_spectrum():
    s = spectrum(near_pencil(5))
    assert s.ell == {2: 4, 4: 1}
    assert s.total_lines == 5
    assert s.incidences == 12


def test_grid_3x3_spectrum():
    s = spectrum(grid(3, 3))
    assert s.ell == {2: 12, 3: 8}
    assert s.total_lines == 20
    assert s.incidences == 48
    assert s.max_collinear == 3


def test_large_rational_config_agrees_with_line_dictionary():
    # spanned_lines derives its lines from the same kernel rows, so this is
    # no check between independent routes: at a size where every row is
    # large, _fold_rows must count the rows exactly like the lines read off
    # them (the oracle checks both routes below)
    config = random_config(650, seed=0)
    by_lines = spectrum_from_lines(config.n, spanned_lines(config))
    assert spectrum(config) == by_lines


# --- the row fold against the oracle ---


def _gen(fld):
    # the field's generator; over Q a non-integer rational stands in for it
    if fld.kind == "quadratic":
        return fld.sqrt_gen()
    if fld.kind == "cyclotomic":
        return fld.zeta()
    return fld.from_rational(Fraction(1, 3))


def _two_points(fld):
    g = _gen(fld)
    return Configuration(fld, (ProjectivePoint((g, fld.one(), fld.one()), fld),
                               ProjectivePoint((fld.one(), g, fld.zero()), fld)))


def _all_collinear(fld, n):
    # the points (t, g t + 1, 1) for t = 0, 1, ..., n - 1 all lie on y = g x + 1
    g = _gen(fld)
    return Configuration(fld, tuple(
        ProjectivePoint((fld.from_rational(t), g * t + 1, fld.one()), fld)
        for t in range(n)))


def _near_pencil(fld, n):
    # n - 1 points on y = g x + 1 plus one point off it
    return Configuration(fld, _all_collinear(fld, n - 1).points
                         + (ProjectivePoint((fld.one(), fld.zero(), fld.one()), fld),))


def _embed(fld, config):
    # the same rational coordinates, read as elements of fld
    return Configuration(fld, tuple(
        ProjectivePoint([fld.from_rational(c.coeffs[0]) for c in p.coords], fld)
        for p in config.points))


def _moved_grid(fld, a, b):
    # a rational grid embedded in fld and moved by a map with entries outside Q
    g = _gen(fld)
    embedded = _embed(fld, grid(a, b))
    return apply_projective_map(embedded, [[g, 1, 0], [0, g, 1], [1, 0, g + 2]])


def _at_infinity():
    # a grid with the points at infinity of its rows, columns and diagonals,
    # and a point whose slope from (0, 0, 1) is too large for a double
    return Configuration(Q, grid(3, 3).points + tuple(pt(*t) for t in (
        (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (3, 1, 0), (1, 2**1100, 1))))


def _double_collision():
    # affine rows see the 40 points at infinity at slopes 2**55 + k, which
    # round to a few doubles: distinct exact lines share a key
    return cfg(*[(2**60 + k, 2**60 + k + k * k % 7, 1) for k in range(40)],
               *[(1, 2**55 + k, 0) for k in range(40)])


# the largest L with L (2 L + 2) < 2**52: the affine route's bound on
# |coordinate|, see projective._slope_screen
AFFINE_MAX = 47453132


def _projective_collision():
    # the slopes from (0, 0) of the next two points, 1 + 2**-51 and
    # 1 + 1/(2**51 + 1), round to one double: a projective row fails
    # certification.  The last point canonicalises to z = -1.
    return cfg((0, 0, 1), (2**51, 2**51 + 1, 1), (2**51 + 1, 2**51 + 2, 1),
               (-2**51, -2**51 - 1, 1))


def _affine_collision():
    # with t = 2 * AFFINE_MAX + 1, the sheared slopes from (0, 0) of the
    # next two points, 1048577 / (3 + 1048577 t) and 349526 / (1 + 349526 t),
    # round to one double: an affine row fails certification
    return cfg((0, 0, 1), (3, 1048577, 1), (1, 349526, 1), (AFFINE_MAX, 0, 1))


def _near_affine_limit(m):
    # a grid and far points on its lines, with coordinates up to m: the
    # affine slope keys take m = AFFINE_MAX and leave m = AFFINE_MAX + 1 alone
    return Configuration(Q, grid(3, 3).points + tuple(pt(*t) for t in (
        (m, m, 1), (-m, 0, 1), (0, -m, 1), (m, m - 1, 1), (1 - m, 2 - m, 1))))


ORACLE_CASES = {
    "Q-one-point": lambda: cfg((1, 2, 3)),
    "Q-two-points": lambda: cfg((0, 0, 1), (1, 1, 1)),
    "Q-all-collinear": lambda: cfg(*((t, 2 * t - 1, 1) for t in range(7))),
    "Q-near-pencil": lambda: near_pencil(9),
    "Q-grid": lambda: grid(4, 5),
    "Q-random": lambda: random_config(30, seed=5),
    "Q-at-infinity": _at_infinity,
    "Q-double-collision": _double_collision,
    "Q-affine-collision": _affine_collision,
    "Q-projective-collision": _projective_collision,
    "Q-affine-below-limit": lambda: _near_affine_limit(AFFINE_MAX),
    "Q-affine-at-limit": lambda: _near_affine_limit(AFFINE_MAX + 1),
    "Q2-two-points": lambda: _two_points(Q2),
    "Q2-all-collinear": lambda: _all_collinear(Q2, 6),
    "Q2-near-pencil": lambda: _near_pencil(Q2, 7),
    "Q2-moved-grid": lambda: _moved_grid(Q2, 3, 4),
    "Q2-embedded-grid": lambda: _embed(Q2, grid(4, 5)),
    "Qm3-moved-grid": lambda: _moved_grid(Qm3, 3, 4),
    "Z2-moved-grid": lambda: _moved_grid(Z2, 3, 4),
    "Z5-two-points": lambda: _two_points(Z5),
    "Z5-all-collinear": lambda: _all_collinear(Z5, 5),
    "Z5-near-pencil": lambda: _near_pencil(Z5, 6),
    "Z5-moved-grid": lambda: _moved_grid(Z5, 3, 3),
    "fermat": lambda: fermat(4),
    "boroczky": lambda: boroczky(6),
    "sylvester-cubic": lambda: sylvester_cubic(4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_spectrum_matches_oracle_lines(name):
    # spanned_lines gives the oracle's lines in the oracle's key order
    config = ORACLE_CASES[name]()
    lines = oracle_spanned_lines(config)
    assert spectrum(config) == spectrum_from_lines(config.n, lines)
    assert list(spanned_lines(config).items()) == list(lines.items())


# --- forked stripes ---


def _counting_forks(monkeypatch):
    # os.fork, counted in the calling process
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_stripes_match_the_serial_spectrum(monkeypatch, name):
    # with no size floor every case, exact fallbacks, failed certificates
    # and extension fields included, is counted in forked stripes
    config = ORACLE_CASES[name]()
    serial = spectrum(config)
    forks = _counting_forks(monkeypatch)
    monkeypatch.setattr(projective, "_FORK_FLOOR", 0)
    for workers in (1, 2, 3):
        assert spectrum(config, workers=workers) == serial, workers
    assert len(forks) == 3
    _assert_no_worker_left()


@pytest.mark.parametrize("config", [random_config(2200, seed=0), grid(47, 47)],
                         ids=["random-2200", "grid-47x47"])
def test_stripes_above_the_floor_match_the_serial_spectrum(monkeypatch, config):
    # the grid's rich lines put the groups of one line in several stripes
    assert config.n >= projective._FORK_FLOOR
    serial = spectrum(config)
    forks = _counting_forks(monkeypatch)
    for workers in (2, 3):
        assert spectrum(config, workers=workers) == serial, workers
    assert len(forks) == 3
    _assert_no_worker_left()


def test_the_caller_counts_the_stripes_it_could_not_fork(monkeypatch):
    # os.fork fails on its second call (workers = 3) or on every call
    config = grid(6, 7)
    serial = spectrum(config)
    monkeypatch.setattr(projective, "_FORK_FLOOR", 0)
    fork = os.fork
    for workers, allowed in ((3, 1), (2, 0)):
        forks = []

        def failing_fork():
            forks.append(1)
            if len(forks) > allowed:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        assert spectrum(config, workers=workers) == serial, workers
        assert len(forks) == allowed + 1
        _assert_no_worker_left()


def test_below_the_floor_the_caller_counts_every_row(monkeypatch):
    # every check-families benchmark input has n <= 400 and stays serial
    config = random_config(400, seed=1)
    serial = spectrum(config)
    forks = _counting_forks(monkeypatch)
    assert spectrum(config, workers=2) == serial
    assert forks == []


def _failing_stripe(monkeypatch, start):
    # no size floor, and the stripe that starts at row `start` raises
    kernel = projective._screened_rows

    def screened_rows(items, exact_key, screen, stripe):
        if stripe.start == start:
            raise KeyError(f"stripe {start}")
        return kernel(items, exact_key, screen, stripe)

    monkeypatch.setattr(projective, "_FORK_FLOOR", 0)
    monkeypatch.setattr(projective, "_screened_rows", screened_rows)


def test_a_raise_in_the_callers_stripe_propagates_and_kills_the_workers(monkeypatch):
    _failing_stripe(monkeypatch, 0)
    with pytest.raises(KeyError, match="stripe 0"):
        spectrum(grid(4, 4), workers=3)
    _assert_no_worker_left()


def test_a_failed_worker_raises_internal_error(monkeypatch):
    _failing_stripe(monkeypatch, 2)
    with pytest.raises(projective.InternalError, match="counting worker failed"):
        spectrum(grid(4, 4), workers=3)
    _assert_no_worker_left()


def test_the_library_default_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    config = random_config(projective._FORK_FLOOR + 100, seed=4)
    monkeypatch.setattr(os, "fork", no_fork)
    serial = spectrum(config)
    assert serial.n == config.n
    # nor does any worker count where the platform has no fork
    monkeypatch.delattr(os, "fork")
    assert spectrum(config, workers=2) == serial


def _tiny_screen(fld):
    # the smallest screen each non-rational oracle field admits
    if fld.kind == QUADRATIC:
        # 3 * 3 = 2 and 2 * 2 = -3 (mod 7)
        return 7, {2: (1, 3), -3: (1, 2)}[fld.d]
    N = fld.N
    p = next(p for p in itertools.count(N + 1, N) if _is_prime(p) and _nth_root_mod(N, p))
    root = _nth_root_mod(N, p)
    return p, tuple(pow(root, k, p) for k in range(fld.degree))


def _assert_oracle_with_fallbacks(monkeypatch, names, exact_key, on_line):
    # spectrum and spanned_lines agree with the oracle on every named case,
    # and over all of them spectrum runs the exact key `exact_key` and sees
    # the check `on_line` fail at least once.  Only spectrum is counted:
    # spanned_lines runs the exact key once per line anyway.
    exact_keys, failed_groups = 0, 0
    exact, check = getattr(projective, exact_key), getattr(projective, on_line)

    def counting_exact(*args):
        nonlocal exact_keys
        exact_keys += 1
        return exact(*args)

    def counting_check(*args):
        nonlocal failed_groups
        result = check(*args)
        failed_groups += not result
        return result

    for name in names:
        config = ORACLE_CASES[name]()
        lines = oracle_spanned_lines(config)
        with monkeypatch.context() as m:
            m.setattr(projective, exact_key, counting_exact)
            m.setattr(projective, on_line, counting_check)
            assert spectrum(config) == spectrum_from_lines(config.n, lines), name
        assert list(spanned_lines(config).items()) == list(lines.items()), name
    assert exact_keys > 0
    assert failed_groups > 0


def test_spectrum_over_tiny_screen_matches_oracle_lines(monkeypatch):
    # with p in 3..17 the fallback rows that no benchmark input reaches run:
    # the moved grids have pairs with a zero image, and the embedded grid has
    # rows with more lines than the 8 through a point of P^2(GF(7)).  Screen
    # collisions fail the certificate on evaluations, _on_line_mod, which
    # is what the kernel runs over these fields in place of _on_line
    monkeypatch.setattr(projective, "_screen", _tiny_screen)
    names = [name for name in sorted(ORACLE_CASES) if not name.startswith("Q-")]
    _assert_oracle_with_fallbacks(monkeypatch, names, "_canonical", "_on_line_mod")


def test_oracle_and_kernel_keep_separate_incidence_tests(monkeypatch):
    # the oracle and collinear decide membership by exact incidence,
    # _on_line, and never reach the kernel's GF(p) screen, evaluations or
    # certificate; the kernel over every field never calls _on_line
    def forbidden(*args):
        raise AssertionError("called across the oracle boundary")

    rng = random.Random(15)
    for name in sorted(ORACLE_CASES):
        config = ORACLE_CASES[name]()
        with monkeypatch.context() as m:
            for kernel_only in ("_screen", "_evaluation", "_on_line_mod"):
                m.setattr(projective, kernel_only, forbidden)
            lines = oracle_spanned_lines(config)
            for _ in range(10):
                idx = [rng.randrange(config.n) for _ in range(3)]
                on_one_line = len(set(idx)) < 3 or any(set(idx) <= line for line in lines.values())
                p, q, r = (config.points[k] for k in idx)
                assert collinear(p, q, r) == on_one_line, (name, idx)
        with monkeypatch.context() as m:
            m.setattr(projective, "_on_line", forbidden)
            assert spectrum(config) == spectrum_from_lines(config.n, lines), name
            assert list(spanned_lines(config).items()) == list(lines.items()), name


def _pairwise_keys(images, i, prime, branches):
    # row i keyed pair by pair, one pow per pair, counting each branch
    keys = []
    a = images[i]
    for b in images[i + 1:]:
        x = (a[1] * b[2] - a[2] * b[1]) % prime
        y = (a[2] * b[0] - a[0] * b[2]) % prime
        z = (a[0] * b[1] - a[1] * b[0]) % prime
        if x:
            branches["x"] += 1
            inv = pow(x, -1, prime)
            keys.append((1, y * inv % prime, z * inv % prime))
        elif y:
            branches["y"] += 1
            keys.append((0, 1, z * pow(y, -1, prime) % prime))
        elif z:
            branches["z"] += 1
            keys.append((0, 0, 1))
        else:
            branches["none"] += 1
            return None
    return keys


@pytest.mark.parametrize("tiny", [False, True])
def test_batched_row_keys_match_pairwise_inverses(monkeypatch, tiny):
    # one inverse per row gives each pair the key of its own pow; the tiny
    # screens reach pairs with x = 0, with x = y = 0, and rows with None
    if tiny:
        monkeypatch.setattr(projective, "_screen", _tiny_screen)
    branches = Counter()
    for name in sorted(ORACLE_CASES):
        if name.startswith("Q-"):
            continue
        config = ORACLE_CASES[name]()
        row_keys, _, _ = projective._image_screen(config)
        prime, residues = projective._screen(config.field)
        images = [tuple(sum(map(operator.mul, v, residues)) % prime for v in p.intvecs)
                  for p in config.points]
        for i in range(config.n - 1):
            assert row_keys(i) == _pairwise_keys(images, i, prime, branches), (name, i)
    assert branches["x"] > 0
    if tiny:
        assert branches["y"] > 0 and branches["z"] > 0 and branches["none"] > 0


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_CASES if not n.startswith("Q-")))
def test_extension_rows_take_one_inverse_and_no_field_product(monkeypatch, name):
    # over Q(sqrt d) and Q(zeta_N) each row inverts once, and certificates
    # run on evaluations: spectrum builds no field product
    calls = Counter()

    def counting_pow(base, exp, mod=None):
        calls["inverse"] += exp == -1
        return pow(base, exp, mod)

    def counting(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    config = ORACLE_CASES[name]()
    lines = oracle_spanned_lines(config)
    monkeypatch.setattr(projective, "pow", counting_pow, raising=False)
    for spied in ("_mul_intvec", "_on_line_mod"):
        monkeypatch.setattr(projective, spied, counting(spied, getattr(projective, spied)))
    assert spectrum(config) == spectrum_from_lines(config.n, lines)
    assert calls["_mul_intvec"] == 0
    assert 0 < calls["inverse"] <= config.n - 1
    if max(map(len, lines.values())) > 2:
        assert calls["_on_line_mod"] > 0


CERTIFICATE_FIELDS = ([cyclotomic_field(N) for N in (1, 2, 3, 4, 5, 8, 12, 15, 60, 80)]
                      + [quadratic_field(d) for d in (-3, -1, 2, 5)])


def _norm_bound(fld, vec):
    # the bound ||c|| on |sigma(c)| over every embedding sigma
    if fld.kind == QUADRATIC:
        return abs(vec[0]) + abs(vec[1]) * (math.isqrt(abs(fld.d)) + 1)
    return sum(map(abs, vec))


def _det_bound(fld, triples):
    # over Q a bound on |det|, each of its six terms taking one entry per
    # column; elsewhere a bound on |N(det)|
    if fld == Q:
        return 6 * math.prod(max(abs(t[k][0]) for t in triples) for k in range(3))
    return (6 * max(_norm_bound(fld, vec) for t in triples for vec in t) ** 3) ** fld.degree


@settings(deadline=None, max_examples=160)
@given(fld=st.just(Q) | st.sampled_from(CERTIFICATE_FIELDS), collinear_third=st.booleans(),
       data=st.data())
def test_certificate_agrees_with_exact_incidence(fld, collinear_third, data):
    # the kernel's certificate of the third point on the line through the
    # first two, on the screen's triples and modulus, is _on_line(_cross),
    # on random triples and on w = alpha u + beta v.  Over Q, affine points
    # with coordinates at +-AFFINE_MAX keep the affine route, and
    # coordinates at +-2**60 take the projective one
    affine = fld == Q and data.draw(st.booleans())
    coeff = st.integers(-3, 3) | st.integers(-2**12, 2**12)
    if fld == Q:
        coeff |= st.sampled_from([AFFINE_MAX, -AFFINE_MAX] if affine else [2**60, -2**60])

    def element():
        return fld.element(data.draw(st.lists(coeff, min_size=fld.degree,
                                              max_size=fld.degree)))

    def triple():
        return [element(), element(), 1 if affine else element()]

    u, v = triple(), triple()
    if collinear_third:
        if affine:  # the midpoint keeps |x|, |y| <= AFFINE_MAX
            alpha = beta = Fraction(1, 2)
        else:
            alpha, beta = element(), element()
        w = [alpha * a + beta * b for a, b in zip(u, v)]
    else:
        w = triple()
    assume(all(any(t) for t in (u, v, w)))
    points = [ProjectivePoint(t, fld) for t in (u, v, w)]
    assume(len(set(points)) == 3)
    _, _, (_, triples, modulus) = projective._keyed_items(Configuration(fld, tuple(points)))
    pu, pv, pw = (p.intvecs for p in points)
    assert modulus > _det_bound(fld, [pu, pv, pw])
    if fld == Q:
        bound = max(abs(c) for p in (pu, pv, pw) for (c,) in p)
        on_affine_route = (bound * (2 * bound + 2) < 2**52
                           and all(z in (1, -1) for _, _, (z,) in (pu, pv, pw)))
        assert (modulus == 6 * 2**104) == on_affine_route
    exact = projective._on_line(fld, pw, projective._cross(fld, pu, pv))
    line = projective._scalar_cross(triples[0], triples[1])
    assert projective._on_line_mod(triples[2], line, modulus) == exact
    if collinear_third:
        assert exact


def test_spectrum_over_q_slope_screen_matches_oracle_lines(monkeypatch):
    # rows of points at infinity and of a slope too large for a double take
    # the exact key, and slopes 2**55 + k that round to one double fail
    # certification
    names = [name for name in sorted(ORACLE_CASES) if name.startswith("Q-")]
    _assert_oracle_with_fallbacks(monkeypatch, names, "_primitive_cross", "_on_line_mod")


def test_slope_screen_keys_affine_inputs_by_affine_slopes(monkeypatch):
    # inputs with z = +-1 and coordinates up to AFFINE_MAX are keyed by the
    # affine formula, all others by the projective one; on either route a
    # row of slopes that round to one double falls back to the exact key
    calls = Counter()
    for name in ("_affine_slopes", "_projective_slopes", "_primitive_cross"):
        def counting(*args, name=name, original=getattr(projective, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(projective, name, counting)
    formulas = {
        "Q-affine-collision": "_affine_slopes",
        "Q-affine-below-limit": "_affine_slopes",
        "Q-random": "_affine_slopes",
        "Q-affine-at-limit": "_projective_slopes",
        "Q-at-infinity": "_projective_slopes",
        "Q-projective-collision": "_projective_slopes",
    }
    for name, formula in formulas.items():
        calls.clear()
        config = ORACLE_CASES[name]()
        assert spectrum(config) == spectrum_from_lines(config.n, oracle_spanned_lines(config))
        assert calls[formula] == config.n - 1, name
        assert set(calls) <= {formula, "_primitive_cross"}, name
        if name.endswith("-collision"):
            assert calls["_primitive_cross"] == config.n - 1, name


@settings(deadline=None, max_examples=100)
@given(bases=st.lists(st.integers(0, 3) | st.integers(AFFINE_MAX - 2, AFFINE_MAX),
                      min_size=1, max_size=2, unique=True), data=st.data())
def test_sheared_affine_keys_are_finite_and_never_split_a_line(bases, data):
    # points drawn from the coordinates +-b and +-(b - 1) share an x or a y,
    # so the unsheared chart has vertical pairs, and they include x = +-L
    # with y one apart, the pairs the shear comes nearest to making
    # vertical; in the sheared chart every key is a finite double, and
    # later points on one exact line through point i share a key
    coord = st.sampled_from(sorted({c for b in bases for c in (b, -b, b - 1, 1 - b)}))
    triples = data.draw(st.lists(st.tuples(coord, coord, st.sampled_from([1, -1])),
                                 min_size=2, max_size=12))
    points = list(dict.fromkeys(pt(x * z, y * z, z) for x, y, z in triples))
    assume(len(points) >= 2)
    items = [tuple(c for (c,) in p.intvecs) for p in points]
    row_keys, _, _ = projective._slope_screen(items)
    assert row_keys.func is projective._affine_slopes
    for i in range(len(items) - 1):
        keys = row_keys(i)
        assert all(map(math.isfinite, keys)), (items, i)
        for j, k in itertools.combinations(range(i + 1, len(items)), 2):
            line = tuple((c,) for c in projective._scalar_cross(items[i], items[j]))
            if projective._on_line(Q, points[k].intvecs, line):
                assert keys[j - i - 1] == keys[k - i - 1], (items, i, j, k)


def test_affine_keys_spread_over_a_sets_slots():
    # CPython hashes a float by its value mod 2**61 - 1, and a set slot is
    # the hash's low bits.  Row keys must fill at least 0.8 as many slots of
    # a 4096-slot table as they have distinct values; unsheared slopes, whose
    # low hash bits are their integer part, fill 0.17-0.20
    config = random_config(1000, seed=0)
    row_keys, _, _ = projective._slope_screen([tuple(c for (c,) in p.intvecs)
                                               for p in config.points])
    for i in range(50):
        distinct = set(row_keys(i))
        assert len({hash(key) & 4095 for key in distinct}) >= 0.8 * len(distinct), i


@settings(deadline=None, max_examples=40)
@given(
    fld=st.sampled_from([Q, Q2, Z5]),
    coords=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 3)),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    data=st.data(),
)
def test_permuting_points_permutes_degrees(fld, coords, data):
    # (x, y) = (a + b g, c): the b = 1 points make the extension-field
    # lines, the b = 0 points a small rational grid
    g = _gen(fld)
    points = tuple(
        ProjectivePoint((g * b + a, fld.from_rational(c), fld.one()), fld)
        for a, b, c in coords
    )
    perm = data.draw(st.permutations(range(len(points))))
    base = spectrum(Configuration(fld, points))
    moved = spectrum(Configuration(fld, tuple(points[k] for k in perm)))
    assert moved.ell == base.ell
    assert moved.degrees == tuple(base.degrees[k] for k in perm)


_COORD = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda k: k + 2**53))


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(_COORD, _COORD, st.integers(0, 2)).filter(any),
    min_size=2,
    max_size=10,
    unique_by=lambda t: pt(*t),
))
def test_embedding_into_extension_fields_keeps_spectrum(coords):
    # over Q rows are keyed by float slopes, elsewhere mod p; z = 0 points
    # and coordinates above 2**53, where slopes collide as doubles, send Q
    # rows to the exact key
    config = Configuration(Q, tuple(pt(*c) for c in coords))
    base = spectrum(config)
    for fld in (Q2, quadratic_field(-3), Z5, cyclotomic_field(12)):
        assert spectrum(_embed(fld, config)) == base


@settings(deadline=None, max_examples=40)
@given(
    fld=st.sampled_from([Q2, Z5]),
    coords=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 2)),
        min_size=2,
        max_size=10,
        unique_by=lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])),
    ),
    entries=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                     min_size=9, max_size=9),
)
def test_projective_maps_with_non_rational_entries_keep_spectrum(fld, coords, entries):
    # entry a + b g: the images of the embedded rational points, and the
    # lines through them, have first coordinates outside Q
    assume(any(b for _, b in entries))
    g = _gen(fld)
    matrix = [[g * b + a for a, b in entries[3 * r:3 * r + 3]] for r in range(3)]
    assume(not matrix_determinant(matrix).is_zero())
    config = Configuration(Q, tuple(pt(*c) for c in coords))
    assert spectrum(apply_projective_map(_embed(fld, config), matrix)) == spectrum(config)


def test_spectrum_from_lines_rebuilds_spectrum():
    config = grid(4, 5)
    s = spectrum(config)
    assert spectrum_from_lines(config.n, spanned_lines(config)) == s


def test_single_point_spectrum():
    s = spectrum(Configuration(Q, (pt(1, 2, 3),)))
    assert s.n == 1
    assert s.ell == {}
    assert s.total_lines == 0
    assert s.incidences == 0
    assert s.max_collinear == 1
    assert s.degrees == (0,)


# --- projective maps ---


def test_projective_map_preserves_spectrum():
    config = grid(3, 4)
    matrix = [[1, 2, 0], [0, 1, 3], [1, 0, 1]]
    assert matrix_determinant(matrix) != 0
    mapped = apply_projective_map(config, matrix)
    assert spectrum(mapped) == spectrum(config)


def test_projective_map_rejects_singular_matrix():
    config = cfg((0, 0, 1), (1, 0, 1), (0, 1, 1))
    with pytest.raises(GeometryError):
        apply_projective_map(config, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_projective_map_rejects_bad_shape():
    config = cfg((0, 0, 1), (1, 0, 1))
    with pytest.raises(GeometryError):
        apply_projective_map(config, [[1, 0], [0, 1]])


def test_matrix_determinant_values():
    assert matrix_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 1]]) == 6
    assert matrix_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


# --- configuration validation ---


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePointError):
        Configuration(Q, (pt(0, 0, 1), pt(0, 0, 2)))
    assert issubclass(DuplicatePointError, GeometryError)


def test_configuration_is_real_matches_its_coordinates():
    Qm3, Z8 = quadratic_field(-3), cyclotomic_field(8)
    z = Z8.zeta()
    sqrt2 = z + z ** 7
    cases = [
        (grid(3, 3), True),
        (_two_points(Q2), True),
        (_moved_grid(Q2, 2, 3), True),
        (_embed(Qm3, grid(2, 3)), True),
        (_two_points(Qm3), False),
        (_embed(Z8, grid(2, 3)), True),
        (Configuration(Z8, (ProjectivePoint((sqrt2, Z8.one(), Z8.zero()), Z8),
                            ProjectivePoint((Z8.one(), sqrt2, Z8.one()), Z8))), True),
        (_two_points(Z5), False),
        (fermat(3), False),
    ]

    def no_field_element(*args):
        raise AssertionError("is_real built a field element")

    for config, real in cases:
        # the answer comes from the integer vectors, with no field element built
        with pytest.MonkeyPatch.context() as m:
            m.setattr(projective, "FieldElement", no_field_element)
            assert config.is_real() == real, config
        assert all(c.is_real() for p in config.points for c in p.coords) == real, config


@pytest.mark.parametrize("field,coords", [
    (Q, (0.1, 0, 1)),
    (Q, (1, 2, 1.0)),
    (Q2, (Q2.sqrt_gen(), 0.5, 1)),
], ids=["Q", "Q-integral-float", "Q2"])
def test_float_coordinates_are_refused(field, coords):
    with pytest.raises(GeometryError, match="float"):
        ProjectivePoint(coords)
    with pytest.raises(GeometryError, match="float"):
        Configuration(field, [coords])


def test_empty_configuration_rejected():
    with pytest.raises(GeometryError):
        Configuration(Q, ())


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=2,
        max_size=7,
        unique=True,
    )
)
def test_random_point_sets_spanned_equals_oracle(coords):
    points = tuple(pt(x, y, 1) for x, y in coords)
    config = Configuration(Q, points)
    lines = spanned_lines(config)
    assert lines == oracle_spanned_lines(config)
    s = spectrum(config)
    assert sum(comb(i, 2) * c for i, c in s.ell.items()) == comb(len(points), 2)
    assert s.total_lines == len(lines)
