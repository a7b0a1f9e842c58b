import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linespectra import (
    FieldError,
    FieldMismatchError,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    quadratic_field,
    rational_field,
)
from linespectra import projective
from linespectra.constructions import boroczky, fermat, random_config, sylvester_cubic
from linespectra.fields import (
    _adjugate,
    _factorize,
    _galois,
    _is_prime,
    _mul_intvec,
    _screen,
    _unit_tower,
)
from linespectra.projective import (
    Configuration,
    GeometryError,
    ProjectivePoint,
    apply_projective_map,
    spectrum,
)

Q = rational_field()
Q3 = cyclotomic_field(3)
Q12 = cyclotomic_field(12)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], r = divmod(a[i + len(b) - 1], b[-1])
        assert r == 0
        for j, y in enumerate(b):
            a[i + j] -= q[i] * y
    assert not any(a)
    return q


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _phi_by_mobius(n):
    """Independent route: product over d | n of (x^d - 1)^mobius(n/d)."""
    num = [1]
    den = [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        factor = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    return tuple(_poly_divexact(num, den))


@pytest.mark.parametrize("n", list(range(1, 41)) + [105])
def test_cyclotomic_polynomial_matches_mobius_product(n):
    assert cyclotomic_polynomial(n) == _phi_by_mobius(n)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 60):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


@pytest.mark.parametrize("n", range(1, 101))
def test_cyclotomic_polynomial_divides_x_pow_n_minus_1(n):
    xn = [-1] + [0] * (n - 1) + [1]
    _poly_divexact(xn, cyclotomic_polynomial(n))  # asserts zero remainder


@pytest.mark.parametrize("n", range(1, 51))
def test_divisor_product_is_x_pow_n_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
    assert prod == [-1] + [0] * (n - 1) + [1]


def test_rational_arithmetic():
    third = Q.element([Fraction(1, 3)])
    sixth = Q.element([Fraction(1, 6)])
    assert third + sixth == Q.element([Fraction(1, 2)])
    assert Q.element(["-3/7"]).inverse() == Q.element(["-7/3"])
    assert (third * 3) == Q.one()


def test_quadratic_arithmetic():
    F = quadratic_field(2)
    r2 = F.sqrt_gen()
    assert (1 + r2) * (-1 + r2) == F.one()
    assert (1 + r2).inverse() == -1 + r2
    assert r2 * r2 == 2


def test_cyclotomic_arithmetic():
    z = Q3.zeta()
    assert z * z == -z - 1
    assert z.inverse() == -z - 1
    assert z ** 3 == Q3.one()
    w = Q12.zeta()
    assert w ** 12 == Q12.one()
    assert w ** 6 == -Q12.one()
    # zeta_12^4 is a primitive cube root: satisfies x^2 + x + 1 = 0
    u = w ** 4
    assert u * u + u + 1 == Q12.zero()


def test_conjugation_examples():
    Q4 = cyclotomic_field(4)
    i = Q4.zeta()
    assert i.conjugate() == -i
    Fm3 = quadratic_field(-3)
    e = Fm3.element([2, 1])
    assert e.conjugate() == Fm3.element([2, -1])
    z = Q3.zeta()
    assert (z + z * z).conjugate() == z + z * z == -Q3.one()


def test_is_real():
    Q4 = cyclotomic_field(4)
    assert not Q4.zeta().is_real()
    Q8 = cyclotomic_field(8)
    z = Q8.zeta()
    assert (z + z ** 7).is_real()
    assert (z + z ** 7) * (z + z ** 7) == 2  # it is sqrt(2)
    assert Q.element([5]).is_real()
    assert quadratic_field(2).sqrt_gen().is_real()
    assert not quadratic_field(-3).sqrt_gen().is_real()
    assert quadratic_field(-3).element([4, 0]).is_real()
    # every element of a real field is real
    assert Q.is_real() and quadratic_field(2).is_real()
    assert cyclotomic_field(1).is_real() and cyclotomic_field(2).is_real()
    assert not quadratic_field(-3).is_real() and not Q3.is_real() and not Q8.is_real()


def test_degenerate_cyclotomic_fields():
    assert cyclotomic_field(1).zeta() == 1
    assert cyclotomic_field(2).zeta() == -1
    assert cyclotomic_field(1).degree == 1
    assert cyclotomic_field(2).degree == 1
    for N in (1, 2):
        F = cyclotomic_field(N)
        e = F.element([Fraction(-3, 7)])
        assert e.inverse() == F.element([Fraction(-7, 3)])
        assert F.zeta().inverse() == F.zeta()
        assert e.conjugate() == e
        assert e.is_real() and F.zeta().is_real()
        assert repr(e) == "-3/7" and repr(F.zero()) == "0"


@pytest.mark.parametrize("d", [-7, -3, -2, -1, 2, 3, 5])
def test_quadratic_screen_maps_sqrt_d_to_a_square_root_of_d(d):
    # -1 has no square root mod p = 3 (mod 4), the primes tried for other d
    p, (one, root) = _screen(quadratic_field(d))
    assert _is_prime(p) and one == 1 and root * root % p == d % p
    # one CPython digit: the screen's products never take a long division
    assert 2 ** 29 < p < 2 ** 30


def test_cyclotomic_screens_take_a_one_digit_prime_and_a_root_of_order_n():
    # every N the families reach: 16, 60 and 80 in the benchmark, 180 for
    # boroczky(90)
    for N in range(1, 201):
        field = cyclotomic_field(N)
        p, residues = _screen(field)
        assert _is_prime(p) and 2 ** 29 < p < 2 ** 30 and p % N == 1 % N, N
        if field.degree == 1:  # zeta_1 = 1 and zeta_2 = -1 are rational
            assert residues == (1,), N
            continue
        root = residues[1]
        assert pow(root, N, p) == 1, N
        assert all(pow(root, N // q, p) != 1 for q in _factorize(N)), N
        assert residues == tuple(pow(root, k, p) for k in range(field.degree)), N


def _quadratic_image(n, seed):
    # random_config(n, seed) embedded in Q(sqrt 2) and moved by a seeded
    # invertible matrix whose entries involve sqrt 2
    fld = quadratic_field(2)
    embedded = Configuration(fld, tuple(
        ProjectivePoint([fld.from_rational(c.coeffs[0]) for c in p.coords], fld)
        for p in random_config(n, seed).points))
    rng = random.Random(seed)
    while True:
        matrix = [[fld.element([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(3)]
                  for _ in range(3)]
        try:
            return apply_projective_map(embedded, matrix)
        except GeometryError:
            continue


def test_extension_inputs_of_benchmark_size_never_fall_back_to_exact_keys(monkeypatch):
    # with p just above 2^29 the screen keeps every row of these inputs:
    # no repeated key fails its certificate, and no row is keyed again by
    # the exact canonical form
    configs = [boroczky(30), sylvester_cubic(20), fermat(16), _quadratic_image(200, 19)]
    calls = Counter()
    canonical, on_line_mod = projective._canonical, projective._on_line_mod

    def counting_canonical(*args):
        calls["canonical"] += 1
        return canonical(*args)

    def counting_on_line_mod(*args):
        result = on_line_mod(*args)
        calls["certified"] += 1
        calls["failed"] += not result
        return result

    monkeypatch.setattr(projective, "_canonical", counting_canonical)
    monkeypatch.setattr(projective, "_on_line_mod", counting_on_line_mod)
    for config in configs:
        spectrum(config)
    assert calls["canonical"] == 0 and calls["failed"] == 0
    assert calls["certified"] > 0


def test_field_descriptor_validation():
    with pytest.raises(FieldError):
        quadratic_field(4)   # not squarefree
    with pytest.raises(FieldError):
        quadratic_field(1)
    with pytest.raises(FieldError):
        quadratic_field(0)
    with pytest.raises(FieldError):
        cyclotomic_field(0)


@pytest.mark.parametrize("make", [
    lambda: Q.from_rational(0.1),
    lambda: quadratic_field(2).element([0.5, 0.25]),
    lambda: Q12.element([1, 0, 0.5, 0]),
    lambda: Q3.element([1.0, 0]),
], ids=["from_rational", "quadratic_element", "cyclotomic_element", "integral_float"])
def test_float_coefficients_are_refused(make):
    # a float is a binary fraction, rarely the rational that was meant
    with pytest.raises(FieldError, match="float"):
        make()


def test_mixed_field_arithmetic_rejected():
    a = quadratic_field(2).sqrt_gen()
    b = quadratic_field(3).sqrt_gen()
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * Q3.zeta()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Q3.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()


def test_element_parsing_and_normalization():
    e = Q.element(["6/4"])
    assert e.coeffs == (Fraction(3, 2),)
    f = Q12.element(["1/2", 0, "-2/6", 0])
    assert f.coeffs == (Fraction(1, 2), 0, Fraction(-1, 3), 0)
    with pytest.raises(FieldError):
        Q12.element([1, 2, 3])  # wrong length


def test_equality_and_hash_consistency():
    a = Q3.element([Fraction(1, 2), Fraction(1, 2)])
    b = (Q3.element([1, 1])) * Fraction(1, 2)
    assert a == b and hash(a) == hash(b)
    assert Q.element([7]) == 7 == Fraction(7)
    assert Q3.zero() == 0
    for x in (7, Fraction(7), Fraction(-2, 3), 0):
        for F in (Q, quadratic_field(-3), Q12):
            e = F.from_rational(x)
            assert e == x and hash(e) == hash(x)
            assert len({e, x}) == 1


def _random_element(rng, field):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
         for _ in range(field.degree)]
    )


@pytest.mark.parametrize("field", [
    Q, quadratic_field(2), quadratic_field(-3), cyclotomic_field(5), Q12,
    cyclotomic_field(1), cyclotomic_field(2), cyclotomic_field(8),
    cyclotomic_field(15), cyclotomic_field(60),
], ids=str)
def test_field_axioms_randomized(field):
    rng = random.Random(20240 + field.degree)
    one = field.one()
    for _ in range(1000):
        a = _random_element(rng, field)
        b = _random_element(rng, field)
        c = _random_element(rng, field)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one


_small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _q7_elements(draw):
    F = cyclotomic_field(7)
    return F.element([draw(_small_fracs) for _ in range(F.degree)])


@settings(deadline=None, max_examples=150)
@given(_q7_elements(), _q7_elements())
def test_conjugation_is_ring_automorphism(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(deadline=None, max_examples=150)
@given(_q7_elements())
def test_element_times_inverse_is_one(a):
    if not a.is_zero():
        assert a * a.inverse() == cyclotomic_field(7).one()


@pytest.mark.parametrize("N", [3, 5, 7, 8, 9, 11, 12, 15, 16, 21, 24, 40, 60, 80])
def test_cyclotomic_arithmetic_matches_sympy(N):
    """Products, inverses and conjugates against sympy's independent
    polynomial arithmetic modulo Phi_N."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(N, x)
    F = cyclotomic_field(N)

    def as_poly(e, k=1):  # the image of e under zeta -> zeta^k, unreduced
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** (i * k % N)
                   for i, c in enumerate(e.coeffs))

    def from_poly(expr):
        coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
        coeffs += [sympy.Integer(0)] * (F.degree - len(coeffs))
        return F.element([Fraction(int(c.p), int(c.q)) for c in coeffs])

    rng = random.Random(N)
    for _ in range(3):
        a, b = _random_element(rng, F), _random_element(rng, F)
        assert a * b == from_poly(sympy.rem(as_poly(a) * as_poly(b), phi, x))
        assert a.inverse() == from_poly(sympy.invert(as_poly(a), phi, x))
        assert a.conjugate() == from_poly(sympy.rem(as_poly(a, -1), phi, x))


def _adjugate_by_all_conjugates(field, nums):
    """Reference (adj, norm) over Q(zeta_N): adj is the product of every
    non-identity Galois conjugate, taken one by one."""
    if not any(nums[1:]):
        return (1,) + tuple(nums[1:]), nums[0]
    N = field.N
    images = [_galois(field, nums, k) for k in range(2, N) if math.gcd(k, N) == 1]
    adj = images[0]
    for image in images[1:]:
        adj = _mul_intvec(field, adj, image)
    return adj, _mul_intvec(field, nums, adj)[0]


def _random_vectors(rng, degree):
    """A dense, a sparse, a zero-heavy and a rational vector: the shapes
    _adjugate meets as coordinates and pivots."""
    def pick(p_zero, size):
        return tuple(0 if rng.random() < p_zero else rng.randint(-size, size)
                     for _ in range(degree))

    out = [pick(0.0, 9), pick(0.5, 20), pick(0.9, 3), (rng.randint(1, 9),) + (0,) * (degree - 1)]
    return [v for v in out if any(v)]


@pytest.mark.parametrize("N", range(3, 101))
def test_adjugate_matches_the_all_conjugates_product(N):
    field = cyclotomic_field(N)
    rng = random.Random(7000 + N)
    for nums in _random_vectors(rng, field.degree):
        adj, norm = _adjugate(field, nums)
        assert (adj, norm) == _adjugate_by_all_conjugates(field, nums)
        assert norm and _mul_intvec(field, nums, adj) == (norm,) + (0,) * (field.degree - 1)


@pytest.mark.parametrize("N", range(1, 101))
def test_unit_tower_generates_every_unit(N):
    steps = _unit_tower(N)
    assert math.prod(o for _, o in steps) == euler_phi(N)
    group = {1 % N}
    for k, o in steps:
        assert k not in group and math.gcd(k, N) == 1
        powers = [pow(k, j, N) for j in range(o + 1)]
        assert powers[o] in group and not group.intersection(powers[1:o])
        group = {h * x % N for h in group for x in powers[:o]}
    assert group == {k for k in range(N) if math.gcd(k, N) == 1}


def test_unit_tower_examples():
    assert _unit_tower(80) == ((3, 4), (7, 4), (11, 2))
    assert _unit_tower(60) == ((7, 4), (11, 2), (13, 2))
    assert _unit_tower(7) == ((2, 3), (3, 2))  # cyclic of order 6, in two steps
    assert _unit_tower(12) == ((5, 2), (7, 2))
