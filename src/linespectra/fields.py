"""Exact arithmetic over Q, real/imaginary quadratic fields Q(sqrt d), and
cyclotomic fields Q(zeta_N).

Elements are coefficient vectors over the field's power basis, stored as an
integer numerator tuple plus one positive common denominator in lowest terms,
so equality is structural and hashing is canonical.  Cyclotomic elements are
residues modulo the N-th cyclotomic polynomial (degree phi(N)); conjugation
maps zeta to zeta^(N-1), i.e. complex conjugation under the standard
embedding.  No floating point is used anywhere in this module.

All arithmetic runs on integer coefficient vectors.  For Q(zeta_N) one cached
table, _powers(N)[k] = x^k mod Phi_N for 0 <= k < N, serves three jobs:
products reduce x^k through row k mod N (x^N = 1 mod Phi_N), the Galois map
zeta -> zeta^k sends x^i to row i*k mod N, and zeta itself is row 1.  Every
field inverts through the norm: with adj the product of the element's
non-identity Galois conjugates, a * adj = N(a) is a nonzero integer over the
common denominator, so a^-1 = adj / N(a) (Cohen, A Course in Computational
Algebraic Number Theory, 1993).  A rational value, such as the pivot 1 of
every canonical point, is fixed by every automorphism and takes adj = 1; over
Q(sqrt d) adj is the one conjugate.  Over Q(zeta_N) adj is formed along a
cached chain of subgroups of (Z/N)^* (_unit_tower): each step multiplies
together the few conjugates of the partial norm that the next subgroup adds,
so Q(zeta_80) takes 7 Galois images and 9 products, against 31 and 30 for
the conjugates one by one.  _adjugate gives (adj, N(a)) to inverse and
to the canonical form of projective triples, which it turns into primitive
integer vectors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

Rationalish = Union[int, str, Fraction]

RATIONAL = "rational"
QUADRATIC = "quadratic"
CYCLOTOMIC = "cyclotomic"


class FieldError(ValueError):
    """Invalid field construction or element operation."""


class FieldMismatchError(FieldError):
    """Mixed-field arithmetic is not defined; convert explicitly."""


def _factorize(n: int) -> dict:
    """Prime factorization of n >= 1 by trial division (inputs are small)."""
    out = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise FieldError(f"euler_phi wants n >= 1, got {n}")
    result = n
    for p in _factorize(n):
        result = result // p * (p - 1)
    return result


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorize(abs(n)).values())


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, lowest degree first).

def _zpoly_div_exact(num: Sequence[int], den: Sequence[int]) -> list:
    """Exact division of integer polynomials with a monic divisor."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise FieldError("divisor must be monic")
    q = [0] * (len(num) - dd)
    for k in range(len(q) - 1, -1, -1):
        c = num[dd + k]
        if c:
            q[k] = c
            for i, y in enumerate(den):
                num[k + i] -= c * y
    if any(num):
        raise FieldError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first.

    Computed by exact division: Phi_n = (x^n - 1) / prod(Phi_d) over proper
    divisors d of n.  Always monic with integer coefficients, degree phi(n).
    """
    if n < 1:
        raise FieldError(f"cyclotomic index must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _zpoly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


class FieldDescriptor(namedtuple("FieldDescriptor", "kind d N")):
    """One of Q, Q(sqrt d) with d squarefree (d not in {0, 1}), or Q(zeta_N).
    An immutable (kind, d, N) tuple."""

    __slots__ = ()

    def __new__(cls, kind: str, d: int | None = None, N: int | None = None):
        if any(v is not None and type(v) is not int for v in (d, N)):
            raise FieldError(f"field parameters must be ints, got d={d!r}, N={N!r}")
        if kind == RATIONAL:
            if d is not None or N is not None:
                raise FieldError("rational field takes no parameters")
        elif kind == QUADRATIC:
            if N is not None or d is None:
                raise FieldError("quadratic field wants d only")
            if d in (0, 1) or not _is_squarefree(d):
                raise FieldError(f"d must be squarefree and not 0/1, got {d}")
        elif kind == CYCLOTOMIC:
            if d is not None or N is None:
                raise FieldError("cyclotomic field wants N only")
            if N < 1:
                raise FieldError(f"N must be >= 1, got {N}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        return tuple.__new__(cls, (kind, d, N))

    @property
    def degree(self) -> int:
        if self.kind == RATIONAL:
            return 1
        if self.kind == QUADRATIC:
            return 2
        return len(cyclotomic_polynomial(self.N)) - 1

    def is_real(self) -> bool:
        """True iff every element is real under the standard embedding: Q
        (also as Q(zeta_1) and Q(zeta_2)) and Q(sqrt d) with d > 0."""
        return self.degree == 1 or (self.kind == QUADRATIC and self.d > 0)

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Sequence[Rationalish]) -> "FieldElement":
        if len(coeffs) != self.degree:
            raise FieldError(
                f"{self} element wants {self.degree} coefficients, got {len(coeffs)}"
            )
        fracs = [_exact(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return FieldElement(self, nums, den)

    def from_rational(self, value: Rationalish) -> "FieldElement":
        f = _exact(value)
        nums = (f.numerator,) + (0,) * (self.degree - 1)
        return FieldElement(self, nums, f.denominator)

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def zeta(self) -> "FieldElement":
        """Primitive N-th root of unity (cyclotomic fields only)."""
        if self.kind != CYCLOTOMIC:
            raise FieldError("zeta lives in cyclotomic fields")
        return FieldElement(self, _powers(self.N)[1 % self.N], 1)

    def sqrt_gen(self) -> "FieldElement":
        """The generator sqrt(d) (quadratic fields only)."""
        if self.kind != QUADRATIC:
            raise FieldError("sqrt generator lives in quadratic fields")
        return FieldElement(self, (0, 1), 1)

    def __str__(self):
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == QUADRATIC:
            return f"Q(sqrt({self.d}))"
        return f"Q(zeta_{self.N})"


def _exact(value: Rationalish) -> Fraction:
    """Fraction(value); a float is refused: its binary fraction is seldom the value meant."""
    if isinstance(value, float):
        raise FieldError(f"field elements want exact rationals, got the float {value!r}")
    return Fraction(value)


def rational_field() -> FieldDescriptor:
    return FieldDescriptor(RATIONAL)


def quadratic_field(d: int) -> FieldDescriptor:
    return FieldDescriptor(QUADRATIC, d=d)


def cyclotomic_field(N: int) -> FieldDescriptor:
    return FieldDescriptor(CYCLOTOMIC, N=N)


# ---------------------------------------------------------------------------
# Integer-vector arithmetic: products, Galois images and norms.

@lru_cache(maxsize=None)
def _powers(N: int) -> tuple:
    """x^k mod Phi_N for 0 <= k < N, as integer vectors of length phi(N)."""
    phi_coeffs = cyclotomic_polynomial(N)
    deg = len(phi_coeffs) - 1
    cur = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(N):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:  # x^deg = x^deg - Phi_N (mod Phi_N)
            cur = [c - top * f for c, f in zip(cur, phi_coeffs)]
    return tuple(rows)


def _mul_intvec(field: FieldDescriptor, u: Sequence[int], v: Sequence[int]) -> tuple:
    """Multiply two integer coefficient vectors in the given field."""
    if field.kind == RATIONAL:
        return (u[0] * v[0],)
    if field.kind == QUADRATIC:
        return (u[0] * v[0] + field.d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])
    deg = len(u)
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                conv[i + j] += x * y
    out = conv[:deg]
    N = field.N
    powers = _powers(N)
    for k in range(deg, 2 * deg - 1):
        c = conv[k]
        if c:
            row = powers[k % N]
            for i in range(deg):
                out[i] += c * row[i]
    return tuple(out)


def _galois(field: FieldDescriptor, nums: Sequence[int], k: int) -> tuple:
    """Image of an element of Q(zeta_N) under zeta -> zeta^k."""
    N = field.N
    powers = _powers(N)
    out = [0] * len(nums)
    for i, c in enumerate(nums):
        if c:
            for j, r in enumerate(powers[i * k % N]):
                if r:
                    out[j] += c * r
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_tower(N: int) -> tuple:
    """Steps (k, o) of a chain of subgroups {1} = H_0 < H_1 < ... of (Z/N)^*
    that ends at the whole group: k is the least unit outside H, o the least
    o >= 1 with k^o in H, and the next subgroup is the union of the cosets
    H k^j for 0 <= j < o.  The orders o multiply to phi(N)."""
    group = {1 % N}
    steps = []
    for k in range(2, N):
        if k in group or math.gcd(k, N) != 1:
            continue
        o, power = 1, k
        while power not in group:
            power = power * k % N
            o += 1
        group = {h * pow(k, j, N) % N for h in group for j in range(o)}
        steps.append((k, o))
    return tuple(steps)


def _conjugate(field: FieldDescriptor, nums: Sequence[int]) -> tuple:
    """FieldElement.conjugate on an integer coefficient vector."""
    if field.kind == CYCLOTOMIC:
        return _galois(field, nums, -1)
    return nums[:1] + tuple(-x for x in nums[1:])


def _adjugate(field: FieldDescriptor, nums: Sequence[int]) -> tuple:
    """(adj, norm) for an integer coefficient vector a: adj is the product of
    a's non-identity Galois conjugates, so a * adj = norm, an integer that is
    zero only for a = 0.

    Over Q(zeta_N) the conjugates are multiplied along _unit_tower(N).  b
    starts as a; at each step (k, o), P is the product of sigma_k^j(b) for
    j = 1 .. o-1, and adj <- adj * P, b <- b * P.  Before a step b is the
    product of sigma_h(a) over the subgroup H built so far, fixed by H, so
    b * P is that product over the next subgroup; at the end b = N(a).  It
    is the product of all conjugates taken in another order, so adj and the
    norm do not depend on the chain."""
    if not any(nums[1:]):  # a rational value is its own conjugate
        return (1,) + nums[1:], nums[0]
    if field.kind == QUADRATIC:
        adj = (nums[0], -nums[1])
        return adj, _mul_intvec(field, nums, adj)[0]
    N = field.N
    adj, b = None, nums
    for k, o in _unit_tower(N):
        part = _galois(field, b, k)
        for j in range(2, o):
            part = _mul_intvec(field, part, _galois(field, b, pow(k, j, N)))
        adj = part if adj is None else _mul_intvec(field, adj, part)
        b = _mul_intvec(field, b, part)
    return adj, b[0]


class FieldElement:
    """Immutable element of a FieldDescriptor.

    Supports +, -, *, /, ** with other elements of the same field and with
    int/Fraction scalars.  All operations are exact.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: FieldDescriptor, nums, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            nums = tuple(-x for x in nums)
            den = -den
        g = den
        for x in nums:
            g = math.gcd(g, x)
            if g == 1:
                break
        if g > 1:
            nums = tuple(x // g for x in nums)
            den //= g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field} and {other.field}; convert explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    @property
    def coeffs(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = tuple(x * o.den + y * self.den for x, y in zip(self.nums, o.nums))
        return FieldElement(self.field, nums, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = tuple(x * o.den - y * self.den for x, y in zip(self.nums, o.nums))
        return FieldElement(self.field, nums, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = _mul_intvec(self.field, self.nums, o.nums)
        return FieldElement(self.field, nums, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        adj, norm = _adjugate(self.field, self.nums)
        if not norm:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        return FieldElement(self.field, [self.den * x for x in adj], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "FieldElement":
        """Field conjugation: identity on Q, sqrt(d) -> -sqrt(d),
        zeta -> zeta^(N-1) (complex conjugation on roots of unity)."""
        return FieldElement(self.field, _conjugate(self.field, self.nums), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def is_real(self) -> bool:
        """True iff the element is fixed by complex conjugation under the
        standard embedding; every element of a real field is."""
        return self.field.is_real() or _conjugate(self.field, self.nums) == self.nums

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.field == other.field
                and self.nums == other.nums
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        # rational values hash like the int or Fraction they compare equal to
        nums, den = self.nums, self.den
        if any(nums[1:]):
            return hash((self.field, nums, den))
        return hash(nums[0]) if den == 1 else hash(Fraction(nums[0], den))

    def __repr__(self):
        sym = "z" if self.field.kind == CYCLOTOMIC else f"s{self.field.d}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = sym if i == 1 else f"{sym}^{i}"
                parts.append(mono if c == 1 else f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Homomorphic screen: reduce integer coefficient vectors into GF(p) for a
# deterministic prime p just above 2^29.  A nonzero image certifies a nonzero
# element; zero images are always confirmed exactly by the caller.  Below
# 2^30 every residue is one CPython digit, so the screen's products fit a
# machine word; a smaller p only makes false collisions likelier, and each
# one costs a certificate, never an answer.

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SCREEN_START = 1 << 29


@lru_cache(maxsize=None)
def _screen(field: FieldDescriptor):
    """(p, basis images mod p) for the field's power basis, with p the first
    suitable prime above 2^29: over Q(sqrt d), p = 3 (mod 4) with d a square
    mod p (Q(sqrt -1) takes the screen of Q(zeta_4)); over Q(zeta_N),
    p = 1 (mod N).  p stays below 2^30, so residues are one-digit ints and
    the screen's products and reductions never take a long division.  A
    collision mod p (probability about 1/p per triple) is caught by the
    exact certificate and costs only that row's exact keys."""
    if field.kind == RATIONAL or field.degree == 1:
        p = _SCREEN_START + 1
        while not _is_prime(p):
            p += 2
        return p, (1,)
    if field.kind == QUADRATIC:
        d = field.d
        if d == -1:  # no square root mod p = 3 (mod 4); sqrt(-1) has order 4
            return _screen(cyclotomic_field(4))
        p = _SCREEN_START + 3  # make p = 3 (mod 4) so sqrt is a single pow
        while p % 4 != 3:
            p += 1
        while True:
            if _is_prime(p) and pow(d % p, (p - 1) // 2, p) == 1:
                root = pow(d % p, (p + 1) // 4, p)
                return p, (1, root)
            p += 4
    N = field.N
    p = _SCREEN_START + 1
    p += (1 - p) % N
    while True:
        if _is_prime(p):
            root = _nth_root_mod(N, p)
            if root is not None:
                deg = field.degree
                images = [1] * deg
                for i in range(1, deg):
                    images[i] = images[i - 1] * root % p
                return p, tuple(images)
        p += N


def _evaluation(field: FieldDescriptor, vectors) -> tuple:
    """(m, basis): a modulus m and the images mod m of the power basis
    1, x, ..., x^(deg-1) under x -> r, chosen so that reducing a 3x3
    determinant of triples of `vectors` modulo m is exact: it gives 0
    exactly when the determinant is 0.  Over Q(sqrt d) or Q(zeta_N).

    Let R = Z[x]/(Phi), where Phi = Phi_N or x^2 - d; points are stored as
    integer coefficient vectors in R.  Take r in Z and m = |Phi(r)|.  Then
    ev: R -> Z/m, x -> r, is a surjective ring map, so its kernel I has
    index m.  For D != 0 in R, [R : DR] = |N(D)|, because the norm is the
    determinant of multiplication by D.  So if ev(D) = 0, then DR is in I,
    and m divides N(D).

    Every embedding sigma satisfies |sigma(c)| <= ||c||, with
    ||c|| = sum |c_t| over Q(zeta_N), and ||c|| = |c_0| + |c_1| s,
    s = isqrt(|d|) + 1, over Q(sqrt d).  Let L be the largest ||c|| over
    `vectors`.  A determinant D of three points then has
    |sigma(D)| <= 6 L^3, so |N(D)| <= (6 L^3)^deg.  Choose r so that
    m > (6 L^3)^deg: over Q(zeta_N), r = 6 L^3 + 2, since
    |Phi_N(r)| = prod |r - zeta| >= (r - 1)^deg (this covers N = 1 and 2
    too); over Q(sqrt d), r = 6 L^3 + s + 1, since then
    r^2 - d > (r - s)(r + s) > (6 L^3)^2.  Hence ev(D) = 0 (mod m) exactly
    when D = 0."""
    if field.kind == QUADRATIC:
        s = math.isqrt(abs(field.d)) + 1
        bound = max(abs(a) + abs(b) * s for a, b in vectors)
        r = 6 * bound ** 3 + s + 1
        m = r * r - field.d
    else:
        bound = max(sum(map(abs, v)) for v in vectors)
        r = 6 * bound ** 3 + 2
        m = abs(sum(c * r ** t for t, c in enumerate(cyclotomic_polynomial(field.N))))
    return m, tuple(pow(r, t, m) for t in range(field.degree))


def _nth_root_mod(N: int, p: int):
    """Element of multiplicative order exactly N in GF(p), p = 1 (mod N)."""
    primes = list(_factorize(N))
    for a in range(2, 200):
        r = pow(a, (p - 1) // N, p)
        if r == 1:
            continue
        if all(pow(r, N // q, p) != 1 for q in primes):
            return r
    return None

