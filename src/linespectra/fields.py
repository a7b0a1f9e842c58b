"""Exact arithmetic over Q, real/imaginary quadratic fields Q(sqrt d), and
cyclotomic fields Q(zeta_N).

Elements are coefficient vectors over the field's power basis, stored as an
integer numerator tuple plus one positive common denominator in lowest terms,
so equality is structural and hashing is canonical.  Cyclotomic elements are
residues modulo the N-th cyclotomic polynomial (degree phi(N)); conjugation
maps zeta to zeta^(N-1), i.e. complex conjugation under the standard
embedding.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _divisors(n: int) -> list:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, lowest degree first).

def _zpoly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
    for d in _divisors(n)[:-1]:
        num = _zpoly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@dataclass(frozen=True)
class FieldDescriptor:
    """One of Q, Q(sqrt d) with d squarefree (d not in {0, 1}), or Q(zeta_N)."""

    kind: str
    d: int | None = None
    N: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.d is not None or self.N is not None:
                raise FieldError("rational field takes no parameters")
        elif self.kind == QUADRATIC:
            if self.N is not None or self.d is None:
                raise FieldError("quadratic field wants d only")
            if self.d in (0, 1) or not _is_squarefree(self.d):
                raise FieldError(f"d must be squarefree and not 0/1, got {self.d}")
        elif self.kind == CYCLOTOMIC:
            if self.d is not None or self.N is None:
                raise FieldError("cyclotomic field wants N only")
            if self.N < 1:
                raise FieldError(f"N must be >= 1, got {self.N}")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    @property
    def degree(self) -> int:
        if self.kind == RATIONAL:
            return 1
        if self.kind == QUADRATIC:
            return 2
        return euler_phi(self.N)

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Sequence[Rationalish]) -> "FieldElement":
        if len(coeffs) != self.degree:
            raise FieldError(
                f"{self} element wants {self.degree} coefficients, got {len(coeffs)}"
            )
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return FieldElement(self, nums, den)

    def from_rational(self, value: Rationalish) -> "FieldElement":
        f = Fraction(value)
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
        if self.N == 1:
            return self.one()
        if self.N == 2:
            return self.from_rational(-1)
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

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


def rational_field() -> FieldDescriptor:
    return FieldDescriptor(RATIONAL)


def quadratic_field(d: int) -> FieldDescriptor:
    return FieldDescriptor(QUADRATIC, d=d)


def cyclotomic_field(N: int) -> FieldDescriptor:
    return FieldDescriptor(CYCLOTOMIC, N=N)


# ---------------------------------------------------------------------------
# Cached per-field data: reduction rows mod Phi_N and power tables.

@lru_cache(maxsize=None)
def _cyclo_ctx(N: int):
    """(phi, Phi_N, reduction rows for x^phi..x^(2phi-2), x^k mod Phi for k < N)."""
    phi_coeffs = cyclotomic_polynomial(N)
    deg = len(phi_coeffs) - 1
    base = tuple(-c for c in phi_coeffs[:deg])  # x^deg mod Phi
    rows = {deg: base}
    cur = list(base)
    top_needed = max(2 * deg - 2, N - 1)
    for k in range(deg + 1, top_needed + 1):
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            cur = [cur[i] + top * base[i] for i in range(deg)]
        rows[k] = tuple(cur)
    powtab = []
    for k in range(N):
        if k < deg:
            vec = [0] * deg
            vec[k] = 1
            powtab.append(tuple(vec))
        else:
            powtab.append(rows[k])
    mulrows = tuple(rows[k] for k in range(deg, 2 * deg - 1)) if deg > 1 else ()
    return deg, phi_coeffs, mulrows, tuple(powtab)


def _mul_intvec(field: FieldDescriptor, u: Sequence[int], v: Sequence[int]) -> tuple:
    """Multiply two integer coefficient vectors in the given field."""
    if field.kind == RATIONAL:
        return (u[0] * v[0],)
    if field.kind == QUADRATIC:
        return (u[0] * v[0] + field.d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])
    deg, _, mulrows, _ = _cyclo_ctx(field.N)
    if deg == 1:
        return (u[0] * v[0],)
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                conv[i + j] += x * y
    out = conv[:deg]
    for k in range(2 * deg - 2, deg - 1, -1):
        c = conv[k]
        if c:
            row = mulrows[k - deg]
            for i in range(deg):
                out[i] += c * row[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# Rational polynomial helpers (for inversion mod Phi_N).

def _qtrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _qdivmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[db + k] * inv_lead
        if c:
            q[k] = c
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q, _qtrim(a[:db])


def _inverse_mod_phi(nums: Sequence[int], den: int, N: int):
    """Extended Euclid against Phi_N; returns Fraction coefficients of the inverse."""
    _, phi_coeffs, _, _ = _cyclo_ctx(N)
    r0 = [Fraction(c) for c in phi_coeffs]
    r1 = _qtrim([Fraction(x, den) for x in nums])
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _qdivmod(r0, r1)
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1) if s1 else []
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
        s_next = [
            (s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)
            for i in range(max(len(s0), len(qs1)))
        ]
        r0, r1 = r1, r
        s0, s1 = s1, _qtrim(s_next)
    if not r1:
        raise ZeroDivisionError("element is zero modulo Phi_N")
    c = r1[0]
    return [x / c for x in s1]


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
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.field}")
        kind = self.field.kind
        if kind == RATIONAL:
            return FieldElement(self.field, (self.den,), self.nums[0])
        if kind == QUADRATIC:
            a, b = self.nums
            norm = a * a - self.field.d * b * b
            # norm != 0: sqrt(d) is irrational, so a^2 = d*b^2 forces a = b = 0
            return FieldElement(
                self.field, (self.den * a, -self.den * b), norm
            )
        if self.field.degree == 1:
            return FieldElement(self.field, (self.den,), self.nums[0])
        inv = _inverse_mod_phi(self.nums, self.den, self.field.N)
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        den = math.lcm(*(f.denominator for f in inv))
        nums = tuple(f.numerator * (den // f.denominator) for f in inv)
        return FieldElement(self.field, nums, den)

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
        kind = self.field.kind
        if kind == RATIONAL:
            return self
        if kind == QUADRATIC:
            return FieldElement(self.field, (self.nums[0], -self.nums[1]), self.den)
        N = self.field.N
        if N <= 2:
            return self
        deg, _, _, powtab = _cyclo_ctx(N)
        out = [0] * deg
        for i, c in enumerate(self.nums):
            if c:
                row = powtab[(N - i) % N]
                for j in range(deg):
                    out[j] += c * row[j]
        return FieldElement(self.field, tuple(out), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def is_real(self) -> bool:
        """True iff the element is fixed by complex conjugation under the
        standard embedding (real quadratic fields are pointwise real)."""
        kind = self.field.kind
        if kind == RATIONAL:
            return True
        if kind == QUADRATIC:
            return self.field.d > 0 or self.nums[1] == 0
        if self.field.N <= 2:
            return True
        return self.conjugate() == self

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
        return hash((self.field, self.nums, self.den))

    def __repr__(self):
        if self.field.kind == RATIONAL or self.field.degree == 1:
            return str(Fraction(self.nums[0], self.den))
        names = {QUADRATIC: f"s{self.field.d}", CYCLOTOMIC: "z"}
        sym = names[self.field.kind]
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
# deterministic large prime p.  A nonzero image certifies a nonzero element;
# zero images are always confirmed exactly by the caller.

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


_SCREEN_START = 1 << 62


@lru_cache(maxsize=None)
def _screen(field: FieldDescriptor):
    """(p, basis images mod p) for the field's power basis."""
    if field.kind == RATIONAL or field.degree == 1:
        p = _SCREEN_START + 1
        while not _is_prime(p):
            p += 2
        return p, (1,)
    if field.kind == QUADRATIC:
        d = field.d
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

