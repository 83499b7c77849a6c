"""Exact arithmetic: rationals, canonical cyclotomic residues, and the unit-group Galois action.

Every algebraic number handled by the package lives in the field generated by a
primitive n-th root of unity, stored as its residue modulo the n-th cyclotomic
polynomial over the power basis {z^0, ..., z^{phi(n)-1}}.  Canonical residues make
equality a coefficient comparison, which is what stabilizer and orbit computations
need.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from cayspec.errors import CoefficientBudgetExceeded, InternalInconsistency, NotAUnit
from cayspec.units import UnitSubgroup, unit_group, unit_subgroup

RationalLike = Union[int, str, Fraction]

# Total bits (numerators plus denominators) allowed in one canonical residue.
# A guardrail against runaway coefficient growth, not a precision limit.
COEFFICIENT_BIT_BUDGET = 1_000_000


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational-like value; floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce a float to an exact rational")
    return Fraction(value)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient via trial-division factorization."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # Exact division of integer polynomials (coefficients low to high).
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise InternalInconsistency("non-exact polynomial division")
        q[i] = c // lead
        if q[i]:
            for j, dj in enumerate(den):
                num[i + j] -= q[i] * dj
    if any(num[: len(den) - 1]):
        raise InternalInconsistency("polynomial division left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n; monic of degree phi(n).
    """
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial needs n >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_residues(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row e holds the non-zero (index, coefficient) pairs of the canonical
    # residue of z^e modulo the n-th cyclotomic polynomial, for every exponent
    # a product of two canonical residues can produce.
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    count = max(n, 2 * phi - 1)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(count):
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        lead = cur[phi - 1]
        nxt = [0] * phi
        for i in range(phi - 1, 0, -1):
            nxt[i] = cur[i - 1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * modulus[i]
        cur = nxt
    return tuple(rows)


def _mobius(m: int) -> int:
    result = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    return -result if m > 1 else result


@lru_cache(maxsize=None)
def _ramanujan_sums(n: int) -> tuple[int, ...]:
    # Entry i is the trace of z^i from the n-th cyclotomic field to the
    # rationals, the Ramanujan sum mu(n/g) * phi(n) / phi(n/g) with g = gcd(i, n).
    phi = euler_phi(n)
    out = []
    for i in range(n):
        m = n // gcd(i, n)
        out.append(_mobius(m) * (phi // euler_phi(m)))
    return tuple(out)


def _check_budget(coeffs: tuple[Fraction, ...]) -> None:
    budget = COEFFICIENT_BIT_BUDGET
    total = 0
    for c in coeffs:
        total += c.numerator.bit_length() + c.denominator.bit_length()
        if total > budget:
            raise CoefficientBudgetExceeded(
                f"canonical residue exceeds the {budget}-bit coefficient budget"
            )


_ZERO = Fraction(0)


class Cyclotomic:
    """A value in the field of n-th roots of unity, in canonical reduced form.

    Immutable; equality goes through the coefficient tuple, so equal field
    values always compare equal.  Hashing and arithmetic read the value as its
    coefficients' common denominator D and the non-zero (index, D * coefficient)
    pairs, built once per value; each result is accumulated as one integer
    vector over one denominator.
    """

    __slots__ = ("conductor", "coeffs", "_hash", "_scaled")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        self.conductor = conductor
        self.coeffs = coeffs
        _check_budget(coeffs)

    @classmethod
    def _from_scaled(cls, n: int, numerators: list[int], denominator: int) -> "Cyclotomic":
        return cls(n, tuple(Fraction(a, denominator) if a else _ZERO for a in numerators))

    def _terms(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(D, pairs): the common denominator of the coefficients and the
        non-zero (index, D * coefficient) pairs."""
        try:
            return self._scaled
        except AttributeError:
            D = lcm(*(c.denominator for c in self.coeffs))
            self._scaled = D, tuple(
                (i, c.numerator * (D // c.denominator)) for i, c in enumerate(self.coeffs) if c
            )
            return self._scaled

    @classmethod
    def from_exponents(cls, n: int, exponent_coeffs: Mapping[int, RationalLike]) -> "Cyclotomic":
        """Build sum_e c_e * z^e with exponents taken modulo n, then canonicalize."""
        rows = _power_residues(n)
        items = [(e, as_fraction(c)) for e, c in exponent_coeffs.items()]
        D = lcm(*(c.denominator for _, c in items))
        acc = [0] * euler_phi(n)
        for e, c in items:
            k = c.numerator * (D // c.denominator)
            if k:
                for i, r in rows[e % n]:
                    acc[i] += k * r
        return cls._from_scaled(n, acc, D)

    @classmethod
    def from_rational(cls, n: int, value: RationalLike) -> "Cyclotomic":
        phi = euler_phi(n)
        coeffs = [Fraction(0)] * phi
        coeffs[0] = as_fraction(value)
        return cls(n, tuple(coeffs))

    @classmethod
    def linear_combination(
        cls, n: int, terms: Iterable[tuple[RationalLike, "Cyclotomic"]]
    ) -> "Cyclotomic":
        """Build sum c * x over the (c, x) pairs as one canonical residue.

        Every x is already reduced modulo the n-th cyclotomic polynomial, and a
        rational combination of reduced residues is reduced, so the sum is
        accumulated coefficient by coefficient with no convolution and no
        reduction, and only the result is constructed.
        """
        scaled = []
        D = 1
        for c, x in terms:
            if x.conductor != n:
                raise ValueError(f"mixed conductors {n} and {x.conductor}")
            c = as_fraction(c)
            if c:
                dx, pairs = x._terms()
                d = c.denominator * dx
                D = lcm(D, d)
                scaled.append((c.numerator, d, pairs))
        acc = [0] * euler_phi(n)
        for num, d, pairs in scaled:
            k = num * (D // d)
            for i, a in pairs:
                acc[i] += k * a
        return cls._from_scaled(n, acc, D)

    @classmethod
    def zero(cls, n: int) -> "Cyclotomic":
        return cls.from_rational(n, 0)

    @classmethod
    def one(cls, n: int) -> "Cyclotomic":
        return cls.from_rational(n, 1)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"mixed conductors {self.conductor} and {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.conductor, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.linear_combination(self.conductor, ((other, self),))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        phi = len(self.coeffs)
        da, a = self._terms()
        db, b = other._terms()
        conv = [0] * (2 * phi - 1)
        for i, ai in a:
            for j, bj in b:
                conv[i + j] += ai * bj
        rows = _power_residues(self.conductor)
        acc = conv[:phi]
        for e in range(phi, 2 * phi - 1):
            ce = conv[e]
            if ce:
                for i, r in rows[e]:
                    acc[i] += ce * r
        return Cyclotomic._from_scaled(self.conductor, acc, da * db)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.conductor, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.conductor, self._terms()))
            return self._hash

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        """Double-precision embedding z = exp(2*pi*i/n)."""
        n = self.conductor
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * i / n)
        return total

    def real_embedding(self) -> float:
        return self.to_complex().real

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = -c if c < 0 else c
            term = str(mag) if i == 0 else (
                f"z{self.conductor}^{i}" if mag == 1 else f"{mag}*z{self.conductor}^{i}"
            )
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self})"


def galois_apply(h: int, x: Cyclotomic) -> Cyclotomic:
    """Image of x under the field automorphism sending z to z^h (h a unit mod n)."""
    n = x.conductor
    if gcd(h, n) != 1:
        raise NotAUnit(f"{h} is not a unit modulo {n}")
    rows = _power_residues(n)
    D, pairs = x._terms()
    acc = [0] * len(x.coeffs)
    for i, a in pairs:
        for j, r in rows[i * h % n]:
            acc[j] += a * r
    return Cyclotomic._from_scaled(n, acc, D)


def stabilizer(x: Cyclotomic) -> UnitSubgroup:
    """All units h with galois_apply(h, x) == x; always a subgroup."""
    n = x.conductor
    return unit_subgroup(n, [h for h in unit_group(n).members if galois_apply(h, x) == x])


def galois_orbit(x: Cyclotomic) -> tuple[Cyclotomic, ...]:
    """Distinct images of x under the full unit group, in first-seen order."""
    return tuple(dict.fromkeys(galois_apply(h, x) for h in unit_group(x.conductor).members))


def minimal_polynomial(x: Cyclotomic) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over the rationals (coefficients low to high).

    With d the size of the Galois orbit of x, the power sums of the orbit are
    p_k = Tr(x^k) * d / phi(n), where the trace of z^i is a Ramanujan sum, and
    Newton's identities turn p_1..p_d into the coefficients: d - 1 products in
    all, and every coefficient rational by construction.  The result is checked
    by a second route sharing only the ring arithmetic: it must vanish at x,
    evaluated exactly by Horner's rule.  A monic polynomial of degree
    d = [Q(x):Q] with x as a root is the minimal polynomial.
    """
    n = x.conductor
    d = len(galois_orbit(x))
    sums = _ramanujan_sums(n)
    scale = Fraction(d, euler_phi(n))
    power_sums = []
    power = x
    for k in range(1, d + 1):
        if k > 1:
            power = power * x
        D, pairs = power._terms()
        power_sums.append(scale * Fraction(sum(a * sums[i] for i, a in pairs), D))
    # e[k] is the k-th elementary symmetric function of the orbit.
    e = [Fraction(1)]
    for k in range(1, d + 1):
        total = sum(
            (e[k - i] * power_sums[i - 1] if i % 2 else -e[k - i] * power_sums[i - 1])
            for i in range(1, k + 1)
        )
        e.append(total / k)
    coeffs = tuple(e[d - j] if (d - j) % 2 == 0 else -e[d - j] for j in range(d + 1))
    value = Cyclotomic.one(n)
    for c in coeffs[d - 1 :: -1]:
        value = value * x + c
    if value:
        raise InternalInconsistency(
            f"trace route: minimal polynomial {format_polynomial(coeffs)} of {x} "
            f"does not vanish there by Horner's rule (value {value})"
        )
    return coeffs


def format_polynomial(coeffs: Sequence[Fraction], var: str = "t") -> str:
    """Human form of an exact polynomial, highest power first, e.g. 't^2 - 8'."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if not c:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            term = str(mag)
        elif i == 1:
            term = var if mag == 1 else f"{mag}*{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
