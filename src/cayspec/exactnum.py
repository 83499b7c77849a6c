"""Exact arithmetic: rationals, canonical cyclotomic residues, and the unit-group Galois action.

Every algebraic number handled by the package lives in the field generated by a
primitive n-th root of unity, stored as its residue modulo the n-th cyclotomic
polynomial over the power basis {z^0, ..., z^{phi(n)-1}}.  Canonical residues make
equality a coefficient comparison, which is what stabilizer and orbit computations
need.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence, Union

from cayspec.errors import CoefficientBudgetExceeded, InternalInconsistency, NotAUnit

RationalLike = Union[int, str, Fraction]

# Total bits (numerators plus denominators) allowed in one canonical residue.
# A guardrail against runaway coefficient growth, not a precision limit.
_DEFAULT_BIT_BUDGET = 1_000_000
_bit_budget = _DEFAULT_BIT_BUDGET


def set_coefficient_bit_budget(bits: int) -> None:
    """Set the per-value coefficient size guardrail (pass 0 to disable)."""
    global _bit_budget
    _bit_budget = int(bits)


def get_coefficient_bit_budget() -> int:
    return _bit_budget


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational-like value; floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce a float to an exact rational")
    return Fraction(value)


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
def _power_residues(n: int) -> tuple[tuple[int, ...], ...]:
    # Row e is the canonical residue of z^e modulo the n-th cyclotomic polynomial,
    # for every exponent a product of two canonical residues can produce.
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    count = max(n, 2 * phi - 1)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(count):
        rows.append(tuple(cur))
        lead = cur[phi - 1]
        nxt = [0] * phi
        for i in range(phi - 1, 0, -1):
            nxt[i] = cur[i - 1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * modulus[i]
        cur = nxt
    return tuple(rows)


def _check_budget(coeffs: tuple[Fraction, ...]) -> None:
    if not _bit_budget:
        return
    total = 0
    for c in coeffs:
        total += c.numerator.bit_length() + c.denominator.bit_length()
        if total > _bit_budget:
            raise CoefficientBudgetExceeded(
                f"canonical residue exceeds the {_bit_budget}-bit coefficient budget"
            )


class Cyclotomic:
    """A value in the field of n-th roots of unity, in canonical reduced form.

    Immutable; equality and hashing go through the coefficient tuple, so equal
    field values always compare equal.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        self.conductor = conductor
        self.coeffs = coeffs
        _check_budget(coeffs)

    @classmethod
    def from_exponents(cls, n: int, exponent_coeffs: Mapping[int, RationalLike]) -> "Cyclotomic":
        """Build sum_e c_e * z^e with exponents taken modulo n, then canonicalize."""
        rows = _power_residues(n)
        phi = len(rows[0])
        acc = [Fraction(0)] * phi
        for e, c in exponent_coeffs.items():
            c = as_fraction(c)
            if not c:
                continue
            row = rows[e % n]
            for i, r in enumerate(row):
                if r:
                    acc[i] += c * r
        return cls(n, tuple(acc))

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
        acc = [Fraction(0)] * euler_phi(n)
        for c, x in terms:
            if x.conductor != n:
                raise ValueError(f"mixed conductors {n} and {x.conductor}")
            c = as_fraction(c)
            if not c:
                continue
            for i, a in enumerate(x.coeffs):
                if a:
                    acc[i] += c * a
        return cls(n, tuple(acc))

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
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        rows = _power_residues(self.conductor)
        acc = conv[:phi]
        for e in range(phi, 2 * phi - 1):
            ce = conv[e]
            if not ce:
                continue
            for i, r in enumerate(rows[e]):
                if r:
                    acc[i] += ce * r
        return Cyclotomic(self.conductor, tuple(acc))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.conductor, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

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


@dataclass(frozen=True)
class UnitGroup:
    """A set of units modulo n; the full group or the subgroup fixing a value."""

    modulus: int
    units: tuple[int, ...]

    def __contains__(self, h: int) -> bool:
        return h in self.units

    def __len__(self) -> int:
        return len(self.units)


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroup:
    """The multiplicative group of units modulo n.

    For n = 1 the single residue class is labelled 1 so that the group is
    non-empty and its size matches phi(1).
    """
    if n == 1:
        return UnitGroup(1, (1,))
    return UnitGroup(n, tuple(h for h in range(1, n) if gcd(h, n) == 1))


def galois_apply(h: int, x: Cyclotomic) -> Cyclotomic:
    """Image of x under the field automorphism sending z to z^h (h a unit mod n)."""
    n = x.conductor
    if gcd(h, n) != 1:
        raise NotAUnit(f"{h} is not a unit modulo {n}")
    mapped: dict[int, Fraction] = {}
    for i, c in enumerate(x.coeffs):
        if c:
            e = (i * h) % n
            mapped[e] = mapped.get(e, Fraction(0)) + c
    return Cyclotomic.from_exponents(n, mapped)


def stabilizer(x: Cyclotomic) -> UnitGroup:
    """All units h with galois_apply(h, x) == x; always a subgroup."""
    full = unit_group(x.conductor)
    fixed = tuple(h for h in full.units if galois_apply(h, x) == x)
    return UnitGroup(x.conductor, fixed)


def galois_orbit(x: Cyclotomic) -> tuple[Cyclotomic, ...]:
    """Distinct images of x under the full unit group, in first-seen order."""
    seen: list[Cyclotomic] = []
    for h in unit_group(x.conductor).units:
        img = galois_apply(h, x)
        if img not in seen:
            seen.append(img)
    return tuple(seen)


def minimal_polynomial(x: Cyclotomic) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over the rationals (coefficients low to high).

    Expands the product of (t - v) over the Galois orbit of x; every coefficient
    must come out rational, otherwise the arithmetic itself is broken.
    """
    n = x.conductor
    orbit = galois_orbit(x)
    coeffs = [Cyclotomic.one(n)]
    for v in orbit:
        nxt = [Cyclotomic.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        coeffs = nxt
    out = []
    for c in coeffs:
        if not c.is_rational():
            raise InternalInconsistency(
                "minimal polynomial acquired an irrational coefficient"
            )
        out.append(c.rational_value())
    return tuple(out)


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
