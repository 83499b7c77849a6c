"""Exact arithmetic: rationals, canonical cyclotomic residues, and the unit-group Galois action.

Every algebraic number handled by the package lives in the field generated by a
primitive n-th root of unity, stored as its residue modulo the n-th cyclotomic
polynomial over the power basis {z^0, ..., z^{phi(n)-1}}: integer numerators of
the non-zero coefficients over one common denominator, in lowest terms.  This
canonical form makes equality and hashing a comparison of integers, which is
what stabilizer and orbit computations need; no other module reads it.  A value
is built once, from exponent counts or as a Galois image, and one fold,
`_fold`, reduces both; values are never added or multiplied.  The one routine
that needs powers, `minimal_polynomial`, takes exponent counts and works in the
group ring Z[z]/(z^n - 1), reducing a single value at the end.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from cayspec.errors import InternalInconsistency

RationalLike = Union[int, str, Fraction]

# Total bits (numerators plus denominators) allowed in one canonical residue,
# and numerator bits in one integer group-ring vector of `minimal_polynomial`.
# A guardrail against runaway coefficient growth, not a precision limit.
COEFFICIENT_BIT_BUDGET = 1_000_000


def _check_budget(bits: int) -> None:
    if bits > COEFFICIENT_BIT_BUDGET:
        raise ValueError(
            f"canonical residue exceeds the {COEFFICIENT_BIT_BUDGET}-bit coefficient budget"
        )


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational-like value; floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce a float to an exact rational")
    return Fraction(value)


def _factor(n: int) -> dict[int, int]:
    """The prime factorization {p: exponent} of n, by trial division; {} for n < 2."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, from the primes of n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    for p in _factor(n):
        result -= result // p
    return result


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending; none for n < 1."""
    out = [1] if n >= 1 else []
    for p, e in _factor(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def _mobius(m: int) -> int:
    exponents = _factor(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _times_binomial(poly: list[int], d: int) -> list[int]:
    # poly * (x^d - 1), coefficients low to high.
    return [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial, monic of
    degree phi(n): the product of (x^d - 1)^mu(n/d) over the divisors d of n.

    The binomials with mu(n/d) = 1 are multiplied in first, then those with
    mu(n/d) = -1 divided out, each quotient checked by multiplying it back.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial needs n >= 1, got {n}")
    mu = {d: _mobius(n // d) for d in divisors(n)}
    poly = [1]
    for d in (d for d in mu if mu[d] == 1):
        poly = _times_binomial(poly, d)
    for d in (d for d in mu if mu[d] == -1):
        # p = q * (x^d - 1) reads p[i] = q[i - d] - q[i], so q[i] = q[i - d] - p[i].
        quotient: list[int] = []
        for i in range(len(poly) - d):
            quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
        if _times_binomial(quotient, d) != poly:
            raise InternalInconsistency(f"x^{d} - 1 does not divide the product for Phi_{n}")
        poly = quotient
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_residues(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row e < n holds the non-zero (index, coefficient) pairs of the canonical
    # residue of z^e modulo the n-th cyclotomic polynomial.  With r the
    # product of the primes of n and m = n/r, Phi_n(z) = Phi_r(z^m): the
    # residue of z^(q*m + s), s < m, is that of y^q modulo Phi_r with y^j read
    # as z^(j*m + s), so only the r rows of Phi_r are shifted densely.
    r = prod(_factor(n))
    m = n // r
    modulus = cyclotomic_polynomial(r)
    phi = len(modulus) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(r):
        rows.append(tuple((j * m, c) for j, c in enumerate(cur) if c))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i in range(phi):
                cur[i] -= lead * modulus[i]
    return tuple(tuple((i + s, c) for i, c in row) for row in rows for s in range(m))


@lru_cache(maxsize=None)
def _ramanujan_sums(n: int) -> tuple[int, ...]:
    # Entry i is the trace of z^i from the n-th cyclotomic field to the
    # rationals, the Ramanujan sum mu(n/g) * phi(n) / phi(n/g) with g = gcd(i, n),
    # computed once per divisor g.
    phi = euler_phi(n)
    by_gcd = {g: _mobius(n // g) * (phi // euler_phi(n // g)) for g in divisors(n)}
    return tuple(by_gcd[gcd(i, n)] for i in range(n))


def _fold(n: int, acc: list[int], pairs: Iterable[tuple[int, int]]) -> list[int]:
    # Add k times the canonical residue of z^e to the power-basis accumulator
    # for each (e, k) pair, 0 <= e < n: the one reader of the
    # `_power_residues` table, built only at the first non-zero exponent.
    rows = None
    for e, k in pairs:
        if not e:
            acc[0] += k
        elif k:
            rows = rows or _power_residues(n)
            for i, c in rows[e]:
                acc[i] += k * c
    return acc


def _lift(n: int, exponent_coeffs: Mapping[int, RationalLike]) -> tuple[list[tuple[int, int]], int]:
    # (pairs, D): sum_e c_e * z^e is D^-1 times the sum of k * z^e over the
    # integer (e, k) pairs, with every exponent taken modulo n.  An int
    # coefficient is read as it is, with no Fraction built for it.
    items = [(e, c if isinstance(c, int) else as_fraction(c)) for e, c in exponent_coeffs.items()]
    D = lcm(*(c.denominator for _, c in items))
    return [(e % n, c.numerator * (D // c.denominator)) for e, c in items], D


_ZERO = Fraction(0)


def _signed_sum(terms: Iterable[tuple[bool, str, str]]) -> str:
    """Join (negative, magnitude, power) terms as 'a + b*t - t^2': a power of
    magnitude 1 stands alone, an empty power is the constant term, the first
    term is signed only when negative, and no terms give '0'."""
    parts = []
    for negative, mag, power in terms:
        term = (power if mag == "1" else f"{mag}*{power}") if power else mag
        sign = ("- " if negative else "+ ") if parts else ("-" if negative else "")
        parts.append(sign + term)
    return " ".join(parts) or "0"


class Cyclotomic:
    """A value in the field of n-th roots of unity, in canonical reduced form.

    Immutable.  A value is stored once, as its power-basis coefficients over
    one positive common denominator D: `terms` holds the non-zero (index,
    D * coefficient) pairs in increasing index, and D shares no factor with
    their numerators, so equal field values have equal (conductor, D, terms),
    and equality and hashing read that triple alone: a value equals only a
    value, never a rational.  `from_exponents` builds every value and
    `galois_apply` every image, both through `__init__`, which reduces one
    dense integer accumulator.  A value has no arithmetic: it is compared,
    hashed, embedded and printed.
    """

    __slots__ = ("conductor", "denominator", "terms")

    def __init__(self, conductor: int, numerators: Sequence[int], denominator: int):
        g = gcd(denominator, *numerators) if denominator != 1 else 1
        if g != 1:
            denominator //= g
            terms = tuple((i, a // g) for i, a in enumerate(numerators) if a)
        else:
            terms = tuple((i, a) for i, a in enumerate(numerators) if a)
        # The bits the coefficients would take as reduced Fractions are at most
        # their numerator bits plus those of D, and 1 for each zero.
        bits = len(numerators) - len(terms) + len(terms) * denominator.bit_length()
        _check_budget(bits + sum(a.bit_length() for _, a in terms))
        self.conductor = conductor
        self.denominator = denominator
        self.terms = terms

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) power-basis coefficients, built on each read."""
        out = [_ZERO] * euler_phi(self.conductor)
        for i, a in self.terms:
            out[i] = Fraction(a, self.denominator)
        return tuple(out)

    @classmethod
    def from_exponents(
        cls, n: int, exponent_coeffs: Mapping[int, RationalLike], denominator: int = 1
    ) -> "Cyclotomic":
        """Build (sum_e c_e * z^e) / denominator with exponents taken modulo n,
        then canonicalize."""
        pairs, D = _lift(n, exponent_coeffs)
        return cls(n, _fold(n, [0] * euler_phi(n), pairs), D * denominator)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.denominator == other.denominator
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.conductor, self.denominator, self.terms))

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> bool:
        return not self.terms or self.terms[-1][0] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.terms[0][1], self.denominator) if self.terms else _ZERO

    def to_complex(self) -> complex:
        """Double-precision embedding z = exp(2*pi*i/n); int true division is
        correctly rounded, so a / D is the float of the reduced coefficient."""
        n = self.conductor
        D = self.denominator
        total = 0j
        for i, a in self.terms:
            total += a / D * cmath.exp(2j * cmath.pi * i / n)
        return total

    def real_embedding(self) -> float:
        return self.to_complex().real

    def __str__(self):
        # A rational value renders as its Fraction: one term (0, a) with a
        # prime to D, or none.
        D = self.denominator
        terms = []
        for i, a in self.terms:
            g = gcd(a, D)
            mag = str(abs(a) // g) if g == D else f"{abs(a) // g}/{D // g}"
            terms.append((a < 0, mag, f"z{self.conductor}^{i}" if i else ""))
        return _signed_sum(terms)

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self})"


def galois_apply(h: int, x: Cyclotomic) -> Cyclotomic:
    """Image of x under the field automorphism sending z to z^h (h a unit mod n)."""
    n = x.conductor
    if gcd(h, n) != 1:
        raise ValueError(f"{h} is not a unit modulo {n}")
    acc = _fold(n, [0] * euler_phi(n), [(i * h % n, a) for i, a in x.terms])
    return Cyclotomic(n, acc, x.denominator)


def galois_orbit(x: Cyclotomic) -> tuple[Cyclotomic, ...]:
    """Distinct images of x under the full unit group, in first-seen order."""
    n = x.conductor
    return tuple(dict.fromkeys(galois_apply(h, x) for h in range(1, n + 1) if gcd(h, n) == 1))


def _times(vector: list[int], step: Sequence[tuple[int, int]]) -> list[int]:
    # vector * sum of k * z^e over the (e, k) step in Z[z]/(z^n - 1), n the
    # vector's length: one rotation per exponent, with no reduction.
    out = [0] * len(vector)
    for e, k in step:
        out = [a + k * b for a, b in zip(out, vector[-e:] + vector[:-e])]
    _check_budget(sum(map(int.bit_length, out)))
    return out


def minimal_polynomial(n: int, exponent_coeffs: Mapping[int, RationalLike]) -> tuple[Fraction, ...]:
    """Monic minimal polynomial over the rationals (coefficients low to high)
    of x = sum_e c_e * z^e, given by the exponent counts `from_exponents` takes.

    With d the size of the Galois orbit of x, the power sums of the orbit are
    p_k = Tr(x^k) * d / phi(n).  The trace of z^i is a Ramanujan sum that
    depends only on i mod n, so x^k is taken in the group ring Z[z]/(z^n - 1):
    a dense integer vector scaled by D^k, for D the common denominator of the
    c_e, each product by x one rotation per exponent and never reduced.
    Newton's identities turn p_1..p_d into the coefficients, rational by
    construction.  The result is checked by a second route sharing only the
    exponent lift: Horner's rule evaluates it at x in the same group ring,
    scaled to integers, and the one value reduced by `from_exponents` must be
    zero.  A monic polynomial of degree d = [Q(x):Q] with x as a root is the
    minimal polynomial.
    """
    x = Cyclotomic.from_exponents(n, exponent_coeffs)
    d = len(galois_orbit(x))
    step, D = _lift(n, exponent_coeffs)
    sums = _ramanujan_sums(n)
    scale = Fraction(d, euler_phi(n))
    power_sums = []
    power = [1] + [0] * (n - 1)
    for k in range(1, d + 1):
        power = _times(power, step)
        power_sums.append(scale * Fraction(sum(map(mul, power, sums)), D**k))
    # Newton's identities for the monic coefficients, c_d = 1:
    # k * c_{d-k} = -(p_1 * c_{d-k+1} + ... + p_k * c_d).
    coeffs = [_ZERO] * d + [Fraction(1)]
    for k in range(1, d + 1):
        coeffs[d - k] = -sum(p * coeffs[d - k + i] for i, p in enumerate(power_sums[:k], 1)) / k
    # Horner's rule on L * D^(d-k) times the partial values, L the common
    # denominator of the coefficients, ends at L * D^d times the value at x.
    L = lcm(*(c.denominator for c in coeffs))
    value = [L] + [0] * (n - 1)
    for k in range(d - 1, -1, -1):
        value = _times(value, step)
        value[0] += int(L * coeffs[k]) * D ** (d - k)
    residue = Cyclotomic.from_exponents(n, dict(enumerate(value)), L * D**d)
    if residue:
        raise InternalInconsistency(
            f"trace route: minimal polynomial {format_polynomial(coeffs)} of {x} "
            f"does not vanish there by Horner's rule (value {residue})"
        )
    return tuple(coeffs)


def format_polynomial(coeffs: Sequence[Fraction]) -> str:
    """Human form of an exact polynomial, highest power first, e.g. 't^2 - 8'."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c:
            terms.append((c < 0, str(abs(c)), "" if i == 0 else "t" if i == 1 else f"t^{i}"))
    return _signed_sum(terms)
